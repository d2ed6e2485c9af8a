"""Divisibility preorders, the natural order on idempotents, and regularity.

`leq_R` and `leq_L` read a ≤ b in one pass over both elements.  For maps,
≤_R asks that b's image (None included) determine a's and that no point be
defined under a but not under b; ≤_L is image containment.  For partitions
one routine serves both sides.  It reads the row that the side's multiplier
leaves alone, the upper row for ≤_R and the lower one for ≤_L: the points
of each block of b on that row must lie in one block of a, and a block of b
with no point on the other row must be a block of a.  `leq_oracle` answers
the same question over an enumerated monoid, from the principal ideal's
bitmask, and scans the product row only to find a witness.
"""

from __future__ import annotations

from array import array
from collections import namedtuple

from .elements import check_pair, row_points


class OrderVerdict(namedtuple("OrderVerdict", "holds witness", defaults=(None,))):
    __slots__ = ()


def leq_R(kind, a, b) -> bool:
    """a is a right multiple of b."""
    check_pair(kind, a, b)
    if kind == "P":
        return _leq_partition(a, b, lower=False)
    image_of = {}
    for u, v in zip(a.images, b.images):
        if (v is None and u is not None) or image_of.setdefault(v, u) != u:
            return False
    return True


def leq_L(kind, a, b) -> bool:
    """a is a left multiple of b."""
    check_pair(kind, a, b)
    if kind == "P":
        return _leq_partition(a, b, lower=True)
    return a.im() <= b.im()


def _leq_partition(a, b, lower):
    """The partition preorder on one row, with points labelled by a's blocks."""
    n = a.n
    label = [0] * (2 * n + 1)
    for k, block in enumerate(a.blocks):
        for p in block:
            label[p] = k
    for block in b.blocks:
        own = row_points(block, n, lower)
        if own:
            k = label[own[0]]
            for p in own:
                if label[p] != k:
                    return False
            if len(own) == len(block) and a.blocks[k] != block:
                return False
    return True


def leq_oracle(S, a, b, side="R") -> OrderVerdict:
    """The first s in S with b*s == a (side R) or s*b == a (side L): a is
    in b's ideal by its cached bitmask in S or in its opposite, and only
    then is b's product row scanned for s."""
    sided = S.on_side(side)
    ia, ib = S.index_of(a), S.index_of(b)
    if not sided.right_ideal_idx(ib) >> ia & 1:
        return OrderVerdict(False)
    return OrderVerdict(True, S.elements[_first_index(sided.row(ib), ia)])


def _first_index(row, value):
    """row.index(value) for a `bytes` or `array` product row.

    An array's `.index` builds an int per entry, so an array row's bytes are
    searched for the packed value instead; a match that starts inside an
    entry is skipped.  Like `.index`, it raises ValueError when value is
    absent.
    """
    if type(row) is bytes:
        return row.index(value)
    raw, packed, size = row.tobytes(), array(row.typecode, (value,)).tobytes(), row.itemsize
    at = raw.index(packed)
    while at % size:
        at = raw.index(packed, at + 1)
    return at // size


def is_idempotent(x) -> bool:
    return x * x == x


def natural_leq(e, f) -> bool:
    """Natural partial order on idempotents: e <= f iff fe == ef == e."""
    if not is_idempotent(e):
        raise ValueError(f"{e!r} is not idempotent")
    if not is_idempotent(f):
        raise ValueError(f"{f!r} is not idempotent")
    return f * e == e and e * f == e


def generalized_inverses(S, a) -> list:
    """All x in S with a*x*a == a and x*a*x == x; empty iff a is not regular.

    With col the row of a in the opposite monoid, col[y] = y*a, so a*x*a is
    col[a*x] and x*a*x is read in the row of x*a: besides that one row of
    the opposite, only the rows of a and of members of S*a are read.
    """
    ia = S.index_of(a)
    row_a = S.row(ia)
    col = S.opposite().row(ia)
    return [
        S.elements[x]
        for x in range(len(S))
        if col[row_a[x]] == ia and S.row(col[x])[x] == x
    ]
