"""Divisibility preorders, the natural order on idempotents, and regularity.

`leq_R` reads a ≤_R b in one pass over both elements: for maps, b's image
(None included) must determine a's, and no point may be defined under a but
not under b; for partitions, the upper part of every mixed block of b must
lie in one block of a, and every upper-only block of b must be one of a's.
`leq_L` is image containment for maps; for partitions it is the mirror
of `leq_R` read on the lower row, with no element rebuilt: the lower part
of every mixed block of b must lie in one block of a, and every lower-only
block of b must be one of a's.  `leq_oracle` answers the same
question by exhaustive multiplier search over an enumerated monoid and
returns the witness it finds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .elements import check_pair


@dataclass(frozen=True)
class OrderVerdict:
    holds: bool
    witness: object | None = None


def leq_R(kind, a, b) -> bool:
    """a is a right multiple of b."""
    check_pair(kind, a, b)
    if kind == "P":
        return _leq_R_partition(a, b)
    image_of = {}
    for u, v in zip(a.images, b.images):
        if (v is None and u is not None) or image_of.setdefault(v, u) != u:
            return False
    return True


def _leq_R_partition(a, b):
    """Blocks are ascending, so a block's upper points come first and a
    block is upper-only iff its last point is."""
    n = a.n
    label = [0] * (n + 1)
    upper_only = set()
    for k, block in enumerate(a.blocks):
        if block[-1] <= n:
            upper_only.add(block)
        for p in block:
            if p > n:
                break
            label[p] = k
    for block in b.blocks:
        if block[-1] <= n:
            if block not in upper_only:
                return False
        elif block[0] <= n:
            k = label[block[0]]
            for p in block:
                if p > n:
                    break
                if label[p] != k:
                    return False
    return True


def leq_L(kind, a, b) -> bool:
    """a is a left multiple of b."""
    check_pair(kind, a, b)
    if kind == "P":
        return _leq_L_partition(a, b)
    return a.im() <= b.im()


def _leq_L_partition(a, b):
    """Blocks are ascending, so a block's lower points are its suffix and a
    block is lower-only iff its first point is."""
    n = a.n
    label = [0] * (2 * n + 1)
    lower_only = set()
    for k, block in enumerate(a.blocks):
        if block[0] > n:
            lower_only.add(block)
        for p in reversed(block):
            if p <= n:
                break
            label[p] = k
    for block in b.blocks:
        if block[0] > n:
            if block not in lower_only:
                return False
        elif block[-1] > n:
            k = label[block[-1]]
            for p in reversed(block):
                if p <= n:
                    break
                if label[p] != k:
                    return False
    return True


def leq_oracle(S, a, b, side="R") -> OrderVerdict:
    """The first s in S with b*s == a (side R) or s*b == a (side L), found
    in b's product row in S or in its opposite."""
    if side not in ("R", "L"):
        raise ValueError(f"side must be 'R' or 'L', got {side!r}")
    ia = S.index_of(a)
    ib = S.index_of(b)
    products = (S if side == "R" else S.opposite()).row(ib)
    try:
        s = products.index(ia)
    except ValueError:
        return OrderVerdict(False)
    return OrderVerdict(True, S.elements[s])


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
