"""The inverse monoid of integer shift maps with finitely many punctures.

An element is the partial bijection x -> x + shift defined on the integers
outside a finite excluded set; the pair (excluded, shift) is a canonical
normal form, multiplied by a closed-form rule that is oracle-checked against
windowed composition in the test suite.  Words over the alphabet
g (shift up), h (shift down), e (puncture at 0) evaluate left to right.

On top of the arithmetic sit the structural checkers: the defining relation
sweep, the idempotent antichain conditions, a decision procedure for the
annihilator relation of the puncture with explicit witnessing sequences, and
a bounded reachability search that certifies which target pairs cannot be
reached from a generating set within given resource bounds.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache

from .congruence import YSequence
from .elements import PartialMap


class NF:
    """Normal form: strictly increasing excluded integers plus a shift."""

    __slots__ = ("excluded", "shift")

    def __init__(self, excluded, shift):
        if type(excluded) is not tuple or any(type(x) is not int for x in excluded) or type(shift) is not int:
            raise ValueError(f"NF needs a tuple of ints and an int shift, got {excluded!r}, {shift!r}")
        if any(excluded[i] >= excluded[i + 1] for i in range(len(excluded) - 1)):
            raise ValueError(f"excluded set {excluded} must be strictly increasing")
        _set_excluded(self, excluded)
        _set_shift(self, shift)

    @classmethod
    def _from_internal(cls, excluded, shift):
        """Build a normal form without the ordering check.

        The caller guarantees that `excluded` is a tuple of strictly
        increasing ints, as `tuple(sorted(some_set))` is, or a strictly
        increasing tuple shifted by a constant; outside input goes through
        `NF(...)` instead.  The fields are stored through the slot
        descriptors, past the refusing `__setattr__`.
        """
        self = object.__new__(cls)
        _set_excluded(self, excluded)
        _set_shift(self, shift)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("NF is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.shift == other.shift and self.excluded == other.excluded

    def __hash__(self):
        return hash((self.excluded, self.shift))

    def __mul__(self, other):
        if not isinstance(other, NF):
            return NotImplemented
        return nf_mul(self, other)

    def __str__(self):
        return "{%s};%+d" % (",".join(map(str, self.excluded)), self.shift)

    def __repr__(self):
        return "NF({%s}, %+d)" % (",".join(map(str, self.excluded)), self.shift)


_set_excluded = NF.excluded.__set__
_set_shift = NF.shift.__set__

NF_IDENTITY = NF((), 0)
SHIFT_UP = NF((), 1)
SHIFT_DOWN = NF((), -1)
PUNCTURE = NF((0,), 0)


def nf_mul(a: NF, b: NF) -> NF:
    """Compose left to right: x is mapped iff x avoids a's punctures and
    x + a.shift avoids b's punctures.

    The excluded set is a's punctures together with b's shifted by
    -a.shift; each path below returns it strictly increasing.
    - a is the identity: the product is b itself.
    - b has no punctures: a's tuple, and a itself when b is the identity.
    - a has no punctures: b's tuple minus a constant keeps its order.
    - a has one puncture x: x + a.shift joins b's tuple at its `bisect`
      index unless it is there already, which keeps b's order with no
      repeat; the whole is then shifted by -a.shift.
    - a has more punctures: the union is sorted.
    """
    excluded, s = a.excluded, a.shift
    if not excluded and not s:
        return b
    theirs, t = b.excluded, b.shift
    if not theirs:
        if not t:
            return a
    elif not excluded:
        excluded = tuple([x - s for x in theirs])
    elif len(excluded) == 1:
        x = excluded[0] + s
        i = bisect_left(theirs, x)
        if i == len(theirs) or theirs[i] != x:
            theirs = theirs[:i] + (x,) + theirs[i:]
        excluded = tuple([y - s for y in theirs]) if s else theirs
    else:
        merged = set(excluded)
        merged.update([x - s for x in theirs])
        excluded = tuple(sorted(merged))
    return NF._from_internal(excluded, s + t)


def nf_power(a: NF, k: int) -> NF:
    """a^k in closed form: x is mapped iff x + j*shift avoids a's punctures
    for every j < k, so the excluded set is the union of E - j*shift."""
    if k < 0:
        raise ValueError("negative power")
    if k == 0:
        return NF_IDENTITY
    steps = range(k) if a.shift else range(1)
    excluded = {x - j * a.shift for x in a.excluded for j in steps}
    return NF._from_internal(tuple(sorted(excluded)), k * a.shift)


def nf_inverse(a: NF) -> NF:
    return NF._from_internal(tuple(x + a.shift for x in a.excluded), -a.shift)


def nf_of_word(word: str) -> NF:
    """Evaluate a word over {g, h, e}; the empty word is the identity.

    Multiplying by g or h moves the running shift, and multiplying by e
    punctures the point the running shift sends to 0, so one pass collects
    the excluded set and it is sorted once: linear in the word's length.
    """
    shift = 0
    excluded = set()
    for pos, ch in enumerate(word):
        if ch == "g":
            shift += 1
        elif ch == "h":
            shift -= 1
        elif ch == "e":
            excluded.add(-shift)
        else:
            raise ValueError(f"bad symbol {ch!r} at position {pos} (expected g, h or e)")
    return NF._from_internal(tuple(sorted(excluded)), shift)


@lru_cache(maxsize=4)
def _padded_run(size: int) -> tuple:
    """size Nones, then 1..size, then size Nones."""
    pad = (None,) * size
    return pad + tuple(range(1, size + 1)) + pad


def nf_window(a: NF, half_width: int) -> PartialMap:
    """Restrict the represented map to the integer window [-N, N].

    Returned as a partial bijection on 1..2N+1 via x -> x + N + 1.  The window
    must be wide enough to contain every puncture and survive the shift; the
    punctures are strictly increasing, so the widest is at one end.
    Window index i maps to i + shift + 1 while that lies in 1..2N+1, so the
    images are one slice of the padded run 1..2N+1 with 2N+1 Nones on either
    side; then each puncture x is cleared at index x + N.  Every image is None
    or a point of 1..2N+1, so the result needs no re-validation.
    """
    excluded = a.excluded
    needed = (max(-excluded[0], excluded[-1]) if excluded else 0) + abs(a.shift)
    if half_width < needed:
        raise ValueError(f"window half-width {half_width} < required {needed}")
    n = half_width
    size = 2 * n + 1
    start = size + a.shift
    images = _padded_run(size)[start:start + size]
    if excluded:
        images = list(images)
        for x in excluded:
            images[x + n] = None
        images = tuple(images)
    return PartialMap._from_internal(images)


PRESENTATION_BASE = (
    ("hg", "gh"),
    ("ghg", "g"),
    ("hgh", "h"),
    ("ghe", "e"),
    ("egh", "e"),
    ("e", "ee"),
)


def presentation_relations(max_k: int):
    """The defining relation word pairs, with exponents up to max_k.

    Words for exponent k have 4k+2 letters; `check_presentation` evaluates
    the same relations from closed-form blocks, and the tests hold it to
    these words."""
    rels = list(PRESENTATION_BASE)
    for k in range(1, max_k + 1):
        gk, hk = "g" * k, "h" * k
        rels.append(("e" + gk + "e" + hk, gk + "e" + hk + "e"))
        rels.append(("e" + hk + "e" + gk, hk + "e" + gk + "e"))
    return rels


def _presentation_sides(max_k: int):
    """Both sides of each defining relation as normal forms, in the order of
    `presentation_relations`.

    The base relations are evaluated from their words.  A parametrised
    relation e·p·e·q = p·e·q·e, with (p, q) = (g^k, h^k) or (h^k, g^k), is
    joined from the closed-form blocks e, g^k and h^k, so each costs O(1)
    products whatever the value of k.
    """
    for lhs, rhs in PRESENTATION_BASE:
        yield nf_of_word(lhs), nf_of_word(rhs)
    e = PUNCTURE
    for k in range(1, max_k + 1):
        gk, hk = NF._from_internal((), k), NF._from_internal((), -k)
        eg, eh, ge, he = nf_mul(e, gk), nf_mul(e, hk), nf_mul(gk, e), nf_mul(hk, e)
        yield nf_mul(eg, eh), nf_mul(ge, he)
        yield nf_mul(eh, eg), nf_mul(he, ge)


def check_limits(max_k=0, max_n=0):
    """Refuse a bound below 0 or past the limit its checker's cost allows."""
    for name, value, limit in (("max_k", max_k, 100_000), ("max_n", max_n, 200)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
        if value > limit:
            raise ValueError(f"{name} must be at most {limit}, got {value}")


def check_presentation(max_k: int) -> bool:
    """Every defining relation holds as an exact normal-form equality; the
    cost is linear in max_k, which is refused past 100000."""
    check_limits(max_k=max_k)
    return all(lhs == rhs for lhs, rhs in _presentation_sides(max_k))


def check_nc(max_n: int) -> bool:
    """The four antichain conditions on conjugated punctures, up to max_n.

    up(k) = g^k e h^k and dn(k) = h^k e g^k are idempotents; the conditions
    say the puncture commutes with them, they form an antichain between the
    two families and within each family, so up(1..N) ∪ dn(1..N) is one
    antichain, and e·up(n) sits below no up(k) with 0 < k < n and below no
    dn(k) at all.  The cost is quadratic in max_n, which is refused past 200.
    """
    check_limits(max_n=max_n)
    e = PUNCTURE
    up = [None] + [nf_of_word("g" * k + "e" + "h" * k) for k in range(1, max_n + 1)]
    dn = [None] + [nf_of_word("h" * k + "e" + "g" * k) for k in range(1, max_n + 1)]
    if nf_of_word("hge") != e or nf_of_word("ehg") != e:
        return False
    for n in range(1, max_n + 1):
        if nf_mul(e, up[n]) != nf_mul(up[n], e):
            return False
        if nf_mul(e, dn[n]) != nf_mul(dn[n], e):
            return False
    # Each idempotent is proved so once; comparisons then cost two products.
    family = up[1:] + dn[1:]
    if not all(nf_mul(x, x) == x for x in family):
        return False
    if any(_below(x, y) for x, y in itertools.permutations(family, 2)):
        return False
    for n in range(1, max_n + 1):
        eup = nf_mul(e, up[n])
        if nf_mul(eup, eup) != eup:
            return False
        if any(_below(eup, up[k]) for k in range(1, n)) or any(_below(eup, dn[k]) for k in range(1, n + 1)):
            return False
    return True


def _below(e, f):
    """e <= f in the natural order, for idempotents e and f: the products of
    `order.natural_leq` without its idempotency checks."""
    return nf_mul(f, e) == e and nf_mul(e, f) == e


class AnnihilatorVerdict(namedtuple("AnnihilatorVerdict", "member n side", defaults=(None, None))):
    __slots__ = ()


def _annihilator_decision(u: NF, v: NF):
    """(e·u, e·v, d, member) for the pair (u, v); see `in_annihilator`."""
    eu = nf_mul(PUNCTURE, u)
    ev = nf_mul(PUNCTURE, v)
    d = ev.shift - eu.shift
    moved = tuple([x - d for x in eu.excluded]) if d else eu.excluded
    return eu, ev, d, ev.excluded == moved


def in_annihilator(u: NF, v: NF) -> AnnihilatorVerdict:
    """Decide whether g^n·e·u == e·v or h^n·e·u == e·v for some n >= 0.

    With d the shift of e·v less that of e·u, the shift by d is the only
    candidate, and it sends e·u to ({x - d : x punctured in e·u}, e·v's
    shift), so comparing the punctures settles membership: n = |d|, on the
    g side when d > 0 and the h side when d < 0.
    """
    _, _, d, member = _annihilator_decision(u, v)
    if not member:
        return AnnihilatorVerdict(False)
    return AnnihilatorVerdict(True, abs(d), "g" if d > 0 else "h" if d < 0 else None)


def annihilator_witness(u: NF, v: NF) -> YSequence:
    """An explicit validated sequence from v to u over the annihilator pairs.

    For exponent n > 0 this is the three-step chain through (1,e) and the
    side's pair (g^n e, h^n e g^n) or (h^n e, g^n e h^n), with multipliers
    v, e·u, u; exponent 0 degenerates to one or two steps.  The decision and
    the steps share the products e·u and e·v.
    """
    eu, ev, d, member = _annihilator_decision(u, v)
    if not member:
        raise ValueError("pair is not in the annihilator relation")
    e, one = PUNCTURE, NF_IDENTITY
    if d == 0:
        if v == eu:
            steps = ((e, one, u),)
        elif u == ev:
            steps = ((one, e, v),)
        else:
            steps = ((one, e, v), (e, one, u))
    else:
        steps = ((one, e, v), (*_y_pair(d), eu), (e, one, u))
    seq = YSequence(v, u, steps)
    if not seq.validate(nf_mul):
        raise AssertionError(f"constructed witness fails to validate for ({u!r}, {v!r})")
    return seq


def _y_pair(s: int):
    """The generating pair at signed level s, ({-s};+s, {s};+0).

    s = k > 0 gives (g^k e, h^k e g^k) and s = -k gives (h^k e, g^k e h^k):
    the first element punctures -s and the second punctures s.
    """
    return NF._from_internal((-s,), s), NF._from_internal((s,), 0)


def y_n(n: int):
    """The 2n+1 generating pairs (1,e), (g^k e, h^k e g^k), (h^k e, g^k e h^k)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    pairs = [(NF_IDENTITY, PUNCTURE)]
    for k in range(1, n + 1):
        pairs += (_y_pair(k), _y_pair(-k))
    return pairs


def divide_left(c: NF, u: NF):
    """All t with c*t == u, in a deterministic order.

    From the product rule, solutions exist iff c's punctures are among u's;
    the free choice is which of c's punctures to re-include, so there are at
    most 2**len(c.excluded) solutions.
    """
    set_c = set(c.excluded)
    set_u = set(u.excluded)
    if not set_c <= set_u:
        return []
    base = set_u - set_c
    shift_t = u.shift - c.shift
    out = []
    for r in range(len(c.excluded) + 1):
        for extra in itertools.combinations(c.excluded, r):
            ex_t = tuple(sorted(x + c.shift for x in base | set(extra)))
            t = NF._from_internal(ex_t, shift_t)
            assert nf_mul(c, t) == u
            out.append(t)
    return out


class ChainReport(namedtuple(
    "ChainReport", "n y_index reached explored depth pruned max_excluded max_magnitude max_length exhausted"
)):
    """Outcome of a bounded reachability search.

    `pruned` counts successor states that were discarded for exceeding the
    puncture or magnitude bounds.  `exhausted` is true only when the frontier
    emptied before the length cap cut it off; `pruned == 0` alone says
    nothing about the length cap.  When `exhausted`, `pruned == 0` and
    reached=False all hold, the search enumerated the whole
    rho_{Y_y_index}-class of g^n·e, since `divide_left` returns every t with
    c·t = w and only pairs whose c cannot divide w are skipped; so
    (g^n e, h^n e g^n) is not in rho_{Y_y_index}.  Otherwise reached=False is
    evidence for the stated bounds only.
    """

    __slots__ = ()


def chain_search(
    n: int,
    y_index: int | None = None,
    max_excluded: int | None = None,
    max_magnitude: int | None = None,
    max_length: int = 8,
) -> ChainReport:
    """Bounded BFS for a sequence from g^n·e to h^n·e·g^n over Y_{y_index}.

    A step from state w picks a directed pair (c, d) and any t with c*t == w,
    moving to d*t.  States whose puncture count or coordinate magnitudes
    exceed the bounds are pruned, as are sequences longer than max_length.

    Some t exists only when c's punctures are among w's, so from w only
    (1, e), (e, 1) when 0 is a puncture, and the pairs of levels k = |x| for
    punctures x of w are tried, in the order of y_n.  Each pair is built in
    closed form, so the cost does not grow with the value of y_index or n.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if max_length < 0:
        raise ValueError(f"max_length must be non-negative, got {max_length}")
    if y_index is None:
        if n < 2:
            raise ValueError("default search needs n >= 2 (it uses Y_{n-1})")
        y_index = n - 1
    if y_index < 1:
        raise ValueError(f"y_index must be at least 1, got {y_index}")
    if max_excluded is None:
        max_excluded = n + 2
    if max_excluded < 0:
        raise ValueError(f"max_excluded must be non-negative, got {max_excluded}")
    if max_magnitude is None:
        max_magnitude = 3 * n
    if max_magnitude < 0:
        raise ValueError(f"max_magnitude must be non-negative, got {max_magnitude}")
    start, target = _y_pair(n)

    def directed(w):
        """The directed pairs (c, d) of Y_{y_index} whose c divides w."""
        punctures = set(w.excluded)
        pairs = [(NF_IDENTITY, PUNCTURE)]
        if 0 in punctures:
            pairs.append((PUNCTURE, NF_IDENTITY))
        for k in sorted({abs(x) for x in punctures if 0 < abs(x) <= y_index}):
            for s in (k, -k):
                c, d = _y_pair(s)
                if -s in punctures:
                    pairs.append((c, d))
                if s in punctures:
                    pairs.append((d, c))
        return pairs

    def within_bounds(w):
        if len(w.excluded) > max_excluded:
            return False
        coords = w.excluded + (w.shift,)
        return all(abs(x) <= max_magnitude for x in coords)

    visited = {start}
    frontier = [start]
    explored = 1
    pruned = 0
    depth = None
    for level in range(1, max_length + 1):
        nxt = []
        for successor in (nf_mul(d, t) for w in frontier
                          for c, d in directed(w) for t in divide_left(c, w)):
            if successor == target:
                depth = level
                break
            if successor in visited:
                continue
            if not within_bounds(successor):
                pruned += 1
                continue
            visited.add(successor)
            nxt.append(successor)
            explored += 1
        frontier = nxt
        if depth is not None or not frontier:
            break
    reached = depth is not None
    return ChainReport(
        n, y_index, reached, explored, depth, pruned,
        max_excluded, max_magnitude, max_length, not reached and not frontier,
    )
