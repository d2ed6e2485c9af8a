"""The inverse monoid of integer shift maps with finitely many punctures.

An element is the partial bijection x -> x + shift defined on the integers
outside a finite excluded set; the pair (excluded, shift) is a canonical
normal form, multiplied by a closed-form rule that is checked pointwise on
ℤ and against windowed composition in the tests.  Words over the alphabet
g (shift up), h (shift down), e (puncture at 0) evaluate left to right.

On top of the arithmetic sit the structural checkers: the defining relations
and the idempotent antichain conditions, each settled for every index by one
fixed check, a decision procedure for the annihilator relation of the
puncture with explicit witnessing sequences, and the ρ_{Y_k}-classes listed
in closed form, which decide each link of the strict chain
ρ_{Y_1} ⊊ ρ_{Y_2} ⊊ … for any n at the same cost.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .congruence import YSequence
from .elements import PartialMap
from .order import natural_leq


class NF:
    """Normal form: strictly increasing excluded integers plus a shift.

    Its canonical text is written on first print and kept in `_text`, so an
    element printed again, such as the puncture in every witness, or one
    parsed from canonical text, prints from the slot.
    """

    __slots__ = ("excluded", "shift", "_text")

    def __init__(self, excluded, shift):
        if type(excluded) is not tuple or any(type(x) is not int for x in excluded) or type(shift) is not int:
            raise ValueError(f"NF needs a tuple of ints and an int shift, got {excluded!r}, {shift!r}")
        if any(excluded[i] >= excluded[i + 1] for i in range(len(excluded) - 1)):
            raise ValueError(f"excluded set {excluded} must be strictly increasing")
        _set_excluded(self, excluded)
        _set_shift(self, shift)
        _set_text(self, None)

    @classmethod
    def _from_internal(cls, excluded, shift, text=None):
        """Build a normal form without the ordering check.

        The caller guarantees that `excluded` is a tuple of strictly
        increasing ints, as `tuple(sorted(some_set))` is, or a strictly
        increasing tuple shifted by a constant, and that `text`, if given,
        is the canonical text of the pair; outside input goes through
        `NF(...)` instead.  The fields are stored through the slot
        descriptors, past the refusing `__setattr__`.
        """
        self = object.__new__(cls)
        _set_excluded(self, excluded)
        _set_shift(self, shift)
        _set_text(self, text)
        return self

    def __setattr__(self, *_):
        raise AttributeError("NF is immutable")

    __delattr__ = __setattr__

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
        text = self._text
        if text is None:
            text = "{%s};%+d" % (",".join(map(str, self.excluded)), self.shift)
            _set_text(self, text)
        return text

    def __repr__(self):
        return "NF({%s}, %+d)" % (",".join(map(str, self.excluded)), self.shift)


_set_excluded = NF.excluded.__set__
_set_shift = NF.shift.__set__
_set_text = NF._text.__set__

NF_IDENTITY = NF((), 0)
SHIFT_UP = NF((), 1)
SHIFT_DOWN = NF((), -1)
PUNCTURE = NF((0,), 0)


def nf_mul(a: NF, b: NF) -> NF:
    """Compose left to right: x is mapped iff x avoids a's punctures and
    x + a.shift avoids b's punctures.

    The excluded set is E_a ∪ (E_b - s_a), sorted once.  A product with
    the identity is the other factor itself.
    """
    excluded, s = a.excluded, a.shift
    if not excluded and not s:
        return b
    theirs, t = b.excluded, b.shift
    if not theirs and not t:
        return a
    merged = set(excluded)
    merged.update([x - s for x in theirs])
    return NF._from_internal(tuple(sorted(merged)), s + t)


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


def nf_window(a: NF, half_width: int) -> PartialMap:
    """Restrict the represented map to the integer window [-N, N].

    Returned as a partial bijection on 1..2N+1 via x -> x + N + 1.  The window
    must be wide enough to contain every puncture and survive the shift; the
    punctures are strictly increasing, so the widest is at one end.  A point
    whose image leaves the window is unmapped.
    """
    excluded = a.excluded
    needed = (max(-excluded[0], excluded[-1]) if excluded else 0) + abs(a.shift)
    if half_width < needed:
        raise ValueError(f"window half-width {half_width} < required {needed}")
    n, s, punctures = half_width, a.shift, set(excluded)
    images = [None if x in punctures or abs(x + s) > n else x + s + n + 1 for x in range(-n, n + 1)]
    return PartialMap._from_internal(tuple(images))


PRESENTATION_BASE = (
    ("hg", "gh"),
    ("ghg", "g"),
    ("hgh", "h"),
    ("ghe", "e"),
    ("egh", "e"),
    ("e", "ee"),
)


def check_presentation() -> bool:
    """Every defining relation holds, for every k >= 1, as an exact
    normal-form equality.

    The base relations are evaluated from their words.  The relations
    e·g^k·e·h^k = g^k·e·h^k·e and its mirror e·h^k·e·g^k = h^k·e·g^k·e are
    joined at k = 1 from the blocks e, g and h, and that covers every k:
    the scaling σ_k: (E; s) ↦ (kE; ks) is an injective morphism, since a
    product's punctures E_a ∪ (E_b - s_a) scale with it, and it sends g, h
    and e to g^k, h^k and e.  So relation k is σ_k of relation 1, and it
    holds exactly when relation 1 does.
    """
    if any(nf_of_word(lhs) != nf_of_word(rhs) for lhs, rhs in PRESENTATION_BASE):
        return False
    e, g, h = PUNCTURE, SHIFT_UP, SHIFT_DOWN
    eg, eh, ge, he = nf_mul(e, g), nf_mul(e, h), nf_mul(g, e), nf_mul(h, e)
    return nf_mul(eg, eh) == nf_mul(ge, he) and nf_mul(eh, eg) == nf_mul(he, ge)


def check_nc() -> bool:
    """The four antichain conditions on conjugated punctures, for every index.

    up(k) = g^k e h^k and dn(k) = h^k e g^k are idempotents; the conditions
    say the puncture commutes with them, they form an antichain between the
    two families and within each family, so all the up(k) and dn(k) form
    one antichain, and e·up(n) sits below no up(k) with 0 < k < n and below
    no dn(k) at all.

    They are checked at the indices 1 and 2, and that covers every index.
    Each element compared is an idempotent (E; 0), up(k) = ({-k}; 0),
    dn(k) = ({k}; 0) and e·up(n) = ({-n, 0}; 0), so a product of two is the
    union of their punctures.  Each condition names at most two indices
    k < n; the points 0, ±k and ±n are then distinct, and relabelling them
    0, ±1 and ±2 keeps every product and every equality.
    """
    e = PUNCTURE
    if nf_of_word("hge") != e or nf_of_word("ehg") != e:
        return False
    up = [nf_of_word("g" * k + "e" + "h" * k) for k in (1, 2)]
    dn = [nf_of_word("h" * k + "e" + "g" * k) for k in (1, 2)]
    family = up + dn
    if any(nf_mul(e, x) != nf_mul(x, e) for x in family):
        return False
    eup = [nf_mul(e, x) for x in up]
    # Proved idempotent here, so `natural_leq` never raises below.
    if not all(nf_mul(x, x) == x for x in family + eup):
        return False
    pairs = [*itertools.permutations(family, 2), (eup[1], up[0]), *itertools.product(eup, dn)]
    return not any(natural_leq(x, y) for x, y in pairs)


class AnnihilatorVerdict(namedtuple("AnnihilatorVerdict", "member n side", defaults=(None, None))):
    __slots__ = ()


def _moved_punctures(u: NF) -> set:
    """C(u) = ({0} ∪ E) + s for u = (E; s): the punctures of e·u moved by
    its shift."""
    s = u.shift
    c = {x + s for x in u.excluded}
    c.add(s)
    return c


_NOT_A_MEMBER = AnnihilatorVerdict(False)


def _annihilator_decision(u: NF, v: NF):
    """(C(u), d, member) for the pair (u, v); see `in_annihilator`."""
    c = _moved_punctures(u)
    return c, v.shift - u.shift, c == _moved_punctures(v)


def in_annihilator(u: NF, v: NF) -> AnnihilatorVerdict:
    """Decide whether g^n·e·u == e·v or h^n·e·u == e·v for some n >= 0.

    The pair is in the relation exactly when C(u) = C(v), where
    C(u) = ({0} ∪ E_u) + s_u for u = (E_u; s_u): e·u is ({0} ∪ E_u; s_u),
    and with d = s_v - s_u the shift by d is the only candidate; it sends
    e·u to (({0} ∪ E_u) - d; s_v), which is e·v exactly when the two C sets
    agree.  Then n = |d|, on the g side when d > 0 and the h side when
    d < 0.  No product is made.
    """
    _, d, member = _annihilator_decision(u, v)
    if not member:
        return _NOT_A_MEMBER
    return AnnihilatorVerdict(True, abs(d), "g" if d > 0 else "h" if d < 0 else None)


def annihilator_witness(u: NF, v: NF) -> YSequence:
    """An explicit sequence from v to u over the annihilator pairs.

    For exponent n > 0 this is the three-step chain through (1,e) and the
    side's pair (g^n e, h^n e g^n) or (h^n e, g^n e h^n), with multipliers
    v, e·u, u; e·u is built once from C(u), with no product.  Exponent 0
    degenerates to one step when 0 is punctured in v (then v = e·u) or in u
    (then u = e·v), and to two otherwise.  The chain is built from the
    closed form and returned unvalidated: `validate(nf_mul)` checks it, as
    the `ann-decision` suite does.
    """
    c, d, member = _annihilator_decision(u, v)
    if not member:
        raise ValueError("pair is not in the annihilator relation")
    e, one = PUNCTURE, NF_IDENTITY
    if d == 0:
        if 0 in v.excluded:
            steps = ((e, one, u),)
        elif 0 in u.excluded:
            steps = ((one, e, v),)
        else:
            steps = ((one, e, v), (e, one, u))
    else:
        s = u.shift
        eu = NF._from_internal(tuple([x - s for x in sorted(c)]), s)
        steps = ((one, e, v), (*_y_pair(d), eu), (e, one, u))
    return YSequence(v, u, steps)


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


def y_class(u: NF, k: int):
    """The ρ_{Y_k}-class of u in closed form, in ascending shift q, the
    saturated element of each q first.

    For u = (E; s) put C = (E ∪ {0}) + s, the punctures of e·u moved by its
    shift; s lies in C.  The pair (1, e) adds 0 to E, and the level-j pair
    rewrites a saturated (A; q) with -j in A to (A + j; q - j): both keep C,
    and q moves by at most k between points of C.  So the class holds, for
    each point q of C that gaps of at most k join to s, the saturated
    (C - q; q) and the same without 0.
    """
    points = [x + u.shift for x in sorted({0, *u.excluded})]
    lo = hi = points.index(u.shift)
    while lo and points[lo] - points[lo - 1] <= k:
        lo -= 1
    while hi + 1 < len(points) and points[hi + 1] - points[hi] <= k:
        hi += 1
    members = []
    for q in points[lo:hi + 1]:
        saturated = tuple([x - q for x in points])
        members += NF._from_internal(saturated, q), NF._from_internal(tuple([x for x in saturated if x]), q)
    return members


class ChainReport(namedtuple("ChainReport", "n y_index reached explored depth")):
    """Whether h^n·e·g^n lies in the ρ_{Y_y_index}-class of g^n·e.

    `explored` is the size of that class, which `y_class` lists whole: 2
    when the target is blocked, 4 when it is reached, at `depth` 1, since
    the pair is itself the generator of level n.
    """

    __slots__ = ()


def chain_search(n: int, y_index: int | None = None) -> ChainReport:
    """Decide (g^n·e, h^n·e·g^n) ∈ ρ_{Y_y_index}, by default under Y_{n-1}.

    Both ends have C = {0, n}, so the target is reached exactly when the gap
    n is at most y_index; the cost does not grow with n or y_index.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if y_index is None:
        if n < 2:
            raise ValueError("default search needs n >= 2 (it uses Y_{n-1})")
        y_index = n - 1
    if y_index < 1:
        raise ValueError(f"y_index must be at least 1, got {y_index}")
    start, target = _y_pair(n)
    members = y_class(start, y_index)
    reached = target in members
    return ChainReport(n, y_index, reached, len(members), 1 if reached else None)
