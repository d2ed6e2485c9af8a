import inspect
import itertools
import math
import random
import time

import pytest

import monoidkit.pmonoid as pmonoid
from monoidkit.congruence import YSequence
from monoidkit.elements import PartialMap
from monoidkit.order import is_idempotent, natural_leq
from monoidkit.pmonoid import (
    NF,
    NF_IDENTITY,
    PUNCTURE,
    SHIFT_DOWN,
    SHIFT_UP,
    AnnihilatorVerdict,
    _y_pair,
    annihilator_witness,
    chain_search,
    check_nc,
    check_presentation,
    divide_left,
    in_annihilator,
    nf_inverse,
    nf_mul,
    nf_of_word,
    nf_power,
    nf_window,
    y_class,
    y_n,
)
import annihilator_oracle
from sweep_oracle import nc_sweep, presentation_relations, presentation_sweep


def random_nf(rng, max_excluded=3, max_coord=10):
    k = rng.randint(0, max_excluded)
    return NF(
        tuple(sorted(rng.sample(range(-max_coord, max_coord + 1), k))),
        rng.randint(-max_coord, max_coord),
    )


# --- words and the product rule -------------------------------------------


def test_word_atoms():
    assert nf_of_word("e") == NF((0,), 0)
    assert nf_of_word("hg") == NF_IDENTITY
    assert nf_of_word("gh") == NF_IDENTITY
    assert nf_of_word("gege") == NF((-2, -1), 2)
    assert nf_of_word("") == NF_IDENTITY


def test_word_matches_product_of_letters():
    rng = random.Random(5)
    letters = {"g": SHIFT_UP, "h": SHIFT_DOWN, "e": PUNCTURE}
    for length in list(range(8)) * 20 + [200, 1000]:
        word = "".join(rng.choice("ghe") for _ in range(length))
        expected = NF_IDENTITY
        for ch in word:
            expected = nf_mul(expected, letters[ch])
        assert nf_of_word(word) == expected, word


def test_word_rejects_bad_symbol():
    with pytest.raises(ValueError):
        nf_of_word("gxe")


def test_nf_not_strictly_increasing_rejected():
    with pytest.raises(ValueError):
        NF((1, 1), 0)
    with pytest.raises(ValueError):
        NF((2, 1), 0)


def test_product_examples():
    assert nf_mul(NF((), 1), NF((0,), 0)) == NF((-1,), 1)
    assert nf_mul(PUNCTURE, PUNCTURE) == PUNCTURE
    assert nf_mul(NF((-1,), 2), NF((3,), -1)) == NF((-1, 1), 1)


def test_product_associative_randomized():
    rng = random.Random(2)
    for _ in range(1000):
        a, b, c = (random_nf(rng) for _ in range(3))
        assert nf_mul(nf_mul(a, b), c) == nf_mul(a, nf_mul(b, c))


def test_inverse_laws():
    rng = random.Random(4)
    for _ in range(500):
        a = random_nf(rng)
        inv = nf_inverse(a)
        assert nf_mul(nf_mul(a, inv), a) == a
        assert nf_mul(nf_mul(inv, a), inv) == inv
        assert nf_mul(a, inv) == NF(a.excluded, 0)


def test_idempotents_are_exactly_zero_shift():
    rng = random.Random(6)
    for _ in range(500):
        a = random_nf(rng)
        assert is_idempotent(a) == (a.shift == 0)


# --- windows as an independent oracle ---------------------------------------


def test_window_of_identity():
    w = nf_window(NF_IDENTITY, 3)
    assert w.n == 7 and w.is_total and w == w * w


def test_window_of_puncture():
    w = nf_window(PUNCTURE, 2)
    # points 1..5 stand for -2..2; only the middle one is undefined
    assert w.images == (1, 2, None, 4, 5)


def test_window_too_small():
    with pytest.raises(ValueError):
        nf_window(NF((5,), 0), 4)
    with pytest.raises(ValueError):
        nf_window(NF((), 3), 2)


def _window_pointwise(a, half_width):
    """The window point by point, with `needed` from absolute values and the
    edge as a range test: the definition, written apart from `nf_window`."""
    needed = (max(abs(x) for x in a.excluded) if a.excluded else 0) + abs(a.shift)
    if half_width < needed:
        raise ValueError(f"window half-width {half_width} < required {needed}")
    n = half_width
    images = []
    for x in range(-n, n + 1):
        y = x + a.shift
        if x in a.excluded or not -n <= y <= n:
            images.append(None)
        else:
            images.append(y + n + 1)
    return PartialMap(images)


def _window_by_ranges(a, half_width):
    """The window as one run of images, padded by |shift| Nones on the side
    the shift pushes out, with each puncture then cleared: no point is tested."""
    needed = (max(abs(x) for x in a.excluded) if a.excluded else 0) + abs(a.shift)
    if half_width < needed:
        raise ValueError(f"window half-width {half_width} < required {needed}")
    n = half_width
    size = 2 * n + 1
    s = a.shift
    if s >= 0:
        images = list(range(s + 1, size + 1)) + [None] * s
    else:
        images = [None] * -s + list(range(1, size + 1 + s))
    for x in a.excluded:
        images[x + n] = None
    return PartialMap(images)


def test_window_closed_form_matches_pointwise():
    rng = random.Random(20)
    cases = [NF_IDENTITY, SHIFT_UP, SHIFT_DOWN, PUNCTURE, NF((-3, 3), 0), NF((-2, 2), -1)]
    cases += [random_nf(rng, max_excluded=4, max_coord=8) for _ in range(300)]
    shifts = set()
    for a in cases:
        needed = (max(abs(x) for x in a.excluded) if a.excluded else 0) + abs(a.shift)
        shifts.add((a.shift > 0) - (a.shift < 0))
        # half_width == needed puts the outermost puncture or the shifted
        # image at the window's edge.
        for half in (needed, needed + 1, needed + 7):
            assert nf_window(a, half) == _window_pointwise(a, half), (a, half)
            assert nf_window(a, half) == _window_by_ranges(a, half), (a, half)
        if needed:
            with pytest.raises(ValueError):
                nf_window(a, needed - 1)
    assert shifts == {-1, 0, 1}
    assert nf_window(NF_IDENTITY, 0).images == (1,)


def _nf_mul_by_sorting(a, b):
    """The set-and-sort product rule, without the fast paths."""
    excluded = set(a.excluded)
    excluded.update(x - a.shift for x in b.excluded)
    return NF(tuple(sorted(excluded)), a.shift + b.shift)


def _product_path(a, b):
    """Which of `nf_mul`'s paths the product a·b takes."""
    if not a.excluded and not a.shift:
        return "identity on the left"
    if not b.excluded:
        return "b bare"
    if not a.excluded:
        return "a bare"
    if len(a.excluded) == 1:
        shift = "shift 0" if not a.shift else "shifted"
        seen = "on b's" if a.excluded[0] in {x - a.shift for x in b.excluded} else "off b's"
        return f"one puncture, {shift}, {seen}"
    return "sorted"


def test_product_fast_paths_match_sorting():
    rng = random.Random(23)
    paths = dict.fromkeys([
        "identity on the left", "b bare", "a bare", "sorted",
        "one puncture, shift 0, on b's", "one puncture, shift 0, off b's",
        "one puncture, shifted, on b's", "one puncture, shifted, off b's",
    ], 0)
    for _ in range(5000):
        a, b = random_nf(rng), random_nf(rng)
        draw = rng.randrange(7)
        if draw == 0:
            b = NF((), b.shift)
        elif draw == 1:
            a = NF((), a.shift)
        elif draw == 2:
            a = NF((), 0)
        elif draw in (3, 4):
            # One puncture on the left, at shift 0 or not; half of the time
            # it is one of b's punctures shifted by -a.shift.
            shift = 0 if draw == 3 else a.shift or 1
            x = rng.choice(b.excluded) - shift if b.excluded and rng.randrange(2) else rng.randint(-10, 10)
            a = NF((x,), shift)
        elif draw == 5:
            a, b = NF(a.excluded, 0), NF(a.excluded, b.shift)
        product = nf_mul(a, b)
        assert product == _nf_mul_by_sorting(a, b), (a, b)
        path = _product_path(a, b)
        if path == "identity on the left":
            assert product is b
        paths[path] += 1
    assert min(paths.values()) > 100, paths


def test_trusted_results_revalidate():
    # Products built without checks must pass the public constructors.
    rng = random.Random(22)
    for _ in range(300):
        a, b = random_nf(rng), random_nf(rng)
        k = rng.randint(0, 6)
        results = [nf_mul(a, b), nf_power(a, k), nf_inverse(a)]
        results += divide_left(a, nf_mul(a, b))
        word = "".join(rng.choice("ghe") for _ in range(rng.randint(0, 30)))
        results.append(nf_of_word(word))
        for r in results:
            assert NF(r.excluded, r.shift) == r, r
        p = nf_window(a, 40) * nf_window(b, 40)
        for w in (p, nf_window(a, 40)):
            assert PartialMap(w.images) == w


def _apply_word(word, x):
    for ch in word:
        if ch == "g":
            x += 1
        elif ch == "h":
            x -= 1
        elif x == 0:
            return None
    return x


def test_word_window_round_trip():
    rng = random.Random(8)
    half = 30
    for _ in range(10_000):
        word = "".join(rng.choice("ghe") for _ in range(rng.randint(0, 12)))
        w = nf_window(nf_of_word(word), half)
        margin = len(word)
        for x in range(-half + margin, half - margin + 1):
            image = w.images[x + half]
            direct = _apply_word(word, x)
            assert (image - half - 1 if image is not None else None) == direct


# --- natural order on idempotents --------------------------------------------


def test_natural_order_is_reverse_puncture_containment():
    rng = random.Random(10)
    for _ in range(500):
        a = NF(random_nf(rng).excluded, 0)
        b = NF(random_nf(rng).excluded, 0)
        assert natural_leq(a, b) == (set(b.excluded) <= set(a.excluded))


def test_natural_order_rejects_non_idempotent():
    with pytest.raises(ValueError):
        natural_leq(SHIFT_UP, PUNCTURE)


def test_conjugated_punctures_form_antichain():
    ups = [nf_of_word("g" * n + "e" + "h" * n) for n in range(1, 51)]
    assert ups == [NF((-n,), 0) for n in range(1, 51)]
    for a, b in itertools.combinations(ups, 2):
        assert not natural_leq(a, b) and not natural_leq(b, a)


def test_double_puncture_below_single():
    n = 5
    low = nf_of_word("e" + "g" * n + "e" + "h" * n)
    high = nf_of_word("g" * n + "e" + "h" * n)
    assert low == NF((-n, 0), 0)
    assert natural_leq(low, high)



def _power_by_repeated_product(a, k):
    out = NF_IDENTITY
    for _ in range(k):
        out = nf_mul(out, a)
    return out


def test_power_closed_form_matches_repeated_product():
    rng = random.Random(17)
    bases = [NF_IDENTITY, SHIFT_UP, SHIFT_DOWN, PUNCTURE, NF((-2, 3), 0)]
    bases += [random_nf(rng) for _ in range(40)]
    for a in bases:
        for k in range(13):
            assert nf_power(a, k) == _power_by_repeated_product(a, k), (a, k)
    with pytest.raises(ValueError):
        nf_power(SHIFT_UP, -1)


def test_power_cost_does_not_grow_with_exponent():
    k = 10 ** 12
    assert nf_power(SHIFT_UP, k) == NF((), k)
    assert nf_power(PUNCTURE, k) == PUNCTURE
    assert nf_power(NF((0,), -1), 3) == NF((0, 1, 2), -3)

# --- presentation and antichain checkers ---------------------------------------


def _scale(a, k):
    """σ_k: (E; s) ↦ (kE; ks), which sends g, h and e to g^k, h^k and e."""
    return NF(tuple(k * x for x in a.excluded), k * a.shift)


def test_presentation_holds():
    assert check_presentation() is True


def test_checkers_refuse_negative_bounds():
    """The checkers take no bound, since they settle every index at once."""
    assert not inspect.signature(check_presentation).parameters
    assert not inspect.signature(check_nc).parameters
    with pytest.raises(TypeError):
        check_presentation(-5)
    with pytest.raises(TypeError):
        check_nc(-5)


def test_checkers_refuse_bounds_past_their_cost_limit():
    """A bound past what a sweep could afford is refused like any bound, and
    the fixed checks, which cover it, take well under 5 ms together."""
    with pytest.raises(TypeError):
        check_presentation(100_001)
    with pytest.raises(TypeError):
        check_nc(10 ** 12)
    timings = []
    for _ in range(5):
        start = time.perf_counter()
        assert check_presentation() and check_nc()
        timings.append(time.perf_counter() - start)
    assert min(timings) < 0.005, timings


def test_scaling_is_a_morphism_that_substitutes_powers_for_letters():
    """σ_k(a·b) = σ_k(a)·σ_k(b), σ_k is injective, and on the value of a word
    it is the product of the word with g^k for g and h^k for h, for k up to
    10^12: so σ_k sends the relations at exponent 1 to those at exponent k."""
    rng = random.Random(41)
    for k in [1, 2, 3, 7, 60, 10 ** 12] + [rng.randint(2, 10 ** 12) for _ in range(20)]:
        letters = {"g": nf_power(SHIFT_UP, k), "h": nf_power(SHIFT_DOWN, k), "e": PUNCTURE}
        for _ in range(50):
            a, b = random_nf(rng), random_nf(rng)
            assert _scale(nf_mul(a, b), k) == nf_mul(_scale(a, k), _scale(b, k)), (a, b, k)
            assert (_scale(a, k) == _scale(b, k)) == (a == b)
            word = "".join(rng.choice("ghe") for _ in range(rng.randint(0, 12)))
            substituted = NF_IDENTITY
            for letter in word:
                substituted = nf_mul(substituted, letters[letter])
            assert _scale(nf_of_word(word), k) == substituted, (word, k)


def test_presentation_sides_match_words():
    """Both sides of the relations at exponent k, each from its 4k+2-letter
    word, are σ_k of the sides at exponent 1, and the word sweep up to 60
    agrees with the fixed check."""
    words = presentation_relations(60)
    at_1 = [(nf_of_word(lhs), nf_of_word(rhs)) for lhs, rhs in words[6:8]]
    for k in range(1, 61):
        at_k = [(nf_of_word(lhs), nf_of_word(rhs)) for lhs, rhs in words[4 + 2 * k:6 + 2 * k]]
        assert at_k == [(_scale(lhs, k), _scale(rhs, k)) for lhs, rhs in at_1], k
    assert presentation_sweep(60) is check_presentation() is True


def test_presentation_relations_shape():
    assert len(presentation_relations(50)) == 6 + 2 * 50


@pytest.mark.parametrize("left,holds", [(NF((0,), 1), "mirror"), (NF((0,), -1), "forward")])
def test_check_presentation_reads_both_parametrised_relations(monkeypatch, left, holds):
    """A product wrong only with e·g (or e·h) on the left breaks the relation
    e·g·e·h = g·e·h·e (or its mirror e·h·e·g = h·e·g·e) and keeps the other."""
    real = pmonoid.nf_mul
    wrong = lambda a, b: NF._from_internal(a.excluded, a.shift + b.shift) if a == left else real(a, b)
    monkeypatch.setattr(pmonoid, "nf_mul", wrong)
    e, g, h = PUNCTURE, SHIFT_UP, SHIFT_DOWN
    eg, eh, ge, he = wrong(e, g), wrong(e, h), wrong(g, e), wrong(h, e)
    forward, mirror = wrong(eg, eh) == wrong(ge, he), wrong(eh, eg) == wrong(he, ge)
    assert (forward, mirror) == ((False, True) if holds == "mirror" else (True, False))
    assert check_presentation() is False


def test_mutated_relation_fails():
    assert nf_of_word("e") != nf_of_word("eg")


def _up(k):
    return nf_of_word("g" * k + "e" + "h" * k)


def _dn(k):
    return nf_of_word("h" * k + "e" + "g" * k)


@pytest.mark.parametrize(
    "family,pair",
    [
        ("up-up", (_up(1), _up(2))),
        ("dn-dn", (_dn(2), _dn(1))),
        ("up-dn", (_up(1), _dn(2))),
        ("dn-up", (_dn(2), _up(1))),
        ("e.up-up", (nf_mul(PUNCTURE, _up(2)), _up(1))),
        ("e.up-dn", (nf_mul(PUNCTURE, _up(2)), _dn(1))),
    ],
)
def test_check_nc_sees_a_comparable_pair_in_each_family(monkeypatch, family, pair):
    """One comparable pair at the indices 1 and 2, whichever family it lies
    in, breaks the conditions; with no comparable pair they hold."""
    assert check_nc()
    monkeypatch.setattr(pmonoid, "natural_leq", lambda e, f: (e, f) == pair)
    assert check_nc() is False, family


def _nc_conditions(k, n):
    """Each antichain condition that names the indices k < n, from the
    closed forms up(j) = ({-j}; 0), dn(j) = ({j}; 0), e·up(j) = ({-j, 0}; 0)."""
    e = PUNCTURE
    up, dn = {j: NF((-j,), 0) for j in (k, n)}, {j: NF((j,), 0) for j in (k, n)}
    eup = {j: NF((-j, 0), 0) for j in (k, n)}
    family = [up[k], up[n], dn[k], dn[n]]
    return (
        [nf_mul(e, x) == nf_mul(x, e) for x in family],
        [is_idempotent(x) for x in family + [eup[k], eup[n]]],
        [natural_leq(x, y) for x, y in itertools.permutations(family, 2)],
        [natural_leq(eup[n], up[k])] + [natural_leq(eup[i], dn[j]) for i in (k, n) for j in (k, n)],
    )


def test_each_antichain_condition_at_any_indices_matches_its_value_at_1_and_2():
    rng = random.Random(29)
    at_1_2 = _nc_conditions(1, 2)
    assert at_1_2 == ([True] * 4, [True] * 6, [False] * 12, [False] * 5)
    draws = [(1, 3), (2, 3), (5, 6), (10 ** 12 - 1, 10 ** 12)]
    draws += [tuple(sorted(rng.sample(range(1, 10 ** 12 + 1), 2))) for _ in range(200)]
    for k, n in draws:
        assert _nc_conditions(k, n) == at_1_2, (k, n)
    # The closed forms are the elements that words and products build.
    for j in list(range(1, 31)) + [10 ** 6, 10 ** 12]:
        gj, hj = nf_power(SHIFT_UP, j), nf_power(SHIFT_DOWN, j)
        assert nf_mul(nf_mul(gj, PUNCTURE), hj) == NF((-j,), 0)
        assert nf_mul(nf_mul(hj, PUNCTURE), gj) == NF((j,), 0)
        assert nf_mul(PUNCTURE, NF((-j,), 0)) == NF((-j, 0), 0)
        if j <= 30:
            assert (_up(j), _dn(j)) == (NF((-j,), 0), NF((j,), 0))


def test_nc_holds():
    # The quadratic sweep over the indices up to 30 is the oracle.
    assert check_nc() is nc_sweep(30) is True


def test_checkers_fail_when_products_drop_punctures(monkeypatch):
    """With a product that ignores b's punctures, e·g·e·h loses the second
    puncture and e no longer commutes with g e h."""
    monkeypatch.setattr(pmonoid, "nf_mul", lambda a, b: NF._from_internal(a.excluded, a.shift + b.shift))
    assert check_presentation() is False
    assert check_nc() is False


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: SHIFT_UP * 1, "unsupported operand type(s) for *: 'NF' and 'int'"),
        (lambda: 1 * SHIFT_UP, "unsupported operand type(s) for *: 'int' and 'NF'"),
        (lambda: PUNCTURE * PartialMap.identity(1), "unsupported operand type(s) for *: 'NF' and 'PartialMap'"),
    ],
    ids=["nf-times-int", "int-times-nf", "nf-times-map"],
)
def test_nf_refuses_a_foreign_operand(call, message):
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == message


# --- divisibility in normal form -------------------------------------------------


def test_divide_left_solutions_are_exact():
    rng = random.Random(12)
    for _ in range(500):
        c, t = random_nf(rng), random_nf(rng)
        u = nf_mul(c, t)
        solutions = divide_left(c, u)
        assert t in solutions
        assert len(set(solutions)) == len(solutions)
        for s in solutions:
            assert nf_mul(c, s) == u


def test_divide_left_no_solution():
    assert divide_left(PUNCTURE, NF((), 0)) == []


def test_right_divisibility_is_puncture_containment():
    rng = random.Random(14)
    for _ in range(1000):
        u, v = random_nf(rng), random_nf(rng)
        law = set(v.excluded) <= set(u.excluded)
        assert bool(divide_left(v, u)) == law
        idem = natural_leq(nf_mul(u, nf_inverse(u)), nf_mul(v, nf_inverse(v)))
        assert idem == law


# --- annihilator decision and witnesses --------------------------------------------


def test_in_annihilator_examples():
    v0 = in_annihilator(NF_IDENTITY, PUNCTURE)
    assert v0.member and v0.n == 0
    v1 = in_annihilator(nf_of_word("ge"), nf_of_word("heg"))
    assert v1.member and v1.n == 1 and v1.side == "h"
    assert not in_annihilator(SHIFT_UP, NF_IDENTITY).member


def test_witness_for_trivial_pair():
    seq = annihilator_witness(NF_IDENTITY, PUNCTURE)
    assert len(seq) == 1
    assert seq.steps[0] == (PUNCTURE, NF_IDENTITY, NF_IDENTITY)
    assert seq.validate(nf_mul)


def test_witness_three_step_example():
    seq = annihilator_witness(nf_of_word("ge"), nf_of_word("heg"))
    assert isinstance(seq, YSequence)
    assert len(seq) == 3
    assert seq.validate(nf_mul)
    assert seq.uses_only(y_n(1))


@pytest.mark.parametrize("container", [list, frozenset])
def test_uses_only_takes_either_orientation_and_nothing_else(container):
    pairs = container(y_n(1))
    g_pair, h_pair = _y_pair(1), _y_pair(-1)
    forward = YSequence(NF_IDENTITY, NF_IDENTITY, ((g_pair[0], g_pair[1], NF_IDENTITY),))
    reversed_ = YSequence(NF_IDENTITY, NF_IDENTITY, ((h_pair[1], h_pair[0], NF_IDENTITY),))
    assert forward.uses_only(pairs)
    assert reversed_.uses_only(pairs)
    assert YSequence(NF_IDENTITY, NF_IDENTITY, ()).uses_only(pairs)
    outside = YSequence(NF_IDENTITY, NF_IDENTITY, (forward.steps[0], (SHIFT_UP, SHIFT_DOWN, NF_IDENTITY)))
    assert not outside.uses_only(pairs)
    level_two = _y_pair(2)
    assert not YSequence(NF_IDENTITY, NF_IDENTITY, ((level_two[1], level_two[0], NF_IDENTITY),)).uses_only(pairs)


def test_witness_requires_membership():
    with pytest.raises(ValueError):
        annihilator_witness(SHIFT_UP, NF_IDENTITY)


def test_annihilator_closed_under_right_multiplication():
    rng = random.Random(16)
    found = 0
    while found < 200:
        u, v = random_nf(rng), random_nf(rng)
        if not in_annihilator(u, v).member:
            continue
        found += 1
        w = random_nf(rng)
        assert in_annihilator(nf_mul(u, w), nf_mul(v, w)).member


def test_witness_pairs_come_from_some_generating_level():
    rng = random.Random(18)
    found = 0
    while found < 200:
        u, v = random_nf(rng), random_nf(rng)
        verdict = in_annihilator(u, v)
        if not verdict.member:
            continue
        found += 1
        seq = annihilator_witness(u, v)
        assert seq.validate(nf_mul)
        assert seq.uses_only(y_n(max(verdict.n, 1)))


def _in_annihilator_by_powers(u, v):
    """The decision as in_annihilator made it before the signed-level closed
    form: multiply e·u by the candidate power of g or h and compare."""
    eu = nf_mul(PUNCTURE, u)
    ev = nf_mul(PUNCTURE, v)
    diff = ev.shift - eu.shift
    if diff == 0:
        return AnnihilatorVerdict(eu == ev, 0 if eu == ev else None, None)
    if diff > 0:
        ok = nf_mul(nf_power(SHIFT_UP, diff), eu) == ev
        return AnnihilatorVerdict(ok, diff if ok else None, "g" if ok else None)
    ok = nf_mul(nf_power(SHIFT_DOWN, -diff), eu) == ev
    return AnnihilatorVerdict(ok, -diff if ok else None, "h" if ok else None)


def _level_pair_by_powers(n, side):
    """(g^n e, h^n e g^n) for side g, (h^n e, g^n e h^n) for side h, as
    products of powers."""
    near, far = (SHIFT_UP, SHIFT_DOWN) if side == "g" else (SHIFT_DOWN, SHIFT_UP)
    left = nf_mul(nf_power(near, n), PUNCTURE)
    right = nf_mul(nf_mul(nf_power(far, n), PUNCTURE), nf_power(near, n))
    return left, right


def _witness_steps_by_powers(u, v):
    """The witness steps as annihilator_witness built them from powers."""
    verdict = _in_annihilator_by_powers(u, v)
    e, one = PUNCTURE, NF_IDENTITY
    eu, ev = nf_mul(e, u), nf_mul(e, v)
    if verdict.n == 0:
        if v == eu:
            return ((e, one, u),)
        if u == ev:
            return ((one, e, v),)
        return ((one, e, v), (e, one, u))
    return ((one, e, v), (*_level_pair_by_powers(verdict.n, verdict.side), eu), (e, one, u))


def _accepted_pairs(rng, count, max_coord):
    """Pairs in the relation by construction: e·v is e·u shifted by one of
    its own punctures d (d = 0 gives n = 0), with 0 dropped from v half the
    time."""
    pairs = []
    for _ in range(count):
        u = random_nf(rng, max_coord=max_coord)
        eu = nf_mul(PUNCTURE, u)
        d = rng.choice(eu.excluded)
        excluded = [x - d for x in eu.excluded]
        if rng.random() < 0.5:
            excluded.remove(0)
        pairs.append((u, NF(tuple(excluded), eu.shift + d)))
    return pairs


def test_annihilator_matches_power_oracle():
    rng = random.Random(26)
    pairs = _accepted_pairs(rng, 400, 10) + _accepted_pairs(rng, 200, 10 ** 12)
    pairs += [(random_nf(rng), random_nf(rng)) for _ in range(2000)]
    members, sides = 0, set()
    for u, v in pairs:
        verdict = in_annihilator(u, v)
        assert verdict == _in_annihilator_by_powers(u, v), (u, v)
        if verdict.member:
            members += 1
            sides.add((verdict.side, verdict.n > 10 ** 11))
            assert annihilator_witness(u, v).steps == _witness_steps_by_powers(u, v), (u, v)
    assert 600 <= members < 700
    assert sides == {(None, False), ("g", False), ("h", False), ("g", True), ("h", True)}


# --- generating pairs, the ρ_{Y_k}-classes and the chain ------------------------------


def test_y_n_shape():
    pairs = y_n(1)
    assert len(pairs) == 3
    assert (nf_of_word("ge"), nf_of_word("heg")) in pairs
    assert nf_of_word("ge") == NF((-1,), 1)
    assert nf_of_word("heg") == NF((1,), 0)
    assert set(y_n(2)) > set(y_n(1))
    with pytest.raises(ValueError):
        y_n(0)


def _class_by_search(u, k):
    """The ρ_{Y_k}-class of u, by the all-pairs search with no target and no
    bound."""
    return _search_over_all_pairs(u, None, k)[1]


def _class_cases(seed, count):
    """(u, k) with up to 4 punctures, coordinates within 6 and k in 1..8."""
    rng = random.Random(seed)
    return [(random_nf(rng, max_excluded=4, max_coord=6), rng.randint(1, 8)) for _ in range(count)]


def test_y_class_equals_the_unbounded_search():
    sizes = set()
    for u, k in _class_cases(41, 3000):
        members = y_class(u, k)
        assert len(set(members)) == len(members) and set(members) == _class_by_search(u, k), (u, k)
        sizes.add(len(members))
    assert sizes == {2, 4, 6, 8, 10}


def test_y_class_lists_ascending_shifts_saturated_first():
    for u, k in _class_cases(43, 500):
        members = y_class(u, k)
        saturated, bare = members[::2], members[1::2]
        assert [a.shift for a in saturated] == sorted({a.shift for a in members}), (u, k)
        assert all(0 in a.excluded for a in saturated), (u, k)
        assert bare == [NF(tuple(x for x in a.excluded if x), a.shift) for a in saturated], (u, k)


def test_y_class_at_an_unbounded_level_is_the_annihilator():
    rng = random.Random(47)
    pairs = _accepted_pairs(rng, 5000, 10) + [(random_nf(rng), random_nf(rng)) for _ in range(15000)]
    members = 0
    for u, v in pairs:
        member = in_annihilator(u, v).member
        assert (v in y_class(u, 10 ** 12)) == member, (u, v)
        members += member
    assert 5000 <= members < 6000


Y_CLASS_MUTANTS = {
    "C without the saturating point": ("sorted({0, *u.excluded})", "sorted(u.excluded)"),
    "< for <= on the gap": ("<= k", "< k"),
    "the gap taken over all of C": (
        "lo = hi = points.index(u.shift)",
        "lo = hi = points.index(u.shift)\n"
        "    if all(b - a <= k for a, b in zip(points, points[1:])):\n"
        "        lo, hi = 0, len(points) - 1\n"
        "    k = -1",  # stops the two sweeps, so only the test over all of C joins points
    ),
}


@pytest.mark.parametrize("old,new", Y_CLASS_MUTANTS.values(), ids=Y_CLASS_MUTANTS)
def test_each_y_class_mutant_differs_from_the_search(old, new):
    """`y_class` with one edit to its source, run on 2,000 of the cases the
    search referee checks: some class comes out wrong, or the mutant raises."""
    source = inspect.getsource(pmonoid.y_class)
    assert old in source
    namespace = dict(vars(pmonoid))
    exec(source.replace(old, new), namespace)
    mutant, wrong = namespace["y_class"], 0
    for u, k in _class_cases(41, 2000):
        try:
            wrong += set(mutant(u, k)) != _class_by_search(u, k)
        except ValueError:
            wrong += 1
    assert wrong > 100


def test_chain_blocked_at_tight_bounds():
    """Blocked in the closed form, and by the bounded search at tight bounds."""
    assert not chain_search(2).reached and not chain_search(3).reached
    assert not _chain_search_over_all_pairs(2, 1, 3, 6, 8)[0]
    assert not _chain_search_over_all_pairs(3, 2, 3, 8, 8)[0]


def test_chain_target_is_direct_generator():
    report = chain_search(2, y_index=2)
    assert report.reached and report.depth == 1


def test_chain_report_records_bounds():
    """The report keeps only what the class decides: no search bound is left
    to record."""
    assert chain_search(4) == (4, 3, False, 2, None)
    assert chain_search(4, y_index=4) == (4, 4, True, 4, 1)


def test_chain_search_saturates_without_pruning():
    # The class of the start state has 2 states, so the bounded search never
    # prunes at generous bounds and its frontier dies out on its own, having
    # listed the same 2 states as the closed form.
    for n in (2, 3):
        assert _chain_search_over_all_pairs(n, n - 1, 10, 10 * n, 20) == (False, 2, None, 0, True)
    for n in range(2, 8):
        assert _chain_search_over_all_pairs(n, n - 1, n + 2, 3 * n, 8) == (False, 2, None, 0, True)
        assert chain_search(n).explored == 2


def test_chain_length_cap_is_not_exhaustion():
    # For the bounded search: the cap stops it before the start state is
    # expanded, so no state is pruned, yet the class (2 states) is not listed.
    assert _chain_search_over_all_pairs(3, 2, 5, 9, 0) == (False, 1, None, 0, False)
    assert chain_search(3).explored == 2


def _search_over_all_pairs(start, target, y_index, max_excluded=math.inf, max_magnitude=math.inf,
                           max_length=math.inf):
    """The search from start towards target: every directed pair (c, d) of
    y_n(y_index) from every state w, and every t with c·t = w, give d·t;
    states past max_excluded punctures or max_magnitude are pruned, paths past
    max_length cut off.  Returns (reached, visited, depth, pruned,
    exhausted)."""
    directed = [p for pair in y_n(y_index) for p in (pair, pair[::-1])]
    visited, frontier = {start}, [start]
    pruned, depth = 0, 0
    while frontier and depth < max_length:
        depth += 1
        nxt = []
        for w in frontier:
            for c, d in directed:
                for t in divide_left(c, w):
                    successor = nf_mul(d, t)
                    if successor == target:
                        return True, visited, depth, pruned, False
                    if successor in visited:
                        continue
                    coords = successor.excluded + (successor.shift,)
                    if len(successor.excluded) > max_excluded or any(
                        abs(x) > max_magnitude for x in coords
                    ):
                        pruned += 1
                        continue
                    visited.add(successor)
                    nxt.append(successor)
        frontier = nxt
    return False, visited, None, pruned, not frontier


def _chain_search_over_all_pairs(n, y_index, max_excluded, max_magnitude, max_length):
    """The bounded search from g^n·e towards h^n·e·g^n, as chain_search ran
    before the closed form.  Returns (reached, explored, depth, pruned,
    exhausted)."""
    start = nf_of_word("g" * n + "e")
    target = nf_of_word("h" * n + "e" + "g" * n)
    reached, visited, depth, pruned, exhausted = _search_over_all_pairs(
        start, target, y_index, max_excluded, max_magnitude, max_length
    )
    return reached, len(visited), depth, pruned, exhausted


def test_chain_search_matches_all_pairs_oracle():
    """Where the bounded search reaches the target, so does the closed form,
    at the same depth; where it lists a whole class unpruned and misses the
    target, the closed form is blocked and counts the same states."""
    grid = itertools.product(range(1, 4), range(1, 5), (0, 2, 5), (0, 4, 9, 15), (0, 2, 5))
    compared = {"reached": 0, "blocked": 0}
    for n, y_index, max_excluded, max_magnitude, max_length in grid:
        bounds = (n, y_index, max_excluded, max_magnitude, max_length)
        reached, explored, depth, pruned, exhausted = _chain_search_over_all_pairs(*bounds)
        r = chain_search(n, y_index)
        if reached:
            assert (r.reached, r.depth) == (True, depth), bounds
            compared["reached"] += 1
        elif exhausted and not pruned:
            assert (r.reached, r.depth, r.explored) == (False, None, explored), bounds
            compared["blocked"] += 1
    assert compared == {"reached": 216, "blocked": 36}


def test_chain_cost_does_not_grow_with_y_index():
    # The class of g^n·e has C = {0, n}, so every level from n up gives the
    # report of level n itself.
    for n in (2, 3, 4):
        report = chain_search(n, y_index=10 ** 12)
        assert report.reached and report.depth == 1
        assert report._replace(y_index=n) == chain_search(n, y_index=n)


def test_chain_endpoints_closed_form_match_words():
    for n in range(1, 30):
        assert nf_of_word("g" * n + "e") == NF((-n,), n)
        assert nf_of_word("h" * n + "e" + "g" * n) == NF((n,), 0)
    pairs = y_n(30)
    assert len(pairs) == 61 and pairs[0] == (NF_IDENTITY, PUNCTURE)
    for k in range(1, 31):
        gk, hk = "g" * k, "h" * k
        assert pairs[2 * k - 1] == (nf_of_word(gk + "e"), nf_of_word(hk + "e" + gk))
        assert pairs[2 * k] == (nf_of_word(hk + "e"), nf_of_word(gk + "e" + hk))
    k = 10 ** 12
    assert _y_pair(k) == _level_pair_by_powers(k, "g")
    assert _y_pair(-k) == _level_pair_by_powers(k, "h")


def test_chain_cost_does_not_grow_with_n():
    # Start and target are built in closed form, and their class has C =
    # {0, n} whatever n is, so a 12-digit n gives the report of a small one.
    small = chain_search(5)
    for n in (10 ** 12, 10 ** 12 + 1):
        assert chain_search(n) == small._replace(n=n, y_index=n - 1)


def test_chain_refuses_vacuous_bounds():
    for y_index in (0, -3):
        with pytest.raises(ValueError, match=f"^y_index must be at least 1, got {y_index}$"):
            chain_search(2, y_index)
    for name in ("max_excluded", "max_magnitude", "max_length"):
        with pytest.raises(TypeError, match=name):
            chain_search(2, **{name: 8})
    # Pruning is a fact of the bounded search alone.
    assert _chain_search_over_all_pairs(2, 1, 0, 0, 8)[3] > 0


def test_chain_argument_validation():
    for args, message in (
        ((0, 0), "n must be at least 1"),
        ((1,), "default search needs n >= 2 (it uses Y_{n-1})"),
        ((2, 0), "y_index must be at least 1, got 0"),
    ):
        with pytest.raises(ValueError) as info:
            chain_search(*args)
        assert str(info.value) == message
    assert chain_search(1, y_index=1).reached
    with pytest.raises(TypeError):
        chain_search(3, max_length=-1)


def test_witness_makes_each_product_once(monkeypatch):
    """The decision and the witness are read off C(u) and C(v), and the
    chain is returned unvalidated, so neither makes a product: e·u, the
    witness's middle multiplier, is built from C(u)."""
    calls = []

    def counting_mul(a, b):
        calls.append((a, b))
        return nf_mul(a, b)

    monkeypatch.setattr(pmonoid, "nf_mul", counting_mul)
    rng = random.Random(31)
    checked = 0
    for u, v in _accepted_pairs(rng, 300, 10):
        calls.clear()
        verdict = in_annihilator(u, v)
        assert len(calls) == 0
        if verdict.n == 0:
            continue
        annihilator_witness(u, v)
        assert len(calls) == 0, len(calls)
        checked += 1
    assert checked > 100


def _near_pairs(rng, count, max_coord):
    """Accepted pairs and pairs one edit away from them: a puncture of v
    added or dropped, v's shift moved by one, or 0 toggled in u."""
    pairs = []
    for u, v in _accepted_pairs(rng, count, max_coord):
        pairs.append((u, v))
        edit = rng.randrange(4)
        if edit == 0:
            extra = rng.randint(-max_coord, max_coord)
            v = NF(tuple(sorted({*v.excluded, extra})), v.shift)
        elif edit == 1 and v.excluded:
            dropped = rng.choice(v.excluded)
            v = NF(tuple([x for x in v.excluded if x != dropped]), v.shift)
        elif edit == 2:
            v = NF(v.excluded, v.shift + rng.choice((-1, 1)))
        else:
            u = NF(tuple(sorted({*u.excluded} ^ {0})), u.shift)
        pairs.append((u, v))
    return pairs


def test_decision_from_c_matches_the_product_oracle():
    """On 20,000 seeded pairs, exponents up to 10^12, the decision from C
    gives the product oracle's member, n and side, and the witness its
    steps; accepted pairs with n = 0 take each of the three step shapes."""
    rng = random.Random(33)
    pairs = []
    for max_coord in (3, 10, 1000, 10 ** 12):
        pairs += _near_pairs(rng, 2000, max_coord)
        pairs += [(random_nf(rng, 4, max_coord), random_nf(rng, 4, max_coord)) for _ in range(1000)]
    assert len(pairs) >= 20000
    seen = set()
    for u, v in pairs:
        verdict = in_annihilator(u, v)
        assert tuple(verdict) == tuple(annihilator_oracle.in_annihilator(u, v)), (u, v)
        if not verdict.member:
            with pytest.raises(ValueError):
                annihilator_witness(u, v)
            seen.add("no")
            continue
        got, want = annihilator_witness(u, v), annihilator_oracle.annihilator_witness(u, v)
        assert (got.start, got.end, got.steps) == (want.start, want.end, want.steps), (u, v)
        seen.add((verdict.side, len(got), got.steps[0][0] == PUNCTURE, verdict.n > 10 ** 6))
    assert seen == {"no", (None, 1, True, False), (None, 1, False, False), (None, 2, False, False),
                    ("g", 3, False, False), ("h", 3, False, False), ("g", 3, False, True), ("h", 3, False, True)}, seen
