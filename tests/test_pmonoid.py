import itertools
import random

import pytest

from monoidkit.congruence import YSequence
from monoidkit.pmonoid import (
    NF,
    NF_IDENTITY,
    PUNCTURE,
    SHIFT_DOWN,
    SHIFT_UP,
    annihilator_witness,
    chain_search,
    check_nc,
    check_presentation,
    divide_left,
    in_annihilator,
    nf_inverse,
    nf_is_idempotent,
    nf_mul,
    nf_natural_leq,
    nf_of_word,
    nf_power,
    nf_window,
    presentation_relations,
    y_n,
)


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
        assert nf_is_idempotent(a) == (a.shift == 0)


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
        assert nf_natural_leq(a, b) == (set(b.excluded) <= set(a.excluded))


def test_natural_order_rejects_non_idempotent():
    with pytest.raises(ValueError):
        nf_natural_leq(SHIFT_UP, PUNCTURE)


def test_conjugated_punctures_form_antichain():
    ups = [nf_of_word("g" * n + "e" + "h" * n) for n in range(1, 51)]
    assert ups == [NF((-n,), 0) for n in range(1, 51)]
    for a, b in itertools.combinations(ups, 2):
        assert not nf_natural_leq(a, b) and not nf_natural_leq(b, a)


def test_double_puncture_below_single():
    n = 5
    low = nf_of_word("e" + "g" * n + "e" + "h" * n)
    high = nf_of_word("g" * n + "e" + "h" * n)
    assert low == NF((-n, 0), 0)
    assert nf_natural_leq(low, high)



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


def test_presentation_holds():
    assert check_presentation(1)
    assert check_presentation(50)


def test_checkers_refuse_negative_bounds():
    with pytest.raises(ValueError):
        check_presentation(-5)
    with pytest.raises(ValueError):
        check_nc(-5)
    assert check_presentation(0) and check_nc(0)


def test_presentation_relations_shape():
    assert len(presentation_relations(50)) == 6 + 2 * 50


def test_mutated_relation_fails():
    assert nf_of_word("e") != nf_of_word("eg")


def test_nc_holds():
    assert check_nc(50)


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
        idem = nf_natural_leq(nf_mul(u, nf_inverse(u)), nf_mul(v, nf_inverse(v)))
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


# --- generating pairs and the chain search --------------------------------------------


def test_y_n_shape():
    pairs = y_n(1)
    assert len(pairs) == 3
    assert (nf_of_word("ge"), nf_of_word("heg")) in pairs
    assert nf_of_word("ge") == NF((-1,), 1)
    assert nf_of_word("heg") == NF((1,), 0)
    assert set(y_n(2)) > set(y_n(1))
    with pytest.raises(ValueError):
        y_n(0)


def test_chain_blocked_at_tight_bounds():
    report = chain_search(2, max_excluded=3, max_magnitude=6, max_length=8)
    assert not report.reached
    report3 = chain_search(3, max_excluded=3, max_magnitude=8, max_length=8)
    assert not report3.reached


def test_chain_target_is_direct_generator():
    report = chain_search(2, y_index=2)
    assert report.reached and report.depth == 1


def test_chain_report_records_bounds():
    report = chain_search(4)
    assert (report.max_excluded, report.max_magnitude, report.max_length) == (6, 12, 8)
    assert report.n == 4 and report.y_index == 3
    assert report.explored >= 1


def test_chain_search_saturates_without_pruning():
    # The reachable set from the start state is tiny, so even generous bounds
    # never prune anything and the frontier dies out on its own.
    for n in (2, 3):
        report = chain_search(n, max_excluded=10, max_magnitude=10 * n, max_length=20)
        assert not report.reached
        assert report.pruned == 0
        assert report.explored == 2
        assert report.exhausted


def test_chain_length_cap_is_not_exhaustion():
    # The cap stops the search before the start state is expanded, so no
    # state is pruned, yet the reachable set (2 states) is not enumerated.
    report = chain_search(3, max_length=0)
    assert report.pruned == 0 and report.explored == 1
    assert report.exhausted is False


def test_chain_argument_validation():
    with pytest.raises(ValueError):
        chain_search(0)
    with pytest.raises(ValueError):
        chain_search(1)  # no default generating set below the target level
    assert chain_search(1, y_index=1).reached
    with pytest.raises(ValueError):
        chain_search(3, max_length=-1)
