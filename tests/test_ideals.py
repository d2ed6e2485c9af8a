import itertools
import random

import pytest

from monoidkit.elements import KINDS, PartialMap, Partition, enumerate_elements
from monoidkit.ideals import MeetResult, meet, verify_meet
from monoidkit.order import OrderVerdict, leq_L, leq_R, leq_oracle
from monoidkit.verify import cached_monoid

import meets_cost
from canonical_oracle import canonical
from kernel_oracle import dom, join, ker, restrict, upper_blocks
from star_oracle import left_side_pairs, meet_left_by_star


def pm(*images):
    return PartialMap(images)


def test_meet_result_is_one_of_two_shapes():
    found, nothing = MeetResult.found(pm(1, 2)), MeetResult.nothing()
    refusals = (
        lambda: MeetResult(None, False),
        lambda: MeetResult(pm(1, 2), True),
        lambda: MeetResult.found(None),
        lambda: MeetResult._make([None, False]),
        lambda: MeetResult._make((pm(1, 2), True)),
        lambda: found._replace(empty=True),
        lambda: nothing._replace(generator=pm(1, 2)),
        lambda: meet("T", "R", pm(1, 2), pm(2, 1))._replace(generator=None),
    )
    for refused in refusals:
        with pytest.raises(ValueError, match="^exactly one of generator/empty must be set$"):
            refused()


@pytest.mark.parametrize("kind, n", [("T", 2), ("PT", 2), ("I", 2), ("P", 2)])
def test_records_built_past_the_checks_equal_constructed_ones(kind, n):
    """The kernels and `leq_oracle` build their records with tuple.__new__;
    each is of its class and equal to the record its constructor makes."""
    S = cached_monoid(kind, n)
    for a, b in itertools.product(S.elements, repeat=2):
        for side in ("R", "L"):
            result, verdict = meet(kind, side, a, b), leq_oracle(S, a, b, side)
            assert type(result) is MeetResult and type(verdict) is OrderVerdict
            constructed = MeetResult.nothing() if result.empty else MeetResult.found(result.generator)
            assert result == MeetResult(*result) == constructed
            assert verdict == OrderVerdict(*verdict) and (verdict.witness is None) == (not verdict.holds)


@pytest.mark.parametrize("side", ["R", "L"])
@pytest.mark.parametrize("kind, n", meets_cost.CARRIERS)
def test_one_meets_operation_stays_within_its_call_budget(kind, n, side):
    """A host-independent cost contract: parsing two texts, their meet and
    its check, the side's preorder, the oracle and both prints make at most
    55 Python-level calls on average (`tests/meets_cost.py` counts them)."""
    assert meets_cost.mean_calls(kind, n, side) <= meets_cost.BUDGET == 55


# --- right meets for maps ----------------------------------------------------


def test_meet_right_pt_example(PT2):
    result = meet("PT", "R", PartialMap.identity(2), pm(1, None))
    assert result.generator == pm(1, None)
    assert verify_meet(PT2, PartialMap.identity(2), pm(1, None), result, "R")


def test_meet_right_pt_same_element(PT2):
    a = pm(1, 1)
    result = meet("PT", "R", a, a)
    gen = result.generator
    assert dom(gen) == dom(a) and ker(gen) == ker(a)
    assert PT2.right_ideal_idx(PT2.index_of(gen)) == PT2.right_ideal_idx(PT2.index_of(a))


def test_meet_right_pt_disjoint_domains(PT2):
    result = meet("PT", "R", pm(1, None), pm(None, 2))
    assert result.generator == PartialMap.empty(2)
    assert verify_meet(PT2, pm(1, None), pm(None, 2), result, "R")


def test_meet_right_preserves_kind():
    total = meet("PT", "R", pm(1, 1, 2), pm(2, 2, 3)).generator
    assert total.is_total
    injective = meet("PT", "R", pm(2, None, 1), pm(2, 3, None)).generator
    assert injective.is_injective


def _meet_right_pt_by_kernels(a, b):
    """The joined-kernel construction that the union-find replaced."""
    joined = join(ker(a), ker(b))
    inter = dom(a) & dom(b)
    images = [None] * a.n
    for cls in joined:
        if cls <= inter:
            for x in cls:
                images[x - 1] = min(cls)
    return PartialMap(images)


def _assert_meet_right_pt_matches_kernels(a, b):
    gen = meet("PT", "R", a, b).generator
    assert gen == _meet_right_pt_by_kernels(a, b), (a, b)
    assert PartialMap(gen.images) == gen


def test_meet_right_pt_matches_kernel_join_exhaustive(PT3, T3, I3):
    for S in (PT3, T3, I3):
        for a, b in itertools.product(S.elements, repeat=2):
            _assert_meet_right_pt_matches_kernels(a, b)


def test_meet_right_pt_matches_kernel_join_sampled_pt7():
    rng = random.Random(41)
    choices = [None] + list(range(1, 8))
    for _ in range(2000):
        a = PartialMap(rng.choice(choices) for _ in range(7))
        b = PartialMap(rng.choice(choices) for _ in range(7))
        _assert_meet_right_pt_matches_kernels(a, b)


# --- left meets ----------------------------------------------------------------


def test_meet_left_total_maps_can_be_empty(T2):
    result = meet("T", "L", pm(1, 1), pm(2, 2))
    assert result.empty
    assert verify_meet(T2, pm(1, 1), pm(2, 2), result, "L")


def test_meet_left_identity_case():
    one = PartialMap.identity(3)
    assert meet("I", "L", one, one).generator == one


def test_meet_left_pt_example(PT2):
    result = meet("PT", "L", pm(1, 1), pm(1, None))
    assert result.generator == pm(1, None)
    assert verify_meet(PT2, pm(1, 1), pm(1, None), result, "L")


@pytest.mark.parametrize("side", ["R", "L"])
@pytest.mark.parametrize(
    "kind,a,b,message",
    [
        ("T", pm(1, None), pm(1, 2), "PartialMap([1,_]) is not of kind T"),
        ("I", pm(1, 2), pm(1, 1), "PartialMap([1,1]) is not of kind I"),
        ("P", Partition.identity(2), pm(1, 2), "PartialMap([1,2]) is not of kind P"),
        ("PT", pm(1, 2), pm(1, 2, 3), "size mismatch: 2 vs 3"),
        ("X", pm(1, 2), pm(1, 2), "unknown kind 'X'"),
    ],
)
def test_meet_refuses_bad_input_alike_on_both_sides(side, kind, a, b, message):
    with pytest.raises(ValueError) as err:
        meet(kind, side, a, b)
    assert str(err.value) == message


# --- partition meets -------------------------------------------------------------


def test_meet_partition_overlapping_upper_blocks_is_empty(P2):
    a = Partition(2, [[1, 2], [-1], [-2]])
    b = Partition(2, [[1], [2, -2], [-1]])
    result = meet("P", "R", a, b)
    assert result.empty
    assert verify_meet(P2, a, b, result, "R")


def test_meet_partition_identity_pair():
    one = Partition.identity(2)
    assert meet("P", "R", one, one).generator == one


def test_meet_partition_against_identity():
    a = Partition(2, [[1, 2, -1], [-2]])
    result = meet("P", "R", a, Partition.identity(2))
    assert result.generator == a


def test_meet_partition_straddling_kernel_is_empty(P2):
    # A kernel class of one factor spans two upper blocks of the other, so no
    # common right multiple can exist even though no block pair overlaps.
    a = Partition(2, [[1, 2, -1], [-2]])
    b = Partition(2, [[1], [2], [-1, -2]])
    result = meet("P", "R", a, b)
    assert result.empty
    assert verify_meet(P2, a, b, result, "R")


def _meet_right_partition_by_kernels(a, b):
    """The pairwise upper-block and kernel-join construction that the
    min-root union-find replaced."""
    n = a.n
    upper_a = upper_blocks(a)
    upper_b = upper_blocks(b)
    for blk_a in upper_a:
        for blk_b in upper_b:
            if blk_a != blk_b and blk_a & blk_b:
                return MeetResult.nothing()
    upper = upper_a | upper_b
    anchored = set().union(*upper) if upper else set()
    # Every kernel class of either factor that meets the anchored region must
    # sit inside a single combined upper block.
    for rel in (ker(a), ker(b)):
        for cls in rel:
            if cls & anchored and not any(cls <= blk for blk in upper):
                return MeetResult.nothing()
    rest = [x for x in range(1, n + 1) if x not in anchored]
    gamma = join(restrict(ker(a), rest), restrict(ker(b), rest))
    blocks = [sorted(blk) for blk in upper]
    used_lower = set()
    for cls in gamma:
        blocks.append(list(cls) + [-min(cls)])
        used_lower.add(min(cls))
    blocks.extend([-y] for y in range(1, n + 1) if y not in used_lower)
    return MeetResult.found(Partition(n, blocks))


def _random_partition(rng, n):
    """A partition of the 2n points drawn as a restricted-growth string whose
    block count is capped at a random k, so both few and many blocks occur."""
    points = list(range(1, n + 1)) + [-y for y in range(1, n + 1)]
    cap = rng.randint(1, 2 * n)
    blocks = []
    for p in points:
        label = rng.randrange(min(len(blocks) + 1, cap))
        if label == len(blocks):
            blocks.append([])
        blocks[label].append(p)
    return Partition(n, blocks)


def test_meet_right_partition_matches_kernel_join_exhaustive_p3(P3):
    for a, b in itertools.product(P3.elements, repeat=2):
        assert meet("P", "R", a, b) == _meet_right_partition_by_kernels(a, b), (a, b)


def test_meet_right_partition_matches_kernel_join_sampled_p5_p6():
    rng = random.Random(43)
    empty = 0
    for n in (5, 6):
        for _ in range(1000):
            a, b = _random_partition(rng, n), _random_partition(rng, n)
            result = meet("P", "R", a, b)
            assert result == _meet_right_partition_by_kernels(a, b), (a, b)
            empty += result.empty
    assert 100 < empty < 1900


def test_meet_left_partition_is_star_transport():
    """Read on the lower row, the left meet is the right meet transported
    through `star`."""
    for a, b in left_side_pairs(31):
        assert meet("P", "L", a, b) == meet_left_by_star(a, b), (a, b)


def test_meet_left_partition_principal(P2):
    a = Partition(2, [[1, -1], [2], [-2]])
    result = meet("P", "L", a, a)
    assert not result.empty
    assert verify_meet(P2, a, a, result, "L")


# --- exhaustive oracle checks at small scale --------------------------------------


@pytest.mark.parametrize(
    "kind,n",
    [("PT", 1), ("PT", 2), ("T", 1), ("T", 2), ("I", 1), ("I", 2), ("P", 1), ("P", 2)],
)
def test_meets_exact_both_sides(kind, n):
    S = cached_monoid(kind, n)
    for a, b in itertools.product(S.elements, repeat=2):
        for side in ("R", "L"):
            assert verify_meet(S, a, b, meet(kind, side, a, b), side), (a, b, side)


def test_meets_exact_sampled_p3(P3):
    rng = random.Random(41)
    for _ in range(500):
        a, b = rng.choice(P3.elements), rng.choice(P3.elements)
        for side in ("R", "L"):
            assert verify_meet(P3, a, b, meet("P", side, a, b), side), (a, b, side)


def test_partition_emptiness_matches_brute_force(P2):
    for a, b in itertools.product(P2.elements, repeat=2):
        brute_empty = not (
            P2.right_ideal_idx(P2.index_of(a)) & P2.right_ideal_idx(P2.index_of(b))
        )
        assert meet("P", "R", a, b).empty == brute_empty


def test_partition_emptiness_exhaustive_p3(P3):
    # 203^2 pairs; the strongest guard on the emptiness conditions.
    for i, a in enumerate(P3.elements):
        ideal_a = P3.right_ideal_idx(i)
        for j, b in enumerate(P3.elements):
            brute_empty = not (ideal_a & P3.right_ideal_idx(j))
            assert meet("P", "R", a, b).empty == brute_empty, (a, b)


def test_right_meets_never_empty_for_maps(PT2, T2, I2):
    for S, kind in ((PT2, "PT"), (T2, "T"), (I2, "I")):
        for a, b in itertools.product(S.elements, repeat=2):
            assert not meet(kind, "R", a, b).empty


def test_inverse_monoid_intersections_principal(I3):
    for a, b in itertools.product(I3.elements, repeat=2):
        inter = I3.right_ideal_idx(I3.index_of(a)) & I3.right_ideal_idx(I3.index_of(b))
        eps = meet("PT", "R", a, b).generator
        ideal_eps = I3.right_ideal_idx(I3.index_of(eps))
        assert ideal_eps == inter
        idem = eps * eps.inverse()
        assert I3.right_ideal_idx(I3.index_of(idem)) == inter


def test_meet_size_mismatch():
    with pytest.raises(ValueError):
        meet("PT", "R", pm(1, 2), pm(1, 2, 3))
    with pytest.raises(ValueError):
        meet("P", "R", Partition.identity(2), Partition.identity(3))


# One kind and side each, named so that the parametrised ids below name them.
def meet_right_pt(a, b):
    return meet("PT", "R", a, b)


def meet_right_partition(a, b):
    return meet("P", "R", a, b)


def meet_left_partition(a, b):
    return meet("P", "L", a, b)


@pytest.mark.parametrize(
    "fn,a,b,message",
    [
        (meet_right_pt, pm(1, 2), Partition.identity(1), "Partition(1, '{1 1'}') is not of kind PT"),
        (meet_right_pt, Partition.identity(2), pm(1, 2), "Partition(2, '{1 1'}{2 2'}') is not of kind PT"),
        (meet_right_partition, pm(1, 2), Partition.identity(2), "PartialMap([1,2]) is not of kind P"),
        (meet_left_partition, Partition.identity(2), pm(1, 2), "PartialMap([1,2]) is not of kind P"),
    ],
)
def test_exported_meets_refuse_the_wrong_element_class(fn, a, b, message):
    with pytest.raises(ValueError) as err:
        fn(a, b)
    assert str(err.value) == message


@pytest.mark.parametrize("side", ["X", "r", None])
@pytest.mark.parametrize(
    "ask",
    [
        lambda side: meet("T", side, pm(1, 2), pm(2, 2)),
        lambda side: meet("PT", side, pm(1, None), pm(1, 2)),
        lambda side: meet("I", side, pm(2, 1), pm(1, None)),
        lambda side: meet("P", side, Partition.identity(2), Partition(2, [[1, 2], [-1], [-2]])),
        lambda side: meet("P", side, Partition.identity(2), Partition.identity(3)),
        lambda side: verify_meet(cached_monoid("T", 2), pm(1, 1), pm(2, 2), MeetResult.nothing(), side),
        lambda side: verify_meet(
            cached_monoid("P", 2), Partition.identity(2), Partition.identity(2),
            MeetResult.found(Partition.identity(2)), side,
        ),
        lambda side: leq_oracle(cached_monoid("PT", 2), pm(1, None), pm(1, 2), side),
        lambda side: leq_oracle(cached_monoid("P", 2), Partition.identity(3), Partition.identity(2), side),
    ],
    ids=[
        "meet-T", "meet-PT", "meet-I", "meet-P", "meet-P-sizes",
        "verify_meet-T", "verify_meet-P", "leq_oracle-PT", "leq_oracle-P-nonmember",
    ],
)
def test_bad_side_refused_before_anything_else(ask, side):
    with pytest.raises(ValueError) as err:
        ask(side)
    assert str(err.value) == f"side must be 'R' or 'L', got {side!r}"


# --- the smallest carriers and trusted generators ------------------------------


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("kind", KINDS)
def test_meets_and_preorders_on_the_smallest_carriers(kind, n):
    """On T_0 the empty map is the identity, so S*a ∩ S*b is never empty."""
    S = cached_monoid(kind, n)
    for a, b in itertools.product(S.elements, repeat=2):
        for side, leq in (("R", leq_R), ("L", leq_L)):
            assert verify_meet(S, a, b, meet(kind, side, a, b), side), (a, b, side)
            assert leq(kind, a, b) == leq_oracle(S, a, b, side).holds, (a, b, side)


@pytest.mark.parametrize("n", range(4))
def test_partition_meets_are_canonical(n):
    els = enumerate_elements("P", n)
    for a, b in itertools.product(els, repeat=2):
        for side in ("R", "L"):
            result = meet("P", side, a, b)
            if not result.empty:
                g = result.generator
                assert g.blocks == canonical(n, g.blocks), (a, b, side)


@pytest.mark.parametrize("kind", ["T", "PT", "I"])
def test_map_meets_equal_validated(kind):
    for n in range(4):
        for a, b in itertools.product(enumerate_elements(kind, n), repeat=2):
            for side in ("R", "L"):
                result = meet(kind, side, a, b)
                if not result.empty:
                    assert result.generator == PartialMap(result.generator.images), (a, b, side)


@pytest.mark.parametrize("side", ["R", "L"])
def test_verify_meet_refutes_a_generator_outside_the_monoid(T2, side):
    # a meets itself in a; the same answer with a generator outside T_2 is
    # refuted before any ideal is compared.
    assert verify_meet(T2, pm(1, 1), pm(1, 1), MeetResult.found(pm(1, 1)), side)
    assert not verify_meet(T2, pm(1, 1), pm(1, 1), MeetResult.found(pm(1, None)), side)
