import itertools
import random

import pytest

from monoidkit.elements import (
    PartialMap,
    Partition,
    element_count,
    embed,
    enumerate_elements,
    generators,
    identity_of,
    is_kind,
)
from monoidkit.verify import cached_monoid

from canonical_oracle import canonical
from kernel_oracle import carrier, dom, join, ker, kerhat, pairs, rel, restrict, subset_of, upper_blocks


def pm(*images):
    return PartialMap(images)


# --- partial map composition and profiles ---------------------------------


def test_compose_pointwise():
    a = pm(2, 2, None)
    b = pm(None, 3, 1)
    assert a * b == pm(3, 3, None)


def test_compose_identity():
    a = pm(2, None, 1)
    assert a * PartialMap.identity(3) == a
    assert PartialMap.identity(3) * a == a


def test_compose_empty_absorbs():
    empty = PartialMap.empty(3)
    for images in itertools.product([None, 1, 2, 3], repeat=3):
        b = PartialMap(images)
        assert empty * b == empty
        assert b * empty == empty


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        pm(1, 2) * pm(1, 2, 3)


def test_profile_fibers():
    a = pm(1, 1, None)
    dom_a, im, ker_a, kerhat_a = dom(a), a.im(), ker(a), kerhat(a)
    assert dom_a == {1, 2}
    assert im == {1}
    assert ker_a == rel([1, 2])
    assert kerhat_a == rel([1, 2], [3])


def test_profile_identity():
    a = PartialMap.identity(3)
    dom_a, im, ker_a, kerhat_a = dom(a), a.im(), ker(a), kerhat(a)
    assert dom_a == im == {1, 2, 3}
    assert ker_a == kerhat_a == rel([1], [2], [3])


def test_profile_nowhere_defined():
    a = PartialMap.empty(3)
    dom_a, im, ker_a, kerhat_a = dom(a), a.im(), ker(a), kerhat(a)
    assert dom_a == frozenset()
    assert ker_a == rel()
    assert kerhat_a == rel([1, 2, 3])


def test_profile_monotone_under_composition():
    pt2 = enumerate_elements("PT", 2)
    for a, b in itertools.product(pt2, repeat=2):
        c = a * b
        assert dom(c) <= dom(a)
        assert c.im() <= b.im()


def test_bad_image_rejected():
    with pytest.raises(ValueError):
        PartialMap([1, 4, 2])


def test_products_pass_validating_constructor():
    # Products skip the image checks; the public constructor still makes them.
    rng = random.Random(3)
    for n in (1, 2, 5, 9):
        choices = [None] + list(range(1, n + 1))
        for _ in range(200):
            a = PartialMap(rng.choice(choices) for _ in range(n))
            b = PartialMap(rng.choice(choices) for _ in range(n))
            p = a * b
            assert PartialMap(p.images) == p and p.n == n
    for bad in ([5], ["x"], [0, 1], [1.0]):
        with pytest.raises(ValueError):
            PartialMap(bad)


# --- partitions ------------------------------------------------------------


def test_partition_square_matches_partial_bijection_view():
    a = Partition(2, [[1, -2], [2], [-1]])  # the diagram of 1 -> 2
    assert a * a == Partition(2, [[1], [2], [-1], [-2]])


def test_partition_products_are_canonical(P2, P3):
    # The product is built without canonicalising; its blocks must already
    # be in the form the sort-based canonicaliser produces.
    rng = random.Random(43)
    pairs = list(itertools.product(P2.elements, repeat=2))
    pairs += [(rng.choice(P3.elements), rng.choice(P3.elements)) for _ in range(2000)]
    for a, b in pairs:
        p = a * b
        assert p.blocks == canonical(p.n, p.blocks), (a, b)


def test_partition_identity_is_neutral(P2):
    one = Partition.identity(2)
    for a in P2.elements:
        assert a * one == a
        assert one * a == a


def test_partition_times_own_star():
    a = Partition(2, [[1, -2], [2], [-1]])
    assert a * a.star() == Partition(2, [[1, -1], [2], [-2]])


def test_partition_size_mismatch():
    with pytest.raises(ValueError):
        Partition.identity(2) * Partition.identity(3)


def test_star_swaps_rows():
    a = Partition(2, [[1, -2], [2], [-1]])
    assert a.star() == Partition(2, [[2, -1], [1], [-2]])
    assert Partition.identity(3).star() == Partition.identity(3)


def test_star_laws_exhaustive_p2():
    p2 = enumerate_elements("P", 2)
    assert len(p2) == 15
    for a in p2:
        assert a.star().star() == a
        assert a * a.star() * a == a
    for a, b in itertools.product(p2, repeat=2):
        assert (a * b).star() == b.star() * a.star()


def test_star_laws_sampled_p3():
    rng = random.Random(7)
    p3 = enumerate_elements("P", 3)
    for _ in range(300):
        a, b = rng.choice(p3), rng.choice(p3)
        assert (a * b).star() == b.star() * a.star()
        assert a * a.star() * a == a


def test_star_matches_canonical_swap():
    """The star's blocks are the sort-based canonical form of the swapped
    blocks."""
    for n in (2, 3):
        for a in enumerate_elements("P", n):
            swapped = [[p + n if p <= n else p - n for p in block] for block in a.blocks]
            want = Partition._from_internal(n, canonical(n, swapped))
            got = a.star()
            assert got == want and got.blocks == want.blocks == canonical(n, got.blocks)
            assert type(got.blocks) is tuple and all(type(block) is tuple for block in got.blocks)


@pytest.mark.parametrize("n", range(5))
def test_trusted_partitions_are_canonical(n):
    """Every partition built without validation has the blocks the
    sort-based canonical form makes of them."""
    built = [*enumerate_elements("P", n), *generators("P", n), Partition.identity(n)]
    if n <= 3:
        built += [embed("I->P", a) for a in enumerate_elements("I", n)]
    for x in built:
        assert x.blocks == canonical(n, x.blocks), x


@pytest.mark.parametrize("n", range(4))
def test_trusted_partial_maps_equal_validated(n):
    """Every partial map built without validation equals the validated map
    on its images, tuple for tuple."""
    built = [PartialMap.identity(n), PartialMap.empty(n)]
    for kind in ("T", "PT", "I"):
        built += enumerate_elements(kind, n) + generators(kind, n)
    built += [a.inverse() for a in enumerate_elements("I", n)]
    built += [embed("PT->T", a) for a in enumerate_elements("PT", n)]
    for x in built:
        assert x == PartialMap(x.images), x


@pytest.mark.parametrize("n", range(5))
def test_is_injective_matches_distinct_defined_images(n):
    for a in enumerate_elements("PT", n):
        defined = [v for v in a.images if v is not None]
        assert a.is_injective == (len(defined) == len(set(defined))), a


@pytest.mark.parametrize("n", range(5))
def test_is_kind_matches_the_definitions(n):
    """T: no undefined point; I: distinct defined images; PT: any map; P:
    any partition; anything else is of no kind."""
    for a in enumerate_elements("PT", n):
        defined = [v for v in a.images if v is not None]
        expected = {"T": len(defined) == n, "PT": True, "I": len(defined) == len(set(defined)), "P": False}
        assert {kind: is_kind(a, kind) for kind in expected} == expected, a
    for x in enumerate_elements("P", min(n, 2)):
        assert [is_kind(x, kind) for kind in ("T", "PT", "I", "P")] == [False, False, False, True]
    for x in (None, (1,), [1], "T"):
        assert not any(is_kind(x, kind) for kind in ("T", "PT", "I", "P"))
        with pytest.raises(ValueError, match="^unknown kind 'Q'$"):
            is_kind(x, "Q")


class _Relabelled(PartialMap):
    __slots__ = ()


def test_a_subclass_of_partial_map_keeps_its_kinds_and_its_index():
    x = _Relabelled([2, 1])
    assert [is_kind(x, kind) for kind in ("T", "PT", "I", "P")] == [True, True, True, False]
    assert not is_kind(_Relabelled([1, 1]), "I") and not is_kind(_Relabelled([None, 1]), "T")
    S = cached_monoid("T", 2)
    assert x in S and S.index_of(x) == S.index_of(pm(2, 1))


@pytest.mark.parametrize("n", range(5))
def test_image_set_matches_defined_images(n):
    for a in enumerate_elements("PT", n):
        assert a.im() == frozenset(v for v in a.images if v is not None), a


def test_associativity_exhaustive():
    for kind, n in (("P", 2), ("PT", 2)):
        els = enumerate_elements(kind, n)
        for a, b, c in itertools.product(els, repeat=3):
            assert (a * b) * c == a * (b * c)


def test_partition_profile_with_transversal():
    a = Partition(2, [[1, 2, -1], [-2]])
    assert dom(a) == {1, 2}
    assert dom(a.star()) == {1}
    assert ker(a) == rel([1, 2])
    assert upper_blocks(a) == frozenset()
    assert upper_blocks(a.star()) == {frozenset({2})}


def test_partition_profile_identity():
    one = Partition.identity(3)
    assert dom(one) == dom(one.star()) == {1, 2, 3}
    assert upper_blocks(one) == upper_blocks(one.star()) == frozenset()


def test_partition_profile_no_transversals():
    a = Partition(2, [[1], [2], [-1], [-2]])
    assert dom(a) == frozenset()
    assert upper_blocks(a) == {frozenset({1}), frozenset({2})}


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(2, [[1, 2], [-1]])  # 2' missing
    with pytest.raises(ValueError):
        Partition(2, [[1, 2], [2, -1, -2]])  # 2 repeated


# --- equivalence relations --------------------------------------------------


def test_join_chains_transitively():
    r = rel([1, 2], [3], [4])
    s = rel([2, 3], [1], [4])
    assert join(r, s) == rel([1, 2, 3], [4])
    assert join(r, r) == r


def test_join_of_kernels_on_different_carriers():
    r = ker(pm(1, 1, None))
    s = ker(pm(None, 2, 2))
    assert carrier(r) == {1, 2} and carrier(s) == {2, 3}
    assert join(r, s) == rel([1, 2, 3])


def _random_relation(rng, ground):
    carrier = [x for x in ground if rng.random() < 0.8]
    classes = []
    for x in carrier:
        if classes and rng.random() < 0.5:
            rng.choice(classes).append(x)
        else:
            classes.append([x])
    return rel(*classes)


def test_join_commutative_associative_idempotent():
    rng = random.Random(11)
    ground = range(1, 9)
    for _ in range(200):
        r, s, t = (_random_relation(rng, ground) for _ in range(3))
        assert join(r, s) == join(s, r)
        assert join(join(r, s), t) == join(r, join(s, t))
        assert join(r, r) == r


def test_subset_of_matches_pairwise_containment():
    rng = random.Random(13)
    ground = range(1, 7)
    for _ in range(200):
        r, s = _random_relation(rng, ground), _random_relation(rng, ground)
        assert subset_of(r, s) == (pairs(r) <= pairs(s))


def test_restrict():
    r = rel([1, 2, 3], [4, 5])
    assert restrict(r, {2, 3, 4}) == rel([2, 3], [4])


# --- enumeration ------------------------------------------------------------


@pytest.mark.parametrize(
    "kind,n,count",
    [("T", 2, 4), ("PT", 3, 64), ("P", 2, 15), ("I", 3, 34), ("I", 2, 7), ("P", 3, 203)],
)
def test_enumeration_counts(kind, n, count):
    els = enumerate_elements(kind, n)
    assert len(els) == count == element_count(kind, n)
    assert len(set(els)) == count


def test_enumeration_cap():
    with pytest.raises(ValueError):
        enumerate_elements("P", 6)
    assert element_count("P", 6) > 1_000_000
    # A carrier past n = 8 is refused on the count at 8, which passes the cap.
    assert all(element_count(kind, 8) > 1_000_000 for kind in ("T", "PT", "I", "P"))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        enumerate_elements("Q", 2)
    with pytest.raises(ValueError):
        element_count("Q", 2)


def test_negative_n_rejected():
    with pytest.raises(ValueError, match="n must be non-negative, got -1"):
        enumerate_elements("T", -1)
    with pytest.raises(ValueError, match="n must be non-negative, got -2"):
        generators("I", -2)


@pytest.mark.parametrize(
    "kind,n",
    [(kind, n) for kind in ("T", "PT", "I") for n in range(5)] + [("P", n) for n in range(4)],
)
def test_generators_reach_every_element(kind, n):
    gens = generators(kind, n)
    one = identity_of(kind, n)
    assert len(set(gens)) == len(gens) and one not in gens
    reached = frontier = {one}
    while frontier:
        frontier = {g * x for x in frontier for g in gens} - reached
        reached = reached | frontier
    assert reached == set(enumerate_elements(kind, n))


STANDARD_GENERATORS = {
    ("T", 0): [],
    ("T", 1): [],
    ("T", 2): ["[2,1]", "[1,1]"],
    ("T", 3): ["[2,1,3]", "[2,3,1]", "[1,1,3]"],
    ("T", 4): ["[2,1,3,4]", "[2,3,4,1]", "[1,1,3,4]"],
    ("PT", 0): [],
    ("PT", 1): ["[_]"],
    ("PT", 2): ["[2,1]", "[1,1]", "[_,2]"],
    ("PT", 3): ["[2,1,3]", "[2,3,1]", "[1,1,3]", "[_,2,3]"],
    ("PT", 4): ["[2,1,3,4]", "[2,3,4,1]", "[1,1,3,4]", "[_,2,3,4]"],
    ("I", 0): [],
    ("I", 1): ["[_]"],
    ("I", 2): ["[2,1]", "[_,2]"],
    ("I", 3): ["[2,1,3]", "[2,3,1]", "[_,2,3]"],
    ("I", 4): ["[2,1,3,4]", "[2,3,4,1]", "[_,2,3,4]"],
    ("P", 0): [],
    ("P", 1): ["{1}{1'}"],
    ("P", 2): ["{1 2'}{2 1'}", "{1}{2 2'}{1'}", "{1 2 1' 2'}"],
    ("P", 3): ["{1 2'}{2 1'}{3 3'}", "{1 2'}{2 3'}{3 1'}", "{1}{2 2'}{3 3'}{1'}", "{1 2 1' 2'}{3 3'}"],
    ("P", 4): ["{1 2'}{2 1'}{3 3'}{4 4'}", "{1 2'}{2 3'}{3 4'}{4 1'}",
               "{1}{2 2'}{3 3'}{4 4'}{1'}", "{1 2 1' 2'}{3 3'}{4 4'}"],
}


@pytest.mark.parametrize("kind,n", list(STANDARD_GENERATORS))
def test_generators_are_the_standard_lists(kind, n):
    """The members and their order, which the left factor tree's
    breadth-first walk, and so every composed row, depends on."""
    assert [str(g) for g in generators(kind, n)] == STANDARD_GENERATORS[kind, n]


def _outcome(call):
    """What a call returns, or the type and text of what it raises."""
    try:
        return call()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "call,expected",
    [
        (lambda: PartialMap((1, 1)).inverse(), (ValueError, "only injective partial maps have an inverse")),
        (lambda: pm(2, None)(1), 2),
        (lambda: pm(2, None)(2), None),
        (lambda: pm(2, None)(0), (ValueError, "point 0 outside 1..2")),
        (lambda: pm(2, None)(3), (ValueError, "point 3 outside 1..2")),
        (lambda: generators("X", 2), (ValueError, "unknown kind 'X'")),
        (lambda: PartialMap.identity(2) * 3,
         (TypeError, "unsupported operand type(s) for *: 'PartialMap' and 'int'")),
        (lambda: 3 * Partition.identity(2),
         (TypeError, "unsupported operand type(s) for *: 'int' and 'Partition'")),
        (lambda: Partition.identity(2) * PartialMap.identity(2),
         (TypeError, "unsupported operand type(s) for *: 'Partition' and 'PartialMap'")),
    ],
    ids=["inverse-not-injective", "call-defined", "call-undefined", "call-below", "call-above",
         "generators-unknown-kind", "map-times-int", "int-times-partition", "partition-times-map"],
)
def test_refusals_and_point_lookups(call, expected):
    assert _outcome(call) == expected


# --- embeddings --------------------------------------------------------------


def test_embed_sink_construction():
    assert embed("PT->T", pm(2, None)) == pm(2, 3, 3)


def test_embed_partial_bijection_as_partition():
    assert embed("I->P", pm(1, None)) == Partition(2, [[1, -1], [2], [-2]])


def test_embed_inclusion_and_kind_mismatch():
    a = pm(2, None)
    assert embed("I->PT", a) is a
    with pytest.raises(ValueError):
        embed("I->P", pm(1, 1))
    with pytest.raises(ValueError):
        embed("T->P", pm(1, 2))


def test_embed_multiplicative_pt_to_t():
    pt2 = enumerate_elements("PT", 2)
    for a, b in itertools.product(pt2, repeat=2):
        assert embed("PT->T", a * b) == embed("PT->T", a) * embed("PT->T", b)


def test_embed_intertwines_partition_product():
    for n in (2, 3):
        elements = enumerate_elements("I", n)
        for a, b in itertools.product(elements, repeat=2):
            assert embed("I->P", a * b) == embed("I->P", a) * embed("I->P", b)
