import itertools
import random
from array import array

import pytest

from monoidkit.congruence import FiniteMonoid
from monoidkit.elements import PartialMap, Partition, enumerate_elements
from monoidkit.order import (
    OrderVerdict,
    generalized_inverses,
    is_idempotent,
    leq_L,
    leq_R,
    leq_oracle,
    natural_leq,
    _first_index,
)
from monoidkit.verify import cached_monoid

from kernel_oracle import dom, ker, kerhat, leq_R_by_kernels, pairs
from star_oracle import left_side_pairs, leq_L_by_star


def pm(*images):
    return PartialMap(images)


def test_leq_r_pt_example():
    assert leq_R("PT", pm(1, None), PartialMap.identity(2))
    assert not leq_R("PT", PartialMap.identity(2), pm(1, None))


def test_leq_r_reflexive_everywhere(PT2, P2):
    for S, kind in ((PT2, "PT"), (P2, "P")):
        for a in S.elements:
            assert leq_R(kind, a, a)
            assert leq_L(kind, a, a)


def test_leq_r_partition_example():
    singletons = Partition(2, [[1], [2], [-1], [-2]])
    one = Partition.identity(2)
    assert leq_R("P", singletons, one)
    assert not leq_R("P", one, singletons)


def test_leq_l_image_containment():
    const1 = pm(1, 1)
    assert leq_L("T", const1, PartialMap.identity(2))
    assert not leq_L("T", PartialMap.identity(2), const1)


def test_leq_kind_mismatch():
    with pytest.raises(ValueError):
        leq_R("T", pm(1, None), pm(1, 2))
    with pytest.raises(ValueError):
        leq_R("PT", pm(1, 2), pm(1, 2, 3))


def test_oracle_finds_witness(T2):
    const1, const2 = pm(1, 1), pm(2, 2)
    verdict = leq_oracle(T2, const2, const1, "R")
    assert verdict.holds
    assert const1 * verdict.witness == const2
    assert verdict.witness == pm(2, 1)
    for a in T2.elements:
        v = leq_oracle(T2, a, a, "R")
        assert v.holds and v.witness == T2.elements[0]


def test_oracle_returns_the_first_multiplier_by_product_search(PT3, T3, I3, P2):
    """The bitmask verdict and the row-scan witness against products formed
    afresh: the first s, in element order, with b*s == a (R) or s*b == a (L)."""
    for S in (PT3, T3, I3, P2):
        for b in S.elements:
            for side, products in (("R", [b * s for s in S.elements]), ("L", [s * b for s in S.elements])):
                for a in S.elements:
                    first = products.index(a) if a in products else None
                    expected = OrderVerdict(False) if first is None else OrderVerdict(True, S.elements[first])
                    assert leq_oracle(S, a, b, side) == expected, (a, b, side)


def test_oracle_witness_on_two_byte_rows_is_the_first_multiplier():
    """PT_4's 625 elements give `array('H')` rows, whose bytes are searched."""
    S = cached_monoid("PT", 4)
    assert S.row(1).typecode == "H" and S.opposite().row(1).typecode == "H"
    rng = random.Random(4)
    for side in ("R", "L"):
        for b in rng.sample(S.elements, 30):
            products = [b * s for s in S.elements] if side == "R" else [s * b for s in S.elements]
            for a in rng.sample(sorted(set(products), key=S.index_of), 5):
                assert leq_oracle(S, a, b, side) == OrderVerdict(True, S.elements[products.index(a)]), (a, b, side)


@pytest.mark.parametrize("code", ["H", "I"])
def test_first_index_skips_a_match_inside_an_entry(code):
    """The value's bytes first occur one byte into entry 0; its only aligned
    occurrence is entry 2."""
    size = array(code).itemsize
    value = int.from_bytes(bytes(range(1, size + 1)), "little")
    packed = array(code, [value]).tobytes()
    row = array(code, b"\0" + packed + b"\0" * (size - 1) + packed)
    assert row.tobytes().find(packed) == 1
    assert _first_index(row, value) == row.index(value) == 2
    assert _first_index(b"\3\1\1", 1) == 1
    with pytest.raises(ValueError):
        _first_index(row, value + 1)


def test_oracle_on_foreign_element(T2):
    with pytest.raises(ValueError):
        leq_oracle(T2, pm(1, None), pm(1, 2), "R")
    with pytest.raises(ValueError):
        leq_oracle(T2, pm(1, 1), pm(1, 2), "X")


CARRIERS = (("PT", 3), ("T", 3), ("I", 3), ("P", 2))


def _assert_preorders_agree(S, kind, a, b):
    right = leq_R(kind, a, b)
    assert right == leq_R_by_kernels(kind, a, b) == leq_oracle(S, a, b, "R").holds, (a, b)
    left = leq_L(kind, a, b)
    assert left == leq_oracle(S, a, b, "L").holds, (a, b)
    if kind == "P":
        assert left == leq_R_by_kernels("P", a.star(), b.star()), (a, b)


def test_characterization_matches_oracle_exhaustively(PT3, T3, I3, P2):
    monoids = {"PT": PT3, "T": T3, "I": I3, "P": P2}
    for kind, _ in CARRIERS:
        S = monoids[kind]
        for a, b in itertools.product(S.elements, repeat=2):
            _assert_preorders_agree(S, kind, a, b)


def test_characterization_matches_oracle_exhaustively_p3(P3):
    # 203^2 = 41,209 pairs.
    for a, b in itertools.product(P3.elements, repeat=2):
        _assert_preorders_agree(P3, "P", a, b)


def test_leq_L_partition_is_star_transport():
    """Read on the lower row, the left preorder is the right one transported
    through `star`."""
    for a, b in left_side_pairs(37):
        assert leq_L("P", a, b) == leq_L_by_star(a, b), (a, b)


def test_natural_leq_examples():
    assert natural_leq(pm(1, None), PartialMap.identity(2))
    e = Partition(2, [[1], [2], [-1], [-2]])
    f = Partition(2, [[1, -1], [2], [-2]])
    assert natural_leq(e, f)
    assert not natural_leq(f, e)
    assert natural_leq(e, e)


def test_natural_leq_rejects_non_idempotents():
    with pytest.raises(ValueError):
        natural_leq(pm(2, 1), PartialMap.identity(2))


@pytest.mark.parametrize(
    "e,f",
    [(pm(2, 1), PartialMap.identity(2)), (PartialMap.identity(2), pm(2, 1)), (pm(2, 1), pm(2, 1))],
    ids=["e", "f", "both"],
)
def test_natural_leq_names_the_first_non_idempotent(e, f):
    with pytest.raises(ValueError, match=r"^PartialMap\(\[2,1\]\) is not idempotent$"):
        natural_leq(e, f)


def test_natural_order_implies_green_orders(PT3, P2):
    for S, kind in ((PT3, "PT"), (P2, "P")):
        idems = [S.elements[i] for i in S.idempotent_idxs()]
        for e, f in itertools.product(idems, repeat=2):
            if natural_leq(e, f):
                assert leq_R(kind, e, f)
                assert leq_L(kind, e, f)


def test_inverse_monoid_law(I3):
    for a, b in itertools.product(I3.elements, repeat=2):
        lhs = leq_R("I", a, b)
        rhs = natural_leq(a * a.inverse(), b * b.inverse())
        assert lhs == rhs


def test_preorder_transitive():
    for kind, n in (("PT", 2), ("P", 2)):
        els = enumerate_elements(kind, n)
        for a, b, c in itertools.product(els, repeat=3):
            if leq_R(kind, a, b) and leq_R(kind, b, c):
                assert leq_R(kind, a, c)


def test_kernel_containment_equals_class_refinement():
    # The two readings of "one kernel lies below another" must agree: pair
    # containment of the hatted kernels, and every plain kernel class of the
    # smaller-domain map being a union of the other's classes.
    pt2 = enumerate_elements("PT", 2)
    for mu, nu in itertools.product(pt2, repeat=2):
        if not dom(nu) <= dom(mu):
            continue
        containment = pairs(kerhat(mu)) <= pairs(kerhat(nu))
        union_form = all(
            cls == frozenset().union(*(c for c in ker(mu) if c & cls)) for cls in ker(nu)
        )
        assert containment == union_form


def test_generalized_inverses(T2, I2):
    for i in T2.idempotent_idxs():
        e = T2.elements[i]
        assert e in generalized_inverses(T2, e)
    swap = pm(2, 1)
    assert swap in generalized_inverses(T2, swap)
    a = pm(2, None)
    assert a.inverse() in generalized_inverses(I2, a)
    assert a.inverse() == pm(None, 1)


def _generalized_inverses_by_products(S, a):
    """The whole-row sweep that the column lookups replaced."""
    ia = S.index_of(a)
    out = []
    for x in range(len(S)):
        axa = S.row(S.row(ia)[x])[ia]
        xax = S.row(S.row(x)[ia])[x]
        if axa == ia and xax == x:
            out.append(S.elements[x])
    return out


def test_generalized_inverses_match_row_sweep(T3, PT3, I3, P2):
    for S in (PT3, T3, I3, P2):
        for a in S.elements:
            assert generalized_inverses(S, a) == _generalized_inverses_by_products(S, a), a


def test_generalized_inverses_read_only_rows_of_left_multiples(T4):
    # The row sweep filled all m rows of a generator-less T_4, m products
    # each; the lookups read a's row, a's row in the opposite (its column)
    # and the rows of S*a.
    calls = [0]

    def counting_mul(x, y):
        calls[0] += 1
        return x * y

    S = FiniteMonoid(T4.elements, mul=counting_mul, check=False)
    m = len(S)
    for a in (pm(1, 1, 1, 1), pm(2, 2, 4, 4), pm(1, 1, 3, 4)):
        left_multiples = len({T4.index_of(x * a) for x in T4.elements})
        calls[0] = 0
        assert generalized_inverses(S, a) == generalized_inverses(T4, a)
        assert calls[0] <= (2 + left_multiples) * m < m * m


def test_everything_regular_in_full_monoids(T3, PT3, I3, P2):
    for S in (T3, PT3, I3, P2):
        for a in S.elements:
            assert generalized_inverses(S, a), f"{a!r} should be regular"


def test_is_idempotent():
    assert is_idempotent(pm(1, 1))
    assert not is_idempotent(pm(2, 1))
