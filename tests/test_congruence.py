import itertools
import random
from array import array
from collections import deque

import pytest

from monoidkit.congruence import (
    FiniteMonoid,
    YSequence,
    annihilator,
    is_right_congruence,
    kappa,
    rc_close,
    subact_generators,
    y_sequence,
)
from monoidkit.elements import PartialMap, Partition, find, generators, min_root_join
from monoidkit.ideals import meet, verify_meet
from monoidkit.order import generalized_inverses, leq_oracle
from monoidkit.verify import cached_monoid, delta

from kernel_oracle import component_labels, congruence_subset_of, from_labels


def pm(*images):
    return PartialMap(images)


ID2 = PartialMap.identity(2)
SWAP = pm(2, 1)
CONST1 = pm(1, 1)
CONST2 = pm(2, 2)


# --- monoid construction -----------------------------------------------------


def test_finite_monoid_rejects_non_closed_list():
    S = FiniteMonoid([ID2, SWAP, CONST1])
    with pytest.raises(ValueError):
        S.row(S.index_of(CONST1))  # const1 * swap = const2 is missing from the list
    op = S.opposite()
    for _ in range(2):  # a failed row of the opposite is not cached
        with pytest.raises(ValueError, match="not closed"):
            op.row(S.index_of(SWAP))  # the column meets const1 * swap too
        assert op._rows[S.index_of(SWAP)] is None
    with pytest.raises(ValueError, match="not closed"):
        leq_oracle(S, CONST1, SWAP, "L")  # an error, not a verdict of False


def test_finite_monoid_rejects_non_identity_head():
    with pytest.raises(ValueError):
        FiniteMonoid([SWAP, ID2, CONST1, CONST2])


def test_finite_monoid_rejects_duplicates():
    with pytest.raises(ValueError):
        FiniteMonoid([ID2, SWAP, SWAP])


def test_foreign_elements_rejected(T2):
    with pytest.raises(ValueError):
        T2.index_of(pm(1, None))
    with pytest.raises(ValueError):
        rc_close(T2, [(ID2, pm(1, 2, 3))])


def test_opposite_monoid(T2):
    op = T2.opposite()
    i, j = T2.index_of(CONST1), T2.index_of(SWAP)
    assert op.row(i)[j] == T2.row(j)[i]


def _column(S, j):
    """Indices of x*b for every x, b = elements[j], by m products in S."""
    b = S.elements[j]
    return [S.index_of(S._mul_fn(x, b)) for x in S.elements]


def test_opposite_is_cached_and_shares_the_index():
    S = FiniteMonoid.full("T", 3)
    op = S.opposite()
    assert op is S.opposite() and op.opposite() is S
    assert op.elements is S.elements and op._index is S._index
    assert op._generators == S._generators
    assert op._rows is not S._rows and op._right_ideals is not S._right_ideals
    assert list(op.row(4)) == _column(S, 4) and S._rows[4] is None


def test_left_queries_fill_no_row_of_the_monoid():
    S = FiniteMonoid.full("T", 3)
    for a, b in itertools.product(S.elements[:8], repeat=2):
        leq_oracle(S, a, b, "L")
        verify_meet(S, a, b, meet("T", "L", a, b), "L")
    assert S._rows == [None] * len(S)


@pytest.mark.parametrize(
    "build",
    [
        lambda: FiniteMonoid.full("T", 3),
        lambda: FiniteMonoid.full("PT", 3),
        lambda: FiniteMonoid.full("I", 3),
        lambda: FiniteMonoid.full("P", 2),
        lambda: FiniteMonoid.full("T", 4),
        lambda: FiniteMonoid.full("T", 3).opposite(),
    ],
    ids=["T3", "PT3", "I3", "P2", "T4", "T3-opposite"],
)
def test_composed_rows_and_tree_columns_match_products(build):
    S = build()
    direct = FiniteMonoid(S.elements, mul=S._mul_fn, check=False)  # no generators
    m = len(S)
    op = S.opposite()  # columns are the opposite's rows, composed on its own tree
    assert [list(op.row(j)) for j in range(m)] == [_column(direct, j) for j in range(m)]
    assert [S.row(i) for i in range(m)] == [direct.row(i) for i in range(m)]


def _row_type(row):
    """bytes, or the typecode of an array."""
    return row.typecode if type(row) is array else type(row)


@pytest.mark.parametrize(
    "build,row_type",
    [
        (lambda: FiniteMonoid.full("T", 4), bytes),  # exactly 256 elements
        (lambda: FiniteMonoid.full("PT", 4), "H"),  # 625 elements
        (lambda: FiniteMonoid(cached_monoid("I", 4).elements), bytes),  # no generators
    ],
    ids=["T4", "PT4", "I4-without-generators"],
)
def test_every_row_and_column_is_its_product_row(build, row_type):
    """Rows are bytes on at most 256 elements and two-byte arrays past that;
    either way each holds the products' indices, on both sides."""
    S = build()
    op = S.opposite()
    els, index = S.elements, S.index_of
    for i, a in enumerate(els):
        row, col = S.row(i), op.row(i)
        assert _row_type(row) == row_type and _row_type(col) == row_type
        assert list(row) == [index(a * x) for x in els]
        assert list(col) == [index(x * a) for x in els]


def test_rows_past_65536_elements_take_four_bytes_an_entry():
    m = 65537  # the cyclic monoid Z_m under addition, without generators
    S = FiniteMonoid(range(m), mul=lambda a, b: (a + b) % m, check=False)
    row = S.row(1)
    assert _row_type(row) == "I" and row.itemsize >= 4
    assert list(row) == [(1 + x) % m for x in range(m)]
    assert row[m - 2] == m - 1 and row[m - 1] == 0


def _members(mask):
    """The indices whose bits are set in an ideal bitmask."""
    return {x for x in range(mask.bit_length()) if mask >> x & 1}


@pytest.mark.parametrize(
    "build",
    [
        lambda: FiniteMonoid.full("T", 3),
        lambda: FiniteMonoid.full("PT", 3),
        lambda: FiniteMonoid.full("I", 3),
        lambda: FiniteMonoid.full("P", 2),
        lambda: FiniteMonoid.full("T", 3).opposite(),
    ],
    ids=["T3", "PT3", "I3", "P2", "T3-opposite"],
)
def test_ideal_masks_decode_to_rows_and_columns(build):
    S = build()
    direct = FiniteMonoid(S.elements, mul=S._mul_fn, check=False)
    for i in range(len(S)):
        assert _members(S.right_ideal_idx(i)) == set(S.row(i))
        assert _members(S.opposite().right_ideal_idx(i)) == set(_column(direct, i))
        assert S.right_ideal_idx(i) is S.right_ideal_idx(i)


def test_columns_are_cached_and_left_unmodified():
    S = FiniteMonoid.full("T", 3)
    direct = FiniteMonoid(S.elements, check=False)
    m = len(S)
    assert S.opposite().row(5) is S.opposite().row(5)
    assert direct.opposite().row(5) is direct.opposite().row(5)
    for a, b in itertools.product(S.elements, repeat=2):
        leq_oracle(S, a, b, "L")
    for j, a in enumerate(S.elements):
        generalized_inverses(S, a)
        S.opposite().right_ideal_idx(j)
    assert [list(S.opposite().row(j)) for j in range(m)] == [_column(direct, j) for j in range(m)]


def test_generators_missing_an_element_refused():
    S = FiniteMonoid.full("T", 3)
    gens = [S.index_of(g) for g in generators("T", 3)]
    for dropped in range(len(gens)):
        partial = FiniteMonoid(S.elements, check=False)
        partial._generators = gens[:dropped] + gens[dropped + 1:]
        for side in (partial, partial.opposite()):
            with pytest.raises(ValueError, match="generators reach"):
                for i in range(len(S)):
                    side.row(i)


@pytest.fixture
def products(monkeypatch):
    """Counts products of partial maps and partitions, however they are called."""
    calls = [0]
    for cls in (PartialMap, Partition):
        original = cls.__mul__

        def counting(a, b, original=original):
            calls[0] += 1
            return original(a, b)

        monkeypatch.setattr(cls, "__mul__", counting)
    return calls


def test_full_table_costs_generator_rows_not_m_squared(products):
    # Direct rows would cost m^2 = 65,536 products on T_4; one batch read
    # pays the generators' rows once, and the identity's row not at all.
    S = FiniteMonoid.full("T", 4)
    m, g = len(S), len(generators("T", 4))
    products[0] = 0
    assert len(list(S.rows(range(m)))) == m
    assert None not in S._rows
    assert products[0] <= g * m


def test_two_pair_closure_pays_the_generator_rows_once(products):
    # Four rows past the three generators' go by the tree from the start:
    # the generators' rows are not paid on top of the pairs' first rows.
    S = FiniteMonoid.full("T", 4)
    picked = [5, 77, 100, 200]
    assert not set(picked) & set(S._generators) and 0 not in picked
    a, b, c, d = (S.elements[i] for i in picked)
    products[0] = 0
    rho = rc_close(S, [(a, b), (c, d)])
    assert products[0] <= len(generators("T", 4)) * len(S)
    assert is_right_congruence(S, rho.eqrel)


def test_one_pair_closure_pays_only_its_rows(products):
    S = FiniteMonoid.full("T", 4)
    a, b = S.elements[5], S.elements[77]
    products[0] = 0
    rc_close(S, [(a, b)])
    assert products[0] <= 2 * len(S)


def test_cold_left_oracle_pays_only_generator_rows(products):
    S = FiniteMonoid.full("T", 4)
    a, b = pm(3, 3, 3, 3), pm(2, 2, 3, 4)
    products[0] = 0
    assert leq_oracle(S, a, b, "L").holds
    assert products[0] <= len(generators("T", 4)) * len(S)


# --- congruence closure -------------------------------------------------------


def test_rc_close_empty_is_equality(T2):
    rho = rc_close(T2, [])
    assert rho.num_classes == len(T2)
    assert rho.eqrel == delta(T2).eqrel


def test_rc_close_pair_propagation(T2):
    rho = rc_close(T2, [(ID2, CONST1)])
    assert set(map(frozenset, rho.classes_elements())) == {
        frozenset({ID2, CONST1}),
        frozenset({SWAP, CONST2}),
    }


def test_left_congruence_via_opposite_monoid(T2):
    # The same pair closed on the opposite monoid gives the left congruence,
    # which here collapses everything.
    rho = rc_close(T2.opposite(), [(ID2, CONST1)])
    assert rho.num_classes == 1


def test_rc_close_output_is_right_compatible(T3):
    rng = random.Random(5)
    for _ in range(5):
        pairs = [
            (rng.choice(T3.elements), rng.choice(T3.elements))
            for _ in range(rng.randint(1, 3))
        ]
        rho = rc_close(T3, pairs)
        assert is_right_congruence(T3, rho.eqrel)


def test_rc_close_monotone_in_generators(T2, PT2):
    rng = random.Random(17)
    for S in (T2, PT2):
        pool = [(rng.choice(S.elements), rng.choice(S.elements)) for _ in range(4)]
        small = rc_close(S, pool[:2])
        big = rc_close(S, pool)
        assert congruence_subset_of(small, big)


def _rc_close_by_worklist(S, pairs):
    """The closure as a BFS over (pair, multiplier) items, each item spawning
    (pair, t*s) for every s, as rc_close computed it before the direct sweep.
    Returns the class-minimum labels and the merge records in order."""
    pair_idx = [(S.index_of(a), S.index_of(b)) for a, b in pairs]
    parent = list(range(len(S)))
    edges = []
    seen = {(p, 0) for p in range(len(pair_idx))}
    queue = deque((p, 0) for p in range(len(pair_idx)))
    while queue:
        p, t = queue.popleft()
        c, d = pair_idx[p]
        u, v = S.row(c)[t], S.row(d)[t]
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            parent[ru] = rv
            edges.append((u, v, p, t))
        for ts in S.row(t):
            if (p, ts) not in seen:
                seen.add((p, ts))
                queue.append((p, ts))
    labels = component_labels(len(S), [(u, v) for u, v, _, _ in edges])
    els = S.elements
    trace = tuple((els[u], els[v], pairs[p], els[t]) for u, v, p, t in edges)
    return labels, trace


@pytest.mark.parametrize("kind,n", [("T", 3), ("PT", 3), ("I", 3), ("P", 2)])
def test_rc_close_matches_worklist_oracle(kind, n):
    S = cached_monoid(kind, n)
    rng = random.Random(f"{kind}{n}")
    a, b = rng.choice(S.elements), rng.choice(S.elements)
    cases = [[], [(a, b), (a, b)], [(a, a)], [(a, a), (a, b)]]
    for _ in range(12):
        count = rng.randint(0, 3)
        cases.append([(rng.choice(S.elements), rng.choice(S.elements)) for _ in range(count)])
    for pairs in cases:
        rho = rc_close(S, pairs)
        assert (rho.eqrel, rho.trace) == _rc_close_by_worklist(S, pairs), pairs


def test_rc_close_matches_worklist_oracle_on_opposite(T3):
    op = T3.opposite()
    rng = random.Random(29)
    for _ in range(8):
        pairs = [(rng.choice(op.elements), rng.choice(op.elements)) for _ in range(rng.randint(1, 3))]
        rho = rc_close(op, pairs)
        assert (rho.eqrel, rho.trace) == _rc_close_by_worklist(op, pairs), pairs


def test_rc_close_multiplies_only_by_its_pairs_rows():
    # Each pair needs the rows of its two elements, m products each; the
    # worklist it replaced filled the whole m x m table.
    calls = [0]

    def counting_mul(a, b):
        calls[0] += 1
        return a * b

    S = FiniteMonoid(cached_monoid("T", 4).elements, mul=counting_mul)
    rng = random.Random(31)
    pairs = [(rng.choice(S.elements), rng.choice(S.elements)) for _ in range(2)]
    calls[0] = 0
    rc_close(S, pairs)
    assert calls[0] <= 2 * len(pairs) * len(S)


def test_idempotent_idxs_costs_one_product_per_element(T4):
    # Reading the diagonal filled every row of a generator-less T_4, m^2
    # products; one square per element fills none.
    calls = [0]

    def counting_mul(a, b):
        calls[0] += 1
        return a * b

    S = FiniteMonoid(T4.elements, mul=counting_mul, check=False)
    idems = S.idempotent_idxs()
    assert calls[0] <= len(S)
    assert idems == [i for i in range(len(T4)) if T4.row(i)[i] == i]
    assert all(row is None for row in S._rows)


# --- witnesses ----------------------------------------------------------------


def test_y_sequence_reflexive_case(T2):
    rho = rc_close(T2, [(ID2, CONST1)])
    seq = y_sequence(rho, SWAP, SWAP)
    assert len(seq) == 0 and seq.validate()


def test_y_sequence_single_step(T2):
    rho = rc_close(T2, [(ID2, CONST1)])
    seq = y_sequence(rho, SWAP, CONST2)
    assert len(seq) == 1
    c, d, t = seq.steps[0]
    assert (c, d) == (ID2, CONST1) and t == SWAP
    assert seq.validate()


def test_y_sequence_none_for_unrelated(T2):
    rho = rc_close(T2, [(ID2, CONST1)])
    assert y_sequence(rho, ID2, SWAP) is None


@pytest.mark.parametrize(
    "middle,valid",
    [((CONST1, ID2, SWAP), True), ((CONST1, ID2, ID2), False), ((CONST1, SWAP, SWAP), False)],
    ids=["valid", "wrong-c", "wrong-d"],
)
def test_y_sequence_validate_checks_the_middle_step(middle, valid):
    """SWAP -> CONST2 -> SWAP -> CONST2 over (1, CONST1); a wrong middle
    step breaks the chain at the next link."""
    step = (ID2, CONST1, SWAP)
    assert YSequence(SWAP, CONST2, (step, middle, step)).validate() is valid


def test_finite_monoid_needs_an_identity():
    with pytest.raises(ValueError, match="^a monoid needs at least an identity$"):
        FiniteMonoid([])


def test_membership_iff_validating_witness(PT2):
    rng = random.Random(23)
    for _ in range(5):
        pairs = [(rng.choice(PT2.elements), rng.choice(PT2.elements)) for _ in range(2)]
        rho = rc_close(PT2, pairs)
        for a, b in itertools.product(PT2.elements, repeat=2):
            seq = y_sequence(rho, a, b)
            if rho.related(a, b):
                assert seq is not None and seq.validate()
                assert seq.uses_only(rho.pairs)
            else:
                assert seq is None


def test_y_sequence_needs_trace(T2):
    with pytest.raises(ValueError):
        y_sequence(delta(T2), ID2, ID2)
    assert delta(T2).trace is None


def test_trace_records_justify_each_merge(T2):
    rho = rc_close(T2, [(ID2, CONST1)])
    assert rho.trace
    for merged, merged_with, (c, d), t in rho.trace:
        assert c * t == merged and d * t == merged_with


# --- annihilators and power orbits ---------------------------------------------


def test_annihilator_of_identity_is_rho(T2):
    rho = rc_close(T2, [(ID2, CONST1)])
    assert annihilator(T2, rho, ID2).eqrel == rho.eqrel


def test_annihilator_fibers(T2):
    r = annihilator(T2, delta(T2), CONST1)
    assert set(map(frozenset, r.classes_elements())) == {
        frozenset({ID2, CONST1}),
        frozenset({SWAP, CONST2}),
    }


def test_annihilator_under_universal(T2):
    universal = rc_close(T2, [(a, b) for a in T2.elements for b in T2.elements])
    assert universal.num_classes == 1
    assert annihilator(T2, universal, CONST1).num_classes == 1


@pytest.mark.parametrize("kind,n", [("T", 3), ("PT", 3), ("I", 3), ("P", 2)])
def test_annihilator_is_right_congruence(kind, n):
    S = cached_monoid(kind, n)
    rng = random.Random(f"ann{kind}{n}")
    closure = rc_close(S, [(rng.choice(S.elements), rng.choice(S.elements)) for _ in range(2)])
    universal = rc_close(S, [(S.elements[0], x) for x in S.elements])
    for rho in (delta(S), closure, universal):
        for a in S.elements:
            assert is_right_congruence(S, annihilator(S, rho, a).eqrel), (rho, a)


def _is_right_congruence_by_multipliers(S, labels):
    """The check as one image set per (class, multiplier), as
    is_right_congruence computed it before it compared labelled rows."""
    for cls in from_labels(labels):
        for s in range(len(S)):
            images = {labels[S.row(u)[s]] for u in cls}
            if len(images) > 1:
                return False
    return True


@pytest.mark.parametrize(
    "build",
    [
        lambda: cached_monoid("T", 3),
        lambda: cached_monoid("PT", 3),
        lambda: cached_monoid("I", 3),
        lambda: cached_monoid("P", 2),
        lambda: cached_monoid("T", 3).opposite(),
    ],
    ids=["T3", "PT3", "I3", "P2", "T3-opposite"],
)
def test_is_right_congruence_matches_multiplier_oracle(build):
    S = build()
    m = len(S)
    rng = random.Random(m)
    relations = [delta(S).eqrel, (0,) * m]
    for _ in range(4):
        pairs = [(rng.choice(S.elements), rng.choice(S.elements)) for _ in range(rng.randint(1, 2))]
        rho = rc_close(S, pairs)
        relations += [rho.eqrel, annihilator(S, rho, rng.choice(S.elements)).eqrel]
    for _ in range(20):
        links = [(rng.randrange(m), rng.randrange(m)) for _ in range(rng.randint(1, 3))]
        relations.append(component_labels(m, links))
    # The same relations under labels that are not class minima.
    names = list(range(m))
    rng.shuffle(names)
    relations += [[names[r] for r in labels] for labels in relations]
    verdicts = [is_right_congruence(S, r) for r in relations]
    assert verdicts == [_is_right_congruence_by_multipliers(S, r) for r in relations]
    assert verdicts[: len(verdicts) // 2] == verdicts[len(verdicts) // 2:]
    assert True in verdicts and False in verdicts


def test_annihilator_reads_one_row(products):
    S = FiniteMonoid(cached_monoid("T", 4).elements)
    products[0] = 0
    annihilator(S, delta(S), pm(1, 1, 3, 4))
    assert products[0] <= len(S)


def test_kappa_identity_is_equality(T2):
    assert kappa(T2, ID2).eqrel == delta(T2).eqrel


def test_kappa_constant(T2):
    k = kappa(T2, CONST1)
    assert set(map(frozenset, k.classes_elements())) == {
        frozenset({ID2, CONST1}),
        frozenset({SWAP, CONST2}),
    }


def _kappa_by_orbit_pairs(S, s):
    """kappa from its definition: join every pair whose power orbits meet."""
    powers, cur = [], 0
    while cur not in powers:
        powers.append(cur)
        cur = S.row(cur)[S.index_of(s)]
    orbits = [{S.row(p)[u] for p in powers} for u in range(len(S))]
    pairs = [
        (u, v) for u in range(len(S)) for v in range(u + 1, len(S)) if orbits[u] & orbits[v]
    ]
    return component_labels(len(S), pairs)


@pytest.mark.parametrize(
    "kind,n", [("T", 3), ("PT", 3), ("I", 3), ("P", 2), ("T", 4), ("I", 4), ("P", 3), ("PT", 4)]
)
def test_kappa_matches_orbit_pair_definition(kind, n):
    """Every s of the small carriers, and 25 seeded s of each carrier the
    closure benchmark works on."""
    S = cached_monoid(kind, n)
    elements = S.elements if len(S) < 100 else random.Random(f"{kind}{n}").sample(S.elements, 25)
    for s in elements:
        assert kappa(S, s).eqrel == _kappa_by_orbit_pairs(S, s), s


def test_kappa_reads_one_row(monkeypatch):
    """One call reads the row of s and no other: no power or column of s."""
    S = cached_monoid("PT", 3)
    real_row, read = FiniteMonoid.row, []

    def row(self, i):
        read.append(i)
        return real_row(self, i)

    monkeypatch.setattr(FiniteMonoid, "row", row)
    for s in S.elements:
        read.clear()
        kappa(S, s)
        assert read == [S.index_of(s)], s


def _kappa_by_orbit_owners(S, s):
    """kappa from orbit-owner links: each u is linked to the first owner of
    every member of its power orbit."""
    powers, cur = [], 0
    while cur not in powers:
        powers.append(cur)
        cur = S.row(cur)[S.index_of(s)]
    owner = {}
    links = [
        (u, owner.setdefault(w, u)) for u in range(len(S)) for w in {S.row(p)[u] for p in powers}
    ]
    return tuple(min_root_join(len(S), links))


@pytest.mark.parametrize("kind,n", [("T", 3), ("PT", 3), ("I", 3), ("P", 2)])
def test_kappa_matches_orbit_owner_links(kind, n):
    """Links from the one row of s give the classes the orbit owners give."""
    S = cached_monoid(kind, n)
    for s in S.elements:
        assert kappa(S, s).eqrel == _kappa_by_orbit_owners(S, s), s


def test_kappa_equals_closure_pt2(PT2):
    one = PT2.elements[0]
    for s in PT2.elements:
        assert kappa(PT2, s).eqrel == rc_close(PT2, [(one, s)]).eqrel


# --- one labelling across constructors ---------------------------------------------


def test_constructors_agree_on_one_relation(T2, P2):
    """Every constructor stores the class-minimum tuple, so congruences built
    on different paths that describe one relation compare and hash equal."""
    groups = [
        [delta(S), rc_close(S, []), annihilator(S, delta(S), S.elements[0]), kappa(S, S.elements[0])]
        for S in (T2, P2)
    ]
    groups.append(
        [rc_close(T2, [(ID2, CONST1)]), annihilator(T2, delta(T2), CONST1), kappa(T2, CONST1)]
    )
    for same in groups:
        for rho in same:
            assert type(rho.eqrel) is tuple
            assert rho == same[0] and hash(rho) == hash(same[0])
    assert groups[2][0] != groups[0][0]


@pytest.mark.parametrize("kind,n", [("T", 4), ("P", 3)])
def test_is_right_congruence_fills_every_row(kind, n):
    """The check reads every product row, so checking equality fills the
    whole product table."""
    S = FiniteMonoid.full(kind, n)
    assert is_right_congruence(S, delta(S).eqrel)
    assert None not in S._rows


# --- subact generators ----------------------------------------------------------


def test_subact_generators_principal(PT2):
    a = pm(1, None)
    ideal = [PT2.elements[i] for i in _members(PT2.right_ideal_idx(PT2.index_of(a)))]
    gens = subact_generators(PT2, ideal)
    assert len(gens) == 1
    assert PT2.right_ideal_idx(PT2.index_of(gens[0])) == PT2.right_ideal_idx(PT2.index_of(a))


def test_subact_generators_minimal_ideal(PT2):
    empty = PartialMap.empty(2)
    assert subact_generators(PT2, [empty]) == [empty]


def test_subact_generators_two_incomparable(PT2):
    a, b = pm(1, None), pm(None, 2)
    ideal = PT2.right_ideal_idx(PT2.index_of(a)) | PT2.right_ideal_idx(PT2.index_of(b))
    gens = subact_generators(PT2, [PT2.elements[i] for i in _members(ideal)])
    assert len(gens) == 2


def _subact_generators_by_frozensets(S, subset):
    """subact_generators as it was with frozenset ideals, where < is proper
    inclusion."""
    idxs = sorted({S.index_of(x) for x in subset})
    idx_set = set(idxs)
    ideals = {i: frozenset(S.row(i)) for i in idxs}
    if any(not ideals[i] <= idx_set for i in idxs):
        raise ValueError("subset is not closed under right multiplication")
    maximal = [i for i in idxs if not any(ideals[i] < ideals[j] for j in idxs)]
    reps = {}
    for i in maximal:
        reps.setdefault(ideals[i], i)
    chosen = sorted(reps.values())
    assert set().union(*(ideals[i] for i in chosen)) == idx_set
    return [S.elements[i] for i in chosen]


@pytest.mark.parametrize("name", ["PT2", "T3"])
def test_subact_generators_match_frozenset_oracle(name, request):
    S = request.getfixturevalue(name)
    m = len(S)
    numeric_order_misleads = False
    for i, j in itertools.product(range(m), repeat=2):
        if j < i:
            continue
        x, y = S.right_ideal_idx(i), S.right_ideal_idx(j)
        # Masks compare as numbers too, and that order is not inclusion.
        numeric_order_misleads |= (x < y) != (x & y == x and x != y)
        subset = [S.elements[k] for k in _members(x | y)]
        assert subact_generators(S, subset) == _subact_generators_by_frozensets(S, subset)
    assert numeric_order_misleads
    not_closed = [S.elements[0], S.elements[-1]]
    for fn in (subact_generators, _subact_generators_by_frozensets):
        with pytest.raises(ValueError):
            fn(S, not_closed)


def test_subact_generators_rejects_non_subact(PT2):
    with pytest.raises(ValueError):
        subact_generators(PT2, [PartialMap.identity(2), pm(1, None)])
