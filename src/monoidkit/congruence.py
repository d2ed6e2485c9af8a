"""Finite monoids, right congruence closure with reconstructible witnesses,
annihilator congruences, and power-orbit congruences.

A full monoid's product rows come from its generators (the row half of
Froidure & Pin 1997): the generators' rows are computed by products, and
since (g*p)*j = g*(p*j), the row of any x = g*p is the row of p looked up in
the row of g.  A left factor tree, built once from the generators' rows,
gives every element such a factorization.  Left-side questions are the
right-side ones of the opposite monoid, whose rows are the columns S*b.

The least right congruence containing pairs R is the equivalence generated by
the instances (c*t, d*t) for (c, d) in R and t in S.  The instances are closed
under right multiplication, as (c*t)*s = c*(t*s), so their equivalence closure
is right compatible.  The closure therefore sweeps pairs times multipliers
directly and needs only the product rows of the pairs' own elements.  Every
union-find merge is justified by a single one-step instance, which is exactly
what a witnessing sequence needs.
"""

from __future__ import annotations

import itertools
import operator
from collections import deque
from dataclasses import dataclass

from .elements import enumerate_elements, find, generators, identity_of, min_root_join


def _mask(indices):
    """The int whose bit x is set iff x is among the indices."""
    mask = 0
    for x in set(indices):
        mask |= 1 << x
    return mask


class FiniteMonoid:
    """An enumerated monoid: canonical element list with the identity first.

    Product rows and principal right ideals are cached; row i lists the
    indices of elements[i] * x for every x, and an ideal is an int bitmask
    over the indices.  Without generators every row is computed with `*` on
    the elements (overridable).  A full monoid records its standard
    generators.  Its first rows, as many as it has generators, are computed
    by products, so a closure or an annihilator that reads a row or two pays
    nothing more.  Past those, the generators' rows are computed by products
    too, and every other row is composed from them along the left factor
    tree.  Left columns and left ideals are the rows and right ideals of
    `opposite()`.
    """

    def __init__(self, elements, mul=None, check=True):
        self.elements = list(elements)
        if not self.elements:
            raise ValueError("a monoid needs at least an identity")
        self._index = {}
        for i, x in enumerate(self.elements):
            if x in self._index:
                raise ValueError(f"duplicate element {x!r}")
            self._index[x] = i
        self._start(mul if mul is not None else operator.mul, None)
        if check:
            one = self.elements[0]
            for x in self.elements:
                if self._mul_fn(one, x) != x or self._mul_fn(x, one) != x:
                    raise ValueError("element at index 0 is not an identity")

    def _start(self, mul, generators):
        """Empty caches for a product on the elements; generator indices are
        set only where the generating set is known."""
        self._mul_fn = mul
        self._generators = generators
        self._rows = [None] * len(self.elements)
        self._product_rows = 0
        self._tree = None
        self._right_ideals = {}
        self._opposite = None

    @classmethod
    def full(cls, kind, n):
        """The whole monoid of a kind, identity moved to index 0."""
        elements = enumerate_elements(kind, n)
        one = identity_of(kind, n)
        elements.remove(one)
        S = cls([one] + elements, check=False)
        S._generators = [S._index[g] for g in generators(kind, n)]
        return S

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self._index

    def index_of(self, x):
        try:
            return self._index[x]
        except KeyError:
            raise ValueError(f"{x!r} is not an element of this monoid") from None

    def row(self, i):
        """Indices of a*x for every x, a = elements[i]; the cached list, not
        to be modified."""
        row = self._rows[i]
        if row is None:
            gens = self._generators
            if gens is None or self._tree is None and self._product_rows < len(gens):
                row = self._product_row(i)
            else:
                row = self._composed_row(i)
        return row

    def _product_row(self, i):
        a = self.elements[i]
        try:
            row = [self._index[self._mul_fn(a, b)] for b in self.elements]
        except KeyError as exc:
            raise ValueError(f"not closed under product: {exc.args[0]!r}") from None
        self._rows[i] = row
        self._product_rows += 1
        return row

    def _left_factor_tree(self):
        """(gen, parent): for every element x but the identity a generator
        gen[x] and an element parent[x], nearer the identity in breadth-first
        order, with x = gen[x]*parent[x]."""
        if self._tree is None:
            m = len(self.elements)
            gen_rows = [(g, self._rows[g] or self._product_row(g)) for g in self._generators]
            parent = [-1] * m
            parent[0] = 0
            gen = [0] * m
            order = [0]
            for p in order:  # grows while it is walked
                for g, row in gen_rows:
                    x = row[p]
                    if parent[x] < 0:
                        parent[x] = p
                        gen[x] = g
                        order.append(x)
            if len(order) < m:
                raise ValueError(f"the generators reach {len(order)} of {m} elements")
            if self._rows[0] is None:
                self._rows[0] = list(range(m))
            self._tree = (gen, parent)
        return self._tree

    def _composed_row(self, i):
        gen, parent = self._left_factor_tree()
        rows = self._rows
        path = []
        x = i
        while rows[x] is None:
            path.append(x)
            x = parent[x]
        for x in reversed(path):
            rows[x] = list(map(rows[gen[x]].__getitem__, rows[parent[x]]))
        return rows[i]

    def mul_idx(self, i, j):
        return self.row(i)[j]

    def mul(self, x, y):
        return self.elements[self.mul_idx(self.index_of(x), self.index_of(y))]

    def right_ideal_idx(self, i):
        """a*S for a = elements[i], as a cached int whose bit x is set iff
        elements[x] is in the ideal."""
        ideal = self._right_ideals.get(i)
        if ideal is None:
            ideal = self._right_ideals[i] = _mask(self.row(i))
        return ideal

    def idempotent_idxs(self):
        """One product per element; no row is filled."""
        return [i for i, x in enumerate(self.elements) if self._mul_fn(x, x) == x]

    def opposite(self):
        """The same elements with reversed multiplication, built once: it
        shares the element list and index, keeps the generators, has caches
        of its own, and its opposite is this monoid."""
        if self._opposite is None:
            fn = self._mul_fn
            op = self._opposite = object.__new__(type(self))
            # Set in __init__'s order: a copied __dict__ slows every lookup.
            op.elements, op._index = self.elements, self._index
            op._start(lambda a, b: fn(b, a), self._generators)
            op._opposite = self
        return self._opposite

    def __repr__(self):
        return f"FiniteMonoid({len(self.elements)} elements)"


@dataclass(frozen=True)
class YSequence:
    """A factorization chain start = c1*t1, d1*t1 = c2*t2, ..., dm*tm = end.

    Each step is a triple (c, d, t); an empty chain asserts start == end.
    """

    start: object
    end: object
    steps: tuple

    def __len__(self):
        return len(self.steps)

    def validate(self, mul=operator.mul) -> bool:
        current = self.start
        for c, d, t in self.steps:
            if mul(c, t) != current:
                return False
            current = mul(d, t)
        return current == self.end

    def uses_only(self, pairs) -> bool:
        allowed = set()
        for a, b in pairs:
            allowed.add((a, b))
            allowed.add((b, a))
        return all((c, d) in allowed for c, d, _ in self.steps)


def _classes(labels):
    """The classes of a labelling of 0..m-1, each ascending, in order of their
    least member."""
    groups = {}
    for x, r in enumerate(labels):
        groups.setdefault(r, []).append(x)
    return groups.values()


class RightCongruence:
    """An equivalence on a finite monoid's element indices, right compatible.

    `eqrel` is a tuple whose entry x is the least index related to x, so two
    congruences on one monoid are equal iff their tuples are.  Congruences
    produced by `rc_close` carry a merge trace from which witnessing
    sequences are rebuilt; definitional congruences (annihilators, power
    orbits) carry none.
    """

    def __init__(self, base, eqrel, pairs=None, edges=None, adjacency=None):
        self.base = base
        self.eqrel = tuple(eqrel)
        self.pairs = pairs
        self._edges = edges
        self._adjacency = adjacency

    def related(self, a, b) -> bool:
        return self.eqrel[self.base.index_of(a)] == self.eqrel[self.base.index_of(b)]

    def classes_elements(self):
        els = self.base.elements
        return tuple(tuple(els[i] for i in cls) for cls in _classes(self.eqrel))

    @property
    def trace(self):
        """Merge records as (merged, merged-with, generating pair, multiplier)
        element tuples, or None for definitional congruences."""
        if self._edges is None:
            return None
        els = self.base.elements
        return tuple(
            (els[u], els[v], self.pairs[p], els[t]) for u, v, p, t in self._edges
        )

    @property
    def num_classes(self):
        return len(set(self.eqrel))

    def __eq__(self, other):
        return (
            isinstance(other, RightCongruence)
            and self.base is other.base
            and self.eqrel == other.eqrel
        )

    def __hash__(self):
        return hash(self.eqrel)

    def __repr__(self):
        return f"RightCongruence({self.num_classes} classes on {len(self.base)} elements)"


def rc_close(S: FiniteMonoid, pairs) -> RightCongruence:
    """Least right congruence on S containing the given element pairs.

    Every pair is merged at the identity multiplier first, then each pair in
    turn at every other multiplier; each merge is recorded as one instance
    (c*t, d*t).  Only the product rows of the pairs' own elements are used.
    """
    pair_idx = [(S.index_of(a), S.index_of(b)) for a, b in pairs]
    m = len(S)
    parent = list(range(m))
    edges = []
    adjacency = {}
    sweep = itertools.chain(
        ((p, 0) for p in range(len(pair_idx))),
        ((p, t) for p in range(len(pair_idx)) for t in range(1, m)),
    )
    for p, t in sweep:
        c, d = pair_idx[p]
        u = S.mul_idx(c, t)
        v = S.mul_idx(d, t)
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
            edge_id = len(edges)
            edges.append((u, v, p, t))
            adjacency.setdefault(u, []).append(edge_id)
            adjacency.setdefault(v, []).append(edge_id)
    labels = [find(parent, x) for x in range(m)]
    gen_pairs = tuple((S.elements[a], S.elements[b]) for a, b in pair_idx)
    return RightCongruence(S, labels, gen_pairs, edges, adjacency)


def y_sequence(rho: RightCongruence, a, b):
    """A validated witness that (a, b) lies in rho, or None if it does not.

    Only available on congruences built by `rc_close` (they carry the trace).
    """
    if rho._edges is None:
        raise ValueError("this congruence carries no merge trace")
    S = rho.base
    ia, ib = S.index_of(a), S.index_of(b)
    if rho.eqrel[ia] != rho.eqrel[ib]:
        return None
    # The recorded merges form a forest spanning each class; BFS finds the
    # unique path between the two indices, orienting each step as its edge
    # is first met: (c, d) from the edge's first end, (d, c) from its second.
    prev = {ia: None}
    queue = deque([ia])
    while ib not in prev:
        assert queue, "trace forest does not span the class"
        x = queue.popleft()
        for edge_id in rho._adjacency.get(x, ()):
            u, v, p, t = rho._edges[edge_id]
            c, d = rho.pairs[p]
            other, step = (v, (c, d, t)) if x == u else (u, (d, c, t))
            if other not in prev:
                prev[other] = (x, step)
                queue.append(other)
    steps = []
    x = ib
    while prev[x] is not None:
        x, (c, d, t) = prev[x]
        steps.append((c, d, S.elements[t]))
    return YSequence(a, b, tuple(reversed(steps)))


def is_right_congruence(S: FiniteMonoid, labels) -> bool:
    """Full compatibility check on a labelling of the element indices: every
    related pair stays related under every right multiplier, so the members
    of a class have equal rows once each product is replaced by its label.
    Every row is read; only classes of two or more members are compared."""
    label = list(labels).__getitem__
    for first, *rest in _classes(labels):
        row = S.row(first)
        if rest:
            mapped = list(map(label, row))
            if any(list(map(label, S.row(u))) != mapped for u in rest):
                return False
    return True


def annihilator(S: FiniteMonoid, rho: RightCongruence, a) -> RightCongruence:
    """The right congruence {(u, v) : a*u related to a*v under rho}.

    It is right compatible by construction: a*u rho a*v gives
    a*u*s rho a*v*s, so only the row of a is read.
    """
    label = rho.eqrel
    first = {}
    return RightCongruence(
        S, [first.setdefault(label[au], u) for u, au in enumerate(S.row(S.index_of(a)))]
    )


def kappa(S: FiniteMonoid, s) -> RightCongruence:
    """Elements u, v are related iff some powers of s satisfy s^m u == s^n v.

    It generates the same equivalence as u ~ s*u, so the classes link each u
    to s*u along the row of s.  The power orbits {s^k u} then check that the
    classes are transitively exact: the result is the definitional pair set,
    not merely its closure.
    """
    i_s = S.index_of(s)
    powers = []
    seen = set()
    cur = 0
    while cur not in seen:
        seen.add(cur)
        powers.append(cur)
        cur = S.mul_idx(cur, i_s)
    orbits = [frozenset(S.mul_idx(p, u) for p in powers) for u in range(len(S))]
    labels = min_root_join(len(S), enumerate(S.row(i_s)))
    for cls in _classes(labels):
        for u in cls:
            for v in cls:
                assert orbits[u] & orbits[v], "power-orbit relation not transitive"
    return RightCongruence(S, labels)


def subact_generators(S: FiniteMonoid, subset):
    """A minimal generating set for a right subact: one representative from
    each maximal divisibility class.  Ideals are bitmasks, so x is properly
    inside y iff x & y == x and x != y."""
    idxs = sorted({S.index_of(x) for x in subset})
    subset_mask = _mask(idxs)
    ideals = {i: S.right_ideal_idx(i) for i in idxs}
    if any(ideal & ~subset_mask for ideal in ideals.values()):
        raise ValueError("subset is not closed under right multiplication")
    maximal = [
        i for i, x in ideals.items()
        if not any(x & y == x and x != y for y in ideals.values())
    ]
    reps = {}
    for i in maximal:
        reps.setdefault(ideals[i], i)
    chosen = sorted(reps.values())
    covered = 0
    for i in chosen:
        covered |= ideals[i]
    assert covered == subset_mask, "representatives fail to regenerate the subact"
    return [S.elements[i] for i in chosen]
