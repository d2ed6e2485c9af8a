"""Finite monoids, right congruence closure with reconstructible witnesses,
annihilator congruences, and power-orbit congruences.

The closure engine is a worklist over (generating pair, multiplier) items:
each item contributes the relation instance (c*t, d*t) and spawns children
(pair, t*s) for every monoid element s.  The multipliers therefore sweep the
whole monoid, and every union-find merge is justified by a single one-step
instance, which is exactly what a witnessing sequence needs.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass

from .elements import EqRel, enumerate_elements, find, identity_of, DEFAULT_ENUM_CAP


class FiniteMonoid:
    """An enumerated monoid: canonical element list with the identity first.

    Products are computed with `*` on the elements (overridable) and cached
    row by row, so repeated ideal and congruence computations stay cheap.
    """

    def __init__(self, elements, mul=None, check=True):
        self.elements = list(elements)
        if not self.elements:
            raise ValueError("a monoid needs at least an identity")
        self._mul_fn = mul if mul is not None else operator.mul
        self._index = {}
        for i, x in enumerate(self.elements):
            if x in self._index:
                raise ValueError(f"duplicate element {x!r}")
            self._index[x] = i
        self._rows = [None] * len(self.elements)
        self._right_ideals = {}
        self._left_ideals = {}
        if check:
            one = self.elements[0]
            for x in self.elements:
                if self._mul_fn(one, x) != x or self._mul_fn(x, one) != x:
                    raise ValueError("element at index 0 is not an identity")

    @classmethod
    def full(cls, kind, n, cap=DEFAULT_ENUM_CAP):
        """The whole monoid of a kind, identity moved to index 0."""
        elements = enumerate_elements(kind, n, cap=cap)
        one = identity_of(kind, n)
        elements.remove(one)
        return cls([one] + elements, check=False)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self._index

    def index_of(self, x):
        try:
            return self._index[x]
        except KeyError:
            raise ValueError(f"{x!r} is not an element of this monoid") from None

    def _row(self, i):
        row = self._rows[i]
        if row is None:
            a = self.elements[i]
            try:
                row = [self._index[self._mul_fn(a, b)] for b in self.elements]
            except KeyError as exc:
                raise ValueError(f"not closed under product: {exc.args[0]!r}") from None
            self._rows[i] = row
        return row

    def mul_idx(self, i, j):
        return self._row(i)[j]

    def mul(self, x, y):
        return self.elements[self.mul_idx(self.index_of(x), self.index_of(y))]

    def right_ideal_idx(self, i):
        """Indices of a*S for a = elements[i]."""
        ideal = self._right_ideals.get(i)
        if ideal is None:
            ideal = frozenset(self._row(i))
            self._right_ideals[i] = ideal
        return ideal

    def left_ideal_idx(self, j):
        """Indices of S*a for a = elements[j]."""
        ideal = self._left_ideals.get(j)
        if ideal is None:
            ideal = frozenset(self.mul_idx(i, j) for i in range(len(self)))
            self._left_ideals[j] = ideal
        return ideal

    def idempotent_idxs(self):
        return [i for i in range(len(self)) if self.mul_idx(i, i) == i]

    def opposite(self):
        """The same elements with reversed multiplication."""
        fn = self._mul_fn
        return FiniteMonoid(self.elements, mul=lambda a, b: fn(b, a), check=False)

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


class RightCongruence:
    """An equivalence on a finite monoid's element indices, right compatible.

    Congruences produced by `rc_close` carry a merge trace from which
    witnessing sequences are rebuilt; definitional congruences (annihilators,
    power orbits) carry none.
    """

    def __init__(self, base, eqrel, pairs=None, edges=None, adjacency=None):
        self.base = base
        self.eqrel = eqrel
        self.pairs = pairs
        self._edges = edges
        self._adjacency = adjacency

    def related(self, a, b) -> bool:
        return self.eqrel.related(self.base.index_of(a), self.base.index_of(b))

    def classes_elements(self):
        els = self.base.elements
        return tuple(tuple(els[i] for i in cls) for cls in self.eqrel.classes)

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
        return len(self.eqrel.classes)

    def subset_of(self, other) -> bool:
        if self.base is not other.base:
            raise ValueError("congruences live on different monoids")
        return self.eqrel.subset_of(other.eqrel)

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
    """Least right congruence on S containing the given element pairs."""
    pair_idx = [(S.index_of(a), S.index_of(b)) for a, b in pairs]
    m = len(S)
    parent = list(range(m))
    edges = []
    adjacency = {}
    seen = set()
    queue = deque()
    for p in range(len(pair_idx)):
        seen.add((p, 0))
        queue.append((p, 0))
    while queue:
        p, t = queue.popleft()
        c, d = pair_idx[p]
        u = S.mul_idx(c, t)
        v = S.mul_idx(d, t)
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            parent[ru] = rv
            edge_id = len(edges)
            edges.append((u, v, p, t))
            adjacency.setdefault(u, []).append(edge_id)
            adjacency.setdefault(v, []).append(edge_id)
        for ts in S._row(t):
            child = (p, ts)
            if child not in seen:
                seen.add(child)
                queue.append(child)
    groups = {}
    for x in range(m):
        groups.setdefault(find(parent, x), []).append(x)
    eqrel = EqRel(groups.values())
    gen_pairs = tuple((S.elements[a], S.elements[b]) for a, b in pair_idx)
    return RightCongruence(S, eqrel, gen_pairs, edges, adjacency)


def y_sequence(rho: RightCongruence, a, b):
    """A validated witness that (a, b) lies in rho, or None if it does not.

    Only available on congruences built by `rc_close` (they carry the trace).
    """
    if rho._edges is None:
        raise ValueError("this congruence carries no merge trace")
    S = rho.base
    ia, ib = S.index_of(a), S.index_of(b)
    if not rho.eqrel.related(ia, ib):
        return None
    if ia == ib:
        return YSequence(a, b, ())
    # The recorded merges form a forest spanning each class; BFS finds the
    # unique path between the two indices.
    prev = {ia: None}
    queue = deque([ia])
    while queue:
        x = queue.popleft()
        if x == ib:
            break
        for edge_id in rho._adjacency.get(x, ()):
            u, v, _, _ = rho._edges[edge_id]
            other = v if x == u else u
            if other not in prev:
                prev[other] = (x, edge_id)
                queue.append(other)
    assert ib in prev, "trace forest does not span the class"
    path = []
    x = ib
    while prev[x] is not None:
        x_from, edge_id = prev[x]
        path.append((x_from, x, edge_id))
        x = x_from
    path.reverse()
    steps = []
    for x_from, x_to, edge_id in path:
        u, v, p, t = rho._edges[edge_id]
        c, d = rho.pairs[p]
        if x_from == u:
            steps.append((c, d, S.elements[t]))
        else:
            steps.append((d, c, S.elements[t]))
    return YSequence(a, b, tuple(steps))


def is_right_congruence(S: FiniteMonoid, eqrel: EqRel) -> bool:
    """Full compatibility check: every related pair stays related under every
    right multiplier."""
    for cls in eqrel.classes:
        for s in range(len(S)):
            images = {eqrel.class_of(S.mul_idx(u, s)) for u in cls}
            if len(images) > 1:
                return False
    return True


def annihilator(S: FiniteMonoid, rho: RightCongruence, a, check=True) -> RightCongruence:
    """The right congruence {(u, v) : a*u related to a*v under rho}."""
    ia = S.index_of(a)
    groups = {}
    for u in range(len(S)):
        key = rho.eqrel.class_of(S.mul_idx(ia, u))
        groups.setdefault(key, []).append(u)
    eqrel = EqRel(groups.values())
    if check:
        assert is_right_congruence(S, eqrel)
    return RightCongruence(S, eqrel)


def kappa(S: FiniteMonoid, s) -> RightCongruence:
    """Elements u, v are related iff some powers of s satisfy s^m u == s^n v.

    Computed directly from the finitely many distinct powers of s; the result
    is checked to be transitively exact, so it equals the definitional pair
    set, not merely its closure.
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
    # Orbits that share a member are linked through that member's first owner.
    owner = {}
    links = [(u, owner.setdefault(w, u)) for u in range(len(S)) for w in orbits[u]]
    eqrel = EqRel.from_pairs(range(len(S)), links)
    for cls in eqrel.classes:
        for u in cls:
            for v in cls:
                assert orbits[u] & orbits[v], "power-orbit relation not transitive"
    return RightCongruence(S, eqrel)


def subact_generators(S: FiniteMonoid, subset):
    """A minimal generating set for a right subact: one representative from
    each maximal divisibility class."""
    idxs = sorted({S.index_of(x) for x in subset})
    idx_set = set(idxs)
    for i in idxs:
        if not S.right_ideal_idx(i) <= idx_set:
            raise ValueError("subset is not closed under right multiplication")
    ideals = {i: S.right_ideal_idx(i) for i in idxs}
    maximal = [
        i for i in idxs
        if not any(ideals[i] < ideals[j] for j in idxs)
    ]
    reps = {}
    for i in maximal:
        reps.setdefault(ideals[i], i)
    chosen = sorted(reps.values())
    covered = set()
    for i in chosen:
        covered |= ideals[i]
    assert covered == idx_set, "representatives fail to regenerate the subact"
    return [S.elements[i] for i in chosen]
