"""Finite monoids, right congruence closure with reconstructible witnesses,
annihilator congruences, and power-orbit congruences.

A full monoid's product rows come from its generators (the row half of
Froidure & Pin 1997): the generators' rows are computed by products, and
since (g*p)*j = g*(p*j), the row of any x = g*p is the row of p looked up in
the row of g.  A left factor tree, built once from the generators' rows,
gives every element such a factorization.  A row takes 1, 2 or 4 bytes an
entry (`bytes` up to 256 elements, then `array('H')` up to 65,536, then
`array('I')`), and the identity's row is `range(m)`.  Each read of uncached
rows makes one choice for all of them: products while they fit within as
many product rows as there are generators, else the tree, so no read pays
for the generators' rows twice.  Left-side questions are the right-side ones
of the opposite monoid, whose rows are the columns S*b.

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
import struct
from array import array
from collections import deque, namedtuple

from .elements import enumerate_elements, generators, identity_of, joining, min_root_join, min_root_labels


def _mask(indices):
    """The int whose bit x is set iff x is among the indices."""
    return sum(map((1).__lshift__, set(indices)))


class FiniteMonoid:
    """An enumerated monoid: canonical element list with the identity first.

    Product rows and principal right ideals are cached; row i lists the
    indices of elements[i] * x for every x, so the product of indices i and
    j is `row(i)[j]`, the only product lookup, and an ideal is an int bitmask
    over the indices.  A row is `bytes` on at most 256 elements, an
    `array('H')` on at most 65,536 and an `array('I')` past that: 1, 2 or 4
    bytes an entry.  Row 0 is the identity's, `range(m)`, never multiplied.
    A full monoid finds an element's index by its type and its value tuple
    (`images` or `blocks`, read in C), so no Python `__hash__` or `__eq__`
    runs; a monoid built from given elements keys them by themselves.

    Every read of uncached rows makes one choice for all of them (`rows`;
    `row` reads one).  Without generators each row is computed with `*` on
    the elements (overridable).  A full monoid records its standard
    generators.  A read whose uncached rows fit, with the product rows
    already made, within as many rows as it has generators computes them by
    products, so a closure or an annihilator that reads a row or two pays
    nothing more.  Any other read builds the left factor tree once, from the
    generators' rows computed by products, and composes every other row
    along it, in one C-level step each (`bytes.translate`, or one `struct`
    pack for arrays).  Left columns and left ideals are the rows and right
    ideals of `opposite()`.
    """

    def __init__(self, elements, mul=None, check=True, _type=object, _key=None):
        self.elements = list(elements)
        if not self.elements:
            raise ValueError("a monoid needs at least an identity")
        self._type, self._key, self._index = _type, _key, {}
        for i, k in enumerate(self.elements if _key is None else map(_key, self.elements)):
            if k in self._index:
                raise ValueError(f"duplicate element {self.elements[i]!r}")
            self._index[k] = i
        self._start(mul if mul is not None else operator.mul, None)
        if check:
            one = self.elements[0]
            for x in self.elements:
                if self._mul_fn(one, x) != x or self._mul_fn(x, one) != x:
                    raise ValueError("element at index 0 is not an identity")

    def _start(self, mul, generators):
        """Empty caches for a product on the elements; generator indices are
        set only where the generating set is known."""
        m = len(self.elements)
        self._mul_fn = mul
        self._generators = generators
        self._code = None if m <= 256 else "H" if m <= 65536 else "I"  # None: bytes
        self._rows = [None] * m
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
        key = operator.attrgetter("blocks" if kind == "P" else "images")
        S = cls([one] + elements, check=False, _type=type(one), _key=key)
        S._generators = [S._index[key(g)] for g in generators(kind, n)]
        return S

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return isinstance(x, self._type) and (x if self._key is None else self._key(x)) in self._index

    def index_of(self, x):
        try:
            if isinstance(x, self._type):
                return self._index[x if self._key is None else self._key(x)]
        except KeyError:
            pass
        raise ValueError(f"{x!r} is not an element of this monoid")

    def row(self, i):
        """Indices of a*x for every x, a = elements[i]; the cached row, not
        to be modified."""
        row = self._rows[i]
        if row is None:
            row, = self.rows((i,))
        return row

    def rows(self, indices):
        """The rows of the indices, in order, computed as they are yielded.
        One choice serves them all: products while the uncached ones fit
        within as many product rows as there are generators, otherwise
        composition along the left factor tree."""
        indices = list(indices)
        cached, gens = self._rows, self._generators
        fresh = len({i for i in indices if cached[i] is None} - {0})
        if gens is None or self._tree is None and self._product_rows + fresh <= len(gens):
            make = self._product_row
        else:
            make = self._composed_row
        for i in indices:
            row = cached[i]
            yield make(i) if row is None else row

    def _product_row(self, i):
        if i == 0:
            row = range(len(self.elements))
        else:
            products = map(self._mul_fn, itertools.repeat(self.elements[i]), self.elements)
            try:
                row = list(map(self._index.__getitem__, products if self._key is None else map(self._key, products)))
            except KeyError as exc:
                raise ValueError(f"not closed under product: {exc.args[0]!r}") from None
            self._product_rows += 1
        row = self._rows[i] = bytes(row) if self._code is None else array(self._code, row)
        return row

    def _left_factor_tree(self):
        """(gen, parent, tables, pack): for every element x but the identity
        a generator gen[x] and an element parent[x], nearer the identity in
        breadth-first order, with x = gen[x]*parent[x]; for each generator g
        its row as a lookup table, a 256-byte translation table where rows
        are bytes and a list otherwise; and, for arrays, the packer of a
        row's entries into its bytes."""
        if self._tree is None:
            m, code = len(self.elements), self._code
            gen_rows = [(g, self._rows[g] or self._product_row(g)) for g in self._generators]
            tables = {g: row.ljust(256, b"\0") if code is None else list(row) for g, row in gen_rows}
            parent = [-1] * m
            parent[0] = 0
            gen = [0] * m
            order = [0]
            for p in order:  # grows while it is walked
                for g, table in tables.items():
                    x = table[p]
                    if parent[x] < 0:
                        parent[x] = p
                        gen[x] = g
                        order.append(x)
            if len(order) < m:
                raise ValueError(f"the generators reach {len(order)} of {m} elements")
            if self._rows[0] is None:
                self._product_row(0)
            pack = None if code is None else struct.Struct(f"{m}{code}").pack
            self._tree = (gen, parent, tables, pack)
        return self._tree

    def _composed_row(self, i):
        """Row i from its nearest cached ancestor on the tree, each row on
        the way the row above looked up in its generator's table."""
        gen, parent, tables, pack = self._left_factor_tree()
        rows, code = self._rows, self._code
        path = []
        x = i
        while rows[x] is None:
            path.append(x)
            x = parent[x]
        above = rows[x]
        for x in reversed(path):
            table = tables[gen[x]]
            if code is None:
                rows[x] = above = above.translate(table)
            else:  # a tuple of the table's own ints, carried down the path
                above = operator.itemgetter(*above)(table)
                rows[x] = array(code, pack(*above))
        return rows[i]

    def right_ideal_idx(self, i):
        """a*S for a = elements[i], as a cached int whose bit x is set iff
        elements[x] is in the ideal."""
        ideal = self._right_ideals.get(i)
        if ideal is None:
            ideal = self._right_ideals[i] = _mask(self.row(i))
        return ideal

    def right_ideal(self, a):
        """`right_ideal_idx(index_of(a))`, in one frame once it is cached."""
        try:
            i = self._index[a if self._key is None else self._key(a)] if isinstance(a, self._type) else -1
            return self._right_ideals[i]
        except KeyError:  # not an element, or not cached yet
            return self.right_ideal_idx(self.index_of(a))

    def idempotent_idxs(self):
        """One product per element; no row is filled."""
        return [i for i, x in enumerate(self.elements) if self._mul_fn(x, x) == x]

    def on_side(self, side):
        """The monoid whose right side is the given side of this one: this
        monoid for 'R', its opposite for 'L'; any other side is refused."""
        if side not in ("R", "L"):
            raise ValueError(f"side must be 'R' or 'L', got {side!r}")
        return self if side == "R" else self.opposite()

    def opposite(self):
        """The same elements with reversed multiplication, built once: it
        shares the element list and index, keeps the generators, has caches
        of its own, and its opposite is this monoid."""
        if self._opposite is None:
            fn = self._mul_fn
            op = self._opposite = object.__new__(type(self))
            # Set in __init__'s order: a copied __dict__ slows every lookup.
            op.elements, op._type, op._key, op._index = self.elements, self._type, self._key, self._index
            op._start(lambda a, b: fn(b, a), self._generators)
            op._opposite = self
        return self._opposite

    def __repr__(self):
        return f"FiniteMonoid({len(self.elements)} elements)"


class YSequence(namedtuple("YSequence", "start end steps")):
    """A factorization chain start = c1*t1, d1*t1 = c2*t2, ..., dm*tm = end.

    Each step is a triple (c, d, t); an empty chain asserts start == end.
    Its length is the number of steps, not of fields.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        """The fields in order; namedtuple's own `_make`, which `_replace`
        calls, would check their count against `len`."""
        return cls(*iterable)

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
        """Whether each step's (c, d) is one of `pairs` in either orientation.
        A set or frozenset argument is copied without rehashing its pairs."""
        allowed = set(pairs)
        return all((c, d) in allowed or (d, c) in allowed for c, d, _ in self.steps)


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
    (c*t, d*t).  Only the product rows of the pairs' own elements are used,
    each read once before the sweep.
    """
    pair_idx = [(S.index_of(a), S.index_of(b)) for a, b in pairs]
    rows = S.rows(itertools.chain.from_iterable(pair_idx))
    pair_rows = list(zip(rows, rows))
    m = len(S)
    parent = list(range(m))
    instances = itertools.chain(
        ((c[0], d[0], p, 0) for p, (c, d) in enumerate(pair_rows)),
        ((c[t], d[t], p, t) for p, (c, d) in enumerate(pair_rows) for t in range(1, m)),
    )
    edges = joining(parent, instances)
    adjacency = {}
    for i, edge in enumerate(edges):
        for x in edge[:2]:
            adjacency.setdefault(x, []).append(i)
    labels = min_root_labels(parent)
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
    Every row is read, class by class, through one `rows` read; only
    classes of two or more members are compared."""
    label = list(labels).__getitem__
    classes = list(_classes(labels))
    rows = S.rows(itertools.chain.from_iterable(classes))
    for first, *rest in classes:
        row = next(rows)
        if rest:
            mapped = list(map(label, row))
            if any(list(map(label, next(rows))) != mapped for _ in rest):
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

    The classes link each u to s*u along the row of s, and that is the whole
    relation.  Write σ(u) = s*u: the power orbit of u is u, σ(u), σ²(u), …,
    and S is finite, so it runs into a cycle.  If σ^m(u) = σ^n(v) then
    σ^(m+j)(u) = σ^(n+j)(v) for every j, so orbits that meet end in the same
    cycle; orbits that end in one cycle meet on it.  So u ~ v means "same
    end cycle", an equivalence, and it is the one u ~ σ(u) generates: u is
    linked to its cycle along its orbit, and a cycle is linked round itself.
    """
    return RightCongruence(S, min_root_join(len(S), enumerate(S.row(S.index_of(s)))))


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
