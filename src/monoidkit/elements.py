"""Exact arithmetic on finite ground sets: partial maps, diagram partitions,
equivalence relations, enumeration, and the standard embeddings between kinds.

Points are 1-based.  A partition diagram on {1..n} has a second, primed row
{1'..n'}; internally the primed point x' is stored as n+x so that union-find
structures can use dense integer indexing throughout.
"""

from __future__ import annotations

import itertools
from math import comb, factorial

KINDS = ("T", "PT", "I", "P")

DEFAULT_ENUM_CAP = 1_000_000


def find(parent, x):
    """Root of x in a union-find forest stored as a parent list or dict,
    halving the path on the way up."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


class EqRel:
    """An equivalence relation on a finite carrier, stored as sorted classes.

    Every carrier point appears in exactly one class (singletons are explicit),
    so two relations are equal iff their canonical class tuples are equal.
    """

    __slots__ = ("classes", "_class_index")

    def __init__(self, classes):
        canon = []
        for cls in classes:
            pts = tuple(sorted(cls))
            if not pts:
                raise ValueError("empty class in equivalence relation")
            if len(set(pts)) != len(pts):
                raise ValueError("repeated point inside a class")
            canon.append(pts)
        canon.sort()
        index = {}
        for i, cls in enumerate(canon):
            for x in cls:
                if x in index:
                    raise ValueError(f"point {x} appears in two classes")
                index[x] = i
        self.classes = tuple(canon)
        self._class_index = index

    @classmethod
    def discrete(cls, carrier):
        return cls([(x,) for x in carrier])

    @classmethod
    def from_pairs(cls, carrier, pairs):
        """Smallest equivalence on `carrier` containing all given pairs."""
        carrier = sorted(set(carrier))
        parent = {x: x for x in carrier}
        for a, b in pairs:
            if a not in parent or b not in parent:
                raise ValueError(f"pair ({a},{b}) not inside carrier")
            ra, rb = find(parent, a), find(parent, b)
            if ra != rb:
                parent[ra] = rb
        groups = {}
        for x in carrier:
            groups.setdefault(find(parent, x), []).append(x)
        return cls(groups.values())

    @property
    def carrier(self):
        return frozenset(self._class_index)

    def class_of(self, x):
        return self.classes[self._class_index[x]]

    def related(self, x, y):
        return self._class_index[x] == self._class_index[y]

    def pairs(self):
        """All ordered related pairs, diagonal included."""
        out = set()
        for cls in self.classes:
            for x in cls:
                for y in cls:
                    out.add((x, y))
        return out

    def subset_of(self, other):
        """Relation containment: every pair related here is related in `other`."""
        if not self.carrier <= other.carrier:
            return False
        for cls in self.classes:
            it = iter(cls)
            first = other._class_index[next(it)]
            if any(other._class_index[x] != first for x in it):
                return False
        return True

    def join(self, other):
        """Smallest equivalence on the union of carriers containing both."""
        carrier = self.carrier | other.carrier
        pairs = []
        for rel in (self, other):
            for cls in rel.classes:
                pairs.extend(zip(cls, cls[1:]))
        return EqRel.from_pairs(carrier, pairs)

    def restrict(self, subset):
        subset = set(subset)
        kept = [tuple(x for x in cls if x in subset) for cls in self.classes]
        return EqRel([c for c in kept if c])

    def __eq__(self, other):
        return isinstance(other, EqRel) and self.classes == other.classes

    def __hash__(self):
        return hash(self.classes)

    def __repr__(self):
        return "EqRel(%s)" % (", ".join("{%s}" % " ".join(map(str, c)) for c in self.classes) or "empty")


class PartialMap:
    """A partial self-map of {1..n}: images[i] is the image of i+1, or None.

    Total maps and injective partial maps are the `T` and `I` refinements of
    the general `PT` kind; see `is_kind`.
    """

    __slots__ = ("n", "images")

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        for v in images:
            if v is None:
                continue
            if not isinstance(v, int) or not 1 <= v <= n:
                raise ValueError(f"image {v!r} outside 1..{n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "images", images)

    @classmethod
    def _from_internal(cls, images):
        """Wrap an images tuple without checking it.

        The caller guarantees that `images` is a tuple whose entries are each
        None or an int in 1..len(images); outside input goes through the
        validating constructor instead.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "n", len(images))
        object.__setattr__(self, "images", images)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("PartialMap is immutable")

    @classmethod
    def identity(cls, n):
        return cls(range(1, n + 1))

    @classmethod
    def empty(cls, n):
        return cls([None] * n)

    def __call__(self, x):
        if not 1 <= x <= self.n:
            raise ValueError(f"point {x} outside 1..{self.n}")
        return self.images[x - 1]

    def __mul__(self, other):
        """Left-to-right composition: x(ab) = (xa)b."""
        if not isinstance(other, PartialMap):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        # Every image is None or taken from other.images, which has the same
        # size, so the product needs no re-validation.
        theirs = other.images
        return PartialMap._from_internal(
            tuple([None if v is None else theirs[v - 1] for v in self.images])
        )

    def dom(self):
        return frozenset(x for x in range(1, self.n + 1) if self.images[x - 1] is not None)

    def im(self):
        return frozenset(v for v in self.images if v is not None)

    def ker(self):
        """Fibers over the domain, as an equivalence relation on dom."""
        fibers = {}
        for x in range(1, self.n + 1):
            v = self.images[x - 1]
            if v is not None:
                fibers.setdefault(v, []).append(x)
        return EqRel(fibers.values())

    def kerhat(self):
        """ker together with all undefined points merged into one class."""
        classes = list(self.ker().classes)
        undef = [x for x in range(1, self.n + 1) if self.images[x - 1] is None]
        if undef:
            classes.append(tuple(undef))
        return EqRel(classes)

    @property
    def is_total(self):
        return None not in self.images

    @property
    def is_injective(self):
        defined = [v for v in self.images if v is not None]
        return len(defined) == len(set(defined))

    def inverse(self):
        if not self.is_injective:
            raise ValueError("only injective partial maps have an inverse")
        inv = [None] * self.n
        for x, v in enumerate(self.images, start=1):
            if v is not None:
                inv[v - 1] = x
        return PartialMap(inv)

    def __eq__(self, other):
        return isinstance(other, PartialMap) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __str__(self):
        return "[%s]" % ",".join("_" if v is None else str(v) for v in self.images)

    def __repr__(self):
        return f"PartialMap({self})"


class Partition:
    """A set partition of the 2n diagram points {1..n} ∪ {1'..n'}.

    Constructor blocks use signed labels: +x is the upper point x, -x is the
    lower point x'.  Blocks are stored canonically (internal labels sorted,
    blocks sorted by minimum), so equality and hashing are structural.
    """

    __slots__ = ("n", "blocks")

    def __init__(self, n, signed_blocks):
        internal = []
        for block in signed_blocks:
            pts = []
            for p in block:
                if not isinstance(p, int) or p == 0 or abs(p) > n:
                    raise ValueError(f"point {p!r} outside ±1..±{n}")
                pts.append(p if p > 0 else n - p)
            internal.append(pts)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", self._canonical(n, internal))

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @staticmethod
    def _canonical(n, internal_blocks):
        seen = set()
        canon = []
        for block in internal_blocks:
            pts = tuple(sorted(block))
            if not pts:
                raise ValueError("empty block")
            for p in pts:
                if p in seen:
                    raise ValueError(f"point {_point_text(p, n)} appears twice")
                seen.add(p)
            canon.append(pts)
        if len(seen) != 2 * n:
            missing = sorted(set(range(1, 2 * n + 1)) - seen)
            raise ValueError(f"missing point {_point_text(missing[0], n)}")
        return tuple(sorted(canon))

    @classmethod
    def _from_internal(cls, n, internal_blocks):
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", cls._canonical(n, internal_blocks))
        return self

    @classmethod
    def identity(cls, n):
        return cls._from_internal(n, [(x, n + x) for x in range(1, n + 1)])

    def __mul__(self, other):
        """Stack the diagrams and contract the middle row.

        Works on three rows of n nodes: this diagram spans rows 0-1, the other
        spans rows 1-2; blocks of the product are the connected components of
        the union, restricted to rows 0 and 2.

        The groups are filled in point order, upper row first, so each block
        is ascending and the blocks come in order of their minimum, and every
        point lands in exactly one block: they are already canonical, and the
        product is built without `_canonical`'s re-validation.
        """
        if not isinstance(other, Partition):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        n = self.n
        parent = list(range(3 * n))
        # Point p of this diagram is node p-1; point p of the other is p-1+n.
        for offset, blocks in ((-1, self.blocks), (n - 1, other.blocks)):
            for block in blocks:
                first = find(parent, block[0] + offset)
                for p in block[1:]:
                    root = find(parent, p + offset)
                    if root != first:
                        parent[root] = first
        groups = {}
        for x in range(1, n + 1):
            groups.setdefault(find(parent, x - 1), []).append(x)
        for x in range(1, n + 1):
            groups.setdefault(find(parent, 2 * n + x - 1), []).append(n + x)
        product = object.__new__(Partition)
        object.__setattr__(product, "n", n)
        object.__setattr__(product, "blocks", tuple([tuple(g) for g in groups.values()]))
        return product

    def star(self):
        """Swap the two rows; an involutive anti-isomorphism.

        Swapping the rows of a valid partition leaves it valid, so only the
        order is restored, with no `_canonical` pass: in an ascending block
        the lower points, moved up, come before the upper points, moved down,
        and the blocks are sorted again by their minimum.
        """
        n = self.n
        blocks = sorted(
            tuple([p - n for p in block if p > n] + [p + n for p in block if p <= n])
            for block in self.blocks
        )
        result = object.__new__(Partition)
        object.__setattr__(result, "n", n)
        object.__setattr__(result, "blocks", tuple(blocks))
        return result

    def _split(self, block):
        upper = tuple(p for p in block if p <= self.n)
        lower = tuple(p - self.n for p in block if p > self.n)
        return upper, lower

    def dom(self):
        out = set()
        for block in self.blocks:
            upper, lower = self._split(block)
            if upper and lower:
                out.update(upper)
        return frozenset(out)

    def codom(self):
        out = set()
        for block in self.blocks:
            upper, lower = self._split(block)
            if upper and lower:
                out.update(lower)
        return frozenset(out)

    def ker(self):
        """The induced partition of the upper row."""
        classes = []
        for block in self.blocks:
            upper, _ = self._split(block)
            if upper:
                classes.append(upper)
        return EqRel(classes)

    def coker(self):
        """The induced partition of the lower row, in unprimed labels."""
        classes = []
        for block in self.blocks:
            _, lower = self._split(block)
            if lower:
                classes.append(lower)
        return EqRel(classes)

    def upper_blocks(self):
        """Blocks lying entirely in the upper row."""
        out = set()
        for block in self.blocks:
            upper, lower = self._split(block)
            if upper and not lower:
                out.add(frozenset(upper))
        return frozenset(out)

    def lower_blocks(self):
        """Blocks lying entirely in the lower row, in unprimed labels."""
        out = set()
        for block in self.blocks:
            upper, lower = self._split(block)
            if lower and not upper:
                out.add(frozenset(lower))
        return frozenset(out)

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __str__(self):
        return "".join(
            "{%s}" % " ".join(_point_text(p, self.n) for p in block)
            for block in self.blocks
        )

    def __repr__(self):
        return f"Partition({self.n}, '{self}')"


def _point_text(p, n):
    return str(p) if p <= n else f"{p - n}'"


def is_kind(x, kind) -> bool:
    if kind == "T":
        return isinstance(x, PartialMap) and x.is_total
    if kind == "PT":
        return isinstance(x, PartialMap)
    if kind == "I":
        return isinstance(x, PartialMap) and x.is_injective
    if kind == "P":
        return isinstance(x, Partition)
    raise ValueError(f"unknown kind {kind!r}")


def require_kind(x, kind):
    if not is_kind(x, kind):
        raise ValueError(f"{x!r} is not of kind {kind}")


def identity_of(kind, n):
    return Partition.identity(n) if kind == "P" else PartialMap.identity(n)


def bell_number(m) -> int:
    row = [1]
    for _ in range(m):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def element_count(kind, n) -> int:
    if kind == "T":
        return n ** n
    if kind == "PT":
        return (n + 1) ** n
    if kind == "I":
        return sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))
    if kind == "P":
        return bell_number(2 * n)
    raise ValueError(f"unknown kind {kind!r}")


def _set_partitions(points):
    """All set partitions of a list of points, as lists of lists."""
    points = list(points)
    if not points:
        yield []
        return

    def rec(i, blocks):
        if i == len(points):
            yield [list(b) for b in blocks]
            return
        p = points[i]
        for block in blocks:
            block.append(p)
            yield from rec(i + 1, blocks)
            block.pop()
        blocks.append([p])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def enumerate_elements(kind, n, cap=DEFAULT_ENUM_CAP):
    """Complete, duplicate-free, deterministic enumeration of a kind.

    Refuses to run when the predicted count exceeds `cap`.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    count = element_count(kind, n)
    if cap is not None and count > cap:
        raise ValueError(f"enumerating {kind}_{n} would produce {count} elements (cap {cap})")
    if kind == "T":
        return [PartialMap(img) for img in itertools.product(range(1, n + 1), repeat=n)]
    if kind == "PT":
        vals = [None] + list(range(1, n + 1))
        return [PartialMap(img) for img in itertools.product(vals, repeat=n)]
    if kind == "I":
        out = []
        points = list(range(1, n + 1))
        for k in range(n + 1):
            for dom in itertools.combinations(points, k):
                for image in itertools.permutations(points, k):
                    img = [None] * n
                    for x, v in zip(dom, image):
                        img[x - 1] = v
                    out.append(PartialMap(img))
        return out
    if kind == "P":
        return [
            Partition._from_internal(n, blocks)
            for blocks in _set_partitions(range(1, 2 * n + 1))
        ]
    raise ValueError(f"unknown kind {kind!r}")


def generators(kind, n):
    """The standard generating set of the full monoid of a kind.

    The symmetric group comes from a transposition and an n-cycle; T and PT
    add the rank n-1 idempotent [1,1,3..n], I and PT the rank n-1 partial
    identity [_,2..n], and P the projection {1}{1'} and the join {1 2 1' 2'}
    (each fixing the other points).  Members that would be the identity or a
    repeat are left out, so the set is smaller for n < 3 and empty for n = 0.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    rest = list(range(3, n + 1))
    images = []
    if n >= 2:
        images.append([2, 1] + rest)
    if n >= 3:
        images.append(list(range(2, n + 1)) + [1])
    if kind == "P":
        gens = [
            Partition._from_internal(n, [(x, n + v) for x, v in enumerate(perm, start=1)])
            for perm in images
        ]
        if n >= 1:
            gens.append(Partition._from_internal(
                n, [(1,), (n + 1,)] + [(x, n + x) for x in range(2, n + 1)]))
        if n >= 2:
            gens.append(Partition._from_internal(
                n, [(1, 2, n + 1, n + 2)] + [(x, n + x) for x in rest]))
        return gens
    if kind in ("T", "PT") and n >= 2:
        images.append([1, 1] + rest)
    if kind in ("I", "PT") and n >= 1:
        images.append([None] + list(range(2, n + 1)))
    return [PartialMap(img) for img in images]


EMBEDDINGS = ("I->PT", "I->P", "PT->T")


def embed(pair, a):
    """Apply one of the standard kind embeddings to a single element.

    I->PT is the inclusion; I->P turns a partial bijection into a partition
    with trivial kernel and cokernel; PT->T totalises on n+1 points, sending
    every undefined point (and the sink itself) to the sink n+1.
    """
    if pair == "I->PT":
        require_kind(a, "I")
        return a
    if pair == "I->P":
        require_kind(a, "I")
        n = a.n
        blocks = []
        used_lower = set()
        for x in range(1, n + 1):
            v = a.images[x - 1]
            if v is None:
                blocks.append((x,))
            else:
                blocks.append((x, n + v))
                used_lower.add(v)
        blocks.extend((n + y,) for y in range(1, n + 1) if y not in used_lower)
        return Partition._from_internal(n, blocks)
    if pair == "PT->T":
        require_kind(a, "PT")
        sink = a.n + 1
        return PartialMap([v if v is not None else sink for v in a.images] + [sink])
    raise ValueError(f"unknown embedding {pair!r} (expected one of {EMBEDDINGS})")
