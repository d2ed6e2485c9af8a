"""Exact arithmetic on finite ground sets: partial maps, diagram partitions,
enumeration, and the standard embeddings between kinds.

Points are 1-based.  A partition diagram on {1..n} has a second, primed row
{1'..n'}; internally the primed point x' is stored as n+x so that union-find
structures can use dense integer indexing throughout.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, wraps
from math import comb, factorial

KINDS = ("T", "PT", "I", "P")

DEFAULT_ENUM_CAP = 1_000_000


def find(parent, x):
    """Root of x in a union-find forest stored as a parent list, halving the
    path on the way up."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def joining(parent, links):
    """Merge each link's first two items in a union-find forest, hanging the
    larger root below the smaller so that every root is its class minimum;
    the links that joined two classes, in order."""
    joined = []
    for link in links:
        rx, ry = find(parent, link[0]), find(parent, link[1])
        if rx != ry:
            if rx < ry:
                parent[ry] = rx
            else:
                parent[rx] = ry
            joined.append(link)
    return joined


def min_root_labels(parent):
    """Resolve a min-root forest in place: each point's parent becomes its
    root, the least point of its class.  Every parent is at most its point,
    so one ascending sweep, taking each parent's already settled parent,
    settles every point; the list is returned."""
    for x in range(len(parent)):
        parent[x] = parent[parent[x]]
    return parent


def min_root_join(n, links):
    """Label each point 0..n-1 by the least point of its class in the
    equivalence the linked pairs generate: `joining` builds a min-root
    forest and `min_root_labels` resolves it in one sweep."""
    parent = list(range(n))
    joining(parent, links)
    return min_root_labels(parent)


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
            if type(v) is not int or not 1 <= v <= n:
                raise ValueError(f"image {v!r} outside 1..{n}")
        _set_map_n(self, n)
        _set_images(self, images)

    @classmethod
    def _from_internal(cls, images):
        """Wrap an images tuple without checking it.

        The caller guarantees that `images` is a tuple whose entries are each
        None or an int in 1..len(images); outside input goes through the
        validating constructor instead.  The fields are stored through the
        slot descriptors, past the refusing `__setattr__`.
        """
        self = object.__new__(cls)
        _set_map_n(self, len(images))
        _set_images(self, images)
        return self

    def __setattr__(self, *_):
        raise AttributeError("PartialMap is immutable")

    __delattr__ = __setattr__

    @classmethod
    def identity(cls, n):
        return cls._from_internal(tuple(range(1, n + 1)))

    @classmethod
    def empty(cls, n):
        return cls._from_internal((None,) * n)

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

    def im(self):
        return frozenset(self.images).difference((None,))

    @property
    def is_total(self):
        return None not in self.images

    @property
    def is_injective(self):
        return is_kind(self, "I")

    def inverse(self):
        if not self.is_injective:
            raise ValueError("only injective partial maps have an inverse")
        inv = [None] * self.n
        for x, v in enumerate(self.images, start=1):
            if v is not None:
                inv[v - 1] = x
        return PartialMap._from_internal(tuple(inv))

    def __eq__(self, other):
        return isinstance(other, PartialMap) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __str__(self):
        return "[" + ",".join(map(map_item_table(self.n)[0].__getitem__, self.images)) + "]"

    def __repr__(self):
        return f"PartialMap({self})"


_set_map_n = PartialMap.n.__set__
_set_images = PartialMap.images.__set__


class Partition:
    """A set partition of the 2n diagram points {1..n} ∪ {1'..n'}.

    Constructor blocks use signed labels: +x is the upper point x, -x is the
    lower point x'.  Blocks are stored canonically (internal labels sorted,
    blocks sorted by minimum), so equality and hashing are structural.
    """

    __slots__ = ("n", "blocks")

    def __init__(self, n, signed_blocks):
        if type(n) is not int or n < 0:
            raise ValueError(f"size {n!r} is not a non-negative int")
        internal = []
        for block in signed_blocks:
            pts = []
            for p in block:
                if type(p) is not int or p == 0 or abs(p) > n:
                    raise ValueError(f"point {p!r} outside ±1..±{n}")
                pts.append(p if p > 0 else n - p)
            internal.append(pts)
        _set_partition_n(self, n)
        _set_blocks(self, self._canonical(n, internal))

    def __setattr__(self, *_):
        raise AttributeError("Partition is immutable")

    __delattr__ = __setattr__

    @staticmethod
    def _canonical(n, internal_blocks):
        """The canonical blocks of internal blocks that cover 1..2n once.
        Refused block by block: an empty block, then a point met twice (the
        least such point in the block); then the least missing point."""
        label = [0] * (2 * n + 1)
        for i, block in enumerate(internal_blocks, 1):
            if not block:
                raise ValueError("empty block")
            # A point met labelled is in an earlier block or met twice here.
            twice = []
            for p in block:
                if label[p]:
                    twice.append(p)
                label[p] = i
            if twice:
                raise ValueError(f"point {point_table(n)[0][min(twice)]} appears twice")
        if 0 in label[1:]:
            raise ValueError(f"missing point {point_table(n)[0][label.index(0, 1)]}")
        return blocks_by_label(label)

    @classmethod
    def _from_internal(cls, n, blocks):
        """Wrap internal blocks without checking them: the caller hands a
        tuple of ascending tuples, sorted by their minimum, that cover 1..2n
        once.  Outside input goes through the validating constructor."""
        self = object.__new__(cls)
        _set_partition_n(self, n)
        _set_blocks(self, blocks)
        return self

    @classmethod
    def identity(cls, n):
        return cls._from_internal(n, tuple([(x, n + x) for x in range(1, n + 1)]))

    def __mul__(self, other):
        """Stack the diagrams and contract the middle row.

        Works on three rows of n nodes: this diagram spans rows 0-1, the other
        spans rows 1-2; blocks of the product are the connected components of
        the union, restricted to rows 0 and 2.

        The groups are filled by the scan of `blocks_by_label`, in point
        order, upper row first, with each point's root as its label, so the
        blocks are already canonical.  The scan is written out here: a call
        per product costs more than the loop.
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
        return Partition._from_internal(n, tuple([tuple(g) for g in groups.values()]))

    def star(self):
        """Swap the two rows; an involutive anti-isomorphism.

        Swapping the rows of a valid partition leaves it valid, so only the
        order is restored: each point is labelled with the row-swapped copy
        of its block, and `blocks_by_label` reads the blocks off the labels.
        """
        n = self.n
        label = [0] * (2 * n + 1)
        for i, block in enumerate(self.blocks, 1):
            for p in block:
                label[p - n if p > n else p + n] = i
        return Partition._from_internal(n, blocks_by_label(label))

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __str__(self):
        if not self.blocks:
            return ""
        names = point_table(self.n)[0]
        return "{%s}" % "}{".join([" ".join(map(names.__getitem__, block)) for block in self.blocks])

    def __repr__(self):
        return f"Partition({self.n}, '{self}')"


_set_partition_n = Partition.n.__set__
_set_blocks = Partition.blocks.__set__


def _kept_while_small(build):
    """A per-size text table `build(n)`, kept for the last 8 sizes n <= 64
    and built afresh on each call for a larger n, so the kept tables stay
    small; the cache's `cache_info` and `cache_clear` are the table's."""
    kept = lru_cache(maxsize=8)(build)

    @wraps(build)
    def table(n):
        return kept(n) if n <= 64 else build(n)

    table.cache_info, table.cache_clear = kept.cache_info, kept.cache_clear
    return table


@_kept_while_small
def map_item_table(n):
    """The item texts of a map on n points, both ways: a dict from each
    value to its text (None to _, x to str(x)) and its inverse.  About 160
    bytes a point; kept as `_kept_while_small` says."""
    names = {None: "_"}
    names.update([(x, str(x)) for x in range(1, n + 1)])
    return names, {text: v for v, text in names.items()}


@_kept_while_small
def point_table(n):
    """The point texts of a partition on n points, both ways: each stored
    point's text, indexed by the point (x for 1..n, x' for n+x, "" for 0),
    and a dict from each text back to its point.  About 250 bytes for each
    x; kept as `_kept_while_small` says."""
    names = ("",) + tuple([str(x) for x in range(1, n + 1)]) + tuple([f"{x}'" for x in range(1, n + 1)])
    return names, {names[p]: p for p in range(1, 2 * n + 1)}


def blocks_by_label(label):
    """The canonical blocks of the points 1..len(label)-1, each labelled with
    its block's label (label[0] is not read).

    One scan in point order appends each point to its label's group, so
    every block is ascending and the groups come in order of their least
    point: the canonical order, without a sort.
    """
    groups = {}
    for p in range(1, len(label)):
        groups.setdefault(label[p], []).append(p)
    return tuple([tuple(g) for g in groups.values()])


def is_kind(x, kind) -> bool:
    """Whether x is of the kind, in one frame that reads no property; an
    unknown kind is refused, once the known ones are ruled out."""
    if kind == "T":
        return isinstance(x, PartialMap) and None not in x.images
    if kind == "PT":
        return isinstance(x, PartialMap)
    if kind == "I":  # as many distinct defined images as defined points
        return isinstance(x, PartialMap) and len(set(im := x.images)) - (None in im) == len(im) - im.count(None)
    if kind == "P":
        return isinstance(x, Partition)
    raise ValueError(f"unknown kind {kind!r}")


def require_kind(x, kind):
    if not is_kind(x, kind):
        raise ValueError(f"{x!r} is not of kind {kind}")


def check_pair(kind, a, b, side="R"):
    """Refuse, in this order, an element not of the kind (a, then b), a side
    other than 'R' or 'L' and two sizes; whether the side is the left one."""
    for x in (a, b):
        if not is_kind(x, kind):
            raise ValueError(f"{x!r} is not of kind {kind}")
    if side not in ("R", "L"):
        raise ValueError(f"side must be 'R' or 'L', got {side!r}")
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    return side == "L"


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
    """All set partitions of a list of points, as tuples of blocks in the
    points' order, the blocks in order of their first point."""
    points = list(points)
    if not points:
        yield ()
        return

    def rec(i, blocks):
        if i == len(points):
            yield tuple([tuple(b) for b in blocks])
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


def enumerate_elements(kind, n):
    """Complete, duplicate-free, deterministic enumeration of a kind.

    Refuses to run when the predicted count exceeds `DEFAULT_ENUM_CAP`.
    Every kind's count grows with n and passes the cap at n = 8, so a larger
    n is refused on the count at 8, and its own, of any size, is not worked out.
    Every element is built in canonical form, so none is re-validated.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    count = element_count(kind, min(n, 8))
    if count > DEFAULT_ENUM_CAP:
        amount = count if n <= 8 else f"more than {count}"
        raise ValueError(f"enumerating {kind}_{n} would produce {amount} elements (cap {DEFAULT_ENUM_CAP})")
    if kind in ("T", "PT"):
        vals = ([None] if kind == "PT" else []) + list(range(1, n + 1))
        return list(map(PartialMap._from_internal, itertools.product(vals, repeat=n)))
    if kind == "I":
        out = []
        points = list(range(1, n + 1))
        for k in range(n + 1):
            for dom in itertools.combinations(points, k):
                for image in itertools.permutations(points, k):
                    img = [None] * n
                    for x, v in zip(dom, image):
                        img[x - 1] = v
                    out.append(PartialMap._from_internal(tuple(img)))
        return out
    # P: the points are ascending, so every set partition is canonical.
    return [Partition._from_internal(n, b) for b in _set_partitions(range(1, 2 * n + 1))]


def generators(kind, n):
    """The standard generating set of the full monoid of a kind.

    The map kinds keep the candidates they contain, of the transposition,
    the n-cycle, the idempotent [1,1,3..n] and the partial identity
    [_,2..n].  P takes I's generators through I->P, which makes [_,2..n] the
    projection {1}{1'}, and adds the join {1 2 1' 2'} (each fixing the other
    points).  Candidates that would be the identity or a repeat are left
    out, so the set is smaller for n < 3 and empty for n = 0.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    rest = list(range(3, n + 1))
    if kind == "P":
        gens = [embed("I->P", g) for g in generators("I", n)]
        if n >= 2:
            gens.append(Partition._from_internal(
                n, ((1, 2, n + 1, n + 2),) + tuple([(x, n + x) for x in rest])))
        return gens
    candidates = (
        ([2, 1] + rest, n >= 2),
        ([*range(2, n + 1), 1], n >= 3),
        ([1, 1] + rest, n >= 2),
        ([None, *range(2, n + 1)], n >= 1),
    )
    maps = [PartialMap._from_internal(tuple(images)) for images, fits in candidates if fits]
    return [g for g in maps if is_kind(g, kind)]


EMBEDDINGS = ("I->PT", "I->P", "PT->T")


def embed(pair, a):
    """Apply one of the standard kind embeddings to a single element.

    I->PT is the inclusion; I->P turns a partial bijection into a partition
    whose rows both have trivial kernels; PT->T totalises on n+1 points, sending
    every undefined point (and the sink itself) to the sink n+1.
    """
    if pair not in EMBEDDINGS:
        raise ValueError(f"unknown embedding {pair!r} (expected one of {EMBEDDINGS})")
    require_kind(a, pair.split("->")[0])
    if pair == "I->PT":
        return a
    if pair == "I->P":
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
        return Partition._from_internal(n, tuple(blocks))
    sink = a.n + 1  # PT->T
    return PartialMap._from_internal(tuple([sink if v is None else v for v in a.images] + [sink]))
