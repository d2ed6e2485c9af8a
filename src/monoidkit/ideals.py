"""Constructive generators for intersections of principal one-sided ideals,
with a brute-force verifier.

The one `meet(kind, side, a, b)` returns either a single generating element
whose principal ideal equals the intersection, or an explicit emptiness
verdict.  The choices left open are pinned canonically: a kernel class maps
to its minimum member, and a transversal class is anchored at its minimum
point.  One partition kernel serves both sides; a side chooses the row read.
"""

from __future__ import annotations

from dataclasses import dataclass

from .congruence import FiniteMonoid
from .elements import PartialMap, Partition, check_pair, min_root_join, row_points


@dataclass(frozen=True)
class MeetResult:
    generator: object | None
    empty: bool

    def __post_init__(self):
        if self.empty == (self.generator is not None):
            raise ValueError("exactly one of generator/empty must be set")

    @classmethod
    def found(cls, generator):
        return cls(generator, False)

    @classmethod
    def nothing(cls):
        return cls(None, True)


def _meet_right_pt(a, b):
    """The right meet of two checked partial maps.

    The generator is defined on the union of joined-kernel classes lying
    inside dom a ∩ dom b, and collapses each such class to its minimum.
    For total inputs the result is total; for injective inputs the classes
    are singletons and the result is the partial identity on dom a ∩ dom b.

    The kernels are joined by linking each point to the first preimage of
    its image, under a and then under b.  Each image is then a class
    minimum plus one, a point of 1..n, so the result needs no re-validation.
    """

    def links():
        for images in (a.images, b.images):
            first = {}
            for x, v in enumerate(images):
                if v is not None:
                    y = first.setdefault(v, x)
                    if y != x:
                        yield x, y

    roots = min_root_join(a.n, links())
    dropped = {r for r, u, v in zip(roots, a.images, b.images) if u is None or v is None}
    return MeetResult.found(
        PartialMap._from_internal(tuple([None if r in dropped else r + 1 for r in roots]))
    )


def _meet_left(kind, a, b):
    """The left meet of two checked maps; the kind decides what an
    acceptable image is.

    For partial kinds the partial identity on im a ∩ im b works (possibly the
    empty map).  For total maps on n >= 1 points an empty image intersection
    means the intersection of ideals is empty; otherwise surject onto it by
    fixing its members and sending everything else to its minimum.  On no
    points the empty map is the identity and generates both ideals.
    """
    common = a.im() & b.im()
    if kind == "T" and a.n and not common:
        return MeetResult.nothing()
    fill = min(common, default=None) if kind == "T" else None
    return MeetResult.found(
        PartialMap._from_internal(tuple([x if x in common else fill for x in range(1, a.n + 1)]))
    )


def _meet_partition(lower, a, b):
    """The meet of two checked partitions on the upper row, or the lower.

    Read on the row the side's multiplier leaves alone, its own row (upper
    for R, lower for L): any common multiple contains every own-row-only
    block of a or of b as a block and refines the joined own-row classes of
    both, so the intersection is empty unless each such block is a whole
    class.  When it is, those blocks plus every other class, anchored at the
    other row's copy of its minimum, generate the intersection.
    """
    n = a.n
    links, own_only = [], []
    for block in a.blocks + b.blocks:
        points = row_points(block, n, lower)
        if len(points) == len(block):
            own_only.append(block)
        for p in points[1:]:
            links.append((p, points[0]))
    roots = min_root_join(2 * n + 1, links)  # indexed by stored point
    own_row = row_points(range(1, 2 * n + 1), n, lower)
    classes = {}
    for p in own_row:
        classes.setdefault(roots[p], []).append(p)
    for block in own_only:
        if len(classes[roots[block[0]]]) != len(block):
            return MeetResult.nothing()
    whole = {roots[block[0]] for block in own_only}
    other = -n if lower else n  # from a point to its copy on the other row
    blocks = [tuple(c) if r in whole else tuple(sorted([*c, r + other])) for r, c in classes.items()]
    blocks.extend((p + other,) for p in own_row if p not in classes or p in whole)
    return MeetResult.found(Partition._from_internal(n, tuple(sorted(blocks))))


def meet(kind, side, a, b) -> MeetResult:
    """Generator of aS ∩ bS (side R) or Sa ∩ Sb (side L), or emptiness;
    each element is checked once, then the side, then the sizes."""
    lower = check_pair(kind, a, b, side)
    if kind == "P":
        return _meet_partition(lower, a, b)
    return _meet_left(kind, a, b) if lower else _meet_right_pt(a, b)


def verify_meet(S: FiniteMonoid, a, b, result: MeetResult, side="R") -> bool:
    """Brute-force check that the meet result is exact within S.

    Intersects both principal right ideals of S on the side, as bitmasks,
    and compares with the generator's (or with emptiness).
    """
    S = S.on_side(side)
    inter = S.right_ideal_idx(S.index_of(a)) & S.right_ideal_idx(S.index_of(b))
    if result.empty:
        return not inter
    if result.generator not in S:
        return False
    return S.right_ideal_idx(S.index_of(result.generator)) == inter
