"""Constructive generators for intersections of principal one-sided ideals,
with a brute-force verifier.

Each meet function returns either a single generating element whose principal
ideal equals the intersection, or an explicit emptiness verdict.  The choices
left open by the constructions are pinned canonically: a kernel class maps to
its minimum member, and a transversal class is anchored at its minimum point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .congruence import FiniteMonoid
from .elements import PartialMap, Partition, find, require_kind


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


def _check_sizes(a, b):
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")


def meet_right_pt(a: PartialMap, b: PartialMap) -> MeetResult:
    """Generator of aS ∩ bS for partial maps (total and injective included).

    The generator is defined on the union of joined-kernel classes lying
    inside dom a ∩ dom b, and collapses each such class to its minimum.
    For total inputs the result is total; for injective inputs the classes
    are singletons and the result is the partial identity on dom a ∩ dom b.

    One union-find links each point to the first preimage of its image,
    under a and then under b, always hanging the larger root below the
    smaller, so every root is its class's minimum.  Each image is then a
    root plus one, a point of 1..n, so the result needs no re-validation.
    """
    _check_sizes(a, b)
    parent = list(range(a.n))
    for images in (a.images, b.images):
        first = {}
        for x, v in enumerate(images):
            if v is not None:
                y = first.setdefault(v, x)
                if y != x:
                    rx, ry = find(parent, x), find(parent, y)
                    if rx != ry:
                        parent[max(rx, ry)] = min(rx, ry)
    roots = [find(parent, x) for x in range(a.n)]
    dropped = {r for r, u, v in zip(roots, a.images, b.images) if u is None or v is None}
    return MeetResult.found(
        PartialMap._from_internal(tuple([None if r in dropped else r + 1 for r in roots]))
    )


def meet_left(kind, a, b) -> MeetResult:
    """Generator of Sa ∩ Sb; the kind decides what an acceptable image is.

    For partial kinds the partial identity on im a ∩ im b works (possibly the
    empty map).  For total maps an empty image intersection means the
    intersection of ideals is empty; otherwise surject onto it by fixing its
    members and sending everything else to its minimum.
    """
    require_kind(a, kind)
    require_kind(b, kind)
    _check_sizes(a, b)
    common = a.im() & b.im()
    if kind in ("PT", "I"):
        return MeetResult.found(
            PartialMap([x if x in common else None for x in range(1, a.n + 1)])
        )
    if kind == "T":
        if not common:
            return MeetResult.nothing()
        low = min(common)
        return MeetResult.found(
            PartialMap([x if x in common else low for x in range(1, a.n + 1)])
        )
    raise ValueError(f"meet_left does not handle kind {kind!r}")


def meet_right_partition(a: Partition, b: Partition) -> MeetResult:
    """Generator of a·P ∩ b·P in the partition monoid, or emptiness.

    Any common right multiple must contain every upper block of both factors
    as a block and refine both kernels, which forces three conditions checked
    below; when they hold, the element built from the combined upper blocks
    plus one anchored transversal per remaining joined-kernel class generates
    the intersection.
    """
    _check_sizes(a, b)
    n = a.n
    upper_a = a.upper_blocks()
    upper_b = b.upper_blocks()
    for blk_a in upper_a:
        for blk_b in upper_b:
            if blk_a != blk_b and blk_a & blk_b:
                return MeetResult.nothing()
    upper = upper_a | upper_b
    anchored = set().union(*upper) if upper else set()
    # Every kernel class of either factor that meets the anchored region must
    # sit inside a single combined upper block; this subsumes not crossing
    # into the complement.
    for rel in (a.ker(), b.ker()):
        for cls in rel.classes:
            pts = set(cls)
            if pts & anchored:
                if not any(pts <= blk for blk in upper):
                    return MeetResult.nothing()
    rest = [x for x in range(1, n + 1) if x not in anchored]
    gamma = a.ker().restrict(rest).join(b.ker().restrict(rest))
    blocks = [tuple(sorted(blk)) for blk in upper]
    used_lower = set()
    for cls in gamma.classes:
        z = cls[0]
        blocks.append(cls + (n + z,))
        used_lower.add(z)
    blocks.extend((n + y,) for y in range(1, n + 1) if y not in used_lower)
    return MeetResult.found(Partition._from_internal(n, blocks))


def meet_left_partition(a: Partition, b: Partition) -> MeetResult:
    """Left-sided meet, transported through the row-swapping involution."""
    result = meet_right_partition(a.star(), b.star())
    if result.empty:
        return result
    return MeetResult.found(result.generator.star())


def meet(kind, side, a, b) -> MeetResult:
    require_kind(a, kind)
    require_kind(b, kind)
    if side == "R":
        return meet_right_partition(a, b) if kind == "P" else meet_right_pt(a, b)
    if side == "L":
        return meet_left_partition(a, b) if kind == "P" else meet_left(kind, a, b)
    raise ValueError(f"side must be 'R' or 'L', got {side!r}")


def verify_meet(S: FiniteMonoid, a, b, result: MeetResult, side="R") -> bool:
    """Brute-force check that the meet result is exact within S.

    Enumerates both principal ideals, intersects them, and compares with the
    generator's principal ideal (or with emptiness).
    """
    ia, ib = S.index_of(a), S.index_of(b)
    if side == "R":
        inter = S.right_ideal_idx(ia) & S.right_ideal_idx(ib)
    elif side == "L":
        inter = S.left_ideal_idx(ia) & S.left_ideal_idx(ib)
    else:
        raise ValueError(f"side must be 'R' or 'L', got {side!r}")
    if result.empty:
        return not inter
    if result.generator not in S:
        return False
    ig = S.index_of(result.generator)
    ideal = S.right_ideal_idx(ig) if side == "R" else S.left_ideal_idx(ig)
    return ideal == inter
