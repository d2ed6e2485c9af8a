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
from .elements import PartialMap, Partition, check_pair, min_root_join, require_kind


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


def meet_right_pt(a: PartialMap, b: PartialMap) -> MeetResult:
    """Generator of aS ∩ bS for partial maps (total and injective included).

    The generator is defined on the union of joined-kernel classes lying
    inside dom a ∩ dom b, and collapses each such class to its minimum.
    For total inputs the result is total; for injective inputs the classes
    are singletons and the result is the partial identity on dom a ∩ dom b.

    The kernels are joined by linking each point to the first preimage of
    its image, under a and then under b.  Each image is then a class
    minimum plus one, a point of 1..n, so the result needs no re-validation.
    """
    check_pair("PT", a, b)

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


def meet_left(kind, a, b) -> MeetResult:
    """Generator of Sa ∩ Sb; the kind decides what an acceptable image is.

    For partial kinds the partial identity on im a ∩ im b works (possibly the
    empty map).  For total maps on n >= 1 points an empty image intersection
    means the intersection of ideals is empty; otherwise surject onto it by
    fixing its members and sending everything else to its minimum.  On no
    points the empty map is the identity and generates both ideals.
    """
    check_pair(kind, a, b)
    if kind not in ("T", "PT", "I"):
        raise ValueError(f"meet_left does not handle kind {kind!r}")
    common = a.im() & b.im()
    if kind == "T" and a.n and not common:
        return MeetResult.nothing()
    fill = min(common, default=None) if kind == "T" else None
    return MeetResult.found(
        PartialMap._from_internal(tuple([x if x in common else fill for x in range(1, a.n + 1)]))
    )


def meet_right_partition(a: Partition, b: Partition) -> MeetResult:
    """Generator of a·P ∩ b·P in the partition monoid, or emptiness.

    Any common right multiple contains every upper block of both factors as
    a block and refines both kernels, so the intersection is empty unless
    every upper block of a or of b is a whole class of the joined kernels.
    When it is, those blocks plus every other joined class, anchored at the
    lower copy of its minimum, generate the intersection.
    """
    check_pair("P", a, b)
    n = a.n
    both = a.blocks + b.blocks
    # Blocks are ascending: a block with upper points starts with one.
    links = ((p - 1, block[0] - 1) for block in both for p in block[1:] if p <= n)
    roots = min_root_join(n, links)
    classes = {}
    for x, r in enumerate(roots):
        classes.setdefault(r, []).append(x + 1)
    upper = {block for block in both if block[-1] <= n}
    if any(len(classes[roots[block[0] - 1]]) != len(block) for block in upper):
        return MeetResult.nothing()
    kept = {roots[block[0] - 1] for block in upper}
    # Classes by minimum, then the lower singletons: the blocks are canonical.
    blocks = [tuple(cls) if r in kept else (*cls, n + r + 1) for r, cls in classes.items()]
    blocks.extend((n + x + 1,) for x in range(n) if x not in classes or x in kept)
    return MeetResult.found(Partition._from_internal(n, tuple(blocks)))


def meet_left_partition(a: Partition, b: Partition) -> MeetResult:
    """Generator of P·a ∩ P·b: the right meet read on the lower row.

    Blocks are ascending, so a block's lower points are its suffix and a
    block is lower-only iff its first point is.  The intersection is empty
    unless every lower-only block of a or of b is a whole class of the
    joined lower-row classes.  When it is, those blocks plus every other
    joined class, anchored at the upper copy of its minimum, generate it.
    """
    check_pair("P", a, b)
    n = a.n
    both = a.blocks + b.blocks
    links = ((p - n - 1, block[-1] - n - 1) for block in both for p in block[:-1] if p > n)
    roots = min_root_join(n, links)
    classes = {}
    for x, r in enumerate(roots):
        classes.setdefault(r, []).append(n + x + 1)
    lower = {block for block in both if block[0] > n}
    if any(len(classes[roots[block[0] - n - 1]]) != len(block) for block in lower):
        return MeetResult.nothing()
    kept = {roots[block[0] - n - 1] for block in lower}
    # Each upper point, alone or heading its class, then the kept classes by
    # minimum: the blocks are canonical.
    blocks = [(x + 1, *classes[x]) if x in classes and x not in kept else (x + 1,) for x in range(n)]
    blocks.extend(tuple(cls) for r, cls in classes.items() if r in kept)
    return MeetResult.found(Partition._from_internal(n, tuple(blocks)))


def meet(kind, side, a, b) -> MeetResult:
    if side == "L" and kind != "P":
        return meet_left(kind, a, b)
    if kind not in ("P", "PT") or side not in ("R", "L"):
        # The meets below check a PT or P pair; this checks T and I elements,
        # an unknown kind, and the elements ahead of a bad side's error.
        require_kind(a, kind)
        require_kind(b, kind)
    if side == "R":
        return meet_right_partition(a, b) if kind == "P" else meet_right_pt(a, b)
    if side == "L":
        return meet_left_partition(a, b)
    raise ValueError(f"side must be 'R' or 'L', got {side!r}")


def verify_meet(S: FiniteMonoid, a, b, result: MeetResult, side="R") -> bool:
    """Brute-force check that the meet result is exact within S.

    Intersects both principal right ideals, as `FiniteMonoid` bitmasks, and
    compares with the generator's (or with emptiness); a left side is the
    right side of the opposite monoid.
    """
    if side not in ("R", "L"):
        raise ValueError(f"side must be 'R' or 'L', got {side!r}")
    if side == "L":
        S = S.opposite()
    inter = S.right_ideal_idx(S.index_of(a)) & S.right_ideal_idx(S.index_of(b))
    if result.empty:
        return not inter
    if result.generator not in S:
        return False
    return S.right_ideal_idx(S.index_of(result.generator)) == inter
