"""The kernel vocabulary as it was before the one-pass preorders, kept as an
oracle for `monoidkit.order` and the meet constructions.

Domains, kernels and upper blocks of maps and partitions are built here as
frozensets and `EqRel`s, and `leq_R_by_kernels` is the old `leq_R`: kernel
and domain (or upper-block) containment.  Only `EqRel.classes` is read, so
these helpers rely on nothing but the relation's canonical classes.
"""

from monoidkit.elements import EqRel, PartialMap, Partition
from monoidkit.order import _check_pair


# --- equivalence relations ------------------------------------------------------


def carrier(rel):
    return frozenset(x for cls in rel.classes for x in cls)


def class_of(rel, x):
    for cls in rel.classes:
        if x in cls:
            return cls
    raise KeyError(x)


def pairs(rel):
    """All ordered related pairs, diagonal included."""
    return {(x, y) for cls in rel.classes for x in cls for y in cls}


def subset_of(rel, other):
    """Relation containment: every pair related in `rel` is related in `other`."""
    index = {x: k for k, cls in enumerate(other.classes) for x in cls}
    if not carrier(rel) <= index.keys():
        return False
    return all(len({index[x] for x in cls}) == 1 for cls in rel.classes)


def join(rel, other):
    """Smallest equivalence on the union of carriers containing both."""
    links = [link for r in (rel, other) for cls in r.classes for link in zip(cls, cls[1:])]
    return EqRel.from_pairs(carrier(rel) | carrier(other), links)


def restrict(rel, subset):
    subset = set(subset)
    kept = [tuple(x for x in cls if x in subset) for cls in rel.classes]
    return EqRel([c for c in kept if c])


def congruence_subset_of(rho, sigma):
    """Containment of two right congruences on the same monoid."""
    if rho.base is not sigma.base:
        raise ValueError("congruences live on different monoids")
    return subset_of(rho.eqrel, sigma.eqrel)


# --- maps and partitions ----------------------------------------------------------


def split(a: Partition, block):
    """A block's upper points and its lower points (as 1..n)."""
    upper = tuple(p for p in block if p <= a.n)
    lower = tuple(p - a.n for p in block if p > a.n)
    return upper, lower


def dom(a):
    """The defined points of a map; the upper points of a partition's
    transversal blocks."""
    if isinstance(a, PartialMap):
        return frozenset(x for x, v in enumerate(a.images, start=1) if v is not None)
    out = set()
    for block in a.blocks:
        upper, lower = split(a, block)
        if upper and lower:
            out.update(upper)
    return frozenset(out)


def ker(a):
    """A map's fibers over its domain; a partition's induced partition of the
    upper row."""
    if isinstance(a, PartialMap):
        fibers = {}
        for x, v in enumerate(a.images, start=1):
            if v is not None:
                fibers.setdefault(v, []).append(x)
        return EqRel(fibers.values())
    return EqRel([upper for upper, _ in (split(a, block) for block in a.blocks) if upper])


def kerhat(a: PartialMap):
    """ker together with all undefined points merged into one class."""
    classes = list(ker(a).classes)
    undef = [x for x, v in enumerate(a.images, start=1) if v is None]
    if undef:
        classes.append(tuple(undef))
    return EqRel(classes)


def upper_blocks(a: Partition):
    """Blocks lying entirely in the upper row."""
    out = set()
    for block in a.blocks:
        upper, lower = split(a, block)
        if upper and not lower:
            out.add(frozenset(upper))
    return frozenset(out)


def leq_R_by_kernels(kind, a, b) -> bool:
    """a is a right multiple of b, read from kernel containment."""
    _check_pair(kind, a, b)
    if kind == "P":
        return subset_of(ker(b), ker(a)) and upper_blocks(b) <= upper_blocks(a)
    return dom(a) <= dom(b) and subset_of(kerhat(b), kerhat(a))
