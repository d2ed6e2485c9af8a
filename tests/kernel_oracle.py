"""The kernel vocabulary as it was before the one-pass preorders, kept as an
oracle for `monoidkit.order` and the meet constructions.

Domains, kernels and upper blocks of maps and partitions are built here as
frozensets, and `leq_R_by_kernels` is the old `leq_R`: kernel and domain (or
upper-block) containment.  An equivalence relation is held as the frozenset
of its classes, each a frozenset, so the helpers read nothing but classes.
"""

from monoidkit.elements import PartialMap, Partition
from monoidkit.elements import check_pair, find


# --- equivalence relations ------------------------------------------------------


def rel(*classes):
    """The relation whose classes are the given collections of points."""
    return frozenset(frozenset(cls) for cls in classes)


def from_labels(labels):
    """The relation on 0..m-1 whose classes are the points sharing a label."""
    groups = {}
    for x, label in enumerate(labels):
        groups.setdefault(label, []).append(x)
    return rel(*groups.values())


def component_labels(n, links):
    """Each point 0..n-1 labelled by the least point of its component in the
    graph of the links, found by breadth-first search from each unlabelled
    point in ascending order."""
    neighbours = [[] for _ in range(n)]
    for x, y in links:
        neighbours[x].append(y)
        neighbours[y].append(x)
    labels = [None] * n
    for start in range(n):
        if labels[start] is None:
            labels[start] = start
            queue = [start]
            for x in queue:  # grows while it is walked
                for y in neighbours[x]:
                    if labels[y] is None:
                        labels[y] = start
                        queue.append(y)
    return tuple(labels)


def joining_links(parent, links):
    """The generator form of `elements.joining`: merge each link's first two
    items, hanging the larger root below the smaller, and yield each link
    that joined two classes."""
    for link in links:
        rx, ry = find(parent, link[0]), find(parent, link[1])
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
            yield link


def find_labels(n, links):
    """Each point 0..n-1 labelled by one `find` call after the links join,
    as `min_root_join` labelled them before its sweep."""
    parent = list(range(n))
    for _ in joining_links(parent, links):
        pass
    return [find(parent, x) for x in range(n)]


def carrier(rel):
    return frozenset(x for cls in rel for x in cls)


def class_of(rel, x):
    for cls in rel:
        if x in cls:
            return cls
    raise KeyError(x)


def pairs(rel):
    """All ordered related pairs, diagonal included."""
    return {(x, y) for cls in rel for x in cls for y in cls}


def subset_of(rel, other):
    """Relation containment: every pair related in `rel` is related in `other`."""
    index = {x: cls for cls in other for x in cls}
    if not carrier(rel) <= index.keys():
        return False
    return all(len({index[x] for x in cls}) == 1 for cls in rel)


def join(rel, other):
    """Smallest equivalence on the union of carriers containing both: each
    class in turn absorbs every class built so far that it meets."""
    joined = []
    for cls in (*rel, *other):
        kept = [c for c in joined if not c & cls]
        joined = kept + [cls.union(*(c for c in joined if c & cls))]
    return frozenset(joined)


def restrict(rel, subset):
    subset = frozenset(subset)
    return frozenset(cls & subset for cls in rel if cls & subset)


def congruence_subset_of(rho, sigma):
    """Containment of two right congruences on the same monoid."""
    if rho.base is not sigma.base:
        raise ValueError("congruences live on different monoids")
    return subset_of(rel(*rho.classes_elements()), rel(*sigma.classes_elements()))


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
        return rel(*fibers.values())
    return rel(*(upper for upper, _ in (split(a, block) for block in a.blocks) if upper))


def kerhat(a: PartialMap):
    """ker together with all undefined points merged into one class."""
    fibers = ker(a)
    undef = frozenset(x for x, v in enumerate(a.images, start=1) if v is None)
    return fibers | {undef} if undef else fibers


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
    check_pair(kind, a, b)
    if kind == "P":
        return subset_of(ker(b), ker(a)) and upper_blocks(b) <= upper_blocks(a)
    return dom(a) <= dom(b) and subset_of(kerhat(b), kerhat(a))
