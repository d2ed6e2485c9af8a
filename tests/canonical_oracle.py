"""The sort-based canonical form of partition blocks, kept as the oracle for
the label scan `monoidkit.elements.blocks_by_label` that the parser, the
validating constructor, the product and `star` use, and the formulas that
`star` and `str` followed before that scan and the table of point names.

Points are stored as in `monoidkit.elements`: x for the upper point x and
n+x for the lower point x'.
"""


def canonical(n, internal_blocks):
    """Sort each block and then the blocks, refusing an empty block, a
    point met twice in that order and, first, the least missing point."""
    seen = set()
    canon = []
    for block in internal_blocks:
        pts = tuple(sorted(block))
        if not pts:
            raise ValueError("empty block")
        for p in pts:
            if p in seen:
                raise ValueError(f"point {point_text(p, n)} appears twice")
            seen.add(p)
        canon.append(pts)
    if len(seen) != 2 * n:
        missing = sorted(set(range(1, 2 * n + 1)) - seen)
        raise ValueError(f"missing point {point_text(missing[0], n)}")
    return tuple(sorted(canon))


def point_text(p, n):
    return str(p) if p <= n else f"{p - n}'"


def star_blocks(n, blocks):
    """The rows swapped: in an ascending block the lower points, moved up,
    come before the upper points, moved down; then the blocks are sorted."""
    return tuple(sorted(
        tuple([p - n for p in block if p > n] + [p + n for p in block if p <= n])
        for block in blocks
    ))


def text(n, blocks):
    return "".join(["{%s}" % " ".join([point_text(p, n) for p in block]) for block in blocks])
