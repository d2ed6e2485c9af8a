"""The partition left side by transport, kept as an oracle for the left
side of the row-parametrised `monoidkit.order.leq_L` and
`monoidkit.ideals.meet_partition`, which read the lower row directly.

Both transport the right side, read on the upper row, through the
row-swapping anti-involution `star`: a ≤_L b iff a* ≤_R b*, and P·a ∩ P·b
is the star of a*·P ∩ b*·P.
"""

import itertools
import random

from monoidkit.elements import enumerate_elements
from monoidkit.ideals import MeetResult, meet_partition
from monoidkit.order import leq_R


def leq_L_by_star(a, b):
    return leq_R("P", a.star(), b.star())


def meet_left_by_star(a, b):
    result = meet_partition("R", a.star(), b.star())
    if result.empty:
        return result
    return MeetResult.found(result.generator.star())


def left_side_pairs(seed):
    """Every pair of P_0..P_2, then 20,000 pairs each of P_3 and P_4 drawn
    with the seed."""
    rng = random.Random(seed)
    for n in range(3):
        yield from itertools.product(enumerate_elements("P", n), repeat=2)
    for n in (3, 4):
        elements = enumerate_elements("P", n)
        for _ in range(20_000):
            yield rng.choice(elements), rng.choice(elements)
