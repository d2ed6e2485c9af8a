"""The annihilator decision by products, kept as the oracle for
`monoidkit.pmonoid.in_annihilator` and `annihilator_witness`, which decide
from C(u) = ({0} ∪ E_u) + s_u and make no product.

`annihilator_decision` multiplies e·u and e·v and compares e·v with e·u
moved by the one candidate shift; `in_annihilator` and
`annihilator_witness` read their answers off it, the witness taking its
middle multiplier from the product e·u.
"""

from monoidkit.congruence import YSequence
from monoidkit.pmonoid import NF_IDENTITY, PUNCTURE, AnnihilatorVerdict, _y_pair, nf_mul


def annihilator_decision(u, v):
    """(e·u, e·v, d, member) for the pair (u, v), from two products."""
    eu = nf_mul(PUNCTURE, u)
    ev = nf_mul(PUNCTURE, v)
    d = ev.shift - eu.shift
    moved = tuple([x - d for x in eu.excluded]) if d else eu.excluded
    return eu, ev, d, ev.excluded == moved


def in_annihilator(u, v):
    _, _, d, member = annihilator_decision(u, v)
    if not member:
        return AnnihilatorVerdict(False)
    return AnnihilatorVerdict(True, abs(d), "g" if d > 0 else "h" if d < 0 else None)


def annihilator_witness(u, v):
    eu, ev, d, member = annihilator_decision(u, v)
    if not member:
        raise ValueError("pair is not in the annihilator relation")
    e, one = PUNCTURE, NF_IDENTITY
    if d == 0:
        if v == eu:
            steps = ((e, one, u),)
        elif u == ev:
            steps = ((one, e, v),)
        else:
            steps = ((one, e, v), (e, one, u))
    else:
        steps = ((one, e, v), (*_y_pair(d), eu), (e, one, u))
    return YSequence(v, u, steps)
