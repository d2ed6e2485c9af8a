"""The index sweeps, kept as oracles for `monoidkit.pmonoid.check_presentation`
and `check_nc`, which settle every index from one fixed check.

`presentation_sweep` evaluates each defining relation word by word up to an
exponent bound, at a cost linear in the bound per relation;
`nc_sweep` runs the antichain conditions over every pair of indices up to a
bound, at a cost quadratic in it.
"""

import itertools

from monoidkit.pmonoid import PRESENTATION_BASE, PUNCTURE, nf_mul, nf_of_word


def presentation_relations(max_k):
    """The defining relation word pairs, with exponents up to max_k; words
    for exponent k have 4k+2 letters."""
    rels = list(PRESENTATION_BASE)
    for k in range(1, max_k + 1):
        gk, hk = "g" * k, "h" * k
        rels.append(("e" + gk + "e" + hk, gk + "e" + hk + "e"))
        rels.append(("e" + hk + "e" + gk, hk + "e" + gk + "e"))
    return rels


def presentation_sweep(max_k):
    return all(nf_of_word(lhs) == nf_of_word(rhs) for lhs, rhs in presentation_relations(max_k))


def _below(e, f):
    """e <= f in the natural order, for idempotents e and f."""
    return nf_mul(f, e) == e and nf_mul(e, f) == e


def nc_sweep(max_n):
    """The antichain conditions at every index up to max_n: e commutes with
    each up(k) = g^k e h^k and dn(k) = h^k e g^k, these are idempotents and
    one antichain, and e·up(n) is an idempotent below no up(k) with k < n
    and no dn(k) with k <= n."""
    e = PUNCTURE
    up = [None] + [nf_of_word("g" * k + "e" + "h" * k) for k in range(1, max_n + 1)]
    dn = [None] + [nf_of_word("h" * k + "e" + "g" * k) for k in range(1, max_n + 1)]
    if nf_of_word("hge") != e or nf_of_word("ehg") != e:
        return False
    for n in range(1, max_n + 1):
        if nf_mul(e, up[n]) != nf_mul(up[n], e) or nf_mul(e, dn[n]) != nf_mul(dn[n], e):
            return False
    family = up[1:] + dn[1:]
    if not all(nf_mul(x, x) == x for x in family):
        return False
    if any(_below(x, y) for x, y in itertools.permutations(family, 2)):
        return False
    for n in range(1, max_n + 1):
        eup = nf_mul(e, up[n])
        if nf_mul(eup, eup) != eup:
            return False
        if any(_below(eup, up[k]) for k in range(1, n)) or any(_below(eup, dn[k]) for k in range(1, n + 1)):
            return False
    return True
