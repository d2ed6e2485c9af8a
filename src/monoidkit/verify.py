"""Verification suites: every construction in the library checked against an
independent brute-force oracle at finite scale.

Each suite is a body returning (ok, detail), registered in SUITES by the
`suite` decorator, which times it and wraps the outcome in a SuiteResult.
Suites are deterministic; those that sample randomly take an explicit seed.
The CLI `verify` subcommand and the acceptance test module both run these.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import namedtuple
from functools import lru_cache, wraps

from .congruence import (
    FiniteMonoid,
    RightCongruence,
    annihilator,
    kappa,
    rc_close,
)
from .elements import embed, enumerate_elements
from .ideals import meet, verify_meet
from .order import generalized_inverses, leq_L, leq_R, leq_oracle
from .pmonoid import (
    NF,
    PUNCTURE,
    SHIFT_DOWN,
    SHIFT_UP,
    chain_search,
    check_nc,
    check_presentation,
    annihilator_witness,
    divide_left,
    in_annihilator,
    nf_mul,
    nf_power,
    y_class,
    y_n,
)


class SuiteResult(namedtuple("SuiteResult", "name ok detail seconds")):
    __slots__ = ()

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}: {self.detail} ({self.seconds:.2f}s)"


@lru_cache(maxsize=None)
def cached_monoid(kind: str, n: int) -> FiniteMonoid:
    return FiniteMonoid.full(kind, n)


def delta(S: FiniteMonoid) -> RightCongruence:
    """The equality congruence on S."""
    return RightCongruence(S, range(len(S)))


def _random_nf(rng, max_excluded, max_coord) -> NF:
    """k uniform on 0..max_excluded, then k distinct punctures (a repeat is
    redrawn, so each k-subset is equally likely) and a shift, each uniform on
    [-max_coord, max_coord]; sorted, the punctures need no re-validation."""
    random = rng.random
    span = 2 * max_coord + 1
    k = int(random() * (max_excluded + 1))
    excluded = set()
    while len(excluded) < k:
        excluded.add(int(random() * span) - max_coord)
    return NF._from_internal(tuple(sorted(excluded)), int(random() * span) - max_coord)


# --- suite bodies ---------------------------------------------------------

SUITES = {}


def suite(name):
    """Register a suite body under `name`, in definition order.

    The registered callable takes the body's arguments, times the body and
    returns its (ok, detail) outcome as a SuiteResult.  Its `takes_seed`
    says whether the body takes a seed.
    """

    def register(body):
        @wraps(body)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            ok, detail = body(*args, **kwargs)
            return SuiteResult(name, ok, detail, time.perf_counter() - start)

        code = body.__code__
        timed.takes_seed = "seed" in code.co_varnames[:code.co_argcount]
        SUITES[name] = timed
        return timed

    return register


@suite("presentation")
def suite_presentation():
    if check_presentation():
        return True, "all defining relations hold for every k >= 1"
    return False, "some defining relation fails"


@suite("nc")
def suite_nc():
    if check_nc():
        return True, "antichain conditions hold for every index"
    return False, "some antichain condition fails"


def _is_product(a: NF, b: NF, p: NF) -> bool:
    """Whether p is a·b as maps on the integers, from the definition alone.

    Off the finite critical set E_a ∪ (E_b - s_a) ∪ E_p both are the
    translations by s_a + s_b and by s_p, so they agree on ℤ exactly when those
    agree and each x in the set is mapped by both (x ∉ E_a, x + s_a ∉ E_b) or neither.
    """
    s, ea, eb, ep = a.shift, a.excluded, b.excluded, p.excluded
    if s + b.shift != p.shift:
        return False
    for x in {*ea, *[y - s for y in eb], *ep}:
        if (x in ea or x + s in eb) is not (x in ep):
            return False
    return True


@suite("nf-mul")
def suite_nf_mul(seed: int = 0):
    """The product rule against pointwise evaluation of a·b on the integers."""
    pair_count = 10_000
    rng = random.Random(seed)
    bad = 0
    for _ in range(pair_count):
        a = _random_nf(rng, 4, 20)
        b = _random_nf(rng, 4, 20)
        bad += not _is_product(a, b, nf_mul(a, b))
    if bad:
        return False, f"{bad} of {pair_count} random pairs disagree with pointwise evaluation"
    return True, f"{pair_count} random pairs agree with pointwise evaluation on the integers (0 mismatches)"


_MEET_CARRIERS = (("PT", 3), ("T", 3), ("I", 3), ("P", 2))


def _meets_exact(side):
    """Every meet on the carriers against brute force; left meets must also
    find some empty intersections among total maps."""
    counts = []
    empty_total_maps = 0
    for kind, n in _MEET_CARRIERS:
        S = cached_monoid(kind, n)
        bad = 0
        for a, b in itertools.product(S.elements, repeat=2):
            result = meet(kind, side, a, b)
            if kind == "T" and result.empty:
                empty_total_maps += 1
            if not verify_meet(S, a, b, result, side):
                bad += 1
        counts.append(f"{kind}_{n}:{len(S) ** 2}")
        if bad:
            return False, f"{bad} failures in {kind}_{n}"
    if side == "R":
        return True, "right meets exact on " + ", ".join(counts) + " pairs"
    if empty_total_maps == 0:
        return False, "expected some empty intersections among total maps"
    return True, (
        "left meets exact on " + ", ".join(counts)
        + f" pairs; {empty_total_maps} empty T_3 intersections detected"
    )


@suite("meet-right")
def suite_meet_right():
    return _meets_exact("R")


@suite("meet-left")
def suite_meet_left():
    return _meets_exact("L")


@suite("kappa")
def suite_kappa():
    checked = 0
    for kind, n in (("T", 3), ("PT", 2)):
        S = cached_monoid(kind, n)
        one = S.elements[0]
        for s in S.elements:
            if kappa(S, s).eqrel != rc_close(S, [(one, s)]).eqrel:
                return False, f"kappa mismatch at {s!r} in {kind}_{n}"
            checked += 1
    return True, f"power-orbit congruence equals closure of (1,s) for {checked} elements"


@suite("annihilators")
def suite_annihilators():
    idem_checked = 0
    for kind, n in (("T", 3), ("PT", 2), ("P", 2)):
        S = cached_monoid(kind, n)
        one = S.elements[0]
        d = delta(S)
        for i in S.idempotent_idxs():
            e = S.elements[i]
            if annihilator(S, d, e).eqrel != rc_close(S, [(one, e)]).eqrel:
                return False, f"annihilator of idempotent {e!r} in {kind}_{n} differs"
            idem_checked += 1
    S = cached_monoid("PT", 3)
    d = delta(S)
    reg_checked = 0
    for a in S.elements:
        inverses = generalized_inverses(S, a)
        if not inverses:
            return False, f"{a!r} unexpectedly not regular in PT_3"
        e = inverses[0] * a
        if annihilator(S, d, a).eqrel != annihilator(S, d, e).eqrel:
            return False, f"r(a) != r(ba) for {a!r}"
        reg_checked += 1
    return True, (
        f"{idem_checked} idempotent annihilators match closures; "
        f"{reg_checked} regular annihilators match their idempotent's"
    )


_GREEN_CARRIERS = (("PT", 2), ("T", 3), ("I", 2), ("P", 2))


@suite("green")
def suite_green():
    total = 0
    for kind, n in _GREEN_CARRIERS:
        S = cached_monoid(kind, n)
        for a, b in itertools.product(S.elements, repeat=2):
            for side, leq in (("R", leq_R), ("L", leq_L)):
                if leq(kind, a, b) != leq_oracle(S, a, b, side).holds:
                    return False, f"{side} disagreement at ({a!r}, {b!r}) in {kind}_{n}"
            total += 1
    return True, f"characterizations agree with multiplier search on {total} pairs, both sides"


def _accepted_annihilator_pair(rng):
    """A random pair that is in the relation with exponent >= 1, by design."""
    while True:
        u = _random_nf(rng, 3, 10)
        options = [("g", x) for x in u.excluded if x > 0]
        options += [("h", -x) for x in u.excluded if x < 0]
        if options:
            break
    side, n = rng.choice(options)
    power = nf_power(SHIFT_UP if side == "g" else SHIFT_DOWN, n)
    target = nf_mul(power, nf_mul(PUNCTURE, u))
    ex_v = set(target.excluded)
    if rng.random() < 0.5:
        ex_v.discard(0)
    return u, NF(tuple(sorted(ex_v)), target.shift)


@suite("ann-decision")
def suite_ann_decision(seed: int = 0):
    count = 1000
    rng = random.Random(seed + 9)
    level = lru_cache(maxsize=None)(lambda n: frozenset(y_n(n)))
    for _ in range(count):
        u, v = _accepted_annihilator_pair(rng)
        verdict = in_annihilator(u, v)
        if not verdict.member or verdict.n < 1:
            return False, f"constructed pair rejected: ({u!r}, {v!r})"
        witness = annihilator_witness(u, v)
        if not witness.validate(nf_mul):
            return False, f"witness fails for ({u!r}, {v!r})"
        if len(witness) != 3 or not witness.uses_only(level(verdict.n)):
            return False, f"witness not a 3-step chain over Y_{verdict.n}"
    rejected = 0
    while rejected < count:
        u = _random_nf(rng, 3, 10)
        v = _random_nf(rng, 3, 10)
        if in_annihilator(u, v).member:
            continue
        rejected += 1
        # `_is_product` refuses every x whose shift is not diff, so no power
        # of g or h but the candidate could map e·u to e·v.
        eu, ev = nf_mul(PUNCTURE, u), nf_mul(PUNCTURE, v)
        diff = ev.shift - eu.shift
        candidate = nf_power(SHIFT_UP if diff >= 0 else SHIFT_DOWN, abs(diff))
        if _is_product(candidate, eu, ev):
            return False, f"rejected pair actually satisfies its candidate: ({u!r}, {v!r})"
    return True, f"{count} accepted pairs carry validating 3-step witnesses; {count} rejections confirmed"


@suite("chain")
def suite_chain():
    """The closed-form Y_{n-1}-class of g^n·e, confirmed closed under every
    step of Y_{n-1} by products alone: each directed pair (c, d), each t
    with c·t a member, and d·t is a member too."""
    details = []
    for n in range(2, 6):
        start, target = NF((-n,), n), NF((n,), 0)  # g^n·e and h^n·e·g^n
        members = y_class(start, n - 1)
        for w in members:
            for pair in y_n(n - 1):
                for c, d in (pair, pair[::-1]):
                    for x in [nf_mul(d, t) for t in divide_left(c, w)]:
                        if x not in members:
                            return False, f"Y_{n - 1}-class of g^{n}·e not closed: {w!r} steps to {x!r}"
        report = chain_search(n)
        if report.reached or target in members:
            return False, f"target for n={n} reached under Y_{n - 1}"
        if report.explored != len(members):
            return False, f"chain_search for n={n} counts {report.explored} states, the class {len(members)}"
        direct = chain_search(n, y_index=n)
        if not direct.reached or direct.depth != 1:
            return False, f"target for n={n} not reached in one step under Y_{n}"
        details.append(f"n={n}: blocked ({report.explored} states)")
    return True, "; ".join(details)


@suite("embeddings")
def suite_embeddings():
    counts = []
    for pair, kind in (("PT->T", "PT"), ("I->P", "I")):
        elements = enumerate_elements(kind, 2)
        for a, b in itertools.product(elements, repeat=2):
            if embed(pair, a * b) != embed(pair, a) * embed(pair, b):
                return False, f"{pair} breaks at ({a!r}, {b!r})"
        counts.append(f"{len(elements) ** 2} {kind}_2 pairs")
    return True, "multiplicative on " + " and ".join(counts)


@suite("star")
def suite_star(seed: int = 0):
    """Stars are computed once per carrier, and an element's own laws checked at its first draw."""
    sample = 1000
    p2 = enumerate_elements("P", 2)
    stars = {a: a.star() for a in p2}
    for a in p2:
        if stars[a].star() != a or a * stars[a] * a != a:
            return False, f"involution/sandwich law fails at {a!r}"
    for a, b in itertools.product(p2, repeat=2):
        if stars[a * b] != stars[b] * stars[a]:
            return False, f"anti-morphism fails at ({a!r}, {b!r})"
    rng = random.Random(seed + 12)
    p3 = enumerate_elements("P", 3)
    stars, seen = {a: a.star() for a in p3}, set()
    for _ in range(sample):
        a, b = rng.choice(p3), rng.choice(p3)
        a_star, first = stars[a], a not in seen
        if stars[a * b] != stars[b] * a_star or first and a_star.star() != a:
            return False, f"star law fails at ({a!r}, {b!r})"
        if first and a * a_star * a != a:
            return False, f"sandwich law fails at {a!r}"
        seen.add(a)
    return True, f"star laws hold on all {len(p2) ** 2} P_2 pairs and {sample} random P_3 pairs"


def run_suite(name: str, seed: int = 0) -> SuiteResult:
    """Run one registered suite, passing it the seed if it takes one."""
    fn = SUITES.get(name)
    if fn is None:
        raise ValueError(f"unknown suite {name!r} (expected one of {', '.join(SUITES)})")
    return fn(seed=seed) if fn.takes_seed else fn()
