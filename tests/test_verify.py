"""Every suite can fail: with one construction broken, its verdict turns to
FAIL and its detail says where, both from `run_suite` and on the CLI.  The
seeded normal-form draw behind the randomized suites keeps its contract."""

import random
from collections import Counter

import pytest

from monoidkit import verify
from monoidkit.cli import main
from monoidkit.elements import Partition
from monoidkit.ideals import MeetResult
from monoidkit.pmonoid import NF, AnnihilatorVerdict, nf_mul, nf_window

real_embed, real_leq_R, real_leq_L, real_meet = verify.embed, verify.leq_R, verify.leq_L, verify.meet
real_nf_mul, real_chain_search = verify.nf_mul, verify.chain_search


def flipped(leq):
    return lambda kind, a, b: not leq(kind, a, b)


def squared(broken):
    """`embed`, squaring the image under one embedding: not multiplicative."""

    def embed(pair, x):
        y = real_embed(pair, x)
        return y * y if pair == broken else y

    return embed


def meet_on(kind, answer):
    """`meet`, answering `answer(a)` for one kind."""
    return lambda k, side, a, b: answer(a) if k == kind else real_meet(k, side, a, b)


def never_empty(kind, side, a, b):
    result = real_meet(kind, side, a, b)
    return MeetResult.found(a) if result.empty else result


@pytest.mark.parametrize(
    "name,patches,detail",
    [
        ("green", {"leq_R": flipped(real_leq_R)},
         "R disagreement at (PartialMap([1,2]), PartialMap([1,2])) in PT_2"),
        ("green", {"leq_L": flipped(real_leq_L)},
         "L disagreement at (PartialMap([1,2]), PartialMap([1,2])) in PT_2"),
        ("embeddings", {"embed": squared("PT->T")}, "PT->T breaks at (PartialMap([_,1]), PartialMap([2,_]))"),
        ("embeddings", {"embed": squared("I->P")}, "I->P breaks at (PartialMap([1,_]), PartialMap([2,1]))"),
        ("meet-right", {"meet": meet_on("I", lambda a: MeetResult.nothing())}, "1156 failures in I_3"),
        ("meet-left", {"meet": meet_on("P", MeetResult.found)}, "142 failures in P_2"),
        ("meet-left", {"meet": never_empty}, "42 failures in T_3"),
        ("meet-left", {"meet": never_empty, "verify_meet": lambda *args: True},
         "expected some empty intersections among total maps"),
        ("presentation", {"check_presentation": lambda max_k: False},
         "some defining relation fails for k <= 50"),
        ("nc", {"check_nc": lambda max_n: False}, "some antichain condition fails for indices <= 50"),
        ("nf-mul", {"nf_mul": lambda a, b: real_nf_mul(b, a)},
         "9534 of 10000 random pairs disagree with pointwise evaluation"),
        ("kappa", {"kappa": lambda S, s: verify.delta(S)}, "kappa mismatch at PartialMap([1,1,1]) in T_3"),
        ("annihilators", {"annihilator": lambda S, rho, a: verify.delta(S)},
         "annihilator of idempotent PartialMap([1,1,1]) in T_3 differs"),
        ("ann-decision", {"in_annihilator": lambda u, v: AnnihilatorVerdict(False)},
         "constructed pair rejected: (NF({-3}, -8), NF({3}, -11))"),
        ("chain", {"chain_search": lambda n, **bounds: real_chain_search(n, **bounds)._replace(reached=True)},
         "target for n=2 reached under Y_1 within bounds"),
        ("star", {(Partition, "star"): lambda self: self},
         "involution/sandwich law fails at Partition(2, '{1}{2 1'}{2'}')"),
    ],
    ids=["green-R", "green-L", "embeddings-PT->T", "embeddings-I->P", "meet-right-I",
         "meet-left-P", "meet-left-T", "meet-left-no-empty-T", "presentation", "nc", "nf-mul",
         "kappa", "annihilators", "ann-decision", "chain", "star"],
)
def test_a_broken_construction_fails_its_suite(monkeypatch, capsys, name, patches, detail):
    """Each patch replaces a name in `verify`, or an (owner, name) attribute."""
    for key, value in patches.items():
        owner, attribute = key if isinstance(key, tuple) else (verify, key)
        monkeypatch.setattr(owner, attribute, value)
    result = verify.run_suite(name)
    assert (result.ok, result.detail) == (False, detail)
    code = main(["verify", name])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith(f"FAIL {name}: {detail} (") and out.count("\n") == 1


def test_an_unknown_suite_is_refused():
    with pytest.raises(ValueError, match=r"^unknown suite 'nope' \(expected one of presentation, nc, nf-mul, "):
        verify.run_suite("nope")


@pytest.mark.parametrize("seed", [1, 424242])
def test_swapped_operands_break_most_nf_mul_pairs(monkeypatch, seed):
    """b*a for a*b disagrees on most random pairs, whichever pairs a seed draws."""
    monkeypatch.setattr(verify, "nf_mul", lambda a, b: real_nf_mul(b, a))
    result = verify.run_suite("nf-mul", seed=seed)
    bad, rest = result.detail.split(" of ", 1)
    assert not result.ok and rest == "10000 random pairs disagree with pointwise evaluation"
    assert int(bad) > 9000


def _window_check(a, b, half=100):
    """The windowed referee: p passes when a's and b's restrictions to
    [-100, 100], composed in I_201, agree with p's on the points whose images
    no shift pushes out."""
    margin = abs(a.shift) + abs(b.shift)
    interior = slice(margin, 2 * half - margin + 1)
    composed = (nf_window(a, half) * nf_window(b, half)).images[interior]
    return lambda p: composed == nf_window(p, half).images[interior]


MUTANT_PRODUCTS = {
    "swapped operands": lambda a, b: nf_mul(b, a),
    "b's punctures dropped": lambda a, b: nf_mul(a, NF((), b.shift)),
    "shift +1": lambda a, b: NF(nf_mul(a, b).excluded, a.shift + b.shift + 1),
    "+s_a for -s_a": lambda a, b: NF(tuple(sorted({*a.excluded, *[x + a.shift for x in b.excluded]})),
                                     a.shift + b.shift),
}


def test_pointwise_referee_rejects_what_the_windows_reject(monkeypatch):
    """At seed 0, under each mutant, the referee rejects exactly the pairs the
    windowed check rejects, and the suite counts them."""
    rng = random.Random(0)
    pairs = [(verify._random_nf(rng, 4, 20), verify._random_nf(rng, 4, 20)) for _ in range(10_000)]
    checks = [(a, b, _window_check(a, b)) for a, b in pairs]
    rejected = {}
    for name, product in MUTANT_PRODUCTS.items():
        monkeypatch.setattr(verify, "nf_mul", product)
        detail = verify.run_suite("nf-mul", seed=0).detail
        by_windows = [i for i, (a, b, check) in enumerate(checks) if not check(product(a, b))]
        pointwise = [i for i, (a, b) in enumerate(pairs) if not verify._is_product(a, b, product(a, b))]
        assert pointwise == by_windows, name
        assert detail == f"{len(by_windows)} of 10000 random pairs disagree with pointwise evaluation", name
        rejected[name] = len(by_windows)
    assert rejected == {"swapped operands": 9534, "b's punctures dropped": 7869,
                        "shift +1": 10000, "+s_a for -s_a": 7761}


def _far_nf(rng):
    """Up to 4 punctures and a shift, each within 50 of -10**12 or 10**12."""

    def coord():
        return rng.choice((-1, 1)) * 10**12 + rng.randint(-50, 50)

    return NF(tuple(sorted({coord() for _ in range(rng.randint(0, 4))})), coord())


def test_pointwise_referee_is_exact_past_any_window():
    """Products with coordinates near ±10**12 pass; their mutants fail."""
    rng = random.Random(26)
    for _ in range(2000):
        a, b = _far_nf(rng), _far_nf(rng)
        assert verify._is_product(a, b, nf_mul(a, b)), (a, b)
        for name, product in MUTANT_PRODUCTS.items():
            if product(a, b) != nf_mul(a, b):
                assert not verify._is_product(a, b, product(a, b)), (name, a, b)


@pytest.mark.parametrize("s,t", [(0, 0), (3, -3), (-7, 2), (10**12, 1)])
def test_pointwise_referee_sees_a_shift_off_by_one_on_bare_operands(s, t):
    """With no punctures the critical set is empty, so only the point past it
    tells x -> x + s + t from x -> x + s + t + 1."""
    a, b = NF((), s), NF((), t)
    assert verify._is_product(a, b, NF((), s + t))
    assert not verify._is_product(a, b, NF((), s + t + 1))
    assert not verify._is_product(a, b, NF((), s + t - 1))


@pytest.mark.parametrize("max_excluded,max_coord", [(4, 20), (3, 10)])
def test_random_nf_draw_contract(max_excluded, max_coord):
    """Seeded, strictly increasing punctures in [-c, c], k uniform on
    0..max_excluded, and every coordinate drawn as a puncture and a shift."""
    draw_count = 5000
    rngs = random.Random(11), random.Random(11)
    draws = [verify._random_nf(rngs[0], max_excluded, max_coord) for _ in range(draw_count)]
    assert draws == [verify._random_nf(rngs[1], max_excluded, max_coord) for _ in range(draw_count)]
    coords = range(-max_coord, max_coord + 1)
    for a in draws:
        assert all(x < y for x, y in zip(a.excluded, a.excluded[1:])), a
        assert all(x in coords for x in a.excluded) and a.shift in coords, a
    sizes = Counter(len(a.excluded) for a in draws)
    share = draw_count / (max_excluded + 1)
    assert set(sizes) == set(range(max_excluded + 1))
    assert all(0.8 * share <= sizes[k] <= 1.2 * share for k in sizes), sizes
    assert {x for a in draws for x in a.excluded} == set(coords)
    assert {a.shift for a in draws} == set(coords)
