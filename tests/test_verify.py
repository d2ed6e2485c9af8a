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
from monoidkit.pmonoid import AnnihilatorVerdict

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
         "9534 of 10000 random pairs disagree on window interiors"),
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
    assert not result.ok and rest == "10000 random pairs disagree on window interiors"
    assert int(bad) > 9000


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
