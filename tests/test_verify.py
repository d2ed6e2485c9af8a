"""Every suite can fail: with one construction broken, its verdict turns to
FAIL and its detail says where, both from `run_suite` and on the CLI."""

import pytest

from monoidkit import verify
from monoidkit.cli import main
from monoidkit.ideals import MeetResult

real_embed, real_leq_R, real_leq_L, real_meet = verify.embed, verify.leq_R, verify.leq_L, verify.meet


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
    ],
    ids=["green-R", "green-L", "embeddings-PT->T", "embeddings-I->P", "meet-right-I",
         "meet-left-P", "meet-left-T", "meet-left-no-empty-T"],
)
def test_a_broken_construction_fails_its_suite(monkeypatch, capsys, name, patches, detail):
    for attribute, value in patches.items():
        monkeypatch.setattr(verify, attribute, value)
    result = verify.run_suite(name)
    assert (result.ok, result.detail) == (False, detail)
    code = main(["verify", name])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith(f"FAIL {name}: {detail} (") and out.count("\n") == 1
