import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import monoidkit
from monoidkit import cli
from monoidkit.cli import main
from monoidkit.ideals import MeetResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mul_partial_maps(capsys):
    code, out, _ = run(capsys, "mul", "--kind", "PT", "[2,2,_]", "[_,3,1]")
    assert code == 0 and out == "[3,3,_]\n"


def test_mul_nf(capsys):
    code, out, _ = run(capsys, "mul", "--kind", "NF", "{0};+0", "{};+1")
    assert code == 0 and out == "{0};+1\n"


def test_mul_words(capsys):
    code, out, _ = run(capsys, "mul", "--kind", "word", "ge", "ge")
    assert code == 0 and out == "{-2,-1};+2\n"


def test_green_true(capsys):
    code, out, _ = run(capsys, "green", "--kind", "PT", "--side", "R", "[1,_]", "[1,2]")
    assert code == 0 and out == "true\n"


def test_green_false_exit_code(capsys):
    code, out, _ = run(capsys, "green", "--kind", "T", "--side", "L", "[1,2]", "[1,1]")
    assert code == 1 and out == "false\n"


def test_green_oracle_witness(capsys):
    code, out, _ = run(capsys, "green", "--kind", "T", "--oracle", "[2,2]", "[1,1]")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "true"
    assert lines[1].startswith("witness\t")


def test_meet_empty(capsys):
    code, out, _ = run(capsys, "meet", "--kind", "P", "{1 2}{1'}{2'}", "{1}{2 2'}{1'}")
    assert code == 0 and out == "EMPTY\n"


def test_meet_with_verification(capsys):
    code, out, _ = run(capsys, "meet", "--kind", "PT", "--verify", "[1,2]", "[1,_]")
    assert code == 0
    assert out.splitlines() == ["[1,_]", "verified"]


def test_meet_left_side(capsys):
    code, out, _ = run(capsys, "meet", "--kind", "T", "--side", "L", "[1,1]", "[2,2]")
    assert code == 0 and out == "EMPTY\n"


def test_cong_close_classes_and_witness(capsys):
    code, out, _ = run(
        capsys, "cong-close", "--kind", "T", "--n", "2",
        "--pair", "[1,2]", "[1,1]", "--witness", "[2,1]", "[2,2]",
    )
    assert code == 0
    lines = out.splitlines()
    assert "[1,2]\t[1,1]" in lines
    assert "[2,1]\t[2,2]" in lines
    assert "witness\t1 steps" in lines
    assert "[1,2]\t[1,1]\t[2,1]" in lines


def test_cong_close_unrelated_witness(capsys):
    code, out, _ = run(
        capsys, "cong-close", "--kind", "T", "--n", "2",
        "--pair", "[1,2]", "[1,1]", "--witness", "[1,2]", "[2,1]",
    )
    assert code == 1
    assert "NOT-RELATED" in out


def test_cong_close_witness_refused_before_any_output(capsys):
    pair = ("--pair", "[1,2]", "[1,1]")
    code, out, err = run(
        capsys, "cong-close", "--kind", "T", "--n", "2", *pair, "--witness", "[1,2,3]", "[1,2,3]",
    )
    assert (code, out) == (2, "")
    assert err == "error: PartialMap([1,2,3]) is not an element of this monoid\n"
    code, out, err = run(
        capsys, "cong-close", "--kind", "T", "--n", "2", *pair, "--witness", "[1,x]", "[1,1]",
    )
    assert (code, out) == (2, "")
    assert err == "parse error: position 3: expected a digit\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("cong-close", "--kind", "T", "--n", "3", "--pair", "[1,2]", "[2,1]"),
         "error: pair ([1,2], [2,1]) does not live on 1..3\n"),
        (("annihilator", "--kind", "T", "--n", "2", "--elem", "[1,1]", "--pair", "[1,2,3]", "[1,1,1]"),
         "error: pair ([1,2,3], [1,1,1]) does not live on 1..2\n"),
    ],
    ids=["cong-close", "annihilator"],
)
def test_pair_off_the_ground_set_refused(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", message)


def test_green_oracle_reports_a_wrong_closed_form(capsys, monkeypatch):
    monkeypatch.setattr(cli, "leq_R", lambda kind, a, b: False)
    code, out, err = run(capsys, "green", "--kind", "T", "--oracle", "[2,2]", "[1,1]")
    assert (code, out, err) == (1, "false\n", "oracle-disagreement\n")


def test_meet_verify_reports_a_wrong_generator(capsys, monkeypatch):
    monkeypatch.setattr(cli, "meet", lambda kind, side, a, b: MeetResult.nothing())
    code, out, err = run(capsys, "meet", "--kind", "PT", "--verify", "[1,2]", "[1,_]")
    assert (code, out, err) == (1, "EMPTY\n", "oracle-disagreement\n")


def test_closed_pipe_ends_quietly():
    """A reader that closes the pipe after one line ends the command with
    exit code 1 and nothing on stderr, even with unbuffered output."""
    src = str(Path(monoidkit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "monoidkit", "verify", "all", "--seed", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=path),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert first.startswith(b"PASS presentation: ")
    assert (proc.returncode, err) == (1, b"")


def test_meet_left_on_t0_is_the_identity(capsys):
    code, out, _ = run(capsys, "meet", "--kind", "T", "--side", "L", "--verify", "[]", "[]")
    assert (code, out) == (0, "[]\nverified\n")


def test_annihilator_command(capsys):
    code, out, _ = run(capsys, "annihilator", "--kind", "T", "--n", "2", "--elem", "[1,1]")
    assert code == 0
    assert set(out.splitlines()) == {"[1,2]\t[1,1]", "[2,1]\t[2,2]"}


def test_negative_n_refused(capsys):
    code, out, err = run(capsys, "cong-close", "--kind", "T", "--n", "-1")
    assert (code, out, err) == (2, "", "error: n must be non-negative, got -1\n")
    code, out, err = run(capsys, "annihilator", "--kind", "I", "--n", "-2", "--elem", "[]")
    assert (code, out, err) == (2, "", "error: n must be non-negative, got -2\n")


def test_cong_close_smallest_n(capsys):
    assert run(capsys, "cong-close", "--kind", "T", "--n", "0") == (0, "[]\n", "")
    assert run(capsys, "cong-close", "--kind", "P", "--n", "1") == (0, "{1 1'}\n{1}{1'}\n", "")


def test_meet_left_verify_on_t5(capsys):
    code, out, _ = run(
        capsys, "meet", "--kind", "T", "--side", "L", "--verify", "[1,1,3,4,5]", "[2,2,3,4,5]"
    )
    assert (code, out) == (0, "[3,3,3,4,5]\nverified\n")


def test_green_left_oracle_on_t5(capsys):
    code, out, err = run(
        capsys, "green", "--kind", "T", "--side", "L", "--oracle", "[1,1,3,4,5]", "[2,2,3,4,5]"
    )
    assert (code, out, err) == (1, "false\n", "")


T8_CONST = "[1,1,1,1,1,1,1,1]"


def test_refused_oracle_carrier_prints_no_answer(capsys):
    code, out, err = run(capsys, "green", "--kind", "T", "--oracle", T8_CONST, T8_CONST)
    assert (code, out) == (2, "")
    assert err == "error: enumerating T_8 would produce 16777216 elements (cap 1000000)\n"


def test_refused_verify_carrier_prints_no_answer(capsys):
    code, out, err = run(
        capsys, "meet", "--kind", "T", "--side", "L", "--verify", T8_CONST, "[2,2,2,2,2,2,2,2]"
    )
    assert (code, out) == (2, "")
    assert err == "error: enumerating T_8 would produce 16777216 elements (cap 1000000)\n"


@pytest.mark.parametrize("n", [10**5, 10**7, 10**12])
@pytest.mark.parametrize("kind", ["T", "PT", "I", "P"])
def test_oversized_carrier_is_refused_without_counting_it(capsys, kind, n):
    """A count with millions of digits is neither worked out nor printed."""
    start = time.perf_counter()
    code, out, err = run(capsys, "cong-close", "--kind", kind, "--n", str(n))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith(f"error: enumerating {kind}_{n} would produce ")
    assert err.endswith(" (cap 1000000)\n") and "Exceeds the limit" not in err


def test_pmonoid_relations(capsys):
    code, out, _ = run(capsys, "pmonoid", "relations")
    assert code == 0 and out == "true\n"


def _refused_bound(capsys, *argv):
    """A bound that the command no longer takes, given last, is an unknown
    option: exit 2 and nothing on stdout."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err
    return err


def test_pmonoid_relations_large_bound_in_linear_time(capsys):
    # Words for exponent k have 4k+2 letters; the one fixed check covers
    # every k, so no bound is taken and the answer comes at once.
    start = time.perf_counter()
    _refused_bound(capsys, "pmonoid", "relations", "--max-k", "100000")
    code, out, _ = run(capsys, "pmonoid", "relations")
    assert code == 0 and out == "true\n"
    assert time.perf_counter() - start < 1


def test_pmonoid_nc(capsys):
    code, out, _ = run(capsys, "pmonoid", "nc")
    assert code == 0 and out == "true\n"


def test_pmonoid_ann_yes(capsys):
    code, out, _ = run(capsys, "pmonoid", "ann", "ge", "heg")
    assert (code, out) == (
        0,
        "yes n=1 side=h\n"
        "witness\t3 steps\n"
        "{};+0\t{0};+0\t{1};+0\n"
        "{1};-1\t{-1};+0\t{-1,0};+1\n"
        "{0};+0\t{};+0\t{-1};+1\n",
    )


def test_pmonoid_ann_g_side(capsys):
    code, out, _ = run(capsys, "pmonoid", "ann", "he", "geh")
    assert (code, out) == (
        0,
        "yes n=1 side=g\n"
        "witness\t3 steps\n"
        "{};+0\t{0};+0\t{-1};+0\n"
        "{-1};+1\t{1};+0\t{0,1};-1\n"
        "{0};+0\t{};+0\t{1};-1\n",
    )


def test_pmonoid_ann_no(capsys):
    code, out, _ = run(capsys, "pmonoid", "ann", "g", "")
    assert code == 1 and out == "no\n"


def test_pmonoid_ann_nf_literals(capsys):
    code, out, _ = run(capsys, "pmonoid", "ann", "--nf", "{};+0", "{0};+0")
    assert (code, out) == (0, "yes n=0\nwitness\t1 steps\n{0};+0\t{};+0\t{};+0\n")


def test_pmonoid_ann_twelve_digit_shift(capsys):
    code, out, _ = run(
        capsys, "pmonoid", "ann", "--nf", "{1000000000000};+0", "{-1000000000000};+1000000000000",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "yes n=1000000000000 side=g"
    assert lines[1] == "witness\t3 steps"
    assert len(lines) == 5


@pytest.mark.parametrize(
    "u,v",
    [("{ +5, -3 };2", "{-5,-08};+07"), ("{5,-3};+2", "{-5,-8};+7"), ("{-03,+5};+2", "{ -8,-5 };7")],
    ids=["spaces-signs-zeros", "unsorted", "signs-and-spaces"],
)
def test_pmonoid_ann_respelled_pair_prints_the_canonical_lines(capsys, u, v):
    """A pair given in canonical text, which the parser keeps as each
    element's text, and the same pair respelled, which goes to the item
    reader, print the same lines."""
    canonical = run(capsys, "pmonoid", "ann", "--nf", "{-3,5};+2", "{-8,-5};+7")
    assert canonical == (
        0,
        "yes n=5 side=g\n"
        "witness\t3 steps\n"
        "{};+0\t{0};+0\t{-8,-5};+7\n"
        "{-5};+5\t{5};+0\t{-3,0,5};+2\n"
        "{0};+0\t{};+0\t{-3,5};+2\n",
        "",
    )
    assert run(capsys, "pmonoid", "ann", "--nf", u, v) == canonical


def test_pmonoid_relations_negative_bound(capsys):
    _refused_bound(capsys, "pmonoid", "relations", "--max-k", "-5")


def test_pmonoid_nc_negative_bound(capsys):
    _refused_bound(capsys, "pmonoid", "nc", "--max-n", "-5")


@pytest.mark.parametrize(
    "argv,bound",
    [
        (("pmonoid", "nc", "--max-n", "201"), "max_n must be at most 200"),
        (("pmonoid", "relations", "--max-k", "100001"), "max_k must be at most 100000"),
        (("verify", "nc", "--max-n", "1000000000000"), "max_n must be at most 200"),
        (("verify", "presentation", "--max-k", "100001"), "max_k must be at most 100000"),
        (("verify", "all", "--max-n", "201"), "max_n must be at most 200"),
        (("verify", "presentation", "--max-n", "201"), "max_n must be at most 200"),
        (("verify", "nc", "--max-k", "100001"), "max_k must be at most 100000"),
    ],
)
def test_checker_bounds_past_their_cost_limit_refused(capsys, argv, bound):
    """Bounds once refused past their cost limit are refused as unknown
    options, with no limit named."""
    assert bound not in _refused_bound(capsys, *argv)


def _refused_removed_bound(capsys, flag):
    _refused_bound(capsys, "pmonoid", "chain", "--n", "3", flag, "0")


def test_pmonoid_chain_negative_length(capsys):
    _refused_removed_bound(capsys, "--max-length")


def test_pmonoid_chain_twelve_digit_y_index(capsys):
    code, out, _ = run(capsys, "pmonoid", "chain", "--n", "2", "--y-index", "1000000000000")
    assert code == 0
    assert out.splitlines() == ["n=2 y=1000000000000 reached=true class=4", "depth\t1"]


def test_pmonoid_chain_twelve_digit_n(capsys):
    code, out, _ = run(capsys, "pmonoid", "chain", "--n", "1000000000000")
    assert code == 0
    assert out == "n=1000000000000 y=999999999999 reached=false class=2\n"


def test_pmonoid_chain_zero_y_index(capsys):
    code, out, err = run(capsys, "pmonoid", "chain", "--n", "2", "--y-index", "0")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "y_index" in err


def test_pmonoid_chain_negative_magnitude(capsys):
    _refused_removed_bound(capsys, "--max-magnitude")


def test_pmonoid_chain_negative_excluded(capsys):
    _refused_removed_bound(capsys, "--max-excluded")


def test_verify_presentation_negative_bound(capsys):
    _refused_bound(capsys, "verify", "presentation", "--max-k", "-5")


def test_pmonoid_chain_report(capsys):
    code, out, _ = run(capsys, "pmonoid", "chain", "--n", "2")
    assert (code, out) == (0, "n=2 y=1 reached=false class=2\n")


def test_render_partition(capsys):
    code, out, _ = run(capsys, "render", "{1 2 1'}{2'}")
    assert code == 0
    assert out.startswith("graph partition {")
    assert "u1 -- u2;" in out


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "mul", "--kind", "PT", "[1,_")
    assert code == 2
    assert "position" in err


def test_semantic_error_exit_code(capsys):
    code, _, err = run(capsys, "render", "{1 2'}{2}")
    assert code == 2
    assert "missing" in err


def test_size_mismatch_exit_code(capsys):
    code, _, err = run(capsys, "mul", "--kind", "PT", "[1,2]", "[1,2,3]")
    assert code == 2


def test_usage_error_exit_code(capsys):
    assert main(["green", "--kind", "Z", "[1]", "[1]"]) == 2
    assert main(["no-such-command"]) == 2


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "embeddings")
    assert code == 0
    assert out.startswith("PASS embeddings:")


def test_verify_seeded_suite(capsys):
    code, out, _ = run(capsys, "verify", "star", "--seed", "7")
    assert code == 0
    assert out.startswith("PASS star:")


def test_verify_all_aggregates(capsys):
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 12
    assert all(line.startswith("PASS") for line in lines)


VERIFY_ALL_PASS = """\
PASS presentation: all defining relations hold for every k >= 1
PASS nc: antichain conditions hold for every index
PASS nf-mul: 10000 random pairs agree with pointwise evaluation on the integers (0 mismatches)
PASS meet-right: right meets exact on PT_3:4096, T_3:729, I_3:1156, P_2:225 pairs
PASS meet-left: left meets exact on PT_3:4096, T_3:729, I_3:1156, P_2:225 pairs; 42 empty T_3 intersections detected
PASS kappa: power-orbit congruence equals closure of (1,s) for 36 elements
PASS annihilators: 28 idempotent annihilators match closures; 64 regular annihilators match their idempotent's
PASS green: characterizations agree with multiplier search on 1084 pairs, both sides
PASS ann-decision: 1000 accepted pairs carry validating 3-step witnesses; 1000 rejections confirmed
PASS chain: n=2: blocked (2 states); n=3: blocked (2 states); n=4: blocked (2 states); n=5: blocked (2 states)
PASS embeddings: multiplicative on 81 PT_2 pairs and 49 I_2 pairs
PASS star: star laws hold on all 225 P_2 pairs and 1000 random P_3 pairs
"""


@pytest.mark.parametrize("seed", ["0", "1", "424242"])
def test_verify_all_pass_lines_are_pinned(capsys, seed):
    """Every suite's PASS line, its timing aside, is the same at each seed."""
    code, out, _ = run(capsys, "verify", "all", "--seed", seed)
    assert code == 0
    assert re.sub(r" \(\d+\.\d\ds\)$", "", out, flags=re.M) == VERIFY_ALL_PASS


def test_parse_error_at_end_of_text(capsys):
    code, out, err = run(capsys, "pmonoid", "ann", "--nf", "{};", "{};+0")
    assert (code, out, err) == (2, "", "parse error: position 3: expected a digit\n")


def test_non_ascii_digit_is_a_parse_error(capsys):
    code, out, err = run(capsys, "mul", "--kind", "PT", "[²]", "[1]")
    assert (code, out, err) == (2, "", "parse error: position 1: expected a digit\n")
