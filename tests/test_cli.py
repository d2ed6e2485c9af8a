import time

import pytest

from monoidkit.cli import main


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


def test_pmonoid_relations(capsys):
    code, out, _ = run(capsys, "pmonoid", "relations", "--max-k", "10")
    assert code == 0 and out == "true\n"


def test_pmonoid_relations_large_bound_in_linear_time(capsys):
    # Words for exponent k have 4k+2 letters; the closed-form relations do
    # not, so 200,000 relations take seconds rather than hours.
    start = time.perf_counter()
    code, out, _ = run(capsys, "pmonoid", "relations", "--max-k", "100000")
    assert code == 0 and out == "true\n"
    assert time.perf_counter() - start < 30


def test_pmonoid_nc(capsys):
    code, out, _ = run(capsys, "pmonoid", "nc", "--max-n", "10")
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


def test_pmonoid_relations_negative_bound(capsys):
    code, out, err = run(capsys, "pmonoid", "relations", "--max-k", "-5")
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_pmonoid_nc_negative_bound(capsys):
    code, out, err = run(capsys, "pmonoid", "nc", "--max-n", "-5")
    assert code == 2 and out == ""
    assert err.startswith("error:")


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
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bound}, got ")


def test_pmonoid_chain_negative_length(capsys):
    code, out, err = run(capsys, "pmonoid", "chain", "--n", "3", "--max-length", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_pmonoid_chain_twelve_digit_y_index(capsys):
    code, out, _ = run(capsys, "pmonoid", "chain", "--n", "2", "--y-index", "1000000000000")
    assert code == 0
    assert out.splitlines() == [
        "n=2 y=1000000000000 reached=true explored=2 pruned=0 bounds=|E|<=4,mag<=6,len<=8",
        "depth\t1",
    ]


def test_pmonoid_chain_twelve_digit_n(capsys):
    code, out, _ = run(capsys, "pmonoid", "chain", "--n", "1000000000000")
    assert code == 0
    assert out == (
        "n=1000000000000 y=999999999999 reached=false explored=2 pruned=0 "
        "bounds=|E|<=1000000000002,mag<=3000000000000,len<=8\n"
    )


def test_pmonoid_chain_zero_y_index(capsys):
    code, out, err = run(capsys, "pmonoid", "chain", "--n", "2", "--y-index", "0")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "y_index" in err


def test_pmonoid_chain_negative_magnitude(capsys):
    code, out, err = run(capsys, "pmonoid", "chain", "--n", "2", "--max-magnitude", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "max_magnitude" in err


def test_pmonoid_chain_negative_excluded(capsys):
    code, out, err = run(capsys, "pmonoid", "chain", "--n", "2", "--max-excluded", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "max_excluded" in err


def test_verify_presentation_negative_bound(capsys):
    code, out, err = run(capsys, "verify", "presentation", "--max-k", "-5")
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_pmonoid_chain_report(capsys):
    code, out, _ = run(
        capsys, "pmonoid", "chain", "--n", "2", "--max-excluded", "3", "--max-magnitude", "6",
    )
    assert code == 0
    assert out.startswith("n=2 y=1 reached=false explored=")
    assert "bounds=|E|<=3,mag<=6,len<=8" in out


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


def test_parse_error_at_end_of_text(capsys):
    code, out, err = run(capsys, "pmonoid", "ann", "--nf", "{};", "{};+0")
    assert (code, out, err) == (2, "", "parse error: position 3: expected a digit\n")


def test_non_ascii_digit_is_a_parse_error(capsys):
    code, out, err = run(capsys, "mul", "--kind", "PT", "[²]", "[1]")
    assert (code, out, err) == (2, "", "parse error: position 1: expected a digit\n")
