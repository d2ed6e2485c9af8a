import argparse
import hashlib
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


class Usage(str):
    """An argparse error.  The usage text depends on the Python version and
    the terminal width, so a row pins only this fragment of the one error
    line that follows the usage block."""


class Md5(str):
    """The md5 hex digest of a stdout too long to keep in the table."""


class Pin:
    """One CLI invocation: its argv, exit code, exact stdout and stderr, and
    a wall-clock budget in seconds."""

    def __init__(self, *argv, code=0, out="", err="", budget=30):
        self.argv, self.code, self.out, self.err, self.budget = argv, code, out, err, budget


def parse_error(message, *argv):
    return Pin(*argv, code=2, err=f"parse error: {message}\n")


def unknown_option(*argv):
    """An option the command does not take, given as the last two words."""
    return Pin(*argv, code=2, err=Usage("unrecognized arguments: " + " ".join(argv[-2:])))


TIMING = re.compile(r" \(\d+\.\d\ds\)$", re.M)
USAGE_ERROR = re.compile(r"usage: .*\n(?: .*\n)*monoidkit.*: error: (.*)\n")


def check_row(capsys, row):
    start = time.perf_counter()
    code, out, err = run(capsys, *row.argv)
    assert time.perf_counter() - start < row.budget, row.argv
    if row.argv[0] == "verify":
        out = TIMING.sub("", out)  # each suite's line ends with its wall time
    if isinstance(row.out, Md5):
        out = hashlib.md5(out.encode()).hexdigest()
    if isinstance(row.err, Usage):
        usage_error = USAGE_ERROR.fullmatch(err)
        if usage_error and row.err in usage_error[1]:
            err = row.err
    assert (code, out, err) == (row.code, row.out, row.err), row.argv


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

ANN_PAIR = (
    "yes n=5 side=g\n"
    "witness\t3 steps\n"
    "{};+0\t{0};+0\t{-8,-5};+7\n"
    "{-5};+5\t{5};+0\t{-3,0,5};+2\n"
    "{0};+0\t{};+0\t{-3,5};+2\n"
)
T8_CONST = "[1,1,1,1,1,1,1,1]"
T8_REFUSED = "error: enumerating T_8 would produce 16777216 elements (cap 1000000)\n"
LONG = "1" * 5000

# The CLI's byte pins.  A key is a test's name as pytest reports it, so each
# case keeps the name that `pytest -k` and earlier reports use; its value is a
# row, a list of rows checked in turn, or rows by test id.  To add a row, run
# the command on the tree before the change and paste the bytes it prints.
PINS = {
    # mul
    "test_mul_partial_maps": Pin("mul", "--kind", "PT", "[2,2,_]", "[_,3,1]", out="[3,3,_]\n"),
    "test_mul_nf": Pin("mul", "--kind", "NF", "{0};+0", "{};+1", out="{0};+1\n"),
    "test_mul_words": Pin("mul", "--kind", "word", "ge", "ge", out="{-2,-1};+2\n"),
    "test_nf_products": {
        "identity-left": Pin("mul", "--kind", "NF", "{};+0", "{-3,5};+2", out="{-3,5};+2\n", budget=5),
        "identity-right": Pin("mul", "--kind", "NF", "{-3,5};+2", "{};+0", out="{-3,5};+2\n", budget=5),
        "puncture": Pin("mul", "--kind", "NF", "{0};+0", "{-3,5};+2", out="{-3,0,5};+2\n", budget=5),
        "negative-shift": Pin("mul", "--kind", "NF", "{4};-1", "{-3,5};+2", out="{-2,4,6};+1\n", budget=5),
        "three-factors": Pin(
            "mul", "--kind", "NF", "{-2,1};+3", "{0,7};-4", "{5};+1", out="{-3,-2,1,4,6};+0\n", budget=5
        ),
        "bare-shift": Pin("mul", "--kind", "NF", "{};+3", "{-1,2};-3", out="{-4,-1};+0\n", budget=5),
        "words": Pin("mul", "--kind", "word", "gehge", "hhegg", out="{-1,1};+1\n", budget=5),
    },
    "test_respelled_input_prints_canonically": {
        "partition-point-order": Pin("mul", "--kind", "P", "{2' 1}{1' 2}", out="{1 2'}{2 1'}\n"),
        "partition-block-order": Pin(
            "mul", "--kind", "P", "{3' 3}{2 1'}{2'}{1}", "{1 1'}{2 2'}{3 3'}", out="{1}{2 1'}{3 3'}{2'}\n"
        ),
        "map-spaces-zeros": Pin("mul", "--kind", "PT", "[ 2, 01,_ ]", "[1,2,3]", out="[2,1,_]\n"),
        "partial-injection": Pin("mul", "--kind", "I", "[_,1]", "[2,_]", out="[_,2]\n"),
        "partition-double-space": Pin("mul", "--kind", "P", "{1  1'}{2 2'}", out="{1 1'}{2 2'}\n"),
        "partition-leading-zero": Pin("mul", "--kind", "P", "{01 1'}", out="{1 1'}\n"),
        "partition-long-numeral": parse_error(
            "position 1: numeral too long", "mul", "--kind", "P", "{" + LONG + " 1'}"
        ),
    },
    # green
    "test_green_true": Pin("green", "--kind", "PT", "--side", "R", "[1,_]", "[1,2]", out="true\n"),
    "test_green_false_exit_code": Pin(
        "green", "--kind", "T", "--side", "L", "[1,2]", "[1,1]", code=1, out="false\n"
    ),
    "test_green_oracle_witness": Pin(
        "green", "--kind", "T", "--oracle", "[2,2]", "[1,1]", out="true\nwitness\t[2,1]\n"
    ),
    "test_green_left_oracle_on_t5": Pin(
        "green", "--kind", "T", "--side", "L", "--oracle", "[1,1,3,4,5]", "[2,2,3,4,5]", code=1, out="false\n"
    ),
    "test_refused_oracle_carrier_prints_no_answer": Pin(
        "green", "--kind", "T", "--oracle", T8_CONST, T8_CONST, code=2, err=T8_REFUSED
    ),
    # meet
    "test_meet_empty": Pin("meet", "--kind", "P", "{1 2}{1'}{2'}", "{1}{2 2'}{1'}", out="EMPTY\n"),
    "test_meet_with_verification": Pin(
        "meet", "--kind", "PT", "--verify", "[1,2]", "[1,_]", out="[1,_]\nverified\n"
    ),
    "test_meet_left_side": Pin("meet", "--kind", "T", "--side", "L", "[1,1]", "[2,2]", out="EMPTY\n"),
    "test_meet_left_on_t0_is_the_identity": Pin(
        "meet", "--kind", "T", "--side", "L", "--verify", "[]", "[]", out="[]\nverified\n"
    ),
    "test_meet_left_verify_on_t5": Pin(
        "meet", "--kind", "T", "--side", "L", "--verify", "[1,1,3,4,5]", "[2,2,3,4,5]",
        out="[3,3,3,4,5]\nverified\n",
    ),
    "test_refused_verify_carrier_prints_no_answer": Pin(
        "meet", "--kind", "T", "--side", "L", "--verify", T8_CONST, "[2,2,2,2,2,2,2,2]", code=2, err=T8_REFUSED
    ),
    "test_oracles_on_t5_pt5_p4": {
        "green-T5-L": Pin(
            "green", "--kind", "T", "--side", "L", "--oracle", "[1,1,3,4,5]", "[2,1,3,4,5]",
            out="true\nwitness\t[2,2,3,4,5]\n",
        ),
        "green-T5-R": Pin(
            "green", "--kind", "T", "--oracle", "[1,1,3,4,5]", "[2,1,3,4,5]", out="true\nwitness\t[1,1,3,4,5]\n"
        ),
        "meet-PT5-L": Pin(
            "meet", "--kind", "PT", "--side", "L", "--verify", "[1,_,3,4,5]", "[2,1,_,4,5]",
            out="[1,_,_,4,5]\nverified\n",
        ),
        "meet-PT5-R": Pin(
            "meet", "--kind", "PT", "--verify", "[1,1,_,4,5]", "[2,2,3,_,5]", out="[1,1,_,_,5]\nverified\n"
        ),
        "green-P4-L": Pin(
            "green", "--kind", "P", "--side", "L", "--oracle",
            "{1 1'}{2}{3 3'}{4 4'}{2'}", "{1 1'}{2 2'}{3 3'}{4 4'}",
            out="true\nwitness\t{1 1'}{2}{3 3'}{4 4'}{2'}\n",
        ),
        "meet-P4-L": Pin(
            "meet", "--kind", "P", "--side", "L", "--verify",
            "{1 2 1'}{3 3'}{4 4'}{2'}", "{1 1'}{2 3 2'}{4 4'}{3'}",
            out="{1 1'}{2}{3}{4 4'}{2'}{3'}\nverified\n",
        ),
        "meet-P4-R": Pin(
            "meet", "--kind", "P", "--verify", "{1 3 3' 4'}{2 1'}{4}{2'}", "{1 2 2'}{3 1' 3'}{4}{4'}",
            out="{1 2 3 1'}{4}{2'}{3'}{4'}\nverified\n",
        ),
        "meet-P4-R-empty": Pin(
            "meet", "--kind", "P", "--side", "R", "--verify",
            "{1 2'}{2 3 3'}{4}{1' 4'}", "{1 3'}{2 4}{3}{1'}{2'}{4'}",
            out="EMPTY\nverified\n",
        ),
        "meet-P4-L-empty": Pin(
            "meet", "--kind", "P", "--side", "L", "--verify",
            "{1 2'}{2 3 3'}{4}{1' 4'}", "{1 3'}{2 4}{3}{1'}{2'}{4'}",
            out="EMPTY\nverified\n",
        ),
        "green-P4-R": Pin(
            "green", "--kind", "P", "--oracle", "{1 2 3 1'}{4}{2'}{3'}{4'}", "{1 3 3' 4'}{2 1'}{4}{2'}",
            out="true\nwitness\t{1 2 3 4 1'}{2'}{3'}{4'}\n",
        ),
        "green-PT5-R": Pin(
            "green", "--kind", "PT", "--oracle", "[1,1,_,_,5]", "[2,2,3,_,5]", out="true\nwitness\t[_,1,_,_,5]\n"
        ),
        "green-PT5-R-false": Pin(
            "green", "--kind", "PT", "--oracle", "[1,_,3,4,5]", "[1,1,3,4,_]", code=1, out="false\n"
        ),
        "green-PT5-L-false": Pin(
            "green", "--kind", "PT", "--side", "L", "--oracle", "[1,_,3,4,5]", "[2,1,_,4,5]",
            code=1, out="false\n",
        ),
    },
    # cong-close and annihilator
    "test_cong_close_classes_and_witness": Pin(
        "cong-close", "--kind", "T", "--n", "2", "--pair", "[1,2]", "[1,1]", "--witness", "[2,1]", "[2,2]",
        out="[1,2]\t[1,1]\n[2,1]\t[2,2]\nwitness\t1 steps\n[1,2]\t[1,1]\t[2,1]\n",
    ),
    "test_cong_close_unrelated_witness": Pin(
        "cong-close", "--kind", "T", "--n", "2", "--pair", "[1,2]", "[1,1]", "--witness", "[1,2]", "[2,1]",
        code=1, out="[1,2]\t[1,1]\n[2,1]\t[2,2]\nNOT-RELATED\n",
    ),
    "test_cong_close_witness_refused_before_any_output": [
        Pin(
            "cong-close", "--kind", "T", "--n", "2", "--pair", "[1,2]", "[1,1]", "--witness", "[1,2,3]", "[1,2,3]",
            code=2, err="error: PartialMap([1,2,3]) is not an element of this monoid\n",
        ),
        parse_error(
            "position 3: expected a digit",
            "cong-close", "--kind", "T", "--n", "2", "--pair", "[1,2]", "[1,1]", "--witness", "[1,x]", "[1,1]",
        ),
    ],
    "test_pair_off_the_ground_set_refused": {
        "cong-close": Pin(
            "cong-close", "--kind", "T", "--n", "3", "--pair", "[1,2]", "[2,1]",
            code=2, err="error: pair ([1,2], [2,1]) does not live on 1..3\n",
        ),
        "annihilator": Pin(
            "annihilator", "--kind", "T", "--n", "2", "--elem", "[1,1]", "--pair", "[1,2,3]", "[1,1,1]",
            code=2, err="error: pair ([1,2,3], [1,1,1]) does not live on 1..2\n",
        ),
    },
    "test_negative_n_refused": [
        Pin("cong-close", "--kind", "T", "--n", "-1", code=2, err="error: n must be non-negative, got -1\n"),
        Pin(
            "annihilator", "--kind", "I", "--n", "-2", "--elem", "[]",
            code=2, err="error: n must be non-negative, got -2\n",
        ),
    ],
    "test_cong_close_smallest_n": [
        Pin("cong-close", "--kind", "T", "--n", "0", out="[]\n"),
        Pin("cong-close", "--kind", "P", "--n", "1", out="{1 1'}\n{1}{1'}\n"),
    ],
    "test_annihilator_command": Pin(
        "annihilator", "--kind", "T", "--n", "2", "--elem", "[1,1]", out="[1,2]\t[1,1]\n[2,1]\t[2,2]\n"
    ),
    "test_large_outputs_by_md5": {
        "T6-witness": Pin(
            "cong-close", "--kind", "T", "--n", "6", "--pair", "[1,1,3,4,5,6]", "[2,3,1,4,5,6]",
            "--pair", "[3,3,3,4,5,6]", "[1,2,2,4,5,6]", "--witness", "[6,3,1,4,5,6]", "[1,3,1,4,5,6]",
            out=Md5("81be4c53fd3e630bf1eaae98b7c49536"),
        ),
        "T6": Pin(
            "cong-close", "--kind", "T", "--n", "6", "--pair", "[1,1,1,4,5,6]", "[2,3,1,4,5,6]",
            "--pair", "[3,3,3,4,5,6]", "[1,2,2,4,5,6]",
            out=Md5("ed8235ba4c4e13340adaec3463898472"),
        ),
        "PT4-annihilator": Pin(
            "annihilator", "--kind", "PT", "--n", "4", "--elem", "[1,1,_,4]", "--pair", "[1,2,3,4]", "[2,1,3,4]",
            out=Md5("99b561dfdd3010b4ab18b1bd4bcafc56"),
        ),
        "P3-witness": Pin(
            "cong-close", "--kind", "P", "--n", "3", "--pair", "{1 2 1' 2'}{3 3'}", "{1 1'}{2}{3 3'}{2'}",
            "--witness", "{1 2 3 3'}{1'}{2'}", "{1 2 3}{1'}{2'}{3'}",
            out=Md5("9c12a94410881b7e5ea9f30305a02e67"),
        ),
    },
    # pmonoid
    "test_pmonoid_relations": Pin("pmonoid", "relations", out="true\n", budget=5),
    "test_pmonoid_nc": Pin("pmonoid", "nc", out="true\n", budget=5),
    "test_pmonoid_ann_yes": Pin(
        "pmonoid", "ann", "ge", "heg",
        out=(
            "yes n=1 side=h\n"
            "witness\t3 steps\n"
            "{};+0\t{0};+0\t{1};+0\n"
            "{1};-1\t{-1};+0\t{-1,0};+1\n"
            "{0};+0\t{};+0\t{-1};+1\n"
        ),
    ),
    "test_pmonoid_ann_g_side": Pin(
        "pmonoid", "ann", "he", "geh",
        out=(
            "yes n=1 side=g\n"
            "witness\t3 steps\n"
            "{};+0\t{0};+0\t{-1};+0\n"
            "{-1};+1\t{1};+0\t{0,1};-1\n"
            "{0};+0\t{};+0\t{1};-1\n"
        ),
    ),
    "test_pmonoid_ann_no": Pin("pmonoid", "ann", "g", "", code=1, out="no\n"),
    "test_pmonoid_ann_nf_literals": Pin(
        "pmonoid", "ann", "--nf", "{};+0", "{0};+0", out="yes n=0\nwitness\t1 steps\n{0};+0\t{};+0\t{};+0\n"
    ),
    "test_pmonoid_ann_twelve_digit_shift": Pin(
        "pmonoid", "ann", "--nf", "{1000000000000};+0", "{-1000000000000};+1000000000000",
        out=(
            "yes n=1000000000000 side=g\n"
            "witness\t3 steps\n"
            "{};+0\t{0};+0\t{-1000000000000};+1000000000000\n"
            "{-1000000000000};+1000000000000\t{1000000000000};+0\t{0,1000000000000};+0\n"
            "{0};+0\t{};+0\t{1000000000000};+0\n"
        ),
        budget=5,
    ),
    # A pair in canonical text, which the parser keeps as each element's
    # text, and the same pair respelled, which goes to the item reader.
    "test_pmonoid_ann_respelled_pair_prints_the_canonical_lines": {
        "canonical": Pin("pmonoid", "ann", "--nf", "{-3,5};+2", "{-8,-5};+7", out=ANN_PAIR, budget=5),
        "spaces-signs-zeros": Pin(
            "pmonoid", "ann", "--nf", "{ +5, -3 };2", "{-5,-08};+07", out=ANN_PAIR, budget=5
        ),
        "unsorted": Pin("pmonoid", "ann", "--nf", "{5,-3};+2", "{-5,-8};+7", out=ANN_PAIR, budget=5),
        "signs-and-spaces": Pin("pmonoid", "ann", "--nf", "{-03,+5};+2", "{ -8,-5 };7", out=ANN_PAIR, budget=5),
    },
    "test_pmonoid_chain_report": Pin("pmonoid", "chain", "--n", "2", out="n=2 y=1 reached=false class=2\n"),
    "test_chain_certificates": {
        "n3": Pin("pmonoid", "chain", "--n", "3", out="n=3 y=2 reached=false class=2\n"),
        "n3-y3": Pin(
            "pmonoid", "chain", "--n", "3", "--y-index", "3", out="n=3 y=3 reached=true class=4\ndepth\t1\n"
        ),
    },
    "test_pmonoid_chain_twelve_digit_y_index": Pin(
        "pmonoid", "chain", "--n", "2", "--y-index", "1000000000000",
        out="n=2 y=1000000000000 reached=true class=4\ndepth\t1\n", budget=5,
    ),
    "test_pmonoid_chain_twelve_digit_n": Pin(
        "pmonoid", "chain", "--n", "1000000000000",
        out="n=1000000000000 y=999999999999 reached=false class=2\n", budget=5,
    ),
    "test_pmonoid_chain_zero_y_index": Pin(
        "pmonoid", "chain", "--n", "2", "--y-index", "0",
        code=2, err="error: y_index must be at least 1, got 0\n",
    ),
    # render
    "test_render_partition": Pin(
        "render", "{1 2 1'}{2'}",
        out=(
            "graph partition {\n"
            "  rankdir=TB;\n"
            '  u1 [label="1"]; u2 [label="2"];\n'
            '  l1 [label="1\'"]; l2 [label="2\'"];\n'
            "  { rank=min; u1; u2 }\n"
            "  { rank=max; l1; l2 }\n"
            "  u1 -- u2;\n"
            "  u2 -- l1;\n"
            "}\n"
        ),
    ),
    "test_semantic_error_exit_code": parse_error("position 9: point 1' missing", "render", "{1 2'}{2}"),
    # verify
    "test_verify_single_suite": [
        Pin("verify", line.split()[1].rstrip(":"), out=line + "\n", budget=5)
        for line in VERIFY_ALL_PASS.splitlines()
    ],
    "test_verify_seeded_suite": Pin(
        "verify", "star", "--seed", "7",
        out="PASS star: star laws hold on all 225 P_2 pairs and 1000 random P_3 pairs\n",
    ),
    "test_verify_all_aggregates": Pin("verify", "all", out=VERIFY_ALL_PASS),
    # Every suite's PASS line, its timing aside, is the same at each seed.
    "test_verify_all_pass_lines_are_pinned": {
        seed: Pin("verify", "all", "--seed", seed, out=VERIFY_ALL_PASS) for seed in ("0", "1", "424242")
    },
    # refused input
    "test_parse_error_exit_code": parse_error("position 4: expected ']'", "mul", "--kind", "PT", "[1,_"),
    "test_size_mismatch_exit_code": Pin(
        "mul", "--kind", "PT", "[1,2]", "[1,2,3]",
        code=2, err="error: elements live on different ground sets: [2, 3]\n",
    ),
    "test_parse_error_at_end_of_text": parse_error(
        "position 3: expected a digit", "pmonoid", "ann", "--nf", "{};", "{};+0"
    ),
    "test_non_ascii_digit_is_a_parse_error": parse_error(
        "position 1: expected a digit", "mul", "--kind", "PT", "[²]", "[1]"
    ),
    "test_malformed_text_is_a_parse_error": {
        "nf-long-numeral": parse_error(
            "position 3: numeral too long", "pmonoid", "ann", "--nf", "{};+" + LONG, "{};+0"
        ),
        "partition-point-repeated": parse_error(
            "position 11: point 4 repeated", "mul", "--kind", "P", "{3' 04}{4' 4}{3}{2' 1' 1}"
        ),
        "map-image-past-size": parse_error(
            "position 0: image 3 exceeds the inferred size 2", "mul", "--kind", "PT", "[1, 3]"
        ),
        "nf-excluded-repeated": parse_error(
            "position 3: excluded point 1 repeated", "pmonoid", "ann", "--nf", "{1,+01};+0", "{};+0"
        ),
        "partition-long-point": parse_error(
            "position 101: expected a digit", "mul", "--kind", "P", "{" + "1" * 100 + "x"
        ),
        "map-no-comma": parse_error("position 3: expected ']'", "mul", "--kind", "PT", "[1 2]", "[1,2]"),
        "map-lone-comma": parse_error("position 1: expected a digit", "mul", "--kind", "PT", "[,]", "[1]"),
        "map-unclosed": parse_error("position 4: expected ']'", "mul", "--kind", "T", "[1,2", "[1,2]"),
        "map-zero-point": parse_error(
            "position 5: points are numbered from 1", "mul", "--kind", "PT", "[ _ ,0]", "[1,1]"
        ),
        "nf-trailing-comma": parse_error(
            "position 3: expected a digit", "pmonoid", "ann", "--nf", "{1,};+0", "{};+0"
        ),
        "nf-no-comma": parse_error("position 3: expected '}'", "pmonoid", "ann", "--nf", "{1 2};+0", "{};+0"),
        "nf-trailing-text": parse_error("position 4: unexpected 'x'", "pmonoid", "ann", "--nf", "{};0x", "{};+0"),
        "partition-zero-point": parse_error(
            "position 3: points are numbered from 1", "mul", "--kind", "P", "{1 0}", "{1 1'}"
        ),
        "partition-point-missing": parse_error(
            "position 16: point 3 missing", "mul", "--kind", "P", "{1 1'}{2 3'}{2'}"
        ),
    },
    "test_usage_error_exit_code": [
        Pin("green", "--kind", "Z", "[1]", "[1]", code=2, err=Usage("argument --kind: invalid choice: 'Z'")),
        Pin("no-such-command", code=2, err=Usage("argument command: invalid choice: 'no-such-command'")),
    ],
    # Bounds the commands no longer take are unknown options, refused with
    # no limit named.
    "test_pmonoid_relations_negative_bound": unknown_option("pmonoid", "relations", "--max-k", "-5"),
    "test_pmonoid_nc_negative_bound": unknown_option("pmonoid", "nc", "--max-n", "-5"),
    "test_verify_presentation_negative_bound": unknown_option("verify", "presentation", "--max-k", "-5"),
    "test_checker_bounds_past_their_cost_limit_refused": {
        "argv0-max_n must be at most 200": unknown_option("pmonoid", "nc", "--max-n", "201"),
        "argv1-max_k must be at most 100000": unknown_option("pmonoid", "relations", "--max-k", "100001"),
        "argv2-max_n must be at most 200": unknown_option("verify", "nc", "--max-n", "1000000000000"),
        "argv3-max_k must be at most 100000": unknown_option("verify", "presentation", "--max-k", "100001"),
        "argv4-max_n must be at most 200": unknown_option("verify", "all", "--max-n", "201"),
        "argv5-max_n must be at most 200": unknown_option("verify", "presentation", "--max-n", "201"),
        "argv6-max_k must be at most 100000": unknown_option("verify", "nc", "--max-k", "100001"),
        "pmonoid-nc-301": unknown_option("pmonoid", "nc", "--max-n", "301"),
    },
    "test_pmonoid_chain_negative_length": unknown_option("pmonoid", "chain", "--n", "3", "--max-length", "0"),
    "test_pmonoid_chain_negative_magnitude": unknown_option(
        "pmonoid", "chain", "--n", "3", "--max-magnitude", "0"
    ),
    "test_pmonoid_chain_negative_excluded": unknown_option("pmonoid", "chain", "--n", "3", "--max-excluded", "0"),
}


def _rows(entry):
    if isinstance(entry, dict):
        return list(entry.values())
    return entry if isinstance(entry, list) else [entry]


def _pinned(entry):
    if isinstance(entry, dict):
        @pytest.mark.parametrize("row", _rows(entry), ids=list(entry))
        def test(capsys, row):
            check_row(capsys, row)
    else:
        def test(capsys):
            for row in _rows(entry):
                check_row(capsys, row)
    return test


globals().update((name, _pinned(entry)) for name, entry in PINS.items())
ROWS = [row for entry in PINS.values() for row in _rows(entry)]


def _command_paths(parser, path=()):
    """Each command's words: `mul`, ..., `pmonoid relations`, ..."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield path
    for action in subparsers:
        for name, sub in action.choices.items():
            yield from _command_paths(sub, path + (name,))


def test_every_command_has_a_passing_and_a_refused_row():
    paths = list(_command_paths(cli.build_parser()))
    assert {path[0] for path in paths} == set(cli._COMMANDS)
    for path in paths:
        codes = {row.code for row in ROWS if row.argv[: len(path)] == path}
        assert 0 in codes and codes - {0}, path


def test_green_oracle_reports_a_wrong_closed_form(capsys, monkeypatch):
    monkeypatch.setattr(cli, "leq_R", lambda kind, a, b: False)
    code, out, err = run(capsys, "green", "--kind", "T", "--oracle", "[2,2]", "[1,1]")
    assert (code, out, err) == (1, "false\n", "oracle-disagreement\n")


def test_meet_verify_reports_a_wrong_generator(capsys, monkeypatch):
    monkeypatch.setattr(cli, "meet", lambda kind, side, a, b: MeetResult.nothing())
    code, out, err = run(capsys, "meet", "--kind", "PT", "--verify", "[1,2]", "[1,_]")
    assert (code, out, err) == (1, "EMPTY\n", "oracle-disagreement\n")


def _child(*args, **env):
    """Run Python on the package source in a fresh interpreter."""
    src = str(Path(monoidkit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.Popen(
        [sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path, **env),
    )


def test_closed_pipe_ends_quietly():
    """A reader that closes the pipe after one line ends the command with
    exit code 1 and nothing on stderr, even with unbuffered output."""
    proc = _child("-m", "monoidkit", "verify", "all", "--seed", "0", PYTHONUNBUFFERED="1")
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert first.startswith(b"PASS presentation: ")
    assert (proc.returncode, err) == (1, b"")


def test_undecodable_word_byte_is_a_parse_error():
    """A byte that is not UTF-8 reaches the word as a lone surrogate; it is
    reported at its position like any bad symbol, not as a codec error."""
    proc = _child("-m", "monoidkit", "mul", "--kind", "word", b"g\xff")
    out, err = proc.communicate(timeout=60)
    message = b"parse error: position 1: bad symbol '\\udcff' (expected g, h or e)\n"
    assert (proc.returncode, out, err) == (2, b"", message)


@pytest.mark.parametrize("module", ["monoidkit", "monoidkit.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    """Checked in a fresh interpreter, since pytest itself imports inspect."""
    proc = _child("-c", f"import sys, {module}; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))")
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out, err) == (0, b"[]\n", b"")


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


def test_pmonoid_relations_large_bound_in_linear_time(capsys):
    # Words for exponent k have 4k+2 letters; the one fixed check covers
    # every k, so no bound is taken and the answer comes at once.
    start = time.perf_counter()
    check_row(capsys, unknown_option("pmonoid", "relations", "--max-k", "100000"))
    check_row(capsys, PINS["test_pmonoid_relations"])
    assert time.perf_counter() - start < 1
