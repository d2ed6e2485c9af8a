"""`monoidkit verify all` run in this process, for the traced verify-all run.

    python3 perfbench/verify_child.py --seed S --trace 0|1

Prints the CLI's lines, then one JSON line with the CLI's exit code, each
suite's own measured seconds (at full precision, unlike the rounded figure in
its PASS line) and, with --trace 1, the tracer's per-label totals.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys

from common import load_monoidkit


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    load_monoidkit()
    from monoidkit import cli, verify
    from tracer import Tracer

    seconds = {}
    line = verify.SuiteResult.line

    def recording_line(result):
        seconds[result.name] = result.seconds
        return line(result)

    verify.SuiteResult.line = recording_line
    tracer = Tracer()
    if args.trace:
        tracer.install()
        tracer.active = True
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "all", "--seed", str(args.seed)])
    tracer.uninstall()
    sys.stdout.write(out.getvalue())
    print(json.dumps({"code": code, "suites": seconds, "stats": tracer.stats}))


if __name__ == "__main__":
    main()
