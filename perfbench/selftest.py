"""The benchmark's self-test: every workload's checker accepts a real answer
and rejects the same answer corrupted.

    python3 perfbench/selftest.py

Prints one PASS/FAIL line per case and exits 0 only if all pass.  Takes about
ten seconds: it builds the carriers once and runs one `verify all`.
"""

from __future__ import annotations

import random
import sys

from common import load_monoidkit


def cases(W, mk):
    """Yield (name, checker verdict on the real answer, verdict on the corrupted one)."""
    rng = random.Random(0)

    closure = W.Closure()
    ref = closure.reference()
    ctx, _ = closure.setup()
    op = next(op for op in closure.round(ref, rng) if op[0] == "close" and op[1] != "PT_4")
    out = closure.run(ctx, op)
    what, given, rho, classes, _, seq, seq_text = out
    k = next(i for i, cls in enumerate(classes) if len(cls) > 1)
    split = classes[:k] + (classes[k][:1], classes[k][1:]) + classes[k + 1:]
    bad = (what, given, rho, split, W._join_rows(split, str), seq, seq_text)
    yield "closure: a congruence with one class split", closure.check(ref, op, out), closure.check(ref, op, bad)

    meets = W.Meets()
    op = next(op for op in meets.round(ref, rng) if op[0] == "T_4" and op[1] == "R")
    out = meets.run(ctx, op)
    a, b, result, _, verified, holds, verdict, witness_text = out
    carrier, side = ref[op[0]], op[1]
    wrong = next(x for x in carrier.elements if carrier.ideal(x, side) != carrier.ideal(result.generator, side))
    bad = (a, b, mk.MeetResult.found(wrong), str(wrong), verified, holds, verdict, witness_text)
    yield "meets: a wrong meet generator", meets.check(ref, op, out), meets.check(ref, op, bad)

    shift = W.ShiftMonoid()
    ops = [op for op in shift.round(None, rng) if op[0] == "ann"]
    for accepted in (True, False):
        op = next(op for op in ops if op[5] == accepted)
        u, v, verdict, witness, text = out = shift.run(None, op)
        flipped = mk.AnnihilatorVerdict(False) if accepted else mk.AnnihilatorVerdict(True, op[3], op[4])
        bad = (u, v, flipped, witness, text)
        name = f"shift-monoid: a flipped annihilator verdict ({'accepted' if accepted else 'rejected'} pair)"
        yield name, shift.check(None, op, out), shift.check(None, op, bad)

    verify_all = W.VerifyAll()
    out = verify_all.run(None, 0)
    code, stdout = out
    lines = stdout.splitlines()
    bad = (code, "\n".join(lines[:3] + lines[4:]) + "\n")
    yield "verify-all: a missing PASS line", verify_all.check(None, 0, out), verify_all.check(None, 0, bad)


def main():
    mk = load_monoidkit()
    import workloads as W

    failures = 0
    for name, real_ok, corrupted_ok in cases(W, mk):
        ok = real_ok and not corrupted_ok
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
