"""perfbench: the monoidkit benchmark.

    python3 perfbench/run.py --workload closure --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; monoidkit is imported from its `src/`.  The
last line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, and the
per-layer metrics of a traced run with --trace 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import statistics
import sys
import time
import traceback

from common import ROOT, load_monoidkit


def quantile(samples, q):
    """The q-th decile cut point (q in 1..9), interpolating between samples."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[q - 1]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True


def run_pass(workload, ctx, ref, ops, tally, checked, tracer=None):
    """Run each operation once; returns each one's seconds (None if it raised)
    and the seconds spent on all of them.  An operation that raises counts as
    failed.  The first answer to each operation goes to the referee, and its
    digest is kept in `checked`; a replayed operation must give the same
    digest.  Checks are never timed or traced."""
    durations, spent = [], 0.0
    for i, op in enumerate(ops):
        tally.attempted += 1
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            out = workload.run(ctx, op)
        except Exception:
            spent += time.perf_counter() - start
            tally.failed += 1
            durations.append(None)
            traceback.print_exc()
            continue
        finally:
            if tracer is not None:
                tracer.active = False
        seconds = time.perf_counter() - start
        durations.append(seconds)
        spent += seconds
        if checked[i] is not None:
            ok = workload.digest(op, out) == checked[i]
        elif workload.check(ref, op, out):
            checked[i] = workload.digest(op, out)
            ok = True
        else:
            ok = False
        if not ok:
            tally.correct = False
            print(f"perfbench: wrong answer for {op!r:.300}", file=sys.stderr)
    return durations, spent


def operations(workload, ref, seed):
    rng = random.Random(seed)
    return [op for _ in range(workload.rounds) for op in workload.round(ref, rng)]


def end_to_end(workload, seed, seconds):
    """Set-up `setup_reps` times, then whole passes over one fixed list of
    operations until their summed time reaches `seconds`.  Each operation's
    time is its best over the passes: the host's speed drifts by up to 2x
    over seconds to minutes, each vCPU on its own, so successive set-ups and
    passes are pinned to each usable CPU in turn, and the best of passes
    spread over the run and the CPUs filters out the slow stretches."""
    ref = workload.reference()
    cpus = sorted(os.sched_getaffinity(0))
    setups = []
    for rep in range(workload.setup_reps):
        os.sched_setaffinity(0, {cpus[rep % len(cpus)]})
        ctx = None
        gc.collect()
        start = time.perf_counter()
        ctx, _ = workload.setup()
        setups.append(time.perf_counter() - start)
    ops = operations(workload, ref, seed)
    gc.collect()
    tally = Tally()
    checked = [None] * len(ops)
    best = [math.inf] * len(ops)
    spent = 0.0
    passes = 0
    while spent < seconds:
        os.sched_setaffinity(0, {cpus[passes % len(cpus)]})
        passes += 1
        durations, took = run_pass(workload, ctx, ref, ops, tally, checked)
        best = [b if d is None else min(b, d) for b, d in zip(best, durations)]
        spent += took
    best = [b for b in best if b != math.inf]
    if not best:
        sys.exit("perfbench: every operation failed")
    return tally, {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(best) / sum(best), "1/s"),
        "op_p50_ms": (quantile(best, 5) * 1e3, "ms"),
        "op_p90_ms": (quantile(best, 9) * 1e3, "ms"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }


def trace_in_process(workload, seed):
    """The same fixed rounds three times, each on a fresh set-up: a warm-up
    pass, an untraced pass and a traced pass.  The traced set-up is traced
    too, so products made while building the tables are counted.  Tracing
    overhead is the median over operations of traced / untraced time, which a
    burst of load on the machine moves less than a ratio of totals."""
    from tracer import Tracer

    ref = workload.reference()
    ops = operations(workload, ref, seed)
    tally = Tally()
    tracer = Tracer()
    passes = []
    for traced in (False, False, True):
        ctx = None
        gc.collect()
        if traced:
            tracer.install()
            tracer.active = True
        try:
            ctx, builds = workload.setup()
            tracer.active = False
            checked = [None] * len(ops)
            passes.append(run_pass(workload, ctx, ref, ops, tally, checked, tracer if traced else None)[0])
        finally:
            tracer.uninstall()
        if not traced:
            plain_builds = builds
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "correct": tally.correct,
        "ops": len(ops),
        "stats": tracer.stats,
        "builds": plain_builds,
        "overhead_pct": (statistics.median(t / p for p, t in zip(passes[1], passes[2]) if p and t) - 1) * 100,
    }


def layer_metrics(trace):
    """Per-layer metrics from a trace; a layer the workload never calls reads 0."""
    from workloads import CARRIERS, SUITE_NAMES

    stats, ops = trace["stats"], trace["ops"]

    def calls(label):
        return stats.get(label, (0, 0.0, 0))[0]

    def mean(label, scale):
        count, seconds, _ = stats.get(label, (0, 0.0, 0))
        return seconds / count * scale if count else 0.0

    def extra_per_call(label):
        count, _, extra = stats.get(label, (0, 0.0, 0))
        return extra / count if count else 0.0

    metrics = {
        "elements.pm_mul_calls": (calls("elements.pm_mul"), "count"),
        "elements.pm_mul_us": (mean("elements.pm_mul", 1e6), "us"),
        "elements.partition_mul_calls": (calls("elements.partition_mul"), "count"),
        "elements.partition_mul_us": (mean("elements.partition_mul", 1e6), "us"),
        "elements.enumerate_ms": (stats.get("elements.enumerate", (0, 0.0, 0))[1] * 1e3, "ms"),
    }
    for kind, n in CARRIERS:
        metrics[f"congruence.build_s.{kind}_{n}"] = (trace.get("builds", {}).get(f"{kind}_{n}", 0.0), "s")
    metrics.update({
        "congruence.rc_close_ms": (mean("congruence.rc_close", 1e3), "ms"),
        "congruence.y_sequence_us": (mean("congruence.y_sequence", 1e6), "us"),
        "congruence.annihilator_ms": (mean("congruence.annihilator", 1e3), "ms"),
        "congruence.kappa_ms": (mean("congruence.kappa", 1e3), "ms"),
        "congruence.trace_edges": (extra_per_call("congruence.rc_close"), "count/closure"),
        "ideals.meet_us": (mean("ideals.meet", 1e6), "us"),
        "ideals.verify_meet_us": (mean("ideals.verify_meet", 1e6), "us"),
        "order.leq_us": (mean("order.leq", 1e6), "us"),
        "order.leq_oracle_us": (mean("order.leq_oracle", 1e6), "us"),
        "pmonoid.nf_mul_calls": (calls("pmonoid.nf_mul") / ops, "count/op"),
        "pmonoid.nf_mul_us": (mean("pmonoid.nf_mul", 1e6), "us"),
        "pmonoid.in_annihilator_us": (mean("pmonoid.in_annihilator", 1e6), "us"),
        "pmonoid.annihilator_witness_us": (mean("pmonoid.annihilator_witness", 1e6), "us"),
        "pmonoid.chain_search_ms": (mean("pmonoid.chain_search", 1e3), "ms"),
        "pmonoid.chain_explored": (extra_per_call("pmonoid.chain_search"), "count/search"),
        "pmonoid.nf_window_us": (mean("pmonoid.nf_window", 1e6), "us"),
        "textio.parse_us": (mean("textio.parse", 1e6), "us"),
        "textio.format_us": (mean("textio.format", 1e6), "us"),
        "textio.format_calls": (calls("textio.format") / ops, "count/op"),
    })
    suites = trace.get("suites", {})
    for name in SUITE_NAMES:
        metrics[f"verify.{name}_s"] = (suites.get(name, 0.0), "s")
    metrics["cli.overhead_ms"] = (trace.get("cli_overhead_ms", 0.0), "ms")
    metrics["trace.overhead_pct"] = (trace["overhead_pct"], "%")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("closure", "meets", "shift-monoid", "verify-all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_monoidkit()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    if args.trace:
        trace = workload.trace(args.seed) if hasattr(workload, "trace") else trace_in_process(workload, args.seed)
        if "stats" not in trace:
            sys.exit("perfbench: the traced run failed")
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump(trace, fh, indent=1, sort_keys=True)
        tally_fields = (trace["attempted"], trace["failed"], trace["correct"])
        metrics = layer_metrics(trace)
    else:
        tally, metrics = end_to_end(workload, args.seed, args.seconds)
        tally_fields = (tally.attempted, tally.failed, tally.correct)
    attempted, failed, correct = tally_fields
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
