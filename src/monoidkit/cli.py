"""Command-line interface.

Exit codes follow one convention everywhere: 0 when the command succeeded
and any queried property holds, 1 when a queried property is violated, and
2 for usage, syntax, or semantic input errors; a reader that closes the
pipe early ends the command with 1 and nothing on stderr.  Output is a
plain-text line protocol with one result per line; nothing is interactive
and all randomized suites are fixed by --seed.
"""

from __future__ import annotations

import argparse
import os
import sys

from .congruence import rc_close, annihilator, y_sequence
from .elements import KINDS
from .ideals import meet, verify_meet
from .order import leq_L, leq_R, leq_oracle
from .pmonoid import chain_search, check_limits, check_nc, check_presentation, in_annihilator, annihilator_witness
from .textio import ParseError, format_element, parse_element, render_partition
from .verify import SUITES, cached_monoid, delta, run_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monoidkit",
        description="exact computations in finite transformation and partition monoids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mul = sub.add_parser("mul", help="multiply elements left to right")
    p_mul.add_argument("--kind", required=True, choices=KINDS + ("NF", "word"))
    p_mul.add_argument("elements", nargs="+")

    p_green = sub.add_parser("green", help="divisibility preorder query")
    p_green.add_argument("--kind", required=True, choices=KINDS)
    p_green.add_argument("--side", default="R", choices=("R", "L"))
    p_green.add_argument("--oracle", action="store_true",
                         help="also search for a multiplier witness in the full monoid")
    p_green.add_argument("a")
    p_green.add_argument("b")

    p_meet = sub.add_parser("meet", help="generator of the intersection of two principal ideals")
    p_meet.add_argument("--kind", required=True, choices=KINDS)
    p_meet.add_argument("--side", default="R", choices=("R", "L"))
    p_meet.add_argument("--verify", action="store_true",
                        help="check the result against brute-force enumeration")
    p_meet.add_argument("a")
    p_meet.add_argument("b")

    p_cong = sub.add_parser("cong-close", help="close generating pairs to a right congruence")
    p_cong.add_argument("--kind", required=True, choices=KINDS)
    p_cong.add_argument("--n", type=int, required=True)
    p_cong.add_argument("--pair", nargs=2, action="append", default=[], metavar=("A", "B"))
    p_cong.add_argument("--witness", nargs=2, metavar=("X", "Y"),
                        help="print a step-by-step membership witness for this pair")

    p_ann = sub.add_parser("annihilator", help="right annihilator congruence of an element")
    p_ann.add_argument("--kind", required=True, choices=KINDS)
    p_ann.add_argument("--n", type=int, required=True)
    p_ann.add_argument("--elem", required=True)
    p_ann.add_argument("--pair", nargs=2, action="append", default=[], metavar=("A", "B"),
                       help="generators of the base congruence (default: equality)")

    p_pm = sub.add_parser("pmonoid", help="the integer shift-map monoid")
    pm_sub = p_pm.add_subparsers(dest="pm_command", required=True)
    pm_rel = pm_sub.add_parser("relations", help="check the defining relations in normal form")
    pm_rel.add_argument("--max-k", type=int, default=50)
    pm_nc = pm_sub.add_parser("nc", help="check the idempotent antichain conditions")
    pm_nc.add_argument("--max-n", type=int, default=50)
    pm_ann = pm_sub.add_parser("ann", help="decide the puncture-annihilator relation for a pair")
    pm_ann.add_argument("--nf", action="store_true", help="parse arguments as normal forms, not words")
    pm_ann.add_argument("u")
    pm_ann.add_argument("v")
    pm_chain = pm_sub.add_parser("chain", help="bounded reachability certificate for a chain level")
    pm_chain.add_argument("--n", type=int, required=True)
    pm_chain.add_argument("--y-index", type=int, default=None)
    pm_chain.add_argument("--max-excluded", type=int, default=None)
    pm_chain.add_argument("--max-magnitude", type=int, default=None)
    pm_chain.add_argument("--max-length", type=int, default=8)

    p_render = sub.add_parser("render", help="emit a DOT drawing of a partition")
    p_render.add_argument("partition")

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("suite", choices=tuple(SUITES) + ("all",))
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--max-k", "--k", type=int, default=50,
                          help="relation exponent bound (presentation)")
    p_verify.add_argument("--max-n", "--n", type=int, default=50, help="index bound (nc)")

    return parser


def _parse_many(kind, texts):
    elements = [parse_element(kind, text) for text in texts]
    sizes = {e.n for e in elements if hasattr(e, "n")}
    if len(sizes) > 1:
        raise ValueError(f"elements live on different ground sets: {sorted(sizes)}")
    return elements


def _print_rows(rows):
    for row in rows:
        print("\t".join(format_element(x) for x in row))


def _print_witness(seq):
    print(f"witness\t{len(seq)} steps")
    _print_rows(seq.steps)


def cmd_mul(args) -> int:
    elements = _parse_many(args.kind, args.elements)
    product = elements[0]
    for e in elements[1:]:
        product = product * e
    print(format_element(product))
    return 0


def cmd_green(args) -> int:
    a, b = _parse_many(args.kind, [args.a, args.b])
    S = cached_monoid(args.kind, a.n) if args.oracle else None
    holds = leq_R(args.kind, a, b) if args.side == "R" else leq_L(args.kind, a, b)
    print("true" if holds else "false")
    if S is not None:
        verdict = leq_oracle(S, a, b, args.side)
        if verdict.holds != holds:
            print("oracle-disagreement", file=sys.stderr)
            return 1
        if verdict.holds:
            print(f"witness\t{format_element(verdict.witness)}")
    return 0 if holds else 1


def cmd_meet(args) -> int:
    a, b = _parse_many(args.kind, [args.a, args.b])
    S = cached_monoid(args.kind, a.n) if args.verify else None
    result = meet(args.kind, args.side, a, b)
    print("EMPTY" if result.empty else format_element(result.generator))
    if S is not None:
        if not verify_meet(S, a, b, result, args.side):
            print("oracle-disagreement", file=sys.stderr)
            return 1
        print("verified")
    return 0


def _parse_pairs(kind, n, raw_pairs):
    pairs = []
    for ta, tb in raw_pairs:
        a, b = _parse_many(kind, [ta, tb])
        if a.n != n or b.n != n:
            raise ValueError(f"pair ({ta}, {tb}) does not live on 1..{n}")
        pairs.append((a, b))
    return pairs


def cmd_cong_close(args) -> int:
    S = cached_monoid(args.kind, args.n)
    pairs = _parse_pairs(args.kind, args.n, args.pair)
    witness = _parse_many(args.kind, args.witness) if args.witness else ()
    for x in witness:
        S.index_of(x)  # a non-member is refused before any output
    rho = rc_close(S, pairs)
    _print_rows(rho.classes_elements())
    if witness:
        seq = y_sequence(rho, *witness)
        if seq is None:
            print("NOT-RELATED")
            return 1
        _print_witness(seq)
    return 0


def cmd_annihilator(args) -> int:
    S = cached_monoid(args.kind, args.n)
    elem = parse_element(args.kind, args.elem)
    pairs = _parse_pairs(args.kind, args.n, args.pair)
    rho = rc_close(S, pairs) if pairs else delta(S)
    _print_rows(annihilator(S, rho, elem).classes_elements())
    return 0


def cmd_pmonoid(args) -> int:
    if args.pm_command in ("relations", "nc"):
        ok = check_presentation(args.max_k) if args.pm_command == "relations" else check_nc(args.max_n)
        print("true" if ok else "false")
        return 0 if ok else 1
    if args.pm_command == "ann":
        kind = "NF" if args.nf else "word"
        u = parse_element(kind, args.u)
        v = parse_element(kind, args.v)
        verdict = in_annihilator(u, v)
        if not verdict.member:
            print("no")
            return 1
        side = f" side={verdict.side}" if verdict.side else ""
        print(f"yes n={verdict.n}{side}")
        _print_witness(annihilator_witness(u, v))
        return 0
    report = chain_search(  # pm_command == "chain", the one left
        args.n,
        y_index=args.y_index,
        max_excluded=args.max_excluded,
        max_magnitude=args.max_magnitude,
        max_length=args.max_length,
    )
    print(
        f"n={report.n} y={report.y_index} reached={str(report.reached).lower()}"
        f" explored={report.explored} pruned={report.pruned}"
        f" bounds=|E|<={report.max_excluded},mag<={report.max_magnitude},len<={report.max_length}"
    )
    if report.reached:
        print(f"depth\t{report.depth}")
    return 0


def cmd_render(args) -> int:
    partition = parse_element("P", args.partition)
    sys.stdout.write(render_partition(partition))
    return 0


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    check_limits(max_k=args.max_k, max_n=args.max_n)  # both bounds, before any suite prints
    all_ok = True
    for name in names:
        result = run_suite(name, seed=args.seed, max_k=args.max_k, max_n=args.max_n)
        print(result.line())
        all_ok &= result.ok
    return 0 if all_ok else 1


_COMMANDS = {
    "mul": cmd_mul,
    "green": cmd_green,
    "meet": cmd_meet,
    "cong-close": cmd_cong_close,
    "annihilator": cmd_annihilator,
    "pmonoid": cmd_pmonoid,
    "render": cmd_render,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    """Run the CLI; a reader that closes the pipe early ends it with code 1."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the flush at exit writes nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
