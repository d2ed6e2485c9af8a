"""The Python-level calls of one meets operation, counted through
`sys.setprofile`: a cost that does not depend on the host's speed.

One operation goes through the public `monoidkit` names only: parse two
texts, `meet`, print the generator, `verify_meet`, the side's `leq_R` or
`leq_L`, `leq_oracle`, print the witness.  Half the pairs of a sample are
related by construction (a = b*s on the right, s*b on the left).  The sample
is run once untraced, so every row and ideal it reads is cached and the count
is that of a warm monoid.

Run as a script (`PYTHONPATH=src python tests/meets_cost.py`) it prints the
mean per carrier and side; it needs no pytest.  Python 3.12 and later inline
comprehensions (PEP 709), so their counts are lower.
"""

import random
import sys

import monoidkit as mk

CARRIERS = (("T", 4), ("I", 4), ("P", 3), ("PT", 4))
BUDGET = 55


def operation(S, kind, side, text_a, text_b):
    a, b = mk.parse_element(kind, text_a), mk.parse_element(kind, text_b)
    result = mk.meet(kind, side, a, b)
    generator_text = "EMPTY" if result.empty else mk.format_element(result.generator)
    verified = mk.verify_meet(S, a, b, result, side)
    holds = (mk.leq_R if side == "R" else mk.leq_L)(kind, a, b)
    verdict = mk.leq_oracle(S, a, b, side)
    witness_text = mk.format_element(verdict.witness) if verdict.holds else ""
    return generator_text, verified, holds, verdict.holds, witness_text


def sample(S, side, seed, count):
    """`count` text pairs of S's elements, every other one related."""
    rng = random.Random(seed)
    els = S.elements
    pairs = []
    for i in range(count):
        b = rng.choice(els)
        if i % 2:
            s = rng.choice(els)
            a = b * s if side == "R" else s * b
        else:
            a = rng.choice(els)
        pairs.append((str(a), str(b)))
    return pairs


def mean_calls(kind, n, side, seed=39, count=200):
    """The mean number of "call" events of one operation over a sample."""
    S = mk.cached_monoid(kind, n)
    pairs = sample(S, side, seed, count)
    for text_a, text_b in pairs:
        operation(S, kind, side, text_a, text_b)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for text_a, text_b in pairs:
            operation(S, kind, side, text_a, text_b)
    finally:
        sys.setprofile(previous)
    return calls / count


def main():
    print(f"Python {sys.version.split()[0]}: mean calls per meets operation (budget {BUDGET})")
    worst = 0.0
    for kind, n in CARRIERS:
        means = [mean_calls(kind, n, side) for side in "RL"]
        worst = max(worst, *means)
        print(f"{kind}_{n}\tR {means[0]:.1f}\tL {means[1]:.1f}")
    return 0 if worst <= BUDGET else 1


if __name__ == "__main__":
    sys.exit(main())
