"""The four workloads.

Each workload makes its inputs from a seeded `random.Random`, runs one
operation at a time through the names exported by `monoidkit`, and checks
every answer with a referee of its own: closure under a generating set it
confirms, principal ideals multiplied out with `*` over every element, and a
closed-form `(excluded, shift)` arithmetic for the shift monoid.  No answer is
compared with a copy stored in advance.

Inputs come in rounds of fixed make-up (the same carriers, sides, pair counts
and exponent strata in every round, drawn afresh), so every run has the same
mix of cheap and costly operations and its quantiles land in the same place.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import monoidkit as mk
from monoidkit import PartialMap, Partition

from common import ROOT, SRC

CHILD_SCRIPT = Path(__file__).resolve().parent / "verify_child.py"

CARRIERS = (("T", 4), ("I", 4), ("P", 3), ("PT", 4))


def _name(kind, n):
    return f"{kind}_{n}"


def _join_rows(rows, fmt):
    return "\n".join("\t".join(fmt(x) for x in row) for row in rows)


# --- child processes --------------------------------------------------------

CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))
CHILD_TIMEOUT_S = 150
SUITE_NAMES = (
    "presentation", "nc", "nf-mul", "meet-right", "meet-left", "kappa",
    "annihilators", "green", "ann-decision", "chain", "embeddings", "star",
)


def child(args):
    """Run the checkout's Python in a child process; returns (seconds, result)."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=CHILD_ENV,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    return time.perf_counter() - start, done


def all_suites_pass(stdout):
    """Exactly one PASS line for each of the twelve suites, and nothing else."""
    names = [line.split(":")[0][len("PASS "):] for line in stdout.splitlines() if line.startswith("PASS ")]
    return len(stdout.splitlines()) == len(SUITE_NAMES) and sorted(names) == sorted(SUITE_NAMES)


# --- referee for the finite carriers ---------------------------------------


def generators(kind, n):
    """A small generating set: Sym_n plus a rank n-1 idempotent (T, PT), a
    partial identity (I, PT), or a projection and a join (P)."""
    swap = [2, 1] + list(range(3, n + 1))
    cycle = list(range(2, n + 1)) + [1]
    if kind == "P":
        def perm(images):
            return Partition(n, [[x, -images[x - 1]] for x in range(1, n + 1)])

        project = Partition(n, [[1], [-1]] + [[x, -x] for x in range(2, n + 1)])
        join = Partition(n, [[1, 2, -1, -2]] + [[x, -x] for x in range(3, n + 1)])
        return [perm(swap), perm(cycle), project, join]
    gens = [PartialMap(swap), PartialMap(cycle)]
    if kind in ("T", "PT"):
        gens.append(PartialMap([1, 1] + list(range(3, n + 1))))
    if kind in ("I", "PT"):
        gens.append(PartialMap([None] + list(range(2, n + 1))))
    return gens


class Carrier:
    """The referee's copy of one carrier, computed with the elements' own `*`:
    every element, a generating set confirmed to reach all of them, and
    principal one-sided ideals as bitmasks over the element list."""

    def __init__(self, kind, n):
        self.elements = mk.enumerate_elements(kind, n)
        self.index = {x: i for i, x in enumerate(self.elements)}
        self.identity = mk.identity_of(kind, n)
        self.gens = generators(kind, n)
        reached = {self.identity}
        frontier = [self.identity]
        while frontier:
            products = {x * g for x in frontier for g in self.gens}
            frontier = products - reached
            reached |= frontier
        if reached != set(self.elements):
            raise RuntimeError(f"the generating set of {_name(kind, n)} reaches {len(reached)} elements")
        self._ideals = {}

    def ideal(self, x, side):
        """x*S (side R) or S*x (side L) as a bitmask over `elements`."""
        mask = self._ideals.get((x, side))
        if mask is None:
            mask = 0
            for s in self.elements:
                mask |= 1 << self.index[x * s if side == "R" else s * x]
            self._ideals[(x, side)] = mask
        return mask


def _valid_sequence(seq, start, end, pairs):
    """The chain start = c1*t1, d1*t1 = c2*t2, ..., dm*tm = end, multiplied out
    here, with every (c, d) one of the generating pairs in either order."""
    if seq is None or seq.start != start or seq.end != end:
        return False
    allowed = set(pairs) | {(b, a) for a, b in pairs}
    current = start
    for c, d, t in seq.steps:
        if (c, d) not in allowed or c * t != current:
            return False
        current = d * t
    return current == end


class Workload:
    """One workload: `setup` is timed `setup_reps` times and `run` once per
    operation.  `check` is the referee; `digest` summarises a checked answer
    so that replays of the operation can be compared with it.  A run draws
    `rounds` rounds of operations from the seed and replays them in whole
    passes; `rounds` keeps a pass to a few seconds, so that a run times each
    operation several times."""

    setup_reps = 1
    rounds = 1

    def reference(self):
        return None

    def setup(self):
        """The set-up a user pays before the first operation; returns the
        context operations run against and per-carrier build seconds."""
        return None, {}

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class ImportSetup(Workload):
    """Set-up is a fresh interpreter importing monoidkit: what a user of the
    CLI or of the pure shift-monoid functions pays before the first answer."""

    setup_reps = 5

    def setup(self):
        _, done = child(["-c", "import monoidkit"])
        if done.returncode != 0:
            raise RuntimeError(f"importing monoidkit failed: {done.stderr.strip()}")
        return None, {}


class TableWorkload(Workload):
    """Operations against the enumerated carriers and their product tables."""

    setup_reps = 3

    def reference(self):
        return {_name(kind, n): Carrier(kind, n) for kind, n in CARRIERS}

    def setup(self):
        mk.cached_monoid.cache_clear()
        monoids, builds = {}, {}
        for kind, n in CARRIERS:
            start = time.perf_counter()
            S = mk.cached_monoid(kind, n)
            # One untimed query; equality is a right congruence, and checking
            # it multiplies every pair, so the whole product table is filled.
            if not mk.is_right_congruence(S, mk.delta(S).eqrel):
                raise RuntimeError(f"equality is not a right congruence on {_name(kind, n)}")
            builds[_name(kind, n)] = time.perf_counter() - start
            monoids[_name(kind, n)] = S
        return monoids, builds


# --- closure ---------------------------------------------------------------


class Closure(TableWorkload):
    """rc_close on 1-3 generating pairs parsed from text, its classes
    formatted, and a y_sequence for one related pair; a minority of
    annihilator and kappa congruences.  Rough costs on a 2-core Xeon: PT_4
    closures ~160 ms per pair, other closures ~20-30 ms per pair, PT_4
    annihilators ~200 ms, other annihilators and kappa 5-50 ms."""

    rounds = 4
    # (operation, carrier, generating pairs).  Every round has this make-up,
    # so a run's quantiles fall at the same ranks, inside blocks of one kind
    # of operation with no block of similar cost next to them: p90 inside the
    # four 1-pair PT_4 closures (the top 16 %, with nothing dearer), p50 inside
    # the eight 2-pair I_4 and P_3 closures (ranks 36-68 %), with five
    # operations of >= 1.4x their cost above them and eight of <= 0.7x below.
    SLOTS = (
        [("close", "PT_4", 1)] * 4
        + [("close", "T_4", p) for p in (1, 2, 2, 3)]
        + [("close", c, p) for c in ("I_4", "P_3") for p in (1, 2, 2, 2, 2, 3)]
        + [("ann", c, 0) for c in ("I_4", "P_3")]
        + [("kappa", c, 0) for c in ("T_4", "I_4", "P_3")]
    )

    def round(self, ref, rng):
        ops = []
        for what, name, pair_count in self.SLOTS:
            els = ref[name].elements
            if what == "close":
                pairs = []
                for _ in range(pair_count):
                    a, b = rng.sample(els, 2)
                    pairs.append((str(a), str(b)))
                ops.append((what, name, tuple(pairs), rng.random(), rng.random()))
            else:
                ops.append((what, name, str(rng.choice(els))))
        rng.shuffle(ops)
        return ops

    def run(self, ctx, op):
        what, name = op[:2]
        S = ctx[name]
        kind = name.split("_")[0]
        seq = seq_text = None
        if what == "close":
            given = [(mk.parse_element(kind, a), mk.parse_element(kind, b)) for a, b in op[2]]
            rho = mk.rc_close(S, given)
        else:
            given = mk.parse_element(kind, op[2])
            rho = mk.annihilator(S, mk.delta(S), given) if what == "ann" else mk.kappa(S, given)
        classes = rho.classes_elements()
        text = _join_rows(classes, mk.format_element)
        if what == "close":
            linked = [cls for cls in classes if len(cls) > 1]
            cls = linked[int(op[3] * len(linked))]
            i = int(op[4] * len(cls))
            seq = mk.y_sequence(rho, cls[i], cls[i - 1])
            seq_text = _join_rows(seq.steps, mk.format_element)
        return what, given, rho, classes, text, seq, seq_text

    def digest(self, op, out):
        return out[4], out[6]

    def check(self, ref, op, out):
        what, given, rho, classes, text, seq, seq_text = out
        carrier = ref[op[1]]
        class_of = {}
        for k, cls in enumerate(classes):
            for x in cls:
                if x in class_of:
                    return False
                class_of[x] = k
        if class_of.keys() != carrier.index.keys() or text != _join_rows(classes, str):
            return False
        for g in carrier.gens:
            if any(len({class_of[x * g] for x in cls}) > 1 for cls in classes):
                return False
        if what == "close":
            if any(class_of[a] != class_of[b] for a, b in given):
                return False
            for cls in classes:
                low = min(cls, key=carrier.index.get)
                for x in cls:
                    if x != low and not _valid_sequence(mk.y_sequence(rho, x, low), x, low, given):
                        return False
            return (
                class_of[seq.start] == class_of[seq.end]
                and seq.start != seq.end
                and _valid_sequence(seq, seq.start, seq.end, given)
                and seq_text == _join_rows(seq.steps, str)
            )
        if what == "ann":
            groups = {}
            for u in carrier.elements:
                groups.setdefault(given * u, set()).add(u)
            return {frozenset(g) for g in groups.values()} == {frozenset(c) for c in classes}
        return self._kappa_exact(carrier, given, classes)

    @staticmethod
    def _kappa_exact(carrier, s, classes):
        """Classes equal the components of intersecting power orbits {s^m u},
        and every pair inside a class has intersecting orbits."""
        powers, p = [], carrier.identity
        while p not in powers:
            powers.append(p)
            p = p * s
        orbit = {}
        for u in carrier.elements:
            mask = 0
            for p in powers:
                mask |= 1 << carrier.index[p * u]
            orbit[u] = mask
        parent = {u: u for u in carrier.elements}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        owner = {}
        for u, mask in orbit.items():
            for bit in range(mask.bit_length()):
                if mask >> bit & 1:
                    if bit in owner:
                        parent[find(u)] = find(owner[bit])
                    else:
                        owner[bit] = u
        components = {}
        for u in carrier.elements:
            components.setdefault(find(u), set()).add(u)
        if {frozenset(c) for c in components.values()} != {frozenset(c) for c in classes}:
            return False
        return all(orbit[u] & orbit[v] for cls in classes for u in cls for v in cls)


# --- meets -----------------------------------------------------------------


class Meets(TableWorkload):
    """meet and verify_meet on a pair parsed from text, then the side's
    closed-form preorder and the multiplier-search oracle.  Half the pairs are
    related by construction (a = b*s or s*b), so the oracle's scan stops at
    varying depths."""

    # (carrier, side, related by construction), 25 of each per round
    SLOTS = [
        (name, side, related)
        for name in ("T_4", "I_4", "P_3", "PT_4")
        for side in "RL"
        for related in (False, True)
    ] * 25
    rounds = 10

    def round(self, ref, rng):
        ops = []
        for name, side, related in self.SLOTS:
            els = ref[name].elements
            b = rng.choice(els)
            if related:
                s = rng.choice(els)
                a = b * s if side == "R" else s * b
            else:
                a = rng.choice(els)
            ops.append((name, side, str(a), str(b)))
        rng.shuffle(ops)
        return ops

    def run(self, ctx, op):
        name, side, text_a, text_b = op
        S = ctx[name]
        kind = name.split("_")[0]
        a, b = mk.parse_element(kind, text_a), mk.parse_element(kind, text_b)
        result = mk.meet(kind, side, a, b)
        generator_text = "EMPTY" if result.empty else mk.format_element(result.generator)
        verified = mk.verify_meet(S, a, b, result, side)
        holds = (mk.leq_R if side == "R" else mk.leq_L)(kind, a, b)
        verdict = mk.leq_oracle(S, a, b, side)
        witness_text = mk.format_element(verdict.witness) if verdict.holds else ""
        return a, b, result, generator_text, verified, holds, verdict, witness_text

    def digest(self, op, out):
        a, b, result, generator_text, verified, holds, verdict, witness_text = out
        return generator_text, verified, holds, verdict.holds, witness_text

    def check(self, ref, op, out):
        a, b, result, generator_text, verified, holds, verdict, witness_text = out
        carrier, side = ref[op[0]], op[1]
        common = carrier.ideal(a, side) & carrier.ideal(b, side)
        if result.empty:
            meet_ok = common == 0 and generator_text == "EMPTY"
        else:
            g = result.generator
            meet_ok = g in carrier.index and carrier.ideal(g, side) == common and generator_text == str(g)
        member = bool(carrier.ideal(b, side) >> carrier.index[a] & 1)
        if not (meet_ok and verified and holds == member and verdict.holds == member):
            return False
        if not member:
            return witness_text == ""
        w = verdict.witness
        return (b * w if side == "R" else w * b) == a and witness_text == str(w)


# --- shift monoid ----------------------------------------------------------


def nf_product(a, b):
    """(excluded, shift) product, left to right: x survives iff it avoids a's
    punctures and x + a.shift avoids b's."""
    return tuple(sorted(set(a[0]) | {x - a[1] for x in b[0]})), a[1] + b[1]


def nf_text(excluded, shift):
    return "{%s};%+d" % (",".join(map(str, excluded)), shift)


def _pair(nf):
    return tuple(nf.excluded), nf.shift


ONE, PUNCTURE = ((), 0), ((0,), 0)
EXPONENT_STRATA = 20


class ShiftMonoid(ImportSetup):
    """in_annihilator on normal-form pairs parsed from text, half accepted by
    construction (and given annihilator_witness), half rejected; exponents
    log-uniform in 1..10^4, one accepted and one rejected pair per stratum of
    width 0.2 decades.  Each round also evaluates two long words (316-3162
    letters) and runs chain_search under Y_{n-1} and Y_n for two n in 2..7."""

    rounds = 4

    def round(self, ref, rng):
        ops = []
        for stratum in range(EXPONENT_STRATA):
            for accepted in (True, False):
                k = max(1, round(10 ** (4 * (stratum + rng.random()) / EXPONENT_STRATA)))
                ops.append(self._annihilator_pair(rng, k, rng.choice("gh"), accepted))
        for stratum in range(2):
            length = int(10 ** (2.5 + 0.5 * (stratum + rng.random())))
            ops.append(("word", "".join(rng.choice("ghe") for _ in range(length))))
        for _ in range(2):
            ops.append(("chain", rng.randint(2, 7)))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _annihilator_pair(rng, k, side, accepted):
        """u with a puncture at +-k, so g^k·e·u (side g) or h^k·e·u (side h)
        has 0 excluded; v is that product with 0 dropped half the time, plus
        one more puncture when the pair is to be rejected."""
        pivot = k if side == "g" else -k
        excluded = {pivot, *rng.sample(range(-20, 21), rng.randint(0, 2))}
        u = (tuple(sorted(excluded)), rng.randint(-20, 20))
        target = nf_product(((), k if side == "g" else -k), nf_product(PUNCTURE, u))
        v_excluded = set(target[0])
        if rng.random() < 0.5:
            v_excluded.discard(0)
        if not accepted:
            v_excluded.add(rng.choice([z for z in range(-30, 31) if z not in target[0]]))
        v = (tuple(sorted(v_excluded)), target[1])
        return ("ann", nf_text(*u), nf_text(*v), k, side, accepted)

    def run(self, ctx, op):
        if op[0] == "ann":
            u, v = mk.parse_element("NF", op[1]), mk.parse_element("NF", op[2])
            verdict = mk.in_annihilator(u, v)
            if not verdict.member:
                return u, v, verdict, None, None
            witness = mk.annihilator_witness(u, v)
            return u, v, verdict, witness, _join_rows(witness.steps, mk.format_element)
        if op[0] == "word":
            nf = mk.nf_of_word(op[1])
            return nf, mk.format_element(nf)
        n = op[1]
        return mk.chain_search(n, y_index=n - 1), mk.chain_search(n, y_index=n)

    def digest(self, op, out):
        if op[0] == "ann":
            return out[2], out[4]
        if op[0] == "word":
            return out[1]
        return tuple((report.reached, report.explored, report.depth) for report in out)

    def check(self, ref, op, out):
        if op[0] == "ann":
            return self._check_annihilator(op, *out)
        if op[0] == "word":
            nf, text = out
            shift, excluded = 0, set()
            for letter in op[1]:
                if letter == "e":
                    excluded.add(-shift)
                else:
                    shift += 1 if letter == "g" else -1
            return _pair(nf) == (tuple(sorted(excluded)), shift) and text == nf_text(*_pair(nf))
        blocked, direct = out
        return not blocked.reached and direct.reached and direct.depth == 1

    @staticmethod
    def _check_annihilator(op, u, v, verdict, witness, witness_text):
        _, _, _, k, side, accepted = op
        u, v = _pair(u), _pair(v)
        eu, ev = nf_product(PUNCTURE, u), nf_product(PUNCTURE, v)
        if not accepted:
            # The shifts of e·u and e·v leave one candidate exponent; it fails.
            candidate = ((), ev[1] - eu[1])
            return not verdict.member and nf_product(candidate, eu) != ev
        if not (verdict.member and verdict.n == k and verdict.side == side):
            return False
        up, down = ((), k), ((), -k)
        pairs = [
            (ONE, PUNCTURE),
            (nf_product(up, PUNCTURE), nf_product(nf_product(down, PUNCTURE), up)),
            (nf_product(down, PUNCTURE), nf_product(nf_product(up, PUNCTURE), down)),
        ]
        allowed = set(pairs) | {(d, c) for c, d in pairs}
        current = v
        for c, d, t in witness.steps:
            c, d, t = _pair(c), _pair(d), _pair(t)
            if (c, d) not in allowed or nf_product(c, t) != current:
                return False
            current = nf_product(d, t)
        return (
            current == u
            and _pair(witness.start) == v
            and witness_text == _join_rows(witness.steps, lambda z: nf_text(*_pair(z)))
        )


# --- verify-all ------------------------------------------------------------


class VerifyAll(ImportSetup):
    """`python -m monoidkit verify all --seed <s>` in a child process."""

    def round(self, ref, rng):
        return [rng.randrange(1_000_000)]

    def run(self, ctx, seed):
        _, done = child(["-m", "monoidkit", "verify", "all", "--seed", str(seed)])
        return done.returncode, done.stdout

    def digest(self, op, out):
        returncode, stdout = out
        return returncode, [line.rsplit(" (", 1)[0] for line in stdout.splitlines()]

    def check(self, ref, op, out):
        returncode, stdout = out
        return returncode == 0 and all_suites_pass(stdout)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def trace(self, seed):
        """Two in-process passes of the CLI in a child: one recording only the
        suite times, one with the tracer; both are checked."""
        op_seed = self.round(None, random.Random(seed))[0]
        passes = []
        for trace in (0, 1):
            seconds, done = child([str(CHILD_SCRIPT), "--seed", str(op_seed), "--trace", str(trace)])
            *lines, last = done.stdout.splitlines() or [""]
            if done.returncode != 0:
                return {"attempted": 2, "failed": 1, "correct": False}
            report = json.loads(last)
            ok = report["code"] == 0 and all_suites_pass("\n".join(lines))
            passes.append((seconds, report, ok))
        (plain_s, plain, plain_ok), (traced_s, traced, traced_ok) = passes
        suites = plain["suites"]
        return {
            "attempted": 2,
            "failed": 0,
            "correct": plain_ok and traced_ok,
            "ops": 1,
            "stats": traced["stats"],
            "suites": suites,
            "cli_overhead_ms": (plain_s - sum(suites.values())) * 1e3,
            "overhead_pct": (traced_s / plain_s - 1) * 100,
        }

WORKLOADS = {
    "closure": Closure,
    "meets": Meets,
    "shift-monoid": ShiftMonoid,
    "verify-all": VerifyAll,
}
