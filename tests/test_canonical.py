"""The one label scan that puts partition blocks in canonical order
(`blocks_by_label`), as the parser, the validating constructor, `star` and
`str` use it, against the sort-based oracle and the old formulas in
`canonical_oracle`."""

import gc
import random
import sys
import time
import tracemalloc

import pytest

import canonical_oracle
from monoidkit import textio
from monoidkit.elements import Partition, blocks_by_label, enumerate_elements
from monoidkit.textio import ParseError, parse_partition


def _signed(n, block):
    return [p if p <= n else n - p for p in block]


def _internal(n, signed_blocks):
    return [[p if p > 0 else n - p for p in block] for block in signed_blocks]


def _text(signed_blocks):
    return "".join(
        "{%s}" % " ".join(str(p) if p > 0 else f"{-p}'" for p in block) for block in signed_blocks
    )


def _shuffled(rng, n, blocks):
    """The blocks as signed lists, in random block order and point order."""
    signed = [_signed(n, block) for block in blocks]
    rng.shuffle(signed)
    for block in signed:
        rng.shuffle(block)
    return signed


def _random_blocks(rng, n):
    """A random partition of the 2n stored points, its blocks as lists."""
    groups = {}
    k = rng.randint(1, 2 * n)
    for p in range(1, 2 * n + 1):
        groups.setdefault(rng.randrange(k), []).append(p)
    return list(groups.values())


def _shuffled_cases():
    """Every element of P_0..P_3 three times, and 2,000 random elements of
    P_5, each as a shuffled list of signed blocks."""
    rng = random.Random(27)
    for n in range(4):
        for a in enumerate_elements("P", n):
            for _ in range(3):
                yield n, _shuffled(rng, n, a.blocks)
    for _ in range(2000):
        yield 5, _shuffled(rng, 5, _random_blocks(rng, 5))


def test_parse_and_constructor_match_the_sort_oracle():
    cases = 0
    for n, signed in _shuffled_cases():
        want = canonical_oracle.canonical(n, _internal(n, signed))
        assert Partition(n, signed).blocks == want, signed
        parsed = parse_partition(_text(signed))
        assert (parsed.n, parsed.blocks) == (n, want), signed
        assert textio._read_partition(_text(signed)) == parsed
        assert type(parsed.blocks) is tuple and all(type(block) is tuple for block in parsed.blocks)
        cases += 1
    assert cases == 3 * (1 + 2 + 15 + 203) + 2000


def test_blocks_by_label_matches_the_sort_oracle():
    """Any hashable labels, in any order: the blocks are the points sharing
    a label, in canonical order."""
    rng = random.Random(28)
    for _ in range(2000):
        n = rng.randint(0, 6)
        label = [None] + [rng.choice("abcdefgh") for _ in range(2 * n)]
        groups = {}
        for p in range(1, 2 * n + 1):
            groups.setdefault(label[p], []).append(p)
        assert blocks_by_label(label) == canonical_oracle.canonical(n, list(groups.values())), label


@pytest.mark.parametrize("n", range(5))
def test_star_and_str_match_the_old_formulas(n):
    for a in enumerate_elements("P", n):
        assert a.star().blocks == canonical_oracle.star_blocks(n, a.blocks), a
        assert str(a) == canonical_oracle.text(n, a.blocks), a


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except ParseError as exc:
        return "parse error", exc.reason, exc.position


@pytest.mark.parametrize(
    "text,reason,position",
    [
        ("{0 1'}", "points are numbered from 1", 1),
        ("{1 0'}", "points are numbered from 1", 3),
        ("{1 3}{2 4}", "point 1' missing", 10),
        ("{1 2'}{3' 2}", "point 1' missing", 12),
        ("{1 1'}{1 2'}", "point 1 repeated", 7),
        ("{1 1'}{2 3'}{2'}", "point 3 missing", 16),
        ("{1 1'}{2}", "point 2' missing", 9),
        ("{1 1'}{1' 2}{2'}", "point 1' repeated", 7),
        ("{2 2'}{1 1'}{3}", "point 3' missing", 15),
    ],
    ids=["zero", "zero-primed", "upper-above-n", "lower-above-n", "repeat", "missing",
         "odd-count", "repeat-primed", "one-past-n"],
)
def test_refused_texts_match_the_item_reader(text, reason, position):
    assert _outcome(parse_partition, text) == ("parse error", reason, position)
    assert _outcome(textio._read_partition, text) == ("parse error", reason, position)


def _spoiled(rng, n, signed):
    """The signed blocks with one point replaced by 0, by n+1 or by another
    point, or dropped, or one point added."""
    blocks = [list(block) for block in signed]
    block = rng.choice(blocks)
    j = rng.randrange(len(block))
    sign = rng.choice((1, -1))
    what = rng.randrange(5)
    if what == 0:
        block[j] = 0
    elif what == 1:
        block[j] = sign * (n + 1)
    elif what == 2:
        block[j] = sign * rng.randint(1, n)
    elif what == 3:
        del block[j]
    else:
        block.insert(j, sign * rng.randint(1, n + 1))
    return [block for block in blocks if block]


def test_spoiled_texts_match_the_item_reader():
    """One point zeroed, pushed past n, repeated, dropped or added: the
    parser gives the reader's element or (reason, position)."""
    rng = random.Random(29)
    refused = 0
    for n, signed in _shuffled_cases():
        if n == 0:
            continue
        spoiled = _text(_spoiled(rng, n, signed))
        got = _outcome(parse_partition, spoiled)
        assert got == _outcome(textio._read_partition, spoiled), spoiled
        refused += got[0] == "parse error"
    assert refused > 2000


def _constructor_outcome(make):
    try:
        return "ok", make()
    except ValueError as exc:
        return "value error", str(exc)


def test_constructor_refusals_match_the_sort_oracle():
    """An empty block, repeats, omissions: the validating constructor raises
    the oracle's error, with the same text, for the same first fault."""
    rng = random.Random(30)
    refused = 0
    for n, signed in _shuffled_cases():
        if n == 0:
            continue
        blocks = [list(block) for block in signed]
        for _ in range(rng.randint(1, 3)):
            block = rng.choice(blocks)
            what = rng.randrange(4)
            if what == 0:
                blocks.insert(rng.randrange(len(blocks) + 1), [])
            elif what == 1:
                block.insert(rng.randrange(len(block) + 1), rng.choice((1, -1)) * rng.randint(1, n))
            elif what == 2 and block:
                del block[rng.randrange(len(block))]
            elif block:
                rng.choice(blocks).append(block[rng.randrange(len(block))])
        got = _constructor_outcome(lambda: Partition(n, blocks).blocks)
        want = _constructor_outcome(lambda: canonical_oracle.canonical(n, _internal(n, blocks)))
        assert got == want, (n, blocks)
        refused += got[0] == "value error"
    assert refused > 1000


@pytest.mark.parametrize(
    "head,tail,point",
    [([], [1], "1"), ([100_000], [3], "3"), ([-7], [], "7'")],
    ids=["last-repeats-first", "least-after-first-met", "primed"],
)
def test_repeated_point_refused_in_linear_time(head, tail, point):
    """One block of all 200,000 points with one or two named again: the
    refusal names the least point met twice, as the oracle does, without
    counting each point's occurrences."""
    n = 100_000
    blocks = [head + list(range(1, n + 1)) + list(range(-1, -n - 1, -1)) + tail]
    start = time.perf_counter()
    got = _constructor_outcome(lambda: Partition(n, blocks))
    assert time.perf_counter() - start < 2.0
    want = _constructor_outcome(lambda: canonical_oracle.canonical(n, _internal(n, blocks)))
    assert got == want == ("value error", f"point {point} appears twice")


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="the tuple free lists are CPython's")
def test_parse_and_str_leave_no_tuples_behind():
    """Every tuple of a parsed partition is built from a list of known
    length.  CPython builds a tuple from an iterator at a guessed size and
    then shrinks it, so each one freed goes to the free list of its final
    size and stays there, up to 2,000 of them.  A full collection empties
    the free lists, so one comes first and none is made before measuring."""
    a = parse_partition("{1 2 3'}{3 1'}{2'}")
    text = str(a)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(5000):
            parse_partition(text)
            str(a)
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth < 16_000, growth
