import itertools
import pathlib
import random
import re
import sys
import time

import pytest
import scanner_oracle
from canonical_oracle import canonical

from monoidkit.elements import PartialMap, Partition, enumerate_elements, is_kind, map_item_table, point_table
from monoidkit.pmonoid import NF, annihilator_witness, nf_inverse, nf_mul, nf_of_word, nf_power, y_class
from monoidkit import textio
from monoidkit.textio import (
    ParseError,
    format_element,
    parse_element,
    parse_nf,
    parse_partial_map,
    parse_partition,
    parse_word,
    render_partition,
)

DATA = pathlib.Path(__file__).parent / "data"


# --- grammars ---------------------------------------------------------------


def test_parse_partial_map():
    assert parse_partial_map("[2,_,1]") == PartialMap([2, None, 1])
    assert parse_partial_map("[_]") == PartialMap([None])
    assert parse_partial_map("[2, _, 1]") == PartialMap([2, None, 1])


def test_parse_partition():
    assert parse_partition("{1 2'}{2}{1'}") == Partition(2, [[1, -2], [2], [-1]])
    assert parse_partition("{1 1'}{2 2'}") == Partition.identity(2)


def test_parse_nf():
    assert parse_nf("{0};+0") == NF((0,), 0)
    assert parse_nf("{};+1") == NF((), 1)
    assert parse_nf("{-2,-1};+2") == NF((-2, -1), 2)
    assert parse_nf("{-1,-2};2") == NF((-2, -1), 2)  # lenient input, one canon form


def test_parse_word():
    assert parse_word("gege") == NF((-2, -1), 2)
    assert parse_word("") == NF((), 0)


def test_parse_element_kind_refinements():
    assert parse_element("T", "[1,2]") == PartialMap([1, 2])
    with pytest.raises(ParseError):
        parse_element("T", "[1,_]")
    with pytest.raises(ParseError):
        parse_element("I", "[1,1]")
    assert parse_element("I", "[2,_]") == PartialMap([2, None])


@pytest.mark.parametrize(
    "kind,text,position",
    [
        ("PT", "[1,_", 4),
        ("PT", "[0,1]", 1),
        ("PT", "[3,1]", 0),
        ("P", "{1 2'}{2}", 9),
        ("P", "{1 1 1'}{2 2'}", 3),
        ("NF", "{0;+0", 2),
        ("NF", "{0,0};+0", 3),
        ("NF", "{};", 3),
        ("NF", "{", 1),
        ("word", "gaffe", 1),
    ],
)
def test_parse_errors_carry_positions(kind, text, position):
    with pytest.raises(ParseError) as err:
        parse_element(kind, text)
    assert err.value.position == position


@pytest.mark.parametrize("digit", ["²", "٣"])
@pytest.mark.parametrize(
    "kind,template,position",
    [
        ("PT", "[{}]", 1),
        ("PT", "[1,{}]", 3),
        ("P", "{{{} 1'}}", 1),
        ("P", "{{1 1'}}{{{}'}}", 7),
        ("NF", "{{{}}};+0", 1),
        ("NF", "{{}};-{}", 4),
    ],
)
def test_only_ascii_digits(kind, template, position, digit):
    """A non-ASCII digit is not read as a number: it is a parse error at its
    own position, not a bare ValueError from int() or a silent 3."""
    text = template.format(digit)
    with pytest.raises(ParseError) as err:
        parse_element(kind, text)
    assert (err.value.reason, err.value.position) == ("expected a digit", position)


LONG = "1" * 5000


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(LONG),
    reason="this Python converts numerals of any length",
)
@pytest.mark.parametrize(
    "kind,template,position",
    [
        ("PT", "[{}]", 1),
        ("PT", "[1,{}]", 3),
        ("P", "{{{} 1'}}", 1),
        ("P", "{{1 1'}}{{{}'}}", 7),
        ("NF", "{{{}}};+0", 1),
        ("NF", "{{0, -{}}};+0", 4),
        ("NF", "{{}};-{}", 3),
    ],
)
def test_long_numerals(kind, template, position):
    """A numeral past Python's integer string limit is a parse error at its
    start, sign included, not a bare ValueError from int()."""
    with pytest.raises(ParseError) as err:
        parse_element(kind, template.format(LONG))
    assert (err.value.reason, err.value.position) == ("numeral too long", position)


FUZZ_ALPHABET = "{}[],;_'+- 0123456789x²"
FUZZ_SEEDS = ("[2,_,1]", "[ 1 , _ ]", "[]", "{1 2'}{2}{1'}", "{1 1'}{2 2'}", "{-2,-1};+2", "{ };-0", "{0,+3};5")
PARSERS = ("parse_partial_map", "parse_partition", "parse_nf")


def _fuzz_texts(rng, count):
    """Random strings over the grammars' characters, and canonical texts with
    up to three characters replaced, inserted or deleted."""
    for _ in range(count):
        if rng.random() < 0.5:
            yield "".join(rng.choice(FUZZ_ALPHABET) for _ in range(rng.randint(0, 10)))
            continue
        chars = list(rng.choice(FUZZ_SEEDS))
        for _ in range(rng.randint(1, 3)):
            j = rng.randrange(len(chars) + 1)
            op = rng.random()
            if op < 0.4 and j < len(chars):
                chars[j] = rng.choice(FUZZ_ALPHABET)
            elif op < 0.7:
                chars.insert(j, rng.choice(FUZZ_ALPHABET))
            elif j < len(chars):
                del chars[j]
        yield "".join(chars)


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except ParseError as exc:
        return "parse error", exc.reason, exc.position
    except ValueError as exc:
        return "value error", str(exc)


def test_parsers_match_scanner_oracle():
    """On fuzzed text the one-pass parsers give the old scanner's element or
    (reason, position), apart from its two known faults: an error after a
    sign step at the end of the text is reported one past the end, and a
    non-ASCII digit escapes as a bare ValueError."""
    seen = {}
    for text in _fuzz_texts(random.Random(41), 20000):
        for name in PARSERS:
            want = _outcome(getattr(scanner_oracle, name), text)
            got = _outcome(getattr(textio, name), text)
            if want[0] == "value error" and "²" in text:
                assert got[0] == "parse error" and 0 <= got[2] <= len(text), (name, text, got)
                key = "digit fix"
            elif want[0] == "parse error" and want[2] == len(text) + 1:
                assert got == (want[0], want[1], len(text)), (name, text, got)
                key = "end fix"
            else:
                assert got == want, (name, text, got, want)
                key = want[0]
            seen[name, key] = seen.get((name, key), 0) + 1
    for name in PARSERS:
        assert seen[name, "ok"] > 20 and seen[name, "parse error"] > 1000 and seen[name, "digit fix"] > 50
    assert seen["parse_nf", "end fix"] > 40


READERS = {
    "parse_partial_map": textio._read_partial_map,
    "parse_partition": textio._read_partition,
    "parse_nf": textio._read_nf,
}
# A map text as a list of items, each _ or a digit run, with spaces around
# it: the map and partition parsers match no pattern, so the texts are
# sorted by these.
_MAP_ITEM = r" *(?:_|[0-9]+) *"
MAP_TEXT = re.compile(rf"\[(?: *|{_MAP_ITEM}(?:,{_MAP_ITEM})*)\]")
# The same for a partition text as blocks of points, each a digit run that
# does not end before a digit, with an optional prime and spaces around it.
PARTITION_TEXT = re.compile(r"(?:\{ *(?:[0-9]+(?![0-9])'? *)+\})+")
# The same for a normal-form text as a list of signed digit runs with spaces
# around each, then a signed shift: `parse_nf`'s own pattern takes canonical
# text alone.
_NF_ITEM = r" *[+-]?[0-9]+ *"
NF_TEXT = re.compile(rf"\{{(?: *|{_NF_ITEM}(?:,{_NF_ITEM})*)\}};[+-]?[0-9]+")
WHOLE_TEXT = {
    "parse_partial_map": MAP_TEXT,
    "parse_partition": PARTITION_TEXT,
    "parse_nf": NF_TEXT,
}


def _grammar_texts(rng, count):
    """Texts built item by item in one of the three grammars: random spaces,
    leading zeros, zeros, out-of-range points, repeats and omissions, and
    every third text with one character replaced."""

    def zeros():
        return "0" * rng.choice((0, 0, 0, 1, 2))

    def spaces():
        return " " * rng.choice((0, 0, 0, 1, 2))

    for _ in range(count):
        grammar = rng.randrange(3)
        if grammar == 0:
            items = [
                spaces() + ("_" if rng.random() < 0.2 else zeros() + str(rng.randint(0, 5))) + spaces()
                for _ in range(rng.randint(0, 5))
            ]
            text = "[" + (",".join(items) or spaces()) + "]"
        elif grammar == 1:
            n = rng.randint(0, 4)
            points = [(x, prime) for x in range(1, n + 1) for prime in ("", "'")]
            if points and rng.random() < 0.3:
                points.remove(rng.choice(points))
            if rng.random() < 0.3:
                points.append((rng.randint(0, n + 1), rng.choice(("", "'"))))
            rng.shuffle(points)
            names = [spaces() + zeros() + str(x) + prime + spaces() for x, prime in points]
            cuts = sorted(rng.sample(range(1, len(names)), rng.randint(0, max(len(names) - 1, 0))))
            bounds = zip([0] + cuts, cuts + [len(names)])
            text = "".join("{" + "".join(names[i:j]) + "}" for i, j in bounds if i < j)
        else:
            items = [
                spaces() + rng.choice(("", "+", "-")) + zeros() + str(rng.randint(0, 4)) + spaces()
                for _ in range(rng.randint(0, 4))
            ]
            shift = rng.choice(("", "+", "-")) + zeros() + str(rng.randint(0, 9))
            text = "{" + (",".join(items) or spaces()) + "};" + shift
        if text and rng.random() < 1 / 3:
            j = rng.randrange(len(text))
            text = text[:j] + rng.choice(FUZZ_ALPHABET) + text[j + 1:]
        yield text


def test_whole_text_path_matches_item_reader():
    """On fuzzed text each parser gives the item-by-item reader's element or
    (reason, position).  Many texts take the whole-text path to an element,
    and many match a whole-text pattern yet fail its checks."""
    rng = random.Random(53)
    seen = {}
    for text in itertools.chain(_fuzz_texts(rng, 10000), _grammar_texts(rng, 20000)):
        for name in PARSERS:
            got = _outcome(getattr(textio, name), text)
            assert got == _outcome(READERS[name], text), (name, text, got)
            key = name, got[0], bool(WHOLE_TEXT[name].fullmatch(text))
            seen[key] = seen.get(key, 0) + 1
    for name in PARSERS:
        assert seen[name, "ok", True] > 1000 and seen[name, "parse error", True] > 300, seen


@pytest.mark.parametrize(
    "name,text,outcome",
    [
        ("parse_partition", "{3' 04}{4' 4}{3}{2' 1' 1}", ("parse error", "point 4 repeated", 11)),
        ("parse_partition", "{1'2}{1 2'}", ("ok", Partition(2, [[-1, 2], [1, -2]]))),
        ("parse_partition", "{1 1' 1}", ("parse error", "point 1 repeated", 6)),
        ("parse_partition", "{1}{1' 1}", ("parse error", "point 1 repeated", 7)),
        ("parse_partition", "{1 1' 2}", ("parse error", "point 2' missing", 8)),
        ("parse_partition", "{1  1'}", ("ok", Partition.identity(1))),
        ("parse_partition", "{01 1'}", ("ok", Partition.identity(1))),
        ("parse_partition", "{}", ("parse error", "expected a digit", 1)),
        ("parse_partial_map", "[ ]", ("ok", PartialMap([]))),
        ("parse_nf", "{ };+0", ("ok", NF((), 0))),
        ("parse_nf", "{-1,-2};2", ("ok", NF((-2, -1), 2))),
        ("parse_nf", "{0,+3};5", ("ok", NF((0, 3), 5))),
        ("parse_nf", "{-0};+1", ("ok", NF((0,), 1))),
        ("parse_nf", "{};-0", ("ok", NF((), 0))),
        ("parse_nf", "{01};+1", ("ok", NF((1,), 1))),
        ("parse_partial_map", f"[{LONG}]", None),
        ("parse_partition", f"{{1 1'}}{{{LONG}'}}", None),
        ("parse_nf", f"{{-{LONG}}};+0", None),
        ("parse_nf", f"{{}};+{LONG}", None),
        ("parse_nf", f"{{}};+{'0' * 5000}1", None),
    ],
    ids=["repeat-with-leading-zero", "prime-before-digit", "odd-count-repeat", "repeat-across-blocks",
         "odd-count-new-point", "double-space", "leading-zero", "empty-block", "blank-map", "blank-nf",
         "nf-descending", "nf-plus-item", "nf-minus-zero-item", "nf-minus-zero-shift", "nf-leading-zero",
         "long-image", "long-point", "long-excluded", "long-shift", "long-zero-run"],
)
def test_whole_text_path_named_cases(name, text, outcome):
    """Texts that tripped earlier whole-text readers: numerals compared as
    strings, a prime directly before a digit, blank item lists, and numerals
    past Python's integer string limit (the outcome depends on the Python);
    and partition texts off the point table: 2n+1 items, which round n down
    and so must name a point twice, 2n-1 items, whose last item lies past
    that n, and spellings the table does not hold."""
    got = _outcome(getattr(textio, name), text)
    assert got == _outcome(READERS[name], text)
    if outcome is not None:
        assert got == outcome
    if got[0] == "ok" and name == "parse_nf":
        assert str(got[1]) == _nf_fields_text(got[1])


@pytest.mark.parametrize(
    "text",
    ["{" + "1" * 10000 + "x", "{" + "1 " * 5000 + "x", "[" + "1, " * 5000 + "x"],
    ids=["digit-run", "spaced-points", "map-items"],
)
def test_hostile_text_refused_quickly(text):
    """No whole-text pattern backtracks through a long digit or item run."""
    for name in PARSERS:
        start = time.perf_counter()
        with pytest.raises(ParseError):
            getattr(textio, name)(text)
        assert time.perf_counter() - start < 0.25, name


def _map_texts(n):
    """Every text of PT_n, and each with one image made 0 or n+1."""
    for a in enumerate_elements("PT", n):
        yield str(a)
        for j in range(n):
            for v in (0, n + 1):
                yield str(a)[:2 * j + 1] + str(v) + str(a)[2 * j + 2:]


@pytest.mark.parametrize("n", range(5))
def test_map_range_check_matches_item_reader(n):
    """On PT_n's texts the whole-text path returns the item reader's map, and
    an image of 0 or past n gets the reader's (reason, position)."""
    refused = 0
    for text in _map_texts(n):
        got = _outcome(parse_partial_map, text)
        assert got == _outcome(textio._read_partial_map, text), text
        refused += got[0] == "parse error"
    assert refused == 2 * n * (n + 1) ** n


@pytest.mark.parametrize("n", range(7))
def test_map_item_table_names_each_value_once(n):
    """The table names None as _ and 1..n by their numerals, nothing else,
    and its inverse reads each name back."""
    names, values = map_item_table(n)
    assert names == {None: "_", **{x: str(x) for x in range(1, n + 1)}}
    assert values == {text: v for v, text in names.items()}


def test_map_item_tables_are_kept_for_eight_sizes():
    """A kept table costs about 160 bytes a point, so the count of sizes kept
    is pinned: raising it raises what a few large maps leave held."""
    assert map_item_table.cache_info().maxsize == 8


@pytest.mark.parametrize("n", range(5))
def test_every_small_map_text_parses_to_its_element(n):
    """Every T, PT and I element on up to 4 points is what its own text
    parses to, under each kind that holds it."""
    for a in enumerate_elements("PT", n):
        assert parse_partial_map(str(a)) == a
        for kind in ("T", "I"):
            if is_kind(a, kind):
                assert parse_element(kind, str(a)) == a


def _map_variants(a):
    """Spellings next to a map's text: a space or a leading zero at each
    item, an item left empty, a stray bracket, and an item added or dropped
    (the last two are canonical when the images stay in range)."""
    items = str(a)[1:-1].split(",") if a.n else []
    for j in range(a.n):
        for item in (f" {items[j]}", f"{items[j]} ", f"0{items[j]}", ""):
            yield "[" + ",".join(items[:j] + [item] + items[j + 1:]) + "]"
    yield "[" + ",".join(items) + "]]"
    yield "[[" + ",".join(items) + "]"
    yield "[" + ",".join(items + [str(a.n + 1)]) + "]"
    yield "[" + ",".join(items[:-1]) + "]"


@pytest.mark.parametrize("n", range(5))
def test_non_canonical_map_texts_take_the_item_reader(n):
    """Every spelling next to a canonical text gets the item reader's map or
    (reason, position), whichever path it takes."""
    seen = set()
    for a in enumerate_elements("PT", n):
        for text in _map_variants(a):
            got = _outcome(parse_partial_map, text)
            assert got == _outcome(textio._read_partial_map, text), text
            seen.add(got[0])
    assert seen == {"ok", "parse error"}


def test_long_canonical_map_parses_and_prints_in_linear_time():
    """A 100,000-point map goes through the item table both ways in time
    that grows with its length."""
    a = PartialMap([None if x % 7 == 0 else (x * 31) % 100_000 + 1 for x in range(100_000)])
    text = "[" + ",".join("_" if v is None else str(v) for v in a.images) + "]"
    try:
        start = time.perf_counter()
        assert parse_partial_map(text) == a
        assert str(a) == text
        assert time.perf_counter() - start < 2.0
    finally:
        map_item_table.cache_clear()


@pytest.mark.parametrize("n", range(7))
def test_point_table_names_each_point_once(n):
    """The table names x as x and n+x as x' for x in 1..n, nothing else,
    and its inverse reads each name back to its stored point."""
    names, points = point_table(n)
    assert names == ("", *map(str, range(1, n + 1)), *[f"{x}'" for x in range(1, n + 1)])
    assert points == {names[p]: p for p in range(1, 2 * n + 1)}


def _took_the_item_reader(text):
    raise AssertionError(f"{text!r} took the item reader")


@pytest.mark.parametrize("n", range(4))
def test_every_small_partition_text_parses_to_its_element(n, monkeypatch):
    """Every P element on up to 3 points is what its own text parses to,
    and so is that text with its blocks and each block's points reversed:
    the item reader reads the same element, and past the empty text the
    parser never calls it."""
    cases = []
    for a in enumerate_elements("P", n):
        blocks = [[str(p) if p <= n else f"{p - n}'" for p in block] for block in a.blocks]
        for text in (str(a), "".join("{%s}" % " ".join(b[::-1]) for b in blocks[::-1])):
            assert textio._read_partition(text) == a, text
            cases.append((text, a))
    if n:
        monkeypatch.setattr(textio, "_read_partition", _took_the_item_reader)
    for text, a in cases:
        assert parse_partition(text) == a
    assert len(cases) == 2 * (1, 2, 15, 203)[n]


def _partition_variants(a):
    """Spellings next to a partition's text: at each point a doubled space,
    a leading zero, or the point dropped, repeated or followed by one past
    n."""
    blocks = [block.split(" ") for block in str(a)[1:-1].split("}{")]
    for i, block in enumerate(blocks):
        for j, item in enumerate(block):
            for items in ([" " + item], ["0" + item], [], [item, item], [item, str(a.n + 1)]):
                spoiled = blocks[:i] + [block[:j] + items + block[j + 1:]] + blocks[i + 1:]
                yield "".join("{" + " ".join(b) + "}" for b in spoiled)


@pytest.mark.parametrize("n", range(1, 4))
def test_non_canonical_partition_texts_take_the_item_reader(n):
    """Every spelling next to a canonical text gets the item reader's
    partition or (reason, position), whichever path it takes."""
    seen = set()
    for a in enumerate_elements("P", n):
        for text in _partition_variants(a):
            got = _outcome(parse_partition, text)
            assert got == _outcome(textio._read_partition, text), text
            seen.add(got[0])
    assert seen == {"ok", "parse error"}


def test_long_partition_parses_and_prints_in_linear_time():
    """A 100,000-point partition goes through the point table both ways in
    time that grows with its length."""
    n = 100_000
    a = Partition(n, [[x, -((x * 31) % n + 1)] for x in range(1, n + 1)])
    text = str(a)
    start = time.perf_counter()
    assert parse_partition(text) == a
    assert str(a) == text
    assert time.perf_counter() - start < 2.0


def test_tables_are_kept_only_for_small_sizes():
    """A table for more than 64 points is built on each call and not kept,
    so a 100,000-point map or partition, printed and read back, leaves
    nothing in either cache; a small one is kept."""
    n = 100_000
    for table in (map_item_table, point_table):
        table.cache_clear()
    a = PartialMap([(x * 7) % n + 1 for x in range(n)])
    b = Partition(n, [[x, -x] for x in range(1, n + 1)])
    assert parse_partial_map(str(a)) == a and parse_partition(str(b)) == b
    for table in (map_item_table, point_table):
        assert table.cache_info().currsize == 0 and table.cache_info().misses == 0
        table(64)
        table(65)
        assert table.cache_info().currsize == 1


def test_round_trip_pt3_and_p2():
    for kind, n in (("PT", 3), ("P", 2)):
        for x in enumerate_elements(kind, n):
            assert parse_element(kind, format_element(x)) == x


@pytest.mark.parametrize(
    "cls,args",
    [
        (PartialMap, ([True],)),
        (Partition, (-1, [])),
        (Partition, (1.5, [[1, -1]])),
        (NF, ((), 0.5)),
        (NF, ((1.5,), 0)),
        (NF, ([1], 0)),
    ],
    ids=["map-bool", "partition-negative-n", "partition-float-n", "nf-float-shift", "nf-float-point", "nf-list"],
)
def test_constructors_refuse_what_their_text_cannot_say(cls, args):
    with pytest.raises(ValueError):
        cls(*args)


def test_round_trip_random_nfs():
    rng = random.Random(19)
    for _ in range(1000):
        k = rng.randint(0, 4)
        nf = NF(
            tuple(sorted(rng.sample(range(-20, 21), k))),
            rng.randint(-20, 20),
        )
        assert parse_nf(format_element(nf)) == nf


@pytest.mark.parametrize(
    "text,n,signed",
    [
        ("{2' 1}{2 1'}", 2, [[-2, 1], [2, -1]]),
        ("{1'}{1}", 1, [[-1], [1]]),
        ("{ 3' 3 }{1' 2}{1}{2'}", 3, [[-3, 3], [-1, 2], [1], [-2]]),
        ("{2'}{2 1 1'}", 2, [[-2], [2, 1, -1]]),
        ("", 0, []),
    ],
)
def test_parsed_partition_is_canonical(text, n, signed):
    """The parser builds its partition without the validating constructor;
    that constructor, on the same signed blocks, is its oracle."""
    x = parse_partition(text)
    assert x == Partition(n, signed)
    assert x.blocks == canonical(n, x.blocks)


def test_parsed_canonical_texts_keep_their_blocks():
    for n in range(4):
        for x in enumerate_elements("P", n):
            assert parse_partition(str(x)).blocks == x.blocks


def _nf_fields_text(nf):
    return "{%s};%+d" % (",".join(map(str, nf.excluded)), nf.shift)


NF_RESPELLED = ("{-1,-2};2", "{0,+3};5", "{-0};+1", "{};-0", "{ };+0", "{01};+1", "{+3};+0", "{3};+03")


def test_every_nf_prints_its_own_fields():
    """Whatever built it, a normal form prints exactly `{%s};%+d` of its
    fields, on its first print and from the kept text after: parsed from
    fuzzed, grammar and respelled texts, read item by item, constructed,
    multiplied, powered, inverted, evaluated from a word, listed in a
    ρ_{Y_k}-class and met in an annihilator witness."""
    rng = random.Random(59)
    made = []
    for text in itertools.chain(_fuzz_texts(rng, 10000), _grammar_texts(rng, 20000), NF_RESPELLED):
        for parse in (parse_nf, textio._read_nf):
            outcome = _outcome(parse, text)
            if outcome[0] == "ok":
                made.append(outcome[1])
    parsed = len(made)
    for _ in range(300):
        a = NF(tuple(sorted(rng.sample(range(-20, 21), rng.randint(0, 4)))), rng.randint(-20, 20))
        b = nf_of_word("".join(rng.choice("ghe") for _ in range(rng.randint(0, 12))))
        made += [a, b, nf_mul(a, b), nf_mul(b, a), nf_power(a, rng.randint(0, 5)), nf_inverse(a)]
        made += y_class(a, rng.randint(1, 5))
        v = y_class(a, 40)[-1]
        for step in annihilator_witness(a, v).steps:
            made += step
    assert parsed > 5000 and len(made) > parsed + 4000
    for nf in made:
        want = _nf_fields_text(nf)
        assert str(nf) == want and str(nf) == want, (repr(nf), str(nf))


def test_nf_text_slot_refused_from_outside():
    nf = parse_nf("{-2,-1};+2")
    for name in ("_text", "excluded", "shift"):
        with pytest.raises(AttributeError):
            setattr(nf, name, "{};+0")
    assert str(nf) == "{-2,-1};+2"


def test_canonical_nf_texts_take_the_fast_path(monkeypatch):
    """A canonical text parses without the item reader, to an element that
    keeps the text itself; respelled with signed items in reverse and an
    unsigned shift, it parses to the same element, which prints
    canonically."""
    rng = random.Random(61)
    elements = [NF(tuple(sorted(rng.sample(range(-12, 13), k))), s)
                for k in range(5) for s in range(-12, 13) for _ in range(4)]
    elements += [NF((-10 ** 12, 0, 10 ** 12), 10 ** 12), NF((), -10 ** 12)]
    respelled = {nf: "{%s};%d" % (",".join(f"{x:+d}" for x in reversed(nf.excluded)), nf.shift) for nf in elements}
    monkeypatch.setattr(textio, "_read_nf", _took_the_item_reader)
    for nf in elements:
        text = _nf_fields_text(nf)
        got = parse_nf(text)
        assert got == nf and str(got) is text
    monkeypatch.undo()
    for nf, text in respelled.items():
        assert parse_nf(text) == nf and str(parse_nf(text)) == _nf_fields_text(nf)


def test_canonical_text_is_fixed_point():
    for text in ("[2,_,1]", "{1 2'}{2}{1'}", "{-2,-1};+2"):
        kind = {"[": "PT", "{": "P" if "'" in text else "NF"}[text[0]]
        assert format_element(parse_element(kind, text)) == text


# --- DOT rendering -------------------------------------------------------------


def test_render_identity_counts():
    dot = render_partition(Partition.identity(2))
    assert dot.count("--") == 2
    assert dot.count("label=") == 4


def test_render_three_point_block():
    dot = render_partition(Partition(2, [[1, 2, -1], [-2]]))
    assert "u1 -- u2;" in dot
    assert "u2 -- l1;" in dot
    assert dot.count("--") == 2


def test_render_golden_p2():
    rendered = "".join(render_partition(a) for a in enumerate_elements("P", 2))
    golden = (DATA / "p2_render.dot").read_text()
    assert rendered == golden


@pytest.mark.parametrize("kind,text", [("X", "[1]"), ("t", "[1]"), ("", "{1 1'}")])
def test_parse_element_refuses_an_unknown_kind(kind, text):
    with pytest.raises(ValueError, match=f"^unknown kind {kind!r}$") as info:
        parse_element(kind, text)
    assert not isinstance(info.value, ParseError)
