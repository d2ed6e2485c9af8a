"""Text grammars for the element types, and DOT rendering of partitions.

Grammars (sizes are inferred from the content):

    partial map   [2,_,1]          one entry per point, _ for undefined
    partition     {1 2'}{2}{1'}    blocks of points, prime marks the lower row
    normal form   {-2,-1};+2       ascending excluded list, then signed shift
    word          gege             letters over g, h, e, possibly none

Each element's `str` is its canonical text (`format_element` is `str`);
parsing that text returns an equal element, whose `str` is the same text.

Digits are ASCII 0-9 only.  Each of the three grammars takes a fast path
for canonical text and hands everything else to its item-by-item reader
(`_read_partial_map`, `_read_partition`, `_read_nf`), which alone reports
errors.  Maps and partitions go by per-size tables, which also print them
(`elements.map_item_table`, `elements.point_table`): a map's text is split
on commas, a partition's, inside its outer braces, on `}{` and then on
single spaces, and each item is looked up in the inverse table for n
points, n being the item count for a map and half of it, rounded down, for
a partition.  A partition's items label each point with its block number,
and one scan of the labels in point order (`elements.blocks_by_label`)
gives the canonical blocks without a sort; a point named twice is passed
on like an item the table does not hold, and so is every text of 2n+1
items, which must name some point twice.  A normal form's text goes by a
pattern that admits only what `str` prints (no spaces, `+` item, leading
zero or `-0`), read with `str.split` and `int`; if its items ascend
strictly, the element keeps the text as its own and never prints it again.
Any other text (an item with spaces or a leading zero, a point out of
range or named twice, an unsorted list, a numeral too long for `int`)
goes to the reader.  A word has no reader: one `bytes.translate` that
deletes g, h and e from its ASCII text checks it, and only a word that
fails is scanned letter by letter, for the first bad symbol's position;
`nf_of_word`'s evaluation then runs in C-level passes.  The map and
normal-form readers share one bracketed-list reader (`_read_list`), and
the map and partition readers one point-label check (`_label`).  Text
outside a grammar raises `ParseError`, whose position lies in
0..len(text); the CLI prints it as `parse error: position P: reason` and
exits with status 2.  Every path runs in time linear in the text: a
table lookup reads each item once, and the pattern cannot backtrack into
a digit run it has already read.
"""

from __future__ import annotations

import re
from operator import lt

from .elements import PartialMap, Partition, blocks_by_label, is_kind, map_item_table, point_table
from .pmonoid import NF, _bad_letter, _nf_of_letters


class ParseError(ValueError):
    """A syntax or semantic error, carrying the offending position."""

    def __init__(self, message, position):
        super().__init__(f"position {position}: {message}")
        self.position = position
        self.reason = message


# Each pattern reads one item with the spaces around it (the shift after ';'
# takes none).  A missing digit run matches empty, so its start is the
# position where a digit was expected.
_SIGNED = re.compile(r" *([+-]?([0-9]*)) *")
_SHIFT = re.compile(r"[+-]?([0-9]*)")
_IMAGE = re.compile(r" *(?:(_)|([0-9]*)) *")
_POINT = re.compile(r" *([0-9]*)(')? *")

# Canonical normal-form text only: items as `%d` prints them, the shift as
# `%+d` does; no spaces, no `+` item, no leading zero and no `-0`.
_NF_ITEM = r"(?:0|-?[1-9][0-9]*)"
_NF_CANONICAL = re.compile(rf"\{{(?:{_NF_ITEM}(?:,{_NF_ITEM})*)?\}};(?:\+0|[+-][1-9][0-9]*)")


def _int(numeral, at):
    """A numeral's value; past Python's digit limit, a parse error at `at`."""
    try:
        return int(numeral)
    except ValueError:
        raise ParseError("numeral too long", at) from None


def _take(text, pos, ch):
    if text[pos:pos + 1] != ch:
        raise ParseError(f"expected {ch!r}", pos)


def _expect_end(text, pos):
    if pos != len(text):
        raise ParseError(f"unexpected {text[pos]!r}", pos)


def _label(digits, at):
    """A point label read at `at`: a numeral of at least 1."""
    if not digits:
        raise ParseError("expected a digit", at)
    value = _int(digits, at)
    if value < 1:
        raise ParseError("points are numbered from 1", at)
    return value


def _read_list(text, open, close, item, read):
    """Read `open item,...,item close` from the start of the text, handing
    each item's match to `read` in turn; the position after `close`.  An
    item of spaces alone right before `close` is an empty list."""
    _take(text, 0, open)
    m = item.match(text, 1)
    if m.group().strip() or text[m.end():m.end() + 1] != close:
        read(m)
        while text[m.end():m.end() + 1] == ",":
            m = item.match(text, m.end() + 1)
            read(m)
    _take(text, m.end(), close)
    return m.end() + 1


def parse_partial_map(text: str) -> PartialMap:
    if text[:1] == "[" and text[-1:] == "]":
        items = text[1:-1].split(",")
        values = map_item_table(len(items))[1]
        try:
            # A list first: tuple() of an iterator of unknown length makes
            # room for 10 items and shrinks it, which left the heap larger.
            return PartialMap._from_internal(tuple([values[item] for item in items]))
        except KeyError:  # not a canonical item text for this size
            pass
    return _read_partial_map(text)


def _read_partial_map(text: str) -> PartialMap:
    images = []
    pos = _read_list(text, "[", "]", _IMAGE, lambda m: images.append(
        None if m.group(1) else _label(m.group(2), m.start(2))))
    _expect_end(text, pos)
    n = len(images)
    for v in images:
        if v is not None and v > n:
            raise ParseError(f"image {v} exceeds the inferred size {n}", 0)
    # Every image is None or an int in 1..n.
    return PartialMap._from_internal(tuple(images))


def parse_partition(text: str) -> Partition:
    if text[:1] == "{" and text[-1:] == "}":
        blocks = [chunk.split(" ") for chunk in text[1:-1].split("}{")]
        # 2n items, or 2n+1, which must name some point twice.
        n = sum(map(len, blocks)) // 2
        points = point_table(n)[1]
        label = [0] * (2 * n + 1)
        try:
            for i, block in enumerate(blocks, 1):
                for p in map(points.__getitem__, block):
                    if label[p]:  # named twice: passed on like an unknown item
                        raise KeyError(p)
                    label[p] = i
        except KeyError:  # an item the table does not hold, or a repeat
            pass
        else:  # each of the 2n points named once
            return Partition._from_internal(n, blocks_by_label(label))
    return _read_partition(text)


def _read_partition(text: str) -> Partition:
    blocks = []
    points_seen = set()
    max_label = 0
    pos = 0
    while pos < len(text):
        _take(text, pos, "{")
        pos += 1
        block = []
        while True:
            m = _POINT.match(text, pos)
            at = m.start(1)
            label = _label(m.group(1), at)
            point = -label if m.group(2) else label
            if point in points_seen:
                name = f"{label}'" if m.group(2) else str(label)
                raise ParseError(f"point {name} repeated", at)
            points_seen.add(point)
            if label > max_label:
                max_label = label
            block.append(point)
            pos = m.end()
            if text[pos:pos + 1] == "}":
                break
        pos += 1
        blocks.append(block)
    # Empty text has no blocks: the partition on no points.
    n = max_label
    for label in range(1, n + 1):
        for point, name in ((label, str(label)), (-label, f"{label}'")):
            if point not in points_seen:
                raise ParseError(f"point {name} missing", len(text))
    # Every point was seen once, so the validating constructor refuses none.
    return Partition(n, blocks)


def parse_nf(text: str) -> NF:
    if _NF_CANONICAL.fullmatch(text):
        inner, shift = text[1:].split("};")
        try:
            excluded = tuple(map(int, inner.split(","))) if inner else ()
            shift = int(shift)
        except ValueError:  # a numeral past int()'s digit limit
            return _read_nf(text)
        if all(map(lt, excluded, excluded[1:])):
            # Canonical items in ascending order: the text is the element's own.
            return NF._from_internal(excluded, shift, text)
    return _read_nf(text)


def _read_nf(text: str) -> NF:
    excluded = set()

    def read(m):
        if not m.group(2):
            raise ParseError("expected a digit", m.start(2))
        value = _int(m.group(1), m.start(1))
        if value in excluded:
            raise ParseError(f"excluded point {value} repeated", m.start(1))
        excluded.add(value)

    pos = _read_list(text, "{", "}", _SIGNED, read)
    _take(text, pos, ";")
    m = _SHIFT.match(text, pos + 1)
    if not m.group(1):
        raise ParseError("expected a digit", m.start(1))
    _expect_end(text, m.end())
    # The values are distinct ints, so the sorted tuple is strictly increasing.
    return NF._from_internal(tuple(sorted(excluded)), _int(m.group(), m.start()))


def parse_word(text: str) -> NF:
    """Evaluate a word as `nf_of_word` does, with its check and its
    evaluation; the first letter outside g, h and e is a parse error at its
    own position.  No Python loop visits the letters of an accepted word."""
    bad = _bad_letter(text)
    if bad is not None:
        raise ParseError(f"bad symbol {bad[1]!r} (expected g, h or e)", bad[0])
    return _nf_of_letters(text.encode("ascii"))


def parse_element(kind: str, text: str):
    """Parse by kind; T/PT/I/P are element kinds, NF and word are shift maps."""
    if kind in ("T", "PT", "I"):
        element = parse_partial_map(text)
        if not is_kind(element, kind):
            detail = "entries must be distinct" if kind == "I" else "no entry may be _"
            raise ParseError(f"not a {kind} element: {detail}", 0)
        return element
    if kind == "P":
        return parse_partition(text)
    if kind == "NF":
        return parse_nf(text)
    if kind == "word":
        return parse_word(text)
    raise ValueError(f"unknown kind {kind!r}")


format_element = str


def render_partition(a: Partition) -> str:
    """DOT text for the two-row diagram, one spanning path per block.

    The upper row is ranked above the lower row; node and edge order follow
    the canonical block order so output is stable.
    """
    n = a.n

    def node(p):
        return f"u{p}" if p <= n else f"l{p - n}"

    lines = ["graph partition {"]
    lines.append("  rankdir=TB;")
    lines.append("  " + " ".join(f'u{x} [label="{x}"];' for x in range(1, n + 1)))
    lines.append("  " + " ".join(f'l{x} [label="{x}\'"];' for x in range(1, n + 1)))
    lines.append("  { rank=min; %s }" % "; ".join(f"u{x}" for x in range(1, n + 1)))
    lines.append("  { rank=max; %s }" % "; ".join(f"l{x}" for x in range(1, n + 1)))
    for block in a.blocks:
        for p, q in zip(block, block[1:]):
            lines.append(f"  {node(p)} -- {node(q)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
