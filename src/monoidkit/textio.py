"""Text grammars for the element types, and DOT rendering of partitions.

Grammars (sizes are inferred from the content):

    partial map   [2,_,1]          one entry per point, _ for undefined
    partition     {1 2'}{2}{1'}    blocks of points, prime marks the lower row
    normal form   {-2,-1};+2       ascending excluded list, then signed shift
    word          gege             letters over g, h, e

Parsing any canonical serialization returns an equal element, and
re-serializing a parsed element reproduces canonical text.

Digits are ASCII 0-9 only.  Each parser reads its text once, item by item.
Text outside the grammar raises `ParseError`, whose position lies in
0..len(text); the CLI prints it as `parse error: position P: reason` and
exits with status 2.
"""

from __future__ import annotations

import re

from .elements import PartialMap, Partition, require_kind
from .pmonoid import NF, nf_of_word


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


def parse_partial_map(text: str) -> PartialMap:
    _take(text, 0, "[")
    images = []
    m = _IMAGE.match(text, 1)
    if m.group(1) or m.group(2) or text[m.end():m.end() + 1] != "]":
        while True:
            if m.group(1):
                images.append(None)
            else:
                digits = m.group(2)
                if not digits:
                    raise ParseError("expected a digit", m.start(2))
                value = _int(digits, m.start(2))
                if value < 1:
                    raise ParseError("points are numbered from 1", m.start(2))
                images.append(value)
            pos = m.end()
            if text[pos:pos + 1] != ",":
                break
            m = _IMAGE.match(text, pos + 1)
    else:
        pos = m.end()
    _take(text, pos, "]")
    _expect_end(text, pos + 1)
    n = len(images)
    for v in images:
        if v is not None and v > n:
            raise ParseError(f"image {v} exceeds the inferred size {n}", 0)
    # Every image is None or an int in 1..n.
    return PartialMap._from_internal(tuple(images))


def parse_partition(text: str) -> Partition:
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
            digits = m.group(1)
            at = m.start(1)
            if not digits:
                raise ParseError("expected a digit", at)
            label = _int(digits, at)
            if label < 1:
                raise ParseError("points are numbered from 1", at)
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
    # Every point was seen once, so sorting makes the blocks canonical.
    return Partition._from_internal(n, tuple(sorted(
        tuple(sorted(p if p > 0 else n - p for p in block)) for block in blocks
    )))


def parse_nf(text: str) -> NF:
    _take(text, 0, "{")
    excluded = set()
    m = _SIGNED.match(text, 1)
    if m.group(1) or text[m.end():m.end() + 1] != "}":
        while True:
            if not m.group(2):
                raise ParseError("expected a digit", m.start(2))
            value = _int(m.group(1), m.start(1))
            if value in excluded:
                raise ParseError(f"excluded point {value} repeated", m.start(1))
            excluded.add(value)
            pos = m.end()
            if text[pos:pos + 1] != ",":
                break
            m = _SIGNED.match(text, pos + 1)
    else:
        pos = m.end()
    _take(text, pos, "}")
    _take(text, pos + 1, ";")
    m = _SHIFT.match(text, pos + 2)
    if not m.group(1):
        raise ParseError("expected a digit", m.start(1))
    _expect_end(text, m.end())
    # The values are distinct ints, so the sorted tuple is strictly increasing.
    return NF._from_internal(tuple(sorted(excluded)), _int(m.group(), m.start()))


def parse_word(text: str) -> NF:
    for pos, ch in enumerate(text):
        if ch not in "ghe":
            raise ParseError(f"bad symbol {ch!r} (expected g, h or e)", pos)
    return nf_of_word(text)


def parse_element(kind: str, text: str):
    """Parse by kind; T/PT/I/P are element kinds, NF and word are shift maps."""
    if kind in ("T", "PT", "I"):
        element = parse_partial_map(text)
        try:
            require_kind(element, kind)
        except ValueError:
            detail = "entries must be distinct" if kind == "I" else "no entry may be _"
            raise ParseError(f"not a {kind} element: {detail}", 0) from None
        return element
    if kind == "P":
        return parse_partition(text)
    if kind == "NF":
        return parse_nf(text)
    if kind == "word":
        return parse_word(text)
    raise ValueError(f"unknown kind {kind!r}")


def format_nf(a: NF) -> str:
    return "{%s};%+d" % (",".join(map(str, a.excluded)), a.shift)


def format_element(x) -> str:
    if isinstance(x, NF):
        return format_nf(x)
    return str(x)


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
