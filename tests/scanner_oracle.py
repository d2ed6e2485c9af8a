"""The element parsers as they were before the one-pass rewrite, kept as an
oracle for `monoidkit.textio`.

They differ from the current parsers in two known ways: `_Scanner.integer`
steps over a sign at the end of the text, so an error there is reported one
past the end, and `str.isdigit()` accepts non-ASCII digits, which `int()` then
reads or rejects with a bare `ValueError`.
"""

from monoidkit.elements import PartialMap, Partition
from monoidkit.pmonoid import NF
from monoidkit.textio import ParseError


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def skip_spaces(self):
        while self.peek() == " ":
            self.pos += 1

    def integer(self, signed=False):
        start = self.pos
        if signed and self.peek() in "+-":
            self.pos += 1
        if not self.peek().isdigit():
            raise ParseError("expected a digit", self.pos)
        while self.peek().isdigit():
            self.pos += 1
        return int(self.text[start:self.pos])

    def expect_end(self):
        if self.pos != len(self.text):
            raise ParseError(f"unexpected {self.peek()!r}", self.pos)


def parse_partial_map(text: str) -> PartialMap:
    sc = _Scanner(text)
    sc.take("[")
    images = []
    sc.skip_spaces()
    if sc.peek() != "]":
        while True:
            sc.skip_spaces()
            if sc.peek() == "_":
                sc.pos += 1
                images.append(None)
            else:
                at = sc.pos
                value = sc.integer()
                if value < 1:
                    raise ParseError("points are numbered from 1", at)
                images.append(value)
            sc.skip_spaces()
            if sc.peek() == ",":
                sc.pos += 1
                continue
            break
    sc.take("]")
    sc.expect_end()
    n = len(images)
    for i, v in enumerate(images):
        if v is not None and v > n:
            raise ParseError(f"image {v} exceeds the inferred size {n}", 0)
    return PartialMap(images)


def parse_partition(text: str) -> Partition:
    sc = _Scanner(text)
    blocks = []
    points_seen = {}
    max_label = 0
    while sc.peek():
        sc.take("{")
        block = []
        while True:
            sc.skip_spaces()
            at = sc.pos
            label = sc.integer()
            if label < 1:
                raise ParseError("points are numbered from 1", at)
            primed = False
            if sc.peek() == "'":
                sc.pos += 1
                primed = True
            point = -label if primed else label
            if point in points_seen:
                name = f"{label}'" if primed else str(label)
                raise ParseError(f"point {name} repeated", at)
            points_seen[point] = at
            max_label = max(max_label, label)
            block.append(point)
            sc.skip_spaces()
            if sc.peek() == "}":
                break
        sc.take("}")
        blocks.append(block)
    sc.expect_end()
    if not blocks:
        raise ParseError("expected '{'", 0)
    n = max_label
    for label in range(1, n + 1):
        for point, name in ((label, str(label)), (-label, f"{label}'")):
            if point not in points_seen:
                raise ParseError(f"point {name} missing", len(text))
    return Partition(n, blocks)


def parse_nf(text: str) -> NF:
    sc = _Scanner(text)
    sc.take("{")
    excluded = []
    sc.skip_spaces()
    if sc.peek() != "}":
        while True:
            sc.skip_spaces()
            at = sc.pos
            value = sc.integer(signed=True)
            if value in excluded:
                raise ParseError(f"excluded point {value} repeated", at)
            excluded.append(value)
            sc.skip_spaces()
            if sc.peek() == ",":
                sc.pos += 1
                continue
            break
    sc.take("}")
    sc.take(";")
    shift = sc.integer(signed=True)
    sc.expect_end()
    return NF(tuple(sorted(excluded)), shift)
