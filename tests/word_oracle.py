"""Word evaluation as it was before the C-level passes, kept as an oracle for
`monoidkit.pmonoid.nf_of_word` and `monoidkit.textio.parse_word`.

One Python step per letter: g and h move the running shift, e punctures
the point the running shift sends to 0.  It differs from the current code
on input that is not a str, which it iterates like a word: a list of
letters is evaluated, and bytes fail on their first byte, an int.
"""

from monoidkit.pmonoid import NF
from monoidkit.textio import ParseError


def nf_of_word(word):
    shift = 0
    excluded = set()
    for pos, ch in enumerate(word):
        if ch == "g":
            shift += 1
        elif ch == "h":
            shift -= 1
        elif ch == "e":
            excluded.add(-shift)
        else:
            raise ValueError(f"bad symbol {ch!r} at position {pos} (expected g, h or e)")
    return NF(tuple(sorted(excluded)), shift)


def parse_word(text):
    for pos, ch in enumerate(text):
        if ch not in "ghe":
            raise ParseError(f"bad symbol {ch!r} (expected g, h or e)", pos)
    return nf_of_word(text)
