"""Property tests for the shift monoid's product rule and its fast paths, and
for the element parsers.

Examples are drawn deterministically, so every run checks the same cases.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from monoidkit.elements import PartialMap, Partition, is_kind  # noqa: E402
from monoidkit.pmonoid import NF, nf_mul, nf_window  # noqa: E402
from monoidkit.textio import ParseError, format_element, parse_element  # noqa: E402

COORD = 20
HALF = 4 * COORD  # products puncture up to 2 * COORD and shift up to 2 * COORD

deterministic = settings(derandomize=True, database=None, deadline=None, max_examples=300)

punctures = st.lists(st.integers(-COORD, COORD), max_size=5, unique=True).map(
    lambda xs: tuple(sorted(xs))
)
shifts = st.integers(-COORD, COORD)
nfs = st.builds(NF, punctures, shifts)


def _by_sorting(a, b):
    excluded = set(a.excluded)
    excluded.update(x - a.shift for x in b.excluded)
    return NF(tuple(sorted(excluded)), a.shift + b.shift)


@deterministic
@given(nfs, nfs)
def test_product_matches_windowed_composition(a, b):
    composed = nf_window(a, HALF) * nf_window(b, HALF)
    direct = nf_window(nf_mul(a, b), HALF)
    margin = abs(a.shift) + abs(b.shift)
    interior = slice(margin, 2 * HALF - margin + 1)
    assert composed.images[interior] == direct.images[interior]


@deterministic
@given(punctures, shifts, punctures, shifts, st.sampled_from(["a bare", "b bare", "same", "any"]))
def test_fast_paths_match_sorting(ex_a, s_a, ex_b, s_b, path):
    if path == "a bare":
        ex_a = ()
    elif path == "b bare":
        ex_b = ()
    elif path == "same":
        ex_b, s_a = ex_a, 0
    a, b = NF(ex_a, s_a), NF(ex_b, s_b)
    product = nf_mul(a, b)
    assert product == _by_sorting(a, b)
    assert NF(product.excluded, product.shift) == product


def _partition(n, labels):
    """The partition of 1..n, 1'..n' whose blocks are the points sharing a label."""
    blocks = {}
    for point, label in zip([*range(1, n + 1), *range(-1, -n - 1, -1)], labels):
        blocks.setdefault(label, []).append(point)
    return Partition(n, blocks.values())


partial_maps = st.integers(0, 6).flatmap(
    lambda n: st.lists(st.one_of(st.none(), st.integers(1, n)), min_size=n, max_size=n)
).map(PartialMap)
partitions = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.integers(0, 2 * n - 1), min_size=2 * n, max_size=2 * n).map(
        lambda labels: _partition(n, labels)
    )
)


@deterministic
@given(st.one_of(nfs, partial_maps, partitions))
def test_parse_inverts_format(x):
    kinds = ["NF"] if isinstance(x, NF) else [k for k in ("PT", "T", "I", "P") if is_kind(x, k)]
    for kind in kinds:
        assert parse_element(kind, format_element(x)) == x


ALPHABET = "{}[],;_'+- 0123456789x²٣"
canonical_texts = st.one_of(nfs, partial_maps, partitions).map(format_element)


def _edit(text, at, ch, delete):
    at %= len(text) + 1
    return text[:at] + text[at + 1:] if delete else text[:at] + ch + text[at:]


texts = st.one_of(
    st.text(ALPHABET, max_size=16),
    st.builds(_edit, canonical_texts, st.integers(0, 40), st.sampled_from(ALPHABET), st.booleans()),
)


@deterministic
@given(st.sampled_from(["PT", "T", "I", "P", "NF"]), texts)
@example("NF", "{};+" + "1" * 5000)
def test_text_parses_or_fails_in_range(kind, text):
    try:
        parse_element(kind, text)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text), (exc.position, text)
