"""Property tests for the shift monoid's product rule and its fast paths.

Examples are drawn deterministically, so every run checks the same cases.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from monoidkit.pmonoid import NF, nf_mul, nf_window  # noqa: E402

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
