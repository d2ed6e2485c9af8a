"""Property tests for the shift monoid's product rule and its fast paths, for
the element parsers, for the preorders and meets past enumeration, for the
min-root union-find, and for the command line's exit codes.

Examples are drawn deterministically, so every run checks the same cases.
"""

import contextlib
import io
import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from monoidkit.cli import main  # noqa: E402
from monoidkit.elements import PartialMap, Partition, find, is_kind, joining, min_root_join, min_root_labels  # noqa: E402
from monoidkit.ideals import meet  # noqa: E402
from monoidkit.order import leq_L, leq_R  # noqa: E402
from monoidkit.pmonoid import NF, nf_mul, nf_window  # noqa: E402
from monoidkit.textio import ParseError, format_element, parse_element  # noqa: E402

from canonical_oracle import canonical  # noqa: E402
from kernel_oracle import component_labels, find_labels, joining_links, leq_R_by_kernels  # noqa: E402

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


partition_pairs = st.integers(0, 6).flatmap(
    lambda n: st.tuples(
        *[st.lists(st.integers(0, max(2 * n - 1, 0)), min_size=2 * n, max_size=2 * n).map(
            lambda labels: _partition(n, labels)
        )] * 2
    )
)


@deterministic
@given(partition_pairs)
def test_products_and_stars_are_canonical(pair):
    """Products and stars are built without validation; the sort-based
    canonical form referees their blocks."""
    a, b = pair
    for x in (a * b, a.star(), (a * b).star()):
        assert x.blocks == canonical(x.n, x.blocks)


@deterministic
@given(st.one_of(nfs, partial_maps, partitions))
@example(Partition(0, []))
def test_parse_inverts_format(x):
    kinds = ["NF"] if isinstance(x, NF) else [k for k in ("PT", "T", "I", "P") if is_kind(x, k)]
    for kind in kinds:
        assert parse_element(kind, format_element(x)) == x


loose_values = st.one_of(st.none(), st.booleans(), st.integers(-2, 4), st.floats(-2, 4))
loose_points = st.one_of(st.lists(loose_values, max_size=3), st.lists(loose_values, max_size=3).map(tuple))
loose_constructions = st.one_of(
    st.tuples(st.just(PartialMap), loose_points),
    st.tuples(st.just(Partition), loose_values, st.lists(loose_points, max_size=4)),
    st.tuples(st.just(NF), loose_points, loose_values),
)


@deterministic
@given(loose_constructions)
@example((NF, (), 0.5))
@example((PartialMap, [True]))
def test_accepted_constructions_round_trip(construction):
    """A public constructor refuses, with ValueError, what its canonical text
    would not say back."""
    cls, *args = construction
    try:
        x = cls(*args)
    except ValueError:
        return
    kind = {PartialMap: "PT", Partition: "P", NF: "NF"}[cls]
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


# --- preorders and meets past enumeration -----------------------------------------


def _restricted_growth(raw):
    """Clamp each label to at most one more than every label before it."""
    labels, top = [], -1
    for x in raw:
        top = max(top, min(x, top + 1))
        labels.append(min(x, top))
    return labels


def _large_maps(n):
    return st.lists(st.one_of(st.none(), st.integers(1, n)), min_size=n, max_size=n).map(PartialMap)


def _large_partitions(n):
    """Restricted-growth strings over the 2n points with at most k blocks, for a
    drawn k, so both few and many blocks occur."""
    return st.integers(1, 2 * n).flatmap(
        lambda k: st.lists(st.integers(0, k - 1), min_size=2 * n, max_size=2 * n)
    ).map(lambda raw: _partition(n, _restricted_growth(raw)))


def _above_R(c, keep, split):
    """An element b with c <=_R b: every kernel class of c split in two by
    the `split` coins, each part sent to its own lower point (or image),
    except that the `keep` coins may leave an upper-only block of c whole, or
    an undefined point of c undefined."""
    n = c.n
    if isinstance(c, PartialMap):
        images = {}
        for x, v in enumerate(c.images):
            if v is not None or not keep[x]:
                images.setdefault((v, split[x]), len(images) + 1)
        return PartialMap([images.get((v, split[x])) for x, v in enumerate(c.images)])
    blocks, lower = [], 1
    for k, block in enumerate(c.blocks):
        upper = [p for p in block if p <= n]
        if not upper:
            continue
        if block[-1] <= n and keep[k]:
            blocks.append(upper)
            continue
        for part in ([p for p in upper if split[p - 1]], [p for p in upper if not split[p - 1]]):
            if part:
                blocks.append(part + [-lower])
                lower += 1
    blocks.extend([-y] for y in range(lower, n + 1))
    return Partition(n, blocks)


def _above_L(c, keep, split):
    """An element b with c <=_L b: for maps, c with undefined points given
    images (so im b contains im c); for partitions, through `star`."""
    if isinstance(c, Partition):
        return _above_R(c.star(), keep, split).star()
    return PartialMap([v if v is not None or keep[x] else 1 + x for x, v in enumerate(c.images)])


def _leq_L_by_kernels(kind, a, b):
    if kind == "P":
        return leq_R_by_kernels("P", a.star(), b.star())
    return a.im() <= b.im()


@deterministic
@given(st.data())
def test_preorder_and_meet_laws_past_enumeration(data):
    kind = data.draw(st.sampled_from(["PT", "P"]))
    side = data.draw(st.sampled_from("RL"))
    n = data.draw(st.integers(6, 20))
    elements = _large_maps(n) if kind == "PT" else _large_partitions(n)
    a, b, s = data.draw(elements), data.draw(elements), data.draw(elements)
    coins = st.lists(st.booleans(), min_size=2 * n, max_size=2 * n)
    # Unsplit kernels make b R- or L-equivalent to c outside the kept points.
    keep, split = data.draw(coins), data.draw(st.one_of(st.just([False] * 2 * n), coins))
    if side == "R":
        leq, by_kernels, above, c = leq_R, leq_R_by_kernels, _above_R, a * s
    else:
        leq, by_kernels, above, c = leq_L, _leq_L_by_kernels, _above_L, s * a
    if data.draw(st.booleans()):
        b = above(c, keep, split)
    for x, y in itertools.permutations((a, b, c), 2):
        assert leq(kind, x, y) == by_kernels(kind, x, y), (x, y)
    assert leq(kind, c, a)
    result = meet(kind, side, a, b)
    if not result.empty:
        g = result.generator
        assert leq(kind, g, a) and leq(kind, g, b)
    if leq(kind, c, b):
        assert not result.empty and leq(kind, c, result.generator)


# --- the min-root union-find --------------------------------------------------------


linked_points = st.integers(0, 30).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
        max_size=2 * n,
    ).map(lambda links: (n, links))
)


@deterministic
@given(linked_points)
def test_min_root_join_labels_class_minima(drawn):
    """Every label is the least point of its class, as breadth-first search
    finds the classes."""
    n, links = drawn
    labels = min_root_join(n, links)
    for x in range(n):
        assert labels[x] <= x and labels[labels[x]] == labels[x]
    assert tuple(labels) == component_labels(n, links)
    assert labels == find_labels(n, links)


@deterministic
@given(linked_points)
def test_joining_returns_the_generator_links_in_order(drawn):
    """The returned links are those the generator form yields, in its order,
    and both leave the same forest."""
    n, links = drawn
    parent, oracle_parent = list(range(n)), list(range(n))
    assert joining(parent, iter(links)) == list(joining_links(oracle_parent, links))
    assert parent == oracle_parent


min_root_forests = st.integers(0, 40).flatmap(
    lambda n: st.tuples(*[st.integers(0, x) for x in range(n)]).map(list)
)


@deterministic
@given(min_root_forests)
def test_min_root_labels_resolves_any_min_root_forest(parent):
    """On any forest whose parents never exceed their points, the sweep
    labels each point with the root one `find` call reaches."""
    roots = [find(list(parent), x) for x in range(len(parent))]
    assert min_root_labels(parent) == roots


# --- the command line on arbitrary input ---------------------------------------


CLI_ALPHABET = "[]{}_,;+-'0123456789 ghe"
cli_texts = st.one_of(
    st.text(CLI_ALPHABET, max_size=12),
    st.text("ghe", max_size=8),
    canonical_texts,
    st.builds(_edit, canonical_texts, st.integers(0, 40), st.sampled_from(CLI_ALPHABET), st.booleans()),
)
kinds = st.sampled_from(["T", "PT", "I", "P"])
sides = st.sampled_from(["R", "L"])
small = st.integers(-3, 12).map(str)
huge = st.integers(-3, 10 ** 12).map(str)


def _chain_argv(n, y_index):
    """`pmonoid chain` with `--y-index` given or left out."""
    return ["pmonoid", "chain", "--n", n, *([] if y_index is None else ["--y-index", y_index])]


cli_argvs = st.one_of(
    st.builds(lambda kind, els: ["mul", "--kind", kind, *els],
              st.sampled_from(["T", "PT", "I", "P", "NF", "word"]), st.lists(cli_texts, max_size=3)),
    st.builds(lambda kind, side, a, b: ["green", "--kind", kind, "--side", side, a, b],
              kinds, sides, cli_texts, cli_texts),
    st.builds(lambda kind, side, a, b: ["meet", "--kind", kind, "--side", side, a, b],
              kinds, sides, cli_texts, cli_texts),
    st.builds(lambda text: ["render", text], cli_texts),
    st.builds(lambda nf, u, v: ["pmonoid", "ann", *(["--nf"] if nf else []), u, v],
              st.booleans(), cli_texts, cli_texts),
    st.builds(lambda k: ["pmonoid", "relations", "--max-k", k], huge),
    st.builds(lambda n: ["pmonoid", "nc", "--max-n", n], huge),
    st.builds(_chain_argv, huge, st.none() | huge),
)


@settings(derandomize=True, database=None, deadline=2000, max_examples=500)
@given(cli_argvs)
@example(["mul", "--kind", "word", "-"])
@example(["pmonoid", "chain", "--n", "0", "--y-index", "-1"])
@example(["pmonoid", "chain", "--n", "3", "--max-length", "0"])
def test_cli_exits_0_1_or_2_and_raises_nothing(argv):
    """Output goes to buffers, so argparse's usage text stays out of the log."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
