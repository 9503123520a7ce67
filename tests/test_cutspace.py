import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from hypercut.core import build
from hypercut.cutspace import (
    Cut,
    CutMetrics,
    PartialCut,
    _inclusion_exclusion,
    best_cut,
    cut_metrics,
    equitable_complete_value,
    expected_fraction,
    partial_average_excess,
    partial_average_excesses,
    partial_average_size,
    theorem_bound,
    theorem_bound_claim,
    uniform_expected_size,
)
from hypercut.errors import InvalidCut, InvalidParams

from conftest import (
    brute_expected_size,
    brute_force_maxcut,
    plain_average_excesses,
    plain_average_size,
    plain_cut_size,
    plain_multicolour_probability,
    plain_multicolour_table,
    stirling_expected_size,
)


def test_expected_fraction_known_values():
    assert expected_fraction(3, 2) == Fraction(3, 4)
    assert expected_fraction(3, 3) == Fraction(6, 27)
    assert expected_fraction(4, 2) == Fraction(7, 8)
    for k in range(2, 9):
        assert expected_fraction(k, 2) == 1 - Fraction(2, 2**k)
        assert expected_fraction(k, k) == Fraction(math.factorial(k), k**k)


def test_expected_fraction_rejects_bad_params():
    for k, r in [(3, 4), (3, 1), (2, 0)]:
        with pytest.raises(InvalidParams):
            expected_fraction(k, r)


def _enumerate_multicolour(hit, free, r):
    """Direct enumeration oracle for the completion probability."""
    good = 0
    for completion in product(range(1, r + 1), repeat=free):
        if set(hit) | set(completion) == set(range(1, r + 1)):
            good += 1
    return Fraction(good, r**free)


def _completion_probabilities(missing, free, base):
    """The package's inclusion-exclusion and the plain one, which must agree."""
    got = _inclusion_exclusion(missing, free, base)
    assert got == plain_multicolour_probability(missing, free, base)
    return got


def test_multicolour_probability_examples():
    # (parts still missing, free vertices, parts the free vertices range over)
    assert _completion_probabilities(2, 3, 2) == Fraction(3, 4)
    assert _completion_probabilities(2, 2, 3) == Fraction(2, 9)
    assert _completion_probabilities(0, 1, 3) == Fraction(1)
    assert _completion_probabilities(3, 2, 3) == 0  # too few to span 3 parts


def test_multicolour_probability_against_enumeration():
    for r in (2, 3, 4):
        for hit_count in range(0, r + 1):
            hit = set(range(1, hit_count + 1))
            for free in range(0, 6 - hit_count):  # edges of size up to 5
                got = _completion_probabilities(r - hit_count, free, r)
                assert got == _enumerate_multicolour(hit, free, r)


def test_multicolour_monotone_in_hits():
    for r in (2, 3, 4):
        for free in range(0, 4):
            probs = [_completion_probabilities(r - j, free, r) for j in range(r + 1)]
            assert all(a <= b for a, b in zip(probs, probs[1:]))


def test_cut_metrics_fano(fano):
    cut = Cut(2, (1, 1, 1, 1, 2, 2, 2))
    # independent recount: edges meeting both sides of {0,1,2,3} | {4,5,6}
    direct = sum(
        1 for e in fano.edges if any(v <= 3 for v in e) and any(v >= 4 for v in e)
    )
    got = cut_metrics(fano, cut)
    assert direct == 6
    assert got.size == 6
    assert got.expected == Fraction(21, 4)
    assert got.excess == Fraction(3, 4)


def test_cut_metrics_matching(matching12):
    cut = Cut(2, (1, 1, 2) * 4)
    got = cut_metrics(matching12, cut)
    assert got.size == 4
    assert got.excess == Fraction(1)


def test_cut_metrics_monochromatic(fano):
    assert cut_metrics(fano, Cut(2, (1,) * 7)).size == 0


def test_cut_metrics_rejects_mismatch(fano):
    with pytest.raises(InvalidCut):
        cut_metrics(fano, Cut(2, (1, 2)))


def test_best_cut_keeps_first_of_equal_sizes():
    h = build(4, [[0, 1], [2, 3]])
    first, flipped = Cut(2, (1, 2, 2, 1)), Cut(2, (2, 1, 1, 2))
    draws = [Cut(2, (1, 2, 1, 1)), first, Cut(2, (1, 1, 1, 1)), flipped]
    assert [cut_metrics(h, c).size for c in draws] == [1, 2, 0, 2]
    assert best_cut(h, iter(draws).__next__, 4) == (first, cut_metrics(h, first))
    assert best_cut(h, iter(draws).__next__, 1) == (draws[0], cut_metrics(h, draws[0]))
    with pytest.raises(InvalidParams, match="^trials must be >= 1$"):
        best_cut(h, iter(draws).__next__, 0)


def test_partial_average_excess_determined_edge():
    h = build(4, [[0, 1, 2, 3]])
    pc = PartialCut(2, {0: 1, 1: 2})
    assert partial_average_excess(h, pc) == 1 - Fraction(7, 8)


def test_partial_average_excess_empty(fano):
    assert partial_average_excess(fano, PartialCut(2, {})) == 0


def test_partial_average_excess_brute():
    h = build(4, [[0, 1, 2, 3]])
    pc = PartialCut(2, {0: 1, 1: 2})
    brute = brute_expected_size(h, pc.assigned, 2) - brute_expected_size(h, {}, 2)
    assert partial_average_excess(h, pc) == brute == Fraction(1, 8)


def test_partial_average_excess_full_assignment_matches_metrics(fano):
    rng = random.Random(7)
    for _ in range(5):
        assign = tuple(rng.choice((1, 2)) for _ in range(7))
        pc = PartialCut(2, dict(enumerate(assign)))
        metrics = cut_metrics(fano, Cut(2, assign))
        assert partial_average_excess(fano, pc) == metrics.excess


def test_theorem_bound_examples():
    assert theorem_bound("sts-2cut", m=7) == Fraction(3, 4)
    assert theorem_bound("mixed-2cut-n", k=3, n=12) == Fraction(1)
    assert theorem_bound("connected-3graph", n=9) == Fraction(1)
    assert theorem_bound("mixed-k-edges", k=4, n=32) == Fraction(32, 64)
    assert theorem_bound("graph-2cut-m", m=1) == Fraction(1, 4)
    assert isinstance(theorem_bound("sts-2cut", m=8), float)


def test_theorem_bound_errors():
    with pytest.raises(InvalidParams):
        theorem_bound("no-such-bound")
    with pytest.raises(InvalidParams):
        theorem_bound("sts-2cut", n=9)
    assert "3-graph" in theorem_bound_claim("sts-2cut")


def test_equitable_complete_small():
    assert equitable_complete_value(5, 2, 2) == 6
    assert equitable_complete_value(4, 3, 3) == 2


def complete_hypergraph(n, k):
    from itertools import combinations

    return build(n, [list(c) for c in combinations(range(n), k)])


@pytest.mark.parametrize("n,k,r", [(4, 3, 3), (5, 3, 2), (6, 3, 3), (5, 4, 2), (6, 2, 2)])
def test_equitable_complete_matches_brute_force(n, k, r):
    assert equitable_complete_value(n, k, r) == brute_force_maxcut(
        complete_hypergraph(n, k), r
    )


def test_monte_carlo_expected_size(fano):
    rng = random.Random(11)
    trials = 4000
    sizes = []
    for _ in range(trials):
        cut = Cut(2, tuple(rng.choice((1, 2)) for _ in range(7)))
        sizes.append(cut_metrics(fano, cut).size)
    mean = sum(sizes) / trials
    var = sum((s - mean) ** 2 for s in sizes) / (trials - 1)
    sigma = (var / trials) ** 0.5
    assert abs(mean - 21 / 4) <= 3 * sigma + 1e-9


@settings(max_examples=60)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=2, max_value=4))
def test_expected_fraction_matches_inclusion_exclusion(k, r):
    if r > k:
        return
    assert expected_fraction(k, r) == _completion_probabilities(r, k, r)


def test_multicolour_table_matches_one_edge_enumeration():
    brute = {}
    for r in range(2, 6):
        for k in range(1, 7):
            table = plain_multicolour_table(r, k)
            assert [len(row) for row in table] == [k] * r + [k + 1]
            for missing, row in enumerate(table):
                for free, entry in enumerate(row):
                    hits = r - missing
                    if hits + free == 0:
                        assert entry == 0
                        continue
                    if (missing, free, r) not in brute:
                        # vertices 0..hits-1 sit in distinct parts, the rest are free
                        h = build(hits + free, [range(hits + free)])
                        fixed = {v: v + 1 for v in range(hits)}
                        brute[missing, free, r] = brute_expected_size(h, fixed, r)
                    assert Fraction(entry, r ** (k - 1)) == brute[missing, free, r]


@st.composite
def tiny_instances_with_partials(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    m = draw(st.integers(min_value=1, max_value=6))
    edges = []
    for _ in range(m):
        size = draw(st.integers(min_value=1, max_value=n))
        edges.append(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=size,
                    max_size=size,
                    unique=True,
                )
            )
        )
    r = draw(st.integers(min_value=2, max_value=3))
    assign = draw(st.lists(st.integers(min_value=1, max_value=r), min_size=n, max_size=n))
    return build(n, edges), r, tuple(assign)


@settings(max_examples=80)
@given(tiny_instances_with_partials())
def test_full_partial_cut_matches_metrics_property(data):
    h, r, assign = data
    metrics = cut_metrics(h, Cut(r, assign))
    pc = PartialCut(r, dict(enumerate(assign)))
    assert partial_average_excess(h, pc) == metrics.excess


@settings(max_examples=60)
@given(tiny_instances_with_partials())
def test_partial_average_matches_enumeration_property(data):
    h, r, assign = data
    fixed = {v: p for v, p in enumerate(assign) if v % 2 == 0}
    pc = PartialCut(r, fixed)
    brute = brute_expected_size(h, fixed, r) - brute_expected_size(h, {}, r)
    assert partial_average_excess(h, pc) == brute


@settings(max_examples=60)
@given(tiny_instances_with_partials(), st.data())
def test_partial_average_excesses_match_enumeration_property(data, draw):
    h, r, assign = data
    t = draw.draw(st.integers(min_value=2, max_value=3))
    # group t leaves the vertex free
    group = draw.draw(st.lists(st.integers(0, t), min_size=h.n_vertices, max_size=h.n_vertices))
    partials = [
        {v: p for v, p in enumerate(assign) if group[v] == i} for i in range(t)
    ]
    base = brute_expected_size(h, {}, r)
    got = partial_average_excesses(h, r, partials)
    assert got == tuple(brute_expected_size(h, pc, r) - base for pc in partials)


@pytest.mark.parametrize("free_parts", [0, 4, 5, -1])
def test_partial_average_size_rejects_free_parts_outside_one_to_r(free_parts):
    h = build(4, [[0, 1, 2], [1, 2, 3]])
    with pytest.raises(InvalidParams, match="free_parts must lie in 1..r=3"):
        partial_average_size(h, PartialCut(3, {0: 1}), free_parts)


def test_partial_average_excesses_rejects_overlap():
    h = build(3, [[0, 1, 2]])
    with pytest.raises(InvalidParams):
        partial_average_excesses(h, 2, [{0: 1}, {0: 2}])
    with pytest.raises(InvalidParams):  # a vertex outside the instance
        partial_average_excesses(h, 2, [{0: 1}, {3: 2}])


@st.composite
def averaged_families(draw):
    """A mixed instance (or a 2-uniform multigraph), r, free_parts, and 0-4 disjoint partial r-cuts."""
    n = draw(st.integers(0, 9))  # vertices beyond the drawn edges stay isolated
    ids = st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 7), unique=True)
    edges = draw(st.lists(ids, max_size=12)) if n else []
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=4))  # repeated edges
    if n >= 2 and draw(st.booleans()):
        h = build(n, [e[:2] for e in edges if len(e) >= 2], max_arity=2)
    else:
        h = build(n, edges)
    r = draw(st.integers(2, 6))  # edges smaller than r never become multicoloured
    free_parts = draw(st.one_of(st.none(), st.integers(1, r)))
    t = draw(st.integers(0, 4))
    owner = draw(st.lists(st.integers(0, t), min_size=n, max_size=n))  # t = unassigned
    labels = draw(st.lists(st.integers(1, r), min_size=n, max_size=n))
    family = [{v: labels[v] for v in range(n) if owner[v] == i} for i in range(t)]
    return h, r, free_parts, family


# Above r = 64 the part bits take a second word: the wide edges meet parts on
# both sides of that boundary, and free_parts 64 and 65 mask parts across it.
_WIDE_FAMILY = build(72, [range(70), range(2, 72), [0, 64, 65, 70, 71], range(60, 72)])
_WIDE_FAMILIES = {
    65: [{v: v + 1 for v in range(5)}, {v: v + 1 for v in range(60, 65)}, {70: 65, 71: 64}],
    70: [{v: v + 1 for v in range(5)}, {v: v + 1 for v in range(60, 70)}, {70: 70, 71: 66}],
}


def _wide_examples(test):
    for r, family in _WIDE_FAMILIES.items():
        for free_parts in (None, 64, 65):
            test = example((_WIDE_FAMILY, r, free_parts, family))(test)
    return test


@settings(max_examples=300, deadline=None)
@given(averaged_families())
@_wide_examples
def test_partial_averages_match_plain_loop_property(data):
    h, r, free_parts, family = data
    merged = {v: p for assigned in family for v, p in assigned.items()}
    for assigned in (merged, *family):
        got = partial_average_size(h, PartialCut(r, assigned), free_parts)
        assert got == plain_average_size(h, assigned, r, free_parts)
    assert partial_average_excesses(h, r, family) == plain_average_excesses(h, r, family)



@settings(max_examples=300, deadline=None)
@given(averaged_families())
def test_partial_average_excesses_total_sums_the_numerators_property(data):
    h, r, _, family = data
    got = partial_average_excesses(h, r, family)
    plain = plain_average_excesses(h, r, family)
    assert got.total == sum(plain, Fraction(0))
    width = h.edge_array.shape[1]
    assert all(type(x) is Fraction and (x * r**width).denominator == 1 for x in got)


@st.composite
def scored_instances(draw):
    """A mixed instance (or a 2-uniform multigraph) with one random cut per r in 2..k."""
    n = draw(st.integers(0, 9))  # vertices beyond the drawn edges stay isolated
    ids = st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 6), unique=True)
    edges = draw(st.lists(ids, max_size=12)) if n else []
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=4))  # repeated edges
    if n >= 2 and draw(st.booleans()):
        pairs = [e[:2] for e in edges if len(e) >= 2]
        h, k = build(n, pairs, max_arity=2), 2
    else:
        realized = max(map(len, edges), default=0)
        k = draw(st.integers(max(2, realized), max(2, realized) + 2))
        h = build(n, edges, max_arity=k)
    cuts = [Cut(r, tuple(draw(st.integers(1, r)) for _ in range(n))) for r in range(2, k + 1)]
    return h, cuts


# 70-vertex edges at r = 70: the count must stay exact past a 64-bit mask
_WIDE = build(71, [range(70), range(1, 71), range(70)])
_WIDE_CUTS = [
    Cut(70, tuple(range(1, 71)) + (1,)),  # every edge rainbow
    Cut(70, tuple(range(1, 71)) + (2,)),  # the edge without vertex 0 misses part 1
    Cut(70, tuple(range(1, 70)) + (1, 70)),  # the two edges without vertex 70 miss part 70
]


@settings(max_examples=200, deadline=None)
@given(scored_instances())
@example((_WIDE, _WIDE_CUTS))
def test_cut_metrics_matches_plain_loop_and_stirling_property(data):
    h, cuts = data
    for cut in cuts:
        size = plain_cut_size(h, cut.assignment, cut.r)
        expected = stirling_expected_size(h, cut.r)
        got = cut_metrics(h, cut)
        assert type(got.size) is int
        assert (got.size, got.expected, got.excess) == (size, expected, size - expected)


# each side of every word boundary of the part-bit kernel, then any r up to 72
_BIT_WIDTHS = [2, 8, 9, 16, 17, 32, 33, 64, 65, 70]


@st.composite
def wide_cuts(draw):
    """An r-cut, r in 2..72, of a mixed instance on r to r + 4 vertices.

    Half the edge sizes are drawn from 1..n, so edges smaller than r are
    common, and half from r..n.  The labels are a rotation of 1..r with a
    few vertices moved, so the count lands anywhere from none to all.
    """
    r = draw(st.one_of(st.sampled_from(_BIT_WIDTHS), st.integers(2, 72)))
    n = draw(st.integers(r, r + 4))
    sizes = st.one_of(st.integers(1, n), st.integers(r, n))
    edge = sizes.flatmap(lambda s: st.permutations(range(n)).map(lambda p: p[:s]))
    edges = draw(st.lists(edge, min_size=1, max_size=8))
    shift = draw(st.integers(0, r - 1))
    labels = [(v + shift) % r + 1 for v in range(n)]
    for v in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        labels[v] = draw(st.integers(1, r))
    return build(n, edges), Cut(r, tuple(labels))


@settings(max_examples=300, deadline=None)
@given(wide_cuts())
@example((build(65, []), Cut(65, tuple(range(1, 66)))))  # edgeless, two words
def test_part_bit_kernel_matches_plain_loop_across_word_boundaries(data):
    h, cut = data
    got = cut_metrics(h, cut)
    assert type(got.size) is int
    assert got.size == plain_cut_size(h, cut.assignment, cut.r)
    assert got.expected == stirling_expected_size(h, cut.r)


def test_part_bit_kernel_counts_at_each_word_boundary():
    # a rainbow edge of size r counts; an edge of size r - 1 and one missing part r do not
    for r in _BIT_WIDTHS:
        h = build(r + 1, [range(r), range(r - 1), [*range(r - 1), r]])
        rainbow = Cut(r, (*range(1, r + 1), 1))
        assert cut_metrics(h, rainbow).size == plain_cut_size(h, rainbow.assignment, r) == 1
        assert cut_metrics(build(r + 1, []), rainbow) == CutMetrics(0, Fraction(0), Fraction(0))


@settings(max_examples=200, deadline=None)
@given(scored_instances())
def test_uniform_expected_size_matches_plain_inclusion_exclusion_sum(data):
    h, cuts = data
    for cut in cuts:
        plain = sum((_inclusion_exclusion(cut.r, len(e), cut.r) for e in h.edges), Fraction(0))
        assert uniform_expected_size(h, cut.r) == plain
