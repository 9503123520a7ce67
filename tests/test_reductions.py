import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hypercut.reductions as reductions
from hypercut.core import WeightedGraph, build
from hypercut.cutspace import (
    Cut,
    PartialCut,
    cut_metrics,
    partial_average_excesses,
    partial_average_size,
)
from hypercut.errors import (
    CertificateError,
    HypercutError,
    InvalidArity,
    InvalidExposure,
    InvalidParams,
    InvalidReduction,
)
from hypercut.derand import _law_codes
from hypercut.reductions import (
    dense_subset_cut,
    expand_3graph,
    exposure_average_excess,
    hpart_double,
    hpart_expose,
    lift_2cut_to_3cut,
    rgraph_expand,
    weighted_identity_check,
    weighted_reduce,
)

from conftest import brute_expected_size, plain_weighted_reduce, rainbow_table
from test_derand import random_mixed
from test_state_codes import instances


# ------------------------------------------------------------- expand_3graph


def test_expand_matching(matching12):
    red = expand_3graph(matching12)
    assert red.forward.total_weight == 12  # four disjoint triangles
    cut, metrics = red.back_map(Cut(2, (1, 1, 2) * 4))
    assert metrics == cut_metrics(matching12, cut)
    assert metrics.size == 4
    assert sum(m for u, v, m in red.forward.weights if cut.assignment[u] != cut.assignment[v]) == 8


def test_expand_fano_complete(fano):
    red = expand_3graph(fano)
    assert red.forward.total_weight == 21
    assert all(m == 1 for _, _, m in red.forward.weights)


def test_expand_single_edge():
    h = build(3, [[0, 1, 2]])
    red = expand_3graph(h)
    cut, metrics = red.back_map(Cut(2, (1, 1, 2)))
    assert metrics == cut_metrics(h, cut)
    assert metrics.size == 1


def test_expand_rejects_mixed():
    with pytest.raises(InvalidArity):
        expand_3graph(build(3, [[0, 1]]))


MIXED = build(6, [[0, 1, 2], [3, 4], [1, 3, 5], [0, 2, 4, 5]])


@pytest.mark.parametrize(
    "reduce, message",
    [
        (expand_3graph, "expand_3graph needs a 3-uniform hypergraph"),
        (lambda h: rgraph_expand(h, 3), "rgraph_expand needs a k-uniform hypergraph"),
        (lambda h: lift_2cut_to_3cut(h, Cut(2, (1, 2) * 3)), "lift needs a 3-uniform hypergraph"),
    ],
)
def test_arity_checks_reject_mixed_and_pass_edgeless(reduce, message):
    # every edge of an edgeless instance has every size, as all(...) of nothing says
    with pytest.raises(InvalidArity, match=message):
        reduce(MIXED)
    edgeless = build(6, [], max_arity=4)
    reduce(edgeless)
    assert cut_metrics(edgeless, expand_3graph(edgeless).back_map(Cut(2, (1, 2) * 3))[0]).size == 0


def test_expand_random_certificates():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(3, 9)
        h = build(n, [rng.sample(range(n), 3) for _ in range(rng.randint(1, 12))])
        red = expand_3graph(h)
        cut = Cut(2, tuple(rng.choice((1, 2)) for _ in range(n)))
        red.back_map(cut)  # raises on any size mismatch


# --------------------------------------------------------------- rgraph


def test_rgraph_four_edge():
    h = build(4, [[0, 1, 2, 3]])
    red = rgraph_expand(h, 3)
    assert red.forward.m == 4
    # parts (2+1+1): exactly two of the four triples are rainbow
    cut, metrics = red.back_map(Cut(3, (1, 1, 2, 3)))
    assert metrics == cut_metrics(h, cut)
    assert cut_metrics(red.forward, cut).size == 2
    assert metrics.size == 1


def test_rgraph_monochromatic():
    h = build(4, [[0, 1, 2, 3]])
    red = rgraph_expand(h, 3)
    cut, metrics = red.back_map(Cut(3, (1, 1, 1, 1)))
    assert metrics == cut_metrics(h, cut)
    assert cut_metrics(red.forward, cut).size == 0


def test_rgraph_rejects_bad_r():
    h = build(4, [[0, 1, 2, 3]])
    with pytest.raises(InvalidParams):
        rgraph_expand(h, 2)


def test_rgraph_random_certificates():
    rng = random.Random(6)
    for _ in range(15):
        n = rng.randint(5, 9)
        k = rng.choice((4, 5))
        h = build(n, [rng.sample(range(n), k) for _ in range(rng.randint(1, 8))])
        red = rgraph_expand(h, k - 1)
        cut = Cut(k - 1, tuple(rng.randint(1, k - 1) for _ in range(n)))
        red.back_map(cut)


def _triangle_count_one_too_high(monkeypatch):
    real = WeightedGraph.crossing_weight
    monkeypatch.setattr(WeightedGraph, "crossing_weight", lambda g, a: real(g, a) + 1)
    return expand_3graph(build(3, [[0, 1, 2]])), Cut(2, (1, 1, 2))


def _subset_count_one_too_high(monkeypatch):
    red, real = rgraph_expand(build(4, [[0, 1, 2, 3]]), 3), reductions.cut_metrics

    def counted(g, cut):
        metrics = real(g, cut)
        return replace(metrics, size=metrics.size + 1) if g is red.forward else metrics

    monkeypatch.setattr(reductions, "cut_metrics", counted)
    return red, Cut(3, (1, 1, 2, 3))


@pytest.mark.parametrize(
    "faulty, message",
    [
        (_triangle_count_one_too_high, "triangle expansion: forward size 3 != 2*1"),
        (_subset_count_one_too_high, "subset expansion: forward size 3 != 2*1"),
    ],
)
def test_expansion_back_maps_certify_the_halving(monkeypatch, faulty, message):
    red, cut = faulty(monkeypatch)
    with pytest.raises(CertificateError) as err:
        red.back_map(cut)
    assert str(err.value) == message


# --------------------------------------------------------------- hpart_expose


def test_hpart_expose_pair_edge():
    h = build(3, [[0, 1, 2]])
    red = hpart_expose(h, 3, {2: 3}, keep=2)
    assert red.forward.edges == ((0, 1),)
    cut, metrics = red.back_map(Cut(2, (1, 2, 1)))
    assert cut.assignment == (1, 2, 3)
    assert metrics == cut_metrics(h, cut)
    assert metrics.size == 1


def test_hpart_expose_mixed_arity():
    h = build(6, [[0, 1, 2, 3, 4]])
    red = hpart_expose(h, 4, {3: 3, 4: 4}, keep=2)
    assert red.forward.edges == ((0, 1, 2),)
    assert red.forward.max_arity == 5 - 4 + 2


def test_hpart_expose_drops_uncovered():
    h = build(3, [[0, 1, 2]])
    red = hpart_expose(h, 3, {}, keep=2)  # part 3 unreachable
    assert red.forward.m == 0


def test_hpart_expose_rejects_bad_rho():
    h = build(3, [[0, 1, 2]])
    with pytest.raises(InvalidExposure):
        hpart_expose(h, 3, {0: 1}, keep=2)


def test_hpart_expose_keep3():
    h = build(5, [[0, 1, 2, 3], [1, 2, 3, 4]])
    red = hpart_expose(h, 4, {0: 4, 4: 4}, keep=3)
    assert red.forward.edges == ((1, 2, 3), (1, 2, 3))
    cut, metrics = red.back_map(Cut(3, (1, 1, 2, 3, 1)))
    assert cut.assignment == (4, 1, 2, 3, 4)
    assert metrics == cut_metrics(h, cut)
    assert metrics.size == 2


def test_hpart_expose_keep3_keeps_edges_with_more_starred_vertices():
    # at r < k an edge may keep 4 starred vertices, and a 3-cut can still cut it
    h = build(5, [[0, 1, 2, 3, 4]])
    red = hpart_expose(h, 4, {4: 4}, keep=3)
    assert red.forward.edges == ((0, 1, 2, 3),)
    assert red.forward.max_arity == 5 - 4 + 3
    cut, metrics = red.back_map(Cut(3, (1, 2, 3, 1, 1)))
    assert cut.assignment == (1, 2, 3, 1, 4)
    assert metrics.size == 1


def test_hpart_expose_same_size_random():
    rng = random.Random(8)
    for _ in range(20):
        h = random_mixed(rng, n_hi=9, m_hi=12, k_hi=5)
        k = h.max_arity
        if k < 3:
            continue
        r = rng.randint(3, k)
        rho = {v: rng.randint(3, r) for v in range(h.n_vertices) if rng.random() < 0.4}
        red = hpart_expose(h, r, rho, keep=2)
        cut = Cut(2, tuple(rng.choice((1, 2)) for _ in range(h.n_vertices)))
        red.back_map(cut)  # certificate asserts the same-size relation


def old_hpart_expose_edges(h, r, rho, keep):
    """The per-edge loop hpart_expose used to filter with, under its one rule
    for both keeps: at least ``keep`` starred vertices."""
    exposed = set(range(keep + 1, r + 1))
    fwd_edges = []
    for e in h.edges:
        image = {rho[v] for v in e if v in rho}
        star = tuple(v for v in e if v not in rho)
        if image >= exposed and len(star) >= keep:
            fwd_edges.append(star)
    return tuple(fwd_edges)


@pytest.mark.parametrize("keep", [2, 3])
def test_hpart_expose_matches_old_loop(keep):
    rng = random.Random(30 + keep)
    checked = 0
    while checked < 150:
        h = random_mixed(rng, n_hi=10, m_hi=16, k_hi=6)
        h = build(h.n_vertices, [*h.edges, *h.edges[: rng.randint(0, 3)]])  # repeats
        if h.max_arity < keep + 1:
            continue
        r = rng.randint(keep + 1, h.max_arity)
        rho = {
            v: rng.randint(keep + 1, r)
            for v in range(h.n_vertices)
            if rng.random() < (r - keep) / r
        }
        red = hpart_expose(h, r, rho, keep=keep)
        assert red.forward.edges == old_hpart_expose_edges(h, r, rho, keep)
        checked += 1


def test_exposure_average_excess_unbiased():
    # averaged over exposures, conditional expectation reproduces E Z (3 sigma)
    rng = random.Random(10)
    h = build(6, [[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 5]])
    samples = []
    for _ in range(3000):
        rho = {}
        for v in range(6):
            roll = rng.randint(1, 3)
            if roll == 3:
                rho[v] = 3
        samples.append(float(exposure_average_excess(h, 3, rho, keep=2)))
    mean = sum(samples) / len(samples)
    var = sum((s - mean) ** 2 for s in samples) / (len(samples) - 1)
    assert abs(mean) <= 3 * (var / len(samples)) ** 0.5 + 1e-9


# --------------------------------------------------------------- hpart_double


def test_hpart_double_shapes():
    h = build(6, [[0, 1, 2], [0, 1, 4], [3, 4, 5], [0, 4, 5]])
    red = hpart_double(h, {3: 1, 4: 1, 5: 2})  # W = {0, 1, 2}
    # edge {0,1,2} inside W doubles; {0,1,4} has one-sided outside part -> stub (0,1)
    # {3,4,5} outside-two-parts is determined multicoloured; {0,4,5} determined too
    assert sorted(red.forward.edges) == [(0, 1), (0, 1, 2), (0, 1, 2)]
    # E[Z | rho]: the two determined edges 1 each, the stub's and the inside edge's 3/4 each
    assert red.conditional_size == Fraction(7, 2)


def old_hpart_double_edges(h, w, rho):
    """The per-edge loop hpart_double used to build with: (edges, n_multi, n_undetermined)."""
    fwd_edges = []
    n_multi = n_undet = 0
    for e in h.edges:
        inside = tuple(v for v in e if v in w)
        if len(inside) == len(e):
            fwd_edges.append(inside)
            fwd_edges.append(inside)
            continue
        image = {rho[v] for v in e if v not in w}
        if len(image) == 2:
            n_multi += 1
        elif inside:
            fwd_edges.append(inside)
            n_undet += 1
    return tuple(fwd_edges), n_multi, n_undet


def test_hpart_double_matches_old_loop():
    rng = random.Random(33)
    for _ in range(150):
        h = random_mixed(rng, n_hi=10, m_hi=16, k_hi=6)
        h = build(h.n_vertices, [*h.edges, *h.edges[: rng.randint(0, 3)]])  # repeats
        w = {v for v in range(h.n_vertices) if rng.random() < rng.random()}
        rho = {v: rng.choice((1, 2)) for v in range(h.n_vertices) if v not in w}
        red = hpart_double(h, rho)
        edges, n_multi, n_undet = old_hpart_double_edges(h, w, rho)
        assert red.forward.edges == edges
        # the old counts still give E[Z | rho]: stubs are undetermined, multi edges cut
        fwd_expected = cut_metrics(red.forward, Cut(2, (1,) * h.n_vertices)).expected
        assert red.conditional_size == fwd_expected / 2 + Fraction(n_undet, 2) + n_multi


def assert_array_given_at_build(forward):
    """The forward instance holds, from its construction on, exactly the
    edge array its edge tuples would build."""
    assert "edge_array" in forward.__dict__  # set by the reduction, not on first use
    got = forward.edge_array
    want = build(forward.n_vertices, forward.edges, max_arity=forward.max_arity).edge_array
    assert got.shape == want.shape and got.dtype == want.dtype
    assert not got.flags.writeable
    assert np.array_equal(got, want)


def random_forwards(rng):
    """Forward instances of every kind that builds one from an edge array."""
    h = random_mixed(rng, n_hi=10, m_hi=16, k_hi=6)
    h = build(h.n_vertices, [*h.edges, *h.edges[: rng.randint(0, 3)]])  # repeats
    n = h.n_vertices
    for keep in (2, 3):
        if h.max_arity >= keep + 1:
            r = rng.randint(keep + 1, h.max_arity)
            rho = {v: rng.randint(keep + 1, r) for v in range(n) if rng.random() < 0.5}
            yield hpart_expose(h, r, rho, keep=keep).forward
    w = {v for v in range(n) if rng.random() < 0.6}
    yield hpart_double(h, {v: rng.choice((1, 2)) for v in range(n) if v not in w}).forward
    yield h.without_edges({i for i in range(h.m) if rng.random() < 0.3})
    widest = max(len(e) for e in h.edges)
    yield h.without_edges({i for i, e in enumerate(h.edges) if len(e) == widest})


def test_forward_arrays_equal_rebuilt_ones():
    rng = random.Random(41)
    for _ in range(120):
        for forward in random_forwards(rng):
            assert_array_given_at_build(forward)
    h = build(6, [[0, 1, 2], [3, 4, 5], [0, 3]])
    empty = hpart_expose(h, 3, {}, keep=2).forward  # no edge shows part 3
    assert_array_given_at_build(empty)
    assert empty.edge_array.shape == (0, 0)
    assert h.without_edges({0, 1}).edge_array.shape == (1, 2)


@pytest.mark.parametrize("vertex", [-1, 4, 5])
def test_exposures_reject_vertices_outside_the_instance(vertex):
    # n = 4 used to overwrite the padding label, so the exposure built and
    # reported an average excess; -1 does the same, and 5 ran past the labels
    h = build(4, [[0, 1, 2], [1, 2, 3]])
    with pytest.raises(InvalidExposure, match="outside the instance"):
        hpart_expose(h, 3, {vertex: 3})
    with pytest.raises(InvalidExposure, match="outside the instance"):
        hpart_double(h, {0: 1, vertex: 2})


@pytest.mark.parametrize("part", [0, 3])
def test_hpart_double_rejects_parts_outside_two(part):
    h = build(4, [[0, 1, 2], [1, 2, 3]])
    with pytest.raises(InvalidExposure, match=r"parts \[1, 2\] only"):
        hpart_double(h, {0: 1, 3: part})


def test_hpart_double_excess_transfer_random():
    rng = random.Random(12)
    for _ in range(25):
        h = random_mixed(rng, n_hi=8, m_hi=10, k_hi=4)
        w = {v for v in range(h.n_vertices) if rng.random() < 0.6}
        rho = {v: rng.choice((1, 2)) for v in range(h.n_vertices) if v not in w}
        red = hpart_double(h, rho)
        phi = Cut(2, tuple(rng.choice((1, 2)) for _ in range(h.n_vertices)))
        best, metrics = red.back_map(phi)  # averaging + transfer certificates run inside
        assert metrics == cut_metrics(h, best)  # the metrics of the side it chose
        flipped = Cut(2, tuple(3 - p if v in w else p for v, p in enumerate(best.assignment)))
        assert metrics.size >= cut_metrics(h, flipped).size
        x_fwd = cut_metrics(red.forward, phi).excess
        assert metrics.excess >= x_fwd / 2 + (red.conditional_size - red.base_size)


@settings(max_examples=200, deadline=None)
@given(instances(), st.sampled_from((2, 3)), st.data())
def test_exposure_conditional_size_equals_the_oracle_property(h, keep, data):
    # each builder's E[Z | rho], read off its forward instance, equals the
    # oracle's on h before any back-map runs
    n = h.n_vertices
    if h.max_arity > keep:
        r = data.draw(st.integers(keep + 1, h.max_arity))
        labels = data.draw(st.lists(st.integers(keep, r), min_size=n, max_size=n))
        rho = {v: p for v, p in enumerate(labels) if p > keep}  # label keep: starred
        red = hpart_expose(h, r, rho, keep=keep)
        assert red.conditional_size == partial_average_size(h, PartialCut(r, rho), free_parts=keep)
    w = data.draw(st.sets(st.integers(0, n - 1)))
    sides = data.draw(st.lists(st.sampled_from((1, 2)), min_size=n, max_size=n))
    rho = {v: sides[v] for v in range(n) if v not in w}
    red = hpart_double(h, rho)
    assert red.conditional_size == partial_average_size(h, PartialCut(2, rho))


@settings(max_examples=150, deadline=None)
@given(instances(), st.data())
def test_every_back_map_meets_its_transfer_property(h, data):
    # a forward cut of excess x maps back to a cut of excess >= transfer(x),
    # for the two expansions, the exposure (either keep) and the doubled one
    n = h.n_vertices

    def assert_transfer(red, r):
        c = Cut(r, tuple(data.draw(st.lists(st.integers(1, r), min_size=n, max_size=n))))
        if isinstance(red.forward, WeightedGraph):
            x = red.forward.crossing_weight(c.assignment) - Fraction(red.forward.total_weight, 2)
        else:
            x = cut_metrics(red.forward, c).excess
        assert red.back_map(c)[1].excess >= red.transfer(x)

    assert_transfer(expand_3graph(build(n, [e for e in h.edges if len(e) == 3], max_arity=3)), 2)
    k = h.max_arity
    if k >= 4:
        assert_transfer(rgraph_expand(build(n, [e for e in h.edges if len(e) == k]), k - 1), k - 1)
    keep = data.draw(st.sampled_from((2, 3)))
    if k > keep:
        r = data.draw(st.integers(keep + 1, k))
        labels = data.draw(st.lists(st.integers(keep, r), min_size=n, max_size=n))
        rho = {v: p for v, p in enumerate(labels) if p > keep}  # label keep: starred
        assert_transfer(hpart_expose(h, r, rho, keep=keep), keep)
    w = data.draw(st.sets(st.integers(0, n - 1)))
    sides = data.draw(st.lists(st.sampled_from((1, 2)), min_size=n, max_size=n))
    assert_transfer(hpart_double(h, {v: sides[v] for v in range(n) if v not in w}), 2)


# --------------------------------------------------------------- weighted


def test_weighted_reduce_formula():
    h = build(6, [[0, 1, 2, 3], [0, 1, 4], [2, 4, 5]])
    wg = weighted_reduce(h, [{0, 1}])[0]
    assert wg.weights == ((0, 1, Fraction(1, 4) + Fraction(1, 2)),)


def test_weighted_reduce_rejects_triple_meet():
    h = build(4, [[0, 1, 2]])
    with pytest.raises(InvalidReduction):
        weighted_reduce(h, [{0, 1, 2}])


def test_weighted_identity_exhaustive_small():
    h = build(5, [[0, 1, 2], [0, 1, 3, 4], [2, 3, 4], [0, 2]])
    vp = {0, 2}
    wg = weighted_reduce(h, [vp])[0]
    for a in (1, 2):
        for b in (1, 2):
            omega = {0: a, 2: b}
            (avg,) = partial_average_excesses(h, 2, [omega])
            weighted_identity_check([wg], [omega], [avg])
            brute = brute_expected_size(h, omega, 2) - brute_expected_size(h, {}, 2)
            assert avg == brute


def test_weighted_identity_random_batch():
    rng = random.Random(14)
    checked = 0
    while checked < 200:
        h = random_mixed(rng, n_hi=10, m_hi=14, k_hi=6)
        vp = set(rng.sample(range(h.n_vertices), min(h.n_vertices, rng.randint(1, 4))))
        if any(sum(v in vp for v in e) > 2 for e in h.edges):
            continue
        wg = weighted_reduce(h, [vp])[0]
        omega = {v: rng.choice((1, 2)) for v in vp}
        weighted_identity_check([wg], [omega], partial_average_excesses(h, 2, [omega]))
        checked += 1


def _weighted_excess(wg, omega):
    crossing = sum((w for u, v, w in wg.weights if omega[u] != omega[v]), Fraction(0))
    return crossing - wg.total_weight / 2


def test_weighted_reduce_family_matches_enumeration_property():
    rng = random.Random(23)
    checked = 0
    while checked < 150:
        h = random_mixed(rng, n_hi=9, m_hi=12, k_hi=5)
        n_parts = rng.randint(2, 4)
        if h.n_vertices < n_parts:
            continue
        pool = rng.sample(range(h.n_vertices), rng.randint(n_parts, h.n_vertices))
        cuts = sorted(rng.sample(range(1, len(pool)), n_parts - 1))
        parts = [set(pool[a:b]) for a, b in zip([0] + cuts, cuts + [len(pool)])]
        if any(sum(v in p for v in e) > 2 for e in h.edges for p in parts):
            continue
        wgs = weighted_reduce(h, parts)
        assert len(wgs) == n_parts
        omegas = [{v: rng.choice((1, 2)) for v in p} for p in parts]
        values = partial_average_excesses(h, 2, omegas)
        weighted_identity_check(wgs, omegas, values)
        base = brute_expected_size(h, {}, 2)
        for p, wg, omega, value in zip(parts, wgs, omegas, values):
            assert wg == weighted_reduce(h, [p])[0]
            brute = brute_expected_size(h, omega, 2) - base
            assert _weighted_excess(wg, omega) == brute
            assert value == brute
        checked += 1


def test_weighted_reduce_rejects_overlapping_parts():
    h = build(4, [[0, 1, 2, 3]])
    with pytest.raises(InvalidParams):
        weighted_reduce(h, [{0, 1}, {1, 2}])


@pytest.mark.parametrize("vertex", [-1, 6, 7])
def test_weighted_reduce_rejects_a_part_vertex_outside_the_instance(vertex):
    # -1 would otherwise read the owner of the padding vertex n
    h = build(6, [[0, 1, 5], [2, 3, 4]])
    with pytest.raises(InvalidParams, match=f"^weighted_reduce part vertex {vertex} outside the instance \\(n=6\\)$"):
        weighted_reduce(h, [{0, 1}, {2, vertex}])


@st.composite
def instances_with_parts(draw):
    """An ``instances()`` draw with 1 to 5 disjoint parts, some vertices in none."""
    h = draw(instances())
    t = draw(st.integers(1, 5))
    labels = draw(st.lists(st.integers(-1, t - 1), min_size=h.n_vertices, max_size=h.n_vertices))
    return h, [{v for v in range(h.n_vertices) if labels[v] == i} for i in range(t)]


def reduced(reduce, h, parts):
    """The part graphs, or the (type, message) of the error raised."""
    try:
        return reduce(h, parts)
    except HypercutError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(instances_with_parts())
# edges 2 and 3 meet part 1 in 4 and 3 vertices: the first offending row is named
@example((build(6, [[0, 1, 2], [3], [0, 1, 2, 3, 4, 5], [2, 3, 4]]), [{0, 1}, {2, 3, 4, 5}]))
# one edge meets both parts in 3 vertices: the part it meets first is named
@example((build(6, [[0, 1, 2, 3, 4, 5]]), [{3, 4, 5}, {0, 1, 2}]))
# stubs of size 1 next to pairs, repeated
@example((build(5, [[0], [1], [0, 1], [0, 1], [2, 3, 4], [4]]), [{0, 1, 2}, {3, 4}]))
@example((build(4, []), [{0, 1}, {2}]))  # edgeless
def test_weighted_reduce_matches_the_plain_loop(case):
    h, parts = case
    assert reduced(weighted_reduce, h, parts) == reduced(plain_weighted_reduce, h, parts)


def test_weighted_reduce_rejects_triple_meet_in_second_part():
    h = build(6, [[0, 1, 5], [2, 3, 4]])
    with pytest.raises(InvalidReduction):
        weighted_reduce(h, [{0, 1}, {2, 3, 4}])


def test_weighted_identity_check_audits_last_part():
    h = build(6, [[0, 1, 2], [3, 4, 5], [0, 1, 3, 4]])
    parts = [{0, 1}, {3, 4}]
    omegas = [{0: 1, 1: 2}, {3: 1, 4: 2}]
    wgs = weighted_reduce(h, parts)
    averages = partial_average_excesses(h, 2, omegas)
    weighted_identity_check(wgs, omegas, averages)
    (u, v, w), *rest = wgs[-1].weights
    tampered = WeightedGraph(wgs[-1].n_vertices, ((u, v, w + 1), *rest))
    with pytest.raises(CertificateError, match="part 1"):
        weighted_identity_check([wgs[0], tampered], omegas, averages)



def test_weighted_identity_check_audits_parts_without_pairs():
    # parts {4} and {5} hold no weighted pair: their averages must read 0
    h = build(6, [[0, 1, 2], [0, 1, 4, 5]])
    omegas = [{0: 1, 1: 2}, {4: 1}, {5: 2}]
    wgs = weighted_reduce(h, [set(o) for o in omegas])
    assert [bool(wg.weights) for wg in wgs] == [True, False, False]
    averages = partial_average_excesses(h, 2, omegas)
    assert averages[1:] == (0, 0)
    weighted_identity_check(wgs, omegas, averages)
    tampered = (*averages[:2], Fraction(1, 8))
    with pytest.raises(
        CertificateError, match=r"^part 2: weighted excess 0 != average excess 1/8 on \[5\]$"
    ):
        weighted_identity_check(wgs, omegas, tampered)


def test_weighted_identity_check_rejects_mismatched_lengths():
    h = build(6, [[0, 1, 2], [3, 4, 5], [0, 1, 3, 4]])
    parts = [{0, 1}, {3, 4}]
    omegas = [{0: 1, 1: 2}, {3: 1, 4: 2}]
    wgs = weighted_reduce(h, parts)
    averages = partial_average_excesses(h, 2, omegas)
    for args in ((wgs[:1], omegas, averages), (wgs, omegas[:1], averages), (wgs, omegas, averages[:1])):
        with pytest.raises(InvalidParams):
            weighted_identity_check(*args)


def test_weighted_identity_check_audits_the_given_averages():
    h = build(6, [[0, 1, 2], [3, 4, 5], [0, 1, 3, 4]])
    parts = [{0, 1}, {3, 4}]
    omegas = [{0: 1, 1: 2}, {3: 1, 4: 2}]
    wgs = weighted_reduce(h, parts)
    first, second = partial_average_excesses(h, 2, omegas)
    with pytest.raises(CertificateError, match="^part 0: "):
        weighted_identity_check(wgs, omegas, (first + Fraction(1, 2), second))
    with pytest.raises(CertificateError, match="^part 1: "):
        weighted_identity_check(wgs, omegas, (first, second - 1))


# --------------------------------------------------------------- lift


def test_lift_matching(matching12):
    c2 = Cut(2, (1, 1, 2) * 4)
    c3 = lift_2cut_to_3cut(matching12, c2)
    assert cut_metrics(matching12, c3).size >= 2  # ceil(32/27)


def test_lift_monochromatic():
    h = build(4, [[0, 1, 2], [1, 2, 3]])
    c3 = lift_2cut_to_3cut(h, Cut(2, (1, 1, 1, 1)))
    assert cut_metrics(h, c3).size >= 0


def test_lift_sts9_bound():
    # 2-cut of size 10 lifts to a 3-cut of size >= ceil(80/27) = 3
    from hypercut.instances import generate, GenSpec

    h = generate(GenSpec(family="sts", n=9))
    best = None
    from itertools import product

    for assign in product((1, 2), repeat=9):
        size = cut_metrics(h, Cut(2, assign)).size
        if best is None or size > best[0]:
            best = (size, Cut(2, assign))
    assert best[0] == 10
    c3 = lift_2cut_to_3cut(h, best[1])
    assert cut_metrics(h, c3).size >= 3


def test_lift_beats_guarantee_random():
    rng = random.Random(16)
    for _ in range(15):
        n = rng.randint(3, 9)
        h = build(n, [rng.sample(range(n), 3) for _ in range(rng.randint(1, 10))])
        c2 = Cut(2, tuple(rng.choice((1, 2)) for _ in range(n)))
        z2 = cut_metrics(h, c2).size
        c3 = lift_2cut_to_3cut(h, c2)
        assert cut_metrics(h, c3).size >= Fraction(8, 27) * z2


def rainbow27(e, moved: dict, side) -> int:
    """27 * Pr(e ends rainbow) by literal enumeration: each vertex not in
    ``moved`` stays in its 2-cut part w.p. 2/3 or moves to part 3 w.p. 1/3."""
    free = [v for v in e if v not in moved]
    base = 3 ** (3 - len(free))
    total = 0
    for bits in range(1 << len(free)):
        weight = base
        parts = 0
        for i, v in enumerate(free):
            if bits >> i & 1:
                parts |= 4
            else:
                weight *= 2
                parts |= 1 << (side[v] - 1)
        for v in e:
            if v in moved:
                parts |= 4 if moved[v] else 1 << (side[v] - 1)
        if parts == 7:
            total += weight
    return total


def lift_by_enumeration(h, c2) -> tuple[int, ...]:
    """The lift's vertex-by-vertex pass, re-enumerating every incident edge."""
    side = c2.assignment
    inc = h.incidence
    prob = [rainbow27(e, {}, side) for e in h.edges]
    moved: dict[int, bool] = {}
    for v in range(h.n_vertices):
        deltas = []
        for mv in (False, True):
            d = 0
            for ei in inc[v]:
                trial = {u: moved[u] for u in h.edges[ei] if u in moved}
                trial[v] = mv
                d += rainbow27(h.edges[ei], trial, side) - prob[ei]
            deltas.append(d)
        moved[v] = deltas[1] > deltas[0]  # tie keeps the vertex in its 2-cut part
        for ei in inc[v]:
            trial = {u: moved[u] for u in h.edges[ei] if u in moved}
            prob[ei] = rainbow27(h.edges[ei], trial, side)
    return tuple(3 if moved[v] else side[v] for v in range(h.n_vertices))


def test_rainbow_table_matches_enumeration():
    # the lift's laws: a free vertex of 2-cut part 1 (2) stays w.p. 2/3, else joins part 3
    codes = _law_codes(((2, 0, 1), (0, 2, 1)), 3, 9)[0]
    oracle = rainbow_table()  # the plain lift oracle's own table
    checked = 0
    for a in range(4):
        for b in range(4 - a):
            decided = 3 - a - b
            for hit in product((1, 2, 3), repeat=decided):
                # vertices a+b.. are decided; a decided part-3 vertex has moved
                moved = {a + b + i: p == 3 for i, p in enumerate(hit)}
                side = (1,) * a + (2,) * b + tuple(p if p < 3 else 1 for p in hit)
                mask = sum({1: 1, 2: 2, 3: 4}[p] for p in set(hit))
                want = rainbow27((0, 1, 2), moved, side)
                assert codes[mask << 4 | b << 2 | a] == want  # code: mask, then b, then a
                assert oracle[mask << 4 | a << 2 | b] == want
                checked += 1
    assert checked == 58  # every state the lift can reach, 3^(3-a-b) per (a, b)


def test_lift_matches_enumeration_random():
    rng = random.Random(27)
    for _ in range(60):
        n = rng.randint(3, 14)  # vertices outside every edge stay isolated
        edges = [rng.sample(range(n), 3) for _ in range(rng.randint(0, 16))]
        edges += [rng.choice(edges) for _ in range(rng.randint(0, 4))] if edges else []
        h = build(n, edges, max_arity=3)
        c2 = Cut(2, tuple(rng.choice((1, 2)) for _ in range(n)))
        assert lift_2cut_to_3cut(h, c2).assignment == lift_by_enumeration(h, c2)


# --------------------------------------------------------------- dense subset


def test_dense_subset_complete_9():
    from itertools import combinations

    h = build(9, [list(c) for c in combinations(range(9), 3)])
    cut, metrics = dense_subset_cut(h, range(9), 2, trials=24, seed=3)
    from hypercut.cutspace import equitable_complete_value

    assert metrics == cut_metrics(h, cut)
    assert metrics.size == equitable_complete_value(9, 3, 2)  # equitable samples hit the optimum


def test_dense_subset_rejects_zero_trials(fano):
    with pytest.raises(InvalidParams):
        dense_subset_cut(fano, range(7), 2, trials=0, seed=1)


@pytest.mark.parametrize("vertex", [-1, 4])
def test_dense_subset_rejects_vertices_outside_instance(vertex):
    # -1 used to put the last vertex in W, n to raise a bare IndexError
    h = build(4, [[0, 1, 2], [1, 2, 3]])
    match = f"^dense_subset_cut part vertex {vertex} outside the instance \\(n=4\\)$"
    with pytest.raises(InvalidParams, match=match):
        dense_subset_cut(h, [vertex, 0], 2, trials=3, seed=0)


def test_dense_subset_no_edges():
    h = build(6, [[0, 1, 2]])
    cut, metrics = dense_subset_cut(h, {3, 4, 5}, 3, trials=4, seed=2)
    assert cut.r == 3
    assert metrics == cut_metrics(h, cut)
