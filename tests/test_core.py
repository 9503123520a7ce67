from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from hypercut.core import (
    build,
    clique_expand,
    degree_profile,
    induce,
    row_sums,
)
from hypercut.cutspace import Cut
from hypercut.derand import first_two_vertex_set, point_local_search
from hypercut.errors import InvalidEdge, InvalidParams, InvalidVertex
from hypercut.hgio import parse, serialize

from conftest import (
    FANO_LINES,
    plain_clique_weights,
    plain_degree_profile,
    plain_first_two_vertex_set,
    plain_incidence,
    plain_induced_edges,
    plain_point_local_search,
    plain_size_histogram,
    plain_vertices_in_edges_of_size_at_least,
)


def small_hypergraphs():
    @st.composite
    def strat(draw):
        n = draw(st.integers(min_value=1, max_value=8))
        m = draw(st.integers(min_value=0, max_value=10))
        edges = []
        for _ in range(m):
            size = draw(st.integers(min_value=1, max_value=min(4, n)))
            edge = draw(
                st.lists(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=size,
                    max_size=size,
                    unique=True,
                )
            )
            edges.append(edge)
        return build(n, edges)

    return strat()


def test_build_basic():
    h = build(5, [[1, 2, 3], [2, 3, 4]])
    assert h.m == 2 and h.n_vertices == 5 and h.max_arity == 3
    assert h.edges == ((1, 2, 3), (2, 3, 4))


def test_build_multiset_semantics():
    h = build(3, [[0, 1], [0, 1]])
    assert h.m == 2
    assert h.edge_multiset()[(0, 1)] == 2


def test_build_rejects_bad_edges():
    with pytest.raises(InvalidEdge):
        build(3, [[0, 0, 1]])
    with pytest.raises(InvalidEdge):
        build(3, [[]])
    with pytest.raises(InvalidVertex):
        build(3, [[0, 3]])
    with pytest.raises(InvalidVertex):
        build(3, [[-1, 0]])


def test_build_rejects_negative_arity():
    with pytest.raises(InvalidParams):
        build(3, [], max_arity=-1)
    assert build(3, [], max_arity=0).max_arity == 0


def test_build_canonicalizes_order():
    h = build(4, [[3, 1, 0]])
    assert h.edges == ((0, 1, 3),)


# Pairs of instances that differ in one thing the edge representation must
# see: how often an edge repeats, the order of the edges, mixed sizes
# padded, the array's shape when its entries agree, a declared max_arity
# above the realized one, and the edgeless instance.
REPRESENTATION_CASES = {
    "repeats": (build(4, [[0, 1], [0, 1], [2, 3]]), build(4, [[0, 1], [2, 3], [2, 3]])),
    "order": (build(4, [[0, 1], [2, 3]]), build(4, [[2, 3], [0, 1]])),
    "mixed": (build(5, [[4, 3], [2], [0, 1, 3]]), build(5, [[4, 3], [2], [0, 1, 2]])),
    "shape": (build(5, [[0, 1], [2, 3]], max_arity=4), build(5, [[0, 1, 2, 3]])),
    "declared arity": (build(3, [[0, 1]], max_arity=3), build(3, [[0, 1]])),
    "edgeless": (build(3, []), build(4, [])),
}


@pytest.mark.parametrize("case", REPRESENTATION_CASES)
def test_equality_and_hash_follow_the_edges_in_order(case):
    h, other = REPRESENTATION_CASES[case]
    n, k = h.n_vertices, h.max_arity
    again = build(n, [list(e) for e in h.edges], max_arity=k)
    assert again == h and hash(again) == hash(h)
    assert h != other and other != h
    assert h != h.edges  # an instance equals no tuple of its edges


def test_without_the_widest_edge_equals_the_build_of_the_rest():
    h = build(6, [[0, 1], [1, 2, 3, 4, 5], [2], [2, 3, 4]], max_arity=5)
    for drop, rest in (({1}, [[0, 1], [2], [2, 3, 4]]), ({1, 3}, [[0, 1], [2]])):
        got, want = h.without_edges(drop), build(6, rest, max_arity=5)
        assert got == want and hash(got) == hash(want)
        assert got.edge_array.shape == want.edge_array.shape == (len(rest), max(map(len, rest)))
    assert h.without_edges(set(range(h.m))) == build(6, [], max_arity=5)
    assert h.without_edges(set(range(h.m))).edge_array.shape == (0, 0)


@pytest.mark.parametrize("case", REPRESENTATION_CASES)
def test_edges_are_derived_once_in_build_order(case):
    for h in REPRESENTATION_CASES[case]:
        assert h.edges is h.edges  # cached
        rows = h.edge_array.tolist()
        assert h.edges == tuple(tuple(v for v in row if v != h.n_vertices) for row in rows)
    h = build(6, [[5, 0], [3], [4, 2, 1], [5, 0]])
    assert h.edges == ((0, 5), (3,), (1, 2, 4), (0, 5))
    assert h.edge_array.tolist() == [[0, 5, 6], [3, 6, 6], [1, 2, 4], [0, 5, 6]]


@pytest.mark.parametrize("case", REPRESENTATION_CASES)
def test_edge_array_is_read_only(case):
    for h in REPRESENTATION_CASES[case]:
        assert not h.edge_array.flags.writeable
        with pytest.raises(ValueError):
            h.edge_array[...] = 0


@pytest.mark.parametrize("case", REPRESENTATION_CASES)
def test_hgio_round_trips_are_exact(case):
    for h in REPRESENTATION_CASES[case]:
        text = serialize(h)
        back = parse(text)
        assert back == h and serialize(back) == text
        assert back.edges == h.edges and back.max_arity == h.max_arity


def test_degree_profile_fano(fano):
    # independent recount straight off the line list
    deg = Counter()
    codeg = Counter()
    for line in FANO_LINES:
        for v in line:
            deg[v] += 1
        for i in range(3):
            for j in range(i + 1, 3):
                codeg[tuple(sorted((line[i], line[j])))] += 1
    prof = degree_profile(fano)
    assert all(prof.degree[v] == 3 == deg[v] for v in range(7))
    assert prof.max_degree == 3
    for u in range(7):
        for v in range(u + 1, 7):
            assert prof.codeg(u, v) == 1 == codeg[(u, v)]


def test_degree_profile_matching(matching12):
    prof = degree_profile(matching12)
    assert set(prof.degree) == {1}
    assert all(c in (0, 1) for c in prof.codegree.values())


def test_degree_profile_doubled_edge():
    h = build(3, [[0, 1, 2], [0, 1, 2]])
    assert degree_profile(h).codeg(0, 1) == 2


def test_induce_fano_line(fano):
    sub = induce(fano, {0, 1, 2})
    assert sub.edges == ((0, 1, 2),)


def test_induce_drops_edges_leaving_the_set():
    h = build(4, [[1, 2, 3]])
    assert induce(h, {1, 2}).m == 0


def test_induce_empty_and_identity(fano):
    assert induce(fano, set()).m == 0
    assert induce(fano, range(7)) == fano


def test_clique_expand_triangle():
    g = clique_expand(build(3, [[0, 1, 2]]))
    assert g.weights == ((0, 1, 1), (0, 2, 1), (1, 2, 1))


def test_clique_expand_fano_is_complete(fano):
    g = clique_expand(fano)
    assert g.total_weight == 21
    assert all(mult == 1 for _, _, mult in g.weights)
    assert len(g.weights) == 21


def test_clique_expand_4edge():
    g = clique_expand(build(4, [[0, 1, 2, 3]]))
    assert g.total_weight == 6


@given(small_hypergraphs())
def test_clique_expand_pair_count(h):
    expect = sum(len(e) * (len(e) - 1) // 2 for e in h.edges)
    total = clique_expand(h).total_weight
    assert type(total) is int and total == expect


@given(small_hypergraphs())
def test_degree_totals(h):
    prof = degree_profile(h)
    assert sum(prof.degree) == sum(len(e) for e in h.edges)


@given(small_hypergraphs())
def test_induce_identity(h):
    assert induce(h, range(h.n_vertices)) == h


@st.composite
def mixed_instances(draw):
    """Mixed arity with size-1 edges, repeated edges, isolated vertices,
    m = 0 and a declared max_arity above the realized size."""
    used = draw(st.integers(min_value=0, max_value=9))
    n = used + draw(st.integers(min_value=0, max_value=2))  # isolated vertices
    edges: list[list[int]] = []
    for _ in range(draw(st.integers(min_value=0, max_value=14)) if used else 0):
        if edges and draw(st.booleans()):
            edges.append(draw(st.sampled_from(edges)))  # a repeated edge
            continue
        size = draw(st.integers(min_value=1, max_value=min(6, used)))
        vertices = st.integers(min_value=0, max_value=used - 1)
        edges.append(draw(st.lists(vertices, min_size=size, max_size=size, unique=True)))
    realized = max(map(len, edges), default=0)
    return build(n, edges, max_arity=realized + draw(st.integers(min_value=0, max_value=2)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_array_counters_match_plain_loops(data):
    h = data.draw(mixed_instances())
    n = h.n_vertices
    all_ints = lambda xs: all(type(x) is int for x in xs)

    deg, codeg, max_deg = plain_degree_profile(h)
    prof = degree_profile(h)
    assert prof.degree == tuple(deg) and all_ints(prof.degree)
    assert prof.codegree == codeg and all_ints(prof.codegree.values())
    assert prof.max_degree == max_deg and type(prof.max_degree) is int

    weights = clique_expand(h).weights
    assert weights == plain_clique_weights(h)
    assert all(all_ints(w) for w in weights)

    inc = h.incidence
    assert [list(row) for row in inc] == plain_incidence(h) and all(all_ints(row) for row in inc)
    # built once per instance, and handed out as tuples no caller can change
    assert h.incidence is inc and type(inc) is tuple and all(type(row) is tuple for row in inc)
    assert h.size_histogram == plain_size_histogram(h) and all_ints(h.size_histogram)
    for s in range(h.edge_array.shape[1] + 2):
        got = h.vertices_in_edges_of_size_at_least(s)
        assert got == plain_vertices_in_edges_of_size_at_least(h, s) and all_ints(got)

    u_set = data.draw(st.frozensets(st.integers(min_value=0, max_value=max(n - 1, 0))))
    assert induce(h, u_set).edges == plain_induced_edges(h, u_set)

    order = data.draw(st.permutations(range(n)))
    w_set = first_two_vertex_set(h, order)
    assert w_set == plain_first_two_vertex_set(h, order) and all_ints(w_set)

    r = data.draw(st.integers(min_value=2, max_value=4))
    start = Cut(r, tuple(data.draw(st.lists(st.integers(1, r), min_size=n, max_size=n))))
    assert point_local_search(h, start) == plain_point_local_search(h, start)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        arrays(bool, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=8)),
        arrays(np.intp, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=8),
               elements=st.integers(-1000, 1000)),
    )
)
@example(np.zeros((0, 3), dtype=bool))
@example(np.zeros((0, 5), dtype=np.intp))
@example(np.zeros((4, 0), dtype=bool))
@example(np.zeros((4, 0), dtype=np.intp))
def test_row_sums_matches_axis_sum_property(a):
    got = row_sums(a)
    assert got.dtype == np.intp
    assert got.shape == (a.shape[0],)
    assert np.array_equal(got, a.sum(axis=1))
