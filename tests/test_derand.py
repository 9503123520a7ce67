import random
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from hypercut.core import build, clique_expand, WeightedGraph
from hypercut.cutspace import Cut, cut_metrics
from hypercut.derand import (
    combine_partial_cuts,
    conditional_rcut,
    erdos_selfridge_2cut,
    first_two_vertex_set,
    flip_local_search,
    greedy_order_cut,
    order_for_W,
    point_local_search,
)
from hypercut.errors import InvalidCut, InvalidParams, PlanInvalid

from conftest import (
    brute_expected_size,
    brute_force_maxcut,
    plain_combine_partial_cuts,
    plain_point_local_search,
)


def is_dyadic(x: Fraction) -> bool:
    d = x.denominator
    return d & (d - 1) == 0


def random_mixed(rng, n_hi=10, m_hi=20, k_hi=5):
    n = rng.randint(2, n_hi)
    m = rng.randint(1, m_hi)
    edges = []
    for _ in range(m):
        size = rng.randint(1, min(k_hi, n))
        edges.append(rng.sample(range(n), size))
    return build(n, edges)


# ---------------------------------------------------------------- greedy


def test_greedy_triangle_every_order():
    g = clique_expand(build(3, [(0, 1), (1, 2), (0, 2)]))
    for order in permutations(range(3)):
        cut, excess = greedy_order_cut(g, list(order))
        size = sum(m for u, v, m in g.weights if cut.assignment[u] != cut.assignment[v])
        assert size == 2
        assert excess == Fraction(1, 2)


def test_greedy_star_center_last():
    g = clique_expand(build(4, [(3, 0), (3, 1), (3, 2)]))
    cut, excess = greedy_order_cut(g, [0, 1, 2, 3])
    # leaves tie into part 1, center then cuts all three edges
    assert cut.assignment[:3] == (1, 1, 1) and cut.assignment[3] == 2
    assert excess == Fraction(3, 2)


def test_greedy_empty_graph():
    g = clique_expand(build(4, []))
    _, excess = greedy_order_cut(g, [2, 0, 3, 1])
    assert excess == 0


def test_greedy_weighted():
    w = WeightedGraph(3, ((0, 1, Fraction(1, 4)), (1, 2, Fraction(3, 4))))
    cut, excess = greedy_order_cut(w, [0, 1, 2])
    assert excess >= 0
    cross = sum(wt for u, v, wt in w.weights if cut.assignment[u] != cut.assignment[v])
    assert cross == w.total_weight / 2 + excess


def test_greedy_random_ledger_identity():
    rng = random.Random(3)
    for _ in range(25):
        h = random_mixed(rng)
        g = clique_expand(h)
        order = list(range(h.n_vertices))
        rng.shuffle(order)
        cut, excess = greedy_order_cut(g, order)
        assert excess >= 0  # internal identity already asserted


# ---------------------------------------------------------------- flip


def test_flip_c5():
    g = clique_expand(build(5, [(i, (i + 1) % 5) for i in range(5)]))
    cut = flip_local_search(g, Cut(2, (1,) * 5))
    size = sum(m for u, v, m in g.weights if cut.assignment[u] != cut.assignment[v])
    assert size >= 3


def test_flip_fixed_point_k33():
    pairs = [(a, b) for a in range(3) for b in range(3, 6)]
    g = clique_expand(build(6, pairs))
    start = Cut(2, (1, 1, 1, 2, 2, 2))
    assert flip_local_search(g, start) == start


def test_flip_k4_reaches_optimum():
    pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    g = clique_expand(build(4, pairs))
    cut = flip_local_search(g, Cut(2, (1, 1, 1, 1)))
    size = sum(m for u, v, m in g.weights if cut.assignment[u] != cut.assignment[v])
    assert size == 4 == brute_force_maxcut(build(4, [list(p) for p in pairs]), 2)


def test_flip_every_vertex_balanced():
    rng = random.Random(5)
    for _ in range(10):
        h = random_mixed(rng)
        g = clique_expand(h)
        start = Cut(2, tuple(rng.choice((1, 2)) for _ in range(g.n_vertices)))
        cut = flip_local_search(g, start)
        adj = g.adjacency()
        for v in range(g.n_vertices):
            same = sum(m for nb, m in adj[v] if cut.assignment[nb] == cut.assignment[v])
            cross = sum(m for nb, m in adj[v] if cut.assignment[nb] != cut.assignment[v])
            assert cross >= same


# ---------------------------------------------------------------- W sets


def test_first_two_vertex_set_matching(matching12):
    rng = random.Random(0)
    for _ in range(5):
        order = list(range(12))
        rng.shuffle(order)
        assert len(first_two_vertex_set(matching12, order)) == 8


def test_w_empty_for_graphs():
    h = build(4, [[0, 1], [2, 3]])
    assert first_two_vertex_set(h, range(4)) == frozenset()


def test_w_single_edge():
    h = build(5, [[1, 2, 4]])
    assert first_two_vertex_set(h, [4, 3, 2, 1, 0]) == {4, 2}


@pytest.mark.parametrize(
    "order",
    [[0, 1, 2], [0, 1, 1, 3], [0, 1, 2, 4], [0, 1, 2, 9], [0, 1, 2, -1]],
    ids=["short", "repeated-vertex", "vertex-n", "above-n", "negative"],
)
def test_first_two_vertex_set_rejects_an_order_that_is_not_a_permutation(order):
    h = build(4, [[0, 1, 2], [1, 2, 3]])
    with pytest.raises(InvalidParams, match="order must be a permutation of all vertices"):
        first_two_vertex_set(h, order)


def test_order_for_w_threshold():
    rng = random.Random(9)
    for _ in range(10):
        h = random_mixed(rng, n_hi=12, m_hi=15)
        order = order_for_W(h, trials=6, seed=rng.randint(0, 999))
        n_prime = len(h.vertices_in_edges_of_size_at_least(3))
        k_eff = max((len(e) for e in h.edges), default=2)
        assert len(first_two_vertex_set(h, order)) * k_eff >= 2 * n_prime


# ---------------------------------------------------------------- es engine


def test_es_two_overlapping_triples():
    h = build(5, [[0, 1, 2], [2, 3, 4]])
    cut, ledger = erdos_selfridge_2cut(h, range(5))
    assert ledger.w_set == {0, 1, 2, 3}
    assert ledger.guaranteed_excess == Fraction(1, 2)
    size = cut_metrics(h, cut).size
    assert size == 2 == brute_force_maxcut(h, 2)
    assert ledger.realized_excess == Fraction(1, 2)


def test_es_single_pair_edge():
    h = build(2, [[0, 1]])
    cut, ledger = erdos_selfridge_2cut(h, [0, 1])
    # no size->=3 edges, so the first-two bound promises nothing
    assert ledger.w_set == frozenset()
    assert Fraction(len(ledger.w_set), 4) == 0
    assert cut_metrics(h, cut).size == 1
    assert ledger.realized_excess >= ledger.guaranteed_excess


def test_es_fano_guarantee(fano):
    rng = random.Random(2)
    for _ in range(5):
        order = list(range(7))
        rng.shuffle(order)
        cut, ledger = erdos_selfridge_2cut(fano, order)
        w = first_two_vertex_set(fano, order)
        assert ledger.realized_excess >= Fraction(len(w), 8)


def test_es_expectation_trace_is_dyadic_and_monotone():
    rng = random.Random(13)
    for _ in range(20):
        h = random_mixed(rng)
        order = list(range(h.n_vertices))
        rng.shuffle(order)
        trace = []
        erdos_selfridge_2cut(h, order, on_step=lambda v, a, e: trace.append(e))
        assert len(trace) == h.n_vertices + 1  # before the first step, then after each
        k_eff = max(2, max((len(e) for e in h.edges), default=2))
        for val in trace:
            assert is_dyadic(val) and val.denominator <= 2 ** (k_eff - 1)
        assert all(a <= b for a, b in zip(trace, trace[1:]))


def test_es_trace_matches_brute_force_enumeration():
    """Internal conditional expectations equal full-enumeration averages."""
    rng = random.Random(21)
    for _ in range(12):
        h = random_mixed(rng, n_hi=9, m_hi=12, k_hi=4)
        order = list(range(h.n_vertices))
        rng.shuffle(order)
        seen = []
        erdos_selfridge_2cut(h, order, on_step=lambda v, a, e: seen.append((a, e)))
        for assigned, expectation in seen:
            assert expectation == brute_expected_size(h, assigned, 2)


def test_es_guarantee_batch():
    rng = random.Random(31)
    for _ in range(50):
        h = random_mixed(rng, n_hi=14, m_hi=25)
        order = order_for_W(h, trials=4, seed=rng.randint(0, 10**6))
        _, ledger = erdos_selfridge_2cut(h, order)
        k_eff = max(2, max((len(e) for e in h.edges), default=2))
        n_prime = len(h.vertices_in_edges_of_size_at_least(3))
        assert ledger.realized_excess >= ledger.guaranteed_excess
        assert ledger.guaranteed_excess >= Fraction(len(ledger.w_set), 2**k_eff)
        assert ledger.realized_excess >= Fraction(n_prime, k_eff * 2 ** (k_eff - 1))


# ---------------------------------------------------------------- combine


def test_combine_two_triangles():
    tri = [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]
    h = build(6, tri)
    partials = [{0: 1, 1: 2, 2: 2}, {3: 1, 4: 2, 5: 2}]
    cut, plan = combine_partial_cuts(h, partials)
    assert plan.average_excesses == (Fraction(1, 2), Fraction(1, 2))
    assert plan.realized_excess >= 1
    assert cut_metrics(h, cut).size == 4  # max cut of two disjoint triangles


def test_combine_single_part():
    h = build(4, [[0, 1, 3]])
    cut, plan = combine_partial_cuts(h, [{0: 1, 1: 2}])
    assert plan.realized_excess >= plan.average_excesses[0] == Fraction(1, 4)
    assert cut.assignment[0] != cut.assignment[1]


def test_combine_zero_excess_plans():
    h = build(6, [[0, 3, 4], [1, 4, 5]])
    cut, plan = combine_partial_cuts(h, [{0: 1}, {1: 1}])
    assert plan.average_excesses == (0, 0)
    assert plan.realized_excess >= 0


def test_combine_rejects_collapsed_edges():
    h = build(4, [[0, 1, 2, 3]])
    with pytest.raises(PlanInvalid) as err:
        combine_partial_cuts(h, [{0: 1, 1: 2}, {2: 1, 3: 1}])
    assert err.value.offending_edges == [0]


def test_combine_random_plans():
    rng = random.Random(17)
    for _ in range(40):
        h = random_mixed(rng, n_hi=12, m_hi=18)
        vertices = list(range(h.n_vertices))
        rng.shuffle(vertices)
        t = rng.randint(1, min(3, h.n_vertices))
        parts = [set() for _ in range(t)]
        for v in vertices[: rng.randint(t, h.n_vertices)]:
            parts[rng.randrange(t)].add(v)
        parts = [p for p in parts if p]
        if not parts:
            continue
        # the caller removes edges violating the spread hypothesis
        index = {v: i for i, p in enumerate(parts) for v in p}
        keep = []
        for e in h.edges:
            coll = sum(
                c - 1 for c in Counter(index[v] for v in e if v in index).values() if c >= 2
            )
            if coll <= 1:
                keep.append(list(e))
        h2 = build(h.n_vertices, keep, max_arity=h.max_arity) if keep else None
        if h2 is None:
            continue
        partials = [{v: rng.choice((1, 2)) for v in p} for p in parts]
        cut, plan = combine_partial_cuts(h2, partials)
        assert plan.realized_excess >= sum(plan.average_excesses)
        base = brute_expected_size(h2, {}, 2)
        for x, pc in zip(plan.average_excesses, partials):
            assert x == brute_expected_size(h2, pc, 2) - base


def old_offenders(h, parts):
    """The Counter scan combine_partial_cuts used to find collapsed edges with."""
    part_index = {v: i for i, p in enumerate(parts) for v in p}
    return [
        i
        for i, e in enumerate(h.edges)
        if sum(
            c - 1
            for c in Counter(part_index[v] for v in e if v in part_index).values()
            if c >= 2
        )
        > 1
    ]


def test_combine_offenders_match_old_scan():
    rng = random.Random(19)
    raised = 0
    for _ in range(200):
        n = rng.randint(6, 14)
        vertices = list(range(n))
        rng.shuffle(vertices)
        t = rng.randint(1, 4)
        parts = [set() for _ in range(t)]
        for v in vertices[: rng.randint(t, n)]:
            parts[rng.randrange(t)].add(v)
        parts = [p for p in parts if p]
        edges = [rng.sample(range(n), rng.randint(1, 6)) for _ in range(rng.randint(1, 12))]
        big = [sorted(p) for p in parts if len(p) >= 3]
        pairs = [sorted(p) for p in parts if len(p) >= 2]
        for _ in range(rng.randint(0, 2)):
            if big:  # meets one part three times
                edges.append(rng.sample(rng.choice(big), 3))
            if len(pairs) >= 2:  # meets two parts twice each
                a, b = rng.sample(pairs, 2)
                edges.append(rng.sample(a, 2) + rng.sample(b, 2))
        rng.shuffle(edges)
        h = build(n, edges)
        partials = [{v: rng.choice((1, 2)) for v in p} for p in parts]
        want = old_offenders(h, parts)
        if want:
            with pytest.raises(PlanInvalid) as err:
                combine_partial_cuts(h, partials)
            assert err.value.offending_edges == want
            raised += 1
        else:
            combine_partial_cuts(h, partials)
    assert 50 <= raised <= 150


@pytest.mark.parametrize("outside", [-1, 6, 7])
def test_combine_rejects_vertices_outside_instance(outside):
    # -1 and n used to land on the padding slot, n + 1 past the code array
    h = build(6, [[0, 1, 2], [3], [4, 5]], max_arity=3)
    with pytest.raises(InvalidParams):
        combine_partial_cuts(h, [{outside: 1, 3: 2}])


def test_combine_rejects_overlapping_partial_cuts():
    h = build(4, [[0, 1, 2], [1, 2, 3]])
    with pytest.raises(InvalidParams, match="partial cuts must have disjoint domains"):
        combine_partial_cuts(h, [{0: 1, 1: 2}, {1: 1, 2: 2}])


@pytest.mark.parametrize("label", [0, 3])
def test_combine_rejects_labels_outside_two_parts(label):
    h = build(4, [[0, 1, 2], [1, 2, 3]])
    with pytest.raises(InvalidCut, match="part labels must lie in"):
        combine_partial_cuts(h, [{0: 1, 1: 2}, {2: label}])


@st.composite
def combine_plans(draw):
    """(n, edges, partial cuts) of a valid plan: mixed arity up to 6,
    repeated and size-1 edges, isolated vertices, possibly no part at all;
    edges collapsing into one part twice are left out, as callers do."""
    n = draw(st.integers(1, 12))
    edge = st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 6), unique=True)
    edges = draw(st.lists(edge, max_size=14))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    t = draw(st.integers(0, 4))
    owner = draw(st.lists(st.integers(-1, t - 1), min_size=n, max_size=n))
    colour = draw(st.lists(st.sampled_from((1, 2)), min_size=n, max_size=n))
    parts = [p for p in ([v for v in range(n) if owner[v] == i] for i in range(t)) if p]
    index = {v: i for i, p in enumerate(parts) for v in p}
    kept = [
        e
        for e in edges
        if sum(c - 1 for c in Counter(index[v] for v in e if v in index).values()) <= 1
    ]
    return n, kept, [{v: colour[v] for v in p} for p in parts]


# one 70-vertex edge: combine's scale 2^69 is beyond int64; the pair {0, 1}
# meets it once as a single colour, then as both colours
WIDE_EDGES = [list(range(70)), [0, 70], [5, 70, 71], [1, 2], [69, 71]]


@settings(max_examples=300, deadline=None)
@given(combine_plans())
@example((72, WIDE_EDGES, [{0: 2, 1: 2}, {2: 1, 70: 2}, {5: 2, 71: 1}]))
@example((72, WIDE_EDGES, [{0: 1, 1: 2}, {2: 2, 70: 2}, {5: 2, 71: 2}]))
def test_combine_matches_plain_swap_pass(plan):
    n, edges, partials = plan
    h = build(n, edges)
    got = combine_partial_cuts(h, partials)
    want = plain_combine_partial_cuts(h, partials)
    assert got == want
    assert got[1].average_excesses.total == sum(want[1].average_excesses)  # the promise


# ---------------------------------------------------------------- baselines


def test_conditional_rcut_nonnegative_excess():
    rng = random.Random(23)
    for _ in range(20):
        h = random_mixed(rng, n_hi=10, m_hi=15)
        for r in (2, 3):
            cut = conditional_rcut(h, r)
            assert cut_metrics(h, cut).excess >= 0


@pytest.mark.parametrize("order", [[0, 1], [0, 0, 1, 2, 3], [0, 1, 2, 3, 7]])
def test_conditional_rcut_rejects_an_order_that_is_not_a_permutation(order):
    # too short, a repeated vertex, a vertex outside the instance
    h = build(4, [[0, 1, 2], [1, 2, 3]])
    with pytest.raises(InvalidParams, match="order must be a permutation of all vertices"):
        conditional_rcut(h, 2, order)


def test_point_local_search_improves():
    pairs = [[a, b] for a in range(4) for b in range(a + 1, 4)]
    h = build(4, pairs)
    cut = point_local_search(h, Cut(2, (1, 1, 1, 1)))
    assert cut_metrics(h, cut).size == 4


def test_point_local_search_moves_a_vertex_twice():
    # seeded: vertex 3 moves to part 2 in the first sweep and to part 3 in the second
    rng = random.Random(95)
    h = random_mixed(rng)
    start = Cut(3, tuple(rng.randint(1, 3) for _ in range(h.n_vertices)))
    moves = []
    assert point_local_search(h, start) == plain_point_local_search(h, start, moves)
    assert moves == [(0, 2), (1, 2), (3, 2), (8, 1), (5, 2), (3, 3)]


def test_point_local_search_never_hurts():
    rng = random.Random(29)
    for _ in range(15):
        h = random_mixed(rng)
        r = rng.choice((2, 3))
        start = Cut(r, tuple(rng.randint(1, r) for _ in range(h.n_vertices)))
        out = point_local_search(h, start)
        assert cut_metrics(h, out).size >= cut_metrics(h, start).size
