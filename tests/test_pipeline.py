import random
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import hypercut.pipeline as pipeline
import hypercut.reductions as reductions
from hypercut.core import WeightedGraph, build
from hypercut.cutspace import cut_metrics, theorem_bound
from hypercut.derand import erdos_selfridge_2cut, order_for_W
from hypercut.errors import (
    CertificateError,
    DriverInapplicable,
    GuaranteeViolation,
    InvalidParams,
    SearchFailed,
)
from hypercut.instances import GenSpec, generate
from hypercut.pipeline import (
    GuaranteeLedger,
    PipelineParams,
    chromatic_cut,
    codegree_structure,
    conditioned_matching_cut,
    derive_params,
    driver_2cut,
    driver_3cut,
    good_partition_search,
    goodness_audit,
    solve,
)

import conftest
from conftest import plain_double_exposure, plain_greedy_part
from test_cli_snapshot import corpus_runs
from test_derand import random_mixed
from test_state_codes import instances


PARAMS = PipelineParams(seed=7)


# ------------------------------------------------------------- arity


def test_arity_checks_read_the_size_histogram():
    mixed = build(7, [[0, 1, 2], [3, 4], [1, 3, 5, 6], [0, 2, 4, 5], [2, 6]])
    with pytest.raises(DriverInapplicable, match="driver_3cut needs edge sizes at most 3"):
        driver_3cut(mixed, range(7), PARAMS)
    # r = 3 on a mixed instance: no lift, so the engine runs on an exposure of part 3
    assert pipeline.es_route(mixed, 3, PARAMS).name == "es-expose"
    with pytest.raises(DriverInapplicable, match="subset expansion needs a k-uniform instance"):
        pipeline._dispatch_driver(mixed, 3, 4, codegree_structure(mixed), PARAMS)
    # driver_2cut needs m/(4k) edges of size >= 4: two of five are enough, none is not
    _, _, ledger = driver_2cut(mixed, PARAMS)
    assert not ledger.violations()
    with pytest.raises(DriverInapplicable, match="too few edges of size >= 4"):
        driver_2cut(build(7, [[0, 1, 2], [3, 4], [2, 6]], max_arity=4), PARAMS)
    # an edgeless instance passes every uniformity check, as all(...) of nothing is true
    edgeless = build(4, [], max_arity=3)
    assert edgeless.edges_all_of_size(3) and edgeless.edges_all_of_size(2)
    assert not mixed.edges_all_of_size(3) and build(3, [[0, 1, 2]] * 2).edges_all_of_size(3)


# ------------------------------------------------------------- structure


def test_codegree_structure_heavy_pairs():
    edges = [[0, 1, 2]] * 20
    h = build(4, edges)
    sr = codegree_structure(h)
    # g = 20^(7/45) < 2 < 20, so some pair of {0,1,2} is matched
    assert sr.matching
    u, v = sr.matching[0]
    assert {u, v} <= {0, 1, 2}


def test_codegree_structure_sts():
    h = generate(GenSpec(family="sts", n=15))
    sr = codegree_structure(h)
    assert sr.matching == ()
    assert sr.u_set == frozenset(range(15))  # all codegrees 1, degrees 7 <= 35^(5/9)
    assert sr.branch == "dense-induced"


def test_codegree_structure_low_everything():
    h = build(8, [[0, 1, 2], [3, 4, 5]])
    sr = codegree_structure(h)
    assert sr.u_set == frozenset(range(8))  # all degrees 1 <= 2^(5/9)
    assert sr.induced_edges == 2
    assert sr.branch == "dense-induced"


def test_conditioned_matching_cut_single_edge():
    h = build(3, [[0, 1, 2]])
    cut, metrics = conditioned_matching_cut(h, [(0, 1)], 2, trials=8, seed=1)
    # the matched pair spans both parts, so the edge is always multicoloured
    assert cut.assignment[0] != cut.assignment[1]
    assert metrics == cut_metrics(h, cut) and metrics.size == 1


@pytest.mark.parametrize("pair, vertex", [((-1, 0), -1), ((0, 4), 4)])
def test_conditioned_matching_cut_rejects_vertices_outside_instance(pair, vertex):
    # -1 used to pin the last vertex, n to raise a bare IndexError
    h = build(4, [[0, 1, 2], [1, 2, 3]])
    match = f"^conditioned_matching_cut part vertex {vertex} outside the instance \\(n=4\\)$"
    with pytest.raises(InvalidParams, match=match):
        conditioned_matching_cut(h, [pair], 2, trials=3, seed=0)


def test_conditioned_matching_cut_empty_matching(fano):
    cut, metrics = conditioned_matching_cut(fano, [], 2, trials=4, seed=2)
    assert cut.r == 2
    assert metrics == cut_metrics(fano, cut)


# ------------------------------------------------------------- goodness


def test_goodness_audit_matching_parts(matching12):
    parts = [frozenset({3 * i, 3 * i + 1, 3 * i + 2}) for i in range(4)]
    rep = goodness_audit(matching12, [True] * 4, parts)
    assert len(rep.violations_spread) == 4  # every triple sits inside one part


def test_goodness_audit_singletons(matching12):
    parts = [frozenset({v}) for v in range(12)]
    rep = goodness_audit(matching12, [True] * 4, parts)
    assert rep.within_pair_edges == 0
    assert rep.violations_spread == ()
    assert rep.violations_witness == ()


def test_goodness_audit_witness_pairs():
    # two edges pair up inside part {0,1,2,3} and meet outside it at vertex 4
    h = build(6, [[0, 1, 4], [2, 3, 4], [0, 1, 5]])
    parts = [frozenset({0, 1, 2, 3}), frozenset({4, 5})]
    rep = goodness_audit(h, [True] * 3, parts)
    assert (0, 1) in rep.violations_witness  # share v4, partitioned but outside part 0
    assert (0, 2) not in rep.violations_witness  # same inside pair, only 2 vertices


def test_goodness_audit_recount_random():
    rng = random.Random(15)
    for _ in range(10):
        h = random_mixed(rng, n_hi=10, m_hi=15, k_hi=4)
        t = rng.randint(1, 4)
        parts = [set() for _ in range(t)]
        for v in range(h.n_vertices):
            parts[rng.randrange(t)].add(v)
        rep = goodness_audit(h, [True] * h.m, parts)
        where = {v: i for i, p in enumerate(parts) for v in p}
        # independent recount of (i)
        expect = 0
        for e in h.edges:
            for i in range(t):
                c = sum(1 for v in e if where[v] == i)
                expect += c * (c - 1) // 2
        assert rep.within_pair_edges == expect


def test_good_partition_search_sts():
    h = generate(GenSpec(family="sts", n=27))
    gp = good_partition_search(h, [True] * h.m, range(27), PARAMS)
    assert gp.m_prime >= gp.m_target
    hd = h.without_edges(set(gp.deleted_edges))
    post = goodness_audit(hd, [True] * hd.m, gp.parts)
    assert post.violations_spread == () and post.violations_witness == ()


def test_good_partition_search_exhausts():
    # 20 coincident triples cannot spread over parts drawn from a tiny budget
    h = build(3, [[0, 1, 2]] * 20)
    with pytest.raises(SearchFailed):
        good_partition_search(h, [True] * 20, range(3), PipelineParams(retry_budget=3, seed=1))


# ------------------------------------------------------------- chromatic


def test_chromatic_matching(matching12):
    cut, metrics, chi = chromatic_cut(matching12, 3, trials=64, seed=3)
    assert chi == 3
    assert metrics == cut_metrics(matching12, cut) and metrics.excess > 0


def test_chromatic_fano(fano):
    cut, metrics, chi = chromatic_cut(fano, 2, trials=16, seed=4)
    assert chi == 7  # the expansion is complete, classes are singletons
    assert cut.r == 2
    assert metrics == cut_metrics(fano, cut)


# ------------------------------------------------------------- drivers


def test_driver_3cut_sts():
    h = generate(GenSpec(family="sts", n=21))
    cut, metrics, ledger = driver_3cut(h, range(21), PipelineParams(trials=8, seed=5))
    assert cut.r == 3
    assert not ledger.violations()
    assert metrics == cut_metrics(h, cut) and metrics.size > 0


def test_driver_3cut_rejects_big_edges():
    h = build(5, [[0, 1, 2, 3]])
    with pytest.raises(DriverInapplicable):
        driver_3cut(h, range(5), PARAMS)


def _linear_4graph():
    """60 pairwise-linear 4-edges on 60 vertices."""
    rng = random.Random(11)
    edges = []
    used = set()
    while len(edges) < 60:
        e = tuple(sorted(rng.sample(range(60), 4)))
        if any(p in used for p in combinations(e, 2)):
            continue
        used.update(combinations(e, 2))
        edges.append(list(e))
    return build(60, edges)


def test_driver_2cut_linear_4graph():
    h = _linear_4graph()
    cut, metrics, ledger = driver_2cut(h, PipelineParams(trials=6, seed=8))
    assert cut.r == 2
    assert not ledger.violations()
    assert metrics == cut_metrics(h, cut)


def _sts(n):
    return generate(GenSpec(family="sts", n=n))


def _matching12():
    return build(12, [[3 * i, 3 * i + 1, 3 * i + 2] for i in range(4)])


# Each case: the driver call, its cut as a digit string, and every ledger
# entry as (claim, promised, realized, scope).  STS(9) with the core
# {0, 1, 2} at seed 4 exposes all three core vertices in its one trial, so
# no part is left and the conditional-expectations cut stands in.
PINNED_DRIVER_RUNS = {
    "3cut-sts21": (
        lambda: driver_3cut(_sts(21), range(21), PipelineParams(trials=8, seed=5)),
        "213313133222111123231",
        [
            ("combined per-part greedy gains", "1/2", "21/2", "stage"),
            ("part-3 exposure transfer", "4/9", "94/9", "stage"),
            ("deleted-edge restoration", "4/9", "94/9", "instance"),
        ],
    ),
    "3cut-matching12": (
        lambda: driver_3cut(_matching12(), range(12), PipelineParams(trials=6, seed=13)),
        "213132132213",
        [
            ("combined per-part greedy gains", "1/2", "2", "stage"),
            ("part-3 exposure transfer", "29/18", "28/9", "stage"),
            ("deleted-edge restoration", "29/18", "28/9", "instance"),
        ],
    ),
    "2cut-linear4": (
        lambda: driver_2cut(_linear_4graph(), PipelineParams(trials=6, seed=8)),
        "211221121112212222221221121122111112112121212212121212122211",
        [
            ("combined weighted greedy gains", "1/4", "35/4", "stage"),
            ("doubled exposure transfer", "5/4", "13/2", "stage"),
            ("deleted-edge restoration", "5/4", "13/2", "instance"),
        ],
    ),
    "2cut-linear4-bad-vertices": (
        lambda: driver_2cut(_linear_4graph(), PipelineParams(trials=6, seed=0), u_set=range(50)),
        "222222112122112112122121121211121112222122221111112122211122",
        [
            ("inner combined weighted greedy gains", "1", "14", "stage"),
            ("inner doubled exposure transfer", "3/2", "11", "stage"),
            ("inner deleted-edge restoration", "3/2", "11", "stage"),
            ("bad-vertex exposure transfer", "3/4", "13/2", "instance"),
        ],
    ),
    "3cut-sts9-no-part-left": (
        lambda: driver_3cut(_sts(9), {0, 1, 2}, PipelineParams(trials=1, seed=4)),
        "333111222",
        [
            ("combined per-part greedy gains", "0", "9/2", "stage"),
            ("part-3 exposure transfer", "11/6", "19/3", "stage"),
            ("deleted-edge restoration", "11/6", "19/3", "instance"),
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_DRIVER_RUNS))
def test_driver_results_pinned(case, monkeypatch):
    combines = []
    real_combine = pipeline.combine_partial_cuts
    monkeypatch.setattr(
        pipeline, "combine_partial_cuts", lambda *a: combines.append(1) or real_combine(*a)
    )
    run, assignment, entries = PINNED_DRIVER_RUNS[case]
    cut, metrics, ledger = run()
    assert "".join(map(str, cut.assignment)) == assignment
    assert [
        (e.claim, str(e.promised), str(e.realized), e.scope) for e in ledger.entries
    ] == entries
    assert metrics.excess == ledger.entries[-1].realized  # the instance line's metrics
    assert all(e.deterministic for e in ledger.entries)
    assert (not combines) == case.endswith("no-part-left")


# Each tamper breaks one driver certificate's input and returns a thunk
# giving the (error type, message prefix) the driver must then raise.


def break_exposure_transfer(monkeypatch):
    """Every ``hpart_expose`` path: the oracle of its average excess reads one too high."""
    real = reductions.exposure_average_excess
    monkeypatch.setattr(
        reductions, "exposure_average_excess", lambda *a, **kw: real(*a, **kw) + 1
    )
    return lambda: (CertificateError, "partial exposure: conditional-size identity failed")


def break_weighted_graph(monkeypatch):
    """driver_2cut: one weight of the first weighted part graph is off by one."""
    real = pipeline.weighted_reduce
    tampered = []

    def reduce(h, parts):
        wgs = real(h, parts)
        for i, wg in enumerate(wgs):
            if wg.weights and not tampered:
                (u, v, w), *rest = wg.weights
                wgs[i] = WeightedGraph(wg.n_vertices, ((u, v, w + 1), *rest))
                tampered.append(i)
        return wgs

    monkeypatch.setattr(pipeline, "weighted_reduce", reduce)
    return lambda: (CertificateError, f"part {tampered[0]}: weighted excess")


def inflate_transfer(monkeypatch):
    """driver_2cut: the doubled exposure's transfer promises m + 1 more than it certified."""
    real = pipeline.hpart_double

    def double(h, rho):
        red = real(h, rho)
        transfer = red.transfer
        red.transfer = lambda p: transfer(p) + h.m + 1
        return red

    monkeypatch.setattr(pipeline, "hpart_double", double)
    return lambda: (GuaranteeViolation, "doubled-exposure promise missed")


@pytest.mark.parametrize(
    "tamper, case",
    [
        (break_exposure_transfer, "3cut-sts21"),
        (break_weighted_graph, "2cut-linear4"),
        (inflate_transfer, "2cut-linear4"),
    ],
)
def test_driver_certificates_fire(tamper, case, monkeypatch):
    expected = tamper(monkeypatch)
    run, _, _ = PINNED_DRIVER_RUNS[case]
    with pytest.raises((CertificateError, GuaranteeViolation)) as info:
        run()
    error, message = expected()
    assert type(info.value) is error
    assert str(info.value).startswith(message)


def test_writing_exposure_sizes_after_the_build_changes_no_promise(monkeypatch):
    # the transfer reads the values hpart_double certified, not its attributes
    real = pipeline.hpart_double

    def double(h, rho):
        red = real(h, rho)
        red.conditional_size += h.m + 1
        return red

    monkeypatch.setattr(pipeline, "hpart_double", double)
    run, assignment, entries = PINNED_DRIVER_RUNS["2cut-linear4"]
    cut, _, ledger = run()
    assert "".join(map(str, cut.assignment)) == assignment
    assert [
        (e.claim, str(e.promised), str(e.realized), e.scope) for e in ledger.entries
    ] == entries


def test_driver_2cut_runs_the_average_excess_oracle_once_per_combine(monkeypatch):
    # the weighted identity check reads the averages combine already computed
    import sys

    import hypercut.cutspace as cutspace

    calls = {"oracle": 0, "combine": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    oracle = cutspace.partial_average_excesses
    for name, mod in list(sys.modules.items()):
        bound = getattr(mod, "partial_average_excesses", None)
        if name.startswith("hypercut") and bound is oracle:
            monkeypatch.setattr(mod, "partial_average_excesses", counting("oracle", oracle))
    monkeypatch.setattr(
        pipeline, "combine_partial_cuts", counting("combine", pipeline.combine_partial_cuts)
    )
    driver_2cut(_linear_4graph(), PipelineParams(trials=6, seed=8))
    assert calls["combine"] >= 1
    assert calls["oracle"] == calls["combine"]



def _check_double_exposure(h, w, seed, budget):
    """``_double_exposure`` against the oracle-first loop it replaced;
    returns its result."""
    params = PipelineParams(retry_budget=budget)
    rng, plain_rng = random.Random(seed), random.Random(seed)
    with mock.patch.object(pipeline, "hpart_double", wraps=pipeline.hpart_double) as built, \
            mock.patch.object(conftest, "hpart_double", wraps=conftest.hpart_double) as plain_built, \
            mock.patch.object(conftest, "partial_average_size",
                              wraps=conftest.partial_average_size) as tested:
        got = pipeline._double_exposure(h, w, rng, params)
        want = plain_double_exposure(h, w, plain_rng, params)
    assert rng.getstate() == plain_rng.getstate()  # later draws read the same stream
    assert built.call_count == tested.call_count  # one build per draw the oracle tested
    if want is None:
        assert got is None
        return got
    assert built.call_args == plain_built.call_args  # the same accepted rho
    assert got.forward.edges == want.forward.edges
    assert (got.conditional_size, got.base_size) == (want.conditional_size, want.base_size)
    return got


# One edge has E[Z] = 1/2, and a draw meets it iff it splits 0 and 1: none
# of seed 3's three draws does, seed 0's second does, seed 4's first does.
@pytest.mark.parametrize("seed, accepted", [(3, False), (0, True), (4, True)])
def test_double_exposure_on_one_edge(seed, accepted):
    red = _check_double_exposure(build(2, [[0, 1]]), set(), seed, budget=3)
    assert (red is not None) == accepted


@settings(max_examples=150, deadline=None)
@given(instances(), st.data())
def test_double_exposure_matches_build_then_test_loop_property(h, data):
    w = data.draw(st.sets(st.integers(0, h.n_vertices - 1)))
    _check_double_exposure(h, w, data.draw(st.integers(0, 2**16)), data.draw(st.integers(1, 4)))


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(0, 11), min_size=1, max_size=8), st.data())
def test_greedy_part_matches_plain_greedy_property(vs, data):
    ends = st.sampled_from(sorted(vs))
    drawn = data.draw(st.lists(st.tuples(ends, ends, st.fractions(0, 2)), max_size=6))
    pairs = [(min(u, v), max(u, v), wt) for u, v, wt in drawn if u != v]
    seed = data.draw(st.integers(0, 2**16))
    rng, plain_rng = random.Random(seed), random.Random(seed)
    got = pipeline._greedy_part(vs, pairs, rng)
    want = plain_greedy_part(vs, pairs, plain_rng)
    assert list(got.items()) == list(want.items())  # the same visiting order too
    assert rng.getstate() == plain_rng.getstate()


def test_solve_scores_the_driver_cut_once(monkeypatch):
    # solve ranks driver_3cut's cut by the metrics the driver already computed
    import sys

    import hypercut.cutspace as cutspace

    h, params = _sts(21), PipelineParams(trials=8, seed=5)
    route = pipeline._dispatch_driver(h, 3, 3, codegree_structure(h), params)
    cut = route.cut
    assert route.metrics == cut_metrics(h, cut)

    scored = []
    real = cutspace.cut_metrics

    def counting(g, c):
        scored.append((g is h, c.assignment))
        return real(g, c)

    for name, mod in list(sys.modules.items()):
        if name.startswith("hypercut") and getattr(mod, "cut_metrics", None) is real:
            monkeypatch.setattr(mod, "cut_metrics", counting)
    _, ledger = solve(h, 3, params)
    assert ledger.entries[-2].claim == "pipeline: deleted-edge restoration"
    assert scored.count((True, cut.assignment)) == 1
    assert len(scored) == 40  # 41 when solve scored the driver's cut again


def test_each_route_scores_its_own_cut_and_lines():
    # a route's metrics are its cut's, and its instance lines realize that excess
    params = PipelineParams(trials=8, seed=3)
    for _, h, r in corpus_runs():
        sr = codegree_structure(h)
        makers = [
            lambda: pipeline.chromatic_route(h, r, params),
            lambda: pipeline.es_route(h, r, params),
            lambda: pipeline._dispatch_driver(h, r, pipeline.check_parts(h, r), sr, params),
        ]
        if r == 2:
            makers.append(lambda: pipeline.greedy_route(h, pipeline.engine_order(h, params)))
        for make in makers:
            try:
                route = make()
            except (SearchFailed, DriverInapplicable):
                continue
            assert route.metrics == cut_metrics(h, route.cut)
            for entry in route.ledger.entries:
                if entry.scope == "instance":
                    assert entry.realized == route.metrics.excess


@pytest.mark.parametrize(
    "h, r, reason",
    [
        # eight disjoint triples, five copies each: eight heavy pairs >= q = 40^(19/45)
        (
            build(24, [[3 * i, 3 * i + 1, 3 * i + 2] for i in range(8)] * 5),
            3,
            "no driver on the matching-cut branch",
        ),
        # a linear 4-graph with two 3-edges: no heavy pair, and not 4-uniform
        (
            build(9, [[0, 1, 2, 3], [4, 5, 6, 7], [0, 4, 8], [1, 5, 8]]),
            3,
            "subset expansion needs a k-uniform instance",
        ),
        (_sts(9), 2, "no driver for r=2, k=3"),
    ],
)
def test_dispatch_driver_says_why_no_driver_applies(h, r, reason):
    sr = codegree_structure(h)
    with pytest.raises(DriverInapplicable, match=f"^{reason}$"):
        pipeline._dispatch_driver(h, r, pipeline.check_parts(h, r), sr, PARAMS)


def test_driver_2cut_rejects_3graphs():
    h = build(6, [[0, 1, 2], [3, 4, 5]])
    with pytest.raises(DriverInapplicable):
        driver_2cut(h, PARAMS)


# ------------------------------------------------------------- solve


def test_solve_fano_reaches_optimum(fano):
    cut, ledger = solve(fano, 2, PipelineParams(trials=16, seed=1))
    assert cut_metrics(fano, cut).size == 6
    assert not ledger.violations()


def test_solve_matching_beats_bound(matching12):
    cut, ledger = solve(matching12, 2, PipelineParams(trials=8, seed=2))
    assert cut_metrics(matching12, cut).excess >= theorem_bound("mixed-2cut-n", k=3, n=12)
    assert not ledger.violations()


def test_solve_k12_3cut_matches_equitable():
    from hypercut.cutspace import equitable_complete_value
    from itertools import combinations

    h = build(12, [list(c) for c in combinations(range(12), 3)])
    cut, ledger = solve(h, 3, PipelineParams(trials=12, seed=3))
    random_baseline = cut_metrics(h, cut).expected
    assert cut_metrics(h, cut).size >= random_baseline  # never below random
    assert cut_metrics(h, cut).size >= equitable_complete_value(12, 3, 3) * 0.9
    assert not ledger.violations()


def test_solve_nonnegative_excess_across_r():
    rng = random.Random(41)
    for _ in range(8):
        h = random_mixed(rng, n_hi=10, m_hi=14, k_hi=5)
        k = h.max_arity
        if k < 2:
            continue
        for r in range(2, min(k, 4) + 1):
            cut, ledger = solve(h, r, PipelineParams(trials=4, retry_budget=10, seed=9))
            assert cut_metrics(h, cut).excess >= 0
            assert not ledger.violations()


def test_solve_beats_es_baseline():
    h = generate(GenSpec(family="sts", n=13))
    params = PipelineParams(trials=8, seed=6)
    order = order_for_W(h, 8, params.seed)
    _, es_ledger = erdos_selfridge_2cut(h, order)
    cut, _ = solve(h, 2, params)
    assert cut_metrics(h, cut).excess >= es_ledger.realized_excess


def test_solve_r4_uniform4():
    rng = random.Random(43)
    edges = [rng.sample(range(14), 4) for _ in range(25)]
    h = build(14, edges)
    cut, ledger = solve(h, 4, PipelineParams(trials=4, retry_budget=12, seed=10))
    assert cut.r == 4
    assert cut_metrics(h, cut).excess >= 0
    assert not ledger.violations()


def test_solve_r3_k5():
    rng = random.Random(47)
    edges = [rng.sample(range(16), 5) for _ in range(30)]
    h = build(16, edges)
    cut, ledger = solve(h, 3, PipelineParams(trials=4, retry_budget=12, seed=11))
    assert cut_metrics(h, cut).excess >= 0
    assert not ledger.violations()


def test_solve_r3_k4_subset_expansion():
    rng = random.Random(53)
    edges = [rng.sample(range(12), 4) for _ in range(20)]
    h = build(12, edges)
    cut, ledger = solve(h, 3, PipelineParams(trials=4, retry_budget=12, seed=12))
    assert cut_metrics(h, cut).excess >= 0
    assert not ledger.violations()


def test_derive_params_matches_formulas():
    d = derive_params(1000)
    assert d.delta == pytest.approx(1000 ** (5 / 9))
    assert d.g == pytest.approx(1000 ** (7 / 45))
    assert d.q == pytest.approx(1000 ** (19 / 45))
    assert d.p == pytest.approx(
        min(d.delta ** (-0.6), d.g ** (-2 / 3) * d.delta ** (-1 / 3))
    )


def test_driver_3cut_matching(matching12):
    # every exposure's pair graph is a matching, so greedy cuts all its edges
    cut, metrics, ledger = driver_3cut(matching12, range(12), PipelineParams(trials=6, seed=13))
    assert not ledger.violations()
    assert metrics == cut_metrics(matching12, cut) and metrics.excess >= 0


def test_conditioned_matching_pair_outside_edges():
    # conditioning on a pair no edge contains leaves the distribution alone
    h = build(6, [[2, 3, 4]])
    cut, metrics = conditioned_matching_cut(h, [(0, 1)], 2, trials=16, seed=5)
    assert cut.assignment[0] != cut.assignment[1]
    assert metrics == cut_metrics(h, cut)


def test_codegree_structure_core_size_bound():
    rng = random.Random(61)
    for _ in range(25):
        h = random_mixed(rng, n_hi=14, m_hi=30, k_hi=5)
        sr = codegree_structure(h)
        if sr.branch == "matching-cut":
            continue
        d = derive_params(h.m)
        k = max(h.max_arity, 1)
        assert len(sr.u_set) >= h.n_vertices - 2 * d.q - k * h.m / d.delta - 1e-9


def test_ledger_floor_ignores_stage_promises():
    ledger = GuaranteeLedger()
    ledger.add("forward-stage claim", Fraction(5), Fraction(6), scope="stage")
    ledger.add("instance claim", Fraction(1, 2), Fraction(2))
    assert ledger.instance_promise() == Fraction(1, 2)
    assert not ledger.violations()


def test_solve_soak_mixed_shapes():
    # regression soak: stage promises measured on forward instances must
    # never be held against the returned cut's excess
    rng = random.Random("soak")
    for i in range(60):
        kind = rng.randrange(6)
        if kind == 0:
            n = rng.randint(1, 3)
            edges = [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 3))]
            h = build(n, edges)
        elif kind == 1:
            n = rng.randint(3, 8)
            e = rng.sample(range(n), min(3, n))
            h = build(n, [e] * rng.randint(5, 40))
        elif kind == 2:
            k = rng.randint(4, 6)
            n = rng.randint(k, 18)
            h = build(n, [rng.sample(range(n), k) for _ in range(rng.randint(1, 25))])
        elif kind == 3:
            n = rng.randint(2, 15)
            h = build(
                n,
                [rng.sample(range(n), rng.randint(1, min(5, n))) for _ in range(rng.randint(1, 30))],
                max_arity=6,
            )
        elif kind == 4:
            n = rng.randint(4, 14)
            h = build(
                n,
                [[0] + rng.sample(range(1, n), rng.randint(1, min(4, n - 1))) for _ in range(rng.randint(2, 20))],
            )
        else:
            n = rng.randint(6, 16)
            half = n // 2
            edges = [rng.sample(range(half), min(3, half)) for _ in range(rng.randint(1, 8))]
            edges += [rng.sample(range(half, n), min(3, n - half)) for _ in range(rng.randint(1, 8))]
            h = build(n, edges)
        k = max(h.max_arity, 2)
        for r in range(2, min(k, 5) + 1):
            cut, ledger = solve(h, r, PipelineParams(trials=4, retry_budget=8, seed=i))
            assert cut_metrics(h, cut).excess >= 0
            assert not ledger.violations()
