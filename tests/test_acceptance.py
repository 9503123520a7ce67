"""Acceptance gate: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Tolerances are
pinned here; "exact" means Fraction equality, statistical criteria state
their slack inline.
"""

import math
import random
import time
from fractions import Fraction

from hypercut.core import build
from hypercut.cutspace import (
    Cut,
    cut_metrics,
    equitable_complete_value,
    partial_average_excesses,
    theorem_bound,
)
from hypercut.derand import (
    combine_partial_cuts,
    erdos_selfridge_2cut,
    order_for_W,
)
from hypercut.instances import (
    GenSpec,
    exact_maxcut,
    generate,
    moment_audit,
    monotonicity_check,
)
from hypercut.pipeline import PipelineParams, solve
from hypercut.reductions import (
    expand_3graph,
    hpart_double,
    hpart_expose,
    lift_2cut_to_3cut,
    rgraph_expand,
    weighted_identity_check,
    weighted_reduce,
)

from conftest import FANO_LINES, brute_expected_size


def report(num, message):
    print(f"\nACCEPTANCE {num}: PASS - {message}")


def random_mixed(rng, n_hi, m_hi, k):
    n = rng.randint(max(2, k), n_hi)
    m = rng.randint(1, m_hi)
    edges = [rng.sample(range(n), rng.randint(1, min(k, n))) for _ in range(m)]
    return build(n, edges, max_arity=k)


def test_criterion_1_tight_extremal_cases():
    start = time.perf_counter()
    fano = build(7, FANO_LINES)
    value, cut = exact_maxcut(fano, 2)
    assert value == 6
    assert cut_metrics(fano, cut).excess == Fraction(3, 4)
    assert theorem_bound("sts-2cut", m=7) == Fraction(3, 4)

    sts9 = generate(GenSpec(family="sts", n=9))
    value, cut = exact_maxcut(sts9, 2)
    assert value == 10
    assert cut_metrics(sts9, cut).excess == 1
    assert theorem_bound("connected-3graph", n=9) == 1
    assert theorem_bound("sts-2cut", m=12) == 1

    matching = generate(GenSpec(family="matching", n=12, k=3))
    value, cut = exact_maxcut(matching, 2)
    assert value == 4
    assert cut_metrics(matching, cut).excess == 1
    assert theorem_bound("nonisolated-3graph", n=12) == 1

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"Fano/STS(9)/matching tight values exact in {elapsed:.3f}s")


def test_criterion_2_deferred_engine_guarantee():
    start = time.perf_counter()
    rng = random.Random("acceptance-2")
    instances = [
        build(7, FANO_LINES),
        generate(GenSpec(family="sts", n=9)),
        generate(GenSpec(family="sts", n=13)),
        generate(GenSpec(family="sts", n=15)),
        generate(GenSpec(family="matching", n=12, k=3)),
        generate(GenSpec(family="matching", n=20, k=5)),
    ]
    for _ in range(500):
        instances.append(random_mixed(rng, 40, 120, rng.choice((3, 4, 5))))
    for idx, h in enumerate(instances):
        order = order_for_W(h, trials=4, seed=idx)
        _, ledger = erdos_selfridge_2cut(h, order)
        k_eff = max(2, max((len(e) for e in h.edges), default=2))
        w_bound = Fraction(len(ledger.w_set), 2**k_eff)
        assert ledger.guaranteed_excess >= w_bound
        assert ledger.realized_excess >= ledger.guaranteed_excess
        n_prime = len(h.vertices_in_edges_of_size_at_least(3))
        assert ledger.realized_excess >= Fraction(n_prime, k_eff * 2 ** (k_eff - 1))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"{len(instances)} runs met (|D|+sum|U_v|)/2^k and n'/(k*2^(k-1)) in {elapsed:.1f}s")


def test_criterion_3_conditional_expectation_exactness():
    rng = random.Random("acceptance-3")
    corpus = [
        build(7, FANO_LINES),
        generate(GenSpec(family="sts", n=13)),
        generate(GenSpec(family="matching", n=12, k=3)),
    ]
    for _ in range(10):
        corpus.append(random_mixed(rng, 10, 14, rng.choice((3, 4))))
    checked = 0
    for h in corpus:
        assert h.n_vertices <= 14
        order = list(range(h.n_vertices))
        rng.shuffle(order)
        seen = []
        erdos_selfridge_2cut(h, order, on_step=lambda v, a, e: seen.append((a, e)))
        for assigned, expectation in seen:
            assert expectation == brute_expected_size(h, assigned, 2)
            checked += 1
    report(3, f"{checked} internal conditional expectations equal brute-force enumeration")


def back_map_checked(h, red, cut):
    """Map ``cut`` back; the returned metrics must be those of the returned cut."""
    back, metrics = red.back_map(cut)
    assert metrics == cut_metrics(h, back)


def test_criterion_4_reduction_certificates():
    rng = random.Random("acceptance-4")
    runs = 0

    # triangle expansion: 2z relation
    for h in (
        build(7, FANO_LINES),
        generate(GenSpec(family="sts", n=9)),
        generate(GenSpec(family="matching", n=12, k=3)),
    ):
        red = expand_3graph(h)
        for _ in range(20):
            back_map_checked(h, red, Cut(2, tuple(rng.choice((1, 2)) for _ in range(h.n_vertices))))
            runs += 1

    # subset expansion: z/2 relation
    for _ in range(25):
        n = rng.randint(5, 10)
        k = rng.choice((4, 5))
        h = build(n, [rng.sample(range(n), k) for _ in range(rng.randint(1, 10))])
        red = rgraph_expand(h, k - 1)
        back_map_checked(h, red, Cut(k - 1, tuple(rng.randint(1, k - 1) for _ in range(n))))
        runs += 1

    # partial exposures: same-size relation, both keep modes
    for _ in range(40):
        h = random_mixed(rng, 10, 14, 5)
        k = h.max_arity
        r = rng.randint(3, k)
        rho = {v: rng.randint(3, r) for v in range(h.n_vertices) if rng.random() < 0.4}
        back_map_checked(
            h,
            hpart_expose(h, r, rho, keep=2),
            Cut(2, tuple(rng.choice((1, 2)) for _ in range(h.n_vertices))),
        )
        runs += 1
        if k >= 4:
            r3 = rng.randint(4, k)
            rho3 = {v: rng.randint(4, r3) for v in range(h.n_vertices) if rng.random() < 0.4}
            back_map_checked(
                h,
                hpart_expose(h, r3, rho3, keep=3),
                Cut(3, tuple(rng.randint(1, 3) for _ in range(h.n_vertices))),
            )
            runs += 1

    # doubled exposure: averaging identity and excess transfer
    for _ in range(40):
        h = random_mixed(rng, 9, 12, 4)
        w = {v for v in range(h.n_vertices) if rng.random() < 0.6}
        rho = {v: rng.choice((1, 2)) for v in range(h.n_vertices) if v not in w}
        red = hpart_double(h, rho)
        back_map_checked(h, red, Cut(2, tuple(rng.choice((1, 2)) for _ in range(h.n_vertices))))
        runs += 1

    # weighted reduction: exact identity on 1000 random (h, V', omega) triples
    checked = 0
    while checked < 1000:
        h = random_mixed(rng, 10, 14, 6)
        vp = set(rng.sample(range(h.n_vertices), min(h.n_vertices, rng.randint(1, 4))))
        if any(sum(v in vp for v in e) > 2 for e in h.edges):
            continue
        wg = weighted_reduce(h, [vp])[0]
        omega = {v: rng.choice((1, 2)) for v in vp}
        weighted_identity_check([wg], [omega], partial_average_excesses(h, 2, [omega]))
        checked += 1
        runs += 1

    # third-part lift: (8/27) floor
    for _ in range(20):
        n = rng.randint(3, 9)
        h = build(n, [rng.sample(range(n), 3) for _ in range(rng.randint(1, 10))])
        c2 = Cut(2, tuple(rng.choice((1, 2)) for _ in range(n)))
        c3 = lift_2cut_to_3cut(h, c2)
        assert cut_metrics(h, c3).size >= Fraction(8, 27) * cut_metrics(h, c2).size
        runs += 1

    report(4, f"{runs} certified back-maps held their exact size relations")


def test_criterion_5_combination_guarantee():
    rng = random.Random("acceptance-5")
    done = 0
    while done < 200:
        h = random_mixed(rng, 12, 18, rng.choice((3, 4, 5)))
        vertices = list(range(h.n_vertices))
        rng.shuffle(vertices)
        t = rng.randint(1, min(4, h.n_vertices))
        parts = [set() for _ in range(t)]
        for v in vertices[: rng.randint(t, h.n_vertices)]:
            parts[rng.randrange(t)].add(v)
        parts = [p for p in parts if p]
        if not parts:
            continue
        index = {v: i for i, p in enumerate(parts) for v in p}
        keep = []
        for e in h.edges:
            from collections import Counter

            coll = sum(
                c - 1 for c in Counter(index[v] for v in e if v in index).values() if c >= 2
            )
            if coll <= 1:
                keep.append(list(e))
        if not keep:
            continue
        h2 = build(h.n_vertices, keep, max_arity=h.max_arity)
        partials = [{v: rng.choice((1, 2)) for v in p} for p in parts]
        _, plan = combine_partial_cuts(h2, partials)
        assert plan.realized_excess >= sum(plan.average_excesses)
        done += 1
    report(5, "200 random plans realized at least the sum of average excesses")


def _constraint_shapes(k, r):
    """All multisets of disjoint (size, level) constraints fitting in a k-edge."""
    shapes = [[]]
    def rec(prefix, remaining, min_size):
        for size in range(min_size, remaining + 1):
            for level in range(2, min(size, r) + 1):
                shape = prefix + [(size, level)]
                shapes.append(shape)
                rec(shape, remaining - size, size)
    rec([], k, 2)
    return shapes


def test_criterion_6_monotonicity_exhaustive():
    start = time.perf_counter()
    checked = 0
    for r in (2, 3, 4):
        for k in range(r, 6):
            h = build(k, [list(range(k))])
            edge = tuple(range(k))
            for shape in _constraint_shapes(k, r):
                constraints = []
                used = 0
                for size, level in shape:
                    constraints.append((tuple(range(used, used + size)), level))
                    used += size
                res = monotonicity_check(h, r, edge, constraints)
                if constraints:
                    assert res.verdict == "STRICT", (r, k, shape, res)
                else:
                    assert res.verdict == "PASS" and res.conditional == res.base
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(6, f"{checked} constraint shapes all PASS/STRICT in {elapsed:.2f}s")


def test_criterion_7_equitable_complete_cuts():
    for n, k, r in [(8, 3, 2), (8, 4, 2), (10, 3, 2), (9, 3, 3)]:
        h = generate(GenSpec(family="complete", n=n, k=k))
        value, _ = exact_maxcut(h, r)
        assert equitable_complete_value(n, k, r) == value, (n, k, r)
    report(7, "equitable cut formula matches the exact oracle on all four complete graphs")


def test_criterion_8_pipeline_validity_and_scaling():
    start = time.perf_counter()
    sizes = list(range(9, 100, 6))
    slopes = []
    for seed in range(5):
        points = []
        for n in sizes:
            h = generate(GenSpec(family="sts", n=n))
            cut, ledger = solve(h, 3, PipelineParams(seed=seed))
            excess = cut_metrics(h, cut).excess
            assert excess > 0, f"nonpositive excess at n={n}, seed={seed}"
            assert not ledger.violations(), f"ledger violation at n={n}, seed={seed}"
            points.append((math.log(h.m), math.log(float(excess))))
        xbar = sum(x for x, _ in points) / len(points)
        ybar = sum(y for _, y in points) / len(points)
        slope = sum((x - xbar) * (y - ybar) for x, y in points) / sum(
            (x - xbar) ** 2 for x, _ in points
        )
        slopes.append(slope)
        assert slope >= 0.45, f"gating slope failed: {slope:.4f} at seed {seed}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    advisory = "" if min(slopes) >= 0.50 else " (below the 0.50 advisory target)"
    report(
        8,
        f"slopes {['%.3f' % s for s in slopes]} >= 0.45 gating{advisory}, {elapsed:.1f}s",
    )


def test_criterion_9_moment_audits():
    rng = random.Random("acceptance-9")
    done = 0
    while done < 50:
        k = rng.choice((4, 5, 6))
        g = rng.randint(1, 12)
        # u=0, v=1 inside W; all other edge vertices stay outside W so each
        # edge contributes a 2^(2-2) * one-sided indicator term
        pool = list(range(2, 2 + 3 * (k - 2)))
        edges = []
        for _ in range(g):
            outside = rng.sample(pool, k - 2)
            edges.append([0, 1] + outside)
        h = build(2 + len(pool), edges, max_arity=k)
        res = moment_audit(h, {0, 1}, (0, 1), samples=100_000, seed=done)
        assert res.verdict == "PASS", (k, g, res)
        assert res.kurtosis <= 9.0 ** (k - 2) * 1.1
        assert res.variance >= res.g_uv / 16
        done += 1
    report(9, "50 seeded configurations met the kurtosis and variance slacks")


# fitted once over this exact seeded corpus (max ratio 0.122) and frozen
UPPER_BOUND_C = 0.20


def test_criterion_10_random_upper_bound_sanity():
    for n in range(12, 17):
        for seed in range(3):
            h = generate(GenSpec(family="random", n=n, k=4, p=n**-1.0, seed=seed))
            if h.m == 0:
                continue
            best = Fraction(0)
            for r in (2, 3, 4):
                cut, _ = solve(h, r, PipelineParams(trials=8, retry_budget=12, seed=seed))
                best = max(best, cut_metrics(h, cut).excess)
            assert best <= UPPER_BOUND_C * n * n, (n, seed, float(best))
    report(10, f"best-found excess stayed below {UPPER_BOUND_C} * n^2 on the frozen corpus")
