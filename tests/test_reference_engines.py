"""Differential tests against slow literal reference implementations.

The production engines exploit structural factorizations; these
references enumerate joint assignments directly, so agreement checks the
factorizations themselves.
"""

import random
from fractions import Fraction
from itertools import product

from hypercut.core import build
from hypercut.cutspace import Cut, cut_metrics
from hypercut.derand import combine_partial_cuts, conditional_rcut, erdos_selfridge_2cut
from hypercut.instances import GenSpec, exact_maxcut, generate
from hypercut.pipeline import goodness_audit

from conftest import brute_expected_size
from test_derand import random_mixed


def reference_deferred_engine(h, order):
    """Literal joint enumeration over all assignments of U + {v} per step.

    Maximizers are scanned with the current vertex's part first, then the
    deferred partners in ascending id (part 1 before part 2), so the
    fixed parts agree with the production tie rule.
    """
    n = h.n_vertices
    part = {}
    deferred = []
    trace = [brute_expected_size(h, part, 2)]

    def edge_prob(e, fixed):
        hit = {fixed[v] for v in e if v in fixed}
        free = sum(1 for v in e if v not in fixed)
        if len(hit) == 2:
            return Fraction(1)
        if len(hit) == 1:
            return 1 - Fraction(1, 2**free) if free else Fraction(0)
        return 1 - Fraction(2, 2**free) if free >= 2 else Fraction(0)

    for v in order:
        u_list = sorted(deferred)
        u_v = set()
        for e in h.edges:
            p = edge_prob(e, part)
            if 0 < p < 1 and v in e:
                u_v.update(u for u in e if u in deferred)
        ez = brute_expected_size(h, part, 2)
        best = None
        for assign in product((1, 2), repeat=len(u_list) + 1):
            trial = dict(part)
            trial[v] = assign[0]
            for u, c in zip(u_list, assign[1:]):
                trial[u] = c
            val = brute_expected_size(h, trial, 2)
            if best is None or val > best[0]:
                best = (val, assign)
        if best[0] == ez:
            deferred.append(v)
        else:
            assign = best[1]
            part[v] = assign[0]
            for u, c in zip(u_list, assign[1:]):
                if u in u_v:
                    part[u] = c
                    deferred.remove(u)
        trace.append(brute_expected_size(h, part, 2))
    for u in deferred:
        part[u] = 1
    cut = Cut(2, tuple(part[v] for v in range(n)))
    return cut, trace


def test_deferred_engine_matches_literal_enumeration():
    rng = random.Random("reference-es")
    for _ in range(25):
        h = random_mixed(rng, n_hi=8, m_hi=10, k_hi=4)
        order = list(range(h.n_vertices))
        rng.shuffle(order)
        ref_cut, ref_trace = reference_deferred_engine(h, order)
        trace = []
        cut, _ = erdos_selfridge_2cut(h, order, on_step=lambda v, a, e: trace.append(e))
        assert trace == ref_trace
        assert cut == ref_cut


def reference_conditional_rcut(h, r, order):
    """Each vertex in turn takes the part of largest enumerated average size.

    Ties go to the smallest part.
    """
    fixed = {}
    for v in order:
        best = None
        for p in range(1, r + 1):
            val = brute_expected_size(h, {**fixed, v: p}, r)
            if best is None or val > best[0]:
                best = (val, p)
        fixed[v] = best[1]
    return Cut(r, tuple(fixed[v] for v in range(h.n_vertices)))


def test_conditional_rcut_matches_literal_enumeration():
    rng = random.Random("reference-rcut")
    for r in (2, 3, 4):
        for _ in range(12):
            h = random_mixed(rng, n_hi=7, m_hi=10, k_hi=5)
            order = list(range(h.n_vertices))
            rng.shuffle(order)
            assert conditional_rcut(h, r, order) == reference_conditional_rcut(h, r, order)


def test_combine_expectation_matches_joint_enumeration():
    """Average over all joint swaps equals base + sum of average excesses."""
    rng = random.Random("reference-combine")
    for _ in range(15):
        h = random_mixed(rng, n_hi=7, m_hi=8, k_hi=3)
        vertices = list(range(h.n_vertices))
        rng.shuffle(vertices)
        t = rng.randint(1, min(2, h.n_vertices))
        parts = [set(vertices[i::t]) for i in range(t)]
        index = {v: i for i, p in enumerate(parts) for v in p}
        keep = []
        for e in h.edges:
            from collections import Counter

            coll = sum(
                c - 1
                for c in Counter(index[v] for v in e if v in index).values()
                if c >= 2
            )
            if coll <= 1:
                keep.append(list(e))
        if not keep:
            continue
        h2 = build(h.n_vertices, keep, max_arity=h.max_arity)
        partials = [{v: rng.choice((1, 2)) for v in p} for p in parts]
        _, plan = combine_partial_cuts(h2, partials)

        # literal joint enumeration: every block independently kept/flipped
        blocks = [(p, dict(pc)) for p, pc in zip(parts, partials)]
        covered = set().union(*parts)
        for v in range(h2.n_vertices):
            if v not in covered:
                blocks.append(({v}, {v: 1}))
        total = Fraction(0)
        count = 0
        for flips in product((0, 1), repeat=len(blocks)):
            assign = [1] * h2.n_vertices
            for (vs, pc), s in zip(blocks, flips):
                for v in vs:
                    assign[v] = pc[v] if s == 0 else 3 - pc[v]
            total += cut_metrics(h2, Cut(2, tuple(assign))).size
            count += 1
        joint_mean_excess = total / count - cut_metrics(
            h2, Cut(2, tuple(1 for _ in range(h2.n_vertices)))
        ).expected
        assert joint_mean_excess == sum(plan.average_excesses)
        assert plan.realized_excess >= joint_mean_excess


def test_goodness_audit_full_recount_sts9():
    h = generate(GenSpec(family="sts", n=9))
    rng = random.Random(33)
    for _ in range(5):
        parts = [set(), set(), set()]
        for v in range(9):
            parts[rng.randrange(3)].add(v)
        rep = goodness_audit(h, [True] * h.m, parts)
        where = {v: i for i, p in enumerate(parts) for v in p}

        within = 0
        for e in h.edges:
            for i in range(3):
                c = sum(1 for v in e if where[v] == i)
                within += c * (c - 1) // 2
        assert rep.within_pair_edges == within

        deg = {}
        for e in h.edges:
            for v in e:
                deg[v] = deg.get(v, 0) + sum(
                    1 for u in e if u != v and where[u] == where[v]
                )
        assert rep.max_within_degree == max(deg.values())

        spread = [
            i
            for i, e in enumerate(h.edges)
            if len({where[v] for v in e}) < len(e) - 1
        ]
        assert list(rep.violations_spread) == spread

        witness = set()
        for i in range(h.m):
            for j in range(i + 1, h.m):
                e1, e2 = h.edges[i], h.edges[j]
                for pi in range(3):
                    in1 = {v for v in e1 if where[v] == pi}
                    in2 = {v for v in e2 if where[v] == pi}
                    if len(in1) >= 2 and len(in2) >= 2 and len(in1 | in2) >= 3:
                        if any(
                            w in e1 and w in e2 and where[w] != pi
                            for w in range(9)
                        ):
                            witness.add((i, j))
        assert set(rep.violations_witness) == witness


def test_sts_tightness_against_oracle():
    # the closed-form 2-cut maximum for Steiner systems at two more sizes
    for n in (13, 15):
        h = generate(GenSpec(family="sts", n=n))
        value, _ = exact_maxcut(h, 2)
        expected = Fraction(3, 4) * h.m
        assert Fraction(value) == expected + Fraction(n - 1, 8)
