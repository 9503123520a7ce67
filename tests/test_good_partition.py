"""The good-partition search on row masks of the instance.

``goodness_audit`` reads the sub-hypergraph as a boolean mask over the
rows of h, and ``good_partition_search`` audits each sample once.  Both
must give exactly what the audit and the two-audit search on a separate
sub-instance gave (kept in ``conftest``).  Small instances never reach
the deletion branch (y/2 < 1 allows no violation), so STS(201) cases pin
it.
"""

import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hypercut.pipeline as pipeline
from hypercut.core import build, induce
from hypercut.errors import InvalidParams, SearchFailed
from hypercut.instances import GenSpec, generate
from hypercut.pipeline import PipelineParams, derive_params, good_partition_search, goodness_audit

from conftest import plain_good_partition_search, plain_goodness_audit
from test_state_codes import instances


def outcome(search, *args):
    """The search's ``GoodPartition``, or its ``SearchFailed`` message."""
    try:
        return search(*args)
    except SearchFailed as exc:
        return f"SearchFailed: {exc}"


def sub_instance(h, rows):
    return build(h.n_vertices, [e for e, kept in zip(h.edges, rows) if kept], max_arity=h.max_arity)


@pytest.fixture(scope="module")
def sts201():
    return generate(GenSpec(family="sts", n=201))


def audits_match_the_oracle(instance_strategy, part_counts) -> list:
    """Run the audit against the sub-instance oracle on 200 drawn cases and
    return each report, after asserting that the two agree on every one."""
    reports = []

    @settings(max_examples=200, deadline=None)
    @given(instance_strategy, st.data())
    def check(h, data):
        n, t = h.n_vertices, data.draw(part_counts)
        # part -1 leaves a vertex outside the partitioned set S
        labels = data.draw(st.lists(st.integers(-1, t - 1), min_size=n, max_size=n))
        parts = [{v for v in range(n) if labels[v] == i} for i in range(t)]
        rows = np.array(data.draw(st.lists(st.booleans(), min_size=h.m, max_size=h.m)), dtype=bool)
        want = plain_goodness_audit(h, sub_instance(h, rows), parts, set().union(*parts))
        assert goodness_audit(h, rows, parts) == want
        reports.append(want)

    check()
    return reports


def test_audit_matches_the_sub_instance_oracle():
    # mixed instances, 1 to 5 parts
    audits_match_the_oracle(instances(), st.integers(1, 5))
    # dense instances split into 1 or 2 parts, where edges collide inside
    # parts, so (iii) and (iv) find violations
    reports = audits_match_the_oracle(instances(dense=True), st.integers(1, 2))
    assert any(r.violations_spread for r in reports)
    assert any(r.violations_witness for r in reports)


def test_audit_rejects_a_mask_of_the_wrong_length(matching12):
    with pytest.raises(InvalidParams, match="one flag per edge"):
        goodness_audit(matching12, [True] * 3, [range(12)])


@pytest.mark.parametrize("vertex", [-1, 12, 13])
def test_audit_rejects_a_part_vertex_outside_the_instance(matching12, vertex):
    # -1 would otherwise read the label of the padding vertex n
    with pytest.raises(InvalidParams, match=f"^goodness_audit part vertex {vertex} outside the instance \\(n=12\\)$"):
        goodness_audit(matching12, [True] * 4, [{0, 1}, {2, vertex}])


def test_audit_rejects_overlapping_parts(matching12):
    # the later part used to win the shared vertex silently
    with pytest.raises(InvalidParams, match="^goodness_audit parts must be disjoint$"):
        goodness_audit(matching12, [True] * 4, [{0, 1, 3}, {3, 4}])


@settings(max_examples=200, deadline=None)
@given(instances(), st.sampled_from(["all", "inside", "size>=4"]), st.data())
def test_search_matches_the_two_audit_oracle(h, mask, data):
    n = h.n_vertices
    params = PipelineParams(retry_budget=data.draw(st.integers(1, 8)), seed=data.draw(st.integers(0, 99)))
    if mask == "all":
        rows, h_sub, vertex_set = np.ones(h.m, dtype=bool), h, range(n)
    elif mask == "inside":
        vertex_set = set(data.draw(st.lists(st.integers(0, n - 1), unique=True)))
        rows, h_sub = h.inside_rows(vertex_set), induce(h, vertex_set)
    else:
        rows, vertex_set = h.edge_sizes >= 4, range(n)
        h_sub = sub_instance(h, rows)
    got = outcome(good_partition_search, h, rows, vertex_set, params)
    assert got == outcome(plain_good_partition_search, h, h_sub, vertex_set, params)


@pytest.mark.parametrize("seed", [0, 1, 3, 4])
def test_search_deletes_an_edge_and_matches_the_oracle_on_sts201(sts201, seed):
    h, params = sts201, PipelineParams(seed=seed)
    all_rows = np.ones(h.m, dtype=bool)
    gp = good_partition_search(h, all_rows, range(201), params)
    assert len(gp.deleted_edges) == 1
    assert gp == plain_good_partition_search(h, h, range(201), params)
    # the deleted row lies in the mask, so its within-part pairs are subtracted
    where = {v: i for i, p in enumerate(gp.parts) for v in p}
    (deleted,) = gp.deleted_edges
    lost = sum(1 for u, v in combinations(h.edges[deleted], 2) if where[u] == where[v])
    assert lost > 0
    assert gp.m_prime == goodness_audit(h, all_rows, gp.parts).within_pair_edges - lost
    # and the deletion leaves nothing for a second audit to find
    hd = h.without_edges({deleted})
    post = goodness_audit(hd, np.ones(hd.m, dtype=bool), gp.parts)
    assert (post.violations_spread, post.violations_witness) == ((), ())
    assert post.within_pair_edges == gp.m_prime >= gp.m_target


def test_search_deletes_a_row_outside_the_mask_on_sts201(sts201):
    h, params = sts201, PipelineParams(seed=0)
    (deleted,) = good_partition_search(h, np.ones(h.m, dtype=bool), range(201), params).deleted_edges
    through = (h.edge_array == h.edges[deleted][0]).any(axis=1)  # the edges through one of its vertices
    gp = good_partition_search(h, ~through, range(201), params)
    assert gp.deleted_edges == (deleted,)
    h_sub = h.without_edges(set(np.flatnonzero(through).tolist()))
    assert gp == plain_good_partition_search(h, h_sub, range(201), params)
    # a deleted row outside the mask takes nothing from the pair count
    assert gp.m_prime == goodness_audit(h, ~through, gp.parts).within_pair_edges


def drawn_samples(h, vertex_set, params):
    """Every partition the search can draw, in order, replayed from its rng."""
    t = derive_params(h.m).t
    rng = random.Random(f"good-partition:{params.seed}")
    for _ in range(params.retry_budget):
        parts = [set() for _ in range(t)]
        for v in sorted(vertex_set):
            parts[rng.randrange(t)].add(v)
        yield parts


@pytest.mark.parametrize(
    "case",
    [
        pytest.param((None, PipelineParams(seed=0)), id="sts201-deletes-an-edge"),
        pytest.param((build(3, [[0, 1, 2]] * 20), PipelineParams(retry_budget=3, seed=1)), id="fails"),
    ],
)
def test_one_audit_per_sample(sts201, monkeypatch, case):
    h, params = case
    h = h or sts201
    audited = []
    audit = pipeline.goodness_audit

    def counting_audit(h, sub_rows, partition):
        audited.append(partition)
        return audit(h, sub_rows, partition)

    monkeypatch.setattr(pipeline, "goodness_audit", counting_audit)
    gp = outcome(good_partition_search, h, np.ones(h.m, dtype=bool), range(h.n_vertices), params)
    samples = list(drawn_samples(h, range(h.n_vertices), params))
    if isinstance(gp, str):
        assert audited == samples
    else:
        assert audited == samples[: len(audited)]
        assert tuple(map(frozenset, audited[-1])) == gp.parts
