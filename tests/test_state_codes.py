"""The vertex-by-vertex engines on tallies of per-edge state codes.

``erdos_selfridge_2cut``, ``conditional_rcut``, ``point_local_search`` and
``lift_2cut_to_3cut`` must give exactly what their per-edge loops gave
(kept in ``conftest``): the same cut, the same ledger and the same
``on_step`` calls.  The uniform law's codes must carry r times the
``plain_multicolour_table`` entries, their certificates must still catch a
wrong size, and a large r must stay cheap.
"""

import gc
import random
import time
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from hypercut import derand, reductions
from hypercut.cli import main
from hypercut.core import build
from hypercut.cutspace import Cut, cut_metrics
from hypercut.derand import (
    _law_codes,
    _law_tables,
    combine_partial_cuts,
    conditional_rcut,
    erdos_selfridge_2cut,
    point_local_search,
)
from hypercut.errors import CertificateError
from hypercut.hgio import serialize
from hypercut.instances import GenSpec, generate
from hypercut.reductions import lift_2cut_to_3cut

from conftest import (
    plain_conditional_rcut,
    plain_erdos_selfridge_2cut,
    plain_lift_2cut_to_3cut,
    plain_multicolour_table,
    plain_point_local_search,
)


@st.composite
def instances(draw, sizes=None, dense=None):
    """Mixed-size instances with repeated edges, n <= 14 and m <= 120.

    A dense one holds every s-subset of its vertices, so every pair shares
    edges (and deferred partners and multi-move sweeps happen), plus
    random extra edges.  ``sizes`` fixes the edge size; ``dense``, when
    given, fixes whether the instance is dense.
    """
    if dense is None:
        dense = draw(st.booleans())
    if dense:
        s = draw(st.sampled_from(sizes or (2, 3)))
        n = draw(st.integers(s, 14 if s == 2 else 9))  # at most 91 or 84 edges
        edges = [list(c) for c in combinations(range(n), s)]
    else:
        n = draw(st.integers(max(sizes or (1,)), 14))
        edges = []
    sized = st.sampled_from(sizes) if sizes else st.integers(1, min(n, 6))
    size_list = draw(st.lists(sized, max_size=min(40, 110 - len(edges))))
    edges += [draw(st.lists(st.integers(0, n - 1), min_size=s, max_size=s, unique=True)) for s in size_list]
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=10))
    return build(n, edges)


def parts_of(draw, h) -> int:
    """r from 2 to min(k, 5), k the widest edge (2 when every edge is smaller)."""
    return draw(st.integers(2, max(2, min(h.edge_array.shape[1], 5))))


# a deferred partner shares an edge with v on which another part is already hit
PARTNER_ON_A_HIT_EDGE = (
    build(6, [[0, 1, 2, 3, 5], [0, 1], [0, 2, 5], [1, 3, 5], [0, 1, 2, 3, 5], [0, 1, 2, 3, 4],
              [0, 1, 2, 3], [0, 1, 3, 4, 5], [0, 2, 3, 4], [2, 3, 4], [1]]),
    [0, 4, 3, 5, 2, 1],
)

# at v = 2 the engine decides both deferred partners, 1 and 4, in one step
TWO_PARTNERS_IN_ONE_STEP = (
    build(5, [[2, 1], [3, 0, 4, 2], [1, 0, 2], [3, 4], [1, 3, 0, 2], [4, 2, 3]]),
    [4, 1, 2, 0, 3],
)


@settings(max_examples=200, deadline=None)
@given(instances().flatmap(lambda h: st.tuples(st.just(h), st.permutations(range(h.n_vertices)))))
@example(PARTNER_ON_A_HIT_EDGE)
@example(TWO_PARTNERS_IN_ONE_STEP)
def test_es_matches_plain_loop(instance):
    h, order = instance
    steps, plain_steps = [], []
    got = erdos_selfridge_2cut(h, order, on_step=lambda *a: steps.append(a))
    want = plain_erdos_selfridge_2cut(h, order, on_step=lambda *a: plain_steps.append(a))
    assert got == want  # the cut and the whole EsLedger
    assert steps == plain_steps


@settings(max_examples=200, deadline=None)
@given(instances(), st.data())
def test_conditional_rcut_matches_plain_loop(h, data):
    r = parts_of(data.draw, h)
    order = data.draw(st.none() | st.permutations(range(h.n_vertices)))
    assert conditional_rcut(h, r, order) == plain_conditional_rcut(h, r, order)


@settings(max_examples=200, deadline=None)
@given(instances(), st.data())
def test_point_local_search_matches_plain_loop(h, data):
    r = parts_of(data.draw, h)
    n = h.n_vertices
    start = Cut(r, tuple(data.draw(st.lists(st.integers(1, r), min_size=n, max_size=n))))
    assert point_local_search(h, start) == plain_point_local_search(h, start)


@settings(max_examples=200, deadline=None)
@given(instances(sizes=(3,)), st.data())
def test_lift_matches_plain_loop(h, data):
    n = h.n_vertices
    c2 = Cut(2, tuple(data.draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))))
    assert lift_2cut_to_3cut(h, c2) == plain_lift_2cut_to_3cut(h, c2)


# ------------------------------------------------------------ the builder


@pytest.mark.parametrize("r, k", [(r, k) for k in range(2, 7) for r in range(2, k + 1)])
def test_uniform_law_codes_match_the_multicolour_table(r, k):
    # every code an edge of at most k vertices can reach: a hit part needs a decided vertex
    _law_codes.cache_clear()
    codes = _law_codes(((1,) * r,), k, 9)[0]
    assert codes.steps == [{}] * r  # a code's steps are filed as its packed gains are built
    table, scale = plain_multicolour_table(r, k), r**k
    for mask in range(1 << r):
        for free in range(k + 1 - mask.bit_count()):
            code = mask * (k + 1) + free
            value = codes[code]
            assert value == r * table[r - mask.bit_count()][free]
            assert not any(code in filed for filed in codes.steps)  # reading a value files no step
            packed = codes.packed[code]
            if not free:  # no vertex left to join a part: nothing packed, no step filed
                assert packed == 0 and not any(code in filed for filed in codes.steps)
                continue
            nexts = [codes.steps[p][code] for p in range(r)]
            assert nexts == [(mask | 1 << p) * (k + 1) + free - 1 for p in range(r)]
            # one code's packed gains: each gain plus the scale, and the first largest
            gains = [(packed >> shift & (1 << codes.width) - 1) - scale for shift in codes.shifts]
            assert gains == [codes[nxt] - value for nxt in nexts]
            assert codes.best(packed) == (gains.index(max(gains)), max(gains) + scale)


# ------------------------------------------------------------ certificates


def inflate(monkeypatch, module, when=lambda cut: True):
    """``module.cut_metrics`` reports one edge more than the cut has, when ``when(cut)``."""

    def off_by_one(h, cut):
        metrics = cut_metrics(h, cut)
        return replace(metrics, size=metrics.size + 1) if when(cut) else metrics

    monkeypatch.setattr(module, "cut_metrics", off_by_one)


def fano():
    return build(7, [[0, 1, 2], [0, 3, 4], [0, 5, 6], [1, 3, 5], [1, 4, 6], [2, 3, 6], [2, 4, 5]])


@pytest.mark.parametrize(
    "run, message",
    [
        (lambda h: erdos_selfridge_2cut(h, range(7)), "realized size differs from final conditional expectation"),
        (lambda h: conditional_rcut(h, 3), "conditional r-cut bookkeeping mismatch"),
        (
            lambda h: combine_partial_cuts(h, [{0: 1, 1: 2}]),
            "combined realized size differs from final expectation",
        ),
    ],
)
def test_derand_certificates_catch_a_wrong_size(monkeypatch, run, message):
    inflate(monkeypatch, derand)
    with pytest.raises(CertificateError, match=message):
        run(fano())


@pytest.mark.parametrize(
    "inflated, message",
    [(2, "initial lift expectation != \\(8/27\\) \\* 2-cut size"), (3, "lift bookkeeping mismatch")],
)
def test_lift_certificates_catch_a_wrong_size(monkeypatch, inflated, message):
    inflate(monkeypatch, reductions, when=lambda cut: cut.r == inflated)
    with pytest.raises(CertificateError, match=message):
        lift_2cut_to_3cut(fano(), Cut(2, (1, 2, 1, 2, 1, 2, 1)))


@pytest.mark.parametrize(
    "module, r, message",
    [
        (derand, "2", "realized size differs from final conditional expectation"),
        (reductions, "3", "lift bookkeeping mismatch"),
    ],
)
def test_engine_certificates_exit_2_through_cut(tmp_path, capsys, monkeypatch, module, r, message):
    # --algo es runs the deferred engine, and at r=3 its lift; the lift's own 2-cut reads right
    inflate(monkeypatch, module, when=lambda cut: cut.r == int(r))
    path = tmp_path / "s9.hg"
    path.write_text(serialize(generate(GenSpec(family="sts", n=9))))
    code = main(["cut", str(path), "--algo", "es", "--r", r])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: CertificateError: {message}")


# ------------------------------------------------------------- large r


def test_large_r_stays_cheap():
    # r = k = 16: a table over all 2^16 hit masks would dominate here
    rng = random.Random(16)
    h = build(24, [rng.sample(range(24), 16) for _ in range(20)])
    start = time.perf_counter()
    cut = conditional_rcut(h, 16)
    moved = point_local_search(h, cut)
    assert time.perf_counter() - start < 2
    assert cut == plain_conditional_rcut(h, 16)
    assert moved == plain_point_local_search(h, cut)
    assert cut_metrics(h, moved).size >= cut_metrics(h, cut).size


def test_law_tables_drop_a_table_past_the_cap_by_its_packed_entries():
    # r = k = 16 fills few values but thousands of packed gains, each filing 16
    # next codes: only the filed steps take one cut's table past the cap
    rng = random.Random(16)
    h = build(60, [rng.sample(range(60), 16) for _ in range(300)])
    laws = ((1,) * 16,)
    _law_codes.cache_clear()
    tables = _law_tables(h, laws, 16)
    conditional_rcut(h, 16)
    (table,) = tables
    steps = sum(map(len, table.steps))
    assert steps == 16 * len(table.packed)
    assert len(table) + len(table.packed) <= 1 << 12 < len(table) + len(table.packed) + steps
    assert _law_tables(h, laws, 16) is not tables


def test_law_tables_keep_no_large_table_past_the_next_call():
    # each r fills its own table with thousands of packed entries, r next codes each;
    # the next call drops the last one whatever law it asks for
    rng = random.Random(16)
    h = build(60, [rng.sample(range(60), 16) for _ in range(300)])
    _law_codes.cache_clear()
    for r in (16, 15, 14):
        conditional_rcut(h, r)
    conditional_rcut(generate(GenSpec(family="sts", n=9)), 2)
    gc.collect()
    live = [obj for obj in gc.get_objects() if isinstance(obj, derand._LawTable)]
    assert live  # STS(9)'s 2-part table
    for table in live:
        assert len(table) + len(table.packed) + sum(map(len, table.steps)) <= 1 << 12
