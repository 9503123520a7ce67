from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hypercut.cli import _run_algorithm, _sweep_instance, experiment_sweep, main
from hypercut.core import build
from hypercut.cutspace import cut_metrics
from hypercut.derand import order_for_W
from hypercut.hgio import parse, serialize
from hypercut.instances import GenSpec, generate
from hypercut.pipeline import greedy_route
from hypercut.errors import (
    CertificateError,
    GuaranteeViolation,
    HypercutError,
    InvalidParams,
)

from conftest import FANO_LINES
from test_pipeline import break_exposure_transfer, break_weighted_graph, inflate_transfer


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- file format


def test_round_trip_simple():
    h = build(5, [[0, 1, 2], [2, 3], [2, 3]], max_arity=4)
    assert parse(serialize(h)) == h


def test_round_trip_corpus():
    for spec in [
        GenSpec(family="sts", n=13),
        GenSpec(family="matching", n=12, k=3),
        GenSpec(family="random", n=10, k=4, p=0.3, seed=5),
    ]:
        h = generate(spec)
        assert parse(serialize(h)) == h


def test_parse_comments_and_errors():
    text = "# a comment\nhg 1 3 4 1\n0 1 2\n"
    h = parse(text)
    assert h.m == 1
    with pytest.raises(InvalidParams):
        parse("hg 2 3 4 1\n0 1 2\n")
    with pytest.raises(InvalidParams):
        parse("hg 1 3 4 2\n0 1 2\n")


def test_parse_rejects_negative_arity():
    with pytest.raises(InvalidParams, match="max_arity"):
        parse("hg 1 -1 3 0\n")


_WILD = st.one_of(
    st.integers(-3, -1).map(str),
    st.integers(10**18, 10**30).map(str),
    st.sampled_from(["", "x", "1.5", "0x3", "+2", "--1", "1e3", "nan", "9" * 5000]),
)

_RARELY = st.sampled_from([False] * 15 + [True])


@st.composite
def instance_texts(draw):
    """Instance files that are valid, or wrong in a field, a count or an id."""

    def field(valid: str) -> str:
        return draw(_WILD) if draw(_RARELY) else valid

    n = draw(st.integers(1, 9))
    # id n is out of range; a repeated first id makes a duplicate inside an edge
    ids = st.lists(st.integers(0, n), min_size=1, max_size=5, unique=True)
    edges = [e + e[:1] * draw(_RARELY) for e in draw(st.lists(ids, max_size=6))]
    lines = [" ".join(field(str(v)) for v in e) for e in edges]
    for _ in range(draw(st.integers(0, 3))):
        filler = draw(st.sampled_from(["", "   ", "# comment", "#", "  # 1 2"]))
        lines.insert(draw(st.integers(0, len(lines))), filler)
    head = [field("hg"), field("1"), field("5"), field(str(n)), field(str(len(edges)))]
    if draw(_RARELY):
        head.pop()
    return "\n".join([" ".join(head), *lines]) + "\n"


@settings(max_examples=300, deadline=None)
@given(instance_texts())
def test_parse_round_trips_or_raises_input_error(text):
    try:
        h = parse(text)
    except HypercutError as exc:
        assert not isinstance(exc, (CertificateError, GuaranteeViolation))
        return
    assert parse(serialize(h)) == h


# ------------------------------------------------------------- commands


def test_gen_exact_round(tmp_path, capsys):
    path = tmp_path / "s9.hg"
    code, _, _ = run(capsys, "gen", "--family", "sts", "--n", "9", "-o", str(path))
    assert code == 0
    code, out, _ = run(capsys, "exact", str(path), "--r", "2")
    assert code == 0
    assert out.strip() == "10"


def test_cut_es_reports_guarantee(tmp_path, capsys):
    path = tmp_path / "s9.hg"
    run(capsys, "gen", "--family", "sts", "--n", "9", "-o", str(path))
    code, out, _ = run(capsys, "cut", str(path), "--algo", "es", "--r", "2", "--seed", "7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "instance n=9 m=12 k=3"
    size = int(lines[2].split()[0].split("=")[1])
    guarantee_line = next(ln for ln in lines if ln.startswith("guarantee"))
    promised = Fraction(guarantee_line.split("promised=")[1].split()[0])
    excess = Fraction(lines[2].split("excess=")[1])
    assert excess >= promised
    assert "status=ok" in guarantee_line
    assert size >= 9


def test_cut_deterministic_output(tmp_path, capsys):
    path = tmp_path / "inst.hg"
    run(capsys, "gen", "--family", "sts", "--n", "13", "-o", str(path))
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "cut", str(path), "--algo", "auto", "--r", "3", "--seed", "3")
        assert code == 0
        outs.append("\n".join(ln for ln in out.splitlines() if not ln.startswith("runtime")))
    assert outs[0] == outs[1]


def test_bounds_sts9(tmp_path, capsys):
    path = tmp_path / "s9.hg"
    run(capsys, "gen", "--family", "sts", "--n", "9", "-o", str(path))
    code, out, _ = run(capsys, "bounds", str(path), "--r", "2")
    assert code == 0
    sts_line = next(ln for ln in out.splitlines() if ln.startswith("sts-2cut"))
    assert sts_line.split()[1] == "1"


_MIXED_2CUT_N = "a mixed k-multigraph with n vertices in edges of size >= 3 has a 2-cut with excess >= n/(k*2^(k-1))"
_MIXED_K_EDGES = "a mixed k-multigraph with n vertices in size-k edges has a 2-cut with excess >= n/(k*2^k)"
_MIXED = [[0, 1], [1, 2, 3], [2, 3, 4, 5], [0, 4, 6], [5, 6]]  # vertex 7 is isolated


@pytest.mark.parametrize(
    "n, edges, max_arity, lines",
    [
        pytest.param(8, _MIXED, 4, [
            f"mixed-2cut-n 7/32  # {_MIXED_2CUT_N}",
            f"mixed-k-edges 1/16  # {_MIXED_K_EDGES}",
        ], id="mixed-sizes-2-to-4"),
        pytest.param(8, _MIXED, 5, [
            f"mixed-2cut-n 7/32  # {_MIXED_2CUT_N}",
            f"mixed-k-edges 0  # {_MIXED_K_EDGES}",
        ], id="mixed-declared-arity-5"),
        pytest.param(5, [[0, 1], [1, 2], [2, 3]], None, [
            "graph-2cut-m 1/2  # every m-edge multigraph has a 2-cut with excess >= (sqrt(8m+1)-1)/8",
        ], id="graph-with-isolated-vertex"),
        pytest.param(4, [[0, 1], [1, 2], [2, 3]], None, [
            "graph-2cut-m 1/2  # every m-edge multigraph has a 2-cut with excess >= (sqrt(8m+1)-1)/8",
            "connected-graph 3/4  # every connected n-vertex graph has a 2-cut with excess >= (n-1)/4",
            "nonisolated-graph 2/3  # every graph without isolated vertices has a 2-cut with excess >= n/6",
        ], id="path"),
        pytest.param(7, [[0, 1, 2], [2, 3, 4], [1, 3, 5]], None, [
            "sts-2cut 0.47150023408234565  # every m-edge 3-graph has a 2-cut with excess >= (sqrt(24m+1)-1)/16",
            f"mixed-2cut-n 1/2  # {_MIXED_2CUT_N}",
            f"mixed-k-edges 1/4  # {_MIXED_K_EDGES}",
        ], id="3-graph-with-isolated-vertex"),
        pytest.param(3, [], 3, [], id="edgeless"),
    ],
)
def test_bounds_prints_the_applicable_lines(tmp_path, capsys, n, edges, max_arity, lines):
    path = tmp_path / "h.hg"
    path.write_text(serialize(build(n, edges, max_arity=max_arity)))
    code, out, _ = run(capsys, "bounds", str(path), "--r", "2")
    assert (code, out.splitlines()) == (0, lines)


def test_check_monotonicity(tmp_path, capsys):
    path = tmp_path / "one.hg"
    path.write_text("hg 1 3 3 1\n0 1 2\n")
    code, out, _ = run(
        capsys,
        "check", str(path), "--kind", "monotonicity", "--r", "2",
        "--edge", "0,1,2", "--constraint", "0,1:2",
    )
    assert code == 0
    assert "verdict=STRICT" in out


_CHECK = ("check", "{inst}")
_MONO = (*_CHECK, "--kind", "monotonicity", "--r", "3")


@pytest.mark.parametrize(
    "argv, error",
    [
        pytest.param((*_MONO, "--edge", "0,0,1"), "InvalidEdge", id="repeated-id"),
        pytest.param((*_MONO, "--edge", "0,1,9"), "InvalidVertex", id="id-out-of-range"),
        pytest.param((*_MONO, "--edge", ""), "InvalidEdge", id="empty-edge"),
        pytest.param((*_MONO, "--edge", "a"), "InvalidParams", id="edge-not-int"),
        pytest.param((*_MONO, "--edge", "0,1,2", "--constraint", "1,2"), "InvalidParams",
                     id="constraint-without-level"),
        pytest.param((*_MONO, "--edge", "0,1,2", "--constraint", "1,2:x"), "InvalidParams",
                     id="constraint-level-not-int"),
        pytest.param((*_CHECK, "--kind", "goodness", "--parts", "0,x"), "InvalidParams",
                     id="parts-not-int"),
        pytest.param((*_CHECK, "--kind", "goodness", "--parts", "0,1;1,2"), "InvalidParams",
                     id="parts-overlap"),
        pytest.param((*_CHECK, "--kind", "goodness", "--parts", "0,1;7,9"), "InvalidVertex",
                     id="parts-id-out-of-range"),
        pytest.param((*_CHECK, "--kind", "goodness", "--parts", "0,1;-1,2"), "InvalidVertex",
                     id="parts-negative-id"),
        pytest.param((*_CHECK, "--kind", "moments", "--w", "0,1,99", "--pair", "0,99"),
                     "InvalidVertex", id="moments-id-out-of-range"),
        pytest.param((*_CHECK, "--kind", "moments", "--w", "0,1", "--pair", "0,-1"),
                     "InvalidVertex", id="pair-negative-id"),
        pytest.param((*_CHECK, "--kind", "moments", "--w", "0,1", "--pair", "1"), "InvalidParams",
                     id="pair-one-id"),
        pytest.param((*_CHECK, "--kind", "moments", "--w", "0,1"), "InvalidParams",
                     id="pair-missing"),
        pytest.param(("sweep", "--families", "sts", "--sizes", "9,x", "-o", "{out}"),
                     "InvalidParams", id="sweep-sizes-not-int"),
    ],
)
def test_check_and_sweep_reject_bad_vertex_lists(tmp_path, capsys, argv, error):
    inst = tmp_path / "fano.hg"
    inst.write_text(serialize(build(7, FANO_LINES)))
    out = tmp_path / "x.csv"
    code, stdout, err = run(capsys, *(a.format(inst=inst, out=out) for a in argv))
    assert (code, stdout) == (1, "")
    assert err.startswith(f"error: {error}: ") and len(err.splitlines()) == 1
    assert not out.exists()


def test_check_goodness(tmp_path, capsys):
    path = tmp_path / "m.hg"
    run(capsys, "gen", "--family", "matching", "--n", "12", "--k", "3", "-o", str(path))
    code, out, _ = run(
        capsys, "check", str(path), "--kind", "goodness",
        "--parts", "0,1,2;3,4,5;6,7,8;9,10,11",
    )
    assert code == 0
    assert "spread_violations=4" in out


def test_invalid_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.hg"
    bad.write_text("not a header\n")
    code, _, err = run(capsys, "cut", str(bad))
    assert code == 1
    assert "error:" in err


def test_cut_rejects_more_parts_than_edge_size(tmp_path, capsys):
    path = tmp_path / "s9.hg"
    path.write_text(serialize(generate(GenSpec(family="sts", n=9))))
    for algo in ("auto", "es", "greedy", "chromatic", "pipeline"):
        code, out, err = run(capsys, "cut", str(path), "--algo", algo, "--r", "5")
        assert (code, out) == (1, "")
        assert "InvalidParams" in err and "r=5, k=3" in err


_LIN60 = GenSpec(family="linear-random", n=60, k=4, m_target=120, seed=1)


@pytest.mark.parametrize(
    "spec, r",
    [
        pytest.param(GenSpec(family="sts", n=13), 2, id="2"),
        pytest.param(GenSpec(family="sts", n=13), 3, id="3"),
        # a 4-graph at r = 3: the route exposes parts 3..r before the engine runs
        pytest.param(_LIN60, 3, id="linear-random-k4-r3"),
    ],
)
def test_cut_es_entry_matches_auto_ledger(tmp_path, capsys, spec, r):
    # --algo es runs solve's own route: its one entry recurs verbatim in auto's ledger
    path = tmp_path / "inst.hg"
    path.write_text(serialize(generate(spec)))
    code, es_out, _ = run(capsys, "cut", str(path), "--algo", "es", "--r", str(r))
    assert code == 0
    code, auto_out, _ = run(capsys, "cut", str(path), "--algo", "auto", "--r", str(r))
    assert code == 0
    (entry,) = [ln for ln in es_out.splitlines() if ln.startswith("guarantee")]
    claim = entry[: entry.index("]") + 1]
    assert [ln for ln in auto_out.splitlines() if ln.startswith(claim + " ")] == [entry]


def test_cut_es_without_a_viable_exposure_exits_1(tmp_path, capsys):
    # a lone pair under k = 3 can never span 3 parts, so every exposure's
    # forward instance is empty; auto still returns its other routes' best
    path = tmp_path / "pair.hg"
    path.write_text(serialize(build(3, [[0, 1]], max_arity=3)))
    code, out, err = run(capsys, "cut", str(path), "--algo", "es", "--r", "3")
    assert (code, out) == (1, "")
    assert "SearchFailed: no viable exposure" in err
    code, out, _ = run(capsys, "cut", str(path), "--algo", "auto", "--r", "3")
    assert code == 0 and "[exposure + deferred engine]" not in out


@pytest.mark.parametrize(
    "spec",
    [GenSpec(family="random", n=12, k=2, p=0.4, seed=3), GenSpec(family="sts", n=13), _LIN60],
    ids=["2-graph", "3-graph", "4-graph"],
)
def test_cut_greedy_returns_the_greedy_route_cut(spec):
    # --algo greedy runs solve's greedy route on any instance, with one advisory line
    h = generate(spec)
    cut, ledger = _run_algorithm(h, "greedy", 2, 32, 5)
    route = greedy_route(h, order_for_W(h, 8, 5))
    assert cut == route.cut
    (entry,) = ledger.entries
    assert (entry.claim, entry.promised, entry.status) == ("pair-expansion greedy gains", None, "advisory")
    assert entry.realized == route.metrics.excess == cut_metrics(h, cut).excess
    # only the triangle expansion of a 3-graph certifies a promise
    assert bool(route.ledger.entries) == h.edges_all_of_size(3)


def test_gen_infeasible_exit_code(capsys):
    code, _, err = run(capsys, "gen", "--family", "sts", "--n", "8")
    assert code == 1
    assert "error:" in err


def test_gen_random_graph_default_p_is_capped_at_one(capsys):
    # the default n^(3-k) is 10 here; capped at 1 every pair becomes an edge
    code, out, _ = run(capsys, "gen", "--family", "random", "--n", "10", "--k", "2")
    assert code == 0
    assert parse(out).m == 45


def test_gen_linear_random_without_m_target_writes_the_sweep_instance(capsys):
    # gen and sweep share one edge target (2n), so gen no longer writes m = 0
    (row, _) = experiment_sweep(
        {"families": ["linear-random"], "sizes": [30], "algos": ["es"], "r": 2, "k": 3}
    )
    code, out, _ = run(
        capsys, "gen", "--family", "linear-random", "--n", "30", "--k", "3", "--seed", row["seed"]
    )
    assert code == 0
    h = parse(out)
    assert h.m > 0 and str(h.m) == row["m"]
    assert out == serialize(_sweep_instance("linear-random", 30, 3, None, None, int(row["seed"])))


# ------------------------------------------------------------- sweep


def test_sweep_matching_es_exact_column(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys,
        "sweep", "--families", "matching", "--sizes", "12,24,36",
        "--algos", "es", "--r", "2", "--seed", "1", "-o", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header == [
        "family", "n", "m", "k", "r", "seed", "algo", "size",
        "expected", "excess", "guarantee", "runtime_ms",
    ]
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    for row in rows:
        if row["family"] == "matching":
            # the deferred engine realizes n/12 on a perfect matching exactly
            assert Fraction(row["excess"]) == Fraction(int(row["n"]), 12)
    assert any(row["family"] == "slope-summary" for row in rows)


def test_sweep_deterministic_modulo_runtime(tmp_path, capsys):
    texts = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code, _, _ = run(
            capsys,
            "sweep", "--families", "sts", "--sizes", "9,13",
            "--algos", "es,chromatic", "--r", "2", "--seed", "5", "-o", str(out),
        )
        assert code == 0
        rows = out.read_text().splitlines()
        texts.append([",".join(ln.split(",")[:-1]) for ln in rows])
    assert texts[0] == texts[1]


def test_sweep_empty_grid(tmp_path):
    rows = experiment_sweep(
        {"families": [], "sizes": [], "algos": ["es"], "r": 2, "seed": 0}
    )
    assert all(r["family"] == "slope-summary" for r in rows)


def test_check_moments(tmp_path, capsys):
    path = tmp_path / "m.hg"
    path.write_text("hg 1 4 4 1\n0 1 2 3\n")
    code, out, _ = run(
        capsys, "check", str(path), "--kind", "moments",
        "--w", "0,1", "--pair", "0,1", "--samples", "20000",
    )
    assert code == 0
    assert "verdict=PASS" in out


def test_sweep_sts_pipeline_positive_slope(tmp_path, capsys):
    out = tmp_path / "sts.csv"
    code, _, _ = run(
        capsys,
        "sweep", "--families", "sts", "--sizes", "9,15,21,27,33",
        "--algos", "auto", "--r", "3", "--seed", "4", "-o", str(out),
    )
    assert code == 0
    summary = [ln for ln in out.read_text().splitlines() if ln.startswith("slope-summary")]
    slope = float(summary[0].split(",")[9])
    assert slope > 0


def test_guarantee_violation_exit_code(tmp_path, capsys, monkeypatch):
    # exit code 2 is reserved for a failed deterministic promise
    import hypercut.cli as cli
    from hypercut.cutspace import Cut
    from hypercut.pipeline import GuaranteeLedger

    def broken(h, algo, r, trials, seed):
        ledger = GuaranteeLedger()
        ledger.add("fabricated promise", Fraction(5), Fraction(0))
        return Cut(2, tuple(1 for _ in range(h.n_vertices))), ledger

    monkeypatch.setattr(cli, "_run_algorithm", broken)
    path = tmp_path / "x.hg"
    path.write_text("hg 1 3 3 1\n0 1 2\n")
    code, _, err = run(capsys, "cut", str(path))
    assert code == 2
    assert "GuaranteeViolation" in err


def test_pipeline_certificate_failure_exit_code(tmp_path, capsys, monkeypatch):
    # a failing driver certificate must reach the caller, not fall back
    import hypercut.cli as cli
    from hypercut.errors import CertificateError

    def broken(h, r, k, sr, params):
        raise CertificateError("injected back-map failure")

    monkeypatch.setattr(cli, "_dispatch_driver", broken)
    path = tmp_path / "s9.hg"
    path.write_text(serialize(generate(GenSpec(family="sts", n=9))))
    code, _, err = run(capsys, "cut", str(path), "--algo", "pipeline", "--r", "3")
    assert code == 2
    assert "CertificateError" in err


@pytest.mark.parametrize(
    "tamper, spec, r",
    [
        (break_exposure_transfer, GenSpec(family="sts", n=21), 3),
        (break_weighted_graph, GenSpec(family="linear-random", n=60, k=4, m_target=120, seed=1), 2),
        (inflate_transfer, GenSpec(family="linear-random", n=60, k=4, m_target=120, seed=1), 2),
    ],
)
def test_pipeline_driver_certificates_exit_2(tmp_path, capsys, monkeypatch, tamper, spec, r):
    # each driver's own certificate reaches the caller through the CLI, never the fallback
    path = tmp_path / "inst.hg"
    path.write_text(serialize(generate(spec)))
    expected = tamper(monkeypatch)
    code, out, err = run(capsys, "cut", str(path), "--algo", "pipeline", "--r", str(r))
    error, message = expected()
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {error.__name__}: {message}")


@pytest.mark.parametrize(
    "spec, r",
    [
        (GenSpec(family="sts", n=99), 3),  # driver_3cut
        (GenSpec(family="linear-random", n=60, k=4, m_target=120, seed=1), 2),  # driver_2cut
    ],
)
def test_pipeline_rejects_zero_trials(tmp_path, capsys, spec, r):
    # no trial means no candidate cut: an input error, not a crash or a fallback
    path = tmp_path / "inst.hg"
    path.write_text(serialize(generate(spec)))
    code, out, err = run(capsys, "cut", str(path), "--algo", "pipeline", "--r", str(r), "--trials", "0")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: InvalidParams: trials must be >= 1"]


@pytest.mark.parametrize("algo", ["auto", "es", "greedy", "chromatic", "pipeline"])
def test_every_algo_rejects_zero_trials(tmp_path, capsys, algo):
    # one check for every algorithm: none of them runs a trial it was not given
    path = tmp_path / "s9.hg"
    path.write_text(serialize(generate(GenSpec(family="sts", n=9))))
    code, out, err = run(capsys, "cut", str(path), "--algo", algo, "--r", "2", "--trials", "0")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: InvalidParams: trials must be >= 1"]


@pytest.mark.parametrize(
    "algo, spec, r",
    [
        # es_route's exposure of part 3
        ("es", GenSpec(family="linear-random", n=60, k=4, m_target=120, seed=1), 3),
        # r <= k-2: _driver_expose with keep 2 into driver_2cut
        ("pipeline", GenSpec(family="linear-random", n=60, k=5, m_target=120, seed=1), 3),
        # r = k > 3: _driver_expose with keep 3 into a 3-cut solve
        ("pipeline", GenSpec(family="random", n=30, k=5, p=0.045, seed=0), 5),
    ],
)
def test_exposure_certificates_exit_2(tmp_path, capsys, monkeypatch, algo, spec, r):
    # every exposure's back-map certifies its own average excess, whoever calls it
    path = tmp_path / "inst.hg"
    path.write_text(serialize(generate(spec)))
    expected = break_exposure_transfer(monkeypatch)
    code, out, err = run(capsys, "cut", str(path), "--algo", algo, "--r", str(r))
    error, message = expected()
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {error.__name__}: {message}")
