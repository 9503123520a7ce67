"""Fixed-seed benchmark of hypercut's ``solve`` path and its CSV sweep.

Run from the repository root:

    python3 perfbench/run.py --workload sts-r3 --seed 0 --seconds 30 --trace 0

The package is imported from ``./src``.  Instances are generated from
``--seed`` (STS designs are fixed and take only the solver seed), then
solved in passes until the next pass would overrun ``--seconds``.  Every
returned cut is checked by ``checks.py``.  The last line of stdout is one
JSON object: with ``--trace 0`` it carries the end-to-end metrics, measured
with no wrappers installed; with ``--trace 1`` it carries the per-layer
metrics of ``spans.py``, taken from traced passes that alternate with
untraced ones, and the spans are written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import checks
from probe import SpeedProbe
from spans import Tracer, layer_stats, write_spans

SETUP_REPS = 5
OUT_DIR = ".perfbench"


@dataclass(frozen=True)
class Inst:
    id: str
    spec: dict = field(hash=False)  # GenSpec fields other than the seed
    r: int
    seeded: bool = True  # False for STS designs, which have no random choices


SOLVE_WORKLOADS = {
    # partial_average_excess rescans in combine_partial_cuts, driver_3cut, the lift
    "sts-r3": [
        Inst("sts-97", {"family": "sts", "n": 97}, 3, seeded=False),
        Inst("sts-99", {"family": "sts", "n": 99}, 3, seeded=False),
        Inst("sts-127", {"family": "sts", "n": 127}, 3, seeded=False),
    ],
    # doubled exposure: hpart_double, weighted_reduce, weighted_identity_check
    "sparse-2cut": [
        Inst("linear-k4-n240", {"family": "linear-random", "n": 240, "k": 4, "m_target": 1500}, 2),
        Inst("linear-k5-n300", {"family": "linear-random", "n": 300, "k": 5, "m_target": 1500}, 3),
    ],
    # high codegree: drivers fail fast; conditional_rcut and cut_metrics dominate
    "dense-rk": [
        Inst("binomial-k4-n40-p0.1", {"family": "random", "n": 40, "k": 4, "p": 0.1}, 2),
        Inst("binomial-k5-n30-p0.045", {"family": "random", "n": 30, "k": 5, "p": 0.045}, 5),
        Inst("binomial-k4-n40-p0.05", {"family": "random", "n": 40, "k": 4, "p": 0.05}, 3),
    ],
}

# Many small solves through the CLI's routes and its HYPERCUT_THREADS pool.
SWEEP = {
    "families": ["sts", "matching", "linear-random"],
    "sizes": list(range(9, 58, 6)),
    "trials": 16,
    "k": 3,
}
SWEEP_CALLS = (
    (2, ["auto", "es", "greedy", "chromatic", "pipeline"]),
    (3, ["auto", "es", "chromatic", "pipeline"]),
)
SWEEP_THREADS = 2
WORKLOADS = [*SOLVE_WORKLOADS, "sweep-small"]

END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "excess_total": "edges",
    "peak_rss_mb": "MB",
}

_S, _N, _R = "s", "count", "ratio"
PER_LAYER = {
    "cutspace.partial_average_excess.self_s": _S,
    "cutspace.partial_average_excess.calls": _N,
    "cutspace.partial_average_size.self_s": _S,
    "cutspace.partial_average_size.calls": _N,
    "cutspace.cut_metrics.self_s": _S,
    "cutspace.cut_metrics.calls": _N,
    "derand.conditional_rcut.self_s": _S,
    "derand.conditional_rcut.calls": _N,
    "derand.conditional_rcut.prob_evals": _N,
    "derand.combine_partial_cuts.self_s": _S,
    "derand.combine_partial_cuts.calls": _N,
    "derand.combine_partial_cuts.part_scans": _N,
    "derand.erdos_selfridge_2cut.self_s": _S,
    "derand.order_for_W.self_s": _S,
    "derand.greedy_on_adjacency.self_s": _S,
    "derand.greedy_order_cut.self_s": _S,
    "derand.flip_local_search.self_s": _S,
    "derand.point_local_search.self_s": _S,
    "reductions.hpart_double.self_s": _S,
    "reductions.hpart_double.calls": _N,
    "reductions.hpart_double.accept_ratio": _R,
    "reductions.weighted_reduce.self_s": _S,
    "reductions.weighted_reduce.calls": _N,
    "reductions.hpart_expose.self_s": _S,
    "reductions.hpart_expose.calls": _N,
    "reductions.exposure_average_excess.self_s": _S,
    "reductions.lift_2cut_to_3cut.self_s": _S,
    "reductions.dense_subset_cut.self_s": _S,
    "reductions.expand_3graph.self_s": _S,
    "reductions.rgraph_expand.self_s": _S,
    "reductions.weighted_identity_check.total_s": _S,
    "reductions.back_map.total_s": _S,
    "reductions.back_map.calls": _N,
    "pipeline.certificate_share": _R,
    "pipeline.solve.total_s": _S,
    "pipeline.solve.calls": _N,
    "pipeline.codegree_structure.self_s": _S,
    "pipeline.goodness_audit.self_s": _S,
    "pipeline.chromatic_cut.self_s": _S,
    "pipeline.conditioned_matching_cut.self_s": _S,
    "pipeline.good_partition_search.self_s": _S,
    "pipeline.good_partition_search.samples": _N,
    "pipeline.good_partition_search.success_ratio": _R,
    "pipeline.driver_3cut.self_s": _S,
    "pipeline.driver_3cut.fail_ratio": _R,
    "pipeline.driver_2cut.self_s": _S,
    "pipeline.driver_2cut.fail_ratio": _R,
    "core.clique_expand.self_s": _S,
    "core.degree_profile.self_s": _S,
    "core.induce.self_s": _S,
    "instances.generate.self_s": _S,
    "hgio.parse.self_s": _S,
    "hgio.serialize.self_s": _S,
    "cli.experiment_sweep.total_s": _S,
    "cli.run_report.calls": _N,
    "cli.sweep.parallel_efficiency": _R,
    "trace.overhead_s": _S,
    "ledger.promise_total": "edges",
}
# measured on the traced set-up, not on the solve passes
SETUP_LAYERS = ("instances.generate.self_s", "hgio.parse.self_s", "hgio.serialize.self_s")

IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import hypercut; print(time.perf_counter() - t)"
)


def load_package(src: str):
    """Import hypercut from the checkout's ``src``; exit 2 when it is not there."""
    if not os.path.isfile(os.path.join(src, "hypercut", "__init__.py")):
        print(f"error: no hypercut package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import hypercut
    import hypercut.cli

    if not os.path.abspath(hypercut.__file__).startswith(src + os.sep):
        print(f"error: hypercut imported from {hypercut.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return hypercut


def clear_caches(hc) -> None:
    """Empty every lru_cache in the package, so each solve starts cold."""
    for mod in (hc.core, hc.cutspace, hc.derand, hc.reductions, hc.pipeline, hc.instances, hc.cli):
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def import_seconds(src: str) -> float:
    """Cold import of the package in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER, src],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout)


def sweep_row_seed(seed: int, family: str, n: int, algo: str) -> int:
    """The per-row seed ``cli.experiment_sweep`` derives."""
    digest = hashlib.sha256(f"{seed}:{family}:{n}:{algo}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def build_instances(hc, workload: str, seed: int) -> dict:
    """Generate every instance and pass it through the file format, as gen then cut do."""
    hgio = hc.hgio
    out = {}
    if workload == "sweep-small":
        algos = sorted({a for _, names in SWEEP_CALLS for a in names})
        for family in SWEEP["families"]:
            for n in SWEEP["sizes"]:
                for algo in algos:
                    row_seed = sweep_row_seed(seed, family, n, algo)
                    h = hc.cli._sweep_instance(family, n, SWEEP["k"], None, None, row_seed)
                    out[row_seed] = hgio.parse(hgio.serialize(h))
        return out
    for inst in SOLVE_WORKLOADS[workload]:
        spec = dict(inst.spec, seed=seed) if inst.seeded else inst.spec
        h = hc.instances.generate(hc.GenSpec(**spec))
        out[inst] = hgio.parse(hgio.serialize(h))
    return out


@dataclass
class Pass:
    times: list  # per timed unit (one solve, or the whole sweep): reference-speed seconds
    walls: list  # the same units' raw wall seconds
    slowdowns: list  # the same units' host slowdown, from the speed probe
    attempted: int
    failed: int
    digest: str
    excess: Fraction
    promise: Fraction
    problems: list
    busy_s: float = 0.0  # sweep only: sum of the rows' runtime_ms


def solve_pass(hc, insts: dict, seed: int) -> Pass:
    params = hc.PipelineParams(seed=seed)
    probes = []
    outputs = []
    for inst, h in insts.items():
        clear_caches(hc)
        with SpeedProbe() as probe:
            t = perf_counter()
            try:
                outputs.append((inst, h, hc.pipeline.solve(h, inst.r, params), None))
            except Exception as exc:  # any error escaping solve is a failed solve
                outputs.append((inst, h, None, f"{type(exc).__name__}: {exc}"))
            probes.append((probe, perf_counter() - t))

    failed = 0
    problems = []
    excess = promise = Fraction(0)
    digested = []
    for inst, h, result, error in outputs:
        found = [error] if error else []
        if result is not None:
            cut, ledger = result
            cut_found, cut_excess = checks.cut_problems(hc.cutspace.cut_metrics, h, inst.r, cut, ledger)
            found += cut_found + checks.round_trip_problems(hc.hgio, h)
            excess += cut_excess
            promise += ledger.instance_promise()
            digested.append((inst.id, cut, ledger))
        if found:
            failed += 1
            problems += [f"{inst.id}: {p}" for p in found]
    return Pass(*timings(probes), len(outputs), failed, checks.solve_digest(digested), excess, promise, problems)


def timings(probes) -> tuple:
    """(scaled times, raw walls, slowdowns) of (probe, wall) pairs."""
    return (
        [p.scaled(wall) for p, wall in probes],
        [wall for _, wall in probes],
        [p.slowdown for p, _ in probes],
    )


def sweep_pass(hc, insts: dict, seed: int) -> Pass:
    cli = hc.cli
    expected_rows = sum(
        len(SWEEP["families"]) * len(SWEEP["sizes"]) * len(algos) for _, algos in SWEEP_CALLS
    )
    captured = {}
    run_algorithm = cli._run_algorithm

    def capture(h, algo, r, trials, row_seed):
        cut, ledger = run_algorithm(h, algo, r, trials, row_seed)
        captured[(r, algo, row_seed)] = (h, cut, ledger)
        return cut, ledger

    clear_caches(hc)
    cli._run_algorithm = capture
    rows = []
    error = None
    with SpeedProbe() as probe:
        t = perf_counter()
        try:
            for r, algos in SWEEP_CALLS:
                rows += cli.experiment_sweep(dict(SWEEP, r=r, algos=algos, seed=seed))
        except Exception as exc:  # the sweep has no partial result to check
            error = f"sweep raised {type(exc).__name__}: {exc}"
        finally:
            cli._run_algorithm = run_algorithm
        wall = perf_counter() - t
    timed = timings([(probe, wall)])
    if error:
        return Pass(*timed, expected_rows, expected_rows, "", Fraction(0), Fraction(0), [error])

    data = [row for row in rows if row["family"] != "slope-summary"]
    failed = abs(expected_rows - len(data))
    problems = [f"{len(data)} rows, expected {expected_rows}"] if failed else []
    excess = promise = Fraction(0)
    busy = 0.0
    for row in data:
        key = (int(row["r"]), row["algo"], int(row["seed"]))
        label = f"{row['family']}-n{row['n']}-r{row['r']}-{row['algo']}"
        if key not in captured:
            found = ["no captured cut"]
        else:
            h, cut, ledger = captured[key]
            found = checks.row_problems(row, h, cut, ledger)
            found += checks.round_trip_problems(hc.hgio, h)
            if h != insts.get(key[2]):
                found.append("instance differs from the set-up's generated file")
        if found:
            failed += 1
            problems += [f"{label}: {p}" for p in found]
        excess += Fraction(row["excess"])
        promise += Fraction(row["guarantee"] or 0)
        busy += float(row["runtime_ms"]) / 1000
    digest = checks.csv_digest(cli.CSV_COLUMNS, rows)
    return Pass(*timed, max(expected_rows, len(data)), failed, digest, excess, promise, problems, busy)


def run_passes(run_one, seconds: float, tracer=None):
    """Passes until the next, if as slow as the slowest so far, would overrun
    ``seconds``; with a tracer, pairs of an untraced and a traced pass.
    Returns (untraced, traced, spans per pass)."""
    plain, traced, spans = [], [], []
    start = perf_counter()
    slowest = 0.0
    while True:
        t = perf_counter()
        plain.append(run_one())
        if tracer is not None:
            with tracer.installed():
                traced.append(run_one())
            spans.append(tracer.take())
        slowest = max(slowest, perf_counter() - t)
        if perf_counter() - start + slowest > seconds:
            return plain, traced, spans


def pass_seconds(passes) -> float:
    """Sum over timed units of the unit's fastest scaled time among the passes.

    What contention the speed probe leaves uncorrected can only add time, so
    the fastest of a unit's cold runs repeats better across runs than their
    median: on ten seeds per workload the quartile spread fell from 4-13% to
    3-7%.
    """
    return sum(min(unit) for unit in zip(*(p.times for p in passes)))


def setup_once(hc, src: str, workload: str, seed: int) -> tuple:
    """One cold import in a fresh interpreter plus building the instances;
    returns (reference-speed seconds, instances)."""
    with SpeedProbe() as outside:  # the import runs in the child process
        imported = import_seconds(src)
    with SpeedProbe() as inside:
        t = perf_counter()
        insts = build_instances(hc, workload, seed)
        built = perf_counter() - t
    return imported / outside.slowdown + inside.scaled(built), insts


def layer_values(stats: dict, setup_stats: dict) -> dict:
    def get(name, stat="calls", source=stats):
        return source.get(name, {}).get(stat, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    values = {}
    for metric in PER_LAYER:
        layer, stat = metric.rsplit(".", 1)
        if stat in ("self_s", "total_s", "calls", "prob_evals", "part_scans"):
            values[metric] = get(layer, stat, setup_stats if metric in SETUP_LAYERS else stats)
    gps = "pipeline.good_partition_search"
    samples = get("pipeline.goodness_audit", "sample")
    values.update(
        {
            "reductions.hpart_double.accept_ratio": ratio(
                get("reductions.hpart_double", "accepted"), get("reductions.hpart_double")
            ),
            "pipeline.certificate_share": ratio(
                get("certificates_in_solve", "total_s"), get("pipeline.solve", "total_s")
            ),
            f"{gps}.samples": samples,
            f"{gps}.success_ratio": ratio(get(gps) - get(gps, "errors"), samples),
            "pipeline.driver_3cut.fail_ratio": ratio(
                get("pipeline.driver_3cut", "errors"), get("pipeline.driver_3cut")
            ),
            "pipeline.driver_2cut.fail_ratio": ratio(
                get("pipeline.driver_2cut", "errors"), get("pipeline.driver_2cut")
            ),
        }
    )
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.abspath("src")
    hc = load_package(src)
    sweep = args.workload == "sweep-small"
    if sweep:
        os.environ["HYPERCUT_THREADS"] = str(SWEEP_THREADS)
    else:
        os.environ.pop("HYPERCUT_THREADS", None)

    tracer = Tracer() if args.trace else None
    setup_times = []
    setup_stats = {}
    if tracer is None:
        for _ in range(SETUP_REPS):
            seconds, insts = setup_once(hc, src, args.workload, args.seed)
            setup_times.append(seconds)
    else:
        with tracer.installed():
            insts = build_instances(hc, args.workload, args.seed)
        setup_stats = layer_stats(tracer.take())

    one = sweep_pass if sweep else solve_pass
    plain, traced, spans = run_passes(lambda: one(hc, insts, args.seed), args.seconds, tracer)

    runs = plain + traced
    attempted = sum(p.attempted for p in runs)
    failed = sum(p.failed for p in runs)
    digests = {p.digest for p in runs}
    correct = failed == 0 and len(digests) == 1
    for p in runs:
        for problem in p.problems[:20]:
            print(f"FAILED {problem}")
    if len(digests) != 1:
        print(f"FAILED passes disagree: {sorted(digests)}")
    first = plain[0]
    solve_s = pass_seconds(plain)
    print(
        f"workload={args.workload} seed={args.seed} passes={len(plain)}"
        f"{f'+{len(traced)} traced' if traced else ''} digest={first.digest}"
    )
    print(
        "pass wall_s=" + ",".join(f"{sum(p.walls):.3f}" for p in plain)
        + " scaled_s=" + ",".join(f"{sum(p.times):.3f}" for p in plain)
        + " slowdown=" + ",".join(f"{statistics.mean(p.slowdowns):.3f}" for p in plain)
    )
    print(
        f"failed_frac={failed / attempted:.4f} (of {attempted} attempted) "
        f"promise_total={float(first.promise):.6f} excess_total={float(first.excess):.6f}"
    )

    if tracer is None:
        metrics = {
            "solve_s": solve_s,
            "setup_s": statistics.median(setup_times),
            "excess_total": float(first.excess),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        per_pass = [layer_values(layer_stats(s), setup_stats) for s in spans]
        metrics = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
        metrics["cli.sweep.parallel_efficiency"] = (
            statistics.median(p.busy_s / (p.walls[0] * SWEEP_THREADS) for p in plain) if sweep else 0.0
        )
        metrics["trace.overhead_s"] = pass_seconds(traced) - solve_s
        metrics["ledger.promise_total"] = float(first.promise)
        units = PER_LAYER
        os.makedirs(OUT_DIR, exist_ok=True)
        write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"), spans)

    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
