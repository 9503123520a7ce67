"""Command-line surface and the CSV experiment harness.

Exit codes: 0 success, 1 invalid input, 2 internal guarantee violation
(a deterministic ledger promise failed, which must never happen and
means the math layer is wrong).  Output is deterministic for a fixed
seed; only runtime_ms varies.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import hgio
from .core import Hypergraph
from .cutspace import cut_metrics, theorem_bound, theorem_bound_claim
from .derand import conditional_rcut
from .errors import (
    CertificateError,
    DriverInapplicable,
    GuaranteeViolation,
    HypercutError,
    InvalidParams,
    InvalidVertex,
    SearchFailed,
)
from .instances import (
    GenSpec,
    exact_maxcut,
    generate,
    moment_audit,
    monotonicity_check,
)
from .pipeline import (
    GuaranteeLedger,
    PipelineParams,
    Route,
    _dispatch_driver,
    check_parts,
    chromatic_route,
    codegree_structure,
    engine_order,
    es_route,
    goodness_audit,
    greedy_route,
    solve,
)


@dataclass
class RunReport:
    n: int
    m: int
    k: int
    r: int
    algorithm: str
    seed: int
    size: int
    expected: Fraction
    excess: Fraction
    ledger: GuaranteeLedger
    runtime_ms: float

    def lines(self):
        yield f"instance n={self.n} m={self.m} k={self.k}"
        yield f"run r={self.r} algo={self.algorithm} seed={self.seed}"
        yield f"size={self.size} expected={self.expected} excess={self.excess}"
        for e in self.ledger.entries:
            promised = "-" if e.promised is None else str(e.promised)
            stage = "" if e.scope == "instance" else f" scope={e.scope}"
            yield (
                f"guarantee [{e.claim}] promised={promised} "
                f"realized={e.realized} status={e.status}{stage}"
            )
        yield f"runtime_ms={self.runtime_ms:.1f}"


def _run_algorithm(h: Hypergraph, algo: str, r: int, trials: int, seed: int):
    """Returns (cut, ledger); every algorithm writes at least one ledger line.

    ``es`` and ``chromatic`` run ``solve``'s own routes and print their
    lines; ``greedy`` runs ``solve``'s greedy route at r = 2 on any
    instance, with one advisory line of its own.  Only ``pipeline`` (the
    structural driver alone, with a conditional-expectations fallback) is
    the CLI's own.  Every algorithm needs ``trials >= 1``, which
    ``PipelineParams`` checks.
    """
    params = PipelineParams(trials=trials, seed=seed)
    if algo == "auto":
        return solve(h, r, params)
    k = check_parts(h, r)
    if algo == "es":
        route = es_route(h, r, params)
    elif algo == "greedy":
        if r != 2:
            raise HypercutError("--algo greedy is a 2-cut heuristic")
        route = greedy_route(h, engine_order(h, params))
        route = Route.of("greedy", route.cut, route.metrics, "pair-expansion greedy gains")
    elif algo == "chromatic":
        route = chromatic_route(h, r, params)
    elif algo == "pipeline":
        try:
            route = _dispatch_driver(h, r, k, codegree_structure(h), params)
        except (SearchFailed, DriverInapplicable):
            cut = conditional_rcut(h, r)
            claim = "conditional-expectations fallback"
            route = Route.of("fallback", cut, cut_metrics(h, cut), claim, Fraction(0))
    else:
        raise HypercutError(f"unknown algorithm {algo!r}")
    return route.cut, route.ledger


def run_report(h: Hypergraph, algo: str, r: int, trials: int, seed: int) -> RunReport:
    start = time.perf_counter()
    cut, ledger = _run_algorithm(h, algo, r, trials, seed)
    elapsed = (time.perf_counter() - start) * 1000
    metrics = cut_metrics(h, cut)  # excess recomputed independently at report time
    return RunReport(
        n=h.n_vertices,
        m=h.m,
        k=h.max_arity,
        r=r,
        algorithm=algo,
        seed=seed,
        size=metrics.size,
        expected=metrics.expected,
        excess=metrics.excess,
        ledger=ledger,
        runtime_ms=elapsed,
    )


# ----------------------------------------------------------------- commands


def _cmd_gen(args) -> int:
    h = _sweep_instance(args.family, args.n, args.k, args.p, args.m_target, args.seed)
    text = hgio.serialize(h)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_cut(args) -> int:
    h = hgio.load(args.instance)
    report = run_report(h, args.algo, args.r, args.trials, args.seed)
    for line in report.lines():
        print(line)
    if report.ledger.violations():
        print("error: GuaranteeViolation: deterministic ledger entry failed", file=sys.stderr)
        return 2
    return 0


def _cmd_exact(args) -> int:
    h = hgio.load(args.instance)
    value, cut = exact_maxcut(h, args.r)
    print(value)
    if args.witness:
        print(" ".join(str(p) for p in cut.assignment))
    return 0


def _connected(h: Hypergraph) -> bool:
    if h.n_vertices == 0:
        return True
    parent = list(range(h.n_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in h.edges:
        for v in e[1:]:
            ra, rb = find(e[0]), find(v)
            if ra != rb:
                parent[ra] = rb
    return len({find(v) for v in range(h.n_vertices)}) == 1


def _cmd_bounds(args) -> int:
    h = hgio.load(args.instance)
    if args.r != 2:
        print("# closed-form excess bounds here apply to 2-cuts only")
        return 0
    k_real = h.edge_array.shape[1]  # the largest edge size
    uniform = k_real if h.m and h.edges_all_of_size(k_real) else None  # the one edge size, if any
    nonisolated = len(h.vertices_in_edges_of_size_at_least(1)) == h.n_vertices
    printed = []
    if uniform == 2:
        printed.append(("graph-2cut-m", theorem_bound("graph-2cut-m", m=h.m)))
        if _connected(h):
            printed.append(("connected-graph", theorem_bound("connected-graph", n=h.n_vertices)))
        if nonisolated:
            printed.append(("nonisolated-graph", theorem_bound("nonisolated-graph", n=h.n_vertices)))
    if uniform == 3:
        printed.append(("sts-2cut", theorem_bound("sts-2cut", m=h.m)))
        if _connected(h):
            printed.append(("connected-3graph", theorem_bound("connected-3graph", n=h.n_vertices)))
        if nonisolated:
            printed.append(("nonisolated-3graph", theorem_bound("nonisolated-3graph", n=h.n_vertices)))
    if k_real >= 3:
        n3 = len(h.vertices_in_edges_of_size_at_least(3))
        printed.append(("mixed-2cut-n", theorem_bound("mixed-2cut-n", k=k_real, n=n3)))
        # no edge is larger than max_arity, so "at least" means "exactly"
        nk = len(h.vertices_in_edges_of_size_at_least(h.max_arity))
        printed.append(("mixed-k-edges", theorem_bound("mixed-k-edges", k=h.max_arity, n=nk)))
    for name, value in printed:
        print(f"{name} {value}  # {theorem_bound_claim(name)}")
    return 0


def _parse_ints(text: str, what: str) -> list[int]:
    """Comma- or space-separated integers; ``InvalidParams`` names ``what``."""
    try:
        return [int(x) for x in text.replace(",", " ").split()]
    except ValueError:
        raise InvalidParams(f"{what} must be integers, got {text!r}") from None


def _parse_vertices(text: str, what: str, h: Hypergraph) -> list[int]:
    """``_parse_ints``, with ``InvalidVertex`` for an id outside [0, n)."""
    ids = _parse_ints(text, what)
    bad = [v for v in ids if not 0 <= v < h.n_vertices]
    if bad:
        raise InvalidVertex(f"{what} vertex id {bad[0]} out of range (n={h.n_vertices})")
    return ids


def _cmd_check(args) -> int:
    h = hgio.load(args.instance)
    if args.kind == "monotonicity":
        edge = _parse_ints(args.edge, "--edge")
        constraints = []
        for spec in args.constraint or []:
            part, sep, level = spec.rpartition(":")
            levels = _parse_ints(level, "--constraint level")
            if not sep or len(levels) != 1:
                raise InvalidParams(f"--constraint needs vertices:level, got {spec!r}")
            constraints.append((_parse_ints(part, "--constraint"), levels[0]))
        res = monotonicity_check(h, args.r, edge, constraints)
        print(f"conditional={res.conditional} base={res.base} verdict={res.verdict}")
        return 0 if res.verdict != "FAIL" else 1
    if args.kind == "moments":
        w = _parse_vertices(args.w, "--w", h)
        pair = _parse_vertices(args.pair, "--pair", h)
        if len(pair) != 2:
            raise InvalidParams(f"--pair needs two vertex ids, got {args.pair!r}")
        res = moment_audit(h, w, tuple(pair), args.samples, args.seed)
        print(
            f"variance={res.variance:.6f} kurtosis={res.kurtosis:.6f} "
            f"g_uv={res.g_uv} verdict={res.verdict}"
        )
        return 0 if res.verdict != "FAIL" else 1
    if args.kind == "goodness":
        parts = [set(_parse_vertices(p, "--parts", h)) for p in args.parts.split(";") if p.strip()]
        covered = set().union(*parts)
        if len(covered) != sum(map(len, parts)):
            raise InvalidParams("--parts must be disjoint")
        rep = goodness_audit(h, [True] * h.m, parts)
        print(
            f"within_pair_edges={rep.within_pair_edges} "
            f"max_within_degree={rep.max_within_degree} "
            f"spread_violations={len(rep.violations_spread)} "
            f"witness_violations={len(rep.violations_witness)}"
        )
        return 0
    raise HypercutError(f"unknown check kind {args.kind!r}")


# ----------------------------------------------------------------- sweep


def _sweep_instance(family: str, n: int, k: int, p, m_target, seed: int) -> Hypergraph:
    """The instance of ``gen`` and of one sweep row.

    By default p is n^(3-k), at most 1 (about n^3/k! expected edges), and
    linear-random, the one family that reads ``m_target``, aims at 2n edges.
    """
    if p is None:
        p = min(n ** (3 - k), 1.0) if n else 0.0
    return generate(GenSpec(family, n, k, p, m_target or 2 * n, seed))


CSV_COLUMNS = [
    "family",
    "n",
    "m",
    "k",
    "r",
    "seed",
    "algo",
    "size",
    "expected",
    "excess",
    "guarantee",
    "runtime_ms",
]


def experiment_sweep(config: dict) -> list[dict]:
    """Run the (family, n, algo) grid; one row per run plus slope summaries.

    The returned rows map each of ``CSV_COLUMNS`` to its string value.
    Rows are computed serially, each with its own derived seed, so every
    row is independent of the others.
    """
    family_list = config["families"]
    sizes = config["sizes"]
    algos = config["algos"]
    r = config["r"]
    trials = config.get("trials", 16)
    seed = config.get("seed", 0)
    k = config.get("k", 3)
    p = config.get("p")
    m_target = config.get("m_target")

    grid = [
        (family, n, algo)
        for family in family_list
        for n in sizes
        for algo in algos
    ]

    def one(job):
        family, n, algo = job
        digest = hashlib.sha256(f"{seed}:{family}:{n}:{algo}".encode()).digest()
        row_seed = int.from_bytes(digest[:4], "big")
        h = _sweep_instance(family, n, k, p, m_target, row_seed)
        report = run_report(h, algo, r, trials, row_seed)
        det = [e.promised for e in report.ledger.entries
               if e.deterministic and e.scope == "instance"]
        cells = (family, n, report.m, report.k, r, row_seed, algo, report.size,
                 report.expected, report.excess, max(det) if det else "")
        return dict(zip(CSV_COLUMNS, [*map(str, cells), f"{report.runtime_ms:.1f}"]))

    rows = [one(job) for job in grid]

    for algo in algos:
        pts = [
            (math.log(int(row["m"])), math.log(float(Fraction(row["excess"]))))
            for row in rows
            if row["algo"] == algo and Fraction(row["excess"]) > 0
        ]
        slope = ""
        if len(pts) >= 2:
            xbar = sum(x for x, _ in pts) / len(pts)
            ybar = sum(y for _, y in pts) / len(pts)
            denom = sum((x - xbar) ** 2 for x, _ in pts)
            if denom > 0:
                slope = f"{sum((x - xbar) * (y - ybar) for x, y in pts) / denom:.4f}"
        summary = ("slope-summary", "", "", "", str(r), str(seed), algo, "", "", slope, "", "")
        rows.append(dict(zip(CSV_COLUMNS, summary)))
    return rows


def _cmd_sweep(args) -> int:
    config = {
        "families": args.families.split(","),
        "sizes": _parse_ints(args.sizes, "--sizes"),
        "algos": args.algos.split(","),
        "r": args.r,
        "trials": args.trials,
        "seed": args.seed,
        "k": args.k,
        "p": args.p,
        "m_target": args.m_target,
    }
    rows = experiment_sweep(config)
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(row[c] for c in CSV_COLUMNS))
    text = "\n".join(lines) + "\n"
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: unwritable output: {exc}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercut",
        description="r-cuts of k-uniform multihypergraphs beating the uniform-random baseline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance")
    gen.add_argument("--family", required=True,
                     choices=["sts", "random", "matching", "complete", "linear-random"])
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int, default=3)
    gen.add_argument("--p", type=float, default=None)
    gen.add_argument("--m-target", type=int, default=0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", default=None)
    gen.set_defaults(fn=_cmd_gen)

    cut = sub.add_parser("cut", help="compute a cut with its guarantee report")
    cut.add_argument("instance")
    cut.add_argument("--algo", default="auto",
                     choices=["auto", "es", "greedy", "chromatic", "pipeline"])
    cut.add_argument("--r", type=int, default=2)
    cut.add_argument("--seed", type=int, default=0)
    cut.add_argument("--trials", type=int, default=32)
    cut.set_defaults(fn=_cmd_cut)

    exact = sub.add_parser("exact", help="exact max-cut by enumeration (small n)")
    exact.add_argument("instance")
    exact.add_argument("--r", type=int, default=2)
    exact.add_argument("--witness", action="store_true")
    exact.set_defaults(fn=_cmd_exact)

    bounds = sub.add_parser("bounds", help="print applicable closed-form excess bounds")
    bounds.add_argument("instance")
    bounds.add_argument("--r", type=int, default=2)
    bounds.set_defaults(fn=_cmd_bounds)

    check = sub.add_parser("check", help="exact/statistical audits")
    check.add_argument("instance")
    check.add_argument("--kind", required=True, choices=["monotonicity", "moments", "goodness"])
    check.add_argument("--r", type=int, default=2)
    check.add_argument("--edge", default="")
    check.add_argument("--constraint", action="append")
    check.add_argument("--w", default="")
    check.add_argument("--pair", default="")
    check.add_argument("--samples", type=int, default=100_000)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--parts", default="")
    check.set_defaults(fn=_cmd_check)

    sweep = sub.add_parser("sweep", help="CSV experiment grid")
    sweep.add_argument("--families", required=True)
    sweep.add_argument("--sizes", required=True)
    sweep.add_argument("--algos", default="auto")
    sweep.add_argument("--r", type=int, default=2)
    sweep.add_argument("--trials", type=int, default=16)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--k", type=int, default=3)
    sweep.add_argument("--p", type=float, default=None)
    sweep.add_argument("--m-target", type=int, default=None)
    sweep.add_argument("-o", "--output", required=True)
    sweep.set_defaults(fn=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.fn(args)
    except (GuaranteeViolation, CertificateError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except HypercutError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
