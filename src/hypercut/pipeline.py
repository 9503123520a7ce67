"""Top-level solver: structure analysis, good-partition drivers, baselines.

Each route (one way of building a cut: the conditional-expectations
baselines, chromatic balancing, the partial-exposure drivers) returns a
``Route``: its cut, the metrics that scored it once and its own ledger
lines.  ``solve`` runs every applicable route, then orders their lines
and ranks their cuts; the CLI runs the baseline routes alone.  Each
ledger entry pairs a promised excess with the realized one; a shortfall
on a deterministic promise raises ``GuaranteeViolation``, a bug in the
math layer.  A promise crosses a reduction only through the reduction's
own ``transfer``, which its back-map certifies.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import (
    Hypergraph,
    clique_expand,
    degree_profile,
    part_labels,
    within_part_pairs,
)
from .cutspace import (
    Cut,
    CutMetrics,
    PartialCut,
    best_cut,
    cut_metrics,
    partial_average_size,
    uniform_expected_size,
)
from .derand import (
    conditional_rcut,
    erdos_selfridge_2cut,
    combine_partial_cuts,
    flip_local_search,
    greedy_on_adjacency,
    greedy_order_cut,
    order_for_W,
    point_local_search,
)
from .errors import (
    DriverInapplicable,
    GuaranteeViolation,
    CertificateError,
    InvalidParams,
    SearchFailed,
)
from .reductions import (
    dense_subset_cut,
    expand_3graph,
    hpart_double,
    hpart_expose,
    lift_2cut_to_3cut,
    rgraph_expand,
    weighted_identity_check,
    weighted_reduce,
)


#: Good-partition constants: a sample splits the vertices into about
#: 1/(C_PRIME p) parts, and deletes at most C m'/(2 sqrt(Delta')) offending
#: edges of each kind.
C = 0.25
C_PRIME = 0.125


@dataclass(frozen=True)
class PipelineParams:
    """Tunable budgets; the defaults clear the desk-scale corpus with margin."""

    retry_budget: int = 50
    trials: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidParams("trials must be >= 1")


@dataclass(frozen=True)
class DerivedParams:
    delta: float  # m^(5/9)
    g: float  # m^(7/45)
    q: float  # m^(19/45)
    p: float  # delta^(-3/5) min (g^(-2/3) delta^(-1/3))
    p_prime: float
    t: int


def derive_params(m: int) -> DerivedParams:
    m = max(m, 1)
    delta = m ** (5 / 9)
    g = m ** (7 / 45)
    q = m ** (19 / 45)
    p = min(delta ** (-3 / 5), g ** (-2 / 3) * delta ** (-1 / 3))
    p_prime = C_PRIME * p
    t = max(1, round(1 / p_prime))
    return DerivedParams(delta, g, q, p, p_prime, t)


@dataclass(frozen=True)
class LedgerEntry:
    """One promised-vs-realized excess pair.

    ``scope`` distinguishes claims about the instance whose cut is being
    returned ("instance") from claims about an intermediate forward
    instance inside a reduction chain ("stage"); only instance-scope
    promises may be compared against the final cut's excess.  An entry
    with no promise is advisory; every other entry is deterministic.
    """

    claim: str
    promised: Fraction | None
    realized: Fraction
    scope: str = "instance"

    @property
    def deterministic(self) -> bool:
        return self.promised is not None

    @property
    def ok(self) -> bool:
        return not self.deterministic or self.realized >= self.promised

    @property
    def status(self) -> str:
        if not self.deterministic:
            return "advisory"
        return "ok" if self.ok else "VIOLATED"


@dataclass
class GuaranteeLedger:
    entries: list = field(default_factory=list)

    def add(self, claim, promised, realized, scope="instance"):
        self.entries.append(LedgerEntry(claim, promised, Fraction(realized), scope))

    def extend(self, other: "GuaranteeLedger", prefix: str = "", demote: bool = False):
        """Merge entries; ``demote`` marks them all as stage-level claims."""
        for e in other.entries:
            scope = "stage" if demote else e.scope
            self.entries.append(LedgerEntry(prefix + e.claim, e.promised, e.realized, scope))

    def instance_promise(self) -> Fraction:
        """Largest deterministic promise made about this instance's excess."""
        return max(
            [Fraction(0)]
            + [e.promised for e in self.entries if e.deterministic and e.scope == "instance"]
        )

    def violations(self) -> list:
        return [e for e in self.entries if not e.ok]

    def assert_ok(self) -> None:
        bad = self.violations()
        if bad:
            raise GuaranteeViolation(
                "; ".join(f"{e.claim}: {e.realized} < {e.promised}" for e in bad)
            )


@dataclass(frozen=True)
class Route:
    """One way of building a cut: its name, the cut, the ``CutMetrics``
    that scored the cut once, and the ledger lines the route writes."""

    name: str
    cut: Cut
    metrics: CutMetrics
    ledger: GuaranteeLedger

    @classmethod
    def of(cls, name, cut, metrics, claim=None, promised=None) -> "Route":
        """A route with one line ``claim`` promising ``promised`` and
        realizing ``metrics.excess``, or with no line when ``claim`` is None."""
        ledger = GuaranteeLedger()
        if claim is not None:
            ledger.add(claim, promised, metrics.excess)
        return cls(name, cut, metrics, ledger)


# --------------------------------------------------------------- structure


@dataclass(frozen=True)
class StructureReport:
    u_set: frozenset
    matching: tuple  # disjoint high-codegree pairs
    branch: str  # matching-cut | dense-induced | high-U-incidence
    induced_edges: int  # e(H[U])


def codegree_structure(h: Hypergraph) -> StructureReport:
    """Greedy matching on high-codegree pairs, else the low-degree core U.

    With fewer than q matched pairs, U keeps every unmatched vertex of
    degree at most Delta, so |U| >= n - 2q - km/Delta.  The thresholds
    depend on m alone.
    """
    d = derive_params(h.m)
    prof = degree_profile(h)
    heavy = sorted(
        (pair for pair, cd in prof.codegree.items() if cd > d.g),
        key=lambda pr: (-prof.codegree[pr], pr),
    )
    matched: list[tuple[int, int]] = []
    used: set[int] = set()
    for u, v in heavy:
        if u in used or v in used:
            continue
        matched.append((u, v))
        used.update((u, v))
    if len(matched) >= d.q:
        return StructureReport(frozenset(), tuple(matched), "matching-cut", 0)
    u_set = frozenset(
        v for v in range(h.n_vertices) if v not in used and prof.degree[v] <= d.delta
    )
    k_bound = max(h.max_arity, 1)
    if len(u_set) + 1e-9 < h.n_vertices - 2 * d.q - k_bound * h.m / d.delta:
        raise CertificateError("core-size bound violated; structure pass is wrong")
    induced = int(h.inside_rows(u_set).sum())
    branch = "dense-induced" if induced >= h.m / (4 * k_bound) else "high-U-incidence"
    return StructureReport(u_set, tuple(matched), branch, induced)


def conditioned_matching_cut(
    h: Hypergraph, matching, r: int, trials: int, seed
) -> tuple[Cut, CutMetrics]:
    """Best random r-cut forcing each matched pair into two distinct parts,
    with its metrics."""
    if trials < 1:
        raise InvalidParams("trials must be >= 1")
    pairs = [tuple(p) for p in matching]
    used = [v for p in pairs for v in p]
    if len(set(used)) != len(used):
        raise InvalidParams("matching pairs must be disjoint")
    rng = random.Random(f"matching-cut:{seed}")

    def draw() -> Cut:
        assignment = [rng.randint(1, r) for _ in range(h.n_vertices)]
        for u, v in pairs:
            a = rng.randint(1, r)
            b = rng.randint(1, r - 1)
            if b >= a:
                b += 1
            assignment[u], assignment[v] = a, b
        return Cut(r, tuple(assignment))

    return best_cut(h, (draw() for _ in range(trials)))


# --------------------------------------------------------------- goodness


@dataclass(frozen=True)
class GoodnessReport:
    within_pair_edges: int  # (i): pair edges of G(h_sub) inside parts
    max_within_degree: int  # (ii): max within-part G(h) degree
    violations_spread: tuple  # (iii): h-edge indices
    violations_witness: tuple  # (iv): pairs of h-edge indices


def goodness_audit(h: Hypergraph, sub_rows, partition) -> GoodnessReport:
    """Exact counts for the four goodness properties of a partition.

    ``partition`` splits the vertex set S of the sub-hypergraph, whose
    edges are the rows of h that the boolean mask ``sub_rows`` selects.
    Property (i) counts the within-part pairs of those rows; (ii)-(iv)
    read every row of h.  Property (iii) asks every h-edge to spread over
    at least |e ∩ S| - 1 parts; (iv) forbids two edges from pairing up
    inside one part while also meeting in S outside it.  Every count is
    whole-array work over the rows of h sorted by (part, vertex).
    """
    sub_rows = np.asarray(sub_rows, dtype=bool)
    if sub_rows.shape != (h.m,):
        raise InvalidParams(f"sub_rows must hold one flag per edge ({h.m}), got {sub_rows.shape}")
    n1 = h.n_vertices + 1
    part, vertex, i, j, together = within_part_pairs(
        h, part_labels(h.n_vertices, partition, "goodness_audit")
    )
    pairs = together.sum(axis=1)
    within = int(pairs[sub_rows].sum())
    # meeting a part in c >= 2 vertices costs an edge c - 1 parts and gives it
    # c(c-1)/2 pairs, so it fails (iii) exactly when it has 2 or more pairs
    spread_bad = np.flatnonzero(pairs > 1)

    # only the rows with a within-part pair feed (ii) and (iv)
    hit = np.flatnonzero(pairs)
    part, vertex, together = part[hit], vertex[hit], together[hit]
    # (ii): a vertex meeting c - 1 others of its part in an edge gains c - 1
    ends = np.concatenate((vertex[:, i][together], vertex[:, j][together]))
    max_deg = int(np.bincount(ends, minlength=1).max())

    # (iv): one bucket entry per (edge, group of >= 2 in part pi, vertex x of
    # S in another part), keyed by (pi, x); a group's first column is ``start``
    repeat = np.zeros(part.shape, dtype=bool)  # same part as the left neighbour
    repeat[:, 1:] = together[:, j - i == 1]
    start = np.zeros_like(repeat)
    start[:, :-1] = repeat[:, 1:] & ~repeat[:, :-1]
    # two groups of one part share fewer than 3 vertices only when both are
    # the same pair, so a group of two is known by its pair, a larger one by -1
    group = np.full(part.shape, -1)
    group[:, :-1] = vertex[:, :-1] * n1 + vertex[:, 1:]
    group[:, :-2][repeat[:, 2:]] = -1
    other = (part[:, None, :] >= 0) & (part[:, None, :] != part[:, :, None])
    r, g, x = np.nonzero(start[:, :, None] & other)
    bucket = part[r, g] * n1 + vertex[r, x]
    order = np.lexsort((r, bucket))  # by bucket, then by row
    bucket, group, edge = bucket[order], group[r, g][order], hit[r][order]
    # an edge enters a bucket at most once, so each pair of entries d apart
    # in one bucket is a pair of distinct edges, the earlier one first
    firsts, seconds = [edge[:0]], [edge[:0]]
    d = 1
    while (same := bucket[d:] == bucket[:-d]).any():
        same &= (group[d:] != group[:-d]) | (group[d:] < 0)
        firsts.append(edge[:-d][same])
        seconds.append(edge[d:][same])
        d += 1
    witness = set(zip(np.concatenate(firsts).tolist(), np.concatenate(seconds).tolist()))
    return GoodnessReport(within, max_deg, tuple(spread_bad.tolist()), tuple(sorted(witness)))


@dataclass(frozen=True)
class GoodPartition:
    parts: tuple
    m_prime: int  # realized within-part pair-edge count after deletion
    m_target: float
    deleted_edges: tuple  # h-edge indices removed to reach full goodness


def good_partition_search(
    h: Hypergraph,
    sub_rows,
    vertex_set,
    params: PipelineParams,
    seed=None,
) -> GoodPartition:
    """Sample uniform t-part partitions until one is almost good, then fix it.

    ``sub_rows`` masks the sub-hypergraph's rows of h, and the parts split
    ``vertex_set``.  A sample is almost good with at least 2 m1
    within-part pair edges of the sub-hypergraph, within-part degree at
    most Delta', and at most y/2 spread and y/2 witness violations.  It is
    then fixed by deleting every spread violator and the later edge of
    each witness pair, and it succeeds when m' >= m1, where m' is the
    audit's pair count less the within-part pairs of the deleted rows in
    ``sub_rows``.  Each sample is audited once, since the deletion leaves
    nothing for a second audit to find:

    - every spread violator is deleted, and one edge of each witness pair;
      spread is a property of one edge and deleting edges makes no new
      witness pair, so no violation remains;
    - deleting edges never raises a within-part degree.
    """
    d = derive_params(h.m)
    vset = sorted(set(vertex_set))
    rng = random.Random(f"good-partition:{params.seed if seed is None else seed}")
    k = max(h.max_arity, 2)
    m1 = d.p_prime * int(np.count_nonzero(sub_rows)) / 2
    delta_prime = 2 * d.p_prime * k * d.delta
    y = C * m1 / math.sqrt(delta_prime) if delta_prime > 0 else 0.0

    for _ in range(params.retry_budget):
        parts = [set() for _ in range(d.t)]
        for v in vset:
            parts[rng.randrange(d.t)].add(v)
        report = goodness_audit(h, sub_rows, parts)
        if report.within_pair_edges < 2 * m1 or report.max_within_degree > delta_prime:
            continue
        if len(report.violations_spread) > y / 2 or len(report.violations_witness) > y / 2:
            continue
        drop = set(report.violations_spread)
        drop.update(max(i, j) for i, j in report.violations_witness)
        labels = part_labels(h.n_vertices, parts, "good_partition_search")
        lost = within_part_pairs(h, labels, [i for i in drop if sub_rows[i]])[-1]
        m_prime = report.within_pair_edges - int(np.count_nonzero(lost))
        if m_prime < m1:
            continue
        return GoodPartition(
            parts=tuple(frozenset(p) for p in parts),
            m_prime=m_prime,
            m_target=m1,
            deleted_edges=tuple(sorted(drop)),
        )
    raise SearchFailed(f"no good partition within {params.retry_budget} samples")


# --------------------------------------------------------------- drivers


def _greedy_part(vs, weighted_pairs, rng) -> dict:
    """Greedy 2-assignment of one part, its vertices visited in shuffled order.

    A part with no weighted pair still shuffles its order, so later draws
    read the same stream, and gets part 1 throughout, as the greedy's tie
    rule gives it.
    """
    order = sorted(vs)
    rng.shuffle(order)
    if not weighted_pairs:
        return dict.fromkeys(order, 1)
    local = defaultdict(list)
    for u, v, wt in weighted_pairs:
        local[u].append((v, wt))
        local[v].append((u, wt))
    assigned, _ = greedy_on_adjacency(local, order)
    return assigned


def _best_trial(h: Hypergraph, gp: GoodPartition, r: int, params: PipelineParams, trial, claims):
    """The drivers' trial loop: (largest cut over the trials, its metrics on
    h, its ledger).

    The good partition's offending edges are deleted first, leaving hd.
    ``trial(hd, rng)`` draws one exposure and returns None, or (reduction,
    part sets, partial cuts, certify).  The partial cuts are combined on
    the forward instance (with no part left, its conditional-expectations
    cut stands in with a zero promise) and mapped back, and the
    reduction's ``transfer`` carries the forward promise to hd;
    ``certify(metrics, averages, promise_hd)``, when given, runs the
    driver's own checks.  ``claims`` names the two stage entries of the
    ledger.
    """
    hd = h.without_edges(set(gp.deleted_edges))
    best = None
    for t in range(params.trials):
        step = trial(hd, random.Random(f"driver{r}:{params.seed}:{t}"))
        if step is None:
            continue
        red, part_sets, partials, certify = step
        if part_sets:
            fwd_cut, plan = combine_partial_cuts(red.forward, part_sets, partials)
            averages, fwd_excess, promise_fwd = (
                plan.average_excesses, plan.realized_excess, plan.promised
            )
        else:
            fwd_cut = conditional_rcut(red.forward, 2)
            averages, promise_fwd = (), Fraction(0)
            fwd_excess = cut_metrics(red.forward, fwd_cut).excess
        cut, metrics = red.back_map(fwd_cut)
        promise_hd = red.transfer(promise_fwd)
        if certify is not None:
            certify(metrics, averages, promise_hd)
        if best is None or metrics.size > best[1].size:
            best = (cut, metrics, promise_fwd, fwd_excess, promise_hd)

    if best is None:
        raise SearchFailed("no exposure met the conditional-size bar")
    cut, metrics, promise_fwd, fwd_excess, promise_hd = best
    ledger = GuaranteeLedger()
    ledger.add(claims[0], promise_fwd, fwd_excess, scope="stage")
    ledger.add(claims[1], promise_hd, metrics.excess, scope="stage")
    deleted_expectation = uniform_expected_size(h, r) - uniform_expected_size(hd, r)
    metrics = cut_metrics(h, cut)
    ledger.add("deleted-edge restoration", promise_hd - deleted_expectation, metrics.excess)
    ledger.assert_ok()
    return cut, metrics, ledger


def _double_exposure(h: Hypergraph, w, rng, params: PipelineParams):
    """First doubled exposure of the vertices outside W meeting E[Z], or None.

    Each draw rho is tested on h alone, E[Z | rho] >= E[Z], before anything
    is built; only the accepted draw goes through ``hpart_double``, whose
    back-map certifies the value it reads off its forward instance
    against the same oracle.
    """
    outside = [v for v in range(h.n_vertices) if v not in w]
    base = uniform_expected_size(h, 2)
    for _ in range(params.retry_budget):
        rho = {v: rng.choice((1, 2)) for v in outside}
        if partial_average_size(h, PartialCut(2, rho)) >= base:
            return hpart_double(h, w, rho)
    return None


def driver_3cut(
    h: Hypergraph, u_set, params: PipelineParams
) -> tuple[Cut, CutMetrics, GuaranteeLedger]:
    """3-cut via part-3 exposure, per-part greedy cuts, and swap combination:
    (cut, its metrics, ledger)."""
    if h.edge_array.shape[1] > 3:  # the widest edge
        raise DriverInapplicable("driver_3cut needs edge sizes at most 3")
    u_set = set(u_set)
    inside = h.inside_rows(u_set)
    k = max(h.max_arity, 1)
    if np.count_nonzero(inside) < h.m / (4 * k):
        raise DriverInapplicable("induced core holds too few edges")
    gp = good_partition_search(h, inside, u_set, params, seed=f"d3:{params.seed}")
    part_of = {v: i for i, p in enumerate(gp.parts) for v in p}

    def trial(hd, rng):
        rho = {v: 3 for v in range(h.n_vertices) if rng.random() < 1 / 3}
        red = hpart_expose(hd, 3, rho, keep=2)  # its back-map certifies the transfer
        # forward edges are pairs of starred vertices
        internal = defaultdict(list)
        for u, v in red.forward.edges:
            pu = part_of.get(u)
            if pu is not None and pu == part_of.get(v):
                internal[pu].append((u, v, 1))
        part_sets = []
        partials = []
        for i, p in enumerate(gp.parts):
            star = {v for v in p if v not in rho}
            if star:
                part_sets.append(star)
                partials.append(_greedy_part(star, internal.get(i, ()), rng))
        return red, part_sets, partials, None

    return _best_trial(
        h, gp, 3, params, trial, ("combined per-part greedy gains", "part-3 exposure transfer")
    )


def driver_2cut(
    h: Hypergraph, params: PipelineParams, u_set=None
) -> tuple[Cut, CutMetrics, GuaranteeLedger]:
    """2-cut via the doubled-exposure construction and weighted greedy parts:
    (cut, its metrics, ledger)."""
    n = h.n_vertices
    k = max(h.max_arity, 2)
    if u_set is not None and set(u_set) != set(range(n)):
        return _driver_2cut_wrapped(h, params, set(u_set))

    is_big = h.edge_sizes >= 4
    if np.count_nonzero(is_big) < h.m / (4 * k):
        raise DriverInapplicable("too few edges of size >= 4")
    gp = good_partition_search(h, is_big, range(n), params, seed=f"d2:{params.seed}")
    kept = is_big.copy()
    kept[list(gp.deleted_edges)] = False
    kept = np.flatnonzero(kept)
    # per kept >=4-edge with a doubled part: the edge and its two inside
    # vertices; the search deleted every edge with 2 or more within-part
    # pairs (property iii), so that pair is the edge's only one
    _, vertex, i, j, together = within_part_pairs(h, part_labels(n, gp.parts, "driver_2cut"), kept)
    r, c = np.nonzero(together)
    paired = [
        (h.edges[e], (u, v))
        for e, u, v in zip(kept[r].tolist(), vertex[r, i[c]].tolist(), vertex[r, j[c]].tolist())
    ]

    def trial(hd, rng):
        w_best = None
        for _ in range(params.retry_budget):
            w = {v for v in range(n) if rng.random() < 0.5}
            gi_total = sum(
                1
                for e, inside in paired
                if all(v in w for v in inside)
                and sum(1 for v in e if v not in w) >= 2
            )
            if w_best is None or gi_total > w_best[0]:
                w_best = (gi_total, w)
            if gi_total >= max(1.0, gp.m_prime / 32):
                break
        _, w = w_best

        red = _double_exposure(hd, w, rng, params)
        if red is None:
            return None
        part_sets = [vs for vs in ({v for v in p if v in w} for p in gp.parts) if vs]
        wgs = weighted_reduce(red.forward, part_sets)
        partials = [_greedy_part(vs, wg.weights, rng) for vs, wg in zip(part_sets, wgs)]

        def certify(metrics, averages, promise_hd):
            weighted_identity_check(wgs, partials, averages)
            if metrics.excess < promise_hd:
                raise GuaranteeViolation("doubled-exposure promise missed")

        return red, part_sets, partials, certify

    return _best_trial(
        h, gp, 2, params, trial, ("combined weighted greedy gains", "doubled exposure transfer")
    )


def _driver_2cut_wrapped(h: Hypergraph, params: PipelineParams, u_set: set):
    """Remove the bad vertices first: expose them, solve the doubled instance."""
    red = _double_exposure(h, u_set, random.Random(f"nobad:{params.seed}"), params)
    if red is None:
        raise SearchFailed("no exposure of the bad vertices met the bar")
    inner_cut, _, inner_ledger = driver_2cut(red.forward, params, u_set=None)
    best, metrics, ledger = _carry_back(
        red, inner_cut, inner_ledger, "inner ", "bad-vertex exposure transfer"
    )
    ledger.assert_ok()
    return best, metrics, ledger


# --------------------------------------------------------------- chromatic


def chromatic_cut(h: Hypergraph, r: int, trials: int, seed) -> tuple[Cut, CutMetrics, int]:
    """Best of random r-splits of a greedy strong colouring's classes:
    (cut, its metrics, number of colours)."""
    if trials < 1:
        raise InvalidParams("trials must be >= 1")
    g = clique_expand(h)
    neighbours: list[set] = [set() for _ in range(h.n_vertices)]
    for u, v, _ in g.weights:
        neighbours[u].add(v)
        neighbours[v].add(u)
    order = sorted(range(h.n_vertices), key=lambda v: (-len(neighbours[v]), v))
    colour = [-1] * h.n_vertices
    for v in order:
        taken = {colour[u] for u in neighbours[v] if colour[u] >= 0}
        c = 0
        while c in taken:
            c += 1
        colour[v] = c
    chi = max(colour, default=-1) + 1
    padded = chi + (-chi) % r
    classes = list(range(padded))

    rng = random.Random(f"chromatic:{seed}")
    per = padded // r

    def draw() -> Cut:
        rng.shuffle(classes)
        group = {cls: idx // per + 1 for idx, cls in enumerate(classes)}
        return Cut(r, tuple(group[colour[v]] for v in range(h.n_vertices)))

    return *best_cut(h, (draw() for _ in range(trials))), chi


def chromatic_route(h: Hypergraph, r: int, params: PipelineParams) -> Route:
    """``solve``'s chromatic route, with its advisory line."""
    cut, metrics, chi = chromatic_cut(h, r, params.trials, params.seed)
    return Route.of("chromatic", cut, metrics, f"chromatic balance (chi={chi})")


def engine_order(h: Hypergraph, params: PipelineParams) -> list[int]:
    """The vertex order of the deferred engine on h, and of the greedy at r = 2."""
    return order_for_W(h, min(params.trials, 8), params.seed)


def es_route(h: Hypergraph, r: int, params: PipelineParams, order=None) -> Route:
    """``solve``'s deferred-engine route, with its promise line.

    At r = 2 the engine's 2-cut ("es"); at r = 3 on a 3-uniform instance
    that 2-cut lifted by opening a third part ("es-lift"); otherwise the
    engine's 2-cut of the first viable exposure of parts {3..r}, merged
    back ("es-expose"), or ``SearchFailed`` when none is.  The first two
    run on ``order``, ``engine_order`` unless the caller already has it.
    """
    if r == 2 or (r == 3 and h.edges_all_of_size(3)):
        c2, es_ledger = erdos_selfridge_2cut(h, engine_order(h, params) if order is None else order)
        if r == 2:
            claim, promise = "deferred conditional expectations", es_ledger.guaranteed_excess
            return Route.of("es", c2, cut_metrics(h, c2), claim, promise)
        lifted = lift_2cut_to_3cut(h, c2)
        claim = "third-part lift of the deferred engine"
        promise = Fraction(8, 27) * es_ledger.realized_excess
        return Route.of("es-lift", lifted, cut_metrics(h, lifted), claim, promise)
    for _, red in _exposures(h, r, 2, "es-expose", params):
        c2, es_ledger = erdos_selfridge_2cut(red.forward, order_for_W(red.forward, 4, params.seed))
        merged, metrics = red.back_map(c2)
        promise = red.transfer(es_ledger.guaranteed_excess)
        return Route.of("es-expose", merged, metrics, "exposure + deferred engine", promise)
    raise SearchFailed("no viable exposure for the deferred engine")


def greedy_route(h: Hypergraph, order) -> Route:
    """Greedy 2-cut of the pair expansion in ``order``, then single flips.

    On a 3-graph the triangle expansion certifies the cut, and the route's
    line promises its transfer of half the greedy gains, as each cut
    triangle cuts two of its pairs; on any other instance the pair
    expansion promises nothing, and the route writes no line.
    """
    if h.edges_all_of_size(3):
        red = expand_3graph(h)
        greedy, gl = greedy_order_cut(red.forward, order)
        cut, metrics = red.back_map(flip_local_search(red.forward, greedy))
        promise = red.transfer(gl.realized_excess)
        return Route.of("greedy-flip", cut, metrics, "triangle-expansion greedy gains (halved)", promise)
    mg = clique_expand(h)
    greedy, _ = greedy_order_cut(mg, order)
    cut = flip_local_search(mg, greedy)
    return Route.of("greedy-flip", cut, cut_metrics(h, cut))


# --------------------------------------------------------------- solve


def solve(h: Hypergraph, r: int, params: PipelineParams | None = None) -> tuple[Cut, GuaranteeLedger]:
    """Best cut across every applicable route, with a verified ledger.

    Always runs the conditional-expectations and chromatic baselines, so
    the returned excess is never negative; the structure-dependent
    drivers add their own deterministic promises when they apply.  The
    ledger holds each route's lines in run order, the driver's under
    "pipeline: ", then the line of the best route's cut after local moves.
    """
    params = params or PipelineParams()
    if h.m == 0:
        raise InvalidParams("instance has no edges")
    k = check_parts(h, r)
    cut = conditional_rcut(h, r)
    routes = [
        Route.of("cond-exp", cut, cut_metrics(h, cut), "conditional-expectations baseline", Fraction(0)),
        chromatic_route(h, r, params),
    ]
    try:  # the order search, or at r >= 3 the exposure, can fail
        order = engine_order(h, params) if r == 2 else None
        routes.append(es_route(h, r, params, order))
        if r == 2 and (h.edges_all_of_size(2) or h.edges_all_of_size(3)):
            routes.append(greedy_route(h, order))
    except SearchFailed:
        pass

    sr = codegree_structure(h)
    if sr.branch == "matching-cut":
        cut, metrics = conditioned_matching_cut(h, sr.matching, r, params.trials, params.seed)
        claim = f"conditioned matching cut ({len(sr.matching)} pairs)"
        routes.append(Route.of("matching-cut", cut, metrics, claim))
    complement = sorted(set(range(h.n_vertices)) - sr.u_set)
    if len(complement) >= r:
        cut, metrics = dense_subset_cut(h, complement, r, params.trials, params.seed)
        routes.append(Route.of("dense-subset", cut, metrics, "equitable cut of the heavy complement"))
    try:
        routes.append(_dispatch_driver(h, r, k, sr, params))
    except (SearchFailed, DriverInapplicable):
        pass

    ledger = GuaranteeLedger()
    for route in routes:
        ledger.extend(route.ledger, prefix="pipeline: " if route.name == "pipeline" else "")
    top = min(routes, key=lambda route: (-route.metrics.size, route.name))
    best = point_local_search(h, top.cut)
    final = cut_metrics(h, best)
    ledger.add("best-of selection with local moves", ledger.instance_promise(), final.excess)
    ledger.assert_ok()
    return best, ledger


def check_parts(h: Hypergraph, r: int) -> int:
    """k = max(max_arity, 2), after checking that 2 <= r <= k."""
    k = max(h.max_arity, 2)
    if not (2 <= r <= k):
        raise InvalidParams(f"need 2 <= r <= k, got r={r}, k={k}")
    return k


def _exposures(h: Hypergraph, r: int, keep: int, label: str, params: PipelineParams):
    """Random exposures of parts {keep+1..r}, up to ``params.retry_budget`` draws.

    Each vertex stays starred with probability keep/r, else takes a
    uniform exposed part.  Each draw is built, and (rho, exposure) is
    yielded when its average excess is nonnegative and its forward
    instance keeps an edge; the exposure's back-map certifies that
    average excess, which its ``transfer`` adds to a forward promise.
    """
    rng = random.Random(f"{label}:{params.seed}")
    for _ in range(params.retry_budget):
        rho = {}
        for v in range(h.n_vertices):
            if rng.random() >= keep / r:
                rho[v] = rng.randint(keep + 1, r)
        red = hpart_expose(h, r, rho, keep=keep)
        if red.average_excess >= 0 and red.forward.m:
            yield rho, red


def _carry_back(red, sub_cut, sub_ledger, prefix: str, claim: str):
    """Map a cut of ``red.forward`` and its ledger back to the original instance:
    (cut, the metrics the back-map certified, ledger).

    The sub-ledger's entries are kept as stage claims under ``prefix``;
    one instance line ``claim`` promises ``red.transfer`` of the
    sub-ledger's instance promise and realizes the certified excess.
    """
    cut, metrics = red.back_map(sub_cut)
    ledger = GuaranteeLedger()
    ledger.extend(sub_ledger, prefix=prefix, demote=True)
    ledger.add(claim, red.transfer(sub_ledger.instance_promise()), metrics.excess)
    return cut, metrics, ledger


def _dispatch_driver(h, r, k, sr: StructureReport, params) -> Route:
    """The structural driver fitting (r, k) as the route "pipeline", certified
    end to end; ``DriverInapplicable`` with the reason when none fits."""
    if sr.branch == "matching-cut":
        raise DriverInapplicable("no driver on the matching-cut branch")
    if r == 3 and k == 3:
        found = driver_3cut(h, sr.u_set, params)
    elif r == 2 and k >= 4:
        found = driver_2cut(h, params, u_set=sr.u_set)
    elif 3 <= r <= k - 2:
        found = _driver_expose(h, r, 2, sr, params)
    elif r == k - 1 and k >= 4:
        if not h.edges_all_of_size(k):
            raise DriverInapplicable("subset expansion needs a k-uniform instance")
        red = rgraph_expand(h, r)
        sub_cut, sub_ledger = solve(red.forward, r, params)
        found = _carry_back(red, sub_cut, sub_ledger, "subset-expansion ", "subset-expansion halving")
    elif r == k and k > 3:
        found = _driver_expose(h, r, 3, sr, params)
    else:
        raise DriverInapplicable(f"no driver for r={r}, k={k}")
    return Route("pipeline", *found)


def _driver_expose(h, r, keep, sr, params):
    """Expose parts {keep+1..r}, solve what is left, and merge it back.

    With keep = 2 (r <= k-2) the mixed 2-cut driver runs on the forward
    instance, on its starred core vertices; with keep = 3 (r = k > 3) the
    forward instance is a 3-multigraph, and ``solve`` cuts it in 3.  The
    first draw whose solve succeeds is carried back.
    """
    for rho, red in _exposures(h, r, keep, f"expose{keep}", params):
        try:
            if keep == 3:
                sub_cut, sub_ledger = solve(red.forward, 3, params)
            else:
                stars = {v for v in range(h.n_vertices) if v not in rho}
                u = stars & sr.u_set
                sub_cut, _, sub_ledger = driver_2cut(
                    red.forward, params, u_set=None if u == stars else u
                )
        except (SearchFailed, DriverInapplicable):
            continue
        return _carry_back(red, sub_cut, sub_ledger, "exposed ", "exposure transfer")
    raise SearchFailed(f"no viable exposure for a {keep}-cut of the forward instance")
