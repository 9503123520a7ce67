"""Deterministic cut engines.

Conditional expectations with deferred (undetermined) vertices, greedy
cuts over vertex orderings, flip local search, and derandomized
combination of per-part partial cuts.  The three conditional-expectation
engines (``erdos_selfridge_2cut``, ``combine_partial_cuts``,
``conditional_rcut``) take a ``Hypergraph`` and read multicolour
probabilities from ``cutspace.multicolour_table``, an integer table
scaled by r^(k-1); the arithmetic stays exact.  The vertex-by-vertex
engines keep per edge the mask of parts already hit (part p is bit p-1)
and the number of vertices still uniform.  ``combine_partial_cuts`` needs
no mask: an edge's first pending block moves it the same way under either
swap, and each later one adds one of two table differences while the
edge shows a single colour, so its swap pass visits only those later
(edge, block) units, set up with numpy.  Each engine cross-checks its
own bookkeeping: the realized size, counted by ``cutspace.cut_metrics``
and not by the engine, times the scale against the integer running
expectation; it raises ``GuaranteeViolation`` / ``CertificateError`` on
any mismatch.
The greedy and flip engines take a ``WeightedGraph`` (a multigraph has
integer weights) and read its cut weight from ``crossing_weight``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

import numpy as np

from .core import Hypergraph, WeightedGraph
from .cutspace import (
    Cut,
    cut_metrics,
    multicolour_table,
    partial_average_excesses,
    uniform_expected_size,
)
from .errors import (
    CertificateError,
    GuaranteeViolation,
    InvalidCut,
    InvalidParams,
    PlanInvalid,
    SearchFailed,
)


@dataclass(frozen=True)
class EsLedger:
    """Per-run record of the deferred conditional-expectations engine."""

    w_set: frozenset
    guaranteed_excess: Fraction
    realized_excess: Fraction
    expectation_trace: tuple[Fraction, ...]  # E Z_1 .. E Z_{n+1}


@dataclass(frozen=True)
class GreedyLedger:
    realized_excess: Fraction


@dataclass(frozen=True)
class CombinePlan:
    average_excesses: tuple
    realized_excess: Fraction


def first_two_vertex_set(h: Hypergraph, order) -> frozenset:
    """Vertices among the first two, in the order, of some edge of size >= 3."""
    n = h.n_vertices
    by_rank = np.array(order, dtype=np.intp)
    pos = np.empty(n + 1, dtype=np.min_scalar_type(n))
    pos[by_rank] = np.arange(n)
    pos[n] = n  # the padding sentinel comes after every vertex
    ranks = pos[h.edge_array][h.edge_sizes >= 3]
    if not len(ranks):
        return frozenset()
    # each row's two smallest positions; at least three are real vertices
    chosen = np.zeros(n, dtype=bool)
    chosen[np.partition(ranks, 1, axis=1)[:, :2]] = True
    return frozenset(by_rank[chosen].tolist())


def erdos_selfridge_2cut(h: Hypergraph, order, on_step=None) -> tuple[Cut, EsLedger]:
    """Conditional-expectations 2-cut with deferred vertices.

    Processes vertices in the given order.  A vertex whose every joint
    assignment with the pending deferred vertices leaves the conditional
    expectation unchanged stays deferred; otherwise the maximizing
    assignment is applied to the vertex together with every deferred
    vertex sharing an uncertain edge with it.  Leftover deferred vertices
    go to part 1.  Ties prefer part 1, deciding the current vertex first
    and then its deferred partners in ascending id order.

    The realized excess provably meets (|D| + sum |U_v|) / 2^k, which is
    at least |W|/2^k for the first-two vertex set W of the order.

    ``on_step(v, assigned, expectation)`` is called after each step with
    the vertex just processed, a copy of the determined assignments, and
    the exact conditional expectation at that point (v=None before the
    first step).
    """
    n = h.n_vertices
    if sorted(order) != list(range(n)):
        raise InvalidParams("order must be a permutation of all vertices")
    k_eff = max(h.edge_array.shape[1], 2)
    scale = 1 << (k_eff - 1)
    table = multicolour_table(2, k_eff)

    edges = h.edges
    inc = h.incidence()
    hit = [0] * len(edges)
    free = h.edge_sizes.tolist()
    prob = [table[2][f] for f in free]

    part = [0] * n  # 0 = unassigned
    deferred: set[int] = set()
    ez = sum(prob)
    trace = [ez]
    credit = 0  # |D| + sum |U_v|: determined vertices plus their deferred partners

    def snapshot(v):
        if on_step is not None:
            assigned = {w: p for w, p in enumerate(part) if p}
            on_step(v, assigned, Fraction(ez, scale))

    def uncertain(ei: int) -> bool:
        return 0 < prob[ei] < scale

    def hypothetical(ei: int, extra: dict) -> int:
        mask = hit[ei]
        for p in extra.values():
            mask |= 1 << (p - 1)
        return table[2 - mask.bit_count()][free[ei] - len(extra)]

    def assign(w: int, p: int) -> None:
        nonlocal ez
        part[w] = p
        for ei in inc[w]:
            ez -= prob[ei]
            hit[ei] |= 1 << (p - 1)
            free[ei] -= 1
            prob[ei] = table[2 - hit[ei].bit_count()][free[ei]]
            ez += prob[ei]

    snapshot(None)
    for v in order:
        unc_v = [ei for ei in inc[v] if uncertain(ei)]
        u_v: set[int] = set()
        for ei in unc_v:
            partners = [u for u in edges[ei] if u in deferred]
            if len(partners) > 1:
                raise CertificateError("uncertain edge touches two deferred vertices")
            u_v.update(partners)
        unc_u = {u: [ei for ei in inc[u] if uncertain(ei)] for u in u_v}
        solo_v = [ei for ei in unc_v if not any(u in deferred for u in edges[ei])]

        best_delta = None
        best_cv = 1
        best_cu: dict[int, int] = {}
        for cv in (1, 2):
            delta = sum(hypothetical(ei, {v: cv}) - prob[ei] for ei in solo_v)
            choice: dict[int, int] = {}
            for u in sorted(u_v):
                best_u = None
                for cu in (1, 2):
                    d = 0
                    for ei in unc_u[u]:
                        extra = {u: cu}
                        if v in edges[ei]:
                            extra[v] = cv
                        d += hypothetical(ei, extra) - prob[ei]
                    if best_u is None or d > best_u[0]:
                        best_u = (d, cu)
                delta += best_u[0]
                choice[u] = best_u[1]
            if best_delta is None or delta > best_delta:
                best_delta, best_cv, best_cu = delta, cv, choice

        if best_delta < 0:
            raise CertificateError("maximal conditional expectation fell below the average")
        if best_delta < len(u_v):  # scaled units: |U_v| / 2^(k-1)
            raise CertificateError("step gain fell below the deferred-partner bound")
        if best_delta == 0:
            if u_v:
                raise CertificateError("zero-gain step with nonempty deferred neighbourhood")
            deferred.add(v)
        else:
            credit += 1 + len(u_v)
            before = ez
            assign(v, best_cv)
            for u in sorted(u_v):
                assign(u, best_cu[u])
                deferred.remove(u)
            if ez != before + best_delta:
                raise CertificateError("factorized maximum disagrees with applied update")
        trace.append(ez)
        snapshot(v)

    for w in list(deferred):
        part[w] = 1

    cut = Cut(2, tuple(part))
    realized = cut_metrics(h, cut).size
    if realized * scale != ez:
        raise CertificateError("realized size differs from final conditional expectation")

    w_set = first_two_vertex_set(h, order)
    if credit < len(w_set):
        raise GuaranteeViolation("determined-vertex credit fell below |W|")
    guaranteed = Fraction(credit, 2**k_eff)
    realized_excess = Fraction(realized * scale - trace[0], scale)
    if realized_excess < guaranteed:
        raise GuaranteeViolation(
            f"realized excess {realized_excess} below guarantee {guaranteed}"
        )
    ledger = EsLedger(
        w_set=w_set,
        guaranteed_excess=guaranteed,
        realized_excess=realized_excess,
        expectation_trace=tuple(Fraction(t, scale) for t in trace),
    )
    return cut, ledger


def order_for_W(h: Hypergraph, trials: int, seed) -> list[int]:
    """Best of ``trials`` random orders by |W|, retried until |W| >= 2n'/k.

    n' counts vertices lying in edges of size >= 3; the threshold is
    guaranteed reachable because a uniformly random order meets it in
    expectation.
    """
    if trials < 1:
        raise InvalidParams("trials must be >= 1")
    rng = random.Random(f"order-w:{seed}")
    n_prime = len(h.vertices_in_edges_of_size_at_least(3))
    k_eff = h.edge_array.shape[1] or 2
    best_order: list[int] = list(range(h.n_vertices))
    best_w = len(first_two_vertex_set(h, best_order))
    attempts = 0
    cap = max(1000, 200 * trials)
    while True:
        attempts += 1
        cand = list(range(h.n_vertices))
        rng.shuffle(cand)
        w = len(first_two_vertex_set(h, cand))
        if w > best_w:
            best_w, best_order = w, cand
        if attempts >= trials and best_w * k_eff >= 2 * n_prime:
            return best_order
        if attempts >= cap:
            raise SearchFailed("order search exhausted its cap")


def greedy_on_adjacency(adj: dict, order) -> tuple[dict, Fraction]:
    """Greedy 2-cut over an adjacency mapping restricted to ``order``.

    ``adj[v]`` lists (neighbour, weight) with neighbours inside ``order``.
    Returns (assignment, sum of the per-step gains |w1 - w2|/2); the rule
    and tie-handling match ``greedy_order_cut``.
    """
    part: dict = {}
    gain = 0
    for v in order:
        w1 = w2 = 0
        for nb, w in adj.get(v, ()):
            side = part.get(nb)
            if side == 1:
                w1 += w
            elif side == 2:
                w2 += w
        part[v] = 1 if w2 >= w1 else 2
        gain += abs(w1 - w2)
    return part, Fraction(gain, 2)


def greedy_order_cut(g: WeightedGraph, order) -> tuple[Cut, GreedyLedger]:
    """One-pass greedy 2-cut: each vertex joins the side cutting more weight.

    Ties go to part 1 (the side the first vertex lands on).  The realized
    size is exactly total/2 + sum |e_1(v) - e_2(v)|/2.
    """
    n = g.n_vertices
    if sorted(order) != list(range(n)):
        raise InvalidParams("order must be a permutation of all vertices")
    assigned, excess = greedy_on_adjacency(dict(enumerate(g.adjacency())), list(order))
    cut = Cut(2, tuple(assigned[v] for v in range(n)))
    if 2 * g.crossing_weight(cut.assignment) != g.total_weight + 2 * excess:
        raise CertificateError("greedy size does not match total/2 + gains")
    return cut, GreedyLedger(excess)


def flip_local_search(g: WeightedGraph, start: Cut) -> Cut:
    """Single-vertex flips until no flip increases the 2-cut weight.

    Terminates because the cut weight strictly increases with each flip
    and is bounded by the total weight.
    """
    adj, n = g.adjacency(), g.n_vertices
    if start.r != 2 or len(start.assignment) != n:
        raise InvalidCut("flip search needs a 2-cut on the instance's vertex set")
    part = list(start.assignment)
    improved = True
    while improved:
        improved = False
        for v in range(n):
            same = sum(w for nb, w in adj[v] if part[nb] == part[v])
            cross = sum(w for nb, w in adj[v] if part[nb] != part[v])
            if same > cross:
                part[v] = 3 - part[v]
                improved = True
    return Cut(2, tuple(part))


def _swap_units(rows: np.ndarray, units: np.ndarray, pending: np.ndarray) -> list[list[int]]:
    """The units a swap choice can weigh on, as records sorted by block.

    ``units`` marks, in the sorted code rows (code 3*block + colour), one
    vertex per (edge, block) unit of each edge that no bicolour block
    fixes; ``pending`` is each edge's unit count t.  Listed in block
    order, unit j of an edge has u = t - j units after it.  Unit 1 sits in
    column 0 and moves its edge the same way under both swap choices, so
    only units j >= 2 are returned, each as [block, u, first, x, edge,
    prev, y]: ``first`` and ``prev`` are the blocks of the edge's unit 1
    and of unit j-1, and x (y) is 1 when unit j's (unit j-1's) colour
    differs from unit 1's before any swap.
    """
    later = units[:, 1:]
    edge = np.nonzero(later)[0]
    if not edge.size:
        return []
    # codes of unit j, of unit 1, and of the column left of unit j: that is
    # unit j-1 or the same-coloured twin that follows it in its block
    block, colour = np.divmod(np.array([rows[:, 1:][later], rows[edge, 0], rows[:, :-1][later]]), 3)
    u = (pending[:, None] - np.cumsum(units, axis=1))[:, 1:][later]
    fields = np.array(
        [block[0], u, block[1], colour[0] != colour[1], edge, block[2], colour[2] != colour[1]]
    )
    return fields[:, np.argsort(block[0], kind="stable")].T.tolist()


def combine_partial_cuts(h: Hypergraph, parts, partial_cuts) -> tuple[Cut, CombinePlan]:
    """Merge disjoint partial 2-cuts into one cut keeping their total excess.

    Each listed part carries a partial cut on exactly its vertices;
    remaining vertices act as singleton parts.  Each part's labelling is
    kept or transposed; the swaps are chosen sequentially by exact
    conditional expectation with the undecided swaps uniform.  Requires
    every edge to spread over at least |e ∩ (union of parts)| - 1 distinct
    parts; offending edges are reported, the caller removes them first.

    A swap changes the expectation only through the edges the part shares
    with an earlier part, so only those (edge, part) units are visited
    (``_swap_units``); a part with none keeps its labels, as ties do.
    """
    n = h.n_vertices
    parts = [frozenset(p) for p in parts]
    if len(parts) != len(partial_cuts):
        raise InvalidParams("parts and partial cuts must align")
    seen: set[int] = set()
    for p, pc in zip(parts, partial_cuts):
        if p & seen:
            raise InvalidParams("parts must be disjoint")
        seen |= p
        if set(pc) != set(p):
            raise InvalidParams("each partial cut must cover exactly its part")
        if not {*pc.values()} <= {1, 2}:
            raise InvalidCut("partial cuts are 2-cuts")
        if p and (min(p) < 0 or max(p) >= n):
            raise InvalidParams(f"partial cut vertex outside the instance (n={n})")

    # Per vertex, code 3*block + colour; each vertex outside the parts is a
    # singleton block pinned to colour 1; the padding sentinel n sorts last.
    n_blocks = len(parts) + n - len(seen)
    sentinel = 3 * n_blocks
    codes = np.full(n + 1, sentinel, dtype=np.intp)
    codes[[v for pc in partial_cuts for v in pc]] = [
        3 * b + c for b, pc in enumerate(partial_cuts) for c in pc.values()
    ]
    codes[np.flatnonzero(codes[:n] == sentinel)] = 3 * np.arange(len(parts), n_blocks) + 1
    arr = h.edge_array
    rows = np.sort(codes[arr], axis=1)
    real = rows != sentinel
    block = rows // 3
    same_block = np.zeros_like(real)  # same block as the left neighbour
    same_block[:, 1:] = real[:, 1:] & (block[:, 1:] == block[:, :-1])
    # an edge meeting a part c >= 2 times adds c - 1 repeats to its count
    offenders = np.flatnonzero(same_block.sum(axis=1) > 1).tolist()
    if offenders:
        raise PlanInvalid(
            f"{len(offenders)} edges collapse into a single part twice", offenders
        )

    x_values = partial_average_excesses(h, 2, partial_cuts)

    k_eff = arr.shape[1] or 2
    table = multicolour_table(2, k_eff)
    scale = table[0][0]  # probability 1

    # A block meets an edge in at most 2 vertices, so it is bicolour iff its
    # two codes differ, and then the edge shows both colours whatever the
    # swaps.  On any other edge each block is one unit, uniform over the
    # two colours while its swap is undecided; t = 0 marks a fixed edge.
    fixed = (same_block[:, 1:] & (rows[:, 1:] != rows[:, :-1])).any(axis=1)
    units = real & ~same_block & ~fixed[:, None]
    pending = units.sum(axis=1)
    counts = np.bincount(pending, minlength=k_eff + 1).tolist()
    expected_sigma = scale * counts[0] + sum(c * table[2][t] for t, c in enumerate(counts))

    base = uniform_expected_size(h, 2)
    promised = sum(x_values, Fraction(0))
    if Fraction(expected_sigma, scale) != base + promised:
        raise CertificateError("swap-uniform expectation != base + sum of average excesses")

    # Unit 1 takes its edge from table[2][t] to table[1][t-1] under either
    # swap.  Unit j >= 2, while units 1..j-1 show one colour, adds agree[u]
    # if it shows that colour too and dis[u] if not; once both show, 0.
    running = expected_sigma + sum(
        c * (table[1][t - 1] - table[2][t]) for t, c in enumerate(counts) if t
    )
    agree = [table[1][u] - table[1][u + 1] for u in range(k_eff - 1)]
    dis = [table[0][u] - table[1][u + 1] for u in range(k_eff - 1)]
    swaps = [0] * n_blocks
    dead: set[int] = set()  # edges already showing both colours
    for b, units_b in groupby(_swap_units(rows, units, pending), itemgetter(0)):
        keep = swap = 0
        for _, u, first, x, i, prev, y in units_b:
            if i in dead or y != swaps[first] ^ swaps[prev]:  # or unit j-1 disagreed
                dead.add(i)
                continue
            if x == swaps[first]:  # kept, the unit shows unit 1's colour
                keep += agree[u]
                swap += dis[u]
            else:
                keep += dis[u]
                swap += agree[u]
        if swap > keep:
            swaps[b] = 1
            running += swap
        else:
            running += keep

    colour = codes[:n] % 3
    flipped = np.array(swaps, dtype=bool)[codes[:n] // 3]
    cut = Cut(2, tuple(np.where(flipped, 3 - colour, colour).tolist()))

    realized = cut_metrics(h, cut).size
    if realized * scale != running:
        raise CertificateError("combined realized size differs from final expectation")
    realized_excess = realized - base
    if realized_excess < promised:
        raise GuaranteeViolation(
            f"combined excess {realized_excess} below promised {promised}"
        )
    return cut, CombinePlan(average_excesses=x_values, realized_excess=realized_excess)


def conditional_rcut(h: Hypergraph, r: int, order=None) -> Cut:
    """Plain conditional-expectations r-cut; realized excess is never negative.

    Assigns each vertex, in order, to the part maximizing the exact
    conditional expected number of multicoloured edges with the remaining
    vertices uniform over all r parts.  Ties prefer the smallest part id.
    """
    if r < 2:
        raise InvalidParams("need r >= 2")
    n = h.n_vertices
    seq = list(range(n)) if order is None else list(order)
    inc = h.incidence()
    k = h.edge_array.shape[1] or 1
    table = multicolour_table(r, k)
    scale = table[0][0]  # probability 1
    hit = [0] * len(h.edges)
    freec = h.edge_sizes.tolist()
    prob = [table[r][f] for f in freec]
    expected = sum(prob)
    base = expected
    parts = range(1, r + 1)
    assignment = [1] * n
    for v in seq:
        gain = [0] * (r + 1)
        for ei in inc[v]:
            mask, f, now = hit[ei], freec[ei] - 1, prob[ei]
            for p in parts:
                gain[p] += table[r - (mask | 1 << (p - 1)).bit_count()][f] - now
        best = max(parts, key=gain.__getitem__)  # first maximum: smallest part
        assignment[v] = best
        for ei in inc[v]:
            expected -= prob[ei]
            hit[ei] |= 1 << (best - 1)
            freec[ei] -= 1
            prob[ei] = table[r - hit[ei].bit_count()][freec[ei]]
            expected += prob[ei]
    cut = Cut(r, tuple(assignment))
    realized = cut_metrics(h, cut).size
    if realized * scale != expected:
        raise CertificateError("conditional r-cut bookkeeping mismatch")
    if realized * scale < base:
        raise GuaranteeViolation("conditional r-cut fell below the random baseline")
    return cut


def point_local_search(h: Hypergraph, cut: Cut) -> Cut:
    """Move single vertices between parts until no move grows the cut size."""
    r = cut.r
    n = h.n_vertices
    if len(cut.assignment) != n:
        raise InvalidCut("assignment length mismatch")
    inc = h.incidence()
    part = list(cut.assignment)
    # per edge, its vertex count in each part; column 0 stays 0
    labels = np.array((*part, 0), dtype=np.min_scalar_type(r))[h.edge_array]
    cells = np.zeros((h.m, r + 1), dtype=np.min_scalar_type(labels.shape[1]))
    for p in range(1, r + 1):
        cells[:, p] = np.count_nonzero(labels == p, axis=1)
    counts = cells.tolist()
    covered = np.count_nonzero(cells, axis=1).tolist()

    def move_gain(v: int, q: int) -> int:
        p = part[v]
        gain = 0
        for ei in inc[v]:
            c = counts[ei]
            before = covered[ei] == r
            hits = covered[ei]
            if c[p] == 1:
                hits -= 1
            if c[q] == 0:
                hits += 1
            gain += (1 if hits == r else 0) - (1 if before else 0)
        return gain

    improved = True
    while improved:
        improved = False
        for v in range(n):
            best = (0, part[v])
            for q in range(1, r + 1):
                if q == part[v]:
                    continue
                g = move_gain(v, q)
                if g > best[0]:
                    best = (g, q)
            if best[0] > 0:
                p, q = part[v], best[1]
                for ei in inc[v]:
                    c = counts[ei]
                    if c[p] == 1:
                        covered[ei] -= 1
                    c[p] -= 1
                    if c[q] == 0:
                        covered[ei] += 1
                    c[q] += 1
                part[v] = q
                improved = True
    return Cut(r, tuple(part))
