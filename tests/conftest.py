"""Shared fixtures and independent brute-force oracles.

The oracles here enumerate assignments directly or loop over the edges
one at a time, and never call the package's own enumeration or
probability code, so they can check it.  The vertex-by-vertex engine
oracles at the end read ``plain_multicolour_table``, which its own test
pins against enumeration; the lift oracle enumerates its own table.
"""

import math
import random
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest

from hypercut.core import Hypergraph, WeightedGraph, build
from hypercut.cutspace import (
    Cut,
    PartialCut,
    partial_average_size,
    uniform_expected_size,
)
from hypercut.derand import CombinePlan, EsLedger, greedy_on_adjacency
from hypercut.errors import (
    CertificateError,
    GuaranteeViolation,
    InvalidParams,
    InvalidReduction,
    SearchFailed,
)
from hypercut.pipeline import C, GoodnessReport, GoodPartition, derive_params
from hypercut.reductions import hpart_double

FANO_LINES = [
    [0, 1, 2],
    [0, 3, 4],
    [0, 5, 6],
    [1, 3, 5],
    [1, 4, 6],
    [2, 3, 6],
    [2, 4, 5],
]


@pytest.fixture
def fano() -> Hypergraph:
    return build(7, FANO_LINES)


@pytest.fixture
def matching12() -> Hypergraph:
    return build(12, [[3 * i, 3 * i + 1, 3 * i + 2] for i in range(4)])


def brute_force_maxcut(h: Hypergraph, r: int) -> int:
    """Exact max r-cut by full enumeration over r^n assignments."""
    full = set(range(1, r + 1))
    best = 0
    for assign in product(range(1, r + 1), repeat=h.n_vertices):
        size = sum(1 for e in h.edges if {assign[v] for v in e} == full)
        if size > best:
            best = size
    return best


def restricted_growth_strings(n: int, r: int):
    """Every split of n vertices into at most r parts, once, in
    lexicographic order: vertex 0 in part 1, each later vertex in a part
    already used or the next new one.  Vertex v's part is drawn from the
    first min(r, v + 1) parts, and strings that skip a part are dropped."""
    for a in product(*(range(1, min(r, v + 1) + 1) for v in range(n))):
        if all(a[v] <= max(a[:v]) + 1 for v in range(1, n)):
            yield a


def first_optimal_rgs(h: Hypergraph, r: int) -> tuple[int, tuple[int, ...]]:
    """Max r-cut size, and the first restricted-growth string reaching it."""
    best_size, best = -1, ()
    for a in restricted_growth_strings(h.n_vertices, r):
        size = sum(1 for e in h.edges if len({a[v] for v in e}) == r)
        if size > best_size:
            best_size, best = size, a
    return best_size, best


def plain_monotonicity(r: int, k: int, constraints) -> tuple[Fraction, Fraction] | None:
    """(conditional, base) multicolour probabilities of k vertices 0..k-1,
    each uniform over r parts, counted over all r^k assignments: conditioned
    on every (f, l) of ``constraints`` meeting at least l parts, and not
    conditioned.  None when no assignment meets the constraints."""
    good = sat = every = 0
    for a in product(range(r), repeat=k):
        multicolour = len(set(a)) == r
        every += multicolour
        if all(len({a[v] for v in f}) >= l for f, l in constraints):
            sat += 1
            good += multicolour
    if sat == 0:
        return None
    return Fraction(good, sat), Fraction(every, r**k)


def brute_expected_size(h: Hypergraph, fixed: dict, r: int, free_parts=None) -> Fraction:
    """Average cut size over all completions of ``fixed``, enumerated directly.

    Free vertices range over {1..free_parts} (default: all r parts).
    """
    base = r if free_parts is None else free_parts
    free = [v for v in range(h.n_vertices) if v not in fixed]
    full = set(range(1, r + 1))
    total = 0
    count = 0
    for completion in product(range(1, base + 1), repeat=len(free)):
        assign = dict(fixed)
        assign.update(zip(free, completion))
        total += sum(1 for e in h.edges if {assign[v] for v in e} == full)
        count += 1
    return Fraction(total, count)


def plain_cut_size(h, assignment, r: int) -> int:
    """Edges meeting all r parts, counted with a Python set per edge."""
    full = set(range(1, r + 1))
    return sum(1 for e in h.edges if {assignment[v] for v in e} == full)


def stirling_expected_size(h, r: int) -> Fraction:
    """Uniform r-cut expectation: r! S(s, r) / r^s per edge of size s."""
    total = Fraction(0)
    for e in h.edges:
        s = len(e)
        # row[j] = S(i, j) after i rounds of S(i, j) = j S(i-1, j) + S(i-1, j-1)
        row = [1] + [0] * r
        for _ in range(s):
            row = [0] + [j * row[j] + row[j - 1] for j in range(1, r + 1)]
        total += Fraction(row[r] * factorial(r), r**s)
    return total


def plain_multicolour_probability(missing: int, free: int, base: int) -> Fraction:
    """Pr(``free`` vertices uniform over {1..base} hit ``missing`` given parts),
    by inclusion-exclusion over the parts left unhit."""
    return sum(
        (
            Fraction((-1) ** j * comb(missing, j) * (base - j) ** free, base**free)
            for j in range(missing + 1)
        ),
        Fraction(0),
    )


def plain_multicolour_table(r: int, k: int) -> tuple[tuple[int, ...], ...]:
    """``table[missing][free]``: r^(k-1) times ``plain_multicolour_probability``
    over r parts, an integer.  Row r runs to free = k, the other rows to
    k-1: an edge with k free vertices has no part hit yet."""
    rows = []
    for missing in range(r + 1):
        top = k if missing == r else k - 1
        row = [r ** (k - 1) * plain_multicolour_probability(missing, free, r) for free in range(top + 1)]
        assert all(value.denominator == 1 for value in row)
        rows.append(tuple(value.numerator for value in row))
    return tuple(rows)


def plain_average_size(h, assigned: dict, r: int, free_parts=None) -> Fraction:
    """Expected cut size after completing ``assigned``, one edge at a time.

    Free vertices are uniform over {1..free_parts} (default: all r parts).
    Each edge is keyed by the parts its assigned vertices hit and its
    free-vertex count; an edge leaving a part above ``free_parts`` unhit
    can never be multicoloured.
    """
    base = r if free_parts is None else free_parts
    total = Fraction(0)
    for e in h.edges:
        hit = {assigned[v] for v in e if v in assigned}
        free = sum(1 for v in e if v not in assigned)
        missing = [p for p in range(1, r + 1) if p not in hit]
        if any(p > base for p in missing):
            continue
        total += plain_multicolour_probability(len(missing), free, base)
    return total


def plain_average_excesses(h, r: int, assignments) -> tuple[Fraction, ...]:
    """Each assignment's completed average size minus the uniform one."""
    uniform = plain_average_size(h, {}, r)
    return tuple(plain_average_size(h, a, r) - uniform for a in assignments)


# Plain-loop oracles for the array counters in ``core`` and ``derand``:
# each walks the edge tuples one at a time.


def plain_degree_profile(h) -> tuple[list[int], dict, int]:
    """Degrees, codegrees of the pairs that share an edge, and the max degree."""
    deg = [0] * h.n_vertices
    codeg: dict = {}
    for e in h.edges:
        for v in e:
            deg[v] += 1
        for i in range(len(e)):
            for j in range(i + 1, len(e)):
                codeg[(e[i], e[j])] = codeg.get((e[i], e[j]), 0) + 1
    return deg, codeg, max(deg, default=0)


def plain_clique_weights(h) -> tuple:
    """(u, v, multiplicity) of every pair sharing an edge, sorted by (u, v)."""
    _, codeg, _ = plain_degree_profile(h)
    return tuple((u, v, mult) for (u, v), mult in sorted(codeg.items()))


def plain_incidence(h) -> list[list[int]]:
    inc: list[list[int]] = [[] for _ in range(h.n_vertices)]
    for i, e in enumerate(h.edges):
        for v in e:
            inc[v].append(i)
    return inc


def plain_size_histogram(h) -> tuple[int, ...]:
    counts = [0] * (max((len(e) for e in h.edges), default=0) + 1)
    for e in h.edges:
        counts[len(e)] += 1
    return tuple(counts)


def plain_vertices_in_edges_of_size_at_least(h, s: int) -> set[int]:
    out: set[int] = set()
    for e in h.edges:
        if len(e) >= s:
            out.update(e)
    return out


def plain_induced_edges(h, u_set) -> tuple:
    return tuple(e for e in h.edges if all(v in u_set for v in e))


def plain_first_two_vertex_set(h, order) -> frozenset:
    """The first two vertices, by position in ``order``, of each edge of size >= 3."""
    pos = {v: i for i, v in enumerate(order)}
    w: set[int] = set()
    for e in h.edges:
        if len(e) >= 3:
            w.update(sorted(e, key=pos.__getitem__)[:2])
    return frozenset(w)


def plain_combine_partial_cuts(h, partial_cuts):
    """The sequential swap pass ``combine_partial_cuts`` ran before it
    visited only the units that can change a decision.

    Every vertex outside the parts is a singleton block of colour 1.  Per
    edge: the colour mask (3 once a block shows both colours on it) and
    the count of single-colour blocks still pending.  For each block in
    order, both swap choices are scored on every edge the block touches;
    ties keep.  The table is 2^(k-1) times the inclusion-exclusion
    probability, as ``Fraction``s.  Assumes a valid plan: disjoint parts
    and no edge collapsing into one part twice.
    """
    n = h.n_vertices
    blocks = [dict(pc) for pc in partial_cuts]
    seen = {v for pc in blocks for v in pc}
    blocks += [{v: 1} for v in range(n) if v not in seen]
    block_of = {v: b for b, pc in enumerate(blocks) for v in pc}
    k_eff = max((len(e) for e in h.edges), default=0) or 2
    scale = 2 ** (k_eff - 1)
    table = [
        [scale * plain_multicolour_probability(missing, free, 2) for free in range(k_eff + 1)]
        for missing in range(3)
    ]

    edge_mask, n_pending = [], []
    touching = [[] for _ in blocks]  # block -> (edge, colour), edges ascending
    for i, e in enumerate(h.edges):
        shown: dict = {}
        for v in e:
            shown.setdefault(block_of[v], set()).add(blocks[block_of[v]][v])
        edge_mask.append(3 if any(len(cs) == 2 for cs in shown.values()) else 0)
        single = [(b, min(cs)) for b, cs in sorted(shown.items()) if len(cs) == 1]
        n_pending.append(len(single))
        for b, colour in single:
            touching[b].append((i, colour))
    prob = [table[2 - mask.bit_count()][u] for mask, u in zip(edge_mask, n_pending)]

    running = sum(prob)
    swaps = []
    for b in range(len(blocks)):
        deltas = [0, 0]
        for i, colour in touching[b]:
            u = n_pending[i] - 1
            for s, c in ((0, colour), (1, 3 - colour)):
                mask = edge_mask[i] | 1 << (c - 1)
                deltas[s] += table[2 - mask.bit_count()][u] - prob[i]
        s_star = 0 if deltas[0] >= deltas[1] else 1
        swaps.append(s_star)
        for i, colour in touching[b]:
            if s_star == 1:
                colour = 3 - colour
            n_pending[i] -= 1
            edge_mask[i] |= 1 << (colour - 1)
            prob[i] = table[2 - edge_mask[i].bit_count()][n_pending[i]]
        running += deltas[s_star]

    assignment = [1] * n
    for b, pc in enumerate(blocks):
        for v, colour in pc.items():
            assignment[v] = 3 - colour if swaps[b] else colour
    realized = plain_cut_size(h, assignment, 2)
    assert realized * scale == running
    averages = plain_average_excesses(h, 2, partial_cuts)
    plan = CombinePlan(averages, realized - stirling_expected_size(h, 2))
    return Cut(2, tuple(assignment)), plan


# The vertex-by-vertex engines as they ran before they read tallies of
# per-edge state codes: each step walks every incident edge.  They read
# ``plain_multicolour_table`` or ``rainbow_table`` (each pinned against
# enumeration by its own test), never the engines' state codes, and take
# incidences and sizes from the plain loops above.


def plain_erdos_selfridge_2cut(h, order, on_step=None):
    """The deferred engine with per-edge hit masks, free counts and values."""
    n = h.n_vertices
    k_eff = max(max((len(e) for e in h.edges), default=0), 2)
    scale = 1 << (k_eff - 1)
    table = plain_multicolour_table(2, k_eff)

    edges = h.edges
    inc = plain_incidence(h)
    hit = [0] * len(edges)
    free = [len(e) for e in edges]
    prob = [table[2][f] for f in free]

    part = [0] * n  # 0 = unassigned
    deferred: set[int] = set()
    ez = base = sum(prob)
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
        snapshot(v)

    for w in list(deferred):
        part[w] = 1

    cut = Cut(2, tuple(part))
    realized = plain_cut_size(h, part, 2)
    if realized * scale != ez:
        raise CertificateError("realized size differs from final conditional expectation")

    w_set = plain_first_two_vertex_set(h, order)
    if credit < len(w_set):
        raise GuaranteeViolation("determined-vertex credit fell below |W|")
    guaranteed = Fraction(credit, 2**k_eff)
    realized_excess = Fraction(realized * scale - base, scale)
    if realized_excess < guaranteed:
        raise GuaranteeViolation(
            f"realized excess {realized_excess} below guarantee {guaranteed}"
        )
    return cut, EsLedger(w_set, guaranteed, realized_excess)


def plain_conditional_rcut(h, r: int, order=None) -> Cut:
    """Each vertex in turn scores every part on every incident edge."""
    n = h.n_vertices
    seq = list(range(n)) if order is None else list(order)
    inc = plain_incidence(h)
    k = max((len(e) for e in h.edges), default=0) or 1
    table = plain_multicolour_table(r, k)
    scale = table[0][0]  # probability 1
    hit = [0] * len(h.edges)
    freec = [len(e) for e in h.edges]
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
    realized = plain_cut_size(h, assignment, r)
    if realized * scale != expected:
        raise CertificateError("conditional r-cut bookkeeping mismatch")
    if realized * scale < base:
        raise GuaranteeViolation("conditional r-cut fell below the random baseline")
    return Cut(r, tuple(assignment))


def rainbow_table() -> tuple[int, ...]:
    """27 * Pr(a 3-edge ends rainbow), indexed by its packed lift state.

    The state (mask << 4) | (a << 2) | b holds the mask of parts that
    decided vertices hit (part 1 is bit 1, part 2 bit 2, part 3 bit 4) and
    the counts a and b of free vertices in 2-cut parts 1 and 2.  A free
    vertex stays in its part with probability 2/3 and moves to part 3 with
    probability 1/3; summing 2^(stays) over the 2^(a+b) outcomes that
    complete the mask, times 3^(3-a-b), gives 27 * Pr exactly.
    """
    table = [0] * 128
    for mask in range(8):
        for a in range(4):
            for b in range(4 - a):
                free = (1,) * a + (2,) * b
                total = 0
                for moves in range(1 << len(free)):
                    parts, weight = mask, 1
                    for i, p in enumerate(free):
                        if moves >> i & 1:
                            parts |= 4
                        else:
                            parts |= p
                            weight *= 2
                    if parts == 7:
                        total += weight
                table[mask << 4 | a << 2 | b] = total * 3 ** (3 - a - b)
    return tuple(table)


def plain_lift_2cut_to_3cut(h, c2: Cut) -> Cut:
    """The third-part lift, scoring staying and moving on every incident edge."""
    n = h.n_vertices
    side = c2.assignment
    z2 = plain_cut_size(h, side, 2)
    table = rainbow_table()
    inc = plain_incidence(h)
    state = [sum(4 if side[v] == 1 else 1 for v in e) for e in h.edges]
    expected = sum(table[s] for s in state)
    if expected != 8 * z2:
        raise CertificateError("initial lift expectation != (8/27) * 2-cut size")
    moved = [False] * n
    for v in range(n):
        free = 4 if side[v] == 1 else 1  # v leaves its part's free count
        stay_bit, move_bit = side[v] << 4, 4 << 4
        d_stay = d_move = 0
        for ei in inc[v]:
            s = state[ei]
            d_stay += table[(s | stay_bit) - free] - table[s]
            d_move += table[(s | move_bit) - free] - table[s]
        mv = d_move > d_stay  # tie keeps the vertex in its 2-cut part
        moved[v] = mv
        expected += d_move if mv else d_stay
        bit = move_bit if mv else stay_bit
        for ei in inc[v]:
            state[ei] = (state[ei] | bit) - free
    assignment = tuple(3 if moved[v] else side[v] for v in range(n))
    realized = plain_cut_size(h, assignment, 3)
    if realized * 27 != expected:
        raise CertificateError("lift bookkeeping mismatch")
    if realized * 27 < 8 * z2:
        raise CertificateError("lift fell below (8/27) * 2-cut size")
    return Cut(3, assignment)


def plain_point_local_search(h, cut: Cut, moves=None) -> Cut:
    """Single-vertex moves until none grows the cut, with per-edge part
    counts kept in plain lists; the moves follow ``point_local_search``.
    Each move (vertex, new part) is appended to the list ``moves``, if given."""
    r, n = cut.r, h.n_vertices
    inc = plain_incidence(h)
    part = list(cut.assignment)
    counts = [[0] * (r + 1) for _ in h.edges]
    for i, e in enumerate(h.edges):
        for v in e:
            counts[i][part[v]] += 1
    covered = [sum(1 for p in range(1, r + 1) if c[p]) for c in counts]

    def move_gain(v: int, q: int) -> int:
        p = part[v]
        gain = 0
        for ei in inc[v]:
            c = counts[ei]
            hits = covered[ei] - (c[p] == 1) + (c[q] == 0)
            gain += (hits == r) - (covered[ei] == r)
        return gain

    improved = True
    while improved:
        improved = False
        for v in range(n):
            best = (0, part[v])
            for q in range(1, r + 1):
                if q != part[v] and move_gain(v, q) > best[0]:
                    best = (move_gain(v, q), q)
            if best[0] > 0:
                p, q = part[v], best[1]
                if moves is not None:
                    moves.append((v, q))
                for ei in inc[v]:
                    c = counts[ei]
                    covered[ei] += (c[q] == 0) - (c[p] == 1)
                    c[p] -= 1
                    c[q] += 1
                part[v] = q
                improved = True
    return Cut(r, tuple(part))


def plain_goodness_audit(h, h_sub, partition, vertex_set) -> GoodnessReport:
    """The audit ``good_partition_search`` ran before it took row masks:
    property (i) over the edges of a separate sub-instance ``h_sub``, and
    ``vertex_set`` (the union of the parts) passed on its own."""
    vset = frozenset(vertex_set)
    where = {}
    for i, p in enumerate(partition):
        for v in p:
            where[v] = i

    within = 0
    for e in h_sub.edges:
        counts = Counter(where[v] for v in e if v in where)
        within += sum(c * (c - 1) // 2 for c in counts.values())

    within_deg = Counter()
    spread_bad = []
    bucket = defaultdict(list)
    for i, e in enumerate(h.edges):
        by_part = defaultdict(list)
        for v in e:
            if v in where:
                by_part[where[v]].append(v)
        collisions = 0
        for pi, vs in by_part.items():
            if len(vs) < 2:
                continue
            collisions += len(vs) - 1
            for v in vs:
                within_deg[v] += len(vs) - 1
            pair = frozenset(vs)
            for w in e:
                if w in vset and where.get(w) != pi:
                    bucket[(pi, w)].append((i, pair))
        if collisions > 1:
            spread_bad.append(i)
    max_deg = max(within_deg.values(), default=0)

    witness_bad = set()
    for entries in bucket.values():
        for a in range(len(entries)):
            for b in range(a + 1, len(entries)):
                i, pi_pair = entries[a]
                j, pj_pair = entries[b]
                if i == j:
                    continue
                if len(pi_pair | pj_pair) >= 3:
                    witness_bad.add((min(i, j), max(i, j)))

    return GoodnessReport(within, max_deg, tuple(spread_bad), tuple(sorted(witness_bad)))


def plain_good_partition_search(h, h_sub, vertex_set, params, seed=None):
    """The two-audit search ``good_partition_search`` ran before it took row
    masks: a sample that passes the first gates loses its offending edges
    from both instances, and the rebuilt pair is audited again."""
    d = derive_params(h.m)
    vset = sorted(set(vertex_set))
    rng = random.Random(f"good-partition:{params.seed if seed is None else seed}")
    k = max(h.max_arity, 2)
    m1 = d.p_prime * h_sub.m / 2
    delta_prime = 2 * d.p_prime * k * d.delta
    y = C * m1 / math.sqrt(delta_prime) if delta_prime > 0 else 0.0

    for _ in range(params.retry_budget):
        parts = [set() for _ in range(d.t)]
        for v in vset:
            parts[rng.randrange(d.t)].add(v)
        report = plain_goodness_audit(h, h_sub, parts, vset)
        if report.within_pair_edges < 2 * m1 or report.max_within_degree > delta_prime:
            continue
        if len(report.violations_spread) > y / 2 or len(report.violations_witness) > y / 2:
            continue
        drop = set(report.violations_spread)
        drop.update(max(i, j) for i, j in report.violations_witness)
        kept_sub = Counter(h_sub.edges)
        for i in drop:
            e = h.edges[i]
            if kept_sub[e] > 0:
                kept_sub[e] -= 1
        h_del = h.without_edges(drop)
        sub_del_edges = [e for e, c in kept_sub.items() for _ in range(c)]
        sub_del = build(h.n_vertices, sub_del_edges, max_arity=h_sub.max_arity)
        post = plain_goodness_audit(h_del, sub_del, parts, vset)
        if (
            post.violations_spread
            or post.violations_witness
            or post.within_pair_edges < m1
            or post.max_within_degree > delta_prime
        ):
            continue
        return GoodPartition(
            parts=tuple(frozenset(p) for p in parts),
            m_prime=post.within_pair_edges,
            m_target=m1,
            deleted_edges=tuple(sorted(drop)),
        )
    raise SearchFailed(f"no good partition within {params.retry_budget} samples")


def plain_weighted_reduce(h, parts):
    """The edge-by-edge ``weighted_reduce`` that the array pass replaced."""
    parts = list(parts)
    owner: dict[int, int] = {}
    for i, part in enumerate(parts):
        for v in part:
            if v in owner:
                raise InvalidParams("weighted_reduce parts must be disjoint")
            owner[v] = i
    # weights carried as integers scaled by 2^k (each 2^(2-|e|) is k-dyadic)
    k = max((len(e) for e in h.edges), default=2)
    scaled: list[dict[tuple[int, int], int]] = [{} for _ in parts]
    for e in h.edges:
        inside = [v for v in e if v in owner]
        if len(inside) < 2:
            continue
        by_part: dict[int, list[int]] = {}
        for v in inside:
            by_part.setdefault(owner[v], []).append(v)
        for i, vs in by_part.items():
            if len(vs) > 2:
                raise InvalidReduction(
                    f"edge {e} meets part {i} in {len(vs)} > 2 vertices"
                )
            if len(vs) == 2:
                pair = (vs[0], vs[1]) if vs[0] < vs[1] else (vs[1], vs[0])
                scaled[i][pair] = scaled[i].get(pair, 0) + (1 << (k + 2 - len(e)))
    scale = 1 << k
    return [
        WeightedGraph(
            h.n_vertices,
            tuple((u, v, Fraction(w, scale)) for (u, v), w in sorted(ws.items())),
        )
        for ws in scaled
    ]


# The doubled-exposure trial's steps as they ran before they skipped work:
# every draw is built before it is tested, and every part runs the greedy.


def plain_double_exposure(h, w, rng, params):
    """First doubled exposure meeting E[Z], each draw tested on h by the oracle
    before only the accepted one is built."""
    outside = [v for v in range(h.n_vertices) if v not in w]
    base = uniform_expected_size(h, 2)
    for _ in range(params.retry_budget):
        rho = {v: rng.choice((1, 2)) for v in outside}
        if partial_average_size(h, PartialCut(2, rho)) >= base:
            return hpart_double(h, rho)
    return None


def plain_greedy_part(vs, weighted_pairs, rng) -> dict:
    """The greedy 2-assignment of one part, run whether or not it has pairs."""
    local = defaultdict(list)
    for u, v, wt in weighted_pairs:
        local[u].append((v, wt))
        local[v].append((u, wt))
    order = sorted(vs)
    rng.shuffle(order)
    assigned, _ = greedy_on_adjacency(local, order)
    return assigned
