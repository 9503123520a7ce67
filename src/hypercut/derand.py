"""Deterministic cut engines.

Conditional expectations with deferred (undetermined) vertices, greedy
cuts over vertex orderings, flip local search, and derandomized
combination of per-part partial cuts.  The conditional-expectation
engines take a ``Hypergraph`` and keep their arithmetic in exact
integers.  ``conditional_rcut`` and the lift
(``reductions.lift_2cut_to_3cut``) are one pass, ``_conditional_pass``,
over product laws: each vertex is free under a law of integer part
weights until its turn, and each edge carries a small integer code, the
mask of parts it hits and its count of free vertices under each law;
``_law_codes`` builds each code's value, and apart from it its packed
gains and next codes, on first use, never over all 2^r masks.  A step of
the pass or of ``erdos_selfridge_2cut``, which reads the uniform 2-part
codes, sums the packed gains of v's edges' codes, one integer per edge;
the deferred engine weighs each deferred partner by the same sums on its
own edges once v's codes have stepped.  ``point_local_search`` codes
per-part vertex counts and tallies them in a ``Counter``.  No numpy call
runs per vertex.
``combine_partial_cuts`` reads no table: an edge's first pending block
moves it the same way under either swap, and each later one moves it by
plus or minus a power of two while the edge shows a single colour, so
its swap pass visits only those (edge, block) units, set up with numpy,
and sums one signed move per block.  Each engine checks the realized
size, counted by ``cutspace.cut_metrics``, times the scale against its integer running
expectation, raising ``GuaranteeViolation`` / ``CertificateError`` on a
mismatch.  The greedy and flip engines read a ``WeightedGraph``'s cut
weight from ``crossing_weight`` (a multigraph has integer weights).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import compress, product
from operator import mul

import numpy as np

from .core import Hypergraph, WeightedGraph, row_sums
from .cutspace import (
    Cut,
    cut_metrics,
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


@dataclass(frozen=True)
class CombinePlan:
    average_excesses: tuple  # its ``total`` is the combined promise
    realized_excess: Fraction


class _Memo(dict):
    """A dict that fills a missing key with ``fill(key)`` the first time it is read."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        self[key] = value = self.fill(key)
        return value


class _LawTable(_Memo):
    """One law's codes, code -> value, built on first read (see ``_law_codes``).
    ``packed[code]`` holds choice i's gain plus the scale in the ``width`` bits
    from bit ``shifts[i]``, and ``best`` gives a sum's first choice of largest
    sum, with that sum.  A packed entry files choice i's next code in
    ``steps[i]`` as it is built, so a step reads its codes' packed gains first;
    ``pack`` gets the choices, shifts and steps, not the table, so the table
    holds no reference to itself and is freed once dropped."""

    def __init__(self, value, pack, law, width: int):
        super().__init__(value)
        self.choices = tuple(p for p, weight in enumerate(law, 1) if weight)
        self.steps = [{} for _ in self.choices]
        self.width, self.shifts = width, range(0, width * len(self.choices), width)
        self.packed = _Memo(partial(pack, self.choices, self.shifts, self.steps))  # pack(..., code)
        field, two, shifts = (1 << width) - 1, len(self.shifts) == 2, self.shifts

        def best(total: int) -> tuple[int, int]:
            if two:  # one divmod splits two sums
                high, low = divmod(total, field + 1)
                return (1, high) if high > low else (0, low)
            sums = [total >> shift & field for shift in shifts]
            return sums.index(max(sums)), max(sums)

        self.best = best


@lru_cache(maxsize=16)
def _law_codes(laws: tuple, w: int, degree_bits: int) -> tuple[_LawTable, ...]:
    """State codes of edges of at most w vertices, one table per vertex law.

    ``laws[l][p-1]`` is the integer weight of part p under law l; all laws
    share one denominator d, their weights' sum, and a vertex may join the
    parts its law weighs above 0, its choices.  An edge's code ``mask * b^L
    + sum_l f_l * b^l`` (b = w + 1, L laws) holds the mask of parts it hits
    (part p is bit p-1) and its count f_l of vertices free under law l.  Its
    value is d^w * Pr(the free vertices hit every missing part), built bottom
    up as the mean of the values after one free vertex joins a part; parts
    all laws weigh alike are one type, and a value depends only on how many
    of each type are missing.  A table's entry is that value; a free vertex
    of law l joining its i-th choice adds the gain in field i of
    ``packed[code]`` to it and steps the code to ``steps[i][code]``.
    Packed fields hold sums over fewer than 2^degree_bits edges.
    """
    d, base = sum(laws[0]), w + 1
    scale, units, top = d**w, [base**l for l in range(len(laws))], base ** len(laws)
    columns = list(zip(*laws))  # each part's weights, one per law
    types = sorted(set(columns))
    type_bits = [sum(1 << p for p, column in enumerate(columns) if column == t) for t in types]
    part_type = list(map(types.index, columns))

    def fewer(missing: tuple, t: int) -> tuple:
        return missing[:t] + (missing[t] - 1,) + missing[t + 1 :]

    # (missing parts of each type, free counts) -> value; the mean is over the
    # first free vertex's law, and an edge holds a decided vertex per hit part
    counts = list(product(*[range(bits.bit_count() + 1) for bits in type_bits]))
    values = {(missing, 0): 0 if any(missing) else scale for missing in counts}
    for rest in range(1, top):
        free = [rest // unit % base for unit in units]
        l = next(l for l, f in enumerate(free) if f)
        for missing in (m for m in counts if sum(m) + w >= len(columns) + sum(free)):
            same = values[missing, rest - units[l]]
            joins = (c * t[l] * (values[fewer(missing, i), rest - units[l]] - same)
                     for i, (c, t) in enumerate(zip(missing, types)) if c * t[l])
            values[missing, rest] = same + sum(joins) // d

    def key(code: int) -> tuple:  # (missing parts of each type, free counts)
        mask, rest = divmod(code, top)
        return tuple((bits & ~mask).bit_count() for bits in type_bits), rest

    def pack(l: int, choices: tuple, shifts: range, steps: list, code: int) -> int:
        (missing, rest), mask = key(code), code // top
        if not rest // units[l] % base:
            return 0
        now, after, step = values[missing, rest], rest - units[l], code - units[l]
        packed = 0
        for p, shift, filed in zip(choices, shifts, steps):
            bit = 1 << (p - 1)
            if mask & bit:  # the edge already hits part p
                gain, filed[code] = values[missing, after] - now, step
            else:
                gain, filed[code] = values[fewer(missing, part_type[p - 1]), after] - now, step + bit * top
            packed += gain + scale << shift
        return packed

    width = (scale << degree_bits + 1).bit_length()  # each gain plus the scale is at most 2 * scale
    return tuple(
        _LawTable(lambda code: values[key(code)], partial(pack, l), law, width) for l, law in enumerate(laws)
    )


_last_tables: tuple = ()  # what ``_law_tables`` returned last, sized at its next call


def _law_tables(h: Hypergraph, laws: tuple, w: int) -> tuple[_LawTable, ...]:
    """``_law_codes`` with fields for h's largest degree, at least 9 bits (the
    lift's two fields then fit one 30-bit int digit).  When the tables the
    last call returned hold more than 2^12 values, packed entries and filed
    steps (one per packed entry and choice), the cache is cleared first,
    whatever key is asked for, so a table past the cap stays cached only
    until the next call."""
    global _last_tables
    bits = max(9, max(map(len, h.incidence), default=0).bit_length())
    held = sum(len(t) + len(t.packed) * (1 + len(t.choices)) for t in _last_tables)
    if held > 1 << 12:
        _law_codes.cache_clear()
    _last_tables = _law_codes(laws, w, bits)
    return _last_tables


def _conditional_pass(h: Hypergraph, laws: tuple, law_of, order=None) -> tuple[list[int], int, int, int]:
    """Conditional expectations over independent vertex laws (see ``_law_codes``).

    Vertex v is free under law ``law_of[v]`` until its turn, in ``order`` or
    else in id order; then it joins the choice of its law that maximizes the
    expected number of multicoloured edges, the first on ties.  Returns
    (assignment, scale, start, final): each vertex's part, and the expected
    number before the first step and after the last, as integers over scale.
    """
    n, w = h.n_vertices, h.edge_array.shape[1] or 1
    tables, scale = _law_tables(h, laws, w), sum(laws[0]) ** w
    # no part is hit yet: a vertex of law l counts (w + 1)^l = 1 + ((w + 1)^l - 1)
    first, law = h.edge_sizes.astype(np.intp), np.array([*law_of, 0])
    for l in range(1, len(laws)):
        first += ((w + 1) ** l - 1) * row_sums((law == l)[h.edge_array])
    state = first.tolist()
    start = sum(c * tables[0][s] for s, c in enumerate(np.bincount(first).tolist()) if c)
    # each packed sum adds the scale once per edge of its vertex
    expected = start - scale * sum(map(mul, h.size_histogram, range(w + 1)))
    views = [(table.packed.__getitem__, table.choices, table.best, table.steps) for table in tables]
    inc, assignment = h.incidence, [0] * n
    for v in range(n) if order is None else order:
        packed, choices, best_of, steps = views[law_of[v]]
        iv = inc[v]
        best, top = best_of(sum(map(packed, map(state.__getitem__, iv))))
        assignment[v] = choices[best]
        expected += top
        step = steps[best]
        for ei in iv:
            state[ei] = step[state[ei]]
    return assignment, scale, start, expected


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

    Each edge carries its code under the uniform 2-part law (see
    ``_law_codes``), uncertain while its value lies strictly between 0 and
    1, and counts the deferred vertices it holds and sums their ids, so the
    one deferred partner of an uncertain edge is read off directly.  A step
    sums the packed gains of v's codes per choice cv, then steps v's codes
    to cv and adds each partner's largest sum on its own codes, and then
    restores v's codes.  Per edge, v's gain and then u's equal u's gain and
    then v's, and an edge that is not uncertain gains nothing, so this is
    the joint maximum over v and its partners.

    ``on_step(v, assigned, expectation)`` is called after each step with
    the vertex just processed, a copy of the determined assignments, and
    the exact conditional expectation at that point (v=None before the
    first step).
    """
    n = h.n_vertices
    if sorted(order) != list(range(n)):
        raise InvalidParams("order must be a permutation of all vertices")
    k_eff, inc = max(h.edge_array.shape[1], 2), h.incidence
    scale, codes = 1 << k_eff, _law_tables(h, ((1, 1),), k_eff)[0]  # the uniform 2-part law
    state = h.edge_sizes.tolist()  # no part hit yet: the code is the free count
    n_deferred = [0] * h.m  # deferred vertices in each edge
    deferred_sum = [0] * h.m  # the sum of their ids

    part = [0] * n  # 0 = unassigned
    deferred: set[int] = set()
    ez = base = sum(c * codes[s] for s, c in enumerate(h.size_histogram))
    credit = 0  # |D| + sum |U_v|: determined vertices plus their deferred partners

    def snapshot(v):
        if on_step is not None:
            assigned = {w: p for w, p in enumerate(part) if p}
            on_step(v, assigned, Fraction(ez, scale))

    def uncertain(s: int) -> bool:
        return 0 < codes[s] < scale

    def gain_sums(iw) -> list[int]:  # the summed gains of edges iw, per part
        total = sum(map(codes.packed.__getitem__, map(state.__getitem__, iw)))
        return [g - len(iw) * scale for g in divmod(total, 1 << codes.width)[::-1]]

    def step(iw, p: int) -> None:  # edges iw gain a vertex in part p
        to = codes.steps[p - 1]
        for ei in iw:
            state[ei] = to[state[ei]]

    def assign(w: int, p: int, gains: list[int]) -> None:  # gains: gain_sums(inc[w])
        nonlocal ez
        part[w] = p
        ez += gains[p - 1]
        step(inc[w], p)

    def count_deferred(w: int, sign: int) -> None:
        signed = sign * w
        for ei in inc[w]:
            n_deferred[ei] += sign
            deferred_sum[ei] += signed

    snapshot(None)
    for v in order:
        iv = inc[v]
        gains_v = gain_sums(iv)  # per choice of v's part, on all of v's edges
        u_v: set[int] = set()
        for ei in compress(iv, map(n_deferred.__getitem__, iv)):
            if uncertain(state[ei]):
                if n_deferred[ei] > 1:
                    raise CertificateError("uncertain edge touches two deferred vertices")
                u_v.add(deferred_sum[ei])

        best_delta = None
        best_cv = 1
        best_cu: dict[int, int] = {}
        for cv in (1, 2):
            delta = gains_v[cv - 1]
            choice: dict[int, int] = {}
            if u_v:  # each partner's best part once v has joined cv, then v's codes back
                saved = list(map(state.__getitem__, iv))
                step(iv, cv)
                for u in sorted(u_v):
                    d1, d2 = gain_sums(inc[u])
                    choice[u] = 2 if d2 > d1 else 1
                    delta += max(d1, d2)
                for ei, s in zip(iv, saved):
                    state[ei] = s
            if best_delta is None or delta > best_delta:
                best_delta, best_cv, best_cu = delta, cv, choice

        if best_delta < 0:
            raise CertificateError("maximal conditional expectation fell below the average")
        if best_delta < 2 * len(u_v):  # |U_v| / 2^(k-1), in units of 2^-k
            raise CertificateError("step gain fell below the deferred-partner bound")
        if best_delta == 0:
            if u_v:
                raise CertificateError("zero-gain step with nonempty deferred neighbourhood")
            deferred.add(v)
            count_deferred(v, 1)
        else:
            credit += 1 + len(u_v)
            before = ez
            assign(v, best_cv, gains_v)
            for u in sorted(u_v):
                assign(u, best_cu[u], gain_sums(inc[u]))
                deferred.remove(u)
                count_deferred(u, -1)
            if ez != before + best_delta:
                raise CertificateError("factorized maximum disagrees with applied update")
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
    guaranteed = Fraction(credit, scale)
    realized_excess = Fraction(realized * scale - base, scale)
    if realized_excess < guaranteed:
        raise GuaranteeViolation(
            f"realized excess {realized_excess} below guarantee {guaranteed}"
        )
    return cut, EsLedger(w_set, guaranteed, realized_excess)


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


def greedy_order_cut(g: WeightedGraph, order) -> tuple[Cut, Fraction]:
    """One-pass greedy 2-cut: each vertex joins the side cutting more weight.

    Ties go to part 1 (the side the first vertex lands on).  Returns the
    cut and its excess, exactly sum |e_1(v) - e_2(v)|/2 over the steps.
    """
    n = g.n_vertices
    if sorted(order) != list(range(n)):
        raise InvalidParams("order must be a permutation of all vertices")
    assigned, excess = greedy_on_adjacency(dict(enumerate(g.adjacency())), list(order))
    cut = Cut(2, tuple(assigned[v] for v in range(n)))
    if 2 * g.crossing_weight(cut.assignment) != g.total_weight + 2 * excess:
        raise CertificateError("greedy size does not match total/2 + gains")
    return cut, excess


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
    """The units a swap choice can weigh on, as seven aligned columns sorted by block.

    ``units`` marks, in the sorted code rows (code 3*block + colour), one
    vertex per (edge, block) unit of each edge that no bicolour block
    fixes; ``pending`` is each edge's unit count t.  Listed in block
    order, unit j of an edge has u = t - j units after it.  Unit 1 sits in
    column 0 and moves its edge the same way under both swap choices, so
    only units j >= 2 are returned, in the columns [block, u, first, x,
    edge, prev, y]: ``first`` and ``prev`` are the blocks of the edge's
    unit 1 and of unit j-1, and x (y) is 1 when unit j's (unit j-1's)
    colour differs from unit 1's before any swap.
    """
    later = units[:, 1:]
    edge = np.nonzero(later)[0]
    if not edge.size:
        return [[] for _ in range(7)]
    # codes of unit j, of unit 1, and of the column left of unit j: that is
    # unit j-1 or the same-coloured twin that follows it in its block
    block, colour = np.divmod(np.array([rows[:, 1:][later], rows[edge, 0], rows[:, :-1][later]]), 3)
    u = (pending[:, None] - np.cumsum(units, axis=1))[:, 1:][later]
    fields = np.array(
        [block[0], u, block[1], colour[0] != colour[1], edge, block[2], colour[2] != colour[1]]
    )
    return fields[:, np.argsort(block[0], kind="stable")].tolist()


def combine_partial_cuts(h: Hypergraph, partial_cuts) -> tuple[Cut, CombinePlan]:
    """Merge disjoint partial 2-cuts into one cut keeping their total excess.

    Each partial cut's domain is its part; remaining vertices act as
    singleton parts.  Each part's labelling is kept or transposed; the
    swaps are chosen sequentially by exact conditional expectation with
    the undecided swaps uniform.  Requires every edge to spread over at
    least |e ∩ (union of parts)| - 1 distinct parts; offending edges are
    reported, the caller removes them first.  The promise is the plan's
    ``average_excesses.total``.

    A swap changes the expectation only through the edges the part shares
    with an earlier part, so only those (edge, part) units are visited
    (``_swap_units``, seven aligned columns in block order); a part with
    none keeps its labels, as ties do.  Each unit moves the expectation,
    scaled by 2^(k-1), by +-2^(k-2-u) with u units after it on its edge, so
    a part's swap is one signed sum, closed when the block id changes; the
    moves are Python ints, as k may pass 64.  The
    parts are checked by ``partial_average_excesses``: overlapping parts
    and vertices outside the instance raise ``InvalidParams``, labels
    outside {1, 2} ``InvalidCut``.
    """
    n = h.n_vertices
    x_values = partial_average_excesses(h, 2, partial_cuts)  # checks the parts

    # Per vertex, code 3*block + colour; each vertex outside the parts is a
    # singleton block pinned to colour 1; the padding sentinel n sorts last.
    n_blocks = len(partial_cuts) + n - sum(map(len, partial_cuts))
    sentinel = 3 * n_blocks
    codes = np.full(n + 1, sentinel, dtype=np.intp)
    codes[[v for pc in partial_cuts for v in pc]] = [
        3 * b + c for b, pc in enumerate(partial_cuts) for c in pc.values()
    ]
    codes[np.flatnonzero(codes[:n] == sentinel)] = 3 * np.arange(len(partial_cuts), n_blocks) + 1
    arr = h.edge_array
    rows = np.sort(codes[arr], axis=1)
    real = rows != sentinel
    block = rows // 3
    same_block = np.zeros_like(real)  # same block as the left neighbour
    same_block[:, 1:] = real[:, 1:] & (block[:, 1:] == block[:, :-1])
    # an edge meeting a part c >= 2 times adds c - 1 repeats to its count
    offenders = np.flatnonzero(row_sums(same_block) > 1).tolist()
    if offenders:
        raise PlanInvalid(
            f"{len(offenders)} edges collapse into a single part twice", offenders
        )

    k_eff = arr.shape[1] or 2
    scale = 1 << (k_eff - 1)  # probability 1

    # A block meets an edge in at most 2 vertices, so it is bicolour iff its
    # two codes differ, and then the edge shows both colours whatever the
    # swaps.  On any other edge each block is one unit, uniform over the
    # two colours while its swap is undecided; t = 0 marks a fixed edge.
    fixed = row_sums(same_block[:, 1:] & (rows[:, 1:] != rows[:, :-1])) > 0
    units = real & ~same_block & ~fixed[:, None]
    pending = row_sums(units)
    counts = np.bincount(pending, minlength=k_eff + 1).tolist()
    # an edge with t >= 1 pending units misses one colour w.p. 2^(1-t)
    running = scale * sum(counts) - sum(c << (k_eff - t) for t, c in enumerate(counts) if t)

    base = uniform_expected_size(h, 2)
    if Fraction(running, scale) != base + x_values.total:
        raise CertificateError("swap-uniform expectation != base + sum of average excesses")

    # Unit 1 leaves its edge's expectation as it is under either swap.  Unit
    # j >= 2 with u units after it, while units 1..j-1 show one colour, adds
    # -2^(k-2-u) if it shows that colour too and +2^(k-2-u) if not; once both
    # show, 0.  So keeping a block moves the expectation by -lean, swapping it
    # by lean.
    swaps = [0] * n_blocks
    dead: set[int] = set()  # edges already showing both colours
    block, lean = -1, 0  # the open block and its lean
    for b, u, first, x, i, prev, y in zip(*_swap_units(rows, units, pending)):
        if b != block:  # close the open block: swap it iff it leans to swapping
            if lean > 0:
                swaps[block] = 1
            running += abs(lean)
            block, lean = b, 0
        if i in dead:
            continue
        if y != swaps[first] ^ swaps[prev]:  # unit j-1 disagreed
            dead.add(i)
            continue
        move = 1 << (k_eff - 2 - u)  # a Python int: k may pass 64
        lean += move if x == swaps[first] else -move  # kept, unit j shows unit 1's colour
    if lean > 0:
        swaps[block] = 1
    running += abs(lean)

    colour = codes[:n] % 3
    flipped = np.array(swaps, dtype=bool)[codes[:n] // 3]
    cut = Cut(2, tuple(np.where(flipped, 3 - colour, colour).tolist()))

    realized = cut_metrics(h, cut).size
    if realized * scale != running:
        raise CertificateError("combined realized size differs from final expectation")
    realized_excess = realized - base
    if realized_excess < x_values.total:
        raise GuaranteeViolation(
            f"combined excess {realized_excess} below promised {x_values.total}"
        )
    return cut, CombinePlan(x_values, realized_excess)


def conditional_rcut(h: Hypergraph, r: int, order=None) -> Cut:
    """Plain conditional-expectations r-cut; realized excess is never negative.

    Assigns each vertex, in order, to the part maximizing the exact
    conditional expected number of multicoloured edges with the remaining
    vertices uniform over all r parts: ``_conditional_pass`` with one law
    that weighs every part 1.  Ties prefer the smallest part id.
    """
    if r < 2:
        raise InvalidParams("need r >= 2")
    n, order = h.n_vertices, None if order is None else list(order)
    if order is not None and sorted(order) != list(range(n)):
        raise InvalidParams("order must be a permutation of all vertices")
    assignment, scale, base, expected = _conditional_pass(h, ((1,) * r,), [0] * n, order)
    cut = Cut(r, tuple(assignment))
    realized = cut_metrics(h, cut).size
    if realized * scale != expected:
        raise CertificateError("conditional r-cut bookkeeping mismatch")
    if realized * scale < base:
        raise GuaranteeViolation("conditional r-cut fell below the random baseline")
    return cut


def point_local_search(h: Hypergraph, cut: Cut) -> Cut:
    """Move single vertices between parts until no move grows the cut size.

    Sweeps the vertices in id order until a sweep makes no move; each
    vertex moves to the first part of strictly largest positive gain.
    Each edge keeps its per-part vertex counts as one base-(w + 1) code,
    w the widest edge.  Moving v from p to q gains 1 on each edge whose
    only missing part is q and that holds at least two vertices of p, and
    loses 1 on each covered edge where v is p's only vertex; so the gains
    come from the tally of v's codes, and a move adds ``unit[q] -
    unit[p]`` to each of v's codes.  A vertex whose part and edge codes
    are as at its last evaluation would make no move again, so a sweep
    skips it; the search stops when no vertex is left to evaluate.
    """
    r = cut.r
    n = h.n_vertices
    if len(cut.assignment) != n:
        raise InvalidCut("assignment length mismatch")
    inc, rows = h.incidence, h.edge_array.tolist()
    part = list(cut.assignment)
    base = h.edge_array.shape[1] + 1
    unit = [0] + [base**p for p in range(r)]
    # Python ints in an object array: (w + 1)^r may pass any fixed width
    weight = np.array([*map(unit.__getitem__, part), 0], dtype=object)
    code = weight[h.edge_array].sum(axis=1).tolist()

    def only_missing(c: int) -> int:
        """The one part code c leaves empty; 0 when none is, -1 when several are."""
        gaps = [p for p in range(1, r + 1) if not c // unit[p] % base]
        return -1 if len(gaps) > 1 else gaps[0] if gaps else 0

    missing_of = _Memo(only_missing)
    tally = Counter()  # reused: v's edges by code
    # moved, or an edge's code changed, since the last evaluation; entry n,
    # which the padding vertex in an edge's row marks, is never read
    dirty = [True] * (n + 1)
    while any(dirty[:n]):
        for v in range(n):
            if not dirty[v]:
                continue
            dirty[v] = False
            p = part[v]
            up = unit[p]
            lose = 0
            plus = [0] * (r + 1)
            tally.clear()
            tally.update(map(code.__getitem__, inc[v]))
            for c, t in tally.items():
                q = missing_of[c]
                if q == 0:
                    if c // up % base == 1:
                        lose += t
                elif q > 0 and c // up % base >= 2:
                    plus[q] += t
            most = max(plus)  # plus[p] = 0: v's edges all hold part p
            if most > lose:
                q = plus.index(most)  # the first part of strictly largest gain
                step = unit[q] - up
                for ei in inc[v]:
                    code[ei] += step
                    for u in rows[ei]:
                        dirty[u] = True
                part[v] = q
    return Cut(r, tuple(part))
