"""Shared fixtures and independent brute-force oracles.

The oracles here enumerate assignments directly or loop over the edges
one at a time, and never call the package's own enumeration or
probability code, so they can check it.
"""

from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest

from hypercut.core import Hypergraph, build
from hypercut.cutspace import Cut
from hypercut.derand import CombinePlan

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


def plain_combine_partial_cuts(h, parts, partial_cuts):
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
    plan = CombinePlan(
        average_excesses=plain_average_excesses(h, 2, partial_cuts),
        realized_excess=realized - stirling_expected_size(h, 2),
    )
    return Cut(2, tuple(assignment)), plan
