"""Exact cut arithmetic.

Sizes, expected sizes, excesses, multicolour probabilities, average
excesses of partial cuts, and the closed-form excess bounds.  Every
probability and expectation is an exact ``fractions.Fraction`` with a
big-integer numerator; floats appear only at the reporting boundary.
Every function here takes a ``Hypergraph``, repeated edges allowed; a
multigraph is ``core``'s integer-weighted ``WeightedGraph``, never read
here.  ``cut_metrics`` is the one hypergraph cut scorer: each part owns
one bit, each edge ORs its vertices' bits over the columns of the
instance's padded edge array, and an edge is multicoloured when the
popcount of its OR is r, an exact integer count; its expectation is
cached per (size histogram, r).  The partial-cut oracles
``partial_average_size`` and ``partial_average_excesses`` count each
edge's (missing-part, free-vertex) key with numpy over the same array,
the first from the same per-column OR of part bits, the second from rows
sorted by assignment; their sums stay exact, integer numerators built from
``_inclusion_exclusion`` over one power of the base, and the family's
sum is one ``Fraction`` of the summed numerators.  They read none of the
engines' state codes, so they stay independent of the engines they audit,
and they check the parts they are given: labels in {1..r}, vertices in
the instance, disjoint domains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core import Hypergraph, row_sums
from .errors import InvalidCut, InvalidParams


@dataclass(frozen=True)
class Cut:
    """Assignment of every vertex to a part in {1..r}."""

    r: int
    assignment: tuple[int, ...]

    def __post_init__(self):
        if self.r < 2:
            raise InvalidCut(f"need at least 2 parts, got r={self.r}")
        a = self.assignment
        if a and (min(a) < 1 or max(a) > self.r):  # an empty assignment is valid
            raise InvalidCut("part labels must lie in {1..r}")


@dataclass(frozen=True)
class PartialCut:
    """Assignment of parts to a subset of the vertices."""

    r: int
    assigned: dict  # vertex -> part in {1..r}

    def __post_init__(self):
        a = self.assigned.values()
        if a and (min(a) < 1 or max(a) > self.r):  # an empty assignment is valid
            raise InvalidCut("part labels must lie in {1..r}")


@dataclass(frozen=True)
class CutMetrics:
    size: int
    expected: Fraction
    excess: Fraction


def expected_fraction(k: int, r: int) -> Fraction:
    """Probability a size-k edge is multicoloured under a uniform r-cut."""
    if r < 2 or r > k:
        raise InvalidParams(f"expected_fraction needs 2 <= r <= k, got k={k}, r={r}")
    return _inclusion_exclusion(r, k, r)


@lru_cache(maxsize=None)
def _inclusion_exclusion(missing: int, free_count: int, base: int) -> Fraction:
    """Pr(free_count uniform-over-base vertices hit all ``missing`` parts)."""
    total = Fraction(0)
    for j in range(missing + 1):
        term = Fraction((base - j) ** free_count, base**free_count)
        total += (-1) ** j * math.comb(missing, j) * term
    return total


def uniform_expected_size(h: Hypergraph, r: int) -> Fraction:
    """Exact expected size of a uniformly random r-cut."""
    return _histogram_expected_size(h.size_histogram, r)


@lru_cache(maxsize=None)
def _histogram_expected_size(hist: tuple[int, ...], r: int) -> Fraction:
    """Uniform r-cut expectation of ``hist[s]`` edges of each size s."""
    return sum(
        (cnt * _inclusion_exclusion(r, s, r) for s, cnt in enumerate(hist) if cnt),
        Fraction(0),
    )


@lru_cache(maxsize=None)
def _part_bits(r: int) -> tuple[np.ndarray, ...]:
    """Part p's bit, as read-only tables indexed by part label.

    One word holds the r bits in the narrowest unsigned type that fits
    them.  Above r = 64 there are ceil(r/64) ``uint64`` words, word i
    holding parts 64i+1 to 64i+64 at bits 0..63.  Label 0, the padding
    vertex's, has no bit.
    """
    dtype = np.min_scalar_type((1 << min(r, 64)) - 1)
    tables = []
    for first in range(0, r, 64):
        width = min(r - first, 64)
        table = np.zeros(r + 1, dtype=dtype)
        table[first + 1 : first + width + 1] = [1 << b for b in range(width)]
        table.flags.writeable = False
        tables.append(table)
    return tuple(tables)


def _seen_words(h: Hypergraph, labels: np.ndarray, r: int):
    """Per word of ``_part_bits(r)``: (its table, each edge's OR of its
    vertices' bits in that word, over the columns of the edge array).
    ``labels`` gives each vertex's part, 0 for no part and for the padding
    vertex n."""
    columns = h.edge_array.T
    for table in _part_bits(r):
        bits = table[labels]
        seen = np.zeros(h.m, dtype=bits.dtype)
        for column in columns:
            seen |= bits[column]
        yield table, seen


def cut_metrics(h: Hypergraph, c: Cut) -> CutMetrics:
    """Size, exact expected size, and excess of a cut of h.

    The one hypergraph cut scorer: every engine and certificate takes a
    realized size from here.  Edges smaller than r contribute probability
    0 to the expectation, so mixed instances are handled exactly.  The
    size ORs each vertex's part bit (``_part_bits``) over the columns of
    the padded edge array, the padding vertex carrying label 0 and no bit,
    and counts the rows whose bits number r over all words.
    """
    if len(c.assignment) != h.n_vertices:
        raise InvalidCut(
            f"assignment length {len(c.assignment)} != n_vertices {h.n_vertices}"
        )
    labels = np.array((*c.assignment, 0), dtype=np.min_scalar_type(c.r))
    hits = np.zeros(h.m, dtype=np.min_scalar_type(c.r))
    for _, seen in _seen_words(h, labels, c.r):
        hits += np.bitwise_count(seen)
    size = int(np.count_nonzero(hits == c.r))
    expected = uniform_expected_size(h, c.r)
    return CutMetrics(size, expected, size - expected)


def best_cut(h: Hypergraph, draw, trials: int) -> tuple[Cut, CutMetrics]:
    """First cut of largest size among ``trials`` calls of ``draw``, each
    drawing a cut of h, with the metrics that ranked it."""
    if trials < 1:
        raise InvalidParams("trials must be >= 1")
    best = None
    for _ in range(trials):
        cut = draw()
        metrics = cut_metrics(h, cut)
        if best is None or metrics.size > best[1].size:
            best = (cut, metrics)
    return best


@lru_cache(maxsize=None)
def _covering_count(missing: int, free_count: int, base: int) -> int:
    """Maps of ``free_count`` vertices into {1..base} hitting all ``missing`` parts."""
    value = base**free_count * _inclusion_exclusion(missing, free_count, base)
    assert value.denominator == 1
    return value.numerator


def _scaled_key_sums(counts: np.ndarray, base: int) -> list[int]:
    """Per row i, sum of counts[i, missing, free] * Pr(missing, free) * base^width.

    ``counts`` has shape (rows, missing, width + 1); the width is the
    largest free count, so every term is an integer.
    """
    width = counts.shape[2] - 1
    totals = [0] * counts.shape[0]
    keys = np.nonzero(counts)
    for i, missing, free, count in zip(*(idx.tolist() for idx in keys), counts[keys].tolist()):
        totals[i] += count * _covering_count(missing, free, base) * base ** (width - free)
    return totals


def _vertex_codes(h: Hypergraph, assignments, r: int, fill: int, sentinel: int) -> np.ndarray:
    """Per-vertex array: i*(r+1) + part on assignment i's vertices, ``fill``
    elsewhere, ``sentinel`` on the padding vertex n.

    The codes are filled in a Python list, which reads and writes a
    single entry faster than an array does, and become an array once.
    """
    n = h.n_vertices
    values = [fill] * n + [sentinel]
    for i, assigned in enumerate(assignments):
        for v, p in assigned.items():
            if p < 1 or p > r:
                raise InvalidCut("part labels must lie in {1..r}")
            if not 0 <= v < n:
                raise InvalidParams(f"vertex {v} outside the instance (n={n})")
            if values[v] != fill:
                raise InvalidParams("partial cuts must have disjoint domains")
            values[v] = i * (r + 1) + p
    return np.array(values, dtype=np.intp)


def partial_average_size(h: Hypergraph, pc: PartialCut, free_parts: int | None = None) -> Fraction:
    """Expected cut size after completing ``pc`` uniformly at random.

    ``free_parts`` restricts the uniform completion to parts
    {1..free_parts} (used by partial-exposure reductions), 1 <= free_parts
    <= r; by default the completion is uniform over all r parts.  Each
    edge's term is keyed by its (missing-part, free-vertex) counts: its
    parts are the OR of its vertices' ``_part_bits`` over the columns of
    the edge array, their popcount gives the missing parts, and its free
    vertices are counted column by column.  An edge that leaves a part
    above ``free_parts`` unhit, which a mask of those parts' bits in each
    word shows, has probability 0.
    """
    r = pc.r
    base = r if free_parts is None else free_parts
    if not 1 <= base <= r:
        raise InvalidParams(f"free_parts must lie in 1..r={r}, got {free_parts}")
    width = h.edge_array.shape[1]
    labels = _vertex_codes(h, [pc.assigned], r, 0, 0)  # 0: free, and the padding vertex
    free = labels == 0
    free[-1] = False
    n_free = row_sums(free[h.edge_array])
    hits = np.zeros(h.m, dtype=np.intp)
    keep = np.ones(h.m, dtype=bool)
    for table, seen in _seen_words(h, labels, r):
        hits += np.bitwise_count(seen)
        above = np.bitwise_or.reduce(table[base + 1 :])  # this word's parts above base
        keep &= (seen & above) == above
    key = (r - hits) * (width + 1) + n_free
    counts = np.bincount(key[keep], minlength=(r + 1) * (width + 1))
    (total,) = _scaled_key_sums(counts.reshape(1, r + 1, width + 1), base)
    return Fraction(total, base**width)


_ZERO = Fraction(0)


class AverageExcesses(tuple):
    """Per-assignment average excesses, a tuple of exact ``Fraction``s,
    with ``total``, their exact sum.

    ``over`` makes both from integer numerators over one scale: ``total``
    is one ``Fraction`` of the summed numerators, and a zero numerator
    gives the shared ``Fraction(0)``, so nothing adds up per-part
    ``Fraction``s.
    """

    total: Fraction

    @classmethod
    def over(cls, numerators: list[int], scale: int) -> "AverageExcesses":
        values = cls(Fraction(t, scale) if t else _ZERO for t in numerators)
        values.total = Fraction(sum(numerators), scale)
        return values


def partial_average_excesses(h: Hypergraph, r: int, assignments) -> AverageExcesses:
    """Average excess of each of several partial r-cuts with disjoint domains.

    ``assignments`` is a sequence of mappings vertex -> part in {1..r}.
    Entry i is the expected size after completing assignment i alone
    uniformly at random, minus the uniform-cut expectation; ``total`` of
    the result is their sum.  Only edges meeting an assignment's domain
    can shift its average.  A vertex of assignment i carries the code
    i*(r+1) + part; sorting an edge's codes groups its vertices by
    assignment, so every (edge, assignment) pair gets its own
    (missing-part, free-vertex) key in one pass, and each assignment's
    keys sum to one integer numerator over the scale r^width.
    """
    n_parts = len(assignments)
    unowned = n_parts * (r + 1)
    codes = _vertex_codes(h, assignments, r, unowned, unowned + 1)
    arr = h.edge_array
    width = arr.shape[1]
    sizes = h.edge_sizes
    rows = np.sort(codes[arr], axis=1)
    owned = rows < unowned
    owner = rows // (r + 1)
    new = owned.copy()  # a new (assignment, part) code
    new[:, 1:] &= rows[:, 1:] != rows[:, :-1]
    start = owned.copy()  # the first vertex of an assignment's group
    start[:, 1:] &= owner[:, 1:] != owner[:, :-1]
    # one group per (edge, assignment) pair, numbered in row-major order
    group = np.cumsum(start[owned]) - 1
    n_groups = int(group[-1]) + 1 if group.size else 0
    members = np.bincount(group, minlength=n_groups)
    hits = np.bincount(group, weights=new[owned], minlength=n_groups).astype(np.intp)
    edge_of = np.nonzero(start)[0]
    part_of = owner[start]
    cell = (r + 1) * (width + 1)
    counts = np.bincount(
        part_of * cell + (r - hits) * (width + 1) + sizes[edge_of] - members,
        minlength=n_parts * cell,
    ).reshape(n_parts, r + 1, width + 1)
    # A met edge has a hit part, so row ``missing = r`` is free for the
    # uniform term: the size-s edges met by the assignment, subtracted.
    counts[:, r] = -np.bincount(
        part_of * (width + 1) + sizes[edge_of], minlength=n_parts * (width + 1)
    ).reshape(n_parts, width + 1)
    return AverageExcesses.over(_scaled_key_sums(counts, r), r**width)


def partial_average_excess(h: Hypergraph, pc: PartialCut) -> Fraction:
    """Average size of the partial cut minus the uniform-cut expectation."""
    return partial_average_excesses(h, pc.r, [pc.assigned])[0]


def _sqrt_bound(radicand: int, shift: int, denom: int):
    """Exact (sqrt(radicand)-shift)/denom when a perfect square, else float."""
    root = math.isqrt(radicand)
    if root * root == radicand:
        return Fraction(root - shift, denom)
    return (math.sqrt(radicand) - shift) / denom


#: bound id -> (required params, computation, one-line claim)
_BOUNDS = {
    "graph-2cut-m": (
        ("m",),
        lambda p: _sqrt_bound(8 * p["m"] + 1, 1, 8),
        "every m-edge multigraph has a 2-cut with excess >= (sqrt(8m+1)-1)/8",
    ),
    "connected-graph": (
        ("n",),
        lambda p: Fraction(p["n"] - 1, 4),
        "every connected n-vertex graph has a 2-cut with excess >= (n-1)/4",
    ),
    "nonisolated-graph": (
        ("n",),
        lambda p: Fraction(p["n"], 6),
        "every graph without isolated vertices has a 2-cut with excess >= n/6",
    ),
    "sts-2cut": (
        ("m",),
        lambda p: _sqrt_bound(24 * p["m"] + 1, 1, 16),
        "every m-edge 3-graph has a 2-cut with excess >= (sqrt(24m+1)-1)/16",
    ),
    "connected-3graph": (
        ("n",),
        lambda p: Fraction(p["n"] - 1, 8),
        "every connected n-vertex 3-graph has a 2-cut with excess >= (n-1)/8",
    ),
    "nonisolated-3graph": (
        ("n",),
        lambda p: Fraction(p["n"], 12),
        "every 3-graph without isolated vertices has a 2-cut with excess >= n/12",
    ),
    "mixed-2cut-n": (
        ("k", "n"),
        lambda p: Fraction(p["n"], p["k"] * 2 ** (p["k"] - 1)),
        "a mixed k-multigraph with n vertices in edges of size >= 3 has a 2-cut with excess >= n/(k*2^(k-1))",
    ),
    "mixed-k-edges": (
        ("k", "n"),
        lambda p: Fraction(p["n"], p["k"] * 2 ** p["k"]),
        "a mixed k-multigraph with n vertices in size-k edges has a 2-cut with excess >= n/(k*2^k)",
    ),
}


def theorem_bound(name: str, **params):
    """Guaranteed excess value for a named closed-form bound.

    Returns an exact Fraction when the formula is rational for the given
    parameters (all square roots resolve), otherwise a float.
    """
    if name not in _BOUNDS:
        raise InvalidParams(f"unknown bound id {name!r}; known: {sorted(_BOUNDS)}")
    required, fn, _claim = _BOUNDS[name]
    missing = [q for q in required if q not in params]
    if missing:
        raise InvalidParams(f"bound {name!r} needs params {required}, missing {missing}")
    return fn(params)


def theorem_bound_claim(name: str) -> str:
    if name not in _BOUNDS:
        raise InvalidParams(f"unknown bound id {name!r}")
    return _BOUNDS[name][2]


def equitable_complete_value(n: int, k: int, r: int) -> int:
    """Multicoloured-edge count of the equitable r-cut of the complete k-graph.

    Part sizes differ by at most one; the count sums, over all positive
    compositions (s_1..s_r) of k, the products of binomials C(n_i, s_i).
    """
    if not (2 <= r <= k <= n):
        raise InvalidParams(f"need 2 <= r <= k <= n, got n={n}, k={k}, r={r}")
    sizes = [n // r + (1 if i < n % r else 0) for i in range(r)]

    def rec(i: int, remaining: int) -> int:
        if i == r - 1:
            return math.comb(sizes[i], remaining) if remaining >= 1 else 0
        total = 0
        for s in range(1, remaining - (r - 1 - i) + 1):
            c = math.comb(sizes[i], s)
            if c:
                total += c * rec(i + 1, remaining - s)
        return total

    return rec(0, k)
