"""Immutable mixed multihypergraph and pair-graph data model.

Vertices are dense 0-based integers.  A ``Hypergraph`` keeps its edges in
one read-only padded array, a row per edge: its vertices increasing, then
the padding vertex n.  Coincident edges are distinct rows, so
multiplicity is a first-class concept, and equality compares n,
max_arity and the edges in order.  ``Hypergraph.from_rows`` makes every
instance, from rows that ``build`` checks or that another instance's
array gives.  A multigraph is a ``WeightedGraph`` with integer weights,
the pair multiplicities.  Instances never change their value after
construction and every operation here is pure; a ``Hypergraph`` derives
its row sizes, incidence tuples and edge tuples on first use and keeps
them.  Every pass that only counts (degrees, codegrees, clique weights,
incidences, size histograms, induced edges, within-part pairs) is
whole-array numpy work over that edge array, and returns exact Python ints;
``row_sums`` adds an edge-shaped array's few columns one by one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain

import numpy as np

from .errors import InvalidEdge, InvalidParams, InvalidVertex

Weight = int | Fraction


@dataclass(frozen=True, eq=False)
class Hypergraph:
    """A mixed k-multihypergraph: edge sizes <= max_arity, repeats allowed;
    ``edge_array`` is its one edge representation, ``from_rows`` makes every
    instance, and equality compares n, max_arity and the edges in order."""

    n_vertices: int
    max_arity: int
    edge_array: np.ndarray  # (m, w), w the largest realized edge size

    @classmethod
    def from_rows(cls, n: int, max_arity: int, rows: np.ndarray) -> "Hypergraph":
        """The instance with a read-only copy of ``rows`` trimmed to its widest edge."""
        arr = np.array(rows[:, : row_sums(rows != n).max(initial=0)], dtype=np.intp)
        arr.flags.writeable = False
        return cls(n, max_arity, arr)

    def _key(self) -> tuple:
        return self.n_vertices, self.max_arity, self.edge_array.shape, self.edge_array.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, Hypergraph) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def m(self) -> int:
        return len(self.edge_array)

    @cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """The edges as increasing vertex tuples, in row order, built once."""
        rows, sizes = self.edge_array.tolist(), self.edge_sizes.tolist()
        return tuple(tuple(row[:s]) for row, s in zip(rows, sizes))

    @cached_property
    def edge_sizes(self) -> np.ndarray:
        """Read-only per-edge sizes: each row's count of non-sentinel entries,
        in the narrowest type that holds the width, as the instance keeps them."""
        arr = self.edge_array
        sizes = row_sums(arr != self.n_vertices).astype(np.min_scalar_type(arr.shape[1]))
        sizes.flags.writeable = False
        return sizes

    @cached_property
    def size_histogram(self) -> tuple[int, ...]:
        """Entry s is the number of edges of size s, for s up to the largest."""
        return tuple(np.bincount(self.edge_sizes, minlength=self.edge_array.shape[1] + 1).tolist())

    def edges_all_of_size(self, s: int) -> bool:
        """Whether every edge has exactly s vertices; an edgeless instance has."""
        hist = self.size_histogram
        return (hist[s] if s < len(hist) else 0) == self.m

    def edge_multiset(self) -> Counter:
        return Counter(self.edges)

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex tuple of incident edge indices, ascending, built once."""
        n, arr = self.n_vertices, self.edge_array
        flat = arr.ravel().astype(np.min_scalar_type(n))
        ends = np.cumsum(np.bincount(flat, minlength=n + 1)[:n]).tolist()
        # a stable sort keeps each vertex's entries in row order, the sentinel last
        rows = np.argsort(flat, kind="stable")
        rows //= max(arr.shape[1], 1)
        edge_ids = np.arange(self.m).astype(object)  # shared by each edge's vertices
        ids = edge_ids[rows].tolist()
        return tuple(tuple(ids[a:b]) for a, b in zip([0, *ends], ends))

    def vertices_in_edges_of_size_at_least(self, s: int) -> set[int]:
        seen = np.zeros(self.n_vertices + 1, dtype=bool)
        seen[self.edge_array[self.edge_sizes >= s]] = True
        return set(np.flatnonzero(seen[: self.n_vertices]).tolist())

    def inside_rows(self, u_set) -> np.ndarray:
        """Boolean mask of the edges lying fully inside ``u_set``."""
        n = self.n_vertices
        inside = np.zeros(n + 1, dtype=bool)
        inside[[v for v in u_set if 0 <= v < n]] = True
        inside[n] = True  # padding never takes an edge outside
        return inside[self.edge_array].all(axis=1)

    def without_edges(self, drop: set[int]) -> "Hypergraph":
        """Copy with the edges at the given indices removed."""
        kept = np.ones(self.m, dtype=bool)
        kept[[i for i in drop if 0 <= i < self.m]] = False
        return Hypergraph.from_rows(self.n_vertices, self.max_arity, self.edge_array[kept])


@dataclass(frozen=True)
class WeightedGraph:
    """Symmetric nonnegative edge weights over vertex pairs.

    Weights are exact: ints (a multigraph's multiplicities) or
    ``Fraction``s.  Sums over them stay in the weights' own type.
    """

    n_vertices: int
    weights: tuple[tuple[int, int, Weight], ...]  # (u, v, weight), u < v

    @property
    def total_weight(self) -> Weight:
        return sum(w for _, _, w in self.weights)

    def crossing_weight(self, side) -> Weight:
        """Weight of the pairs whose ends ``side`` (vertex -> part) separates."""
        return sum(w for u, v, w in self.weights if side[u] != side[v])

    def adjacency(self) -> list[list[tuple[int, Weight]]]:
        adj: list[list[tuple[int, Weight]]] = [[] for _ in range(self.n_vertices)]
        for u, v, w in self.weights:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return adj


@dataclass(frozen=True)
class DegreeProfile:
    degree: tuple[int, ...]
    codegree: dict[tuple[int, int], int] = field(compare=False)
    max_degree: int = 0

    def codeg(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        return self.codegree.get((u, v), 0)


def row_sums(a: np.ndarray) -> np.ndarray:
    """Each row's sum of an (m, w) array, as ``intp``, added column by column:
    the columns, copied to contiguous rows, are reduced one whole column at a
    time, which over the few columns of an edge array costs a fraction of
    numpy's axis-1 reduction."""
    return np.add.reduce(np.ascontiguousarray(a.T), axis=0, dtype=np.intp)


def build(n: int, raw_edges, max_arity: int | None = None) -> Hypergraph:
    """Validate and canonicalize raw edge lists into a Hypergraph.

    Duplicate edges are preserved as multiplicity.  ``max_arity`` may
    declare a bound larger than any realized edge size (mixed semantics);
    by default it is the largest realized size.
    """
    if not 0 <= n <= np.iinfo(np.intp).max:  # n pads the edge array
        raise InvalidParams(f"vertex count {n} is negative or too large")
    if max_arity is not None and max_arity < 0:
        raise InvalidParams(f"negative max_arity {max_arity}")
    raw_edges = list(raw_edges)
    flat = list(chain.from_iterable(raw_edges))
    sizes = np.fromiter(map(len, raw_edges), dtype=np.intp, count=len(raw_edges))
    if flat and not 0 <= min(flat) <= max(flat) < n or not sizes.all():
        _reject(raw_edges, n)
    realized = int(sizes.max(initial=0))
    rows = np.full((len(sizes), realized), n, dtype=np.intp)
    rows[np.arange(realized) < sizes[:, None]] = flat  # each row's first entries, in row order
    rows.sort(axis=1)  # the padding n sorts last
    if ((rows[:, 1:] == rows[:, :-1]) & (rows[:, 1:] != n)).any():
        _reject(raw_edges, n)
    k = realized if max_arity is None else max_arity
    if k < realized:
        raise InvalidEdge(f"declared max_arity {k} below realized edge size {realized}")
    return Hypergraph.from_rows(n, k, rows)


def _reject(raw_edges, n: int) -> None:
    """Raise the error of the first raw edge that is no edge of an n-vertex instance."""
    for raw in raw_edges:
        e = sorted(raw)
        if not e:
            raise InvalidEdge("empty edge")
        if any(a == b for a, b in zip(e, e[1:])):
            raise InvalidEdge(f"repeated vertex inside edge {raw!r}")
        if e[0] < 0 or e[-1] >= n:
            raise InvalidVertex(f"vertex id out of range in edge {raw!r} (n={n})")


def part_labels(n: int, parts, who: str) -> np.ndarray:
    """Each vertex's part index, -1 for the vertices in no part and for the
    padding vertex n, which a -1 index would otherwise reach.

    Raises ``InvalidParams``, naming ``who``, when a part vertex lies
    outside [0, n) or a vertex is listed twice.
    """
    members = [list(p) for p in parts]
    flat = list(chain.from_iterable(members))
    if flat and not (0 <= min(flat) and max(flat) < n):
        bad = next(v for v in flat if not 0 <= v < n)
        raise InvalidParams(f"{who} part vertex {bad} outside the instance (n={n})")
    labels = np.full(n + 1, -1, dtype=np.intp)
    labels[flat] = np.repeat(np.arange(len(members)), list(map(len, members)))
    if np.count_nonzero(labels >= 0) != len(flat):
        raise InvalidParams(f"{who} parts must be disjoint")
    return labels


def within_part_pairs(h: Hypergraph, labels: np.ndarray, rows=slice(None)) -> tuple:
    """The chosen rows of h sorted by (part, vertex), with their within-part pairs.

    ``labels`` is a ``part_labels`` array.  Returns (part, vertex, i, j,
    together): each row's entries with their parts, the entries in no part
    (the padding vertex too) reading part -1 and sorting first, and
    whether columns i[c] < j[c] of a row hold two vertices of one part,
    as ``together[row, c]``.  A row's count of such pairs is its edge's
    within-part pair count.  As each part's entries are neighbours, a part
    met 3 or more times is what pairs two columns that are not.
    """
    bits = h.n_vertices.bit_length()  # vertices 0..n fit below 2^bits
    sub = h.edge_array[rows]
    key = np.sort(labels[sub] << bits | sub, axis=1)
    part, vertex = key >> bits, key & ((1 << bits) - 1)
    i, j = _column_pairs(part.shape[1])
    return part, vertex, i, j, (part[:, i] == part[:, j]) & (part[:, i] >= 0)


@lru_cache(maxsize=None)
def _column_pairs(w: int) -> tuple[np.ndarray, np.ndarray]:
    """Column indices (i, j), i < j, of every pair of the w columns, read-only."""
    i, j = np.triu_indices(w, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _pair_counts(h: Hypergraph) -> tuple[list[int], list[int], list[int]]:
    """Each vertex pair u < v sharing an edge, ascending by (u, v), with the
    number of edges it shares, as three aligned lists (us, vs, counts)."""
    n1 = h.n_vertices + 1
    arr = h.edge_array.astype(np.min_scalar_type(n1 * n1))  # u * n1 + v < n1^2
    i, j = _column_pairs(arr.shape[1])
    # rows are increasing with the sentinel last, so only v can be padding
    real = arr[:, j] != h.n_vertices
    keys = (arr[:, i] * n1 + arr[:, j])[real]
    keys, counts = np.unique(keys, return_counts=True)
    return (keys // n1).tolist(), (keys % n1).tolist(), counts.tolist()


def degree_profile(h: Hypergraph) -> DegreeProfile:
    """Exact per-vertex degrees and per-pair joint degrees (codegrees)."""
    deg = np.bincount(h.edge_array.ravel(), minlength=h.n_vertices + 1)[: h.n_vertices]
    us, vs, counts = _pair_counts(h)
    codeg = dict(zip(zip(us, vs), counts))
    return DegreeProfile(tuple(deg.tolist()), codeg, int(deg.max(initial=0)))


def induce(h: Hypergraph, u_set) -> Hypergraph:
    """The induced sub-multihypergraph H[U]: the edges lying fully inside ``u_set``.

    Vertex ids are preserved; the result lives on the same [0, n) id space.
    """
    return Hypergraph.from_rows(h.n_vertices, h.max_arity, h.edge_array[h.inside_rows(u_set)])


def clique_expand(h: Hypergraph) -> WeightedGraph:
    """Replace each size-s edge by its s-clique of pairs; multiplicities add.

    The result is a multigraph: integer weights, one per distinct pair.
    """
    return WeightedGraph(h.n_vertices, tuple(zip(*_pair_counts(h))))
