"""Immutable mixed multihypergraph and pair-graph data model.

Vertices are dense 0-based integers.  Edges are stored as strictly
increasing tuples; coincident edges are kept as distinct entries, so
multiplicity is a first-class concept.  A multigraph is a
``WeightedGraph`` with integer weights, the pair multiplicities.
Instances never change their value after construction and every
operation here is pure; a ``Hypergraph`` builds its padded edge array,
its row sizes and its incidence tuples on first use and keeps them,
outside its equality and hash.  An instance cut out of another's array
(``without_edges``, the exposure reductions) gets that array when it is
built.  Every pass that only counts (degrees, codegrees, clique weights,
incidences, size histograms, induced edges, within-part pairs) is
whole-array numpy work over that edge array, and returns exact Python
ints.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, compress

import numpy as np

from .errors import InvalidEdge, InvalidParams, InvalidVertex

Edge = tuple[int, ...]
Weight = int | Fraction


@dataclass(frozen=True)
class Hypergraph:
    """A mixed k-multihypergraph: edge sizes <= max_arity, repeats allowed."""

    n_vertices: int
    max_arity: int
    edges: tuple[Edge, ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_array(self) -> np.ndarray:
        """Read-only (m, w) vertex array, w the largest realized edge size;
        shorter edges are padded with the sentinel vertex n."""
        w = max((len(e) for e in self.edges), default=0)
        pad = (self.n_vertices,) * w
        arr = np.array([e + pad[len(e):] for e in self.edges], dtype=np.intp)
        arr = arr.reshape(self.m, w)
        arr.flags.writeable = False
        return arr

    @cached_property
    def edge_sizes(self) -> np.ndarray:
        """Read-only per-edge sizes: each row's count of non-sentinel entries."""
        arr = self.edge_array
        sizes = (arr != self.n_vertices).sum(axis=1, dtype=np.min_scalar_type(arr.shape[1]))
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
        return Hypergraph._from_rows(self.n_vertices, self.max_arity, self.edge_array[kept])

    @classmethod
    def _from_rows(cls, n: int, max_arity: int, rows: np.ndarray) -> "Hypergraph":
        """The instance whose padded edge array is ``rows`` trimmed to its widest edge.

        Each row holds one edge's vertices in increasing order, then the
        padding vertex n.  The edges are read off the rows, and the trimmed
        array fills the ``edge_array`` cache: the very array the edges
        would build, so no caller rebuilds it from tuples.
        """
        sizes = (rows != n).sum(axis=1)
        arr = np.array(rows[:, : sizes.max(initial=0)], dtype=np.intp)
        h = cls(n, max_arity, tuple(tuple(row[:s]) for row, s in zip(arr.tolist(), sizes.tolist())))
        arr.flags.writeable = False
        h.__dict__["edge_array"] = arr  # where cached_property keeps it
        return h


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


def build(n: int, raw_edges, max_arity: int | None = None) -> Hypergraph:
    """Validate and canonicalize raw edge lists into a Hypergraph.

    Duplicate edges are preserved as multiplicity.  ``max_arity`` may
    declare a bound larger than any realized edge size (mixed semantics);
    by default it is the largest realized size.
    """
    if n < 0:
        raise InvalidParams(f"negative vertex count {n}")
    if max_arity is not None and max_arity < 0:
        raise InvalidParams(f"negative max_arity {max_arity}")
    edges: list[Edge] = []
    realized = 0
    for raw in raw_edges:
        e = tuple(sorted(raw))
        if len(e) == 0:
            raise InvalidEdge("empty edge")
        if any(e[i] == e[i + 1] for i in range(len(e) - 1)):
            raise InvalidEdge(f"repeated vertex inside edge {raw!r}")
        if e[0] < 0 or e[-1] >= n:
            raise InvalidVertex(f"vertex id out of range in edge {raw!r} (n={n})")
        realized = max(realized, len(e))
        edges.append(e)
    k = realized if max_arity is None else max_arity
    if k < realized:
        raise InvalidEdge(f"declared max_arity {k} below realized edge size {realized}")
    return Hypergraph(n, k, tuple(edges))


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
    kept = tuple(compress(h.edges, h.inside_rows(u_set).tolist()))
    return Hypergraph(h.n_vertices, h.max_arity, kept)


def clique_expand(h: Hypergraph) -> WeightedGraph:
    """Replace each size-s edge by its s-clique of pairs; multiplicities add.

    The result is a multigraph: integer weights, one per distinct pair.
    """
    return WeightedGraph(h.n_vertices, tuple(zip(*_pair_counts(h))))
