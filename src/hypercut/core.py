"""Immutable mixed multihypergraph and pair-graph data model.

Vertices are dense 0-based integers.  Edges are stored as strictly
increasing tuples; coincident edges are kept as distinct entries, so
multiplicity is a first-class concept.  A multigraph is a
``WeightedGraph`` with integer weights, the pair multiplicities.
Instances never change their value after construction and every
operation here is pure; a ``Hypergraph`` builds its padded edge array
and edge-size histogram on first use and keeps them, outside its
equality and hash.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

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
    def size_histogram(self) -> tuple[int, ...]:
        """Entry s is the number of edges of size s, for s up to the largest."""
        counts = [0] * (max((len(e) for e in self.edges), default=0) + 1)
        for e in self.edges:
            counts[len(e)] += 1
        return tuple(counts)

    def edge_multiset(self) -> Counter:
        return Counter(self.edges)

    def incidence(self) -> list[list[int]]:
        """Per-vertex list of incident edge indices."""
        inc: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for i, e in enumerate(self.edges):
            for v in e:
                inc[v].append(i)
        return inc

    def vertices_in_edges_of_size_at_least(self, s: int) -> set[int]:
        out: set[int] = set()
        for e in self.edges:
            if len(e) >= s:
                out.update(e)
        return out

    def without_edges(self, drop: set[int]) -> "Hypergraph":
        """Copy with the edges at the given indices removed."""
        kept = tuple(e for i, e in enumerate(self.edges) if i not in drop)
        return Hypergraph(self.n_vertices, self.max_arity, kept)


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


def degree_profile(h: Hypergraph) -> DegreeProfile:
    """Exact per-vertex degrees and per-pair joint degrees (codegrees)."""
    deg = [0] * h.n_vertices
    codeg: Counter = Counter()
    for e in h.edges:
        for v in e:
            deg[v] += 1
        for i in range(len(e)):
            for j in range(i + 1, len(e)):
                codeg[(e[i], e[j])] += 1
    return DegreeProfile(tuple(deg), dict(codeg), max(deg, default=0))


def induce(h: Hypergraph, u_set) -> Hypergraph:
    """The induced sub-multihypergraph H[U]: the edges lying fully inside ``u_set``.

    Vertex ids are preserved; the result lives on the same [0, n) id space.
    """
    u = frozenset(u_set)
    kept = tuple(e for e in h.edges if all(v in u for v in e))
    return Hypergraph(h.n_vertices, h.max_arity, kept)


def clique_expand(h: Hypergraph) -> WeightedGraph:
    """Replace each size-s edge by its s-clique of pairs; multiplicities add.

    The result is a multigraph: integer weights, one per distinct pair.
    """
    counts: Counter = Counter()
    for e in h.edges:
        for i in range(len(e)):
            for j in range(i + 1, len(e)):
                counts[(e[i], e[j])] += 1
    pairs = tuple((u, v, mult) for (u, v), mult in sorted(counts.items()))
    return WeightedGraph(h.n_vertices, pairs)
