"""Cut-problem transformations with machine-checked certificates.

Every reduction carries a ``back_map`` that converts a cut of the
forward instance into a cut of the original and verifies the exact size
relation on the spot; a mismatch raises ``CertificateError`` and means a
bug, never bad input.  It returns the original cut together with the
``CutMetrics`` its certificate computed for it, so callers never score
that cut again.  Both expansions share one back-map, ``_halving``'s:
forward size = 2 * original size.  A partial exposure (``Exposure``)
also reads E[Z | rho] off its forward instance, and its back-map
certifies that value against an oracle on the original; callers keep a
draw by that certified ``average_excess`` alone.  The proofs chain
several of these reductions, so this per-run checking is the artifact's
central safety mechanism.  Each reduction also carries ``transfer(p)``,
the excess its back-map guarantees the original cut when the forward
cut's excess is at least p, computed from the values its builder
certified; callers chain promises through it and keep no transfer
arithmetic of their own.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

import numpy as np

from .core import Hypergraph, WeightedGraph, clique_expand, part_labels, row_sums, within_part_pairs
from .cutspace import (
    Cut,
    CutMetrics,
    PartialCut,
    best_cut,
    cut_metrics,
    partial_average_size,
    uniform_expected_size,
)
from .derand import _conditional_pass
from .errors import (
    CertificateError,
    InvalidArity,
    InvalidExposure,
    InvalidParams,
    InvalidReduction,
)


@dataclass
class Reduction:
    """A forward instance plus a certified map back to the original.

    ``back_map(cut)`` returns (cut of the original, its ``CutMetrics`` on
    the original), the metrics being the ones the certificate computed;
    ``transfer(p)`` is the excess the back-map guarantees that cut when
    the forward cut's excess is at least p.  Only the builders set it.
    """

    forward: object
    back_map: Callable[[Cut], tuple[Cut, CutMetrics]]
    transfer: Callable[[Fraction], Fraction]


def _halving(h: Hypergraph, r: int, forward, forward_size, name: str) -> Reduction:
    """The reduction of h to an expansion on its vertices that doubles every
    r-cut's size: the back-map certifies ``forward_size(cut)``, the cut
    counted on ``forward``, against twice its size in h; excesses halve."""

    def back_map(cut: Cut) -> tuple[Cut, CutMetrics]:
        if cut.r != r or len(cut.assignment) != h.n_vertices:
            raise InvalidParams(f"expected a {r}-cut on the shared vertex set")
        z_fwd = forward_size(cut)
        metrics = cut_metrics(h, cut)
        if z_fwd != 2 * metrics.size:
            raise CertificateError(f"{name}: forward size {z_fwd} != 2*{metrics.size}")
        return cut, metrics

    return Reduction(forward, back_map, lambda p: p / 2)


def expand_3graph(h: Hypergraph) -> Reduction:
    """3-graph 2-cuts as multigraph cuts on the triangle expansion.

    A 2-cut of size z in h is a cut of size exactly 2z in the 3m-edge
    multigraph, a ``WeightedGraph`` whose integer weights are the pair
    multiplicities; the assignment is shared.
    """
    if not h.edges_all_of_size(3):
        raise InvalidArity("expand_3graph needs a 3-uniform hypergraph")
    forward = clique_expand(h)
    return _halving(h, 2, forward, lambda c: forward.crossing_weight(c.assignment), "triangle expansion")


def rgraph_expand(h: Hypergraph, r: int) -> Reduction:
    """k-edges replaced by their (k-1)-subsets; sizes halve on the way back.

    A multicoloured k-edge under k-1 parts repeats exactly one part, so
    exactly two of its k subsets are rainbow; non-multicoloured edges
    contribute none.
    """
    k = h.max_arity
    if not h.edges_all_of_size(k):
        raise InvalidArity("rgraph_expand needs a k-uniform hypergraph")
    if r != k - 1 or r < 3:
        raise InvalidParams(f"rgraph_expand needs r = k-1 >= 3, got r={r}, k={k}")
    subsets = list(combinations(range(k), r))  # each row's, in edge order; edgeless is (0, 0)
    rows = h.edge_array.reshape(h.m, k)[:, subsets].reshape(-1, r)
    forward = Hypergraph.from_rows(h.n_vertices, r, rows)
    return _halving(h, r, forward, lambda c: cut_metrics(forward, c).size, "subset expansion")


def _exposure_labels(h: Hypergraph, rho: dict, parts) -> np.ndarray:
    """Each vertex's part under rho, 0 where rho leaves it free, and one
    past the largest of ``parts`` for the padding vertex n.

    Raises ``InvalidExposure`` when rho names a vertex outside [0, n) or a
    part outside ``parts``.
    """
    n = h.n_vertices
    if any(p not in parts for p in rho.values()):
        raise InvalidExposure(f"rho must assign parts {sorted(parts)} only")
    if rho and (min(rho) < 0 or max(rho) >= n):
        raise InvalidExposure(f"rho assigns a vertex outside the instance (n={n})")
    labels = np.zeros(n + 1, dtype=np.intp)
    labels[n] = max(parts) + 1
    labels[list(rho)] = list(rho.values())
    return labels


def _unexposed_rows(h: Hypergraph, image, kept) -> np.ndarray:
    """The vertices rho leaves free of each kept edge, as padded rows.

    ``image`` holds the ``_exposure_labels`` of the edge array, 0 where a
    vertex is free; every other entry becomes the padding vertex n, which
    sorts last.
    """
    return np.sort(np.where(image[kept] == 0, h.edge_array[kept], h.n_vertices), axis=1)


@dataclass
class Exposure(Reduction):
    """A partial exposure rho, with the sizes its back-map certifies.

    ``transfer`` reads the builder's certified values, never these
    attributes, so a later write to them changes no promise.
    """

    conditional_size: Fraction  # E[Z | rho]
    base_size: Fraction  # E[Z]

    @property
    def average_excess(self) -> Fraction:
        """E[Z | rho] - E[Z], what the exposure adds to a forward cut's excess."""
        return self.conditional_size - self.base_size


def hpart_expose(h: Hypergraph, r: int, rho: dict, keep: int = 2) -> Exposure:
    """Partial exposure of the top parts; the rest becomes a smaller cut problem.

    ``rho`` assigns parts {keep+1..r} to some vertices; the others
    ("starred") stay free over {1..keep}.  An edge survives iff its
    rho-image covers every exposed part and at least ``keep`` of its
    vertices are starred; its starred vertices form a forward edge of at
    most k - r + keep vertices.  A keep-cut of the forward instance merged
    with rho is an r-cut of h of exactly the same size, so E[Z | rho], with
    the starred vertices uniform over {1..keep}, is the forward instance's
    uniform keep-cut expectation.  The back-map certifies both: the size
    relation, and that value against ``exposure_average_excess``; so a
    forward excess p transfers to p + (E[Z | rho] - E[Z]).
    """
    if keep not in (2, 3):
        raise InvalidParams("keep must be 2 or 3")
    if r < keep + 1 or r > h.max_arity:
        raise InvalidParams(f"need {keep + 1} <= r <= k, got r={r}, k={h.max_arity}")
    exposed = range(keep + 1, r + 1)
    image = _exposure_labels(h, rho, exposed)[h.edge_array]  # 0 = starred
    covered = np.logical_and.reduce([row_sums(image == p) > 0 for p in exposed])
    kept = np.flatnonzero(covered & (row_sums(image == 0) >= keep))
    forward = Hypergraph.from_rows(
        h.n_vertices, h.max_arity - r + keep, _unexposed_rows(h, image, kept)
    )
    cond, base = uniform_expected_size(forward, keep), uniform_expected_size(h, r)

    def back_map(cut: Cut) -> tuple[Cut, CutMetrics]:
        if cut.r != keep or len(cut.assignment) != h.n_vertices:
            raise InvalidParams(f"expected a {keep}-cut on the shared vertex set")
        out = Cut(r, tuple(rho.get(v, p) for v, p in enumerate(cut.assignment)))
        z_fwd = cut_metrics(forward, cut).size
        metrics = cut_metrics(h, out)
        if z_fwd != metrics.size:
            raise CertificateError(
                f"partial exposure: forward size {z_fwd} != original size {metrics.size}"
            )
        if cond - base != exposure_average_excess(h, r, rho, keep=keep):
            raise CertificateError("partial exposure: conditional-size identity failed")
        return out, metrics

    return Exposure(forward, back_map, lambda p: p + (cond - base), cond, base)


def exposure_average_excess(h: Hypergraph, r: int, rho: dict, keep: int = 2) -> Fraction:
    """E[Z | exposure] - E[Z] with starred vertices uniform over {1..keep}."""
    pc = PartialCut(r, dict(rho))
    return partial_average_size(h, pc, free_parts=keep) - uniform_expected_size(h, r)


def hpart_double(h: Hypergraph, rho: dict) -> Exposure:
    """Averaging-trick exposure: doubled inside edges plus one-sided stubs.

    ``rho`` assigns parts {1, 2} to the vertices outside W; W is the set
    of vertices it leaves unassigned.  The forward instance on W holds two
    copies of each edge inside W and a stub e∩W for each edge whose
    exposed remainder shows only one part.  Completing a 2-cut phi of the
    forward instance with rho, the better of phi and its flip has excess
    at least x'/2 + (E[Z|rho] - E[Z]), where x' is phi's forward excess;
    that bound is the ``transfer`` of x'.  Every back-map checks it, and
    the average-size identity under it, exactly, and returns the better
    side with its metrics.

    E[Z|rho] is read off the built forward instance: half its uniform
    2-cut expectation, plus 1/2 per stub and 1 per edge whose exposed
    vertices show both parts.  The back-map certifies that value against
    ``partial_average_size`` on h.
    """
    sides = _exposure_labels(h, rho, (1, 2))[h.edge_array]  # 0 = inside W
    has1, has2 = row_sums(sides == 1) > 0, row_sums(sides == 2) > 0
    n_inside = row_sums(sides == 0)
    multi = has1 & has2
    doubled = ~(has1 | has2)
    stub = ~multi & ~doubled & (n_inside > 0)
    n_multi = int(np.count_nonzero(multi))
    n_undet = int(np.count_nonzero(stub))
    kept = np.flatnonzero(doubled | stub)
    # each doubled edge's two copies sit next to each other
    rows = np.repeat(_unexposed_rows(h, sides, kept), doubled[kept] + 1, axis=0)
    forward = Hypergraph.from_rows(h.n_vertices, h.max_arity, rows)
    cond = uniform_expected_size(forward, 2) / 2 + Fraction(n_undet, 2) + n_multi
    base = uniform_expected_size(h, 2)

    def back_map(phi: Cut) -> tuple[Cut, CutMetrics]:
        if phi.r != 2 or len(phi.assignment) != h.n_vertices:
            raise InvalidParams("expected a 2-cut on the shared vertex set")
        omega = Cut(2, tuple(rho.get(v, p) for v, p in enumerate(phi.assignment)))
        omega_bar = Cut(2, tuple(rho.get(v, 3 - p) for v, p in enumerate(phi.assignment)))
        m1, m2 = cut_metrics(h, omega), cut_metrics(h, omega_bar)
        z1, z2 = m1.size, m2.size
        fwd_metrics = cut_metrics(forward, phi)
        z_part = fwd_metrics.size
        if z1 + z2 != z_part + n_undet + 2 * n_multi:
            raise CertificateError(
                "averaging identity failed: "
                f"{z1}+{z2} != {z_part} + {n_undet} + 2*{n_multi}"
            )
        if cond != partial_average_size(h, PartialCut(2, dict(rho))):
            raise CertificateError("doubled exposure: conditional-size identity failed")
        if max(z1, z2) - base < transfer(fwd_metrics.excess):
            raise CertificateError("excess-transfer inequality failed")
        return (omega, m1) if z1 >= z2 else (omega_bar, m2)

    def transfer(p: Fraction) -> Fraction:
        return p / 2 + (cond - base)

    return Exposure(forward, back_map, transfer, cond, base)


def weighted_reduce(h: Hypergraph, parts) -> list[WeightedGraph]:
    """Average-excess problems on disjoint parts as exactly equivalent weighted graphs.

    For each part V', every edge meeting V' in exactly {u,v} adds
    2^(2-|e|) to the weight between u and v; then, for every assignment
    of V', the weighted excess equals the average excess of the partial
    cut, exactly.  The rows of the edge array, sorted by owning part, give
    every part's pairs at once: two neighbouring entries of one part.
    """
    parts = list(parts)
    n1 = h.n_vertices + 1
    labels = part_labels(h.n_vertices, parts, "weighted_reduce")
    part, vertex, i, j, together = within_part_pairs(h, labels)
    triple = np.flatnonzero(together[:, j - i > 1].any(axis=1))
    if triple.size:
        e = h.edges[triple[0]]
        meets = Counter(labels[list(e)].tolist())  # parts in the order e meets them
        p, count = next((p, count) for p, count in meets.items() if p >= 0 and count > 2)
        raise InvalidReduction(f"edge {e} meets part {p} in {count} > 2 vertices")
    row, c = np.nonzero(together)
    if not row.size:  # no edge meets a part twice, as on an edgeless instance
        return [WeightedGraph(h.n_vertices, ()) for _ in parts]
    keys = (part[row, i[c]] * n1 + vertex[row, i[c]]) * n1 + vertex[row, j[c]]
    # weights carried as integers scaled by 2^k (each 2^(2-|e|) is k-dyadic);
    # the keys ascend by part, then pair, each with its edges of each size
    w = part.shape[1]
    k = w or 2
    keys, counts = np.unique(keys * (w + 1) + h.edge_sizes[row], return_counts=True)
    scaled: dict[int, int] = {}
    for key, count in zip(keys.tolist(), counts.tolist()):
        pair, size = divmod(key, w + 1)
        scaled[pair] = scaled.get(pair, 0) + (count << (k + 2 - size))
    graphs: list[list] = [[] for _ in parts]
    for pair, x in scaled.items():
        rest, v = divmod(pair, n1)
        p, u = divmod(rest, n1)
        graphs[p].append((u, v, Fraction(x, 1 << k)))
    return [WeightedGraph(h.n_vertices, tuple(g)) for g in graphs]


def weighted_identity_check(wgs, omegas, averages) -> None:
    """Certify the weighted/average-excess identity for every part at once.

    ``wgs[i]`` is the weighted graph of part i, ``omegas[i]`` a 2-part
    assignment of that part, and ``averages[i]`` its average excess from
    one ``cutspace.partial_average_excesses`` pass (the pass
    ``combine_partial_cuts`` makes), a ``Fraction`` oracle that shares no
    code with ``weighted_reduce``.  A part with no weighted pair has
    weighted excess 0, so its average is compared with 0 directly.
    Raises ``CertificateError`` on the first mismatch.
    """
    if not len(wgs) == len(omegas) == len(averages):
        raise InvalidParams("need one assignment and one average per weighted graph")
    for i, (wg, omega, avg) in enumerate(zip(wgs, omegas, averages)):
        weighted_excess = (
            wg.crossing_weight(omega) - Fraction(wg.total_weight, 2) if wg.weights else 0
        )
        if weighted_excess != avg:
            raise CertificateError(
                f"part {i}: weighted excess {weighted_excess} != average excess "
                f"{avg} on {sorted(omega)}"
            )


def lift_2cut_to_3cut(h: Hypergraph, c2: Cut) -> Cut:
    """Open a third part by conditional expectations over per-vertex moves.

    Each vertex independently moving to part 3 with probability 1/3 makes
    a spanning edge rainbow with probability 8/27, so the expected 3-cut
    size is (8/27) times the 2-cut size, and ``derand._conditional_pass``
    meets it with one law per 2-cut part: stay w.p. 2/3, move w.p. 1/3.
    Staying is listed first, so a tie keeps a vertex in its 2-cut part.
    """
    if not h.edges_all_of_size(3):
        raise InvalidArity("lift needs a 3-uniform hypergraph")
    if c2.r != 2 or len(c2.assignment) != h.n_vertices:
        raise InvalidParams("expected a 2-cut of h")
    z2 = cut_metrics(h, c2).size
    law_of = [p - 1 for p in c2.assignment]
    assignment, scale, start, expected = _conditional_pass(h, ((2, 0, 1), (0, 2, 1)), law_of)
    if start * 27 != 8 * z2 * scale:
        raise CertificateError("initial lift expectation != (8/27) * 2-cut size")
    cut = Cut(3, tuple(assignment))
    realized = cut_metrics(h, cut).size
    if realized * scale != expected:
        raise CertificateError("lift bookkeeping mismatch")
    if realized * 27 < 8 * z2:
        raise CertificateError("lift fell below (8/27) * 2-cut size")
    return cut


def dense_subset_cut(h: Hypergraph, w_set, r: int, trials: int, seed) -> tuple[Cut, CutMetrics]:
    """Best of random cuts whose restriction to W is an equitable r-partition,
    with its metrics."""
    w = sorted(set(w_set))
    part_labels(h.n_vertices, [w], "dense_subset_cut")  # W lies in [0, n)
    if len(w) < r:
        raise InvalidParams(f"|W| = {len(w)} < r = {r}")
    rng = random.Random(f"dense-subset:{seed}")
    quota = [len(w) // r + (1 if i < len(w) % r else 0) for i in range(r)]

    def draw() -> Cut:
        shuffled = w[:]
        rng.shuffle(shuffled)
        assignment = [rng.randint(1, r) for _ in range(h.n_vertices)]
        pos = 0
        for p in range(r):
            for v in shuffled[pos : pos + quota[p]]:
                assignment[v] = p + 1
            pos += quota[p]
        return Cut(r, tuple(assignment))

    return best_cut(h, draw, trials)
