"""Instance generators and exact oracles.

Steiner triple systems come from the two classical quasigroup
constructions (direct product for n = 6t+3, half-idempotent plus a fixed
point for n = 6t+1); both are deterministic and every generated system is
validated pair-by-pair.  Both exact oracles enumerate assignments
quotiented by part relabelling, as restricted-growth strings built
column-wise by ``_partitions``: the max-cut oracle scores every string
edge by edge, and the monotonicity check weighs each string by the
number of assignments it stands for.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .core import Hypergraph, build, degree_profile
from .cutspace import Cut, expected_fraction
from .errors import InvalidEdge, InvalidParams, InvalidVertex, OracleInfeasible


@dataclass(frozen=True)
class GenSpec:
    family: str
    n: int = 0
    k: int = 3
    p: float = 0.0
    m_target: int = 0
    seed: int = 0


def _sts_bose(n: int) -> list[list[int]]:
    """n = 6t+3: triples over Z_{2t+1} x {0,1,2} with x*y = (t+1)(x+y)."""
    t = (n - 3) // 6
    q = 2 * t + 1

    def vid(x, i):
        return 3 * x + i

    star = lambda x, y: ((t + 1) * (x + y)) % q
    triples = [[vid(x, 0), vid(x, 1), vid(x, 2)] for x in range(q)]
    for x in range(q):
        for y in range(x + 1, q):
            for i in range(3):
                triples.append([vid(x, i), vid(y, i), vid(star(x, y), (i + 1) % 3)])
    return triples


def _sts_skolem(n: int) -> list[list[int]]:
    """n = 6t+1: half-idempotent quasigroup on Z_{2t}, plus a fixed point."""
    t = (n - 1) // 6
    q = 2 * t
    infinity = n - 1

    def vid(x, i):
        return 3 * x + i

    # bijection alpha with alpha(2k)=k and alpha(2k+1)=t+k makes
    # x*y = alpha(x+y) commutative with x*x = x on the first half
    alpha = {}
    for k in range(t):
        alpha[(2 * k) % q] = k
        alpha[(2 * k + 1) % q] = t + k
    star = lambda x, y: alpha[(x + y) % q]

    triples = [[vid(x, 0), vid(x, 1), vid(x, 2)] for x in range(t)]
    for x in range(t, q):
        for i in range(3):
            triples.append([infinity, vid(x, i), vid(x - t, (i + 1) % 3)])
    for x in range(q):
        for y in range(x + 1, q):
            for i in range(3):
                triples.append([vid(x, i), vid(y, i), vid(star(x, y), (i + 1) % 3)])
    return triples


def validate_steiner(h: Hypergraph) -> None:
    """Every pair of vertices must lie in exactly one triple."""
    if not h.edges_all_of_size(3):
        raise InvalidParams("Steiner systems are 3-uniform")
    codegree = degree_profile(h).codegree
    twice = next((pair for pair, c in codegree.items() if c > 1), None)
    if twice is not None:
        raise InvalidParams(f"pair {twice} covered twice")
    want = h.n_vertices * (h.n_vertices - 1) // 2
    if len(codegree) != want:
        raise InvalidParams(f"covered {len(codegree)} pairs, expected {want}")


def generate(spec: GenSpec) -> Hypergraph:
    """Build an instance of the requested family; designs self-validate."""
    if spec.family == "sts":
        n = spec.n
        if n % 6 == 3:
            h = build(n, _sts_bose(n))
        elif n % 6 == 1 and n >= 7:
            h = build(n, _sts_skolem(n))
        else:
            raise InvalidParams(f"no Steiner triple system on n={n} (need 1 or 3 mod 6)")
        validate_steiner(h)
        return h
    if spec.family == "matching":
        if spec.k < 1 or spec.n % spec.k != 0:
            raise InvalidParams(f"matching needs k | n, got n={spec.n}, k={spec.k}")
        return build(
            spec.n,
            [list(range(i * spec.k, (i + 1) * spec.k)) for i in range(spec.n // spec.k)],
        )
    if spec.family == "complete":
        if not (1 <= spec.k <= spec.n):
            raise InvalidParams("complete needs 1 <= k <= n")
        return build(spec.n, [list(c) for c in combinations(range(spec.n), spec.k)])
    if spec.family == "random":
        if not (0.0 <= spec.p <= 1.0) or not (1 <= spec.k <= spec.n):
            raise InvalidParams("random needs 0 <= p <= 1 and 1 <= k <= n")
        rng = random.Random(f"binomial:{spec.seed}")
        edges = [list(c) for c in combinations(range(spec.n), spec.k) if rng.random() < spec.p]
        return build(spec.n, edges, max_arity=spec.k)
    if spec.family == "linear-random":
        return _linear_random(spec)
    raise InvalidParams(f"unknown family {spec.family!r}")


def _linear_random(spec: GenSpec) -> Hypergraph:
    """Random greedy partial design: add edges keeping all codegrees <= 1.

    Draws stop after 200 (m_target + 1) rejections in a row, or as soon as
    no k-set with all its pairs unused is left, when no draw can succeed
    any more.  That test runs only at stalls of (m_target + 1) 2^j, so it
    costs nothing while draws keep succeeding.
    """
    if spec.m_target < 0 or not (2 <= spec.k <= spec.n):
        raise InvalidParams("linear-random needs 2 <= k <= n and m_target >= 0")
    rng = random.Random(f"linear:{spec.seed}")
    used_pairs: set[tuple[int, int]] = set()
    edges: list[list[int]] = []
    stall = 0
    check_at = spec.m_target + 1
    while len(edges) < spec.m_target and stall < 200 * (spec.m_target + 1):
        e = sorted(rng.sample(range(spec.n), spec.k))
        pairs = list(combinations(e, 2))
        if any(p in used_pairs for p in pairs):
            stall += 1
            if stall == check_at:
                if not _unused_clique_exists(spec.n, spec.k, used_pairs):
                    break
                check_at *= 2
            continue
        used_pairs.update(pairs)
        edges.append(e)
        stall = 0
        check_at = spec.m_target + 1
    return build(spec.n, edges, max_arity=spec.k)


def _unused_clique_exists(n: int, k: int, used_pairs) -> bool:
    """Whether some k of the n vertices have no pair in ``used_pairs``."""
    # later[u]: bitmask of the vertices v > u with (u, v) unused
    later = [((1 << n) - 1) ^ ((2 << u) - 1) for u in range(n)]
    for u, v in used_pairs:
        later[u] &= ~(1 << v)

    def extend(cand: int, need: int) -> bool:
        if need == 0:
            return True
        while cand.bit_count() >= need:
            low = cand & -cand
            cand ^= low
            if extend(cand & later[low.bit_length() - 1], need - 1):
                return True
        return False

    return extend((1 << n) - 1, k)


def _partitions(n: int, r: int) -> np.ndarray:
    """Every split of n vertices into at most r parts, each exactly once.

    The splits are restricted-growth strings in lexicographic order: vertex
    0 is in part 1, and each later vertex joins a part already used or the
    next new one.  Row v holds vertex v's part bits, bit p-1 for part p,
    one column per string.  Strings grow one vertex at a time, each
    repeated once per child.
    """
    r = max(min(r, n), 0)  # no split uses more than n parts
    dtype = np.min_scalar_type((1 << r) - 1)
    bits = np.zeros((0, 1), dtype=dtype)
    used = np.zeros(1, dtype=np.intp)  # parts each string uses so far
    for _ in range(n):
        children = np.minimum(used + 1, r)
        parent = np.repeat(np.arange(len(used)), children)
        part = np.arange(len(parent)) - np.repeat(np.cumsum(children) - children, children)
        bits = np.vstack((bits[:, parent], (1 << part).astype(dtype)))
        used = np.maximum(used[parent], part + 1)
    return np.ascontiguousarray(bits)  # the oracles OR whole rows


def exact_maxcut(h: Hypergraph, r: int) -> tuple[int, Cut]:
    """Exact max r-cut with witness, for desk-scale instances only.

    The witness is the first optimal restricted-growth string.
    """
    if r < 2:
        raise InvalidParams("need r >= 2")
    n = h.n_vertices
    limit = 16 if r == 2 else (12 if r == 3 else 10)
    if n > limit:
        raise OracleInfeasible(f"n={n} exceeds the r={r} enumeration limit {limit}")
    bits = _partitions(n, r)
    size = np.zeros(bits.shape[1], dtype=np.int64)
    for e, mult in h.edge_multiset().items():
        seen = bits[e[0]]
        for v in e[1:]:
            seen = seen | bits[v]
        size += mult * (np.bitwise_count(seen) == r)
    best = int(size.argmax())
    return int(size[best]), Cut(r, tuple(int(b).bit_length() for b in bits[:, best]))


@dataclass(frozen=True)
class MonotonicityResult:
    conditional: Fraction
    base: Fraction
    verdict: str  # STRICT | PASS | FAIL


def monotonicity_check(h, r: int, e, constraints) -> MonotonicityResult:
    """Exact conditional multicolour probability under spread constraints.

    ``constraints`` lists (f_i, l_i): f_i a subset of e with at least two
    vertices, conditioned to meet at least l_i >= 2 parts.  Enumeration is
    exact over the r^|e| assignments of e's vertices: a split of e into j
    parts stands for the r (r-1) ... (r-j+1) assignments that name its
    parts.  ``e`` must be a nonempty set of distinct vertex ids of h.
    """
    e = tuple(e)
    if not e or len(set(e)) != len(e):
        raise InvalidEdge(f"edge {list(e)} is empty or repeats a vertex")
    if any(not 0 <= v < h.n_vertices for v in e):
        raise InvalidVertex(f"vertex id out of range in edge {list(e)} (n={h.n_vertices})")
    fs = [(tuple(f), int(l)) for f, l in constraints]
    used: set[int] = set()
    for f, l in fs:
        if len(f) < 2 or l < 2 or l > r:
            raise InvalidParams("constraints need |f| >= 2 and 2 <= l <= r")
        if not set(f) <= set(e):
            raise InvalidParams("constraint sets must live inside the edge")
        if set(f) & used:
            raise InvalidParams("constraint sets must be disjoint")
        used.update(f)
    if r ** len(e) > 10**6:
        raise OracleInfeasible("edge too large for exact enumeration")
    bits = _partitions(len(e), r)
    pos = {v: i for i, v in enumerate(e)}
    ok = np.ones(bits.shape[1], dtype=bool)
    for f, l in fs:
        ok &= np.bitwise_count(np.bitwise_or.reduce(bits[[pos[v] for v in f]])) >= l
    parts = np.bitwise_count(np.bitwise_or.reduce(bits))
    # Python ints: the falling products overflow no word at any r
    weight = np.cumprod([1, *range(r, r - len(e), -1)], dtype=object)[parts]
    sat = int(weight[ok].sum())
    good = int(weight[ok & (parts == r)].sum())
    if sat == 0:
        raise InvalidParams("constraints are unsatisfiable")
    conditional = Fraction(good, sat)
    base = (
        expected_fraction(len(e), r)
        if r <= len(e)
        else Fraction(0)
    )
    if conditional > base:
        verdict = "STRICT"
    elif conditional == base:
        verdict = "PASS"
    else:
        verdict = "FAIL"
    return MonotonicityResult(conditional, base, verdict)


@dataclass(frozen=True)
class MomentAudit:
    variance: float
    kurtosis: float
    g_uv: int
    kurtosis_bound: float
    variance_bound: float
    verdict: str  # PASS | FAIL | VACUOUS


def moment_audit(h: Hypergraph, w_set, pair, samples: int, seed) -> MomentAudit:
    """Monte Carlo second/fourth moments of the pair weight under exposure.

    Vertices outside W get uniform parts; each edge through the pair with
    at least two outside vertices contributes 2^(2-|e cap W|) when its
    outside image is one-sided.  The audit checks kurtosis <= 9^(k-2)*1.1
    and variance >= g_uv/16.
    """
    if samples < 10**4:
        raise InvalidParams("need at least 10^4 samples")
    w = frozenset(w_set)
    u, v = pair
    if u == v:
        raise InvalidParams(f"the audited pair repeats vertex {u}")
    if u not in w or v not in w:
        raise InvalidParams("the audited pair must lie inside W")
    random_edges = []
    for e in h.edges:
        if u in e and v in e:
            outside = [x for x in e if x not in w]
            if len(outside) >= 2:
                inside_count = len(e) - len(outside)
                random_edges.append((outside, 2.0 ** (2 - inside_count)))
    g_uv = len(random_edges)
    k = h.max_arity
    kurt_bound = (9.0 ** (k - 2)) * 1.1
    var_bound = g_uv / 16.0
    if g_uv == 0:
        return MomentAudit(0.0, 0.0, 0, kurt_bound, var_bound, "VACUOUS")

    rng = np.random.default_rng(seed)
    outside_vertices = sorted({x for outside, _ in random_edges for x in outside})
    col = {x: i for i, x in enumerate(outside_vertices)}
    bits = rng.integers(0, 2, size=(samples, len(outside_vertices)), dtype=np.int8)
    eta = np.zeros(samples)
    for outside, coef in random_edges:
        cols = [col[x] for x in outside]
        sums = bits[:, cols].sum(axis=1)
        one_sided = (sums == 0) | (sums == len(cols))
        eta += coef * one_sided
    var = float(eta.var(ddof=1))
    if var == 0.0:
        return MomentAudit(0.0, 0.0, g_uv, kurt_bound, var_bound, "VACUOUS")
    centered = eta - eta.mean()
    kurt = float((centered**4).mean() / centered.var() ** 2)
    verdict = "PASS" if (kurt <= kurt_bound and var >= var_bound) else "FAIL"
    return MomentAudit(var, kurt, g_uv, kurt_bound, var_bound, verdict)
