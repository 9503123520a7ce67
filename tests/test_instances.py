import random
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest

from hypercut.core import build, degree_profile
from hypercut.cutspace import Cut, cut_metrics, equitable_complete_value
from hypercut import instances
from hypercut.errors import InvalidParams, OracleInfeasible
from hypercut.instances import (
    GenSpec,
    exact_maxcut,
    generate,
    moment_audit,
    monotonicity_check,
    validate_steiner,
)

from conftest import (
    brute_force_maxcut,
    first_optimal_rgs,
    plain_monotonicity,
    restricted_growth_strings,
)
from test_derand import random_mixed


# ------------------------------------------------------------- generators


@pytest.mark.parametrize("n", [7, 9, 13, 15, 19, 21, 25, 27, 31, 33])
def test_sts_valid_and_sized(n):
    h = generate(GenSpec(family="sts", n=n))
    assert h.m == n * (n - 1) // 6
    validate_steiner(h)  # every pair exactly once


def test_validate_steiner_names_what_fails(fano):
    lines = [list(e) for e in fano.edges]
    with pytest.raises(InvalidParams, match=r"^pair \(0, 1\) covered twice$"):
        validate_steiner(build(7, [*lines, [0, 1, 2]]))
    with pytest.raises(InvalidParams, match=r"^covered 18 pairs, expected 21$"):
        validate_steiner(build(7, lines[1:]))
    with pytest.raises(InvalidParams, match=r"^Steiner systems are 3-uniform$"):
        validate_steiner(build(7, [*lines[1:], [0, 1], [0, 2], [1, 2]]))


def test_sts_infeasible():
    for n in (8, 11, 12):
        with pytest.raises(InvalidParams):
            generate(GenSpec(family="sts", n=n))


def test_matching_generator():
    h = generate(GenSpec(family="matching", n=12, k=3))
    assert h.m == 4
    assert set(degree_profile(h).degree) == {1}
    with pytest.raises(InvalidParams):
        generate(GenSpec(family="matching", n=10, k=3))


def test_complete_generator():
    h = generate(GenSpec(family="complete", n=6, k=3))
    assert h.m == 20


def test_random_generator_concentrates():
    n, k = 16, 4
    p = 1 / n
    total = len(list(combinations(range(n), k)))
    mean = p * total
    sigma = (total * p * (1 - p)) ** 0.5
    for seed in range(5):
        h = generate(GenSpec(family="random", n=n, k=k, p=p, seed=seed))
        assert abs(h.m - mean) <= 3 * sigma + 1


def test_linear_random_codegrees():
    h = generate(GenSpec(family="linear-random", n=30, k=3, m_target=25, seed=4))
    assert h.m == 25
    assert all(c <= 1 for c in degree_profile(h).codegree.values())


def plain_linear_random(rng, n: int, k: int, m_target: int) -> tuple:
    """The greedy linear generator with no saturation test: it draws until
    m_target edges or 200 (m_target + 1) rejections in a row."""
    used_pairs: set = set()
    edges = []
    stall = 0
    while len(edges) < m_target and stall < 200 * (m_target + 1):
        e = tuple(sorted(rng.sample(range(n), k)))
        pairs = list(combinations(e, 2))
        if any(p in used_pairs for p in pairs):
            stall += 1
            continue
        used_pairs.update(pairs)
        edges.append(e)
        stall = 0
    return tuple(edges)


class CountingRandom(random.Random):
    """A ``random.Random`` that counts its ``sample`` calls."""

    def __init__(self, seed):
        super().__init__(seed)
        self.samples = 0

    def sample(self, population, k, **kwargs):
        self.samples += 1
        return super().sample(population, k, **kwargs)


@pytest.mark.parametrize(
    "n,k,m_target",
    [
        (6, 2, 10),  # capacity 15 pairs
        (6, 2, 30),
        (9, 3, 18),  # at most 12 triples
        (13, 3, 60),
        (20, 3, 100),
        (40, 3, 60),
        (12, 4, 40),
        (16, 4, 5),
        (15, 5, 30),
        (40, 5, 20),
    ],
)
def test_linear_random_matches_the_loop_without_saturation_test(n, k, m_target):
    for seed in range(4):
        h = generate(GenSpec(family="linear-random", n=n, k=k, m_target=m_target, seed=seed))
        want = plain_linear_random(random.Random(f"linear:{seed}"), n, k, m_target)
        assert h.edges == want


def test_linear_random_stops_drawing_once_saturated(monkeypatch):
    made = []

    def counting(seed):
        made.append(CountingRandom(seed))
        return made[-1]

    monkeypatch.setattr(instances, "random", SimpleNamespace(Random=counting))
    for seed in range(3):
        h = generate(GenSpec(family="linear-random", n=9, k=3, m_target=18, seed=seed))
        old = CountingRandom(f"linear:{seed}")
        assert h.edges == plain_linear_random(old, 9, 3, 18)
        assert made[-1].samples * 10 < old.samples


# ------------------------------------------------------------- exact oracle


def test_exact_fano(fano):
    value, cut = exact_maxcut(fano, 2)
    assert value == 6
    assert cut_metrics(fano, cut).size == 6
    assert cut_metrics(fano, cut).excess == Fraction(3, 4)


def test_exact_sts9():
    h = generate(GenSpec(family="sts", n=9))
    value, cut = exact_maxcut(h, 2)
    assert value == 10
    assert cut_metrics(h, cut).excess == 1


def test_exact_single_edge():
    h = build(4, [[0, 1, 2, 3]])
    value, _ = exact_maxcut(h, 2)
    assert value == 1


def test_exact_matches_naive_enumeration():
    rng = random.Random(19)
    for _ in range(15):
        h = random_mixed(rng, n_hi=7, m_hi=10, k_hi=4)
        for r in (2, 3, 4, 5, 9):  # 9 parts are more than any instance has vertices
            value, cut = exact_maxcut(h, r)
            assert (value, cut.assignment) == first_optimal_rgs(h, r)
            if r <= 5:  # 9^n assignments are too many to enumerate
                assert value == brute_force_maxcut(h, r)
            assert cut_metrics(h, cut).size == value


@pytest.mark.parametrize("n,r", [(0, 2), (1, 3), (5, 2), (6, 3), (6, 4), (4, 9)])
def test_partitions_are_the_restricted_growth_strings_in_order(n, r):
    bits = instances._partitions(n, r)
    got = [tuple(int(b).bit_length() for b in column) for column in bits.T]
    assert got == list(restricted_growth_strings(n, r))


def test_oracles_with_more_parts_than_vertices():
    h = build(3, [[0, 1, 2]])
    assert exact_maxcut(h, 70) == (0, Cut(70, (1, 1, 1)))
    res = monotonicity_check(h, 70, (0, 1, 2), [])
    assert (res.conditional, res.base, res.verdict) == (0, 0, "PASS")


@pytest.mark.parametrize("r", [2, 3, 4])
def test_exact_empty_instance(r):
    assert exact_maxcut(build(0, []), r) == (0, Cut(r, ()))


def test_exact_oracle_limits():
    h = build(17, [[0, 1]])
    with pytest.raises(OracleInfeasible):
        exact_maxcut(h, 2)
    h = build(13, [[0, 1]])
    with pytest.raises(OracleInfeasible):
        exact_maxcut(h, 3)


def test_exact_oracle_dominates_any_cut(fano):
    rng = random.Random(23)
    value, _ = exact_maxcut(fano, 2)
    for _ in range(30):
        cut = Cut(2, tuple(rng.choice((1, 2)) for _ in range(7)))
        assert cut_metrics(fano, cut).size <= value


def test_equitable_complete_against_oracle():
    for n, k, r in [(8, 3, 2), (8, 4, 2), (9, 3, 3)]:
        h = generate(GenSpec(family="complete", n=n, k=k))
        value, _ = exact_maxcut(h, r)
        assert equitable_complete_value(n, k, r) == value


# ------------------------------------------------------------- monotonicity


def test_monotonicity_pair_split():
    h = build(3, [[0, 1, 2]])
    res = monotonicity_check(h, 2, (0, 1, 2), [((0, 1), 2)])
    assert res.conditional == 1
    assert res.base == Fraction(3, 4)
    assert res.verdict == "STRICT"


def test_monotonicity_no_constraints(fano):
    res = monotonicity_check(fano, 2, (0, 1, 2), [])
    assert res.conditional == res.base
    assert res.verdict == "PASS"


def test_monotonicity_two_pairs():
    h = build(4, [[0, 1, 2, 3]])
    res = monotonicity_check(h, 2, (0, 1, 2, 3), [((0, 1), 2), ((2, 3), 2)])
    assert res.conditional == 1
    assert res.base == Fraction(7, 8)
    assert res.verdict == "STRICT"


def test_monotonicity_matches_product_count():
    rng = random.Random(31)
    for _ in range(80):
        r, k = rng.randint(2, 4), rng.randint(2, 6)
        n = k + rng.randint(0, 3)
        edge = rng.sample(range(n), k)
        free = list(range(k))  # positions in the edge
        rng.shuffle(free)
        shape = []
        while len(free) >= 2 and rng.random() < 0.7:
            size = rng.randint(2, len(free))
            shape.append((free[:size], rng.randint(2, r)))
            free = free[size:]
        constraints = [([edge[i] for i in f], l) for f, l in shape]
        want = plain_monotonicity(r, k, shape)
        if want is None:
            with pytest.raises(InvalidParams, match="^constraints are unsatisfiable$"):
                monotonicity_check(build(n, [edge]), r, edge, constraints)
            continue
        res = monotonicity_check(build(n, [edge]), r, edge, constraints)
        assert (res.conditional, res.base) == want
        conditional, base = want
        verdict = "STRICT" if conditional > base else "PASS" if conditional == base else "FAIL"
        assert res.verdict == verdict


def test_monotonicity_rejects_bad_constraints():
    h = build(4, [[0, 1, 2, 3]])
    with pytest.raises(InvalidParams):
        monotonicity_check(h, 2, (0, 1, 2), [((0,), 2)])
    with pytest.raises(InvalidParams):
        monotonicity_check(h, 2, (0, 1, 2), [((0, 1), 1)])
    with pytest.raises(InvalidParams):
        monotonicity_check(h, 2, (0, 1, 2), [((0, 1), 2), ((1, 2), 2)])


# ------------------------------------------------------------- moment audit


def test_moment_audit_single_edge_bernoulli():
    # one 4-edge, two vertices outside W: eta is a scaled fair coin
    h = build(4, [[0, 1, 2, 3]])
    res = moment_audit(h, {0, 1}, (0, 1), samples=200_000, seed=7)
    assert res.g_uv == 1
    assert abs(res.variance - 0.25 * (2.0 ** (2 - 2)) ** 2) < 0.01
    assert abs(res.kurtosis - 1.0) < 0.05
    assert res.verdict == "PASS"


def test_moment_audit_vacuous():
    h = build(5, [[0, 1, 2]])  # only one vertex outside W
    res = moment_audit(h, {0, 1, 3, 4}, (0, 1), samples=10_000, seed=1)
    assert res.verdict == "VACUOUS" and res.g_uv == 0


def test_moment_audit_disjoint_five_edges():
    edges = [[0, 1, 2 + 3 * i, 3 + 3 * i, 4 + 3 * i] for i in range(10)]
    h = build(32, edges)
    res = moment_audit(h, {0, 1}, (0, 1), samples=100_000, seed=3)
    assert res.g_uv == 10
    assert res.verdict == "PASS"
    assert res.kurtosis <= 9.0**3 * 1.1


def test_moment_audit_rejects_a_pair_that_repeats_a_vertex():
    h = build(4, [[0, 1, 2, 3]])
    with pytest.raises(InvalidParams, match="repeats vertex 0"):
        moment_audit(h, {0, 1}, (0, 0), samples=10_000, seed=0)


def test_moment_audit_requires_samples():
    h = build(4, [[0, 1, 2, 3]])
    with pytest.raises(InvalidParams):
        moment_audit(h, {0, 1}, (0, 1), samples=100, seed=0)
