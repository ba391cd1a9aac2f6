import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, exp as mp_exp, pi as mp_pi

from cantorspec import (BudgetExceededError, TreeMapping, canonical_tau,
                        completeness_Q, constant_pair,
                        dimension_targeting_pair, enumerate_level, mu_hat,
                        orthogonality_check, partition_identity,
                        partition_levels, uniform_family)
from cantorspec.fourier import truncation_level

MU42 = constant_pair(4, 2)
MU93 = constant_pair(9, 3)


# ---------------------------------------------------------------------------
# orthogonality
# ---------------------------------------------------------------------------

def test_orthogonality_examples():
    lev = enumerate_level(canonical_tau(MU42), 4)
    rep = orthogonality_check(lev, MU42)
    assert rep.passed and rep.pair_count == 120 and rep.violation_count == 0

    bad = orthogonality_check([0, 8], MU42)
    assert not bad.passed and bad.violations == ((0, 8),)

    single = orthogonality_check([0], MU42)
    assert single.passed and single.pair_count == 0


def test_orthogonality_budget():
    with pytest.raises(BudgetExceededError) as err:
        orthogonality_check(list(range(5000)), MU42, max_elements=4096)
    assert err.value.required == 5000 * 4999 // 2


def test_orthogonality_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicates"):
        orthogonality_check([0, 0, 1], MU42)


def test_grouped_equals_pairwise_on_spectra():
    for pair, level in ((MU42, 5), (MU93, 3)):
        lev = enumerate_level(canonical_tau(pair), level)
        a = orthogonality_check(lev, pair, method="pairwise")
        b = orthogonality_check(lev, pair, method="grouped")
        assert (a.passed, a.violation_count, a.violations) == (b.passed, b.violation_count, b.violations)


@given(st.sets(st.integers(min_value=-5000, max_value=5000), min_size=2, max_size=40))
@settings(deadline=None, max_examples=120)
def test_grouped_equals_pairwise_random(elements):
    for pair in (MU42, MU93):
        a = orthogonality_check(elements, pair, method="pairwise", violation_cap=10**6)
        b = orthogonality_check(elements, pair, method="grouped", violation_cap=10**6)
        assert a.passed == b.passed
        assert a.violation_count == b.violation_count
        assert a.violations == b.violations


def test_canonical_orthogonal_for_all_pairs_tested():
    for pair in (MU42, constant_pair(8, 2), MU93, dimension_targeting_pair(0.5)):
        canonical = canonical_tau(pair)
        for level in range(1, 6):
            lev = enumerate_level(canonical, level, budget=40000)
            if len(lev) > 4096:
                rep = orthogonality_check(lev, pair, max_elements=40000, method="grouped")
            else:
                rep = orthogonality_check(lev, pair)
            assert rep.passed, (pair.describe(), level)


# ---------------------------------------------------------------------------
# partition identity
# ---------------------------------------------------------------------------

def mp_partition_defect(pair, xi, level):
    """Independent high-precision oracle for the level-L partition sum."""
    mp.dps = 30
    rhos = [1]
    for n in range(1, level + 1):
        rhos.append(rhos[-1] * pair.b(n))

    def kernel(d, x):
        return sum(mp_exp(-2j * mp_pi * j * x) for j in range(d)) / d

    total = mpf(0)
    stack = [(0, mpf(1), 0)]  # (level, weight, head sum)
    while stack:
        n, w, sigma = stack.pop()
        if n == level:
            total += w
            continue
        d = pair.d(n + 1)
        for dig in range(d):
            s = sigma + dig * rhos[n]
            f = kernel(d, (mpf(xi) + s) / (d * rhos[n]))
            stack.append((n + 1, w * abs(f) ** 2, s))
    return abs(total - 1)


def test_partition_examples():
    res1 = partition_identity(canonical_tau(MU42), 0.7321, 1)
    assert res1.defect < 1e-15                    # Pythagorean identity
    res8 = partition_identity(canonical_tau(MU42), 0.3, 8)
    assert res8.defect <= 1e-9
    res63 = partition_identity(canonical_tau(constant_pair(6, 3)), 0.1, 4)
    assert res63.defect <= 1e-9


def test_partition_cross_checked_against_mpmath():
    for pair, xi, level in ((MU42, 0.3, 5), (MU93, 0.1, 3)):
        double_defect = partition_identity(canonical_tau(pair), xi, level).defect
        oracle_defect = mp_partition_defect(pair, xi, level)
        assert float(oracle_defect) < 1e-25       # the identity is exact
        assert double_defect < 1e-11              # double precision roundoff only


def test_partition_random_draws():
    rng = np.random.default_rng(11)
    canonical42 = canonical_tau(MU42)
    canonical93 = canonical_tau(MU93)
    alpha = canonical_tau(dimension_targeting_pair(0.5))
    for _ in range(50):
        xi = float(rng.random())
        assert partition_identity(canonical42, xi, int(rng.integers(1, 9))).defect <= 1e-9
    for _ in range(12):
        xi = float(rng.random())
        assert partition_identity(canonical93, xi, int(rng.integers(1, 6))).defect <= 1e-9
        assert partition_identity(alpha, xi, int(rng.integers(1, 5))).defect <= 1e-9


def test_partition_alpha_pair_depth_six():
    alpha = canonical_tau(dimension_targeting_pair(0.5))
    res = partition_identity(alpha, 0.37, 6, budget=3 * 10**6)
    assert res.terms == 2**21
    assert res.defect <= 1e-9


def test_partition_holds_for_deviated_mappings():
    tm = TreeMapping(MU42, {(1,): -1, (1, 1): -1})
    rng = np.random.default_rng(12)
    for _ in range(10):
        assert partition_identity(tm, float(rng.random()), 5).defect <= 1e-10


def test_partition_python_and_vector_paths_agree():
    # a table that reproduces the canonical labels goes through the table-label
    # override of the level expansion and must not change the sum
    mirror = TreeMapping(MU42, {(1,): 1})
    fast = partition_identity(canonical_tau(MU42), 0.3, 6)
    slow = partition_identity(mirror, 0.3, 6)
    assert fast.total == pytest.approx(slow.total, abs=1e-12)


def test_partition_levels_equal_per_level_identity():
    cases = [(canonical_tau(MU42), 0.3, 8), (canonical_tau(MU93), 0.71, 5),
             (canonical_tau(dimension_targeting_pair(0.5)), 0.37, 4),
             (TreeMapping(MU42, {(1,): -1, (1, 1): -1}), 0.05, 7)]
    for tm, xi, level in cases:
        results = partition_levels(tm, xi, level)
        assert [r.level for r in results] == list(range(1, level + 1))
        for r in results:
            assert r == partition_identity(tm, xi, r.level)
            assert r.defect <= 1e-13


def test_partition_budget():
    with pytest.raises(BudgetExceededError):
        partition_identity(canonical_tau(MU42), 0.5, 21)


def test_partition_with_explicit_filters():
    fam = uniform_family(MU42)
    res = partition_identity(canonical_tau(MU42), 0.25, 4, filters=fam)
    assert res.defect < 1e-12


# ---------------------------------------------------------------------------
# completeness trend
# ---------------------------------------------------------------------------

def test_q_at_zero_is_one():
    rep = completeness_Q(canonical_tau(MU42), [0.0], 10, tol=1e-12)
    for row in rep.rows:
        assert abs(row.q - 1.0) < 1e-14


def test_q_trend_monotone_and_bounded():
    rep = completeness_Q(canonical_tau(MU42), [0.0, 0.125, 0.3, 0.5], 10, tol=1e-12)
    assert rep.monotone and rep.bounded
    by_xi = {}
    for row in rep.rows:
        by_xi.setdefault(row.xi, []).append(row.q)
    for xi, qs in by_xi.items():
        assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))
        assert qs[-1] <= 1.0 + rep.rows[-1].certified_slack + 1e-12
    # the gap at moderate depth is already small but measurably nonzero
    assert 0 < rep.worst_gap < 1e-3


def test_q_gap_decays_geometrically():
    rep = completeness_Q(canonical_tau(MU42), [0.5], 10, tol=1e-13)
    qs = [row.q for row in rep.rows]
    gaps = [1 - q for q in qs]
    for a, b in zip(gaps[2:], gaps[3:]):
        assert b < 0.5 * a                         # at least halves per level


# 1 - Q_L(0.3) for L = 1..12 from the independent high-precision run
# (tests/oracles/completeness_gap_oracle.py, printed to 8 significant digits)
ORACLE_GAPS_AT_03 = [0.063609517, 0.018210006, 0.0051921572, 0.0014788722,
                     0.0004210931, 0.00011989009, 3.413304e-5, 9.7176743e-6,
                     2.7666125e-6, 7.8765108e-7, 2.242432e-7, 6.3841729e-8]


def test_q_trend_matches_high_precision_oracle():
    rep = completeness_Q(canonical_tau(MU42), [0.3], 12, tol=1e-12)
    gaps = [1.0 - row.q for row in rep.rows]
    for got, expected in zip(gaps, ORACLE_GAPS_AT_03):
        assert abs(got - expected) <= 1e-3 * expected + 1e-10


def test_q_of_non_orthogonal_set_exceeds_one():
    # {0, 8} fails orthogonality, and its completeness sum overshoots 1
    q0 = sum(mu_hat(MU42, 0.0 + lam, 1e-12).modulus ** 2 for lam in (0, 8))
    assert q0 > 1 + 1e-6


def test_grid_outside_window_rejected():
    with pytest.raises(ValueError, match="outside"):
        completeness_Q(canonical_tau(MU42), [0.7], 3)


def test_q_deviated_mapping_trend():
    tm = TreeMapping(MU42, {(1,): -1})
    rep = completeness_Q(tm, [0.0, 0.25, 0.5], 8, tol=1e-12)
    assert rep.monotone and rep.bounded
    assert rep.worst_gap < 1e-3


DEVIATED42 = TreeMapping(MU42, {(1,): -1, (1, 1): -1})   # demos/configs/tree_deviation.json
# labels on the zero-extensions of the word (1): lambda(1) = 1 + 2*8 + 2*64
STACKED82 = TreeMapping(constant_pair(8, 2), {(1, 0): 2, (1, 0, 0): 2})


def scalar_completeness(tm, xi, level, tol):
    """(Q_L, slack_L) for L = 1..level from the exact frequency sets.

    Each level's new frequencies come from a set difference of
    enumerate_level results; each term is a scalar mu_hat forced to the
    depth that truncation_level picks for the batch's largest |xi + lambda|.
    """
    seen = set()
    q = slack = 0.0
    rows = []
    for n in range(1, level + 1):
        fresh = sorted(set(enumerate_level(tm, n).elements) - seen)
        seen.update(fresh)
        depth, _ = truncation_level(tm.pair, max(abs(xi + v) for v in fresh), tol)
        values = [mu_hat(tm.pair, xi + v, tol, levels=depth) for v in fresh]
        q += math.fsum(tv.modulus ** 2 for tv in values)
        slack += math.fsum(2.0 * tv.radius * tv.modulus + tv.radius ** 2 for tv in values)
        rows.append((q, slack))
    return rows


@pytest.mark.parametrize("tm, xi, level", [
    (canonical_tau(MU42), 0.3, 6),
    (canonical_tau(MU42), 0.0, 4),
    (canonical_tau(MU93), 0.17, 4),
    (canonical_tau(dimension_targeting_pair(0.5)), 0.45, 3),
    (DEVIATED42, 0.5, 5),
    (DEVIATED42, 0.125, 3),
    (STACKED82, 0.3, 1),
    (STACKED82, 0.05, 3),
])
def test_completeness_matches_scalar_sum(tm, xi, level):
    rep = completeness_Q(tm, [xi], level, tol=1e-10)
    for row, (q, slack) in zip(rep.rows, scalar_completeness(tm, xi, level, 1e-10)):
        assert abs(row.q - q) <= 1e-14, (row.level, row.q, q)
        assert abs(row.certified_slack - slack) <= 1e-9 * slack + 1e-30, row.level


# worst relative error of 1 - Q_L over the 33 x 12 oracle points, 5.7e-7
# when pinned (5.3e-6 before the one-pass kernel); at the smallest gaps,
# ~1.2e-10, one unit in the last place of Q is 9.4e-7
ORACLE_REL_ERR_PIN = 2e-6


def test_completeness_matches_oracle_file():
    oracle = {}
    path = Path(__file__).parent / "oracles" / "completeness_gap_oracle.out"
    for line in path.read_text().splitlines():
        fields = line.split()
        if len(fields) == 13 and not line.startswith("#"):
            oracle[float(fields[0])] = [float(v) for v in fields[1:]]
    grid = [0.5 * j / 32 for j in range(33)]
    rep = completeness_Q(canonical_tau(MU42), grid, 12, tol=1e-10)
    assert len(rep.rows) == 33 * 12
    worst = 0.0
    for row in rep.rows:
        expected = oracle[row.xi][row.level - 1]
        gap = 1.0 - row.q
        if expected == 0.0:
            assert abs(gap) <= 1e-15, (row.xi, row.level)
        else:
            worst = max(worst, abs(gap - expected) / expected)
    assert worst <= ORACLE_REL_ERR_PIN


def test_completeness_rejects_colliding_table():
    # tau(1) = 0 gives the word (1) the frequency of (0): lambda repeats
    colliding = TreeMapping(MU42, {(1,): 0})
    assert len(enumerate_level(colliding, 2).collisions) > 0
    with pytest.raises(ValueError, match=r"word=\(1,\)"):
        completeness_Q(colliding, [0.25], 3)
    # a bad label below the requested depth is found through the zero-extension
    with pytest.raises(ValueError, match=r"word=\(1, 0\)"):
        completeness_Q(TreeMapping(MU42, {(1, 0): 1}), [0.25], 1)
