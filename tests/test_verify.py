import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, exp as mp_exp, pi as mp_pi, sinpi as mp_sinpi

from cantorspec import (BudgetExceededError, FilterFamily, TreeMapping, canonical_tau,
                        completeness_Q, constant_pair,
                        dimension_targeting_pair, explicit_pair, enumerate_level, mu_hat,
                        mu_hat_exact_zero,
                        orthogonality_check, partition_identity,
                        partition_levels, uniform_family, word_count)
from cantorspec import verify
from cantorspec.fourier import (LOG_SERIES_THETA, TWO_PI, H_sq_tables, _float_div,
                                eval_filter, eval_H_sq_tables, log_H_sq_array,
                                log_H_sq_series, truncation_level, truncation_target)

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


def pairwise_orthogonality(elements, pair):
    """Oracle: the literal scan of every unordered pair with the exact zero test.

    Returns (violation count, all violating pairs in sorted order).
    """
    elements = sorted(elements)
    violations = [(x, y) for i, x in enumerate(elements) for y in elements[i + 1:]
                  if not mu_hat_exact_zero(pair, y - x).is_zero]
    return len(violations), violations


def _assert_matches_oracle(elements, pair, caps):
    count, violations = pairwise_orthogonality(elements, pair)
    for cap in caps:
        rep = orthogonality_check(elements, pair, violation_cap=cap)
        assert rep.passed == (count == 0)
        assert rep.violation_count == count
        # the report lists the cap smallest violating pairs, whatever the scan order
        assert rep.violations == tuple(violations[:cap])


CAPS = (0, 1, 5, 256)


def test_grouped_equals_pairwise_on_spectra():
    alpha = dimension_targeting_pair(0.5)
    for pair, level in ((MU42, 5), (MU93, 3), (alpha, 3)):
        elements = enumerate_level(canonical_tau(pair), level).elements
        _assert_matches_oracle(elements, pair, CAPS)
        # sums of two labels: a set that fails, with violations at several levels
        _assert_matches_oracle(sorted({x + 3 * y for x in elements[:6] for y in elements[:6]}),
                               pair, CAPS)
    # sets dense in violations, with more of them than every cap
    _assert_matches_oracle(list(range(40)), MU42, CAPS)
    _assert_matches_oracle(list(range(0, 1024, 16)), alpha, CAPS)  # 1568 of 2016 pairs


def test_grouped_equals_pairwise_on_inadmissible_pairs():
    # d_n not dividing b_n: classes equal mod rho_{n+1} differ mod d_n rho_n
    elements = list(range(-60, 61))
    for b, d in (([6], [4]), ([4, 5], [2, 2]), ([2, 3, 7], [3, 2, 5])):
        _assert_matches_oracle(elements, explicit_pair(b, d), CAPS)


def test_orthogonality_rejects_pairs_that_never_separate():
    with pytest.raises(ValueError, match="b_n = 1"):
        orthogonality_check([0, 4], explicit_pair([4, 1], [2, 1]))


@given(st.sets(st.integers(min_value=-5000, max_value=5000), min_size=2, max_size=40),
       st.integers(min_value=0, max_value=12))
@settings(deadline=None, max_examples=120)
def test_grouped_equals_pairwise_random(elements, cap):
    for pair in (MU42, MU93):
        _assert_matches_oracle(elements, pair, (10**6, cap))


def test_canonical_orthogonal_for_all_pairs_tested():
    for pair in (MU42, constant_pair(8, 2), MU93, dimension_targeting_pair(0.5)):
        canonical = canonical_tau(pair)
        for level in range(1, 6):
            lev = enumerate_level(canonical, level, budget=40000)
            if len(lev) > 4096:
                rep = orthogonality_check(lev, pair, max_elements=40000)
            else:
                rep = orthogonality_check(lev, pair)
            assert rep.passed, (pair.describe(), level)


# ---------------------------------------------------------------------------
# partition identity
# ---------------------------------------------------------------------------

def mp_partition_defect(pair, xi, level):
    """Independent high-precision oracle for the level-L partition sum."""
    rhos = [1]
    for n in range(1, level + 1):
        rhos.append(rhos[-1] * pair.b(n))

    def kernel(d, x):
        return sum(mp_exp(-2j * mp_pi * j * x) for j in range(d)) / d

    with mp.workdps(30):
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
        (results,) = partition_levels(tm, [xi], level)
        assert [r.level for r in results] == list(range(1, level + 1))
        for r in results:
            assert r == partition_identity(tm, xi, r.level)
            assert r.defect <= 1e-13


def test_partition_levels_of_many_xis_equal_one_call_per_xi(monkeypatch):
    # also with tiles of 1, 7 and 64 entries, which split the xi rows early
    table = TreeMapping(MU42, {(1,): -1, (1, 1): -1})
    filters = uniform_family(MU93)
    cases = [(canonical_tau(MU42), 8, None), (canonical_tau(MU93), 5, filters),
             (canonical_tau(dimension_targeting_pair(0.5)), 4, None), (table, 7, None)]
    xis = [0.0, 0.05, 0.3, 0.5, 0.71, 0.999]
    for size in (verify._SLICE, 1, 7, 64):
        monkeypatch.setattr(verify, "_SLICE", size)
        for tm, level, fam in cases:
            together = partition_levels(tm, xis, level, filters=fam)
            assert together == tuple(partition_levels(tm, [xi], level, filters=fam)[0] for xi in xis)
            assert [results[0].xi for results in together] == xis
            assert partition_levels(tm, [], level, filters=fam) == ()


@pytest.mark.parametrize("pair", [MU42, MU93, dimension_targeting_pair(0.5),
                                  dimension_targeting_pair(0.25)])
def test_cached_truncation_depths_equal_truncation_level(pair):
    rng = np.random.default_rng(17)
    scales = verify._Scales(pair)  # shared, so later calls start from a grown cache
    for _ in range(200):
        x = float(10.0 ** rng.uniform(-3, 12)) * rng.choice([-1.0, 1.0])
        tol = float(10.0 ** rng.uniform(-15, 0.5))
        assert scales.truncation(x, tol) == truncation_level(pair, x, tol), (x, tol)
    assert scales.truncation(0.0, 1e-10) == truncation_level(pair, 0.0, 1e-10)
    for k in range(2, 8):
        # a target exactly at the scale rho_k: the least N has rho_{N+1} = rho_k
        rho_k, x = pair.rho(k), pair.rho(k) * 1e-10 / (2 * TWO_PI)
        for _ in range(16):
            if truncation_target(x, 1e-10) != rho_k:
                x = math.nextafter(x, math.inf if truncation_target(x, 1e-10) < rho_k else 0.0)
        assert truncation_target(x, 1e-10) == rho_k
        assert scales.truncation(x, 1e-10) == truncation_level(pair, x, 1e-10) == (k - 1, rho_k)
    for x, tol in [(math.inf, 1e-10), (math.nan, 1e-10), (0.3, 0.0), (0.3, math.nan),
                   (1e300, 1e-300)]:
        with pytest.raises(ValueError) as want:
            truncation_level(pair, x, tol)
        with pytest.raises(ValueError) as got:
            scales.truncation(x, tol)
        assert str(got.value) == str(want.value)


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


def assert_slack_bounds_scalar_sum(got, slack, tol):
    # completeness_Q's per-block slack k c (2 A + k c B), k = 1 + c a_max,
    # dominates the per-term sum of 2 r |muhat| + r^2 (expm1(z) <= z (1 + z)
    # for z <= 1) and exceeds it by about tol relative at most, as the
    # truncation keeps c a_max <= tol / 2; below it only by rounding
    assert got >= slack * (1.0 - 1e-14), (got, slack)
    assert got <= slack * (1.0 + tol), (got, slack)


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
        assert_slack_bounds_scalar_sum(row.certified_slack, slack, 1e-10)


@pytest.mark.parametrize("tm, xi, level, size", [
    (STACKED82, 0.3, 1, 1),      # the labels past level 1 sit on node 1, in the second slice
    (STACKED82, 0.05, 2, 2),     # the label past level 2 sits on node 2, in the second slice
    (DEVIATED42, 0.125, 3, 3),
    (canonical_tau(MU93), 0.17, 3, 4),   # rows of 9 nodes straddle slices of 4
    (canonical_tau(MU93), 0.41, 4, 10),  # rows of 27 nodes straddle slices of 10
    (canonical_tau(MU93), 0.5, 2, 2),    # rows of 3 nodes straddle slices of 2
])
def test_completeness_slices_match_scalar_sum(monkeypatch, tm, xi, level, size):
    monkeypatch.setattr(verify, "_SLICE", size)
    rep = completeness_Q(tm, [xi], level, tol=1e-10)
    for row, (q, slack) in zip(rep.rows, scalar_completeness(tm, xi, level, 1e-10)):
        assert abs(row.q - q) <= 1e-14, (row.level, row.q, q)
        assert abs(row.certified_slack - slack) <= 1e-9 * slack + 1e-30, row.level
        assert_slack_bounds_scalar_sum(row.certified_slack, slack, 1e-10)


ALPHA_QUARTER = canonical_tau(dimension_targeting_pair(0.25))


@pytest.mark.parametrize("tm, level, size", [
    (canonical_tau(MU42), 12, None),   # blocks of 4 rows
    (canonical_tau(MU42), 1, None),
    (canonical_tau(MU93), 8, None),    # blocks of 2 rows
    (canonical_tau(MU93), 10, None),   # one row; rows of 19683 nodes straddle the slices
    (ALPHA_QUARTER, 4, None),          # blocks of 16 rows
    (DEVIATED42, 12, None),
    (canonical_tau(MU42), 5, 64),      # blocks of 2 rows
    (canonical_tau(MU42), 12, 64),
    (canonical_tau(MU93), 3, 64),      # blocks of 2 rows of 27 nodes
    (canonical_tau(MU93), 8, 64),
    (ALPHA_QUARTER, 4, 64),
    (DEVIATED42, 8, 64),
    (canonical_tau(MU42), 1, 7),       # blocks of 3 rows
    (canonical_tau(MU42), 8, 7),
    (canonical_tau(MU93), 5, 7),
    (ALPHA_QUARTER, 4, 7),
    (DEVIATED42, 8, 7),
    (canonical_tau(MU42), 8, 1),
    (canonical_tau(MU93), 4, 1),
    (ALPHA_QUARTER, 3, 1),
    (DEVIATED42, 6, 1),
])
def test_completeness_rows_equal_one_row_at_a_time(monkeypatch, tm, level, size):
    # the last level runs in blocks of grid rows; each row's Q, slacks and
    # verdicts are those of the same call walked one row at a time, bit for bit
    if size is not None:
        monkeypatch.setattr(verify, "_SLICE", size)
    points = {None: 33, 64: 9, 7: 5, 1: 3}[size]
    grid = [0.5 * j / (points - 1) for j in range(points)]
    rep = completeness_Q(tm, grid, level, tol=1e-10)
    monkeypatch.setattr(verify._Tree, "rows_per_tile", lambda self, n: 1)
    assert rep == completeness_Q(tm, grid, level, tol=1e-10)


@pytest.mark.parametrize("tm, level", [
    (canonical_tau(MU42), 1),    # a tail depth taken from the grid moves two of its slacks by an ulp
    (canonical_tau(MU42), 8), (canonical_tau(MU93), 6), (ALPHA_QUARTER, 4), (DEVIATED42, 5)])
def test_completeness_rows_do_not_depend_on_the_grid(tm, level):
    # the tail depth and series start follow [0, 1/2], not the grid: a one-point
    # call gives each xi the rows it has in the grid, bit for bit
    grid = [j / 64 for j in range(33)]
    rows = completeness_Q(tm, grid, level, tol=1e-10).rows
    for k, xi in enumerate(grid):
        assert completeness_Q(tm, [xi], level, tol=1e-10).rows == rows[k * level:(k + 1) * level], xi


# worst relative error of 1 - Q_L over the 33 x 12 oracle points: 3.45e-7
# since Q is rounded once from the gap (5.7e-7 with the direct sum, 5.3e-6
# before the one-pass kernel).  Q < 1 is then within half an ulp, 2^-54, of
# 1 - gap; at the smallest oracle gap, 1.177e-10, that is
# 2^-54 / 1.177e-10 = 4.72e-7 relative
ORACLE_REL_ERR_PIN = 5e-7


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


def test_completeness_matches_deep_oracle():
    # L = 13, 14 at the grid points with the smallest gaps, from
    # completeness_gap_oracle.py --deep: within one rounding of Q, 2^-54, plus
    # 1e-8 of the gap for the gap's own error
    oracle = {}
    path = Path(__file__).parent / "oracles" / "completeness_gap_oracle_deep.out"
    for line in path.read_text().splitlines():
        if line and not line.startswith("#"):
            xi, *gaps = map(float, line.split())
            oracle[xi] = gaps
    assert sorted(oracle) == [1 / 64, 1 / 32, 3 / 64]
    rep = completeness_Q(canonical_tau(MU42), sorted(oracle), 14, tol=1e-10)
    deep = [row for row in rep.rows if row.level >= 13]
    assert len(deep) == 6
    for row in deep:
        ref = oracle[row.xi][row.level - 13]
        assert abs((1.0 - row.q) - ref) <= 2.0 ** -54 + 1e-8 * ref, (row.xi, row.level)


def test_completeness_rejects_colliding_table():
    # tau(1) = 0 gives the word (1) the frequency of (0): lambda repeats
    colliding = TreeMapping(MU42, {(1,): 0})
    assert len(enumerate_level(colliding, 2).collisions) > 0
    with pytest.raises(ValueError, match=r"word=\(1,\)"):
        completeness_Q(colliding, [0.25], 3)
    # a bad label below the requested depth is found through the zero-extension
    with pytest.raises(ValueError, match=r"word=\(1, 0\)"):
        completeness_Q(TreeMapping(MU42, {(1, 0): 1}), [0.25], 1)


# ---------------------------------------------------------------------------
# the digit-major tree and the tail tables against the child-major layout
# ---------------------------------------------------------------------------

def child_major_tree(tm, level):
    """Oracle: the child-major digit tree that preceded the digit-major one, the
    children of node i at i d_n + digit.  Returns the scales, u_n per level, and
    per level-``level`` node lambda of its zero-extension and the level where it
    is new; and the table labels past ``level`` by word length."""
    scales = verify._Scales(tm.pair).upto(level)
    table = {}
    for word, value in tm.table.items():
        n = min(len(word), level)
        if not n or any(word[n:]) or any(not 0 <= e < scales.d[k] for k, e in enumerate(word[:n], 1)):
            continue
        index = 0
        for k, digit in enumerate(word[:n], start=1):
            index = index * scales.d[k] + digit
        table.setdefault(len(word), []).append((index, value))
    table = {k: tuple(np.array(v) for v in zip(*entries)) for k, entries in table.items()}
    us, u, lam, fresh, count = [], np.zeros(1), np.zeros(1), np.ones(1, dtype=np.int8), 1
    for n in range(1, level + 1):
        d = scales.d[n]
        label = np.tile(np.arange(d, dtype=float), count)
        count *= d
        if n in table:
            label[table[n][0]] = table[n][1]
        u = (np.repeat(u / scales.q[n - 1], d) + label) / d
        us.append(u)
        lam = np.repeat(lam, d) + label * float(scales.rho[n])
        fresh = np.repeat(fresh, d)
        fresh[np.arange(len(fresh)) % d != 0] = n
    deep = {k: v for k, v in table.items() if k > level}
    for k, (index, labels) in deep.items():
        lam[index] += labels * float(scales.upto(k).rho[k])
    return scales, us, lam, fresh, deep


def child_major_weights(tm, level, xi, filters):
    """Oracle: w per level on the child-major tree, w = np.repeat(w, d) * factors."""
    scales, us, *_ = child_major_tree(tm, level)
    w, out = np.ones(1), []
    for n, u in enumerate(us, start=1):
        d = scales.d[n]
        a = _float_div(xi, d * scales.rho[n])
        if filters.is_uniform(n):
            factors = eval_H_sq_tables(H_sq_tables(d, u), [a])[0]
        else:
            g = eval_filter(np.asarray(filters.coefficients(n)), a + u)
            factors = g.real ** 2 + g.imag ** 2
        w = (w[:, None] * factors.reshape(-1, d)).ravel()
        out.append(w)
    return out


def child_major_log_tail(scales, xi, u, start, level, depth, deep):
    """Oracle: the per-xi tail that preceded the tail tables, log prod |H_{d_k}(s_k)|^2
    over level < k <= depth: explicit while table labels remain or max |d_k s_k| >
    LOG_SERIES_THETA, then one series in s_k0 for the rest, from scratch per xi."""
    log_t = np.zeros(len(u))
    for k in range(level + 1, depth + 1):
        d = scales.d[k]
        u = u / scales.q[k - 1]
        if k in deep:
            index = deep[k][0] - start
            inside = (index >= 0) & (index < len(u))
            u[index[inside]] += deep[k][1][inside]
        u /= d
        s = _float_div(xi, d * scales.rho[k]) + u
        if k > max(deep, default=0) and d * float(np.max(np.abs(s))) <= LOG_SERIES_THETA:
            ks = range(k, depth + 1)
            return log_t + log_H_sq_series([scales.d[j] for j in ks],
                                           [scales.rho[k] / scales.rho[j] for j in ks], d * s)
        log_t += log_H_sq_array(d, s)
    return log_t


def to_digit_major(values, scales, level):
    # child-major index sum_k delta_k d_{k+1}..d_L to digit-major sum_k delta_k P_{k-1}
    return values.reshape([scales.d[n] for n in range(1, level + 1)]).transpose().ravel()


# taps 0 and 3 at d = 2: a QMF filter other than H_2 (lag 3 is no multiple of 2)
MODULATED42 = FilterFamily(MU42, explicit=((0.5, 0, 0, 0.5), (0.5, 0, 0, 0.5)), label="taps 0, 3")
LAYOUT_CASES = [
    (canonical_tau(MU42), 8, uniform_family(MU42)),
    (canonical_tau(MU42), 6, MODULATED42),
    (canonical_tau(MU93), 5, uniform_family(MU93)),
    (canonical_tau(dimension_targeting_pair(0.5)), 4, uniform_family(dimension_targeting_pair(0.5))),
    (DEVIATED42, 1, uniform_family(MU42)),    # the label of (1, 1) lies past the tree
    (DEVIATED42, 5, MODULATED42),
    (STACKED82, 1, uniform_family(STACKED82.pair)),
]


TILE_XIS = [0.0, 0.3, 0.5, 0.71, 0.05, 0.999]


@pytest.mark.parametrize("tm, level, filters", LAYOUT_CASES)
def test_digit_major_tree_is_the_child_major_tree_reordered(monkeypatch, tm, level, filters):
    # every row of every tile that ends a level is the child-major product of
    # its xi, reordered, bit for bit (so also as sorted arrays) where d_n is
    # prime, also with tiles of 1, 7 and 64 entries; and lambda.  The alpha
    # pair's d_n = 2^n run as n sub-levels of H_2, whose products differ from
    # the closed form of H_{2^n} by rounding: within 8 ulp(1) absolute (3 seen)
    tree = verify._Tree(tm, verify._Scales(tm.pair), level, filters)
    scales, _, lam, _, _ = child_major_tree(tm, level)
    old = [child_major_weights(tm, level, xi, filters) for xi in TILE_XIS]
    prime = all(tree.ends[n] == n for n in range(level + 1))
    for size in (verify._SLICE, 1, 7, 64):
        monkeypatch.setattr(verify, "_SLICE", size)
        seen = set()
        for t, rows, w in tree.tiles(TILE_XIS, tree.ends[level]):
            assert w.shape == (len(rows), tree.size[t])
            seen.update((i, t) for i in rows)
            if t not in tree.ends:
                continue
            n = tree.ends.index(t)
            for i, row in zip(rows, w):
                want = np.ones(1) if n == 0 else to_digit_major(old[i][n - 1], scales, n)
                if prime:
                    assert np.array_equal(row, want), (size, TILE_XIS[i], n)
                    assert np.array_equal(np.sort(row), np.sort(want))
                else:
                    assert np.max(np.abs(row - want)) <= 8 * 2.0 ** -52, (size, TILE_XIS[i], n)
        assert seen == {(i, t) for i in range(len(TILE_XIS)) for t in range(tree.ends[level] + 1)}
    new_lam, _ = verify._frequencies(tm, tree.scales, level)
    assert np.array_equal(new_lam, to_digit_major(lam, scales, level))


def mp_level_products(pair, xi, level):
    """Oracle: per level n, prod_{k<=n} |H_{d_k}((xi + sigma_k) / (d_k rho_k))|^2 over the
    level-n nodes in digit-major order, canonical labels, in 40-digit mpmath."""
    def h_sq(d, s):
        den = mp_sinpi(s)
        return mpf(1) if den == 0 else (mp_sinpi(d * s) / (d * den)) ** 2

    with mp.workdps(40):
        sigma, w, rho, out = [0], [mpf(1)], 1, []
        for n in range(1, level + 1):
            d = pair.d(n)
            w = [p * h_sq(d, (mpf(xi) + s + j * rho) / (d * rho))
                 for j in range(d) for s, p in zip(sigma, w)]
            sigma = [s + j * rho for j in range(d) for s in sigma]
            rho *= pair.b(n)
            out.append(w)
    return out


@pytest.mark.parametrize("pair, level", [
    (dimension_targeting_pair(0.5), 4), (dimension_targeting_pair(0.25), 4),
    (dimension_targeting_pair(1), 2),     # d_2 = 32: five sub-levels of H_2
    (explicit_pair([12], [6]), 3),        # d_n = 6: H_2, then H_3 over twice the nodes
])
def test_sub_level_products_match_mpmath(pair, level):
    # the products of the sub-levels of a composite d_n are as close to the
    # exact level products as the closed form of H_{d_n}, up to 2 ulp(1)
    tm, filters = canonical_tau(pair), uniform_family(pair)
    tree = verify._Tree(tm, verify._Scales(pair), level, filters)
    scales = verify._Scales(pair).upto(level)
    assert tree.ends[level] > level
    for xi in TILE_XIS:
        closed = child_major_weights(tm, level, xi, filters)
        exact = mp_level_products(pair, xi, level)
        for t, _, (w,) in tree.tiles([xi], tree.ends[level]):
            if t not in tree.ends[1:]:
                continue
            n = tree.ends.index(t)
            with mp.workdps(40):
                for got, old, want in zip(w, to_digit_major(closed[n - 1], scales, n), exact[n - 1]):
                    err, old_err = abs(mpf(float(got)) - want), abs(mpf(float(old)) - want)
                    assert err <= old_err + 2 * mpf(2) ** -52, (xi, n, float(err), float(old_err))


def test_off_class_labels_keep_their_level_whole():
    # tau(1) = 2 is not 1 mod d_1 = 6 (a mapping validate_tree_mapping rejects,
    # which partition still takes): level 1 stays one level, with the closed
    # form's totals bit for bit, while level 2 splits as 2 * 3
    tm = TreeMapping(explicit_pair([12], [6]), {(1,): 2})
    tree = verify._Tree(tm, verify._Scales(tm.pair), 2, uniform_family(tm.pair))
    assert tree.ends == [0, 1, 3] and tree.radix == [1, 6, 2, 3]
    for xi, (result,) in zip(TILE_XIS, partition_levels(tm, TILE_XIS, 1)):
        assert result.total == float(np.sum(child_major_weights(tm, 1, xi, uniform_family(tm.pair))[0]))


@pytest.mark.parametrize("size", [None, 1, 7, 64, 100])
@pytest.mark.parametrize("tm, level", [(canonical_tau(MU42), 8), (canonical_tau(MU93), 5),
                                       (canonical_tau(dimension_targeting_pair(0.5)), 4)])
def test_tiles_stay_within_the_slice(monkeypatch, tm, level, size):
    # at most _SLICE entries or one row; each tree level's tiles cover the xis once, in
    # order (the alpha pair's level n is n sub-levels)
    if size is not None:
        monkeypatch.setattr(verify, "_SLICE", size)
    xis = [0.01 * k for k in range(40)]
    tree = verify._Tree(tm, verify._Scales(tm.pair), level, uniform_family(tm.pair))
    by_level = {}
    for t, rows, w in tree.tiles(xis, tree.ends[level]):
        assert w.size <= verify._SLICE or len(rows) == 1, (t, len(rows), w.size)
        by_level.setdefault(t, []).extend(rows)
    assert by_level == {t: list(range(len(xis))) for t in range(tree.ends[level] + 1)}


def test_tiles_batch_the_shallow_levels():
    # one tile for all 50 xis while 50 P_n fits in _SLICE, then at most
    # _SLICE / P_n rows per tile, and one row from P_n = _SLICE on
    xis = [0.01 * k for k in range(50)]
    tree = verify._Tree(canonical_tau(MU42), verify._Scales(MU42), 14, uniform_family(MU42))
    widths = {}
    for n, rows, w in tree.tiles(xis, 14):
        assert len(rows) <= min(50, verify._SLICE // 2 ** n), n
        widths.setdefault(n, []).append(len(rows))
    assert widths[8] == [50] and widths[9] == [32, 18] and widths[14] == [1] * 50
    assert all(ws[0] == min(50, verify._SLICE // 2 ** n) for n, ws in widths.items())


@pytest.mark.parametrize("tm, level", [(canonical_tau(MU42), 8), (canonical_tau(MU93), 5),
                                       (DEVIATED42, 8)])
def test_partition_totals_are_the_one_dimensional_sums(tm, level):
    # P_n < 8, 8 <= P_n <= 128 and P_n > 128 all occur; each total is np.sum of
    # the level's products of that xi as one 1-D array
    filters = uniform_family(tm.pair)
    scales = verify._Scales(tm.pair).upto(level)
    sizes = [math.prod(scales.d[1:n + 1]) for n in range(1, level + 1)]
    assert min(sizes) < 8 and any(8 <= p <= 128 for p in sizes) and max(sizes) > 128
    xis = [0.0, 0.3, 0.71, 0.999]
    for xi, results in zip(xis, partition_levels(tm, xis, level)):
        old = child_major_weights(tm, level, xi, filters)
        for r, w in zip(results, old):
            assert r.total == float(np.sum(to_digit_major(w, scales, r.level))), (xi, r.level)
            assert r.terms == len(w)


@pytest.mark.parametrize("start, stop, width", [
    (0, 27, 9), (4, 11, 9), (7, 8, 9), (0, 5, 9), (3, 30, 9), (0, 16384, 19683),
    (16384, 32768, 19683), (49152, 59049, 19683), (0, 4, 1), (2, 3, 1)])
def test_row_pieces_tile_the_slice(start, stop, width):
    # the pieces cover [start, stop) in order, each within one row or whole rows
    pieces = verify._row_pieces(start, stop, width)
    assert [a for a, _, _, _ in pieces] == [0] + [b for _, b, _, _ in pieces[:-1]]
    assert pieces[-1][1] == stop - start
    for a, b, lo, hi in pieces:
        assert (start + a) % width == lo and (b - a) % (hi - lo) == 0
        assert hi - lo == b - a or (lo, hi) == (0, width)
        assert hi <= width


@pytest.mark.parametrize("tm, level, size", [
    (canonical_tau(MU93), 10, None),   # rows of 3^9 = 19683 nodes straddle the 2^14-node slices
    (canonical_tau(MU93), 4, 10),
    (canonical_tau(MU42), 6, 24),
    (DEVIATED42, 5, 3),
])
def test_slice_products_equal_the_tile_rows(monkeypatch, tm, level, size):
    if size is not None:
        monkeypatch.setattr(verify, "_SLICE", size)
    xis = [0.0, 0.17, 0.5]
    tree = verify._Tree(tm, verify._Scales(tm.pair), level, uniform_family(tm.pair))
    rows = {}
    for n, tile_rows, w in tree.tiles(xis, level):
        for i, row in zip(tile_rows, w):
            rows[i, n] = row
    for block in ([0], [1, 2], [2, 0, 1]):  # one row, and blocks of rows in any order
        parents = np.array([rows[i, level - 1] for i in block])
        parts = [tree.slice_products(level, [xis[i] for i in block], parents, start,
                                     min(start + verify._SLICE, tree.size[level]))
                 for start in range(0, tree.size[level], verify._SLICE)]
        assert np.array_equal(np.concatenate(parts, axis=1),
                              np.array([rows[i, level] for i in block])), block


@pytest.mark.parametrize("tm, level, filters", LAYOUT_CASES)
def test_fresh_blocks_are_the_child_major_fresh_levels(tm, level, filters):
    # the words new at level n are the nodes [P_{n-1}, P_n) ([0, P_1) for n = 1)
    scales, _, _, fresh, _ = child_major_tree(tm, level)
    fresh = to_digit_major(fresh, scales, level)
    blocks = verify._blocks(scales, level)
    assert [a for a, _ in blocks[1:]] == [b for _, b in blocks[:-1]]
    assert blocks[0][0] == 0 and blocks[-1][1] == len(fresh)
    for n, (a, b) in enumerate(blocks, start=1):
        assert np.all(fresh[a:b] == n), n


TAIL_PAIRS = {"mu42": canonical_tau(MU42), "mu93": canonical_tau(MU93),
              "alpha_half": canonical_tau(dimension_targeting_pair(0.5)),
              "alpha_quarter": canonical_tau(dimension_targeting_pair(0.25)),
              "mu42+tree_deviation": DEVIATED42, "stacked82": STACKED82}


@pytest.mark.parametrize("name, level", [
    (name, level) for name, tm in TAIL_PAIRS.items() for level in (4, 8, 12, 16)
    if word_count(tm.pair, level) <= 10**6] + [
    ("mu42+tree_deviation", 1), ("stacked82", 1), ("stacked82", 2)])  # explicit levels
def test_tail_tables_match_per_xi_log_tail(name, level):
    # within 4 ulp relative of the per-xi tail at the same depth, on every node
    tm, grid = TAIL_PAIRS[name], [0.0, 1 / 64, 0.3, 0.5]
    scales, us, lam, _, deep = child_major_tree(tm, level)
    tree = verify._Tree(tm, verify._Scales(tm.pair), level, uniform_family(tm.pair))
    _, new_deep = verify._frequencies(tm, tree.scales, level)
    depth = scales.truncation(float(np.max(np.abs(lam))) + 0.5, 1e-10)[0]
    tables = verify._tail_tables(tree.scales.upto(depth), tree.u, level, depth, max(grid), new_deep)
    sizes = [min(verify._SLICE, len(lam) - start) for start in range(0, len(lam), verify._SLICE)]
    block = np.concatenate([verify._log_tail(tree.scales, table, grid, size)
                            for table, size in zip(tables, sizes)], axis=1)
    for xi, got in zip(grid, block):
        want = to_digit_major(child_major_log_tail(scales, xi, us[-1], 0, level, depth, deep),
                              scales, level)
        assert np.all(np.abs(got - want) <= 4 * 2.0 ** -52 * np.abs(want)), xi
