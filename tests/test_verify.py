import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, cos as mp_cos, exp as mp_exp, pi as mp_pi, sinpi as mp_sinpi

from cantorspec import (BudgetExceededError, FilterFamily, TreeMapping, canonical_tau,
                        completeness_Q, constant_pair,
                        dimension_targeting_pair, explicit_pair, enumerate_level, mu_hat,
                        mu_hat_array, orthogonality_check, partition_identity,
                        partition_levels, rho, uniform_family, validate_tree_mapping, word_count)
from cantorspec import (default_depth, exact_mean, fourier, hausdorff_dim_formula, pair_from_config,
                        sample_measure, verify)
from cantorspec.core import _to_float
from cantorspec.fourier import (SERIES_THETA, TWO_PI, H_sq_tables, eval_filter,
                                eval_H_sq_tables, eval_taylor, truncation_target)
from log_reference import log_H_sq_array, log_H_sq_series
import reference as ref

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


def test_orthogonality_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicates"):
        orthogonality_check([0, 0, 1], MU42)


def pairwise_orthogonality(elements, pair):
    """Oracle: the literal scan of every unordered pair with the zero condition of
    :func:`reference.transform_vanishes`, on the pair's b_n and d_n to the first
    rho_n past the largest difference.

    Returns (violation count, all violating pairs in sorted order).
    """
    elements = sorted(elements)
    reach = max(elements) - min(elements)
    depth = next(n for n in range(1, 200) if rho(pair, n) > reach)
    b, d = ([f(n) for n in range(1, depth + 1)] for f in (pair.b, pair.d))
    violations = [(x, y) for i, x in enumerate(elements) for y in elements[i + 1:]
                  if not ref.transform_vanishes(b, d, y - x)]
    return len(violations), violations


def _assert_matches_oracle(elements, pair, caps):
    count, violations = pairwise_orthogonality(elements, pair)
    rep = orthogonality_check(elements, pair)
    assert rep.passed == (count == 0)
    assert rep.violation_count == count
    assert rep.violations == tuple(violations[:verify._VIOLATION_CAP])
    for cap in caps:
        # the cap smallest violating pairs, whatever the scan order
        assert verify._grouped_orthogonality(sorted(elements), pair, cap) == (violations[:cap], count)


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
            rep = orthogonality_check(lev, pair)
            assert rep.passed, (pair, level)


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


def test_partition_defect_of_the_cosine_form_stays_at_roundoff():
    # mu93 runs only H_3 sub-levels, ((1 + 2 cos 2 pi s) / 3)^2; the draws of
    # `partition --level 8 --draws 50` at seed 1 keep every level's defect
    # within a few ulp of 1 (worst 8.9e-16 for the cosine form, 1.8e-15 for
    # the quotient of sines it replaced)
    rng = np.random.Generator(np.random.Philox(key=np.array([1, 0], dtype=np.uint64)))
    sums = partition_levels(canonical_tau(MU93), rng.random(50).tolist(), 8)
    assert sums.shape == (50, 8) and np.max(np.abs(sums - 1.0)) <= 4e-15


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
        (sums,) = partition_levels(tm, [xi], level)
        assert sums.shape == (level,)
        for n, total in enumerate(sums.tolist(), start=1):
            r = partition_identity(tm, xi, n)
            assert (r.total, r.defect, r.level, r.xi, r.terms) == (
                total, abs(total - 1.0), n, xi, word_count(tm.pair, n))
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
            alone = [partition_levels(tm, [xi], level, filters=fam) for xi in xis]
            # row i is xis[i]'s, bit for bit
            assert together.shape == (len(xis), level)
            assert together.tobytes() == np.concatenate(alone).tobytes()
            assert partition_levels(tm, [], level, filters=fam).shape == (0, level)


def linear_truncation_level(pair, xi, tol, levels=1):
    """Oracle: the least N >= levels with rho_{N+1} >= the target, by the
    linear scan over the scales that the cached bisection replaced."""
    target = truncation_target(xi, tol)
    n, rho_next = 1, pair.b(1)
    while rho_next < target or n < levels:
        n += 1
        rho_next *= pair.b(n)
    return n, rho_next


@pytest.mark.parametrize("pair", [MU42, MU93, dimension_targeting_pair(0.5),
                                  dimension_targeting_pair(0.25)])
def test_cached_truncation_depths_equal_truncation_level(pair):
    rng = np.random.default_rng(17)
    scales = verify._Scales(pair)  # shared, so later calls start from a grown cache
    for _ in range(200):
        x = float(10.0 ** rng.uniform(-3, 12)) * rng.choice([-1.0, 1.0])
        tol = float(10.0 ** rng.uniform(-15, 0.5))
        levels = int(rng.integers(0, 12))
        assert scales.reach(truncation_target(x, tol)) == linear_truncation_level(pair, x, tol)
        assert (scales.reach(truncation_target(x, tol), levels)
                == linear_truncation_level(pair, x, tol, levels=levels)), (x, tol, levels)
    assert scales.reach(truncation_target(0.0, 1e-10)) == linear_truncation_level(pair, 0.0, 1e-10)
    for k in range(2, 8):
        # a target exactly at the scale rho_k: the least N has rho_{N+1} = rho_k
        rho_k, x = rho(pair, k), rho(pair, k) * 1e-10 / (2 * TWO_PI)
        for _ in range(16):
            if truncation_target(x, 1e-10) != rho_k:
                x = math.nextafter(x, math.inf if truncation_target(x, 1e-10) < rho_k else 0.0)
        assert truncation_target(x, 1e-10) == rho_k
        assert (scales.reach(truncation_target(x, 1e-10))
                == linear_truncation_level(pair, x, 1e-10) == (k - 1, rho_k))
    for x, tol in [(math.inf, 1e-10), (math.nan, 1e-10), (0.3, 0.0), (0.3, math.nan),
                   (1e300, 1e-300)]:
        with pytest.raises(ValueError):
            scales.reach(truncation_target(x, tol))


@pytest.mark.parametrize("pair", [MU42, MU93, dimension_targeting_pair(0.5),
                                  dimension_targeting_pair(0.25), explicit_pair([2 * 10**20 + 2], [2])])
def test_reach_floats_equal_the_scalar_search(pair):
    # one searchsorted over float(rho) per grid of targets gives the rho_{N+1} of
    # the exact search, also at targets equal to a rounded float(rho_k), where the
    # integer comparison decides, and their neighbours
    scales = verify._Scales(pair).upto(12)
    near = [float(r) for r in scales.rho[2:13]]
    targets = np.array(near + [math.nextafter(t, math.inf) for t in near]
                       + [math.nextafter(t, 0.0) for t in near] + [0.0, 1.0, 0.5])
    targets = np.concatenate([targets, 10.0 ** np.random.default_rng(3).uniform(-3, 18, 40)])
    targets = targets[targets <= near[-1]].reshape(-1, 1)
    got = verify._reach_floats(scales, targets)
    assert got.shape == targets.shape
    assert got.ravel().tolist() == [float(scales.reach(t)[1]) for t in targets.ravel().tolist()]


def test_partition_budget():
    with pytest.raises(BudgetExceededError):
        partition_identity(canonical_tau(MU42), 0.5, 21)


def test_partition_levels_refuses_a_d_n_that_does_not_divide_b_n():
    # the tree would reduce the label sums by q_1 = 6 // 4 = 1, as if b_1 were 4: the
    # level-2 sum at xi = 0.3 read 1.0, where the definition's sum over the 16 words is
    # 1.179; level 1 reduces nothing, and its identity holds for every d_1
    tm = canonical_tau(explicit_pair([6], [4]))
    with pytest.raises(ValueError, match=r"^level 1: d_1 = 4 does not divide b_1 = 6"):
        partition_levels(tm, [0.3], 2)
    assert abs(partition_levels(tm, [0.3], 1)[0, 0] - 1.0) < 1e-15
    with pytest.raises(ValueError, match=r"^level 2: d_2 = 4 does not divide b_2 = 6"):
        partition_levels(canonical_tau(explicit_pair([4, 6], [2, 4])), [0.3], 3)


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
    assert rep.bounded
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
    q0 = sum(abs(mu_hat(MU42, 0.0 + lam, 1e-12).value) ** 2 for lam in (0, 8))
    assert q0 > 1 + 1e-6


def test_grid_outside_window_rejected():
    with pytest.raises(ValueError, match="outside"):
        completeness_Q(canonical_tau(MU42), [0.7], 3)


def test_q_deviated_mapping_trend():
    tm = TreeMapping(MU42, {(1,): -1})
    rep = completeness_Q(tm, [0.0, 0.25, 0.5], 8, tol=1e-12)
    assert rep.bounded
    for k in range(3):
        qs = [row.q for row in rep.rows[8 * k:8 * (k + 1)]]
        assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))
    assert rep.worst_gap < 1e-3


DEVIATED42 = TreeMapping(MU42, {(1,): -1, (1, 1): -1})   # demos/configs/tree_deviation.json
# labels on the zero-extensions of the word (1): lambda(1) = 1 + 2*8 + 2*64
STACKED82 = TreeMapping(constant_pair(8, 2), {(1, 0): 2, (1, 0, 0): 2})


# levels past the walk depth of completeness_Q of each kind: H_2, H_3, H_5, the H_2 and
# H_3 sub-levels of d_n = 6, and table labels in the walk
POLYNOMIAL_CASES = [
    (canonical_tau(MU42), 0.3, 12),
    (canonical_tau(MU93), 0.17, 8),
    (canonical_tau(constant_pair(25, 5)), 0.41, 6),
    (canonical_tau(constant_pair(30, 6)), 0.45, 5),
    (DEVIATED42, 0.125, 12),
]
# a table label past the tree: an explicit tail level after the polynomial levels
DEEP_LABEL42 = TreeMapping(MU42, {(1,) + (0,) * 12: -2})


def scalar_completeness(tm, xi, level, tol):
    """(Q_L, slack_L) for L = 1..level from the exact frequency sets.

    Each level's new frequencies come from a set difference of
    enumerate_level results; its terms are one mu_hat_array call over them,
    the truncated product at the depth of the batch's largest |xi + lambda|,
    entry by entry each term's scalar product at that depth.
    """
    seen = set()
    q = slack = 0.0
    rows = []
    for n in range(1, level + 1):
        fresh = sorted(set(enumerate_level(tm, n).elements) - seen)
        seen.update(fresh)
        values, radii, _ = mu_hat_array(tm.pair, xi + np.array(fresh, dtype=float), tol)
        modulus = np.abs(values)
        q += math.fsum((modulus ** 2).tolist())
        slack += math.fsum((2.0 * radii * modulus + radii ** 2).tolist())
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
    *POLYNOMIAL_CASES,
])
def test_completeness_matches_scalar_sum(tm, xi, level):
    rep = completeness_Q(tm, [xi], level, tol=1e-10)
    for row, (q, slack) in zip(rep.rows, scalar_completeness(tm, xi, level, 1e-10)):
        assert abs(row.q - q) <= 1e-14, (row.level, row.q, q)
        assert abs(row.certified_slack - slack) <= 1e-9 * slack + 1e-30, row.level
        assert_slack_bounds_scalar_sum(row.certified_slack, slack, 1e-10)


def test_completeness_memory_stays_flat_in_the_level():
    # past the group level the tree is walked one subtree group at a time, so no array
    # spans a whole deep level: the traced peak at L = 18 (262,144 nodes) stays within
    # 1.25 times the peak at L = 14 (16,384 nodes); whole deep levels made it 4.3 times
    grid = [0.5 * j / 32 for j in range(33)]
    peaks = []
    for level in (14, 18):
        tracemalloc.start()
        try:
            completeness_Q(canonical_tau(MU42), grid, level)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_a_label_past_the_polynomial_levels_matches_mpmath():
    # lambda(1) = 1 - 2 rho_13: the float xi + lambda of the scalar sum loses 3e-10 of
    # Q_1 (ulp(3.4e7) = 7e-9), so the oracle is the product in 40 digits
    def h_sq_product(x):
        return math.prod(mp_cos(mp_pi * x / (2 * mpf(4) ** (n - 1))) ** 2 for n in range(1, 80))

    rows = completeness_Q(DEEP_LABEL42, [0.3], 12).rows
    with mp.workdps(40):
        want, seen = mpf(0), set()
        for level in (1, 2):
            fresh = set(enumerate_level(DEEP_LABEL42, level).elements) - seen
            seen |= fresh
            want += sum(h_sq_product(mpf("0.3") + lam) for lam in fresh)
            assert abs(rows[level - 1].q - want) <= 2.0 ** -52, level


@pytest.mark.parametrize("tm, xi, level", [*POLYNOMIAL_CASES, (DEEP_LABEL42, 0.3, 12)])
def test_polynomial_cases_reach_polynomial_levels(monkeypatch, tm, xi, level):
    # the walk stops short of the last tree level, and the levels past it hold each prime
    # of d_n; the table label past the tree makes an explicit tail level
    seen = []

    def spy(tree, l_max, *args):
        walk, dv = walk_depth(tree, l_max, *args)
        seen.append((tree.radix[walk + 1:tree.ends[l_max] + 1], dv))
        return walk, dv

    walk_depth = verify._walk_depth
    monkeypatch.setattr(verify, "_walk_depth", spy)
    completeness_Q(tm, [xi], level)
    (primes, dv), = seen
    assert primes and set(primes) == set(verify._prime_factors(tm.pair.d(level))) and dv >= 1
    tree = verify._Tree(tm, verify._Scales(tm.pair), level, uniform_family(tm.pair))
    assert any(k > level for k in tree.table) == (tm is DEEP_LABEL42)


def test_an_explicit_tail_level_runs_one_pass_per_prime_sub_level(monkeypatch):
    # _root_angles runs once per sub-level table of an explicit tail level, and the signed
    # root and its complement share its m // 2 angles k = m-1, m-3, ... >= 1.  alpha_one at
    # L = 3: the level d_4 = 2048 = 2^11 splits as the tree does, into 11 H_2 sub-levels,
    # not into the (m - 1) / 2 = 1023 angles of H_2048's Dirichlet sum; (25, 5) at L = 2:
    # a table label past the tree makes level 3 one H_5 table of (5 - 1) / 2 angles.  The
    # sub-levels of an explicit tail level, and with them its degree, are formed once per
    # check, not once per subtree group
    alpha_one = pair_from_config({"kind": "alpha", "alpha": 1, "profile": "dyadic"})
    cases = [(canonical_tau(alpha_one), 3, [4], [2] * 11),
             (TreeMapping(constant_pair(25, 5), {(1, 0, 0): 5}), 2, [3], [5])]
    tails, active = [], []  # per _tail_polynomials call: its explicit levels and its passes
    subs = []  # the level of each _sub_levels call

    def sub_levels(scales, k, *args):
        subs.append(k)
        return sub_levels_of(scales, k, *args)

    def root_angles(t):
        angles = root_angles_of(t)
        if active:
            tails[-1][1].append((t, len(angles[1])))  # the tables stay alive, so ids are unique
        return angles

    def tail_polynomials(scales, explicit, *args):
        tails.append(([k for k, *_ in explicit], []))
        active.append(True)
        try:
            return tail_polynomials_of(scales, explicit, *args)
        finally:
            active.pop()

    root_angles_of, tail_polynomials_of = fourier._root_angles, verify._tail_polynomials
    sub_levels_of = verify._sub_levels
    monkeypatch.setattr(verify, "_sub_levels", sub_levels)
    monkeypatch.setattr(verify, "_root_angles", root_angles)
    monkeypatch.setattr(fourier, "_root_angles", root_angles)  # a pass made inside fourier counts too
    monkeypatch.setattr(verify, "_tail_polynomials", tail_polynomials)
    assert alpha_one.d(4) == 2048
    for tm, level, levels, primes in cases:
        tails.clear()
        subs.clear()
        completeness_Q(tm, [0.5 * j / 32 for j in range(33)], level)
        assert tails
        assert [k for k in subs if k > level] == levels
        for explicit, passes in tails:
            assert explicit == levels
            assert len({id(t) for t, _ in passes}) == len(passes)
            assert sorted(t.m for t, _ in passes) == primes
            assert [count for _, count in passes] == [t.m // 2 for t, _ in passes]


def tree_kernels(tree):
    # the tables of every tree level, from one label walk over the whole tree
    return tree.descend(1, tree.level, verify._ROOT, np.zeros(1), np.zeros(1))[0]


def tree_lambda(tree, last):
    # lambda of each level node's zero-extension: the tree's label walk, then the tail
    # walk to level ``last``, which adds the table labels past the tree
    _, u, lam = tree.descend(1, tree.level, verify._ROOT, np.zeros(1), np.zeros(1))
    return verify._tail_inputs(tree, verify._ROOT, last, u, lam)[1]


def group_walk(tm, level, columns):
    # completeness_Q's walk past its walk depth in groups of ``columns`` level-walk
    # nodes: V, u and lambda over the level nodes, each group's columns put in place,
    # and the tree, the walk depth and the degree
    scales = verify._Scales(tm.pair).upto(level)
    tree = verify._Tree(tm, scales, level, uniform_family(tm.pair))
    ends = [tree.size[t] for t in tree.ends[1:]]
    walk, dv = verify._walk_depth(tree, level, ends, 2, 2)
    first = 1 + next(n for n, t in enumerate(tree.ends) if t >= walk)
    width = tree.size[walk]
    start = (np.ones((1, width)), np.zeros(1), np.zeros(1))
    kernels, *whole = verify._group_levels(tree, verify._ROOT, 1, first - 1, start, walk, dv)
    assert len(kernels) == tree.ends[first - 1]
    out = [np.empty((dv + 1, tree.size[-1])), np.empty(tree.size[-1]), np.empty(tree.size[-1])]
    for lo in range(0, width, columns):
        group = verify._Group(width, lo, min(lo + columns, width))
        part_kernels, *parts = verify._group_levels(tree, group, first, level, whole, walk, dv)
        assert len(part_kernels) == tree.ends[level] - tree.ends[first - 1]
        for values, part in zip(out, parts):
            rows = values.shape[:-1]
            place = values.reshape(*rows, -1, width)[..., group.lo:group.hi]
            place[...] = part.reshape(*rows, -1, group.hi - group.lo)
    return out, tree, walk, dv


@pytest.mark.parametrize("tm, level", [(canonical_tau(MU42), 14),
                                       (canonical_tau(dimension_targeting_pair(0.5)), 5)])
def test_each_check_tabulates_each_tree_level_once(monkeypatch, tm, level):
    # building a _Tree forms no table, and over one partition_levels or completeness_Q call
    # the table entries formed for tree level t sum to size[t]: the tables formed inside a
    # label walk (_Tree.descend) come one per tree level in turn from the level after
    # ``first`` - 1; the tail's, formed outside it, are not the tree's
    calls, entries, walks = [], {}, []  # walks[-1]: the tree level of the next table

    def tables(m, us):
        calls.append(m)
        if walks:
            entries[walks[-1]] = entries.get(walks[-1], 0) + len(us)
            walks[-1] += 1
        return tables_of(m, us)

    def descend(tree, first, *args):
        walks.append(tree.ends[first - 1] + 1)
        try:
            return descend_of(tree, first, *args)
        finally:
            walks.pop()

    tables_of, descend_of = verify.H_sq_tables, verify._Tree.descend
    monkeypatch.setattr(verify, "H_sq_tables", tables)
    monkeypatch.setattr(verify._Tree, "descend", descend)
    tree = verify._Tree(tm, verify._Scales(tm.pair), level, uniform_family(tm.pair))
    assert calls == []
    sizes = {t: tree.size[t] for t in range(1, tree.ends[level] + 1)}
    for check in (lambda: partition_levels(tm, [0.0, 0.3], level),
                  lambda: completeness_Q(tm, [0.0, 0.25, 0.5], level)):
        entries.clear()
        check()
        assert entries == sizes


@pytest.mark.parametrize("tm, level", [
    (canonical_tau(MU42), 12), (canonical_tau(MU93), 8), (canonical_tau(constant_pair(30, 6)), 5),
    (DEVIATED42, 12), (DEEP_LABEL42, 12), (STACKED82, 3), (canonical_tau(dimension_targeting_pair(0.5)), 5)])
@pytest.mark.parametrize("columns", [1, 3, 1 << 20])
def test_groups_give_each_node_the_bits_of_the_whole_walk(tm, level, columns):
    # whatever the group size, V, u and lambda of every level node are those of the walk
    # over the whole tree, bit for bit: u and lambda of the tree's label walk, and V the
    # product of the signed roots of its tables past the walk, level by level
    (v, u, lam), tree, walk, dv = group_walk(tm, level, columns)
    kernels, want_u, want_lam = tree.descend(1, level, verify._ROOT, np.zeros(1), np.zeros(1))
    assert np.array_equal(u, want_u) and np.array_equal(lam, want_lam)
    want = np.ones((1, tree.size[walk]))
    for t in range(walk + 1, len(tree.size)):
        want = verify._times_roots(tree, t, kernels[t - 1], want, dv)
    assert np.array_equal(v, want)


def deep_products(tm, level):
    # V of completeness_Q past its walk depth, from its subtree groups, and the tree and walk depth
    (v, _, _), tree, walk, _ = group_walk(tm, level, 5)
    return v, tree, tree_kernels(tree), walk


SIGN_CASES = [(canonical_tau(MU42), 12), (canonical_tau(MU93), 8),
              (canonical_tau(constant_pair(25, 5)), 6), (canonical_tau(constant_pair(30, 6)), 5),
              (DEVIATED42, 12), (canonical_tau(dimension_targeting_pair(0.5)), 4)]
SIGN_PRODUCTS = {}


@given(st.sampled_from(range(len(SIGN_CASES))),
       st.lists(st.floats(min_value=2.0 ** -10, max_value=0.5), min_size=1, max_size=16))
@settings(deadline=None, max_examples=60)
def test_deep_products_keep_one_sign_on_the_window(case, xis):
    # a factor vanishes only at integer xi, so each V_i has the sign it has at xi = 1/4
    # on (0, 1/2]; below 2^-10 the table's rounding of cos(pi / 2), 6e-17, may decide it.
    # V also equals the product of the level factors' signed roots to within 1e-15
    if case not in SIGN_PRODUCTS:
        SIGN_PRODUCTS[case] = deep_products(*SIGN_CASES[case])
    v, tree, kernels, walk = SIGN_PRODUCTS[case]
    quarter = eval_taylor(v, 0.25)
    values = eval_taylor(v, np.array(xis)[:, None])
    assert np.all(np.sign(values) == np.sign(quarter))
    end = len(tree.size) - 1
    for xi, got in zip(xis, values):
        want = np.ones(1)
        for t in range(walk + 1, end + 1):
            angles = verify._root_angles(kernels[t - 1])
            root = verify.signed_root_taylor(angles, 1.0 / tree.scale[t], 12)
            want = (want[None, :] * eval_taylor(root, xi).reshape(tree.radix[t], -1)).ravel()
        assert np.max(np.abs(got - want)) <= 1e-15, (case, xi)


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

    def one_row(tree, xis, kernels):
        # the tiles of each xi alone, one row each
        for i, xi in enumerate(xis):
            for t, _, w in tiles(tree, [xi], kernels):
                yield t, range(i, i + 1), w

    tiles = verify._Tree.tiles
    monkeypatch.setattr(verify._Tree, "tiles", one_row)
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


# worst relative error of 1 - Q_L over the 33 x 12 oracle points: 3.449999e-7
# since Q is rounded once from the gap (5.7e-7 with the direct sum, 5.3e-6
# before the one-pass kernel).  Q < 1 is then within half an ulp, 2^-54, of
# 1 - gap; at the smallest oracle gap, 1.177e-10, that is
# 2^-54 / 1.177e-10 = 4.72e-7 relative.  The pin is 3.449999e-7 plus the
# benchmark's 10 % bound on gap_rel_err: an ulp of Q at (1/64, L = 11 or 12)
# the wrong way fails here
ORACLE_REL_ERR_PIN = 3.8e-7


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


def test_completeness_of_an_empty_grid():
    # nothing to check: no rows, bounded true and the worst gap -inf at xi = 0
    rep = completeness_Q(canonical_tau(MU42), [], 4)
    assert rep == verify.CompletenessReport(grid=np.zeros(0), q=np.zeros((0, 4)), slack=np.zeros((0, 4)),
                                            l_max=4, bounded=True, worst_gap=-math.inf, worst_gap_xi=0.0)
    assert rep.rows == ()


@pytest.mark.parametrize("grid", [[-0.0, 0.0], [0.0, -0.0]])
def test_completeness_worst_gap_keeps_the_first_xi_of_a_tie(grid):
    # -0.0 and 0.0 have one gap; the first of them in the grid is reported
    rep = completeness_Q(canonical_tau(MU42), grid, 5)
    alone = [completeness_Q(canonical_tau(MU42), [x], 5).worst_gap for x in grid]
    assert alone[0] == alone[1] == rep.worst_gap
    assert math.copysign(1.0, rep.worst_gap_xi) == math.copysign(1.0, grid[0])


def test_completeness_rejects_colliding_table():
    # tau(1) = 0 gives the word (1) the frequency of (0): lambda repeats
    colliding = TreeMapping(MU42, {(1,): 0})
    assert len(enumerate_level(colliding, 2).collisions) > 0
    with pytest.raises(ValueError, match=r"word=\(1,\)"):
        completeness_Q(colliding, [0.25], 3)
    # a bad label below the requested depth is found through the zero-extension
    with pytest.raises(ValueError, match=r"word=\(1, 0\)"):
        completeness_Q(TreeMapping(MU42, {(1, 0): 1}), [0.25], 1)


def test_completeness_with_a_zero_label_past_the_double_range():
    # rho_3 = 2^1102: the deep entry (1, 0, 0) -> 0, the canonical label, moves no
    # frequency, and xi / (d_2 rho_2) reads as 0
    pair = explicit_pair([4, 2**1100, 4], [2, 2, 2])
    grid = [0.0, 0.25, 0.5]
    rep = completeness_Q(TreeMapping(pair, {(1, 0, 0): 0}), grid, 1)
    canonical = completeness_Q(canonical_tau(pair), grid, 1)
    assert rep.bounded
    for row, want in zip(rep.rows, canonical.rows):
        assert row.q == pytest.approx(want.q, abs=1e-15)
        assert 0.0 <= row.certified_slack < 1e-300


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
        a = xi / _to_float(d * scales.rho[n])
        if filters.is_uniform(n):
            factors = eval_H_sq_tables(H_sq_tables(d, u), [a])[0]
        else:
            g = eval_filter(np.asarray(filters.explicit[n - 1]), a + u)
            factors = g.real ** 2 + g.imag ** 2
        w = (w[:, None] * factors.reshape(-1, d)).ravel()
        out.append(w)
    return out


def child_major_log_tail(scales, xi, u, start, level, depth, deep):
    """Oracle: the per-xi tail that preceded the tail tables, log prod |H_{d_k}(s_k)|^2
    over level < k <= depth: explicit while table labels remain or max |d_k s_k| >
    SERIES_THETA, then one series in s_k0 for the rest, from scratch per xi."""
    log_t = np.zeros(len(u))
    for k in range(level + 1, depth + 1):
        d = scales.d[k]
        u = u / scales.q[k - 1]
        if k in deep:
            index = deep[k][0] - start
            inside = (index >= 0) & (index < len(u))
            u[index[inside]] += deep[k][1][inside]
        u /= d
        s = xi / _to_float(d * scales.rho[k]) + u
        if k > max(deep, default=0) and d * float(np.max(np.abs(s))) <= SERIES_THETA:
            ks = range(k, depth + 1)
            return log_t + log_H_sq_series([scales.d[j] for j in ks],
                                           [scales.rho[k] / scales.rho[j] for j in ks], d * s)
        log_t += log_H_sq_array(d, s)
    return log_t


def to_digit_major(values, scales, level):
    # child-major index sum_k delta_k d_{k+1}..d_L to digit-major sum_k delta_k P_{k-1}
    return values.reshape([scales.d[n] for n in range(1, level + 1)]).transpose().ravel()


# taps 0 and 3 at d = 2: a QMF filter other than H_2 (lag 3 is no multiple of 2)
MODULATED42 = FilterFamily(MU42, explicit=((0.5, 0, 0, 0.5), (0.5, 0, 0, 0.5)))
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
    kernels = tree_kernels(tree)
    assert len(kernels) == tree.ends[level]
    scales, _, lam, _, _ = child_major_tree(tm, level)
    old = [child_major_weights(tm, level, xi, filters) for xi in TILE_XIS]
    prime = all(tree.ends[n] == n for n in range(level + 1))
    for size in (verify._SLICE, 1, 7, 64):
        monkeypatch.setattr(verify, "_SLICE", size)
        seen = set()
        for t, rows, w in tree.tiles(TILE_XIS, kernels):
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
    assert np.array_equal(tree_lambda(tree, max(tree.extremes)), to_digit_major(lam, scales, level))


def test_explicit_level_tile_is_the_per_xi_filter_rows():
    # one FilterFamily.factor call over a tile's (xi, node) arguments gives each row
    # the bits of eval_filter at that xi alone
    rng = np.random.default_rng(7)
    g = rng.normal(size=9) + 1j * rng.normal(size=9)
    g[::4] = 0.0
    filters = FilterFamily(MU42, explicit=(tuple(g), tuple(g[:5])))
    tree = verify._Tree(DEVIATED42, verify._Scales(MU42), 3, filters)
    xis = np.array(TILE_XIS + [-0.0])
    explicit = [(t, kernel) for t, kernel in enumerate(tree_kernels(tree), start=1)
                if not isinstance(kernel, verify.HSqTables)]
    assert [kernel[0] for _, kernel in explicit] == [1, 2]
    for t, (n, u) in explicit:
        rows = [eval_filter(np.asarray(filters.explicit[n - 1]), x / tree.scale[t] + u) for x in xis]
        want = np.array([f.real ** 2 + f.imag ** 2 for f in rows])
        assert tree.factors(t, (n, u), xis).tobytes() == want.tobytes(), n


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
    # exact level products as the closed form of H_{d_n} at each argument, up
    # to 2 ulp(1); for d_n >= 4 the table kernel is that closed form
    tm, filters = canonical_tau(pair), uniform_family(pair)
    tree = verify._Tree(tm, verify._Scales(pair), level, filters)
    scales = verify._Scales(pair).upto(level)
    assert tree.ends[level] > level
    kernels = tree_kernels(tree)
    for xi in TILE_XIS:
        closed = child_major_weights(tm, level, xi, filters)
        exact = mp_level_products(pair, xi, level)
        for t, _, (w,) in tree.tiles([xi], kernels):
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
    for xi, (total,) in zip(TILE_XIS, partition_levels(tm, TILE_XIS, 1).tolist()):
        assert total == float(np.sum(child_major_weights(tm, 1, xi, uniform_family(tm.pair))[0]))


@pytest.mark.parametrize("b, table", [
    ([2**56, 4], {(1,): 2**54 + 1}),           # as a float, 2^54 = 0 mod 4
    ([2**66, 4], {(1,): 2**63 + 1, (3,): -1}),  # np.array makes floats of the pair
])
def test_exact_labels_in_their_digits_class_split_the_level(b, table):
    # each label is congruent to its last digit mod d_1 = 4, so level 1 runs as two H_2
    # sub-levels; the class test on float labels kept it whole as one H_4 level.  The
    # range bound reads the same labels, exact
    tm = TreeMapping(explicit_pair(b, [4, 2]), table)
    assert validate_tree_mapping(tm).ok
    tree = verify._Tree(tm, verify._Scales(tm.pair), 1, uniform_family(tm.pair))
    assert tree.radix == [1, 2, 2] and tree.ends == [0, 2]
    assert verify._check_frequency_range(tree) == max(table.values())


def test_a_label_past_int64_past_the_tree_is_walked():
    # the label 2^68 of (1, 0) lies past level 1: its object array's product with rho_2
    # could not be added into the float lambda in place, so completeness ended in a
    # traceback; the range bound reads it exact
    tm = TreeMapping(explicit_pair([4, 2**70], [2, 2]), {(1, 0): 2**68})
    tree = verify._Tree(tm, verify._Scales(tm.pair), 1, uniform_family(tm.pair))
    assert verify._check_frequency_range(tree) == 1 + 2**68 * 4
    assert tree_lambda(tree, 2).tolist() == [0.0, 1.0 + 2.0**70]
    assert len(completeness_Q(tm, [0.0, 0.25], 1).rows) == 2


def test_prime_factors_stop_at_a_probable_prime_past_the_limits_square():
    # trial division stops at a cofactor past limit^2 that passes Fermat's test, at the
    # start or after a factor divides out; a composite past it is divided to the limit
    big, factor = 2**61 - 1, 2**31 - 1
    assert verify._prime_factors(big, 10**6) == [big]
    assert verify._prime_factors(12 * big, 10**6) == [2, 2, 3, big]
    assert verify._prime_factors(factor * big, 10**6) == [factor * big]
    assert verify._prime_factors(6, 1) == [6]  # limit 1 keeps a level whole
    assert verify._prime_factors(360) == [2, 2, 2, 3, 3, 5] and verify._prime_factors(1) == [1]


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
    for t, rows, w in tree.tiles(xis, tree_kernels(tree)):
        assert w.size <= verify._SLICE or len(rows) == 1, (t, len(rows), w.size)
        by_level.setdefault(t, []).extend(rows)
    assert by_level == {t: list(range(len(xis))) for t in range(tree.ends[level] + 1)}


def test_tiles_batch_the_shallow_levels():
    # one tile for all 50 xis while 50 P_n fits in _SLICE, then at most
    # _SLICE / P_n rows per tile, and one row from P_n = _SLICE on
    xis = [0.01 * k for k in range(50)]
    tree = verify._Tree(canonical_tau(MU42), verify._Scales(MU42), 14, uniform_family(MU42))
    widths = {}
    for n, rows, w in tree.tiles(xis, tree_kernels(tree)):
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
    for xi, sums in zip(xis, partition_levels(tm, xis, level)):
        old = child_major_weights(tm, level, xi, filters)
        for n, (total, w) in enumerate(zip(sums.tolist(), old), start=1):
            assert total == float(np.sum(to_digit_major(w, scales, n))), (xi, n)
            assert partition_identity(tm, xi, n).terms == len(w)


@pytest.mark.parametrize("tm, level, filters", LAYOUT_CASES)
def test_fresh_blocks_are_the_child_major_fresh_levels(tm, level, filters):
    # the words new at level n are the nodes [P_{n-1}, P_n) ([0, P_1) for n = 1)
    scales, _, _, fresh, _ = child_major_tree(tm, level)
    fresh = to_digit_major(fresh, scales, level)
    tree = verify._Tree(tm, verify._Scales(tm.pair), level, filters)
    ends = [tree.size[t] for t in tree.ends[1:]]
    blocks = list(zip([0, *ends[:-1]], ends))
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
    # T - 1 of the tail polynomials within 6 ulp relative of expm1 of the per-xi log-domain
    # tail at the same depth, on every node: the log-domain reference itself is within about
    # 4 ulp (its sum of logarithms per level), the tail polynomials within 2.  sqrt(T) is
    # the root of 1 + (T - 1) to rounding
    tm, grid = TAIL_PAIRS[name], [0.0, 1 / 64, 0.3, 0.5]
    scales, us, lam, _, deep = child_major_tree(tm, level)
    tree = verify._Tree(tm, verify._Scales(tm.pair), level, uniform_family(tm.pair))
    depth = scales.reach(truncation_target(float(np.max(np.abs(lam))) + 0.5, 1e-10))[0]
    explicit, series = verify._tail_plan(tree, depth, max(grid), 10**6)
    _, u, walked = tree.descend(1, level, verify._ROOT, np.zeros(1), np.zeros(1))
    last = series.k0 if series else level + len(explicit)
    reduced = verify._tail_inputs(tree, verify._ROOT, last, u, walked)[0]
    if series is not None:
        y0 = tree.scales.d[series.k0] * reduced[-1]
        # the plan's bound of |y0|, the largest itself with canonical labels
        top = float(np.max(np.abs(y0)))
        assert series.top == top if not tm.table else series.top >= top
    tail_m1, root = verify._tail_polynomials(tree.scales, explicit, series, reduced, len(lam))
    for xi in grid:
        got, got_root = eval_taylor(tail_m1, xi), eval_taylor(root, xi)
        want = np.expm1(to_digit_major(child_major_log_tail(scales, xi, us[-1], 0, level, depth, deep),
                                       scales, level))
        assert np.all(np.abs(got - want) <= 6 * 2.0 ** -52 * np.abs(want)), xi
        assert np.all(np.abs(got_root ** 2 - (1.0 + got)) <= 4 * 2.0 ** -52), xi


@pytest.mark.parametrize("b, d", [([4, 1], [2, 1]), ([4, 4], [2, 1])])
def test_a_repeating_b_or_d_of_one_raises(b, d):
    # the scale search ran forever once rho_n stopped growing (b = 1), and the
    # gap-ratio tails once they stopped shrinking or vanished (b or d = 1);
    # completeness_Q failed on the empty block of level 2 with numpy's message
    pair = explicit_pair(b, d)
    with pytest.raises(ValueError, match="d_2 = 1"):
        completeness_Q(canonical_tau(pair), [0.0, 0.25, 0.5], 12)
    with pytest.raises(ValueError, match="from level 2 on"):
        hausdorff_dim_formula(pair, 40)
    with pytest.raises(ValueError, match="from level 2 on"):
        exact_mean(pair)
    if b[-1] == 1:
        for call in (lambda: sample_measure(pair, 10), lambda: default_depth(pair),
                     lambda: mu_hat(pair, 0.3, 1e-10),
                     lambda: verify._Scales(pair).reach(truncation_target(0.3, 1e-10))):
            with pytest.raises(ValueError, match="b_n = 1 from level 2 on"):
                call()
        # reached before rho_n stops
        assert verify._Scales(pair).reach(truncation_target(0.0, 1e-10)) == (1, 4)
    else:
        assert default_depth(pair) == 26
