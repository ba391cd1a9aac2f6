"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Frozen reference numbers come from tests/oracles/ (independent
high-precision scripts whose outputs are committed next to them).
"""

import math
import time

import numpy as np

from cantorspec import (TreeMapping, canonical_tau, completeness_Q,
                        constant_pair, dimension_targeting_pair,
                        enumerate_level, exact_mean, hausdorff_dim_formula,
                        box_counting_dim, beurling_vs_hausdorff,
                        empirical_char, empirical_moments, mu_hat,
                        orthogonality_check, partition_identity, qmf_check,
                        sample_measure, validate_tree_mapping)

MU42 = constant_pair(4, 2)
MU82 = constant_pair(8, 2)
MU93 = constant_pair(9, 3)

# Worst-case gap 1 - Q_12 over the 33-point grid for (4, 2), from the
# independent high-precision run (tests/oracles/completeness_gap_oracle.py):
# 2.02206559878e-7, attained at xi = 1/2.  Pinned with a 0.2% margin that
# dominates the double-precision evaluation slack at tol = 1e-12.
ORACLE_GAP_BOUND_L12 = 2.026e-7


def _pass(num: int, text: str):
    print(f"[criterion {num}] PASS — {text}")


def test_criterion_1_exact_orthogonality():
    start = time.time()
    for pair in (MU42, MU82, MU93, dimension_targeting_pair(0.5)):
        canonical = canonical_tau(pair)
        for level in range(1, 6):
            lev = enumerate_level(canonical, level, budget=10**6)
            rep = orthogonality_check(lev, pair)
            assert rep.passed, (pair, level, rep.violations[:3])
            assert rep.violation_count == 0
            assert not lev.collisions
    elapsed = time.time() - start
    assert elapsed < 30.0
    _pass(1, f"canonical levels L<=5 of (4,2), (8,2), (9,3), alpha=1/2 are "
             f"pairwise orthogonal, exact arithmetic ({elapsed:.1f}s)")


def test_criterion_2_partition_identity():
    start = time.time()
    rng = np.random.default_rng(20240801)
    canonical42 = canonical_tau(MU42)
    worst42 = 0.0
    for xi in rng.random(50):
        for level in range(1, 9):
            worst42 = max(worst42, partition_identity(canonical42, float(xi), level).defect)
    assert worst42 <= 1e-9
    canonical93 = canonical_tau(MU93)
    worst93 = 0.0
    for xi in rng.random(50):
        for level in range(1, 6):
            worst93 = max(worst93, partition_identity(canonical93, float(xi), level).defect)
    assert worst93 <= 1e-8
    elapsed = time.time() - start
    assert elapsed < 60.0
    _pass(2, f"partition identity defects: (4,2) L<=8 worst {worst42:.2e} <= 1e-9, "
             f"(9,3) L<=5 worst {worst93:.2e} <= 1e-8 ({elapsed:.1f}s)")


def test_criterion_3_completeness_trend():
    grid = [0.5 * j / 32 for j in range(33)]
    report = completeness_Q(canonical_tau(MU42), grid, 12, tol=1e-12)
    for k in range(len(grid)):                   # the 12 rows of each grid point
        qs = [row.q for row in report.rows[12 * k:12 * (k + 1)]]
        assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))  # slack 1e-12 per level step
    assert report.bounded                        # Q_L <= 1 + certified slack
    assert report.worst_gap <= ORACLE_GAP_BOUND_L12
    _pass(3, f"Q_L on 33-point grid monotone, bounded, and worst gap at L=12 "
             f"{report.worst_gap:.4e} below pinned {ORACLE_GAP_BOUND_L12:.3e}")


def test_criterion_4_dimension_formula():
    start = time.time()
    for pair, expected in ((MU42, 0.5), (MU93, 0.5), (MU82, 1 / 3)):
        formula = hausdorff_dim_formula(pair, 40)
        for _, s in formula.partials:
            assert abs(s - expected) <= 1e-12, pair
    for alpha in (0, 0.25, 0.5, 1):
        formula = hausdorff_dim_formula(dimension_targeting_pair(alpha), 40)
        s40 = dict(formula.partials)[40]
        assert abs(s40 - alpha) <= 0.02, (alpha, s40)
    elapsed = time.time() - start
    assert elapsed < 5.0
    _pass(4, f"constant pairs hit ln d/ln b to 1e-12; alpha pairs within 0.02 "
             f"at N=40 for alpha in {{0, 0.25, 0.5, 1}} ({elapsed:.1f}s)")


def test_criterion_5_box_counting_cross_check():
    start = time.time()
    cases = [(MU42, 10), (MU82, 10), (MU93, 7), (constant_pair(16, 4), 5)]
    for pair, depth in cases:
        fit = box_counting_dim(pair, depth)
        assert fit.interval_count >= 1000, pair
        formula = hausdorff_dim_formula(pair, 40).liminf_proxy
        assert abs(fit.slope - formula) <= 0.05, (pair, fit.slope)
    elapsed = time.time() - start
    assert elapsed < 10.0
    _pass(5, f"box-count slopes agree with the formula within 0.05 on four "
             f"constant pairs, >=1000 intervals each ({elapsed:.1f}s)")


def test_criterion_6_beurling_inequality():
    start = time.time()
    for pair in (MU42, MU82):
        comparison = beurling_vs_hausdorff(canonical_tau(pair), 8)
        assert comparison.passed, pair
        assert comparison.beurling <= comparison.hausdorff + 0.1
    elapsed = time.time() - start
    assert elapsed < 30.0
    _pass(6, f"Beurling estimates on canonical L=8 spectra of (4,2), (8,2) "
             f"stay below formula + 0.1 ({elapsed:.1f}s)")


def test_criterion_7_negative_controls():
    bad_set = orthogonality_check([0, 8], MU42)
    assert not bad_set.passed
    assert bad_set.violations == ((0, 8),)

    bad_tree = validate_tree_mapping(TreeMapping(MU42, {(1,): 3}))
    assert not bad_tree.ok
    assert bad_tree.issues[0].condition == "ii"

    bad_filter = qmf_check((0.6, 0.4), 2)
    assert not bad_filter.passed
    assert bad_filter.max_defect > 0.0
    _pass(7, "negative controls fail as required: {0,8} with witness (0,8), "
             "out-of-range tree label names condition ii, non-QMF vector "
             f"has defect {bad_filter.max_defect:.3f}")


def test_criterion_8_monte_carlo_consistency():
    start = time.time()
    count = 10**6
    samples = sample_measure(MU42, count, seed=20240801)
    mean = empirical_moments(samples, 1)
    sigma = float(np.std(samples.values))
    band = 5.0 * sigma / math.sqrt(count)
    assert abs(mean - float(exact_mean(MU42))) <= band

    rng = np.random.default_rng(99)
    cf_band = 5.0 / math.sqrt(count)
    freqs = [0.0, 1.0, 0.3] + [float(x) for x in rng.uniform(-8, 8, size=17)]
    for xi in freqs:
        reference = mu_hat(MU42, xi, 1e-12)
        assert abs(empirical_char(samples, xi) - reference.value) <= cf_band + reference.radius
    elapsed = time.time() - start
    assert elapsed < 30.0
    _pass(8, f"10^6 samples: mean within 5 sigma/sqrt(n) of 1/3, empirical "
             f"transform within 5/sqrt(n) at 20 frequencies ({elapsed:.1f}s)")
