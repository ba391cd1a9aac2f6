import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cantorspec import (build_intervals, constant_pair, default_depth,
                        dimension_targeting_pair, empirical_char,
                        empirical_moments, exact_mean, explicit_pair, mu_hat,
                        pair_from_config, rescale_constant, sample_measure)
from cantorspec.sampling import BLOCK, truncation_radius

ROOT = Path(__file__).resolve().parent.parent
MU42 = constant_pair(4, 2)
MU93 = constant_pair(9, 3)
PRIME_TAIL = pair_from_config(json.loads((ROOT / "demos" / "configs" / "explicit_prime_tail.json")
                                         .read_text()))


def test_default_depth_pushes_radius_below_target():
    depth = default_depth(MU42)
    assert truncation_radius(MU42, depth) < 1e-15
    assert truncation_radius(MU42, depth - 1) >= 1e-15
    assert depth <= 26


def digit_matrix_values(pair, count, depth, seed):
    """Oracle: every digit drawn into a count x depth matrix from the same
    (seed, level)-keyed Philox streams, then summed column by column."""
    digits = np.empty((count, depth), dtype=np.int64)
    for n in range(1, depth + 1):
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, n], dtype=np.uint64)))
        digits[:, n - 1] = gen.integers(0, pair.d(n), size=count, dtype=np.int64)
    values = np.zeros(count)
    rho_n = 1
    for n in range(1, depth + 1):
        values += digits[:, n - 1] * (1.0 / (pair.d(n) * rho_n))
        rho_n *= pair.b(n)
    return values


@pytest.mark.parametrize("pair, count", [
    (MU42, 3001), (MU93, 3001), (dimension_targeting_pair(0.5), 3001),
    (dimension_targeting_pair(0.25), 3001),
    # blocks of BLOCK samples: one past a block on mu42, and three past two on d_n = 2^n levels
    (MU42, BLOCK + 1), (dimension_targeting_pair(0.5), 2 * BLOCK + 3),
    # the edges of the raw Philox digits of d_n = 2^k, 1 <= k <= 32, each three past a block:
    # the last raw k, the first k past it, d_n = 2^(3n - 1) and d_2 = 2^61 - 1
    pytest.param(explicit_pair([4, 2**33], [2, 2**32]), BLOCK + 3, id="d-2^32"),
    pytest.param(explicit_pair([4, 2**34], [2, 2**33]), BLOCK + 3, id="d-2^33"),
    pytest.param(dimension_targeting_pair(1), BLOCK + 3, id="alpha-1"),
    pytest.param(PRIME_TAIL, BLOCK + 3, id="prime-tail")])
def test_streamed_digits_match_digit_matrix(pair, count):
    for seed in (0, 7):
        got = sample_measure(pair, count, seed=seed)
        want = digit_matrix_values(pair, count, got.depth, seed)
        assert np.array_equal(got.values, want)


def test_sampling_holds_one_level_of_digits():
    # the samples are the only array of count entries, beside one block of digits:
    # summing a whole level at a time held its digits and their products beside
    # the samples, 3.51 arrays of count words, and a count x depth digit matrix
    # would take depth = 26
    count = 200_000
    tracemalloc.start()
    try:
        sample_measure(MU42, count, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * count


def test_samples_stay_in_support_interval():
    samples = sample_measure(MU42, 5000, seed=3)
    upper = float(rescale_constant(MU42))
    assert np.all(samples.values >= 0.0)
    assert np.all(samples.values <= upper + 1e-12)


def test_determinism_and_seed_sensitivity():
    a = sample_measure(MU42, 1000, seed=42).values
    b = sample_measure(MU42, 1000, seed=42).values
    c = sample_measure(MU42, 1000, seed=43).values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_prefix_stability_across_counts():
    # per-level keyed streams: the first k samples do not depend on count
    small = sample_measure(MU42, 100, seed=5).values
    large = sample_measure(MU42, 1000, seed=5).values
    assert np.array_equal(small, large[:100])


@pytest.mark.parametrize("pair,mean", [(MU42, Fraction(1, 3)), (MU93, Fraction(3, 8))])
def test_mean_matches_linearity(pair, mean):
    assert abs(exact_mean(pair) - mean) < Fraction(1, 10**14)
    samples = sample_measure(pair, 200_000, seed=9)
    got = empirical_moments(samples, 1)
    band = 5.0 * float(np.std(samples.values)) / math.sqrt(len(samples))
    assert abs(got - float(mean)) <= band


def test_moment_orders():
    samples = sample_measure(MU42, 1000, seed=1)
    m1 = empirical_moments(samples, 1)
    m2 = empirical_moments(samples, 2)
    assert m2 >= m1**2                           # variance is nonnegative
    assert empirical_moments(samples.values.tolist(), 2) == m2  # a plain list, the same values
    for bad in (0, 5):
        with pytest.raises(ValueError):
            empirical_moments(samples, bad)


def test_empirical_char_examples():
    samples = sample_measure(MU42, 200_000, seed=8)
    assert empirical_char(samples, 0.0) == 1.0 + 0.0j
    band = 5.0 / math.sqrt(len(samples))
    assert abs(empirical_char(samples, 0.3) - mu_hat(MU42, 0.3, 1e-12).value) <= band
    assert abs(empirical_char(samples, 1.0)) <= band    # transform vanishes at 1


def test_empirical_char_rejects_empty():
    with pytest.raises(ValueError):
        empirical_char([], 0.3)


def test_samples_lie_in_constructed_intervals():
    depth = 6
    family = build_intervals(MU42, depth)
    c = rescale_constant(MU42)
    lefts = [float(lo * c) for _, lo, _ in family[depth]]
    rights = [float(hi * c) for _, _, hi in family[depth]]
    samples = sample_measure(MU42, 10_000, seed=2)
    idx = np.searchsorted(lefts, samples.values, side="right") - 1
    idx = np.clip(idx, 0, len(lefts) - 1)
    tolerance = 1e-12
    inside = (samples.values >= np.asarray(lefts)[idx] - tolerance) & \
             (samples.values <= np.asarray(rights)[idx] + tolerance)
    assert np.all(inside)


def test_alpha_pair_sampling():
    pair = dimension_targeting_pair(0.5)
    samples = sample_measure(pair, 50_000, seed=4)
    band = 5.0 * float(np.std(samples.values)) / math.sqrt(len(samples))
    assert abs(empirical_moments(samples, 1) - float(exact_mean(pair))) <= band


def test_sample_argument_validation():
    with pytest.raises(ValueError):
        sample_measure(MU42, 0)
    with pytest.raises(ValueError):
        sample_measure(MU42, 10, seed=-1)
    with pytest.raises(ValueError, match="seed"):
        sample_measure(MU42, 10, seed=2**64)
    assert len(sample_measure(MU42, 10, seed=2**64 - 1)) == 10
