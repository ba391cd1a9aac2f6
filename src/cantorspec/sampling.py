"""Monte-Carlo realization of the measure as a random digit series.

A sample is x = sum_{n<=depth} j_n / (d_n rho_n) with j_n drawn uniformly
from {0, ..., d_n - 1}.  Truncating at ``depth`` perturbs each sample by at
most the tail sum, which is below 2 / rho_{depth+1}; the default depth pushes
that radius under 1e-15, so samples are exact at double resolution.  Digits
come from counter-based generators keyed by (seed, level), so streams are
reproducible regardless of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import ScalePair, _Scales, _to_float
from .dimension import rescale_constant


_RADIUS_TARGET = 1e-15


def default_depth(pair: ScalePair) -> int:
    """Smallest depth whose truncation radius bound 2/rho_{depth+1} is below 1e-15."""
    return _Scales(pair).reach(math.ceil(2.0 / _RADIUS_TARGET))[0]


def truncation_radius(pair: ScalePair, depth: int) -> float:
    """Upper bound 2/rho_{depth+1} for the per-sample truncation error."""
    return 2.0 / _to_float(_Scales(pair).upto(depth).rho[depth + 1])


@dataclass(frozen=True)
class SampleSet:
    values: np.ndarray
    pair: ScalePair
    depth: int
    radius: float

    def __len__(self) -> int:
        return len(self.values)


def _level_digits(pair: ScalePair, count: int, depth: int, seed: int):
    """Yield, per level n = 1..depth, the digits j_n of every sample, drawn
    from a Philox stream keyed by (seed, n)."""
    for n in range(1, depth + 1):
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, n], dtype=np.uint64)))
        yield gen.integers(0, pair.d(n), size=count, dtype=np.int64)


def _accumulate(pair: ScalePair, count: int, levels) -> np.ndarray:
    """sum_n j_n / (d_n rho_n) over the per-level digit arrays ``levels``,
    one level at a time, so no count x depth digit matrix is ever held."""
    values = np.zeros(count)
    scales = _Scales(pair)
    for n, digits in enumerate(levels, start=1):
        values += digits * (1.0 / _to_float(scales.upto(n).d[n] * scales.rho[n]))
    return values


def sample_measure(pair: ScalePair, count: int, depth: int | None = None, seed: int = 0) -> SampleSet:
    """Draw ``count`` samples of the measure, deterministic under ``seed``."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    if depth is None:
        depth = default_depth(pair)
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    values = _accumulate(pair, count, _level_digits(pair, count, depth, seed))
    return SampleSet(values=values, pair=pair, depth=depth, radius=truncation_radius(pair, depth))


def _values_of(samples) -> np.ndarray:
    if isinstance(samples, SampleSet):
        return samples.values
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("empty sample list")
    return arr


def empirical_char(samples, xi: float) -> complex:
    """Empirical transform (1/N) sum_k e^{-2 pi i xi x_k}.

    numpy's pairwise mean gives a fixed reduction order for a fixed sample
    array, so repeated calls reproduce bit-identically.
    """
    values = _values_of(samples)
    return complex(np.mean(np.exp(-2j * np.pi * xi * values)))


def empirical_moments(samples, k: int) -> float:
    """k-th raw moment of the samples, k in 1..4."""
    if not 1 <= k <= 4:
        raise ValueError(f"moment order must be in 1..4, got {k}")
    values = _values_of(samples)
    return float(np.mean(values**k))


def exact_mean(pair: ScalePair) -> Fraction:
    """The measure's mean sum_n (d_n - 1) / (2 d_n rho_n), certified truncation."""
    return rescale_constant(pair) / 2
