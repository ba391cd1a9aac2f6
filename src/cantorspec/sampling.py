"""Monte-Carlo realization of the measure as a random digit series.

A sample is x = sum_{n<=depth} j_n / (d_n rho_n) with j_n drawn uniformly
from {0, ..., d_n - 1}.  Truncating at ``depth`` perturbs each sample by at
most the tail sum, which is below 2 / rho_{depth+1}; the default depth pushes
that radius under 1e-15, so samples are exact at double resolution.  Digits
come from counter-based generators keyed by (seed, level), so streams are
reproducible regardless of evaluation order.  A level with d_n = 2^k,
1 <= k <= 32 (the levels of the dimension-targeting pairs up to 2^32), takes
its digits as the top k bits of each 32-bit half of the raw Philox words, low
half first; any other d_n takes ``Generator.integers``.  The two give the same
bits: for a power-of-two range, the multiply-shift draw behind ``integers``
rejects nothing and returns the top k bits of one 32-bit half, and numpy reads
the halves of each 64-bit word low first.  The sampler draws and adds
the digits of every level ``BLOCK`` samples at a time into the one output
array, and ``cli`` formats and writes the CSV rows of the samples 4,096 at a
time, so the samples are the only array of ``count`` entries either forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import ScalePair, _Scales, _to_float
from .dimension import rescale_constant


_RADIUS_TARGET = 1e-15
# the samples of one block of the sampler's sums: 512 KiB of floats
BLOCK = 1 << 16


def default_depth(pair: ScalePair) -> int:
    """Smallest depth whose truncation radius bound 2/rho_{depth+1} is below 1e-15."""
    return _Scales(pair).reach(math.ceil(2.0 / _RADIUS_TARGET))[0]


def truncation_radius(pair: ScalePair, depth: int) -> float:
    """Upper bound 2/rho_{depth+1} for the per-sample truncation error."""
    return 2.0 / _to_float(_Scales(pair).upto(depth).rho[depth + 1])


@dataclass(frozen=True)
class SampleSet:
    values: np.ndarray
    depth: int
    radius: float

    def __len__(self) -> int:
        return len(self.values)


def sample_measure(pair: ScalePair, count: int, seed: int = 0) -> SampleSet:
    """Draw ``count`` samples of the measure at :func:`default_depth`,
    deterministic under ``seed``.

    Level n keeps one Philox stream keyed by (seed, n) and draws its digits
    ``BLOCK`` samples at a time; consecutive draws continue the stream, and
    each sample adds its levels in the order n = 1..depth, so a sample's bits
    depend neither on the block size nor on ``count``.  The samples are the
    only array of ``count`` entries.  A ValueError names the level whose d_n
    passes 2^63, the range of the int64 digits.

    A level with d_n = 2^k, 1 <= k <= 32, takes its digits from the raw
    64-bit Philox words, the top k bits of each 32-bit half, low half first;
    any other level takes ``Generator.integers``.  Both give the digits of
    ``integers`` bit for bit; those of d_n = 2^k depend only on the raw
    stream, which numpy keeps stable across releases (NEP 19), not on the
    algorithm of ``integers``.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    depth = default_depth(pair)
    scales, levels = _Scales(pair).upto(depth), []
    for n in range(1, depth + 1):
        if scales.d[n] > 2**63:
            raise ValueError(f"level {n}: d_{n} = {scales.d[n]} is past 2^63, the range of the digits")
        levels.append((np.random.Generator(np.random.Philox(key=np.array([seed, n], dtype=np.uint64))),
                       scales.d[n], 1.0 / _to_float(scales.d[n] * scales.rho[n])))
    values = np.zeros(count)
    for block in np.split(values, range(BLOCK, count, BLOCK)):  # views of values
        for gen, d, scale in levels:
            block += _digits(gen, d, len(block)) * scale
    return SampleSet(values=values, depth=depth, radius=truncation_radius(pair, depth))


def _digits(gen: np.random.Generator, d: int, size: int) -> np.ndarray:
    """The next ``size`` digits of ``gen`` below ``d``, bit for bit those of
    ``gen.integers(0, d, size)``: raw Philox halves for d = 2^k, 1 <= k <= 32.

    The raw read bypasses the generator's buffered half-word, so every call but
    a level's last asks for an even ``size`` (``BLOCK``), and the last leaves its
    spare half unread.  Storing the words little-endian puts each low half
    first on any host.
    """
    k = d.bit_length() - 1
    if d != 1 << k or not 1 <= k <= 32:
        return gen.integers(0, d, size=size, dtype=np.int64)
    halves = gen.bit_generator.random_raw((size + 1) // 2).astype("<u8", copy=False).view("<u4")
    return halves[:size] >> (32 - k)


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
    return float(np.mean(values if k == 1 else values**k))


def exact_mean(pair: ScalePair) -> Fraction:
    """The measure's mean sum_n (d_n - 1) / (2 d_n rho_n), certified truncation."""
    return rescale_constant(pair) / 2
