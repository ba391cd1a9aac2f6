"""Averaging kernels H_m, QMF filter families, and the product transform.

The transform of the measure attached to a pair (B, D) is the infinite
product of kernels H_{d_n}(xi / (d_n rho_n)).  Evaluation truncates the
product and returns a certified radius bounding the discarded tail, derived
from |H_m(eta) - 1| <= pi (m-1) |eta| and the geometric growth rho_{n+1} >=
4 rho_n.  Integer frequencies admit an exact zero test by divisibility alone.

Besides the complex kernel, :func:`eval_H_sq_array` gives the squared modulus
|H_m|^2 in real arithmetic.  The level-expansion kernel of :mod:`.verify`
multiplies these factors along the digit tree for the partition identity and
the completeness sums; :func:`mu_hat` and :func:`mu_hat_array` evaluate the
transform at single frequencies.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import ScalePair

TWO_PI = 2.0 * math.pi

# Distance to the nearest integer below which the closed form of H_m is
# abandoned for the literal m-term sum (removable singularity).  The sum
# costs O(m), so it is only used for moderate m; for larger m the closed
# form is already well-conditioned at any representable nonzero distance.
_INTEGER_GUARD = 1e-9
_SERIES_MAX_TAPS = 4096
_ZERO_CLAMP = 1e-300


class FilterCertificationError(ValueError):
    """A filter family failed QMF / degree / window certification."""


def eval_H(m: int, xi: float) -> complex:
    """The kernel H_m(xi) = (1/m) sum_{j<m} e^{-2 pi i j xi}.

    Uses the Dirichlet closed form e^{-pi i (m-1) xi} sin(pi m xi) /
    (m sin(pi xi)) away from integers; within 1e-9 of an integer the finite
    sum is evaluated literally, which is stable there and resolves the
    removable singularity (value 1 at integers).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m == 1:
        return 1.0 + 0.0j
    # reduce to the signed distance from the nearest integer: fmod is exact,
    # and t - round(t) is exact by Sterbenz, so no precision is lost before
    # the sines see their arguments
    t = math.fmod(xi, 1.0)
    s = t - round(t)
    if abs(s) < _ZERO_CLAMP:
        return 1.0 + 0.0j  # at (or below double resolution of) an integer
    if abs(s) < _INTEGER_GUARD and m <= _SERIES_MAX_TAPS:
        return sum(cmath.exp(-2j * math.pi * j * s) for j in range(m)) / m
    return cmath.exp(-1j * math.pi * (m - 1) * s) * math.sin(math.pi * m * s) / (m * math.sin(math.pi * s))


def _integer_guard(m: int, xs: np.ndarray):
    # signed distance s of each x to its nearest integer, exact like eval_H's
    # reduction; then the masks of the entries at an integer and of those in
    # the guard band where the literal m-term sum replaces the closed form,
    # both None when no entry is within _INTEGER_GUARD of an integer
    s = xs - np.round(xs)
    dist = np.abs(s)
    if not np.any(dist < _INTEGER_GUARD):
        return s, None, None
    at_integer = dist < _ZERO_CLAMP
    near = (dist < _INTEGER_GUARD) & ~at_integer if m <= _SERIES_MAX_TAPS else np.zeros_like(at_integer)
    return s, at_integer, near


def eval_H_array(m: int, xs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`eval_H` over a float array."""
    if m == 1:
        return np.ones_like(xs, dtype=complex)
    s, at_integer, near = _integer_guard(m, xs)
    safe = s if at_integer is None else np.where(at_integer | near, 0.25, s)
    vals = np.exp(-1j * np.pi * (m - 1) * safe) * np.sin(np.pi * m * safe) / (m * np.sin(np.pi * safe))
    if at_integer is not None:
        vals[at_integer] = 1.0
        sn = s[near]
        j = np.arange(m).reshape(-1, 1)
        vals[near] = np.exp(-2j * np.pi * j * sn).sum(axis=0) / m
    return vals


def eval_H_sq_array(m: int, xs: np.ndarray) -> np.ndarray:
    """|H_m(x)|^2 = (sin(pi m s) / (m sin(pi s)))^2 over a float array, s = x mod 1.

    Real arithmetic throughout, with the integer guard of :func:`eval_H_array`:
    1 at integers, and in the guard band the literal finite sum of the squared
    modulus, the Fejer form 1/m + (2/m) sum_{0<k<m} (1 - k/m) cos(2 pi k s).
    For m = 2 the quotient is cos(pi s), which needs one cosine and no guard.
    """
    if m == 1:
        return np.ones(np.shape(xs))
    if m == 2:
        return np.cos(np.pi * (xs - np.round(xs))) ** 2
    s, at_integer, near = _integer_guard(m, xs)
    safe = s if at_integer is None else np.where(at_integer | near, 0.25, s)
    vals = (np.sin(np.pi * m * safe) / (m * np.sin(np.pi * safe))) ** 2
    if at_integer is not None:
        vals[at_integer] = 1.0
        k = np.arange(1, m).reshape(-1, 1)
        vals[near] = (1.0 + 2.0 * ((1.0 - k / m) * np.cos(2.0 * np.pi * k * s[near])).sum(axis=0)) / m
    return vals


@dataclass(frozen=True)
class ZeroWitness:
    is_zero: bool
    level: int | None


def mu_hat_exact_zero(pair: ScalePair, nu: int) -> ZeroWitness:
    """Exact zero test of the product transform at an integer frequency.

    The transform vanishes at nu iff some factor does, i.e. iff there is a
    level n with rho_n | nu and d_n rho_n not | nu; no factor can vanish once
    rho_n > |nu|, and the nonvanishing tail product stays nonzero because
    sum_n |1 - H_{d_n}(nu / (d_n rho_n))| is geometrically dominated.
    Pure integer arithmetic.
    """
    nu = int(nu)
    if nu == 0:
        return ZeroWitness(False, None)  # transform equals 1 at the origin
    a = abs(nu)
    rho_n = 1
    n = 1
    while rho_n <= a:
        if nu % rho_n == 0 and nu % (rho_n * pair.d(n)) != 0:
            return ZeroWitness(True, n)
        rho_n *= pair.b(n)
        n += 1
    return ZeroWitness(False, None)


@dataclass(frozen=True)
class TruncatedValue:
    """Partial product value with a radius bounding the truncation error."""

    value: complex
    radius: float
    levels: int

    @property
    def modulus(self) -> float:
        return abs(self.value)


def _float_div(x: float, big: int) -> float:
    # x / big without OverflowError when big exceeds float range; the result
    # underflows to 0 exactly when the factor is 1 at double resolution.
    if big.bit_length() > 1020:
        return 0.0
    return x / big


def _cap_float(big: int) -> float:
    # big as a float, saturating instead of raising past the double range;
    # only ever used where larger means a smaller (sound) error radius
    if big.bit_length() > 1020:
        return 1e308
    return float(big)


def truncation_level(pair: ScalePair, xi: float, tol: float) -> tuple[int, int]:
    """Least N with tail bound exp(2 pi |xi| / rho_{N+1}) - 1 <= tol.

    Returns (N, rho_{N+1}).  Uses rho_{N+1} >= 4 pi |xi| / tol, an integer
    comparison that implies the bound via log1p(tol) >= tol/2 for tol <= 1.
    Raises ValueError for a non-finite xi or tol, and when 4 pi |xi| / tol
    overflows, where no scale could be reached.
    """
    if not math.isfinite(xi):
        raise ValueError(f"frequency xi must be finite, got {xi}")
    if not math.isfinite(tol) or tol <= 0:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    target = 4.0 * math.pi * abs(xi) / min(tol, 1.0)
    if not math.isfinite(target):
        raise ValueError(f"|xi| = {abs(xi):.3e} at tol = {tol:.1e} needs a scale "
                         f"rho_(N+1) beyond the double range")
    n = 1
    rho_next = pair.b(1)
    while rho_next < target:
        n += 1
        rho_next *= pair.b(n)
    return n, rho_next


def mu_hat(pair: ScalePair, xi: float, tol: float = 1e-10, levels: int | None = None) -> TruncatedValue:
    """Product transform at xi, truncated with a certified error radius.

    The radius expm1(2 pi |xi| / rho_{N+1}) dominates the true truncation
    error: |H_m(eta) - 1| <= pi (m-1) |eta| gives per-level defects
    <= pi |xi| / rho_n, the geometric sum of which is <= 2 pi |xi| / rho_{N+1},
    and |prod(1 + eps_n) - 1| <= exp(sum |eps_n|) - 1.
    """
    n_levels, rho_next = truncation_level(pair, xi, tol)
    if levels is not None:
        while n_levels < levels:
            n_levels += 1
            rho_next *= pair.b(n_levels)
    value = 1.0 + 0.0j
    rho_n = 1
    for n in range(1, n_levels + 1):
        d = pair.d(n)
        arg = _float_div(xi, d * rho_n)
        value *= eval_H(d, arg)
        rho_n *= pair.b(n)
    radius = math.expm1(TWO_PI * abs(xi) / _cap_float(rho_next))
    return TruncatedValue(value=value, radius=radius, levels=n_levels)


def mu_hat_array(pair: ScalePair, xs: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray, int]:
    """Vectorized transform over a float array.

    Truncation depth is chosen for the largest |x| in the batch, so every
    entry's radius bound is sound.  Returns (values, radii, levels).
    """
    xs = np.asarray(xs, dtype=float)
    xmax = float(np.max(np.abs(xs))) if xs.size else 0.0
    n_levels, rho_next = truncation_level(pair, xmax, tol)
    values = np.ones(xs.shape, dtype=complex)
    rho_n = 1
    for n in range(1, n_levels + 1):
        d = pair.d(n)
        scale = d * rho_n
        if scale.bit_length() > 1020:
            break
        values *= eval_H_array(d, xs / float(scale))
        rho_n *= pair.b(n)
    radii = np.expm1(TWO_PI * np.abs(xs) / _cap_float(rho_next))
    return values, radii, n_levels


# ---------------------------------------------------------------------------
# QMF filter families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QmfReport:
    """Outcome of the d-channel QMF certification of one coefficient vector."""

    passed: bool
    max_defect: float          # worst |a_{m d} - [m=0]/d| over autocorrelation lags
    grid_defect: float         # worst |sum_l |G(xi + l/d)|^2 - 1| on the cross-check grid
    d: int
    degree: int


def _autocorrelation(g: np.ndarray, lag: int) -> complex:
    if lag >= len(g):
        return 0.0 + 0.0j
    return complex(np.sum(g[: len(g) - lag] * np.conj(g[lag:])))


def eval_filter(g: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """G(x) = sum_j g_j e^{-2 pi i j x} over an array of arguments."""
    j = np.arange(len(g)).reshape(-1, 1)
    return (np.asarray(g, dtype=complex).reshape(-1, 1) * np.exp(-2j * np.pi * j * np.asarray(xs, dtype=float))).sum(axis=0)


def qmf_check(g, d: int, tol: float = 1e-12, grid_points: int = 1000) -> QmfReport:
    """Certify the d-channel identity sum_{l<d} |G(xi + l/d)|^2 = 1.

    The decision is algebraic: the identity holds iff the autocorrelations
    a_m = sum_j g_j conj(g_{j+m}) satisfy a_{m d} = (1/d) [m=0] for all m, so
    pass/fail cannot depend on any grid resolution.  A direct evaluation of
    the channel sum on ``grid_points`` arguments is reported alongside as a
    cross-check.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    g = np.asarray(g, dtype=complex)
    if g.size == 0:
        raise ValueError("coefficient vector must be nonempty")
    degree = len(g) - 1
    defect = abs(_autocorrelation(g, 0) - 1.0 / d)
    lag = d
    while lag <= degree:
        defect = max(defect, abs(_autocorrelation(g, lag)))
        lag += d
    xs = np.arange(grid_points) / grid_points
    channel = np.zeros(grid_points)
    for l in range(d):
        channel += np.abs(eval_filter(g, xs + l / d)) ** 2
    grid_defect = float(np.max(np.abs(channel - 1.0)))
    return QmfReport(passed=bool(defect <= tol), max_defect=float(defect),
                     grid_defect=grid_defect, d=d, degree=degree)


def _window_infimum(g: np.ndarray, d: int, grid_points: int = 4096, refinements: int = 6) -> float:
    """Certified lower bound for inf |G| over the window d*xi in [-2/3, 1/2].

    Grid minimum minus a Lipschitz slack ||G'||_inf * h/2 with the exact
    derivative bound ||G'||_inf <= 2 pi sum_j j |g_j|; the grid is refined
    until the slack is small against the minimum (or gives up, reporting the
    possibly-nonpositive bound).
    """
    lo, hi = -2.0 / (3.0 * d), 1.0 / (2.0 * d)
    lip = TWO_PI * float(np.sum(np.arange(len(g)) * np.abs(np.asarray(g))))
    n = grid_points
    for _ in range(refinements):
        xs = np.linspace(lo, hi, n)
        grid_min = float(np.min(np.abs(eval_filter(g, xs))))
        h = (hi - lo) / (n - 1)
        certified = grid_min - lip * h / 2.0
        if certified > 0.5 * grid_min:
            return certified
        n *= 4
    return certified


def uniform_coefficients(d: int) -> tuple[complex, ...]:
    """Coefficients of H_d: d taps of weight 1/d."""
    return tuple([complex(1.0 / d)] * d)


@dataclass(frozen=True)
class FamilyCertificate:
    ok: bool
    depth: int
    d0: float                       # degree bound: deg(G_n) <= d0 * d_n
    d1: float                       # certified lower bound on |G_n| over the window
    qmf_defects: tuple[float, ...]  # per level 1..depth
    messages: tuple[str, ...]


@dataclass(frozen=True)
class FilterFamily:
    """Per-level trigonometric polynomials G_n with G_n(0) = 1.

    Levels beyond the explicit list default to the uniform averaging filter
    H_{d_n}, so a family is usable at any depth.  ``certify`` checks, per
    level: normalization, the QMF identity (algebraic), the degree bound
    deg(G_n) <= d0 * d_n, and a certified positive window infimum.
    """

    pair: ScalePair
    explicit: tuple[tuple[complex, ...], ...] = ()
    label: str = "uniform"

    def coefficients(self, n: int) -> tuple[complex, ...]:
        if n < 1:
            raise ValueError(f"level index must be >= 1, got {n}")
        if n <= len(self.explicit):
            return self.explicit[n - 1]
        return uniform_coefficients(self.pair.d(n))

    def is_uniform(self, n: int) -> bool:
        return n > len(self.explicit)

    @property
    def d0(self) -> float:
        """Degree-bound constant: max over levels of deg(G_n)/d_n, at least 1."""
        ratios = [(len(c) - 1) / self.pair.d(n + 1) for n, c in enumerate(self.explicit)]
        return max([1.0] + ratios)

    def certify(self, depth: int, qmf_tol: float = 1e-12, norm_tol: float = 1e-12) -> FamilyCertificate:
        messages = []
        defects = []
        d1 = math.inf
        uniform_done: dict[int, float] = {}
        for n in range(1, depth + 1):
            d = self.pair.d(n)
            g = np.asarray(self.coefficients(n), dtype=complex)
            if self.is_uniform(n) and d in uniform_done:
                defects.append(0.0)
                d1 = min(d1, uniform_done[d])
                continue
            norm_defect = abs(complex(np.sum(g)) - 1.0)
            if norm_defect > norm_tol:
                messages.append(f"level {n}: G_n(0) = sum of coefficients is off by {norm_defect:.3e}")
            rep = qmf_check(g, d, tol=qmf_tol)
            defects.append(rep.max_defect)
            if not rep.passed:
                messages.append(f"level {n}: QMF defect {rep.max_defect:.3e} exceeds {qmf_tol:.1e}")
            if rep.degree > self.d0 * d:
                messages.append(f"level {n}: degree {rep.degree} exceeds d0*d_n = {self.d0 * d:.1f}")
            inf_bound = _window_infimum(g, d)
            if inf_bound <= 0.0:
                messages.append(f"level {n}: window infimum not certifiably positive ({inf_bound:.3e})")
            d1 = min(d1, inf_bound)
            if self.is_uniform(n):
                uniform_done[d] = inf_bound
        return FamilyCertificate(ok=not messages, depth=depth, d0=self.d0,
                                 d1=d1, qmf_defects=tuple(defects), messages=tuple(messages))


def uniform_family(pair: ScalePair) -> FilterFamily:
    """The family G_n = H_{d_n}, whose product is the measure transform itself."""
    return FilterFamily(pair=pair, explicit=(), label="uniform")


def filter_family_from_config(pair: ScalePair, cfg: dict) -> FilterFamily:
    """Family from its JSON form: {"levels": [[[re, im], ...], ...], "label": ...}.

    ``levels[n-1]`` lists the coefficients of G_n as [re, im] pairs; levels
    beyond the list default to the uniform averaging filter.
    """
    levels = []
    for entry in cfg["levels"]:
        levels.append(tuple(complex(float(re), float(im)) for re, im in entry))
    return FilterFamily(pair=pair, explicit=tuple(levels),
                        label=str(cfg.get("label", "explicit")))


def certificate_report(cert: FamilyCertificate) -> dict:
    """Certification outcome as a JSON-ready document with defect values."""
    return {
        "ok": cert.ok,
        "depth": cert.depth,
        "d0": cert.d0,
        "d1": cert.d1,
        "qmf_defects": list(cert.qmf_defects),
        "messages": list(cert.messages),
    }


def phi_hat(filters: FilterFamily, xi: float, tol: float = 1e-10,
            certificate: FamilyCertificate | None = None, levels: int | None = None) -> TruncatedValue:
    """Truncated product of a certified filter family, with error radius.

    Tail bound: |G_n(eta/d_n) - 1| <= 2 pi d0 |eta| (Bernstein, with
    ||G_n'||_inf <= 2 pi deg(G_n) ||G_n||_inf and ||G_n||_inf <= 1), summed
    geometrically to 8 pi d0 |xi| / (3 rho_{N+1}).
    """
    pair = filters.pair
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    d0 = filters.d0
    coeff = 8.0 * math.pi * d0 / 3.0
    target = 2.0 * coeff * abs(xi) / min(tol, 1.0)
    n_levels = 1
    rho_next = pair.b(1)
    while rho_next < target:
        n_levels += 1
        rho_next *= pair.b(n_levels)
    if levels is not None:
        while n_levels < levels:
            n_levels += 1
            rho_next *= pair.b(n_levels)
    if certificate is None or certificate.depth < n_levels:
        certificate = filters.certify(n_levels)
    if not certificate.ok:
        raise FilterCertificationError("; ".join(certificate.messages))
    value = 1.0 + 0.0j
    rho_n = 1
    for n in range(1, n_levels + 1):
        d = pair.d(n)
        g = filters.coefficients(n)
        arg = _float_div(xi, d * rho_n)
        if filters.is_uniform(n):
            value *= eval_H(d, arg)
        else:
            value *= complex(eval_filter(np.asarray(g), np.array([arg]))[0])
        rho_n *= pair.b(n)
    radius = math.expm1(coeff * abs(xi) / _cap_float(rho_next))
    return TruncatedValue(value=value, radius=radius, levels=n_levels)
