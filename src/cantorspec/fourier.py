"""Averaging kernels H_m, QMF filter families, and the product transform.

The transform of the measure attached to a pair (B, D) is the infinite
product of kernels H_{d_n}(xi / (d_n rho_n)).  Evaluation truncates the
product and returns a certified radius bounding the discarded tail, derived
from |H_m(eta) - 1| <= pi (m-1) |eta| and the geometric growth rho_{n+1} >=
4 rho_n.  Integer frequencies admit an exact zero test by divisibility alone.

Besides the complex kernel, :func:`eval_H_sq_tables` gives |H_m(a + u)|^2 in
real arithmetic over an array u tabulated once (:func:`H_sq_tables`: the
sines and cosines of pi u and of pi m u, the latter from m u reduced mod 1),
one row per scalar a of a sequence, combining the tables with the sine and
cosine of each a by angle addition, so a call costs no per-entry sine or
cosine.  Within 1e-9 of an integer it takes the series
1 - (m^2 - 1)(pi s)^2 / 3 entry by entry, so no value depends on the rest of
the call.  The level-expansion kernel of :mod:`.verify` multiplies it along
the digit tree; :func:`eval_H_sq_array` is the same kernel at a = 0.
:func:`log_H_sq_array` and :func:`log_H_sq_series` give its logarithm, in
which the completeness tail is summed, and :func:`log_series_taylor`
tabulates the series once as a Taylor polynomial in a scalar shift of its
argument, evaluated by :func:`eval_log_series_taylor`; :func:`mu_hat` and
:func:`mu_hat_array` evaluate the transform at single frequencies.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ScalePair

TWO_PI = 2.0 * math.pi

# Distance to the nearest integer below which the closed form of H_m is
# abandoned (removable singularity): for the literal m-term sum in eval_H and
# eval_H_array, and for the series 1 - (m^2 - 1)(pi s)^2 / 3 of |H_m|^2 in
# _H_sq_direct, whose remainder stays below 1.3e-21 up to _SERIES_MAX_TAPS.
# The sum costs O(m) and the series' remainder grows like m^4, so both are
# only used for moderate m; for larger m the closed form is already
# well-conditioned at any representable nonzero distance.
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
        # one row of m terms per entry, summed on its own whatever else shares the call
        sn = s[near].reshape(-1, 1)
        j = np.arange(m)
        vals[near] = np.exp(-2j * np.pi * j * sn).sum(axis=1) / m
    return vals


def _H_sq_direct(m: int, xs: np.ndarray) -> np.ndarray:
    # |H_m(x)|^2 for m >= 3 from the closed form at each x, with the integer
    # guard of eval_H_array: 1 at integers, and in the guard band |s| <
    # _INTEGER_GUARD the series 1 - (m^2 - 1)(pi s)^2 / 3 of the Fejer form
    # 1/m + (2/m) sum_{0<k<m} (1 - k/m) cos(2 pi k s).  With 0 <= 1 - x^2/2 -
    # cos x <= x^4/24 per term, the whole remainder lies in
    # [0, (m^2 - 1)(2 m^2 - 3)(pi s)^4 / 45], below 1.3e-21 for m <= 4096, and
    # each entry is computed on its own, whatever else shares the call
    s, at_integer, near = _integer_guard(m, xs)
    safe = s if at_integer is None else np.where(at_integer | near, 0.25, s)
    ms = m * safe
    ms -= np.rint(ms)  # pi m s mod pi: the sign it drops cancels in the square
    vals = (np.sin(np.pi * ms) / (m * np.sin(np.pi * safe))) ** 2
    if at_integer is not None:
        vals[at_integer] = 1.0
        vals[near] = 1.0 - (m * m - 1) * (np.pi * s[near]) ** 2 / 3.0
    return vals


# eval_H_sq_tables recomputes from a + u directly where |sin(pi (a + u))| is
# below _CANCELLATION |sin(pi a)|, where the angle-addition sum would cancel,
# or below _GUARD_SIN, which covers the integer guard band |s| < _INTEGER_GUARD
_CANCELLATION = 4.0
_GUARD_SIN = 4.0 * _INTEGER_GUARD


@dataclass(frozen=True)
class HSqTables:
    """The argument-independent half of |H_m(a + u)|^2 over a float array u.

    With u reduced to u - round(u), ``sin``/``cos`` tabulate pi u and, for
    m >= 3, ``sin_m``/``cos_m`` tabulate pi v with v = m u - round(m u), and
    ``u`` keeps u for the entries :func:`eval_H_sq_tables` recomputes.  The
    reduction is exact for a power-of-two m, and the sign (-1)^round(m u) it
    drops multiplies both m-tables, so it cancels in the square.  Per call the
    kernel then needs only the sine and cosine of pi a (and of pi m a).
    Indexing with a slice gives the tables of those entries, as views.
    """

    m: int
    u: np.ndarray | None
    sin: np.ndarray
    cos: np.ndarray
    sin_m: np.ndarray | None
    cos_m: np.ndarray | None

    def __getitem__(self, index: slice) -> "HSqTables":
        def cut(table):
            return None if table is None else table[index]
        return HSqTables(self.m, cut(self.u), self.sin[index], self.cos[index],
                         cut(self.sin_m), cut(self.cos_m))


def H_sq_tables(m: int, us: np.ndarray) -> HSqTables:
    """The tables of :class:`HSqTables` for the kernel H_m over ``us``."""
    u = np.asarray(us, dtype=float)
    u = u - np.round(u)
    sin, cos = np.sin(np.pi * u), np.cos(np.pi * u)
    if m < 3:
        return HSqTables(m, None, sin, cos, None, None)
    v = m * u
    v -= np.rint(v)
    return HSqTables(m, u, sin, cos, np.sin(np.pi * v), np.cos(np.pi * v))


def _sin_cos_columns(xs: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    # sin(pi x) and cos(pi x) per scalar x, as columns against a table row
    return tuple(np.array([f(math.pi * x) for x in xs])[:, None] for f in (math.sin, math.cos))


def eval_H_sq_tables(t: HSqTables, a: Sequence[float]) -> np.ndarray:
    """|H_m(a_r + u)|^2 over the tabulated u, one row per scalar a_r of the sequence ``a``.

    With s = a_r + u: for m = 2 the value is cos(pi s)^2, for m >= 3 it is
    (sin(pi m s) / (m sin(pi s)))^2, both sines and the cosine expanded as
    sin(x + y) = sin x cos y + cos x sin y over the tables.  Entries where
    sin(pi s) is small against sin(pi a_r), or within the integer guard band,
    take :func:`_H_sq_direct` at a_r + u: the closed form, 1 at integers and
    the series of the Fejer form in the guard band; their (row, column) pairs
    come from one ``np.flatnonzero`` of the mask, divided by the row length.
    No per-entry sine or cosine otherwise.  Every entry is elementwise in its
    own a_r and u, so a row's bits do not depend on the other rows of the
    call: a block of grid rows, as the completeness sum passes, gives each
    row the bits of a call with that a_r alone.
    """
    m = t.m
    if m == 1:
        return np.ones((len(a), len(t.sin)))
    a = [x - round(x) for x in a]
    sa, ca = _sin_cos_columns(a)
    if m == 2:
        vals = ca * t.cos
        vals -= sa * t.sin
        vals *= vals
        return vals
    sma, cma = _sin_cos_columns([m * x - round(m * x) for x in a])
    den = sa * t.cos + ca * t.sin
    with np.errstate(divide="ignore", invalid="ignore"):  # den = 0 is recomputed below
        vals = ((sma * t.cos_m + cma * t.sin_m) / (m * den)) ** 2
    odd = np.abs(den) < np.maximum(_CANCELLATION * np.abs(sa), _GUARD_SIN)
    if odd.any():
        rows, cols = np.divmod(np.flatnonzero(odd), odd.shape[1])
        vals[rows, cols] = _H_sq_direct(m, np.array(a)[rows] + t.u[cols])
    return vals


def eval_H_sq_array(m: int, xs: np.ndarray) -> np.ndarray:
    """|H_m(x)|^2 = (sin(pi m s) / (m sin(pi s)))^2 over a float array, s = x mod 1.

    The table kernel :func:`eval_H_sq_tables` at a = 0: real arithmetic,
    cos(pi s)^2 for m = 2, and the integer guard of :func:`eval_H_array`
    (1 at integers, in the guard band the series 1 - (m^2 - 1)(pi s)^2 / 3 of
    the Fejer form 1/m + (2/m) sum_{0<k<m} (1 - k/m) cos(2 pi k s) of the
    squared modulus, see :func:`_H_sq_direct`).
    """
    return eval_H_sq_tables(H_sq_tables(m, xs), [0.0])[0]


_ZETA_OVER_J = np.array([  # zeta(2j)/j, j = 1..19
    1.6449340668482264, 0.5411616168555691, 0.3391143539948164, 0.2510193390494861, 0.2001989150255636,
    0.166707681092218, 0.14286589259072266, 0.12500191028242608, 0.11111153525480723, 0.10000009539620339,
    0.09090911258640934, 0.08333333830068242, 0.07692307806935036, 0.07142857169466671, 0.06666666672875517,
    0.06250000001455194, 0.05882352941518869, 0.055555555556363996, 0.0526315789475599])
LOG_SERIES_THETA = 0.35


def log_series_coefficients(ms, ts) -> np.ndarray:
    """c_1..c_19 of :func:`log_H_sq_series`, which is -sum_j c_j y^(2j):
    c_j = 2 zeta(2j)/j sum_k (t_k^(2j) - (t_k / m_k)^(2j)), all >= 0."""
    j2 = 2 * np.arange(1, len(_ZETA_OVER_J) + 1)
    t = np.asarray(ts, dtype=float)[:, None]
    return 2.0 * _ZETA_OVER_J * (t ** j2 - (t / np.asarray(ms)[:, None]) ** j2).sum(axis=0)


def _horner(c, z):
    # sum_j c_j z^j, j = 1..len(c), as z (c_1 + z (c_2 + ...))
    acc = c[-1] * z
    for cj in c[-2::-1]:
        acc += cj
        acc *= z
    return acc


def log_H_sq_series(ms, ts, y: np.ndarray) -> np.ndarray:
    """sum_k log|H_{m_k}(t_k y / m_k)|^2 for 0 < t_k <= 1, |y| <= LOG_SERIES_THETA, as
    one Horner polynomial in y^2 from log(sin(pi x) / (pi x)) = -sum_j zeta(2j)/j x^(2j).
    Term j is at most (4 / (3 zeta(2))) zeta(2j)/j (m s)^(2j-2) times term 1, all of
    one sign, so the terms past j = 19 are below 2^-60 of the sum:
    (4 / (3 zeta(2))) zeta(40)/20 theta^38 / (1 - theta^2) = 2^-61.99."""
    return -_horner(log_series_coefficients(ms, ts), y * y)


_TAYLOR_TOL = 2.0 ** -60


def log_series_remainder_bounds(c: np.ndarray, y0: np.ndarray, e: float) -> np.ndarray:
    """Bounds B_p, p = 0..2J, on |R_p| / |F(y0 + eps)| over the entries y0 and |eps| <= e,
    where F(y) = -sum_{j<=J} c_j y^(2j) with every c_j >= 0, and R_p is F(y0 + eps)
    less its Taylor polynomial of degree p in eps at y0.

    With Y = |y0| > 0 and r = e / Y < 1: |R_p| <= sum_j c_j sum_{i>p} C(2j, i) Y^(2j-i) e^i
    and |F(y0 + eps)| >= c_1 (Y - e)^2 = c_1 Y^2 (1 - r)^2, so
    B_p = (1 - r)^-2 sum_j (c_j / c_1) sum_{p<i<=2j} C(2j, i) e^i Y^(2j-2-i),
    with Y^(2j-2-i) at the largest Y where the power is >= 0 and, for i = 2j-1, 2j,
    written e^(2j-2) r^(i-2j+2) at the least Y (the largest r).  At y0 = 0 the
    polynomial is F(eps) itself: |R_p| / |F| <= sum_{2j>p} (c_j / c_1) e^(2j-2).  If r >= 1
    only B_2J = 0 is stated.  The bounds are evaluated in floating point, whose
    relative error is far below the 2^-60 they are compared with."""
    big_j = len(c)
    ratio = np.asarray(c, dtype=float) / c[0]
    terms = [0.0] * (2 * big_j + 2)  # terms[i]: the part of the bound from degree i
    y = np.abs(np.asarray(y0, dtype=float))
    nonzero = y[y > 0]
    if nonzero.size:
        y_max, y_min = float(nonzero.max()), float(nonzero.min())
        r = e / y_min
        if r >= 1.0:
            terms[1:-1] = [math.inf] * (2 * big_j)
        else:
            e_pow, y_pow = ([x ** k for k in range(2 * big_j + 1)] for x in (e, y_max))
            for j, c_j in enumerate(ratio.tolist(), start=1):
                for i in range(1, 2 * j + 1):
                    power = (e_pow[i] * y_pow[2 * j - 2 - i] if i <= 2 * j - 2
                             else e_pow[2 * j - 2] * r ** (i - 2 * j + 2))
                    terms[i] += c_j * math.comb(2 * j, i) * power
            terms = [t / (1.0 - r) ** 2 for t in terms]
    if np.any(y == 0):
        zero = np.zeros_like(terms)
        zero[2:-1:2] = ratio * e ** (2 * np.arange(big_j))
        terms = np.maximum(terms, zero)
    return np.cumsum(terms[::-1])[::-1][1:]  # B_p = sum_{i>p} terms[i]


def log_series_taylor(ms, ts, y0: np.ndarray, e: float) -> np.ndarray:
    """The Taylor coefficients A_0..A_p in eps of :func:`log_H_sq_series` at y0 + eps,
    tabulated once over the array y0 for every |eps| <= e, as a (p + 1, len(y0)) array.

    The series is F(y) = -sum_j c_j y^(2j) with c_j >= 0 (:func:`log_series_coefficients`),
    so A_i = -y0^(i mod 2) sum_{j >= i/2} c_j C(2j, i) (y0^2)^(j - ceil(i/2)), a
    polynomial in y0^2 with nonnegative coefficients (A_0 is the series at y0).  p is
    the least degree whose bound of :func:`log_series_remainder_bounds` is at most 2^-60
    of |F(y0 + eps)|; F has degree 2J = 38, so p <= 38 is always exact."""
    c = log_series_coefficients(ms, ts)
    degree = int(np.argmax(log_series_remainder_bounds(c, y0, e) <= _TAYLOR_TOL))
    z = y0 * y0
    rows = [-_horner(c, z)]
    for i in range(1, degree + 1):
        h = (i + 1) // 2
        b = [float(c[j - 1]) * math.comb(2 * j, i) for j in range(h, len(c) + 1)]
        acc = _horner(b[1:], z) + b[0] if len(b) > 1 else np.full_like(z, b[0])
        if i % 2:
            acc *= y0
        rows.append(-acc)
    return np.array(rows)


def eval_log_series_taylor(coefficients: np.ndarray, eps) -> np.ndarray:
    """:func:`log_H_sq_series` at y0 + eps from the tables of :func:`log_series_taylor`:
    one Horner pass in eps, sum_i A_i eps^i, for a scalar eps or one row per entry
    of a column of eps."""
    if len(coefficients) == 1:
        return coefficients[0] * np.ones_like(eps)  # exact: a copy, broadcast against eps
    acc = coefficients[-1] * eps
    for row in coefficients[-2:0:-1]:
        acc += row
        acc *= eps
    acc += coefficients[0]
    return acc


def log_H_sq_array(m: int, xs: np.ndarray) -> np.ndarray:
    """log|H_m(x)|^2 over a float array, s = x mod 1: :func:`log_H_sq_series` where
    |m s| <= LOG_SERIES_THETA, else 2 log(|sin(pi m s)| / (m |sin(pi s)|))."""
    s = xs - np.round(xs)
    small = np.abs(m * s) <= LOG_SERIES_THETA
    safe = np.where(small, 0.5 / m, np.abs(s))
    vals = 2.0 * np.log(np.abs(np.sin(np.pi * m * safe)) / (m * np.sin(np.pi * safe)))
    vals[small] = log_H_sq_series([m], [1.0], m * s[small])
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


def truncation_target(xi: float, tol: float, tail: float = TWO_PI) -> float:
    """The scale 2 tail |xi| / min(tol, 1) that rho_{N+1} must reach in
    :func:`truncation_level`.  Raises ValueError for a non-finite xi or tol,
    and when the target overflows, where no scale could be reached."""
    if not math.isfinite(xi):
        raise ValueError(f"frequency xi must be finite, got {xi}")
    if not math.isfinite(tol) or tol <= 0:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    target = 2.0 * tail * abs(xi) / min(tol, 1.0)
    if not math.isfinite(target):
        raise ValueError(f"|xi| = {abs(xi):.3e} at tol = {tol:.1e} needs a scale "
                         f"rho_(N+1) beyond the double range")
    return target


def truncation_level(pair: ScalePair, xi: float, tol: float, tail: float = TWO_PI,
                     levels: int = 1) -> tuple[int, int]:
    """Least N >= levels with tail bound exp(tail |xi| / rho_{N+1}) - 1 <= tol.

    Returns (N, rho_{N+1}).  ``tail`` is the constant of the truncated
    product's tail: 2 pi for :func:`mu_hat`, 8 pi d0 / 3 for :func:`phi_hat`.
    Uses rho_{N+1} >= :func:`truncation_target`, an integer comparison that
    implies the bound via log1p(tol) >= tol/2 for tol <= 1, and raises its
    ValueErrors.
    """
    target = truncation_target(xi, tol, tail)
    n = 1
    rho_next = pair.b(1)
    while rho_next < target or n < levels:
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
    n_levels, rho_next = truncation_level(pair, xi, tol, levels=levels or 1)
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
    coeff = 8.0 * math.pi * filters.d0 / 3.0
    n_levels, rho_next = truncation_level(pair, xi, tol, tail=coeff, levels=levels or 1)
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
