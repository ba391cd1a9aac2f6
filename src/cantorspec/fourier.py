"""Averaging kernels H_m, QMF filter families, and the product transform.

The transform of the measure attached to a pair (B, D) is the infinite
product of kernels H_{d_n}(xi / (d_n rho_n)).  There is one complex kernel,
:func:`eval_H_array` (:func:`eval_H` is it at one argument): the Dirichlet
closed form, 1 at integers and, within 1e-9 of one, the series
1 - (m^2 - 1)(pi s)^2 / 6 of its real factor D_m, as :func:`_H_sq_direct` below
takes that of D_m^2, so no entry costs time or memory in m.  There is one
truncated product, :func:`_truncated_product`, of the level factors
:meth:`FilterFamily.factor` over a float array, with one tail bound, stated
in its docstring.  :func:`mu_hat_array` and :func:`mu_hat` are that product
over :func:`uniform_family`, and :func:`phi_hat` the same product over a
certified filter family.  Its zero set on the integers is decided by
divisibility alone in :mod:`.verify`'s orthogonality check.

Besides the complex kernel, :func:`eval_H_sq_tables` gives |H_m(a + u)|^2 in
real arithmetic over an array u tabulated once (:func:`H_sq_tables`), one row
per scalar a of an array.  The rule is one: for m = 2 and m = 3 the kernel is
a polynomial in one cosine, cos(pi s)^2 and ((1 + 2 cos(2 pi s)) / 3)^2,
combined from sine and cosine tables of u and of a by angle addition, with
no per-entry sine or cosine, no division and so no singularity; for every
other m it is the closed form :func:`_H_sq_direct` at a + u, whose integer
guard takes 1 at integers and the series 1 - (m^2 - 1)(pi s)^2 / 3 within
1e-9 of one, entry by entry, so no value depends on the rest of the call.
The level-expansion kernel of :mod:`.verify` multiplies it along the digit
tree.  :func:`signed_root_taylor` gives the Taylor polynomial of the signed root R_m of
|H_m|^2 at a small shift of u, and :func:`root_complement` one minus its value
at u, both from the angles of :func:`_root_angles`.  The completeness tail is a
product of such roots too: past the levels it multiplies explicitly, the levels
whose arguments are all small are one power series in y^2 of the product of
their roots, sqrt(T), formed once per check with its truncation and a lower
bound of 1 - sqrt(T) (:func:`root_series`), and :func:`root_series_taylor`
tabulates 1 - sqrt(T) once per node as a Taylor polynomial in a scalar shift of
its argument, to a relative 2^-60 (:func:`series_remainder_bounds`).  There is
one Horner pass, :func:`eval_taylor`: the series, each row of its Taylor table
and the completeness polynomials of :mod:`.verify` are evaluated with it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import BudgetExceededError, ScalePair, _Scales, _to_float, finite_number

TWO_PI = 2.0 * math.pi

# Distance s to the nearest integer below which the closed forms of H_m are
# abandoned (removable singularity) for their series in (pi s)^2, one rule per
# kernel, each from cos y = 1 - y^2/2 + r, 0 <= r <= y^4/24, per term:
# - eval_H_array: e^{-pi i (m-1) s} (1 - (m^2 - 1)(pi s)^2 / 6), the series of the
#   Dirichlet factor D_m(s) = (1/m) sum_k cos(pi k s), k = m-1, m-3, ..., whose
#   remainder lies in [0, (m^2 - 1)(3 m^2 - 7)(pi s)^4 / 360], below 2.3e-22;
# - _H_sq_direct: 1 - (m^2 - 1)(pi s)^2 / 3 for |H_m|^2 = D_m^2, whose remainder
#   lies in [0, (m^2 - 1)(2 m^2 - 3)(pi s)^4 / 45], below 1.3e-21;
# both bounds for m <= _SERIES_MAX_TAPS.  The remainders grow like m^4, so the
# series serve only moderate m; for larger m the closed form is already
# well-conditioned at any representable nonzero distance.
_INTEGER_GUARD = 1e-9
_SERIES_MAX_TAPS = 4096
_ZERO_CLAMP = 1e-300


class FilterCertificationError(ValueError):
    """A filter family failed QMF / degree / window certification."""


def eval_H(m: int, xi: float) -> complex:
    """The kernel H_m(xi) = (1/m) sum_{j<m} e^{-2 pi i j xi}: :func:`eval_H_array`
    at the one argument xi."""
    return complex(eval_H_array(m, np.array([float(xi)]))[0])


def _integer_guard(m: int, xs: np.ndarray):
    # signed distance s of each x to its nearest integer, exact (x - round(x)
    # by Sterbenz); s with the guarded entries moved to 1/4, where the closed form
    # is safe; then the masks of the entries at an integer and of those in the
    # guard band where the series replaces the closed form
    s = xs - np.round(xs)
    dist = np.abs(s)
    at_integer = dist < _ZERO_CLAMP
    near = (dist < _INTEGER_GUARD) & ~at_integer if m <= _SERIES_MAX_TAPS else np.zeros_like(at_integer)
    return s, np.where(at_integer | near, 0.25, s), at_integer, near


def eval_H_array(m: int, xs: np.ndarray) -> np.ndarray:
    """The kernel H_m(x) = (1/m) sum_{j<m} e^{-2 pi i j x} over a float array.

    Uses the Dirichlet closed form e^{-pi i (m-1) s} sin(pi m s) /
    (m sin(pi s)) at the signed distance s of x to its nearest integer; at an
    integer the value is 1, and within 1e-9 of one the real factor is its
    series 1 - (m^2 - 1)(pi s)^2 / 6, whose remainder is stated at
    ``_INTEGER_GUARD``.  Every entry is computed on its own, in memory linear in
    the entries whatever m is, so no value depends on the rest of the call.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    s, safe, at_integer, near = _integer_guard(m, xs)
    phase = np.exp(-1j * np.pi * (m - 1) * s)  # no singularity: taken at s itself
    vals = phase * np.sin(np.pi * m * safe) / (m * np.sin(np.pi * safe))
    vals[at_integer] = 1.0
    vals[near] = phase[near] * (1.0 - (m * m - 1) * (np.pi * s[near]) ** 2 / 6.0)
    return vals


def _H_sq_direct(m: int, xs: np.ndarray) -> np.ndarray:
    # |H_m(x)|^2 from the closed form at each x, with the integer guard of
    # eval_H_array: 1 at integers, and in the guard band |s| < _INTEGER_GUARD
    # the series 1 - (m^2 - 1)(pi s)^2 / 3 of the Fejer form
    # 1/m + (2/m) sum_{0<k<m} (1 - k/m) cos(2 pi k s), its remainder stated at
    # _INTEGER_GUARD; each entry is computed on its own, whatever else shares the call
    s, safe, at_integer, near = _integer_guard(m, xs)
    ms = m * safe
    ms -= np.rint(ms)  # pi m s mod pi: the sign it drops cancels in the square
    vals = (np.sin(np.pi * ms) / (m * np.sin(np.pi * safe))) ** 2
    vals[at_integer] = 1.0
    vals[near] = 1.0 - (m * m - 1) * (np.pi * s[near]) ** 2 / 3.0
    return vals


# the signs of sin and cos of x + q pi / 2 against sin/cos of x, q = 0..3, with
# the two swapped for odd q
_QUARTER_TURN_SIGNS = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, -1.0, 1.0]])


@dataclass(frozen=True)
class HSqTables:
    """The argument-independent half of |H_m(a + u)|^2 over a float array u,
    reduced to u - round(u).

    For m = 2 and m = 3, ``sin``/``cos`` tabulate the angle of the cosine
    forms of :func:`eval_H_sq_tables`, pi u and 2 pi u, so per call the kernel
    needs only the sine and cosine of that angle of a.  For every other m,
    ``u`` keeps u itself, where the closed form is taken at a + u.
    """

    m: int
    u: np.ndarray | None
    sin: np.ndarray | None
    cos: np.ndarray | None


def _sin_cos_two_pi(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # sin and cos of 2 pi u for |u| <= 1/2, within one ulp of 1: u less its
    # nearest quarter k / 4 is exact and at most 1/8, so the angle np.sin and
    # np.cos see is at most pi / 4, and the k quarter turns swap and negate
    # them exactly
    k = np.rint(4.0 * u)
    r = TWO_PI * (u - 0.25 * k)
    sin, cos = np.sin(r), np.cos(r)
    q = k.astype(np.int64) % 4
    odd = q % 2 == 1
    return (np.where(odd, cos, sin) * _QUARTER_TURN_SIGNS[0][q],
            np.where(odd, sin, cos) * _QUARTER_TURN_SIGNS[1][q])


def H_sq_tables(m: int, us: np.ndarray) -> HSqTables:
    """The tables of :class:`HSqTables` for the kernel H_m over ``us``."""
    u = np.asarray(us, dtype=float)
    u = u - np.round(u)
    if m == 2:
        return HSqTables(m, None, np.sin(np.pi * u), np.cos(np.pi * u))
    if m == 3:
        return HSqTables(m, None, *_sin_cos_two_pi(u))
    return HSqTables(m, u, None, None)


def eval_H_sq_tables(t: HSqTables, a) -> np.ndarray:
    """|H_m(a_r + u)|^2 over the tabulated u, one row per scalar a_r of ``a``, a
    float array or a sequence of floats.

    With s = a_r + u, for m = 2 the value is cos(pi s)^2, and for m = 3 it is
    ((1 + 2 cos(2 pi s)) / 3)^2, the square of the real e^{2 pi i s} H_3(s),
    with 2 cos(2 pi s) clamped to at most 2: the value is at most 1, and
    exactly 1 at a_r = 0 with u integral.  Both expand the angle by angle
    addition over the tables (cos(x + y) = cos x cos y - sin x sin y), so no
    entry takes a sine, a cosine or a division.  For every other m it is
    :func:`_H_sq_direct` at a_r - round(a_r) + u: the closed form, 1 at
    integers and the series of the Fejer form in the guard band (exactly 1
    throughout for m = 1).  The per-row scalars, a_r - round(a_r) and for the
    cosine forms the sine and cosine of its angle, are formed as one column of
    numpy operations, the IEEE operations of the scalar form.  Every entry is
    elementwise in its own a_r and u, so a row's bits do not depend on the
    other rows of the call: a block of grid rows, as the completeness sum
    passes, gives each row the bits of a call with that a_r alone.
    """
    m = t.m
    a = np.asarray(a, dtype=float)
    a = (a - np.rint(a))[:, None]
    if m == 2:
        p = np.pi * a
        vals = np.cos(p) * t.cos
        vals -= np.sin(p) * t.sin
        vals *= vals
        return vals
    if m == 3:
        # twice the sine and cosine of 2 pi a: the sum below is 2 cos(2 pi s)
        p = TWO_PI * a
        vals = (2.0 * np.cos(p)) * t.cos
        vals -= (2.0 * np.sin(p)) * t.sin
        np.minimum(vals, 2.0, out=vals)
        vals += 1.0
        vals /= 3.0
        vals *= vals
        return vals
    return _H_sq_direct(m, a + t.u)


SERIES_THETA = 0.35
_TAYLOR_TOL = 2.0 ** -60


def _powers(x, count: int) -> np.ndarray:
    """The rows x^0, ..., x^(count - 1) of a float or a float array x, each row the row
    before times x: the one rule by which the completeness path forms a power, so that
    its bytes do not depend on which vector kernel numpy picks for the CPU, as those of
    ``np.power`` with an array exponent do.  x^k carries k - 1 roundings, so
    |fl(x^k) - x^k| <= gamma_(k-1) |x|^k, gamma_n = n u / (1 - n u), u = 2^-53 (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch. 3), barring underflow
    and overflow; x^k is exact when x is a power of two."""
    rows = np.full((count, *np.shape(x)), x, dtype=float)
    rows[:1] = 1.0
    return np.multiply.accumulate(rows)


def _sinc_series(terms: int) -> tuple[np.ndarray, np.ndarray]:
    # the coefficients in z^2 of sin(z) / z and of its reciprocal z / sin(z), each exact
    # (the reciprocal by its recurrence in fractions) and then rounded once
    sinc = [Fraction((-1) ** n, math.factorial(2 * n + 1)) for n in range(terms)]
    inverse = [Fraction(1)]
    for n in range(1, terms):
        inverse.append(-sum(sinc[i] * inverse[n - i] for i in range(1, n + 1)))
    return np.array([float(v) for v in sinc]), np.array([float(v) for v in inverse])


# through z^30: root_series keeps at most 15 terms (its docstring)
_SINC, _INVERSE_SINC = _sinc_series(16)


def root_series(ms, ts) -> tuple[np.ndarray, float]:
    """(S, low): S_0..S_N, the coefficients in y^2 of sqrt(T(y)) = prod_k R_{m_k}(t_k y / m_k)
    for 0 <= t_k <= 1 and |y| <= SERIES_THETA, R_m(s) = sin(pi m s) / (m sin(pi s)) the signed
    root of |H_m(s)|^2 (:func:`signed_root_taylor`), and low > 0 with
    |1 - sqrt(T(y))| >= low y^2 there.

    *Coefficients.*  The y^(2n) coefficient of R_m(t y / m) is
    (2/m) (-1)^n sum_k (pi k t / m)^(2n) / (2n)! over k = m-1, m-3, ... >= 1 (n >= 1).  For
    any m it is read from R_m(t y / m) = sinc(z) / sinc(z / m), z = pi t y and
    sinc(z) = sin(z) / z: the product of the series of sin(z) / z and of z / sin(z) at z / m
    (``_SINC``, ``_INVERSE_SINC``).  Every level's coefficients have the sign (-1)^n, so the
    product of the levels, a product of series in y^2, adds terms of one sign.

    *Truncation.*  The y^(2n) coefficient of R_m(t y / m) is at most that of cosh(h y),
    h = pi (m - 1) t / m, as its k sum has fewer than m / 2 terms, each k <= m - 1.  So |S_n|
    is at most the y^(2n) coefficient of prod_k cosh(h_k y), and so of e^(H y), H = sum_k h_k,
    and the terms past N sum to at most (H |y|)^(2N+2) e^(H |y|) / (2N+2)!.  Relative to
    low y^2 that is largest at |y| = theta; N is the least with it at most 2^-62 there.  With
    t_(k+1) <= t_k / 2, H theta < 2 pi theta < 2.2, and low >= 0.6 (c_1 / 2 >= pi^2 / 8 and
    T(theta) >= 0.56), so N <= 14.

    *The lower bound.*  log T(y) = -sum_j c_j y^(2j) with every c_j >= 0, as
    log(sin(pi x) / (pi x)) = -sum_j zeta(2j)/j x^(2j) and t_k >= t_k / m_k: its first,
    c_1 = -2 S_1, gives |log T| >= c_1 y^2.  With 1 - T >= |log T| T (e^x - 1 >= x) and
    1 - sqrt(T) = (1 - T) / (1 + sqrt(T)) >= (1 - T) / 2, and T falling in |y| on
    [0, theta], 1 - sqrt(T(y)) >= (c_1 / 2) T(theta) y^2 = low y^2.  T(theta) is the closed
    form's, within rounding, which moves the bound by a few ulp of itself."""
    t = np.asarray(ts, dtype=float)
    inv_m = np.array([1.0 / _to_float(m) for m in ms])
    z_pow, inv_pow = (_powers(x, len(_SINC)).T for x in ((np.pi * t) ** 2, inv_m ** 2))
    # both products below form each coefficient as the sum of a_i b_(k-i) in ascending i, with
    # no BLAS call: np.convolve's dot products run the kernel OpenBLAS picks for the CPU, whose
    # bits differ between CPUs.  First the series of each level, sinc(z) times 1 / sinc(z / m),
    # all levels in one pass; then their product, in Python floats
    a, b = _SINC * z_pow, _INVERSE_SINC * z_pow * inv_pow
    levels = np.zeros_like(a)
    for i in range(len(_SINC)):
        levels[:, i:] += a[:, i:i + 1] * b[:, :len(_SINC) - i]
    # T(theta), a level sinc(t theta) / sinc(t theta / m) in numpy's sinc(x) = sin(pi x) / (pi x)
    t_theta = float(np.prod((np.sinc(t * SERIES_THETA) / np.sinc(t * SERIES_THETA * inv_m)) ** 2))
    low = -sum(level[1] for level in levels) * t_theta
    # the least N with (H theta)^(2N+2) e^(H theta) / (2N+2)! <= 2^-62 low theta^2
    h = SERIES_THETA * float(np.sum(np.pi * t * (1.0 - inv_m)))
    count, term = 1, h * h / 2.0
    while term * math.exp(h) > _TAYLOR_TOL / 4.0 * low * SERIES_THETA ** 2:
        term *= h * h / ((2 * count + 1) * (2 * count + 2))
        count += 1
    out = [1.0]
    for level in levels[:, :count].tolist():
        product = [0.0] * count
        for i, out_i in enumerate(out):
            for k in range(i, count):
                product[k] += out_i * level[k - i]
        out = product
    return np.array(out), low


def series_remainder_bounds(ratio: np.ndarray, y0: np.ndarray, e: float) -> np.ndarray:
    """Bounds B_p, p = 0..2J, on |R_p| / |F(y0 + eps)| over the entries y0 and |eps| <= e,
    where F(y) = sum_{j<=J} c_j y^(2j), |F(y)| >= low y^2 wherever it is read, ``ratio``
    holds |c_j| / low, and R_p is F(y0 + eps) less its Taylor polynomial of degree p in eps
    at y0.

    With Y = |y0| > 0 and r = e / Y < 1: |R_p| <= sum_j |c_j| sum_{i>p} C(2j, i) Y^(2j-i) e^i
    and |F(y0 + eps)| >= low (Y - e)^2 = low Y^2 (1 - r)^2, so
    B_p = (1 - r)^-2 sum_j (|c_j| / low) sum_{p<i<=2j} C(2j, i) e^i Y^(2j-2-i),
    with Y^(2j-2-i) at the largest Y where the power is >= 0 and, for i = 2j-1, 2j,
    written e^(2j-2) r^(i-2j+2) at the least Y (the largest r).  At y0 = 0 the
    polynomial is F(eps) itself: |R_p| / |F| <= sum_{2j>p} (|c_j| / low) e^(2j-2).  If
    r >= 1 only B_2J = 0 is stated.  The bounds are evaluated in floating point, whose
    relative error is far below the 2^-60 they are compared with: one scalar double loop
    over j and the degrees i <= 2j, the terms of one i added in order of j."""
    big_j = len(ratio)
    terms = [0.0] * (2 * big_j + 2)  # terms[i]: the part of the bound from degree i
    e_pow = _powers(e, 2 * big_j + 1).tolist()
    y = np.abs(np.asarray(y0, dtype=float))
    nonzero = y[y > 0]
    if nonzero.size:
        y_max, y_min = float(nonzero.max()), float(nonzero.min())
        r = e / y_min
        if r >= 1.0:
            terms[1:-1] = [math.inf] * (2 * big_j)
        else:
            y_pow, r_pow = _powers(y_max, 2 * big_j + 1).tolist(), _powers(r, 3).tolist()
            for j, c_j in enumerate(ratio.tolist(), start=1):
                for i in range(1, 2 * j + 1):
                    power = (e_pow[i] * y_pow[2 * j - 2 - i] if i <= 2 * j - 2
                             else e_pow[2 * j - 2] * r_pow[i - 2 * j + 2])
                    terms[i] += c_j * math.comb(2 * j, i) * power
            terms = [t / (1.0 - r) ** 2 for t in terms]
    if np.any(y == 0):
        zero = np.zeros(len(terms))
        zero[2:-1:2] = ratio * e_pow[:2 * big_j:2]
        terms = np.maximum(terms, zero)
    return np.cumsum(terms[::-1])[::-1][1:]  # B_p = sum_{i>p} terms[i]


def root_series_taylor(coefficients: np.ndarray, low: float, y0: np.ndarray, e: float) -> np.ndarray:
    """The Taylor coefficients A_0..A_p in eps of 1 - sqrt(T) at y0 + eps, sqrt(T) the series
    ``coefficients`` of :func:`root_series` and ``low`` its bound, tabulated once over the array
    y0 for every |eps| <= e, as a (p + 1, len(y0)) array.

    1 - sqrt(T) = sum_{n>=1} c_n y^(2n), c_n = -S_n, so A_i = y0^(i mod 2) sum_{n >= i/2}
    c_n C(2n, i) (y0^2)^(n - ceil(i/2)), a polynomial in y0^2 (A_0 is 1 - sqrt(T) at y0).  p
    is the least degree whose bound of :func:`series_remainder_bounds`, with |c_n| / low, is
    at most 2^-60 of |1 - sqrt(T(y0 + eps))|; the series has degree 2N, so p <= 2N is always
    exact."""
    c = -coefficients[1:]
    degree = int(np.argmax(series_remainder_bounds(np.abs(c) / low, y0, e) <= _TAYLOR_TOL))
    z = y0 * y0
    # the constant term 0.0 adds nothing: 0.0 + x is x for every x >= +0.0
    rows = [eval_taylor([0.0, *c], z)]
    for i in range(1, degree + 1):
        acc = eval_taylor([float(c[n - 1]) * math.comb(2 * n, i) for n in range((i + 1) // 2, len(c) + 1)], z)
        if i % 2:
            acc *= y0
        rows.append(acc)
    return np.array(rows)


def eval_taylor(coefficients: np.ndarray, eps) -> np.ndarray:
    """The polynomial sum_i A_i eps^i of coefficient rows A_i, such as the tables of
    :func:`root_series_taylor` at y0 + eps: one Horner pass in eps, for a scalar eps or one
    row per entry of a column of eps.  Every coefficient entry is its own Horner pass, so no
    value depends on the other eps; the completeness check evaluates its polynomials in xi
    with it too."""
    if len(coefficients) == 1:
        return coefficients[0] * np.ones_like(eps)  # exact: a copy, broadcast against eps
    acc = coefficients[-1] * eps
    for row in coefficients[-2:0:-1]:
        acc += row
        acc *= eps
    acc += coefficients[0]
    return acc


def _root_angles(t: HSqTables) -> tuple[int, list[int], np.ndarray, np.ndarray]:
    """(m, ks, cos, sin) over the tabulated u: row r of cos and
    sin holds cos(pi k u) and sin(pi k u) for k = ks[r], over k = m-1, m-3, ... >= 1.
    m = 2 and m = 3 read the rows from their tables; every other m makes one pass of
    sines and cosines per k.  :func:`signed_root_taylor` and :func:`root_complement`
    both read them, so a caller that needs both computes them once."""
    if t.m in (2, 3):
        return t.m, [t.m - 1], t.cos[None], t.sin[None]
    ks = list(range(t.m - 1, 0, -2))
    cos, sin = np.empty((len(ks), len(t.u))), np.empty((len(ks), len(t.u)))
    for row, k in enumerate(ks):
        half = 0.5 * k * t.u
        sin[row], cos[row] = _sin_cos_two_pi(half - np.rint(half))
    return t.m, ks, cos, sin


def signed_root_taylor(angles, inv_scale: float, degree: int) -> np.ndarray:
    """The Taylor coefficients in xi of the signed root R_m(u + xi inv_scale) over the
    entries of ``angles`` (:func:`_root_angles`), a (``degree`` + 1, count) array, where
    |H_m(s)|^2 = R_m(s)^2.

    R_m(s) = sin(pi m s) / (m sin(pi s)) = a_0 + (2/m) sum_k cos(pi k s) over
    k = m-1, m-3, ... >= 1, a_0 = 1/m for odd m and 0 for even m: cos(pi s) for m = 2,
    (1 + 2 cos(2 pi s)) / 3 for m = 3 and the Dirichlet sum for odd m >= 5.  Its n-th
    coefficient is (2/m) sum_k (pi k inv_scale)^n / n! cos(pi k u + n pi / 2), so at
    most (c_m inv_scale)^n / n!, c_m = pi (m - 1).  The completeness check passes only
    a prime m, one sub-level of ``verify._sub_levels``: a prime m >= 5 costs the
    (m - 1) / 2 passes of its angles."""
    m, ks, cosines, sines = angles
    # m R_m: the sums first, then one division, as (1 + 2 cos) / 3 in eval_H_sq_tables
    out, part = np.zeros((degree + 1, cosines.shape[1])), np.empty(cosines.shape[1])
    for k, cos, sin in zip(ks, cosines, sines):
        step = math.pi * k * inv_scale
        for n, power in enumerate(_powers(step, degree + 1).tolist()):
            # the n-th derivative of cos: cos, -sin, -cos, sin
            factor = (2.0 if n % 4 in (0, 3) else -2.0) * power / math.factorial(n)
            np.multiply(sin if n % 2 else cos, factor, out=part)
            out[n] += part
    out[0] += m % 2
    out /= m
    return out


def root_complement(angles) -> np.ndarray:
    """1 - R_m(u) over the entries of ``angles`` (:func:`_root_angles`), R_m the signed
    root of :func:`signed_root_taylor`: (2/m) sum_k (1 - cos(pi k u)), each 1 - cos
    formed without cancellation, as sin^2 / (1 + cos) where cos >= 0."""
    m, _, cosines, sines = angles
    rest = np.zeros(cosines.shape[1])
    for cos, sin in zip(cosines, sines):
        rest += np.where(cos >= 0.0, sin * sin / (1.0 + np.abs(cos)), 1.0 - cos)
    return rest * (2.0 / m)


@dataclass(frozen=True)
class TruncatedValue:
    """Partial product value with a radius bounding the truncation error."""

    value: complex
    radius: float
    levels: int


def truncation_target(xi, tol: float):
    """The scale 4 pi |xi| / min(tol, 1) that rho_{N+1} must reach in
    :func:`_truncated_product`, for a float xi or entry by entry over a float
    array: rho_{N+1} >= it gives expm1(2 pi |xi| / rho_{N+1}) <= tol, as
    log1p(tol) >= tol / 2 for tol <= 1.  Raises ValueError for a non-finite
    xi or tol, and when a target overflows, where no scale could be reached."""
    if not np.isfinite(xi).all():
        raise ValueError(f"frequency xi must be finite, got {xi}")
    if not math.isfinite(tol) or tol <= 0:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    target = 2.0 * TWO_PI * abs(xi) / min(tol, 1.0)
    if not np.isfinite(target).all():
        raise ValueError(f"|xi| = {np.max(abs(xi)):.3e} at tol = {tol:.1e} needs a scale "
                         f"rho_(N+1) beyond the double range")
    return target


def _truncated_product(filters: FilterFamily, xs, tol: float) -> tuple[np.ndarray, np.ndarray, int]:
    """(values, radii, N): prod_{n<=N} G_n(x / (d_n rho_n)) over a float array,
    G_n = ``filters.factor(n, .)``.

    N is the least depth >= 1 and >= the explicit levels of ``filters`` with
    rho_{N+1} >= :func:`truncation_target` of the largest |x|.  Every level
    past N is then a uniform H_{d_n}, and |H_m(eta) - 1| <= pi (m-1) |eta|
    bounds its defect by pi |x| / rho_n;
    with rho_{n+1} >= 4 rho_n these sum to at most 2 pi |x| / rho_{N+1}, and
    |prod(1 + eps_n) - 1| <= exp(sum |eps_n|) - 1.  The partial product has
    modulus at most 1 for a certified family (the QMF identity gives
    |G_n| <= 1), so the radii expm1(2 pi |x| / rho_{N+1}), at most tol, bound
    the truncation error."""
    xs = np.asarray(xs, dtype=float)
    xmax = float(np.max(np.abs(xs))) if xs.size else 0.0
    scales = _Scales(filters.pair)
    n_levels, rho_next = scales.reach(truncation_target(xmax, tol), len(filters.explicit))
    values = np.ones(xs.shape, dtype=complex)
    for n in range(1, n_levels + 1):
        values *= filters.factor(n, xs / _to_float(scales.d[n] * scales.rho[n]))
    radii = np.expm1(TWO_PI * np.abs(xs) / min(_to_float(rho_next), 1e308))
    return values, radii, n_levels


def mu_hat(pair: ScalePair, xi: float, tol: float = 1e-10) -> TruncatedValue:
    """Product transform at xi, truncated with a certified error radius:
    :func:`phi_hat` of the uniform family, whose certificate holds at every depth, so
    the value and radius of :func:`mu_hat_array` at the one argument xi."""
    return phi_hat(uniform_family(pair), xi, tol)


def mu_hat_array(pair: ScalePair, xs: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray, int]:
    """Vectorized transform over a float array: :func:`_truncated_product` of
    the uniform family, at the depth of the largest |x| in the batch, so every
    entry's radius bound is sound.  Returns (values, radii, levels)."""
    return _truncated_product(uniform_family(pair), xs, tol)


# ---------------------------------------------------------------------------
# QMF filter families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QmfReport:
    """Outcome of the d-channel QMF certification of one coefficient vector."""

    passed: bool
    max_defect: float          # worst |a_{m d} - [m=0]/d| over autocorrelation lags


# the tolerance of the QMF identity and of the normalization G_n(0) = 1
_QMF_TOL = 1e-12
# the first grid of the window infimum, and how often it is refined fourfold
_WINDOW_GRID, _WINDOW_REFINEMENTS = 4096, 6
# sinc(2/3) = 3 sqrt(3) / (4 pi) = 0.41349..., rounded down: on the window
# |d x| <= 2/3, |H_d(x)| = |sin(pi d x)| / (d |sin(pi x)|) >= sinc(d x) >= it
_UNIFORM_WINDOW_BOUND = 0.4134


def eval_filter(g: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """G(x) = sum_j g_j e^{-2 pi i j x} over an array of arguments of any shape, one
    pass per coefficient: the terms g_j e^{-2 pi i j x} are added in order of j onto
    zeros, entry by entry, so each entry's bits depend on its own argument alone, and
    memory does not grow with the degree.  An empty g gives zeros."""
    xs = np.asarray(xs, dtype=float)
    total = np.zeros(xs.shape, dtype=complex)
    for j, c in enumerate(np.asarray(g, dtype=complex)):
        total += c * np.exp(-2j * np.pi * j * xs)
    return total


def qmf_check(g, d: int) -> QmfReport:
    """Certify the d-channel identity sum_{l<d} |G(xi + l/d)|^2 = 1.

    The decision is algebraic: the identity holds iff the autocorrelations
    a_m = sum_j g_j conj(g_{j+m}) satisfy a_{m d} = (1/d) [m=0] for all m, so
    pass/fail depends on no grid of arguments, and none is evaluated.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    g = np.asarray(g, dtype=complex)
    if g.size == 0:
        raise ValueError("coefficient vector must be nonempty")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing product gives inf: a fail
        defect = max(abs(complex(np.sum(g[:len(g) - lag] * np.conj(g[lag:]))) - (lag == 0) / d)
                     for lag in range(0, len(g), d))
    return QmfReport(passed=bool(defect <= _QMF_TOL), max_defect=float(defect))


def _window_infimum(g: np.ndarray, d: int, level: int, budget: int) -> float:
    """Certified lower bound for inf |G| over the window d*xi in [-2/3, 1/2]
    of the filter of ``level``.

    Grid minimum minus a Lipschitz slack ||G'||_inf * h/2 with the exact
    derivative bound ||G'||_inf <= 2 pi sum_j j |g_j|; the grid is refined
    until the slack is small against the minimum (or gives up, reporting the
    possibly-nonpositive bound).  A grid whose points times the coefficients
    exceed ``budget`` raises BudgetExceededError before it is formed.
    """
    lo, hi = -2.0 / (3.0 * d), 1.0 / (2.0 * d)
    lip = TWO_PI * float(np.sum(np.arange(len(g)) * np.abs(np.asarray(g))))
    n = _WINDOW_GRID
    for _ in range(_WINDOW_REFINEMENTS):
        if n * len(g) > budget:
            raise BudgetExceededError(f"level {level}: a window grid of {n} points over {len(g)} "
                                      f"coefficients is over the budget of {budget}", required=n * len(g))
        xs = np.linspace(lo, hi, n)
        grid_min = float(np.min(np.abs(eval_filter(g, xs))))
        h = (hi - lo) / (n - 1)
        certified = grid_min - lip * h / 2.0
        if certified > 0.5 * grid_min:
            return certified
        n *= 4
    return certified


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
    explicit level: normalization, the QMF identity (algebraic), and a
    certified positive window infimum, each window grid held to ``budget``
    points times coefficients; a uniform level H_d holds all three by
    construction (``_UNIFORM_WINDOW_BOUND``).  The degree bound
    deg(G_n) <= d0 * d_n holds by the definition of ``d0``, which the
    certificate reports.
    """

    pair: ScalePair
    explicit: tuple[tuple[complex, ...], ...] = ()

    def is_uniform(self, n: int) -> bool:
        return n > len(self.explicit)

    def factor(self, n: int, xs: np.ndarray) -> np.ndarray:
        """G_n over a float array: :func:`eval_H_array` of d_n on a uniform
        level, :func:`eval_filter` of its coefficients on an explicit one."""
        if self.is_uniform(n):
            return eval_H_array(self.pair.d(n), xs)
        return eval_filter(self.explicit[n - 1], xs)

    @property
    def d0(self) -> float:
        """Degree-bound constant: max over levels of deg(G_n)/d_n, at least 1."""
        ratios = [(len(c) - 1) / self.pair.d(n + 1) for n, c in enumerate(self.explicit)]
        return max([1.0] + ratios)

    def certify(self, depth: int, budget: int = 10**6) -> FamilyCertificate:
        messages, defects = [], []
        d1 = _UNIFORM_WINDOW_BOUND if depth > len(self.explicit) else math.inf
        for n, g in enumerate(self.explicit[:depth], start=1):
            d, g = self.pair.d(n), np.asarray(g, dtype=complex)
            # coefficients whose sums overflow give a non-finite defect or bound, which fails
            with np.errstate(over="ignore", invalid="ignore"):
                norm_defect = abs(complex(np.sum(g)) - 1.0)
                rep = qmf_check(g, d)
                inf_bound = _window_infimum(g, d, n, budget)
            if norm_defect > _QMF_TOL:
                messages.append(f"level {n}: G_n(0) = sum of coefficients is off by {norm_defect:.3e}")
            defects.append(rep.max_defect)
            if not rep.passed:
                messages.append(f"level {n}: QMF defect {rep.max_defect:.3e} exceeds {_QMF_TOL:.1e}")
            if inf_bound <= 0.0:
                messages.append(f"level {n}: window infimum not certifiably positive ({inf_bound:.3e})")
            d1 = min(d1, inf_bound)
        defects += [0.0] * (depth - len(defects))
        return FamilyCertificate(ok=not messages, depth=depth, d0=self.d0,
                                 d1=d1, qmf_defects=tuple(defects), messages=tuple(messages))


def uniform_family(pair: ScalePair) -> FilterFamily:
    """The family G_n = H_{d_n}, whose product is the measure transform itself."""
    return FilterFamily(pair=pair)


def filter_family_from_config(pair: ScalePair, cfg: dict) -> FilterFamily:
    """Family from its JSON form: {"levels": [[[re, im], ...], ...]}.

    ``levels[n-1]`` lists the coefficients of G_n as [re, im] pairs; levels
    beyond the list default to the uniform averaging filter.
    """
    levels = []
    for n, entry in enumerate(cfg["levels"]):
        levels.append(tuple(complex(finite_number(re, f"levels[{n}][{j}] re"),
                                    finite_number(im, f"levels[{n}][{j}] im"))
                            for j, (re, im) in enumerate(entry)))
    return FilterFamily(pair=pair, explicit=tuple(levels))


def phi_hat(filters: FilterFamily, xi: float, tol: float = 1e-10) -> TruncatedValue:
    """Truncated product of a certified filter family at xi, with a certified
    error radius: :func:`_truncated_product`, which runs past the explicit
    levels, so that only uniform levels are discarded.  The family is
    certified to the depth the product used; a FilterCertificationError when
    it fails."""
    values, radii, n_levels = _truncated_product(filters, [xi], tol)
    certificate = filters.certify(n_levels)
    if not certificate.ok:
        raise FilterCertificationError("; ".join(certificate.messages))
    return TruncatedValue(value=complex(values[0]), radius=float(radii[0]), levels=n_levels)
