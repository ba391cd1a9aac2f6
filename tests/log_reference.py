"""The log-domain reference of the completeness tail, for the tests.

log|H_m(x)|^2 per level (:func:`log_H_sq_array`), and past the levels whose
arguments are large one series in y^2 of the sum of the logarithms of the rest
(:func:`log_H_sq_series`), from log(sin(pi x) / (pi x)) = -sum_j zeta(2j)/j x^(2j).
The library forms the tail as a product of signed roots instead
(``fourier.root_series``); this is the independent route it is held to.
"""
import numpy as np

from cantorspec.fourier import SERIES_THETA, eval_taylor

ZETA_OVER_J = np.array([  # zeta(2j)/j, j = 1..19
    1.6449340668482264, 0.5411616168555691, 0.3391143539948164, 0.2510193390494861, 0.2001989150255636,
    0.166707681092218, 0.14286589259072266, 0.12500191028242608, 0.11111153525480723, 0.10000009539620339,
    0.09090911258640934, 0.08333333830068242, 0.07692307806935036, 0.07142857169466671, 0.06666666672875517,
    0.06250000001455194, 0.05882352941518869, 0.055555555556363996, 0.0526315789475599])


def log_series_coefficients(ms, ts) -> np.ndarray:
    """c_1..c_19 of :func:`log_H_sq_series`, which is -sum_j c_j y^(2j):
    c_j = 2 zeta(2j)/j sum_k (t_k^(2j) - (t_k / m_k)^(2j)), all >= 0."""
    j2 = 2 * np.arange(1, len(ZETA_OVER_J) + 1)
    t = np.asarray(ts, dtype=float)[:, None]
    return 2.0 * ZETA_OVER_J * (t ** j2 - (t / np.asarray(ms, dtype=float)[:, None]) ** j2).sum(axis=0)


def log_H_sq_series(ms, ts, y: np.ndarray) -> np.ndarray:
    """sum_k log|H_{m_k}(t_k y / m_k)|^2 for 0 < t_k <= 1, |y| <= SERIES_THETA, as one
    Horner polynomial in y^2.  Term j is at most (4 / (3 zeta(2))) zeta(2j)/j (m s)^(2j-2)
    times term 1, all of one sign, so the terms past j = 19 are below 2^-60 of the sum:
    (4 / (3 zeta(2))) zeta(40)/20 theta^38 / (1 - theta^2) = 2^-61.99."""
    # the constant term 0.0 adds nothing: 0.0 + x is x for every x >= +0.0
    return -eval_taylor([0.0, *log_series_coefficients(ms, ts)], y * y)


def log_H_sq_array(m: int, xs: np.ndarray) -> np.ndarray:
    """log|H_m(x)|^2 over a float array, s = x mod 1: :func:`log_H_sq_series` where
    |m s| <= SERIES_THETA, else 2 log(|sin(pi m s)| / (m |sin(pi s)|))."""
    s = xs - np.round(xs)
    small = np.abs(m * s) <= SERIES_THETA
    safe = np.where(small, 0.5 / m, np.abs(s))
    vals = 2.0 * np.log(np.abs(np.sin(np.pi * m * safe)) / (m * np.sin(np.pi * safe)))
    vals[small] = log_H_sq_series([m], [1.0], m * s[small])
    return vals
