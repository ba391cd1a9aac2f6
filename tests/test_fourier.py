import cmath
import dataclasses
import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from cantorspec import (FilterCertificationError, FilterFamily, constant_pair,
                        dimension_targeting_pair, eval_H, eval_H_array, explicit_pair,
                        filter_family_from_config, mu_hat, mu_hat_array,
                        orthogonality_check, pair_from_config, phi_hat, qmf_check,
                        uniform_family)
from cantorspec import fourier
from cantorspec.fourier import (SERIES_THETA, _UNIFORM_WINDOW_BOUND, H_sq_tables, _H_sq_direct,
                                _powers, eval_filter, eval_H_sq_tables, eval_taylor, root_series,
                                root_series_taylor, series_remainder_bounds)
from log_reference import ZETA_OVER_J, log_H_sq_array, log_H_sq_series


def kernel_by_summation(m, xi):
    """Independent oracle: the literal m-term average."""
    return sum(cmath.exp(-2j * math.pi * j * xi) for j in range(m)) / m


def test_eval_H_examples():
    assert eval_H(2, 0.0) == 1
    assert abs(eval_H(2, 0.5)) < 1e-15
    assert abs(eval_H(3, 1 / 3)) < 1e-15
    # modulus at (4, 1/8) pinned by the summation oracle: 1/(4 sin(pi/8))
    oracle = abs(kernel_by_summation(4, 0.125))
    assert oracle == pytest.approx(0.6532814824381883, abs=1e-12)
    assert abs(eval_H(4, 0.125)) == pytest.approx(oracle, abs=1e-13)


def test_eval_H_matches_summation_oracle():
    rng = np.random.default_rng(1)
    for m in (2, 3, 5, 8, 17):
        for xi in rng.uniform(-3, 3, size=50):
            assert eval_H(m, xi) == pytest.approx(kernel_by_summation(m, xi), abs=1e-12)


def test_eval_H_bounded():
    rng = np.random.default_rng(2)
    for m in (2, 3, 5, 13, 64):
        xs = rng.uniform(-50, 50, size=2000)
        assert np.all(np.abs(eval_H_array(m, xs)) <= 1 + 1e-12)


def test_pythagorean_identity():
    rng = np.random.default_rng(3)
    xs = rng.uniform(-10, 10, size=1000)
    total = np.abs(eval_H_array(2, xs / 2)) ** 2 + np.abs(eval_H_array(2, (xs + 1) / 2)) ** 2
    assert np.max(np.abs(total - 1)) < 1e-12


@given(st.floats(min_value=-100, max_value=100, allow_nan=False),
       st.sampled_from([2, 3, 4, 7]))
@settings(deadline=None, max_examples=200)
def test_eval_H_periodicity(xi, m):
    assert abs(eval_H(m, xi + 1) - eval_H(m, xi)) < 1e-13


def test_eval_H_near_integer_guard():
    # continuous across the removable singularity, value 1 at integers
    for m in (2, 5):
        assert eval_H(m, 0.0) == 1
        assert eval_H(m, 3.0) == 1
        for eps in (1e-12, 1e-10, 2e-9, 1e-8):
            assert abs(eval_H(m, eps) - 1) < math.pi * (m - 1) * eps + 1e-14
            assert abs(eval_H(m, 1 - eps) - 1) < math.pi * (m - 1) * eps + 1e-14


def test_eval_H_array_matches_scalar():
    # the summation oracle at the exact reduction x - round(x), where its
    # angles stay below pi m
    xs = np.array([-2.3, -1.0, 0.0, 1e-12, 0.25, 0.5, 0.999999999, 7.75])
    for m in (1, 2, 3, 6):
        vec = eval_H_array(m, xs)
        for x, v in zip(xs, vec):
            assert v == pytest.approx(kernel_by_summation(m, x - round(x)), abs=1e-14)
            assert eval_H(m, x) == v


def test_eval_H_array_rejects_m_below_one():
    for m in (0, -1):
        with pytest.raises(ValueError):
            eval_H_array(m, np.array([0.3]))
        with pytest.raises(ValueError):
            eval_H(m, 0.3)


def test_eval_H_sq_array_matches_summation_oracle():
    # closed form, the cosine form at m = 2, and the series in the guard band
    rng = np.random.default_rng(4)
    xs = np.concatenate([rng.uniform(-3, 3, size=200), [-2.0, 0.0, 1.0, 0.5, -0.5],
                         [k + e for k in (0, 3) for e in (-2e-9, -1e-12, 1e-300, 5e-10)]])
    for m in (2, 3, 5, 8, 17, 64):
        got = eval_H_sq_tables(H_sq_tables(m, xs), [0.0])[0]
        want = [abs(kernel_by_summation(m, x)) ** 2 for x in xs]
        assert np.max(np.abs(got - want)) < 1e-13, m
        assert np.all(got[np.round(xs) == xs] == 1.0)


def closed_form_H_sq(m, xs):
    """Oracle: the closed form of |H_m|^2 that preceded the table kernel, one
    sine pair per argument, the cosine at m = 2 and in the guard band the
    series 1 - (m^2 - 1)(pi s)^2 / 3 of the Fejer sum; the numerator's angle
    pi m s is taken as pi (m s - round(m s))."""
    if m == 2:
        return np.cos(np.pi * (xs - np.round(xs))) ** 2
    s = xs - np.round(xs)
    dist = np.abs(s)
    at_integer = dist < 1e-300
    near = (dist < 1e-9) & ~at_integer
    safe = np.where(at_integer | near, 0.25, s)
    ms = m * safe
    vals = (np.sin(np.pi * (ms - np.round(ms))) / (m * np.sin(np.pi * safe))) ** 2
    vals[at_integer] = 1.0
    vals[near] = 1.0 - (m * m - 1) * (np.pi * s[near]) ** 2 / 3.0
    return vals


def closed_form_arguments(m):
    rng = np.random.default_rng(m)
    return np.concatenate([rng.uniform(-3, 3, size=2000), rng.integers(-64, 64, 200) / 128,
                           [-2.0, 0.0, 1.0, 0.5, -0.5, 5e-324, -5e-324],
                           [k + e for k in (0, 3) for e in (-2e-9, -1e-9, -1e-12, 1e-300, 5e-10, 1.1e-9)]])


@pytest.mark.parametrize("m", [2, 4, 5, 7, 9, 16, 17, 64, 1024])
def test_eval_H_sq_array_equals_closed_form_bit_for_bit(m):
    # at a = 0, and for m >= 4 on nonzero rows a_r too: the table kernel is the
    # closed form at a_r - round(a_r) + u, u reduced mod 1 as the tables hold it
    xs = closed_form_arguments(m)
    assert np.array_equal(eval_H_sq_tables(H_sq_tables(m, xs), [0.0])[0], closed_form_H_sq(m, xs))
    if m >= 4:
        a = np.array([1e-12, -0.25 + 3e-10, 0.37, 0.5 / m, -0.3 / m, 2.25, -1.5, 1e-9 - 0.5])
        s = (a - np.rint(a))[:, None] + (xs - np.round(xs))
        rows = eval_H_sq_tables(H_sq_tables(m, xs), a)
        assert np.array_equal(rows, closed_form_H_sq(m, s)), m


def assert_cosine_form_accurate(a, us, rows):
    """The m = 3 kernel ``rows`` at s = a_r + u: exactly 1 at a_r = 0 with u
    an integer, within 2 ulp of mpmath at any other integer and in the guard
    band |s| < 1e-9 (where the closed form took its series, within 1 ulp), and
    within 5 ulp in the unit of :func:`H_sq_mpmath` elsewhere."""
    for x, row in zip(a, rows):
        for u, got in zip(us, row):
            s = mp.mpf(x) + mp.mpf(u)
            s -= mp.nint(s)
            want, unit = H_sq_mpmath(3, x, u)
            if s == 0 and x == round(x):
                assert got == 1.0, (x, u, got)
            elif abs(s) < 1e-9:
                assert abs(mp.mpf(got) - want) <= 2 * math.ulp(float(want)), (x, u, got)
            else:
                assert abs(mp.mpf(got) - want) <= 5 * 2.0 ** -52 * unit, (x, u, got)


def test_eval_H_sq_array_cosine_form_at_m3():
    # ((1 + 2 cos 2 pi s) / 3)^2 with no division, on the arguments of the closed-form check
    xs = closed_form_arguments(3)
    assert_cosine_form_accurate([0.0], xs, [eval_H_sq_tables(H_sq_tables(3, xs), [0.0])[0]])


def H_sq_mpmath(m, a, u):
    """Oracle: |H_m(s)|^2 at s = a + u, both taken exactly, and the unit its
    error is measured in: 1 near the zeros of sin(pi m s) (|sin(pi m s)| < 1/2),
    else f + |s f'(s)|, the value plus its change under a relative change of s."""
    with mp.workdps(40):
        s = mp.mpf(a) + mp.mpf(u)
        s -= mp.nint(s)
        if s == 0:
            return 1.0, 1.0
        num = mp.sin(mp.pi * m * s)
        f = (num / (m * mp.sin(mp.pi * s))) ** 2
        if abs(num) < 0.5:
            return f, 1.0
        dlog = 2 * mp.pi * s * (m * mp.cot(mp.pi * m * s) - mp.cot(mp.pi * s))
        return f, f * (1 + abs(dlog))


@st.composite
def kernel_arguments(draw):
    # a within half a period of the kernel's first zero, as xi / (d_n rho_n) is
    # for xi in [0, 1/2]; u a reduced label sum j / (m q^k) of a digit tree
    m = draw(st.sampled_from([2, 3, 4, 5, 7, 9, 16, 1024]))
    a = draw(st.floats(min_value=-0.5 / m, max_value=0.5 / m))
    den = m * draw(st.sampled_from([2, 3])) ** draw(st.integers(0, 8))
    u = draw(st.one_of(st.sampled_from([0.0, 0.5, -0.5]),
                       st.integers(-(den // 2), den // 2).map(lambda j: j / den)))
    return m, a, u


@given(kernel_arguments())
@example(args=(9, -0.0026846982095470526, 6 / 6561))  # a quotient of sines by angle addition erred 1.02e-15
@settings(deadline=None, max_examples=600)
def test_table_kernel_as_accurate_as_closed_form(args):
    m, a, u = args
    got = eval_H_sq_tables(H_sq_tables(m, np.array([u])), [a])[0, 0]
    closed = closed_form_H_sq(m, np.array([a + u]))[0]
    want, unit = H_sq_mpmath(m, a, u)
    err, closed_err = (float(abs(mp.mpf(v) - want) / unit) for v in (got, closed))
    assert err <= closed_err + 4 * 2.0 ** -52, (m, a, u, err, closed_err)


@pytest.mark.parametrize("m", [9, 16, 1024])
def test_table_kernel_angles_on_tree_shaped_arguments(m):
    # on reduced label sums j / (m q^k) the kernel is within 5 ulp in the unit
    # of the kernel test, which weighs the error by the condition number
    rng = np.random.default_rng(m)
    worst_kernel = 0.0
    for q in (2, 3):
        den = m * q ** rng.integers(0, 9, size=100)
        us = rng.integers(-(den // 2), den // 2 + 1) / den
        tables = H_sq_tables(m, us)
        for a in rng.uniform(-0.5 / m, 0.5 / m, size=3):
            for u, got in zip(us, eval_H_sq_tables(tables, [a])[0]):
                want, unit = H_sq_mpmath(m, a, u)
                worst_kernel = max(worst_kernel, float(abs(mp.mpf(got) - want) / unit))
    assert worst_kernel <= 5 * 2.0 ** -52, worst_kernel / 2.0 ** -52


def test_cosine_form_angles_on_tree_shaped_arguments():
    # at m = 3 the tables hold the sine and cosine of 2 pi u within one ulp of
    # 1 (the angle is reduced by exact quarter turns first), and the kernel
    # is within 5 ulp in the unit of the kernel test
    m = 3
    rng = np.random.default_rng(m)
    worst_angle = worst_kernel = 0.0
    for q in (2, 3):
        den = m * q ** rng.integers(0, 9, size=100)
        us = np.concatenate([rng.integers(-(den // 2), den // 2 + 1) / den, [0.5, -0.5, 0.25, -0.125]])
        tables = H_sq_tables(m, us)
        with mp.workdps(40):
            for u, sin, cos in zip(us, tables.sin, tables.cos):
                angle = 2 * mp.pi * mp.mpf(u)
                err = max(abs(sin - mp.sin(angle)), abs(cos - mp.cos(angle)))
                worst_angle = max(worst_angle, float(err))
        for a in rng.uniform(-0.5 / m, 0.5 / m, size=3):
            for u, got in zip(us, eval_H_sq_tables(tables, [a])[0]):
                want, unit = H_sq_mpmath(m, a, u)
                worst_kernel = max(worst_kernel, float(abs(mp.mpf(got) - want) / unit))
    assert worst_angle <= 2.0 ** -52, worst_angle / 2.0 ** -52
    assert worst_kernel <= 5 * 2.0 ** -52, worst_kernel / 2.0 ** -52


def test_table_kernel_guard_band_and_integers():
    # a + u at an integer gives 1; within 1e-9 of one, the series of the closed form
    for m in (3, 9):
        t = H_sq_tables(m, np.array([0.25, -0.25, 0.5, 0.0]))
        a = -0.25 + 3e-10
        assert eval_H_sq_tables(t, [a])[0, 0] == closed_form_H_sq(m, np.array([a + 0.25]))[0]
        assert eval_H_sq_tables(t, [0.25])[0, 1] == 1.0
        assert eval_H_sq_tables(t, [1.0])[0, 3] == 1.0


@pytest.mark.parametrize("m", [3, 9, 32, 1024, 4096])
def test_guard_band_series_within_one_ulp_of_mpmath(m):
    # 1 - (m^2 - 1)(pi s)^2 / 3 for 0 < |s| < 1e-9: the remainder is below
    # 1.3e-21, so the value is within rounding of the exact |H_m(s)|^2
    rng = np.random.default_rng(m)
    s = np.concatenate([rng.uniform(-1e-9, 1e-9, size=60), 10.0 ** rng.uniform(-300, -9, size=20),
                        [math.nextafter(1e-9, 0.0), -math.nextafter(1e-9, 0.0), 1e-299]])
    got = _H_sq_direct(m, s)
    with mp.workdps(50):
        for x, v in zip(s, got):
            x = mp.mpf(x)
            want = (mp.sin(mp.pi * m * x) / (m * mp.sin(mp.pi * x))) ** 2
            assert abs(mp.mpf(v) - want) <= math.ulp(float(want)), (m, x, v)


def test_eval_H_array_guard_band_within_2_pow_52_of_mpmath():
    # e^{-pi i (m - 1) s} (1 - (m^2 - 1)(pi s)^2 / 6) for 0 < |s| < 1e-9: the series'
    # remainder is below 2.3e-22, so the error is the rounding of the phase and the
    # product
    rng = np.random.default_rng(0)
    for m in (64, 1024, 4096):
        s = rng.uniform(-1e-9, 1e-9, size=200)
        got = eval_H_array(m, s)
        with mp.workdps(40):
            for x, v in zip(s.tolist(), got.tolist()):
                x = mp.mpf(x)
                want = mp.expjpi(-(m - 1) * x) * mp.sin(mp.pi * m * x) / (m * mp.sin(mp.pi * x))
                assert abs(mp.mpc(v) - want) <= 2.0 ** -52, (m, x, v)


def test_mu_hat_array_memory_does_not_grow_with_the_digits():
    # levels 3 and 4 of (8192, 4096) put every argument in the guard band of H_4096,
    # where no (entries x m) array may be formed: at 2,000 entries one takes 125 MiB
    xs = np.linspace(0.5, 200.0, 2000)
    tracemalloc.start()
    try:
        mu_hat_array(constant_pair(8192, 4096), xs, 1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("m", [1, 3, 9, 16, 32, 1024])
def test_direct_kernel_entries_do_not_depend_on_the_call(m):
    # the guard band, the integers and the closed form, each entry alone
    rng = np.random.default_rng(m)
    xs = np.concatenate([k + rng.uniform(-1e-9, 1e-9, size=40) for k in (0, 2)]
                        + [rng.uniform(-3, 3, size=40), [0.0, 1.0, 1e-300, 0.5]])
    batch = _H_sq_direct(m, xs)
    for i in range(len(xs)):
        assert batch[i] == _H_sq_direct(m, xs[i:i + 1])[0], (m, xs[i])


@pytest.mark.parametrize("m", [1, 3, 9, 32, 1024])
def test_eval_H_array_entries_do_not_depend_on_the_call(m):
    # the series of the guard band is formed per entry
    rng = np.random.default_rng(m)
    xs = np.concatenate([k + rng.uniform(-1e-9, 1e-9, size=40) for k in (0, 2)]
                        + [rng.uniform(-3, 3, size=40), [0.0, 1.0, 1e-300, 0.5]])
    batch = eval_H_array(m, xs)
    for i in range(len(xs)):
        assert batch[i] == eval_H_array(m, xs[i:i + 1])[0], (m, xs[i])


def test_cosine_form_at_integers_and_in_the_guard_band():
    # on arguments where a + u nearly cancels, and on a + u at or within 1e-9
    # of an integer for a across the range xi / (3 rho_n) takes, the kernel is 1 at integers where
    # a = 0 or the quarter turns make every sine and cosine exact, and within
    # 2 ulp of mpmath in the band, each entry as in a call of its own
    rng = np.random.default_rng(3)
    a = [0.0, 1e-6, 3e-3, 0.25, 1.0]
    us = np.array([0.2, 5e-10, -1e-6 + 1e-13, -0.005, 0.31, -0.4, 0.0, -0.25])
    rows = eval_H_sq_tables(H_sq_tables(3, us), a)
    assert rows[0, 6] == rows[3, 7] == rows[4, 6] == 1.0
    assert_cosine_form_accurate(a, us, rows)
    for r, x in enumerate(a):
        for c, u in enumerate(us):
            assert rows[r, c] == eval_H_sq_tables(H_sq_tables(3, [u]), [x])[0, 0], (r, c)
    a = rng.uniform(-1 / 6, 1 / 6, size=300)
    e = rng.uniform(-1e-9, 1e-9, size=300) * rng.choice([1.0, 1e-3, 1e-6], size=300)
    us = -a + np.where(np.arange(300) < 50, 0.0, e)  # the first 50 at an integer
    band = [eval_H_sq_tables(H_sq_tables(3, [u]), [x])[0] for x, u in zip(a, us)]
    for x, u, row in zip(a, us, band):
        assert_cosine_form_accurate([x], [u], [row])


def test_table_kernel_rows_equal_one_call_per_row():
    # one row per scalar a, each row bit for bit the call with that a alone
    rng = np.random.default_rng(5)
    for m in (1, 2, 3, 9, 1024):
        us = np.concatenate([rng.integers(-64, 64, 300) / (2 * m), rng.uniform(-0.5, 0.5, 100)])
        t = H_sq_tables(m, us)
        a = [0.0, 1e-12, -0.25 + 3e-10, 0.37, 0.5 / m, -0.3 / m, 2.25]
        rows = eval_H_sq_tables(t, a)
        assert rows.shape == (len(a), len(us))
        for x, row in zip(a, rows):
            assert np.array_equal(row, eval_H_sq_tables(t, [x])[0]), (m, x)


def test_table_kernel_array_argument_equals_list_and_rows():
    # a as a float array: the list call and the one-row calls, bit for bit,
    # for the cosine forms and the closed form, prime and composite m
    rng = np.random.default_rng(6)
    for m in (1, 2, 3, 5, 6):
        us = np.concatenate([rng.integers(-64, 64, 200) / (2 * m), rng.uniform(-0.5, 0.5, 50)])
        t = H_sq_tables(m, us)
        a = [0.0, -0.0, 1e-12, -0.25 + 3e-10, 0.37, 0.5 / m, -0.3 / m, 2.25, 1.5]
        rows = eval_H_sq_tables(t, np.array(a))
        assert np.array_equal(rows, eval_H_sq_tables(t, a)), m
        for x, row in zip(a, rows):
            assert np.array_equal(row, eval_H_sq_tables(t, [x])[0]), (m, x)


def log_H_sq_mpmath(m, s):
    """Oracle: log|H_m(s)|^2 from the closed form, s taken exactly, with 30
    digits beyond the ~s^2 cancellation in the quotient."""
    s = mp.mpf(s)
    with mp.workdps(30 + max(0, int(-2 * mp.log10(abs(s)))) if s else 30):
        return 2 * mp.log(abs(mp.sin(mp.pi * m * s)) / (m * abs(mp.sin(mp.pi * s))))


def assert_log_kernel_close(m, s):
    got = log_H_sq_array(m, np.array([s]))[0]
    want = log_H_sq_mpmath(m, s)
    assert abs(got - want) <= 1e-14 * abs(want), (m, s, got, want)


@pytest.mark.parametrize("m", [2, 3, 4, 8, 9, 16])
@pytest.mark.parametrize("s", [1e-12, 1e-6, 0.01, 0.1, 0.3, 0.49])
def test_log_H_sq_array_matches_mpmath(m, s):
    assert_log_kernel_close(m, s)
    assert_log_kernel_close(m, -s)


@given(st.sampled_from([2, 3, 4, 8, 9, 16]),
       st.floats(min_value=-0.5, max_value=0.5, allow_nan=False).filter(lambda s: s != 0))
@settings(deadline=None, max_examples=300)
def test_log_H_sq_array_matches_mpmath_random(m, s):
    # away from the zeros of sin(pi m s), where rounding m s alone moves the
    # logarithm by more than 1e-14 of itself, and from s so small that the
    # logarithm, about -3.3 (m^2 - 1) s^2, underflows the double range
    ms = m * s
    assume(abs(ms) <= SERIES_THETA or abs(ms - round(ms)) >= 0.05)
    assume(abs(s) >= 1e-150)
    assert_log_kernel_close(m, s)


def test_log_H_sq_array_is_zero_at_integers():
    assert np.all(log_H_sq_array(4, np.array([0.0, 1.0, -3.0])) == 0.0)


@pytest.mark.parametrize("ms, ts", [
    ([2] * 20, [8.0 ** -k for k in range(20)]),                    # (4, 2) past one level
    ([3] * 12, [27.0 ** -k for k in range(12)]),                   # (9, 3)
    ([4, 8, 16], [1.0, 1 / 16, 1 / 16 / 64]),                      # growing digit counts
])
def test_log_H_sq_series_sums_the_levels(ms, ts):
    for y in (1e-9, 0.01, 0.2, SERIES_THETA):
        got = log_H_sq_series(ms, ts, np.array([y, -y]))
        with mp.workdps(30):
            want = sum(log_H_sq_mpmath(m, mp.mpf(t) * y / m) for m, t in zip(ms, ts))
        assert np.all(np.abs(got - float(want)) <= 1e-14 * abs(want)), (y, got, want)


def test_zeta_literals_match_mpmath():
    # correctly rounded: within half an ulp
    with mp.workdps(40):
        for j, value in enumerate(ZETA_OVER_J, start=1):
            assert abs(mp.mpf(value) - mp.zeta(2 * j) / j) <= math.ulp(value) / 2, j


def root_mpmath(ms, ts, y):
    """Oracle: prod_k R_{m_k}(t_k y / m_k), R_m(s) = sin(pi m s) / (m sin(pi s)), with y and
    each t_k taken exactly, at 50 digits."""
    with mp.workdps(50):
        root = mp.mpf(1)
        for m, t in zip(ms, ts):
            s = mp.mpf(t) * mp.mpf(y) / m
            if s:
                root *= mp.sin(mp.pi * m * s) / (m * mp.sin(mp.pi * s))
        return root


ROOT_SERIES_CASES = [
    ([2] * 20, [8.0 ** -k for k in range(20)]),                    # (4, 2) past one level
    ([3] * 12, [27.0 ** -k for k in range(12)]),                   # (9, 3)
    ([4, 8, 16], [1.0, 1 / 16, 1 / 16 / 64]),                      # growing digit counts
    ([5] * 10, [25.0 ** -k for k in range(10)]),                   # (25, 5): an odd m >= 5
    ([2 ** 14, 2 ** 17], [1.0, 2.0 ** -17]),                       # alpha_one's d_5, d_6
    ([2 ** 20, 10 ** 400], [1.0, 2.0 ** -1100]),                   # past the double range
]


@pytest.mark.parametrize("ms, ts", ROOT_SERIES_CASES)
def test_root_series_matches_mpmath(ms, ts):
    # 1 - sqrt(T) from the coefficients, one Horner pass in y^2, within 1e-14 of itself
    coefficients, _ = root_series(ms, ts)
    for y in (1e-9, 0.01, 0.2, SERIES_THETA):
        got = eval_taylor([0.0, *-coefficients[1:]], np.array([y, -y]) ** 2)
        want = 1 - root_mpmath(ms, ts, y)
        assert np.all(np.abs(got - float(want)) <= 1e-14 * abs(want)), (y, got, want)


@pytest.mark.parametrize("ms, ts", ROOT_SERIES_CASES)
def test_root_series_truncation_below_2_pow_62(ms, ts):
    # the docstring's majorant bound on the dropped terms n > N is at most 2^-62 of low
    # theta^2 at |y| = theta, low theta^2 is at most 1 - sqrt(T(theta)), and the dropped
    # terms themselves, against the exact product, are within that bound
    coefficients, low = root_series(ms, ts)
    big_n = len(coefficients) - 1
    with mp.workdps(50):
        theta = mp.mpf(SERIES_THETA)
        h = theta * sum(mp.pi * (m - 1) * mp.mpf(t) / m for m, t in zip(ms, ts))
        bound = h ** (2 * big_n + 2) * mp.exp(h) / mp.factorial(2 * big_n + 2)
        assert bound <= mp.mpf(2) ** -62 * low * theta ** 2
        assert big_n <= 14
        for y in (theta, theta / 3, mp.mpf(0.01)):
            rest = 1 - root_mpmath(ms, ts, y)
            assert low * y ** 2 <= rest * (1 + mp.mpf(2) ** -50), y
            series = sum(mp.mpf(float(c)) * y ** (2 * n) for n, c in enumerate(coefficients))
            # the coefficients are rounded; the truncation alone is the bound
            assert abs(1 - series - rest) <= bound + 1e-15 * rest, y


@pytest.mark.parametrize("degree", [0, 1, 2, 5])
def test_eval_log_series_taylor_is_one_horner_pass_per_entry(degree):
    # the one Horner pass, eval_taylor (the test keeps the name it had when the pass
    # evaluated the logarithm of the tail)
    # bit for bit the scalar Horner pass A_p, then acc eps + A_i, for a scalar
    # eps and for each row of a column of eps; degree 0 returns A_0 itself
    rng = np.random.default_rng(degree)
    table = rng.uniform(-1, 1, size=(degree + 1, 7))
    table[:, 0] = -0.0
    eps = [0.0, 0.013, -0.2]
    by_column = eval_taylor(table, np.array(eps)[:, None])
    assert by_column.shape == (3, 7)
    for x, row in zip(eps, by_column):
        for got in (row, eval_taylor(table, x)):
            for k, value in enumerate(got):
                want = table[-1, k]
                for coefficient in table[-2::-1, k]:
                    want = want * x + coefficient
                assert value == want and math.copysign(1, value) == math.copysign(1, want), (x, k)


def test_powers_are_repeated_products_bit_for_bit():
    # row k is row k - 1 times x, as in Python floats, for a scalar and entry by entry for
    # an array; np.power with an array exponent differs in about half of these 6,000
    # entries, by a CPU-dispatched kernel, and is exact only at powers of two
    rng = np.random.default_rng(36)
    xs = np.concatenate([rng.uniform(-3.0, 3.0, 290), 2.0 ** np.arange(-5, 5)])
    got = _powers(xs, 20)
    assert got.shape == (20, 300)
    for x, column in zip(xs.tolist(), got.T.tolist()):
        want = [1.0]
        for _ in range(19):
            want.append(want[-1] * x)
        assert column == want and _powers(x, 20).tolist() == want, x
    assert _powers(0.5, 60).tolist() == [2.0 ** -k for k in range(60)]
    assert _powers(xs.reshape(30, 10), 3).shape == (3, 30, 10) and _powers(0.3, 0).shape == (0,)


@st.composite
def series_tables(draw):
    # the series of a constant pair's levels k0.. (t_k = b^-k), entries y0 in
    # [-theta, theta] with perhaps a zero, and e below the least nonzero |y0|
    m, q = draw(st.sampled_from([2, 3, 4, 8])), draw(st.sampled_from([2, 3]))
    ts = [float(m * q) ** -k for k in range(draw(st.integers(1, 20)))]
    y0 = draw(st.lists(st.floats(-SERIES_THETA, SERIES_THETA), min_size=1, max_size=5))
    nonzero = [abs(y) for y in y0 if y]
    e = draw(st.floats(0.0, 0.9)) * min(nonzero) if nonzero else draw(st.floats(0.0, 0.1))
    return [m] * len(ts), ts, np.array(y0), e


@given(series_tables())
@example(([2, 2], [1.0, 0.25], np.array([0.1, -0.3]), 0.2))  # r = e / min |y0| >= 1: only B_2J = 0
@settings(deadline=None, max_examples=80)
def test_log_series_remainder_bounds_hold(args):
    # |F(y0 + eps) - sum_{i<=p} A_i eps^i| <= B_p |F(y0 + eps)| for every p, with
    # F = 1 - sqrt(T) = sum_j c_j y^(2j), c_j = -S_j of the root series, and its Taylor
    # coefficients A_i exact in mpmath; the tabulated A_0..A_p are these to rounding, and
    # B_p <= 2^-60 at their degree.  B_p is a float: below the double range it reads 0,
    # hence the 1e-300
    ms, ts, y0, e = args
    coefficients, low = root_series(ms, ts)
    c = -coefficients[1:]
    bounds = series_remainder_bounds(np.abs(c) / low, y0, e)
    table = root_series_taylor(coefficients, low, y0, e)
    degree = len(table) - 1
    assert bounds[degree] <= 2.0 ** -60 and (degree == 0 or bounds[degree - 1] > 2.0 ** -60)
    big = 2 * len(c)
    with mp.workdps(50):
        cs = [mp.mpf(float(v)) for v in c]
        for k, y in enumerate(y0):
            powers = [mp.mpf(y) ** n for n in range(big + 1)]
            taylor = [sum(cj * math.comb(2 * j, i) * powers[2 * j - i]
                           for j, cj in enumerate(cs, start=1) if 2 * j >= i) for i in range(big + 1)]
            for i in range(degree + 1):
                assert abs(table[i][k] - taylor[i]) <= 1e-14 * abs(taylor[i]) + 1e-300, (i, k)
            for eps in (mp.mpf(e), -mp.mpf(e), mp.mpf(e) / 3):
                value = abs(sum(cj * (powers[1] + eps) ** (2 * j) for j, cj in enumerate(cs, start=1)))
                remainder = mp.mpf(0)
                for p in range(big, -1, -1):  # remainder = sum_{i>p} A_i eps^i
                    if math.isfinite(bounds[p]):
                        assert abs(remainder) <= (bounds[p] * (1 + 1e-12) + 1e-300) * value, (p, eps)
                    remainder += taylor[p] * eps ** p


# ---------------------------------------------------------------------------
# QMF certification
# ---------------------------------------------------------------------------

def channel_grid_defect(g, d, points=1000):
    """Oracle: worst |sum_{l<d} |G(xi + l/d)|^2 - 1| on an equispaced grid of
    xi in [0, 1), the identity qmf_check decides algebraically."""
    xs = np.arange(points) / points
    channel = sum(np.abs(eval_filter(np.asarray(g, dtype=complex), xs + l / d)) ** 2
                  for l in range(d))
    return float(np.max(np.abs(channel - 1.0)))


def test_qmf_check_examples():
    ok = qmf_check((0.5, 0.5), 2)
    assert ok.passed and ok.max_defect == 0.0
    assert channel_grid_defect((0.5, 0.5), 2) < 1e-12
    assert not qmf_check((0.5, 0.5), 3).passed          # a_0 = 1/2 != 1/3
    shifted = qmf_check((0, 0, 0.5, 0.5), 2)            # modulation keeps |G|
    assert shifted.passed and shifted.max_defect < 1e-15


def test_qmf_check_of_overflowing_products_fails_without_a_warning():
    # products past the double range give a non-finite defect, which fails; numpy's
    # overflow warning was a traceback under -W error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = qmf_check([1e308, -1e308, 1], 2)
    assert not rep.passed and not math.isfinite(rep.max_defect)


def test_qmf_check_negative_control():
    bad = qmf_check((0.6, 0.4), 2)
    assert not bad.passed
    assert bad.max_defect == pytest.approx(0.02, abs=1e-12)  # |0.36+0.16 - 0.5|
    assert channel_grid_defect((0.6, 0.4), 2) > 1e-3


def test_qmf_uniform_all_d():
    for d in (2, 3, 4, 8, 16):
        rep = qmf_check([1 / d] * d, d)
        assert rep.passed and rep.max_defect < 1e-15


def test_qmf_algebraic_agrees_with_grid():
    rng = np.random.default_rng(4)
    for _ in range(20):
        g = rng.normal(size=4) + 1j * rng.normal(size=4)
        rep = qmf_check(g, 2)
        # both defects vanish together; a passing algebraic check forces a
        # near-perfect grid sum and vice versa
        assert (rep.max_defect < 1e-9) == (channel_grid_defect(g, 2) < 1e-6)


# ---------------------------------------------------------------------------
# product transform
# ---------------------------------------------------------------------------

def brute_force_transform(pair, xi, levels=60, explicit=()):
    """Independent oracle: the product of the literal level sums, the
    coefficients ``explicit[n-1]`` on the first levels and H_{d_n} after them."""
    acc = 1.0 + 0.0j
    rho_n = 1
    for n in range(1, levels + 1):
        d = pair.d(n)
        if (d * rho_n).bit_length() > 900:
            break
        x = xi / (d * rho_n)
        if n <= len(explicit):
            acc *= sum(g * cmath.exp(-2j * math.pi * j * x) for j, g in enumerate(explicit[n - 1]))
        else:
            acc *= kernel_by_summation(d, x)
        rho_n *= pair.b(n)
    return acc


def test_mu_hat_examples():
    pair = constant_pair(4, 2)
    at_zero = mu_hat(pair, 0.0, 1e-12)
    assert at_zero.value == 1 and at_zero.radius == 0.0
    assert abs(mu_hat(pair, 1.0, 1e-12).value) < 1e-15      # first factor vanishes
    got = mu_hat(pair, 0.3, 1e-10)
    assert abs(got.value - brute_force_transform(pair, 0.3)) < 1e-10
    assert got.radius <= 1e-10


def test_mu_hat_radius_sound():
    rng = np.random.default_rng(5)
    pairs = [constant_pair(4, 2), constant_pair(9, 3), dimension_targeting_pair(0.5)]
    for k in range(100):
        pair = pairs[k % len(pairs)]
        xi = float(rng.uniform(-200, 200))
        base = mu_hat(pair, xi, 1e-8)
        deeper = mu_hat(pair, xi, 1e-14)  # a smaller tol reaches a deeper product
        assert deeper.levels > base.levels
        assert abs(base.value - deeper.value) <= base.radius + 1e-16


def test_mu_hat_rejects_unreachable_frequencies():
    # a non-finite xi or tol, or a scale target past the double range, used
    # to loop forever in the truncation search
    pair = constant_pair(4, 2)
    family = uniform_family(pair)
    for xi, tol in ((math.inf, 1e-10), (math.nan, 1e-10), (1e300, 1e-10),
                    (0.3, math.nan), (0.3, math.inf)):
        with pytest.raises(ValueError):
            mu_hat(pair, xi, tol)
        with pytest.raises(ValueError):
            phi_hat(family, xi, tol)
    assert mu_hat(pair, 1e290, 1e-10).levels > 400


def test_mu_hat_array_matches_scalar():
    pair = constant_pair(4, 2)
    xs = np.array([0.0, 0.3, 1.0, 5.5, -17.25, 1000.125])
    vals, radii, _ = mu_hat_array(pair, xs, tol=1e-10)
    for x, v, r in zip(xs, vals, radii):
        single = mu_hat(pair, float(x), 1e-10)
        # the batch truncates at the depth of its largest argument, so the two
        # paths agree within the scalar evaluation's own certified radius
        assert abs(v - single.value) <= single.radius + 1e-13
        assert r >= abs(v - brute_force_transform(pair, float(x)))
    # the scalar path is the batch at one argument, bit for bit
    for p in (pair, constant_pair(9, 3), dimension_targeting_pair(0.25)):
        for x in xs:
            single = mu_hat(p, float(x), 1e-10)
            values, radii, levels = mu_hat_array(p, [x], tol=1e-10)
            assert np.array([single.value]).tobytes() == values.tobytes()
            assert np.array([single.radius]).tobytes() == radii.tobytes()
            assert single.levels == levels


def test_exact_zero_agrees_with_numeric():
    # the transform vanishes at an integer nu != 0 exactly when {0, nu} is orthogonal
    pair = constant_pair(4, 2)
    nus = np.arange(-10**4, 10**4 + 1)
    vals, _, _ = mu_hat_array(pair, nus.astype(float), tol=1e-14)
    numeric_zero = np.abs(vals) < 1e-10
    assert not numeric_zero[nus == 0]
    for nu, nz in zip(nus[nus != 0], numeric_zero[nus != 0]):
        assert orthogonality_check([0, int(nu)], pair).passed == bool(nz)


# ---------------------------------------------------------------------------
# filter families
# ---------------------------------------------------------------------------

# the demo pairs but alpha_one, whose uniform levels have d_n = 2^(3n-1) taps,
# more than the window infimum of the certification can tabulate
DEMO_PAIRS = ("alpha_zero", "alpha_quarter", "alpha_half", "alpha_one", "mu42", "mu82",
              "mu93", "mu25_5", "mu30_6")
CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def test_uniform_family_matches_measure_transform():
    cert = uniform_family(constant_pair(4, 2)).certify(25)
    assert cert.ok and cert.d0 == 1.0 and cert.d1 > 0.4
    # one product and one tail bound: phi_hat of the uniform family is mu_hat, bit for bit
    xis = [0.0, 0.3, -2.7, 41.5, -1000.125]
    for name in DEMO_PAIRS:
        pair = pair_from_config(json.loads((CONFIGS / f"{name}.json").read_text()))
        fam = uniform_family(pair)
        for xi in xis:
            a = phi_hat(fam, xi, 1e-10)
            b = mu_hat(pair, xi, 1e-10)
            assert np.array([a.value, a.radius]).tobytes() == np.array([b.value, b.radius]).tobytes()
            assert a.levels == b.levels, (name, xi)


def test_uniform_levels_are_certified_by_construction():
    # |H_d(x)| >= sinc(d x) >= sinc(2/3) = 3 sqrt(3) / (4 pi) on the window |d x| <= 2/3
    assert _UNIFORM_WINDOW_BOUND <= 3 * math.sqrt(3) / (4 * math.pi)
    for d in (2, 3, 5, 16, 1024):
        xs = np.linspace(-2 / (3 * d), 1 / (2 * d), 4097)
        assert np.min(np.abs(eval_H_array(d, xs))) >= _UNIFORM_WINDOW_BOUND
    # alpha_one to level 8, d_8 = 2^23: no grid, QMF defect 0.0 and the constant bound
    cert = uniform_family(dimension_targeting_pair(1)).certify(8)
    assert cert.ok and cert.qmf_defects == (0.0,) * 8 and cert.d1 == _UNIFORM_WINDOW_BOUND


def test_modulated_family():
    pair = constant_pair(4, 2)
    # G_n(x) = H_2(x) e^{-4 pi i x}: two zero taps then the averaging taps
    fam = FilterFamily(pair=pair, explicit=((0j, 0j, 0.5 + 0j, 0.5 + 0j),))
    assert fam.d0 == pytest.approx(1.5)
    cert = fam.certify(8)
    assert cert.ok
    assert phi_hat(fam, 0.0, 1e-10).value == pytest.approx(1.0)
    # the product runs past every explicit level, so that it discards only uniform
    # ones and mu_hat's radius bounds its tail; four levels of averaging taps
    # shifted by two and by one
    taps = ((0, 0, 0.5, 0.5), (0, 0.5, 0.5), (0, 0, 0.5, 0.5), (0, 0.5, 0.5))
    deep = FilterFamily(pair=pair, explicit=taps)
    for xi in (0.0, 0.01, 0.3, -5.5, 17.25, 1000.125):
        for tol in (1e-6, 1e-10):
            got = phi_hat(deep, xi, tol)
            assert got.levels >= len(taps) and got.radius <= tol
            assert abs(got.value - brute_force_transform(pair, xi, explicit=taps)) <= got.radius + 1e-15


def test_a_qmf_family_certifies_whatever_its_degree_ratio_rounds_to():
    # taps 1/7 at 0-4, 6 and 61: no two positions 7k apart, so the QMF defect is 0;
    # d0 = 61/7 and d0 * d_1 round to 60.99999999999999 < 61, the family's own degree
    taps = [0j] * 62
    for j in (0, 1, 2, 3, 4, 6, 61):
        taps[j] = 1 / 7
    fam = FilterFamily(explicit_pair([14], [7]), (tuple(taps),))
    cert = fam.certify(1)
    assert cert.ok and cert.messages == ()
    assert cert.qmf_defects == (0.0,) and cert.d0 == 61 / 7 and cert.d1 > 0.25


def test_any_certified_family_is_one_at_zero():
    pair = constant_pair(9, 3)
    fam = uniform_family(pair)
    assert phi_hat(fam, 0.0, 1e-12).value == pytest.approx(1.0, abs=1e-14)


def test_uncertified_family_rejected():
    pair = constant_pair(4, 2)
    bad = FilterFamily(pair=pair, explicit=((0.6 + 0j, 0.4 + 0j),))
    with pytest.raises(FilterCertificationError):
        phi_hat(bad, 0.3, 1e-10)


def test_a_filter_off_its_normalization_is_rejected():
    # -H_2, the negative control filters_negated42.json: its QMF defect 0 and window
    # bound pass, so the normalization G_1(0) = -1 alone fails its certificate
    family = filter_family_from_config(constant_pair(4, 2),
                                       json.loads((CONFIGS / "filters_negated42.json").read_text()))
    message = "level 1: G_n(0) = sum of coefficients is off by 2.000e+00"
    assert family.certify(2).messages == (message,)
    with pytest.raises(FilterCertificationError, match=re.escape(message)):
        phi_hat(family, 0.3, 1e-10)


def test_filter_family_json_round_trip():
    pair = constant_pair(4, 2)
    cfg = {"levels": [[[0.0, 0.0], [0.0, 0.0], [0.5, 0.0], [0.5, 0.0]]]}
    fam = filter_family_from_config(pair, cfg)
    assert fam.explicit == ((0j, 0j, 0.5 + 0j, 0.5 + 0j),)
    assert fam.is_uniform(2)                                # uniform beyond the list
    cert = fam.certify(6)
    doc = dataclasses.asdict(cert)
    assert doc["ok"] is True
    assert doc["d0"] == pytest.approx(1.5)
    assert all(d <= 1e-12 for d in doc["qmf_defects"])
    json.dumps(doc)                                         # JSON-serializable


@pytest.mark.parametrize("coefficient", ["0.5", True, None, math.inf])
def test_filter_config_coefficients_must_be_finite_numbers(coefficient):
    # float() read "0.5" and true as coefficients
    cfg = {"levels": [[[0.0, 0.0], [0.0, 0.0], [coefficient, 0.0], [0.5, 0.0]]]}
    with pytest.raises(ValueError, match=r"^levels\[0\]\[2\] re must be a finite number"):
        filter_family_from_config(constant_pair(4, 2), cfg)


def test_eval_filter_entries_keep_their_own_bits():
    # every entry of one call has the bits of its own one-point call, whatever the shape
    # of the call; a one-point call summed its (coefficients x 1) terms in another order
    rng = np.random.default_rng(11)
    for m in (1, 2, 5, 9, 64):
        g = rng.normal(size=m) + 1j * rng.normal(size=m)
        g[1::3] = 0.0
        xs = rng.uniform(-1.0, 1.0, 256)
        xs[:4] = 0.0, -0.0, 0.5, -0.5
        whole = eval_filter(g, xs)
        square = eval_filter(g, xs.reshape(16, 16))
        assert square.shape == (16, 16) and square.tobytes() == whole.tobytes(), m
        for x, value in zip(xs, whole):
            assert eval_filter(g, [x]).tobytes() == np.array([value]).tobytes(), (m, x)


def test_eval_filter_of_no_coefficients_is_zero():
    xs = np.array([[0.0, -0.0, 0.25]])
    got = eval_filter(np.zeros(0, dtype=complex), xs)
    assert got.shape == xs.shape and got.dtype == complex and not np.any(got)


def test_window_infimum_memory_stays_bounded(monkeypatch):
    # a level with a zero in its window refines to the last grid; a (64 x 262,144)
    # complex array of one eval_filter call peaked at 514 MiB there.  The budget
    # admits that last grid
    monkeypatch.setattr(fourier, "_WINDOW_REFINEMENTS", 4)
    g = np.zeros(64, dtype=complex)
    g[0], g[63] = 0.5, -0.5
    tracemalloc.start()
    try:
        value = fourier._window_infimum(g, 2, 1, budget=64 * 262_144)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == -0.00022021097267412232
    assert peak < 64 * 2**20


def test_certificate_report_carries_defects():
    pair = constant_pair(4, 2)
    bad = FilterFamily(pair=pair, explicit=((0.6 + 0j, 0.4 + 0j),))
    doc = dataclasses.asdict(bad.certify(3))
    assert doc["ok"] is False
    assert doc["qmf_defects"][0] == pytest.approx(0.02, abs=1e-12)
    assert any("QMF defect" in m for m in doc["messages"])


def test_phi_hat_rejects_bad_tol():
    fam = uniform_family(constant_pair(4, 2))
    with pytest.raises(ValueError):
        phi_hat(fam, 0.3, -1.0)
    with pytest.raises(ValueError):
        mu_hat(constant_pair(4, 2), 0.3, 0.0)
