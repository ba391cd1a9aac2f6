import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from cantorspec import (FilterCertificationError, FilterFamily,
                        certificate_report, constant_pair,
                        dimension_targeting_pair, eval_H, eval_H_array,
                        eval_H_sq_array, filter_family_from_config, mu_hat,
                        mu_hat_array,
                        mu_hat_exact_zero, phi_hat, qmf_check, uniform_family)
from cantorspec.fourier import (LOG_SERIES_THETA, _ZETA_OVER_J, H_sq_tables, _H_sq_direct,
                                eval_H_sq_tables, log_H_sq_array, log_H_sq_series,
                                eval_log_series_taylor, log_series_coefficients,
                                log_series_remainder_bounds, log_series_taylor)


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
    xs = np.array([-2.3, -1.0, 0.0, 1e-12, 0.25, 0.5, 0.999999999, 7.75])
    for m in (2, 3, 6):
        vec = eval_H_array(m, xs)
        for x, v in zip(xs, vec):
            assert v == pytest.approx(eval_H(m, x), abs=1e-14)


def test_eval_H_sq_array_matches_summation_oracle():
    # closed form, the cosine form at m = 2, and the series in the guard band
    rng = np.random.default_rng(4)
    xs = np.concatenate([rng.uniform(-3, 3, size=200), [-2.0, 0.0, 1.0, 0.5, -0.5],
                         [k + e for k in (0, 3) for e in (-2e-9, -1e-12, 1e-300, 5e-10)]])
    for m in (2, 3, 5, 8, 17, 64):
        got = eval_H_sq_array(m, xs)
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


@pytest.mark.parametrize("m", [2, 3, 4, 5, 9, 16, 17, 64, 1024])
def test_eval_H_sq_array_equals_closed_form_bit_for_bit(m):
    rng = np.random.default_rng(m)
    xs = np.concatenate([rng.uniform(-3, 3, size=2000), rng.integers(-64, 64, 200) / 128,
                         [-2.0, 0.0, 1.0, 0.5, -0.5, 5e-324, -5e-324],
                         [k + e for k in (0, 3) for e in (-2e-9, -1e-9, -1e-12, 1e-300, 5e-10, 1.1e-9)]])
    assert np.array_equal(eval_H_sq_array(m, xs), closed_form_H_sq(m, xs))


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
    m = draw(st.sampled_from([2, 3, 4, 9, 16, 1024]))
    a = draw(st.floats(min_value=-0.5 / m, max_value=0.5 / m))
    den = m * draw(st.sampled_from([2, 3])) ** draw(st.integers(0, 8))
    u = draw(st.one_of(st.sampled_from([0.0, 0.5, -0.5]),
                       st.integers(-(den // 2), den // 2).map(lambda j: j / den)))
    return m, a, u


@given(kernel_arguments())
@settings(deadline=None, max_examples=600)
def test_table_kernel_as_accurate_as_closed_form(args):
    m, a, u = args
    got = eval_H_sq_tables(H_sq_tables(m, np.array([u])), [a])[0, 0]
    closed = closed_form_H_sq(m, np.array([a + u]))[0]
    want, unit = H_sq_mpmath(m, a, u)
    err, closed_err = (float(abs(mp.mpf(v) - want) / unit) for v in (got, closed))
    assert err <= closed_err + 4 * 2.0 ** -52, (m, a, u, err, closed_err)


@pytest.mark.parametrize("m", [3, 9, 16, 1024])
def test_table_kernel_angles_on_tree_shaped_arguments(m):
    # the m-tables hold the sine and cosine of pi m u up to one common sign,
    # from m u reduced mod 1 (exactly for a power-of-two m), not of the rounded
    # product fl(pi m) u, whose absolute error grows like m ulp; and the kernel
    # is within 5 ulp in the unit of the kernel test (which weighs the error by
    # the condition number, so there the rounded product looked as good)
    rng = np.random.default_rng(m)
    worst_angle = worst_kernel = 0.0
    for q in (2, 3):
        den = m * q ** rng.integers(0, 9, size=100)
        us = rng.integers(-(den // 2), den // 2 + 1) / den
        tables = H_sq_tables(m, us)
        with mp.workdps(40):
            for u, sin_m, cos_m in zip(us, tables.sin_m, tables.cos_m):
                angle = mp.pi * m * mp.mpf(u)
                err = min(max(abs(sign * sin_m - mp.sin(angle)), abs(sign * cos_m - mp.cos(angle)))
                          for sign in (1, -1))
                exact = m & (m - 1) == 0  # m u and its reduction are exact
                worst_angle = max(worst_angle, float(err) / (1 if exact else 1 + math.pi * abs(m * u)))
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


@pytest.mark.parametrize("m", [3, 9, 16, 32, 1024])
def test_direct_kernel_entries_do_not_depend_on_the_call(m):
    # the guard band, the integers and the closed form, each entry alone
    rng = np.random.default_rng(m)
    xs = np.concatenate([k + rng.uniform(-1e-9, 1e-9, size=40) for k in (0, 2)]
                        + [rng.uniform(-3, 3, size=40), [0.0, 1.0, 1e-300, 0.5]])
    batch = _H_sq_direct(m, xs)
    for i in range(len(xs)):
        assert batch[i] == _H_sq_direct(m, xs[i:i + 1])[0], (m, xs[i])


@pytest.mark.parametrize("m", [3, 9, 32, 1024])
def test_eval_H_array_entries_do_not_depend_on_the_call(m):
    # the literal m-term sum of the guard band is summed per entry
    rng = np.random.default_rng(m)
    xs = np.concatenate([k + rng.uniform(-1e-9, 1e-9, size=40) for k in (0, 2)]
                        + [rng.uniform(-3, 3, size=40), [0.0, 1.0, 1e-300, 0.5]])
    batch = eval_H_array(m, xs)
    for i in range(len(xs)):
        assert batch[i] == eval_H_array(m, xs[i:i + 1])[0], (m, xs[i])


@pytest.mark.parametrize("m", [3, 9, 1024])
def test_table_kernel_recomputes_the_entries_where_they_sit(m):
    # row 0 (a = 0) recomputes only in the integer guard band, row 1 within
    # about 4e-6 of -a and row 2 within about 0.012 of -a, so the recomputed
    # entries are (0, 1), (1, 1), (1, 2), (2, 1), (2, 2) and (2, 3) of a 3 x 6 call
    a = [0.0, 1e-6, 3e-3]
    us = np.array([0.2, 5e-10, -1e-6 + 1e-13, -0.005, 0.31, -0.4])
    rows = eval_H_sq_tables(H_sq_tables(m, us), a)
    for r, c in [(0, 1), (1, 1), (1, 2), (2, 1), (2, 2), (2, 3)]:
        assert rows[r, c] == _H_sq_direct(m, np.array([a[r] + us[c]]))[0], (m, r, c)
    for r, x in enumerate(a):
        for c, u in enumerate(us):
            assert rows[r, c] == eval_H_sq_tables(H_sq_tables(m, [u]), [x])[0, 0], (m, r, c)


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
        part = eval_H_sq_tables(t[100:250], a)
        assert np.array_equal(part, rows[:, 100:250])


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
    assume(abs(ms) <= LOG_SERIES_THETA or abs(ms - round(ms)) >= 0.05)
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
    for y in (1e-9, 0.01, 0.2, LOG_SERIES_THETA):
        got = log_H_sq_series(ms, ts, np.array([y, -y]))
        with mp.workdps(30):
            want = sum(log_H_sq_mpmath(m, mp.mpf(t) * y / m) for m, t in zip(ms, ts))
        assert np.all(np.abs(got - float(want)) <= 1e-14 * abs(want)), (y, got, want)


def test_zeta_literals_match_mpmath():
    # correctly rounded: within half an ulp
    with mp.workdps(40):
        for j, value in enumerate(_ZETA_OVER_J, start=1):
            assert abs(mp.mpf(value) - mp.zeta(2 * j) / j) <= math.ulp(value) / 2, j


def test_series_remainder_below_2_pow_60():
    # the docstring's bound on the dropped terms j > J, relative to the sum
    with mp.workdps(40):
        big_j, theta = len(_ZETA_OVER_J), mp.mpf(LOG_SERIES_THETA)
        bound = (4 / (3 * mp.zeta(2)) * mp.zeta(2 * big_j + 2) / (big_j + 1)
                 * theta ** (2 * big_j) / (1 - theta ** 2))
        assert bound <= mp.mpf(2) ** -60
        # and the remainder itself, at |m s| = theta, with the exact coefficients
        for m in (2, 3, 16, 2 ** 20):
            s = theta / m
            exact = log_H_sq_mpmath(m, s)
            series = -2 * sum(mp.zeta(2 * j) / j * ((m * s) ** (2 * j) - s ** (2 * j))
                              for j in range(1, big_j + 1))
            assert abs(series - exact) <= bound * abs(exact), m


@pytest.mark.parametrize("degree", [0, 1, 2, 5])
def test_eval_log_series_taylor_is_one_horner_pass_per_entry(degree):
    # bit for bit the scalar Horner pass A_p, then acc eps + A_i, for a scalar
    # eps and for each row of a column of eps; degree 0 returns A_0 itself
    rng = np.random.default_rng(degree)
    table = rng.uniform(-1, 1, size=(degree + 1, 7))
    table[:, 0] = -0.0
    eps = [0.0, 0.013, -0.2]
    by_column = eval_log_series_taylor(table, np.array(eps)[:, None])
    assert by_column.shape == (3, 7)
    for x, row in zip(eps, by_column):
        for got in (row, eval_log_series_taylor(table, x)):
            for k, value in enumerate(got):
                want = table[-1, k]
                for coefficient in table[-2::-1, k]:
                    want = want * x + coefficient
                assert value == want and math.copysign(1, value) == math.copysign(1, want), (x, k)


@st.composite
def series_tables(draw):
    # the series of a constant pair's levels k0.. (t_k = b^-k), entries y0 in
    # [-theta, theta] with perhaps a zero, and e below the least nonzero |y0|
    m, q = draw(st.sampled_from([2, 3, 4, 8])), draw(st.sampled_from([2, 3]))
    ts = [float(m * q) ** -k for k in range(draw(st.integers(1, 20)))]
    y0 = draw(st.lists(st.floats(-LOG_SERIES_THETA, LOG_SERIES_THETA), min_size=1, max_size=5))
    nonzero = [abs(y) for y in y0 if y]
    e = draw(st.floats(0.0, 0.9)) * min(nonzero) if nonzero else draw(st.floats(0.0, 0.1))
    return [m] * len(ts), ts, np.array(y0), e


@given(series_tables())
@settings(deadline=None, max_examples=80)
def test_log_series_remainder_bounds_hold(args):
    # |F(y0 + eps) - sum_{i<=p} A_i eps^i| <= B_p |F(y0 + eps)| for every p, with
    # F = -sum_j c_j y^(2j) and its Taylor coefficients A_i exact in mpmath; the
    # tabulated A_0..A_p are these to rounding, and B_p <= 2^-60 at their degree.
    # B_p is a float: below the double range it reads 0, hence the 1e-300
    ms, ts, y0, e = args
    c = log_series_coefficients(ms, ts)
    bounds = log_series_remainder_bounds(c, y0, e)
    table = log_series_taylor(ms, ts, y0, e)
    degree = len(table) - 1
    assert bounds[degree] <= 2.0 ** -60 and (degree == 0 or bounds[degree - 1] > 2.0 ** -60)
    big = 2 * len(c)
    with mp.workdps(50):
        cs = [mp.mpf(float(v)) for v in c]
        for k, y in enumerate(y0):
            powers = [mp.mpf(y) ** n for n in range(big + 1)]
            taylor = [-sum(cj * math.comb(2 * j, i) * powers[2 * j - i]
                           for j, cj in enumerate(cs, start=1) if 2 * j >= i) for i in range(big + 1)]
            for i in range(degree + 1):
                assert abs(table[i][k] - taylor[i]) <= 1e-14 * abs(taylor[i]) + 1e-300, (i, k)
            for eps in (mp.mpf(e), -mp.mpf(e), mp.mpf(e) / 3):
                value = sum(cj * (powers[1] + eps) ** (2 * j) for j, cj in enumerate(cs, start=1))
                remainder = mp.mpf(0)
                for p in range(big, -1, -1):  # remainder = sum_{i>p} A_i eps^i
                    if math.isfinite(bounds[p]):
                        assert abs(remainder) <= (bounds[p] * (1 + 1e-12) + 1e-300) * value, (p, eps)
                    remainder += taylor[p] * eps ** p


# ---------------------------------------------------------------------------
# QMF certification
# ---------------------------------------------------------------------------

def test_qmf_check_examples():
    ok = qmf_check((0.5, 0.5), 2)
    assert ok.passed and ok.max_defect == 0.0
    assert ok.grid_defect < 1e-12
    assert not qmf_check((0.5, 0.5), 3).passed          # a_0 = 1/2 != 1/3
    shifted = qmf_check((0, 0, 0.5, 0.5), 2)            # modulation keeps |G|
    assert shifted.passed and shifted.max_defect < 1e-15


def test_qmf_check_negative_control():
    bad = qmf_check((0.6, 0.4), 2)
    assert not bad.passed
    assert bad.max_defect == pytest.approx(0.02, abs=1e-12)  # |0.36+0.16 - 0.5|
    assert bad.grid_defect > 1e-3


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
        assert (rep.max_defect < 1e-9) == (rep.grid_defect < 1e-6)


# ---------------------------------------------------------------------------
# product transform
# ---------------------------------------------------------------------------

def brute_force_transform(pair, xi, levels=60):
    acc = 1.0 + 0.0j
    rho_n = 1
    for n in range(1, levels + 1):
        d = pair.d(n)
        if (d * rho_n).bit_length() > 900:
            break
        acc *= kernel_by_summation(d, xi / (d * rho_n))
        rho_n *= pair.b(n)
    return acc


def test_mu_hat_examples():
    pair = constant_pair(4, 2)
    at_zero = mu_hat(pair, 0.0, 1e-12)
    assert at_zero.value == 1 and at_zero.radius == 0.0
    assert mu_hat(pair, 1.0, 1e-12).modulus < 1e-15      # first factor vanishes
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
        deeper = mu_hat(pair, xi, 1e-8, levels=base.levels + 10)
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


def test_exact_zero_examples():
    pair = constant_pair(4, 2)
    assert mu_hat_exact_zero(pair, 1) == mu_hat_exact_zero(pair, 1)
    w = mu_hat_exact_zero(pair, 1)
    assert w.is_zero and w.level == 1
    # 8 = 2*4: level 1 divides 8/2, level 2 divides 8/8, level 3 has rho=16>8
    assert not mu_hat_exact_zero(pair, 8).is_zero
    assert not mu_hat_exact_zero(pair, 0).is_zero


def test_exact_zero_agrees_with_numeric():
    pair = constant_pair(4, 2)
    nus = np.arange(-10**4, 10**4 + 1)
    vals, _, _ = mu_hat_array(pair, nus.astype(float), tol=1e-14)
    numeric_zero = np.abs(vals) < 1e-10
    for nu, nz in zip(nus, numeric_zero):
        assert mu_hat_exact_zero(pair, int(nu)).is_zero == bool(nz)


def test_exact_zero_negative_symmetric():
    pair = constant_pair(9, 3)
    for nu in range(1, 2000):
        assert mu_hat_exact_zero(pair, nu).is_zero == mu_hat_exact_zero(pair, -nu).is_zero


# ---------------------------------------------------------------------------
# filter families
# ---------------------------------------------------------------------------

def test_uniform_family_matches_measure_transform():
    pair = constant_pair(4, 2)
    fam = uniform_family(pair)
    cert = fam.certify(25)
    assert cert.ok and cert.d0 == 1.0 and cert.d1 > 0.4
    rng = np.random.default_rng(6)
    for xi in rng.uniform(-20, 20, size=20):
        a = phi_hat(fam, float(xi), 1e-10, certificate=cert)
        b = mu_hat(pair, float(xi), 1e-10)
        assert abs(a.value - b.value) <= a.radius + b.radius + 1e-13


def test_modulated_family():
    pair = constant_pair(4, 2)
    # G_n(x) = H_2(x) e^{-4 pi i x}: two zero taps then the averaging taps
    fam = FilterFamily(pair=pair, explicit=((0j, 0j, 0.5 + 0j, 0.5 + 0j),), label="modulated")
    assert fam.d0 == pytest.approx(1.5)
    cert = fam.certify(8)
    assert cert.ok
    assert phi_hat(fam, 0.0, 1e-10, certificate=cert).value == pytest.approx(1.0)


def test_any_certified_family_is_one_at_zero():
    pair = constant_pair(9, 3)
    fam = uniform_family(pair)
    assert phi_hat(fam, 0.0, 1e-12).value == pytest.approx(1.0, abs=1e-14)


def test_uncertified_family_rejected():
    pair = constant_pair(4, 2)
    bad = FilterFamily(pair=pair, explicit=((0.6 + 0j, 0.4 + 0j),), label="bad")
    with pytest.raises(FilterCertificationError):
        phi_hat(bad, 0.3, 1e-10)


def test_filter_family_json_round_trip():
    pair = constant_pair(4, 2)
    cfg = {"levels": [[[0.0, 0.0], [0.0, 0.0], [0.5, 0.0], [0.5, 0.0]]],
           "label": "modulated"}
    fam = filter_family_from_config(pair, cfg)
    assert fam.coefficients(1) == (0j, 0j, 0.5 + 0j, 0.5 + 0j)
    assert fam.coefficients(2) == (0.5 + 0j, 0.5 + 0j)     # uniform beyond the list
    cert = fam.certify(6)
    doc = certificate_report(cert)
    assert doc["ok"] is True
    assert doc["d0"] == pytest.approx(1.5)
    assert all(d <= 1e-12 for d in doc["qmf_defects"])
    import json
    json.dumps(doc)                                         # JSON-serializable


def test_certificate_report_carries_defects():
    pair = constant_pair(4, 2)
    bad = FilterFamily(pair=pair, explicit=((0.6 + 0j, 0.4 + 0j),))
    doc = certificate_report(bad.certify(3))
    assert doc["ok"] is False
    assert doc["qmf_defects"][0] == pytest.approx(0.02, abs=1e-12)
    assert any("QMF defect" in m for m in doc["messages"])


def test_phi_hat_rejects_bad_tol():
    fam = uniform_family(constant_pair(4, 2))
    with pytest.raises(ValueError):
        phi_hat(fam, 0.3, -1.0)
    with pytest.raises(ValueError):
        mu_hat(constant_pair(4, 2), 0.3, 0.0)
