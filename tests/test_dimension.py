import math
from fractions import Fraction

import pytest
from mpmath import mp

from cantorspec import (TreeMapping, beurling_upper_dim,
                        beurling_vs_hausdorff, box_counting_dim,
                        build_intervals, canonical_tau, constant_pair,
                        dimension_targeting_pair, enumerate_level, explicit_pair, gap_ratios,
                        hausdorff_dim_formula, rescale_constant, rho)
from cantorspec.dimension import _least_squares, _log_quotient, _tail_numerators

MU42 = constant_pair(4, 2)
MU82 = constant_pair(8, 2)
MU93 = constant_pair(9, 3)


def geometric_ratio_oracle(b: int, d: int) -> Fraction:
    """Closed form for constant pairs: the tails are geometric series with
    ratio 1/b, so every gap ratio is exactly 1/b."""
    # sum_{j>=n} (d-1)/(d b^{j-1}) = (d-1)/(d b^{n-1}) * b/(b-1); quotient 1/b
    return Fraction(1, b)


@pytest.mark.parametrize("b,d", [(4, 2), (9, 3), (8, 2), (16, 4)])
def test_gap_ratios_constant_pairs(b, d):
    pair = constant_pair(b, d)
    oracle = geometric_ratio_oracle(b, d)
    for n, r in enumerate(gap_ratios(pair, 10), start=1):
        assert abs(r / oracle - 1) < Fraction(1, 10**15)
        assert r * d <= 1


def scale_list_tail_numerators(pair, n_max):
    """Oracle: the tail numerators from a list of the scales, each term
    rho_{M+1} // (d_j rho_j) a division of two big integers, M grown the same
    way until U_{n_max+1} >= 2 / 1e-15."""
    m = n_max + 4
    while True:
        rho = [1]  # rho_1 .. rho_{m+1}
        for j in range(1, m + 1):
            rho.append(rho[-1] * pair.b(j))
        u = [0] * (m + 2)
        for j in range(m, 0, -1):
            u[j] = u[j + 1] + (pair.d(j) - 1) * (rho[m] // (pair.d(j) * rho[j - 1]))
        if u[n_max + 1] >= math.ceil(2.0 / 1e-15):
            return u[1: n_max + 2], rho[m], m
        m += 8


@pytest.mark.parametrize("pair", [
    MU42, MU93, MU82, constant_pair(16, 4), constant_pair(30, 6),
    dimension_targeting_pair(0), dimension_targeting_pair(0.25), dimension_targeting_pair(1),
    # inadmissible: d does not divide b, b / d below 2, d above b
    explicit_pair([6, 10], [4, 3]), explicit_pair([9, 5, 7], [3, 3, 2]),
    explicit_pair([3, 2], [5, 7])])
def test_tail_numerators_equal_the_scale_list_form(pair):
    # the running suffix product (b_j * tail) // d_j is the floor rho_{M+1} // (d_j rho_j)
    for n_max in (1, 2, 7, 20):
        assert _tail_numerators(pair, n_max) == scale_list_tail_numerators(pair, n_max)


@pytest.mark.parametrize("pair", [dimension_targeting_pair(0.5), dimension_targeting_pair(0.25),
                                  constant_pair(8, 2)])
def test_log_ratios_within_an_ulp_of_mpmath(pair):
    # ln(1/r_n) = ln(U_n / U_{n+1}) from the correctly rounded integer quotient;
    # the alpha pairs' numerators reach about 4,000 bits, where the difference
    # of the two logarithms would be off by up to 2,000 ulp
    u, _, _ = _tail_numerators(pair, 40)
    with mp.workdps(60):
        for x, y in zip(u, u[1:]):
            want = mp.log(mp.mpf(x)) - mp.log(mp.mpf(y))
            assert abs(_log_quotient(x, y) - want) <= math.ulp(float(want))


def test_log_quotient_past_the_float_range():
    # a quotient above the float range takes the difference of the logarithms
    x, y = 3 * 2**1100 + 12345, 7
    with mp.workdps(60):
        want = mp.log(mp.mpf(x)) - mp.log(mp.mpf(y))
    assert abs(_log_quotient(x, y) - want) <= 4 * math.ulp(float(want))


def test_gap_ratio_times_b_tends_to_one():
    pair = dimension_targeting_pair(0.5)
    ratios = gap_ratios(pair, 12)
    assert abs(float(ratios[9] * pair.b(10)) - 1) < 0.01
    # and the convergence is monotone improving over the tested range
    errs = [abs(float(r * pair.b(n)) - 1) for n, r in enumerate(ratios, start=1)]
    assert errs[9] < errs[2]


def test_build_intervals_examples():
    family = build_intervals(MU42, 2)
    (w0, l0, r0), (w1, l1, r1) = family[1]
    assert w0 == (0,) and w1 == (1,)
    tolerance = Fraction(1, 10**14)
    assert l0 == 0 and abs(r0 - Fraction(1, 4)) < tolerance
    assert abs(l1 - Fraction(3, 4)) < tolerance and r1 == 1
    level2 = family[2]
    assert len(level2) == 4
    for _, lo, hi in level2:
        assert abs((hi - lo) - Fraction(1, 16)) < tolerance
    root = build_intervals(MU42, 0)
    assert root[0] == (((), Fraction(0), Fraction(1)),)


@pytest.mark.parametrize("pair,depth", [(MU42, 4), (MU93, 3),
                                        (dimension_targeting_pair(0.5), 3)])
def test_interval_family_invariants_exact(pair, depth):
    family, ratios = build_intervals(pair, depth), gap_ratios(pair, depth)
    for n in range(1, depth + 1):
        d = pair.d(n)
        r = ratios[n - 1]
        parents = family[n - 1]
        children = family[n]
        assert len(children) == len(parents) * d
        for p_idx, (pword, pleft, pright) in enumerate(parents):
            kids = children[p_idx * d:(p_idx + 1) * d]
            plen = pright - pleft
            gaps = []
            for k, (kword, kleft, kright) in enumerate(kids):
                assert kword == pword + (k,)
                assert kright - kleft == r * plen          # exact equal lengths
                assert pleft <= kleft and kright <= pright  # containment
                if k > 0:
                    gaps.append(kleft - kids[k - 1][2])
            assert kids[0][1] == pleft                      # left endpoint pinned
            assert kids[-1][2] == pright                    # right endpoint pinned
            assert len(set(gaps)) <= 1                      # equal gaps
            assert all(g >= 0 for g in gaps)                # disjoint children
        # lengths at depth n equal the exact ratio product
        expected = math.prod(ratios[:n], start=Fraction(1))
        assert all(right - left == expected for _, left, right in children)


def test_rescale_constant_values():
    # sum (d-1)/(d rho_n): for (4,2) it is (1/2)(4/3) = 2/3
    c = rescale_constant(MU42)
    assert abs(c - Fraction(2, 3)) < Fraction(1, 10**14)
    c93 = rescale_constant(MU93)
    assert abs(c93 - Fraction(2, 3) * Fraction(9, 8)) < Fraction(1, 10**14)


def test_hausdorff_formula_constant_pairs():
    for pair, expected in ((MU42, 0.5), (MU93, 0.5), (MU82, 1 / 3)):
        formula = hausdorff_dim_formula(pair, 40)
        for _, s in formula.partials:
            assert abs(s - expected) <= 1e-12
        assert abs(formula.liminf_proxy - expected) <= 1e-12


@pytest.mark.parametrize("alpha", [0, 0.25, 0.5, 1])
def test_hausdorff_formula_alpha_pairs(alpha):
    pair = dimension_targeting_pair(alpha)
    formula = hausdorff_dim_formula(pair, 40)
    s40 = dict(formula.partials)[40]
    assert abs(s40 - alpha) <= 0.02
    # independent envelope: log(1/r_n) = log b_n - log(r_n b_n) with
    # 1 <= r_n b_n <= d_n/(d_n - 1), so the denominator shortfall against the
    # raw exponent sum is at most sum 2/d_n
    num = sum(math.log(pair.d(j)) for j in range(1, 41))
    den = sum(math.log(pair.b(j)) for j in range(1, 41))
    envelope = sum(2.0 / min(pair.d(j), 2**60) for j in range(1, 41))
    assert num / den - 1e-12 <= s40 <= num / (den - envelope) + 1e-12


def test_box_counting_examples():
    assert box_counting_dim(MU42, 8).slope == pytest.approx(0.5, abs=0.02)
    assert box_counting_dim(MU93, 6).slope == pytest.approx(0.5, abs=0.02)
    assert box_counting_dim(MU82, 8).slope == pytest.approx(1 / 3, abs=0.02)
    fit = box_counting_dim(MU42, 10)
    assert fit.interval_count == 1024 and fit.residual < 1e-9
    with pytest.raises(ValueError):
        box_counting_dim(MU42, 1)


def family_box_fit(pair, depth):
    """Oracle: the box-count fit read off the constructed interval family, the
    length of a level-n interval and the number of them; log(1/length) is the
    log of the correctly rounded quotient of its denominator and numerator."""
    family = build_intervals(pair, depth)
    lengths = [right - left for _, left, right in
               (family[n][0] for n in range(1, depth + 1))]
    xs = [math.log(length.denominator / length.numerator) for length in lengths]
    ys = [math.log(len(family[n])) for n in range(1, depth + 1)]
    return _least_squares(xs, ys), len(family[depth])


@pytest.mark.parametrize("pair, depth", [
    (MU42, 10), (MU93, 6), (MU82, 8), (dimension_targeting_pair(0.5), 4),
    (dimension_targeting_pair(0.25), 4), (constant_pair(16, 4), 5), (MU42, 2)])
def test_box_counting_equals_the_interval_family_fit(pair, depth):
    (slope, residual), count = family_box_fit(pair, depth)
    fit = box_counting_dim(pair, depth)
    assert (fit.slope, fit.residual, fit.interval_count) == (slope, residual, count)


def window_count_oracle(elements, h):
    """Literal sup over centers of the window count."""
    return max(sum(1 for y in elements if x - h <= y <= x + h) for x in elements)


def test_beurling_counts_match_oracle():
    elements = list(enumerate_level(canonical_tau(MU42), 5).elements)
    est = beurling_upper_dim(elements, window_grid=[2, 8, 32, 128])
    for h, count in est.counts:
        assert count == window_count_oracle(elements, h)


def test_beurling_examples():
    lev8 = enumerate_level(canonical_tau(MU42), 8)
    grid = [rho(MU42, j) / 2 for j in range(2, 9)]
    est = beurling_upper_dim(lev8, window_grid=grid)
    assert est.slope == pytest.approx(0.5, abs=0.02)
    # window counts are exactly the level cardinalities on this grid
    assert [c for _, c in est.counts] == [2**j for j in range(1, 8)]

    progression = beurling_upper_dim(list(range(256)), window_grid=[4, 8, 16, 32, 64])
    assert progression.slope == pytest.approx(1.0, abs=0.1)

    with pytest.raises(ValueError, match="at least 2"):
        beurling_upper_dim([0], window_grid=[1.0])


def test_beurling_vs_hausdorff():
    assert beurling_vs_hausdorff(canonical_tau(MU42), 8).passed
    rep82 = beurling_vs_hausdorff(canonical_tau(MU82), 8)
    assert rep82.passed
    assert rep82.beurling == pytest.approx(1 / 3, abs=0.02)
    deviated = TreeMapping(MU42, {(1,): -1, (1, 1): -1})
    assert beurling_vs_hausdorff(deviated, 6).passed


def test_beurling_vs_hausdorff_needs_two_windows():
    # levels 1 and 2 give the windows () and (rho_2 / 2,): no slope, so no verdict
    for level in (1, 2):
        with pytest.raises(ValueError, match="at least 2"):
            beurling_vs_hausdorff(canonical_tau(MU42), level)
    assert beurling_vs_hausdorff(canonical_tau(MU42), 3).beurling == pytest.approx(0.5)


def test_degenerate_window_grid_rejected():
    with pytest.raises(ValueError):
        beurling_upper_dim([0, 1, 2], window_grid=[-1.0, 2.0])
    with pytest.raises(ValueError, match="empty"):
        beurling_upper_dim([], window_grid=[1.0, 2.0])
    # one window, however often repeated, leaves no slope to fit
    for grid in ([2.0], [2.0, 2, 2.0]):
        with pytest.raises(ValueError, match="at least 2"):
            beurling_upper_dim([0, 1, 2], window_grid=grid)
