"""Interval model of the Cantor set, gap ratios, and dimension estimators.

The set attached to (B, D) rescales to a nested family of closed intervals
in [0, 1]: each parent splits into d_{n+1} children of equal length
r_{n+1} |parent| separated by equal gaps, first child left-aligned, last
right-aligned.  The ratios r_n are quotients of the tails
sum_{j>=n} (d_j - 1)/(d_j rho_j), computed here as exact rationals from
certified truncations.  The Hausdorff dimension is the liminf of
sum ln d_j / sum ln(1/r_j), the formula of homogeneous Moran sets; a
box-count fit of the level counts against the level lengths, to the same
depth, checks how steadily those partial ratios settle, and a windowed-count
fit estimates the upper Beurling dimension of a frequency set.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import ScalePair, _Scales, _to_float
from .spectra import TreeMapping, _elements_of, check_word_budget, enumerate_level

_REL_TOL = 1e-15        # relative accuracy of every truncated tail
_BEURLING_SLACK = 0.1   # allowance of the windowed-count slope over the formula
_FORMULA_DEPTH = 40     # N of the formula value the windowed count is held to


def _tail_numerators(pair: ScalePair, n_max: int) -> tuple[list[int], int, int]:
    """Integer numerators U_n = rho_{M+1} * sum_{j=n..M} (d_j-1)/(d_j rho_j).

    d_j rho_j divides rho_{M+1}, so the truncated tails are exact integers
    over the common denominator rho_{M+1}.  One pass from j = M down forms
    each rho_{M+1} // (d_j rho_j) as (b_j * tail) // d_j, tail =
    rho_{M+1} / rho_{j+1} a running suffix product, which is the same floor
    for every pair, admissible or not.  M is grown until the omitted tail
    (< 2/rho_{M+1} by geometric domination) is below _REL_TOL relative to the
    smallest tail used, i.e. until U_{n_max+1} >= 2/_REL_TOL.
    Returns (U_1..U_{n_max+1}, rho_{M+1}, M).  A ValueError when the entry
    that repeats has b = 1 or d = 1: the tails then never shrink, or vanish.
    """
    if pair.b_prefix and 1 in (pair.b_prefix[-1], pair.d_prefix[-1]):
        n = len(pair.b_prefix)
        raise ValueError(f"b_n = {pair.b(n)}, d_n = {pair.d(n)} from level {n} on: "
                         f"the interval model needs b_n, d_n >= 2")
    need = math.ceil(2.0 / _REL_TOL)
    m = n_max + 4
    while True:
        # (b_j, d_j) formed in level order, so that the first level the pair refuses is named
        bd = [(pair.b(j), pair.d(j)) for j in range(1, m + 1)]
        u = [0] * (m + 2)
        tail = 1
        for j in range(m, 0, -1):
            b_j, d_j = bd[j - 1]
            u[j] = u[j + 1] + (d_j - 1) * (b_j * tail // d_j)
            tail *= b_j
        if u[n_max + 1] >= need:
            return u[1: n_max + 2], tail, m
        m += 8


def _ratio_numerators(pair: ScalePair, n_max: int) -> list[int]:
    """U_1..U_{n_max+1} of :func:`_tail_numerators`, so that r_n = U_{n+1}/U_n, after
    checking d_n >= 2 and r_n d_n <= 1, as U_{n+1} d_n <= U_n in integers, at every level:
    a ValueError names the first level that fails."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    u, _, _ = _tail_numerators(pair, n_max)
    for n in range(1, n_max + 1):
        if (d := pair.d(n)) < 2 or u[n] * d > u[n - 1]:
            raise ValueError(f"level {n}: b_{n} = {pair.b(n)}, d_{n} = {d}, and the interval "
                             f"model needs d_n >= 2 and r_n d_n <= 1")
    return u


def gap_ratios(pair: ScalePair, n_max: int) -> list[Fraction]:
    """Ratios r_1..r_{n_max} as exact rationals of certified truncations.

    Each r_n = U_{n+1}/U_n is accurate to 1e-15 relative error against the
    untruncated ratio (the shared omitted tail only lowers the quotient), and
    r_n d_n <= 1 holds for every returned ratio.
    """
    u = _ratio_numerators(pair, n_max)
    return [Fraction(u[n], u[n - 1]) for n in range(1, n_max + 1)]


def rescale_constant(pair: ScalePair) -> Fraction:
    """The factor sum_n (d_n - 1)/(d_n rho_n) mapping the unit-interval model
    onto the pair's Cantor set, as a certified truncation."""
    u, rho_top, _ = _tail_numerators(pair, 1)
    return Fraction(u[0], rho_top)


def build_intervals(pair: ScalePair, depth: int, budget: int = 10**6) -> tuple[tuple[tuple, ...], ...]:
    """The closed intervals J_word for every word up to ``depth``, exact endpoints.

    Returns one tuple per level n = 0..depth: entry n lists (word, left, right)
    for all length-n words in lexicographic order, and entry 0 is the root [0, 1].
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    check_word_budget(pair, depth, budget, least=0)
    ratios = gap_ratios(pair, depth) if depth else []
    levels = [(((), Fraction(0), Fraction(1)),)]
    for n in range(1, depth + 1):
        d = pair.d(n)
        r = ratios[n - 1]
        children = []
        for word, left, right in levels[-1]:
            parent_len = right - left
            child_len = r * parent_len
            gap = (parent_len - d * child_len) / (d - 1)  # >= 0 since r d <= 1
            for k in range(d):
                lo = left + k * (child_len + gap)
                children.append((word + (k,), lo, lo + child_len))
        levels.append(tuple(children))
    return tuple(levels)


@dataclass(frozen=True)
class DimensionFormula:
    """Partial ratios s_N = sum_{j<=N} ln d_j / sum_{j<=N} ln(1/r_j)."""

    partials: tuple[tuple[int, float], ...]
    liminf_proxy: float    # infimum over the trailing window [N/2, N]


def _log_quotient(x: int, y: int) -> float:
    # ln(x / y) for integers x >= y > 0 from the correctly rounded quotient, within
    # about an ulp and with no gcd; the difference of ln x and ln y, each rounded
    # near ln x, would cancel.  Past the float range that difference exceeds 709,
    # so its rounding stays a few ulp of it
    try:
        return math.log(x / y)
    except OverflowError:
        return math.log(x) - math.log(y)


def hausdorff_dim_formula(pair: ScalePair, n_max: int) -> DimensionFormula:
    """Dimension ratios of the interval model, with a trailing-window infimum.

    A true liminf is not computable from finitely many levels; the infimum
    over N in [n_max/2, n_max] is reported as its proxy and stabilizes
    whenever the level ratios converge.  Each s_N is one quotient of the
    telescoped logarithms of :func:`_log_pairs`, with no rational reduced.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    return _formula_of(_log_pairs(pair, n_max))


def _log_pairs(pair: ScalePair, n_max: int) -> list[tuple[float, float]]:
    """(ln(U_1 / U_{n+1}), ln(d_1 ... d_n)) for n = 1..``n_max``, U_n of
    :func:`_ratio_numerators`: the logarithms of 1 / length and of the count of the
    level-n intervals.  r_j = U_{j+1} / U_j, so sum_{j<=n} ln(1/r_j) telescopes to the
    first and sum_{j<=n} ln d_j is the second, each one rounding of exact integers;
    the formula and the box fit read the same list."""
    u, count, logs = _ratio_numerators(pair, n_max), 1, []
    for n in range(1, n_max + 1):
        count *= pair.d(n)
        logs.append((_log_quotient(u[0], u[n]), math.log(count)))
    return logs


def _formula_of(logs: list[tuple[float, float]]) -> DimensionFormula:
    # hausdorff_dim_formula at n_max = len(logs) >= 2: s_N = ln(d_1 ... d_N) / ln(U_1 / U_{N+1})
    partials = tuple((n, y / x) for n, (x, y) in enumerate(logs, start=1) if n >= 2)
    liminf_proxy = min(s for n, s in partials if n >= max(2, len(logs) // 2))
    return DimensionFormula(partials=partials, liminf_proxy=liminf_proxy)


@dataclass(frozen=True)
class BoxCountFit:
    slope: float
    residual: float             # RMS residual of the log-log fit
    levels_used: int
    interval_count: int         # intervals at the deepest level


def _least_squares(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    x = np.asarray(xs)
    y = np.asarray(ys)
    xbar, ybar = x.mean(), y.mean()
    denom = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - ybar)) / denom) if denom > 0 else 0.0
    fit = ybar + slope * (x - xbar)
    residual = float(np.sqrt(np.mean((y - fit) ** 2)))
    return slope, residual


def box_counting_dim(pair: ScalePair, depth: int) -> BoxCountFit:
    """Log-log slope of interval count against inverse interval length.

    The level-n intervals of :func:`build_intervals` number d_1 ... d_n and
    each has length r_1 ... r_n = U_{n+1}/U_1 (exact, the tail numerators of
    :func:`gap_ratios`), so the fit reads the logarithms of these quotients
    directly and enumerates nothing: any depth costs one integer pass, and
    the dimension check fits at the formula's own N.  It shares the gap
    ratios of :func:`hausdorff_dim_formula` and so is no independent check of
    them: it shows how steadily the per-level ratio of the logarithms
    settles.  Needs at least 2 levels for a fit.
    """
    if depth < 2:
        raise ValueError(f"depth must be >= 2 for a slope fit, got {depth}")
    return _box_fit_of(pair, _log_pairs(pair, depth))


def _box_fit_of(pair: ScalePair, logs: list[tuple[float, float]]) -> BoxCountFit:
    # box_counting_dim at depth = len(logs) >= 2 from the log pairs shared with _formula_of
    slope, residual = _least_squares([x for x, _ in logs], [y for _, y in logs])
    return BoxCountFit(slope=slope, residual=residual, levels_used=len(logs),
                       interval_count=math.prod(pair.d(n) for n in range(1, len(logs) + 1)))


@dataclass(frozen=True)
class BeurlingEstimate:
    slope: float
    counts: tuple[tuple[float, int], ...]   # (window half-width h, sup count)


def beurling_upper_dim(level_or_elements, window_grid: Sequence[float]) -> BeurlingEstimate:
    """Windowed-count slope estimating the upper Beurling dimension.

    For each half-width h of ``window_grid``, takes the supremum over window
    centers drawn from the set itself of #(set intersect [x-h, x+h]), then
    fits log sup-count against log h.  A finite-window heuristic for a
    limsup: evidence, not proof.  A ValueError when the grid holds fewer than
    two distinct windows, which leave no slope to fit.
    """
    elements = _elements_of(level_or_elements)
    if not elements:
        raise ValueError("empty frequency set")
    hs = sorted(set(float(h) for h in window_grid))
    if any(h <= 0 for h in hs):
        raise ValueError("window grid must be positive")
    if len(hs) < 2:
        raise ValueError(f"the window grid holds {len(hs)} distinct window(s), "
                         f"and a slope needs at least 2")
    counts = []
    for h in hs:
        sup, w = 0, int(h)  # an integer lies within h of x iff within floor(h)
        for x in elements:
            lo = bisect.bisect_left(elements, x - w)
            hi = bisect.bisect_right(elements, x + w)
            sup = max(sup, hi - lo)
        counts.append((h, sup))
    slope, _ = _least_squares([math.log(h) for h, _ in counts], [math.log(c) for _, c in counts])
    return BeurlingEstimate(slope=slope, counts=tuple(counts))


@dataclass(frozen=True)
class DimensionComparison:
    beurling: float
    hausdorff: float
    slack: float
    passed: bool


def beurling_vs_hausdorff(tm: TreeMapping, level: int, budget: int = 10**6) -> DimensionComparison:
    """Check the counting estimate against the formula value at N = 40 plus
    a slack of 0.1.

    The window grid is tied to the scales (h_j = rho_j / 2 for 2 <= j <= level,
    where it is finite), where the windowed counts of canonical spectra are exactly
    the level cardinalities.  A ValueError of :func:`beurling_upper_dim` when
    it holds fewer than two windows.
    """
    spectrum = enumerate_level(tm, level, budget=budget)  # its word budget is checked before rho is formed
    halves = [_to_float(r) / 2.0 for r in _Scales(tm.pair).upto(level).rho[2:level + 1]]
    est = beurling_upper_dim(spectrum, window_grid=[h for h in halves if h < math.inf])
    formula = hausdorff_dim_formula(tm.pair, _FORMULA_DEPTH).liminf_proxy
    return DimensionComparison(beurling=est.slope, hausdorff=formula, slack=_BEURLING_SLACK,
                               passed=est.slope <= formula + _BEURLING_SLACK)
