"""The transfer operator's completeness gaps (``verify.transfer_gaps``) against references.

The gaps G_L = 1 - Q_L of canonical labels are held to the mpmath oracle files of mu42,
to a ``tests/reference.py`` sum from the definition whose precision is sized to the gap,
and to the walk over the words, called directly, on every canonical-label completeness op
of the artifact manifest.
"""
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

import reference as ref
from cantorspec import (BudgetExceededError, TreeMapping, canonical_tau, completeness_Q, constant_pair,
                        dimension_targeting_pair, explicit_pair, pair_from_config, verify)
from cantorspec.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
ORACLES = ROOT / "tests" / "oracles"
MU42 = constant_pair(4, 2)
GRID = [0.5 * j / 32 for j in range(33)]


def gaps(pair, xis, level) -> np.ndarray:
    # G_L as floats, [grid point, L - 1]
    g = verify.transfer_gaps(pair, xis, level)
    return np.ldexp(g.mantissa, g.exp2)


def test_gaps_match_the_oracle_file():
    # tests/oracles/completeness_gap_oracle.py, 33 points and L = 1..12, printed to 8
    # significant digits: every gap within 5e-8 of it, relative, and 0 where it is 0
    oracle = {}
    for line in (ORACLES / "completeness_gap_oracle.out").read_text().splitlines():
        fields = line.split()
        if len(fields) == 13 and not line.startswith("#"):
            oracle[float(fields[0])] = [float(v) for v in fields[1:]]
    got = gaps(MU42, GRID, 12)
    for k, xi in enumerate(GRID):
        for n, want in enumerate(oracle[xi]):
            if want == 0.0:
                assert got[k, n] == 0.0, (xi, n + 1)
            else:
                assert abs(got[k, n] - want) <= 5e-8 * want, (xi, n + 1)


def test_gaps_match_the_deep_oracle():
    # completeness_gap_oracle.py --deep, L = 13 and 14 to 20 digits: within 1e-14 relative
    # (4.6e-15 measured)
    for line in (ORACLES / "completeness_gap_oracle_deep.out").read_text().splitlines():
        if line and not line.startswith("#"):
            xi, *want = map(float, line.split())
            got = gaps(MU42, [xi], 14)[0, 12:]
            for n, (g, w) in enumerate(zip(got, want), start=13):
                assert abs(g - w) <= 1e-14 * w, (xi, n)


def _manifest_ops():
    # the canonical-label completeness ops of tools/artifacts.py that exit 0: (pair, level, grid)
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import artifacts
    finally:
        sys.path.remove(str(ROOT / "tools"))
    cases = set()
    for op in artifacts.ops():
        if op[0] == "completeness" and "--tree" not in op:
            args = build_parser().parse_args([str(ROOT / a) if a.startswith("demos/") else a for a in op])
            cases.add((Path(args.pair).stem, args.level, args.grid, args.tol, args.budget))
    return sorted(cases)


@pytest.mark.parametrize("name, level, grid, tol, budget", _manifest_ops())
def test_gaps_match_the_walk_on_every_manifest_op(name, level, grid, tol, budget):
    # the walk over the words, called directly on the same canonical labels, within 1e-10 of
    # the transfer operator's gap, relative (1.2e-12 measured, on mu82 at L = 8; alpha_quarter
    # 2.5e-11).  At alpha = 0 the walk's gap loses its relative accuracy (it is 0 at L = 4,
    # where the gap is 1.4e-48), and the difference stays within the walk's certified slack.
    # explicit_huge, which the walk refuses, passes on the transfer operator
    pair = pair_from_config(json.loads((ROOT / "demos" / "configs" / f"{name}.json").read_text()))
    xis = [0.5 * j / grid for j in range(grid + 1)]
    tm = canonical_tau(pair)
    try:
        rep = completeness_Q(tm, xis, level, tol=tol, budget=budget)
    except (BudgetExceededError, ValueError) as exc:
        # the word budget and the tail's budget refuse both: tau(1) = 1 is canonical, but a
        # table runs the walk
        with pytest.raises(type(exc)):
            completeness_Q(TreeMapping(pair, {(1,): 1}), xis, level, tol=tol, budget=budget)
        return
    if name == "explicit_huge":  # its lambda pass the range of the walk's slack
        with pytest.raises(ValueError, match="2\\^511"):
            verify._completeness_walk(tm, xis, level, tol, budget)
        return
    walk = verify._completeness_walk(tm, xis, level, tol, budget)
    assert rep.method == "transfer" and walk.method == "walk"
    got, want = (np.ldexp(r.gap_mantissa, r.gap_exp2) for r in (rep, walk))
    tolerance = walk.slack if name == "alpha_zero" else 1e-10 * got + 1e-300
    assert np.all(np.abs(got - want) <= tolerance + 1e-15 * (got == 0)), name
    assert np.all(np.abs(rep.q - walk.q) <= 2.0 ** -51)  # Q within 4 ulp(1/2) (2 measured)


SIZED = [(0.25, 4), (0.1, 4), (0.05, 4), (0.01, 3), (0.001, 2)]


@pytest.mark.parametrize("alpha, level", SIZED)
@pytest.mark.parametrize("xi", [Fraction(1, 2), Fraction(1, 64)])
def test_gaps_match_a_sum_sized_to_the_gap(alpha, level, xi):
    # the definition's sum at a precision sized to the gap, which falls to 10^-1808 at
    # alpha = 0.001: every level within 1e-13 relative (4e-15 measured)
    pair = dimension_targeting_pair(alpha)
    want = ref.completeness_gap(pair.b, pair.d, xi, level)
    g = verify.transfer_gaps(pair, [float(xi)], level)
    for n in range(level):
        got = mpmath.ldexp(mpmath.mpf(float(g.mantissa[0, n])), int(g.exp2[0, n]))
        assert abs(got - want[n]) <= 1e-13 * want[n], (n + 1, got, want[n])


@pytest.mark.parametrize("alpha, level, want", [(0.1, 4, "7.0842e-58"), (0.05, 4, "4.4029e-118"),
                                                (0.01, 3, "1.9415e-361")])
def test_small_alpha_gaps_keep_their_digits(alpha, level, want):
    # the walk reported 3.5e-54 at alpha = 0.1, xi = 1/64, L = 4, and a gap of 0 at alpha = 0.05
    # (L = 4) and alpha = 0.01 (L = 3); completeness_Q's gap columns hold them to 5 digits
    pair = dimension_targeting_pair(alpha)
    rep = completeness_Q(canonical_tau(pair), [1 / 64], level)
    m, e = float(rep.gap_mantissa[0, -1]), int(rep.gap_exp2[0, -1])
    assert 0.5 <= m < 1.0
    assert mpmath.nstr(mpmath.ldexp(m, e), 5) == want
    assert rep.q[0, -1] == 1.0 and rep.bounded


def test_q_is_one_minus_the_gap_rounded_once():
    rep = completeness_Q(canonical_tau(MU42), GRID, 12)
    assert np.array_equal(rep.q, 1.0 - np.ldexp(rep.gap_mantissa, rep.gap_exp2))
    assert np.all((rep.gap_mantissa == 0.0) == (rep.gap_exp2 == 0))
    # the worst gap at L = 12, a float, which the benchmark pins at 2.026e-7
    assert rep.worst_gap == np.max(np.ldexp(rep.gap_mantissa, rep.gap_exp2)[:, -1]) <= 2.026e-7
    assert rep.q[1, 11] == 0.9999999998823413  # xi = 1/64, L = 12, the walk's value too


def test_a_constant_pair_takes_one_step_per_level_and_a_moran_pair_a_chain():
    assert verify.transfer_gaps(MU42, [0.25], 12).work == verify.TransferWork(16, 24, 12, 24)
    work = verify.transfer_gaps(dimension_targeting_pair(0.5), [0.25], 4).work
    assert (work.steps, work.digits) == (10, 4 * 2 + 3 * 4 + 2 * 8 + 16)
    # an explicit prefix, then its last level repeated: the levels past the prefix share one chain
    work = verify.transfer_gaps(explicit_pair([6, 4], [3, 2]), [0.25], 5).work
    assert work.steps == 5 + 4


def test_the_slack_is_the_start_functions_tail_bound():
    # (4 pi^2 / 9) (rho_k / rho_{N+1})^2 / 4 at the least N with its bound on h at most
    # min(tol, 2^-60): on mu42 N = k + 15, (1/4)^32
    rep = completeness_Q(canonical_tau(MU42), [0.25], 3)
    assert np.all(rep.slack == math.pi ** 2 / 9 * 4.0 ** -32)
    deeper = completeness_Q(canonical_tau(MU42), [0.25], 3, tol=1e-30)
    assert np.all(deeper.slack <= 1e-30 / 4) and deeper.work.depth > rep.work.depth


def test_transfer_holds_its_sines_to_the_budget():
    # a prime start-function level costs d - 1 sines per node, and a step d digits per node:
    # (8186, 4093) at L = 1 takes 4092 x 24 sines, within the default budget; at a budget of
    # 50,000 the start function's level 2 is refused, and at 98,220 the step of level 1
    pair = constant_pair(2 * 4093, 4093)
    assert completeness_Q(canonical_tau(pair), [0.25], 1).bounded
    with pytest.raises(BudgetExceededError, match="tail level 2 needs 4092 sines"):
        completeness_Q(canonical_tau(pair), [0.25], 1, budget=50000)
    with pytest.raises(BudgetExceededError, match="level 1: a step sums 4093 digits"):
        completeness_Q(canonical_tau(pair), [0.25], 1, budget=98220)


@pytest.mark.parametrize("b, d, level", [([2**600, 2**600], [2, 2], 2), ([2**1100, 2**1100], [2, 2], 2),
                                         ([2**507, 32], [2, 16], 2), ([4, 2**1101], [2, 2**1100], 1)])
def test_transfer_reaches_frequencies_past_the_slack_range(b, d, level):
    # the walk refuses these (its slack sums lambda^2, and its tail plan d_2 = 2^1100); the
    # transfer operator forms no lambda and takes b and d past the double range by their
    # binary exponents, and d_2 = 2^1100 as 1100 H_2 sub-levels
    pair = explicit_pair(b, d)
    rep = completeness_Q(canonical_tau(pair), [0.0, 0.25, 0.5], level)
    assert rep.bounded and np.all(rep.gap_mantissa[1:] >= 0.5)
    assert np.all(np.diff(rep.gap_exp2[1:], axis=1) < 0)  # the gap falls with L


SWEEP = ["0_001", "0_01", "0_011", "0_05", "0_1"]


@pytest.mark.parametrize("alpha", SWEEP)
def test_report_passes_at_the_failing_sweep_points(tmp_path, alpha):
    # the walk failed report at these alpha: bounded by rounding at 0.05 and 0.1 (exit 1),
    # and the slack's double range at 0.001, 0.01 and 0.011 (exit 2)
    out = tmp_path / "o"
    pair = ROOT / "demos" / "configs" / f"alpha_{alpha}.json"
    assert main(["report", "--pair", str(pair), "--draws", "5", "--count", "1000", "--out", str(out)]) == 0
