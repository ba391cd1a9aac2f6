#!/usr/bin/env python3
"""High-precision reference run for the completeness trend of the (4, 2) measure.

Computes Q_L(xi) = sum over the level-L frequency set of |muhat(xi + lam)|^2
directly from the defining infinite product, in mpmath arithmetic, with the
product truncated deep enough that the geometric tail bound is negligible at
the working precision.  Deliberately shares no code with the cantorspec
package: the kernel is summed term by term and the frequency set is expanded
from its closed form, so the printed numbers are an independent reference.

The printed worst-case gaps are frozen into tests/test_acceptance.py; rerun
this script to regenerate them.  With --deep it prints the gaps at L = 13, 14
instead, to 20 significant digits, at the grid points with the smallest gaps.

Usage:  python tests/oracles/completeness_gap_oracle.py > completeness_gap_oracle.out
        python tests/oracles/completeness_gap_oracle.py --deep > completeness_gap_oracle_deep.out
(each takes a few minutes)
"""

import sys
import time

from mpmath import mp, mpc, mpf, exp, pi

mp.dps = 30

B, D = 4, 2
L_MAX = 12
# Truncation level for the infinite product.  For |v| <= 4^12 the omitted
# factors multiply to 1 within exp(2*pi*|v|/4^PRODUCT_LEVELS) - 1 < 1e-25.
PRODUCT_LEVELS = 55

GRID_POINTS = 33          # equispaced xi in [0, 1/2]
EXTRA_XI = [mpf(3) / 10]  # off-grid point used by unit tests
DEEP_LEVELS = (13, 14)
DEEP_XI = [mpf(1) / 64, mpf(1) / 32, mpf(3) / 64]  # the smallest gaps of the grid


def averaging_kernel(x):
    """(1/2) * sum_{j<2} e^{-2 pi i j x}, summed literally."""
    return (1 + exp(-2j * pi * x)) / 2


def muhat(v):
    acc = mpc(1)
    rho = 1
    for _ in range(PRODUCT_LEVELS):
        acc *= averaging_kernel(v / (D * rho))
        rho *= B
    return acc


def level_sets(l_max=L_MAX):
    """Frequency sets Lambda_L = {sum_n delta_n 4^(n-1) : delta in {0,1}^L}."""
    lams = []
    for bits in range(1 << l_max):
        lam = 0
        for k in range(l_max):
            if bits & (1 << k):
                lam += B ** k
        lams.append(lam)
    lams.sort()
    # Membership in Lambda_L is exactly lam < 4^L for this digit system.
    return lams


def main():
    t0 = time.time()
    lams = level_sets()
    xis = [mpf(j) / (2 * (GRID_POINTS - 1)) for j in range(GRID_POINTS)] + EXTRA_XI

    worst_gap = [mpf(0)] * (L_MAX + 1)
    print("# xi  followed by gap 1 - Q_L(xi) for L = 1..%d" % L_MAX)
    for xi in xis:
        terms = [abs(muhat(xi + lam)) ** 2 for lam in lams]
        gaps = []
        for L in range(1, L_MAX + 1):
            q = sum(t for lam, t in zip(lams, terms) if lam < B ** L)
            gaps.append(1 - q)
        print(mp.nstr(xi, 8), " ".join(mp.nstr(g, 8) for g in gaps))
        for L in range(1, L_MAX + 1):
            worst_gap[L] = max(worst_gap[L], gaps[L - 1])

    print()
    print("# worst-case gap over the %d-point grid + extras:" % GRID_POINTS)
    for L in range(1, L_MAX + 1):
        print("L=%2d  max(1 - Q_L) = %s" % (L, mp.nstr(worst_gap[L], 12)))
    print("# elapsed: %.1f s" % (time.time() - t0))


def main_deep():
    t0 = time.time()
    lams = level_sets(max(DEEP_LEVELS))
    print("# xi  followed by gap 1 - Q_L(xi) for L = %s" % ", ".join(map(str, DEEP_LEVELS)))
    for xi in DEEP_XI:
        terms = [abs(muhat(xi + lam)) ** 2 for lam in lams]
        gaps = [1 - sum(t for lam, t in zip(lams, terms) if lam < B ** L) for L in DEEP_LEVELS]
        print(mp.nstr(xi, 8), " ".join(mp.nstr(g, 20) for g in gaps))
    print("# elapsed: %.1f s" % (time.time() - t0))


if __name__ == "__main__":
    main_deep() if "--deep" in sys.argv[1:] else main()
