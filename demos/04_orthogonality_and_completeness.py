#!/usr/bin/env python3
"""The three verification pillars on the (4, 2) measure.

Orthogonality is decided in exact integer arithmetic; the partition identity
is an algebraic identity whose numerical defect must sit at roundoff scale;
completeness can only ever be certified as a trend, so the partial sums are
tracked with certified error accounting.
"""

import numpy as np

from cantorspec import (canonical_tau, completeness_Q, constant_pair,
                        dimension_targeting_pair, enumerate_level, mu_hat,
                        orthogonality_check, partition_identity)

pair = constant_pair(4, 2)
canonical = canonical_tau(pair)

# --- exact orthogonality -----------------------------------------------------
level4 = enumerate_level(canonical, 4)
print("level 4:", len(level4), "frequencies,",
      orthogonality_check(level4, pair).pair_count, "pairs:",
      "orthogonal" if orthogonality_check(level4, pair).passed else "NOT orthogonal")

bad = orthogonality_check([0, 8], pair)
print("the set {0, 8}: passed =", bad.passed, " witness pair:", bad.violations[0])

# the grouped residue-tree method handles half a billion pairs exactly
alpha = dimension_targeting_pair(0.5)
big = enumerate_level(canonical_tau(alpha), 5, budget=10**6)
rep = orthogonality_check(big, alpha)
print(f"alpha=1/2 level 5: {rep.element_count} elements, {rep.pair_count} pairs,",
      "orthogonal" if rep.passed else "NOT orthogonal")

# --- partition identity ------------------------------------------------------
rng = np.random.default_rng(0)
worst = max(partition_identity(canonical, float(xi), 8).defect for xi in rng.random(20))
print(f"\npartition identity, L=8, 20 random xi: worst defect {worst:.2e}")

# --- completeness trend ------------------------------------------------------
report = completeness_Q(canonical, [0.0, 0.25, 0.5], l_max=10, tol=1e-12)
print("\nQ_L(0.5) trend:")
for row in report.rows:
    if row.xi == 0.5:
        print(f"  L={row.level:2d}  Q={row.q:.12f}  slack={row.certified_slack:.1e}")
print("bounded by 1 + slack:", report.bounded)
print(f"worst gap at L=10: {report.worst_gap:.3e} (at xi={report.worst_gap_xi})")

# a non-orthogonal set overshoots 1 instead
q = sum(abs(mu_hat(pair, 0.0 + lam, 1e-12).value)**2 for lam in (0, 8))
print(f"\nfor the non-orthogonal {{0, 8}}: sum |muhat|^2 at xi=0 is {q:.4f} > 1")
