#!/usr/bin/env python3
"""Interval models, dimension formula, box counting, Beurling estimates.

The Cantor set rescales onto a nested interval family in [0, 1] built from
exact rational gap ratios.  Its dimension comes out three independent ways:
the liminf ratio formula, a box-count fit over the constructed intervals,
and (for the frequency side) a windowed-count estimate that must stay below
the set dimension.
"""

from fractions import Fraction

from cantorspec import (beurling_upper_dim, beurling_vs_hausdorff,
                        box_counting_dim, build_intervals, canonical_tau,
                        constant_pair, dimension_targeting_pair,
                        enumerate_level, gap_ratios, hausdorff_dim_formula,
                        rescale_constant)

pair = constant_pair(4, 2)

# --- gap ratios and the interval family -------------------------------------
ratios = gap_ratios(pair, 6)
print("r_1 for (4,2):", ratios[0], "~", float(ratios[0]))
family = build_intervals(pair, 2)
for word, lo, hi in family[1]:
    print(f"  J_{word} = [{float(lo):.6f}, {float(hi):.6f}]")
print("rescale constant:", float(rescale_constant(pair)), "(exactly 2/3 in the limit)")

# --- dimension three ways ----------------------------------------------------
formula = hausdorff_dim_formula(pair, 40)
box = box_counting_dim(pair, 10)
print(f"\nformula liminf proxy: {formula.liminf_proxy:.12f}")
print(f"box-count slope:      {box.slope:.12f}  (residual {box.residual:.1e}, "
      f"{box.interval_count} intervals)")

level8 = enumerate_level(canonical_tau(pair), 8)
est = beurling_upper_dim(level8, window_grid=[4**j / 2 for j in range(1, 8)])
print(f"Beurling estimate:    {est.slope:.12f}")
print("window counts:", est.counts)

# --- the inequality between the two sides ------------------------------------
for b, d in ((4, 2), (8, 2)):
    cmp = beurling_vs_hausdorff(canonical_tau(constant_pair(b, d)), 8)
    print(f"({b},{d}): counting {cmp.beurling:.4f} <= formula {cmp.hausdorff:.4f} + 0.1:",
          cmp.passed)

# --- a genuinely non-constant pair -------------------------------------------
alpha = dimension_targeting_pair(0.25)
f = hausdorff_dim_formula(alpha, 40)
print("\nalpha=0.25 pair: s_40 =", round(dict(f.partials)[40], 6),
      " (interval lengths shrink super-geometrically)")
r10 = gap_ratios(alpha, 10)[9]
print("r_10 * b_10 =", float(r10 * alpha.b(10)), "-> 1")
