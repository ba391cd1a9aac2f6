#!/usr/bin/env python3
"""The averaging kernel, the infinite-product transform, and QMF filters.

The transform of the measure is an infinite product of kernels H_{d_n} at
geometrically separated scales.  Evaluation truncates the product and
reports a certified radius bounding everything it discarded; at integer
frequencies divisibility alone decides whether the transform vanishes.
"""

import numpy as np

from cantorspec import (FilterFamily, constant_pair, eval_H, mu_hat,
                        orthogonality_check, phi_hat, qmf_check, uniform_family)

pair = constant_pair(4, 2)

# --- the kernel ------------------------------------------------------------
print("H_2(0)   =", eval_H(2, 0.0))
print("H_2(1/2) =", eval_H(2, 0.5), "(a zero of the first factor)")
print("H_3(1/3) =", eval_H(3, 1 / 3), "(cube roots of unity summing to 0)")

# --- certified evaluation ----------------------------------------------------
for xi in (0.3, 1.0, 17.25):
    tv = mu_hat(pair, xi, tol=1e-10)
    print(f"muhat({xi}) = {tv.value:.12f}  radius {tv.radius:.1e}  ({tv.levels} levels)")

# --- exact zeros at integers -------------------------------------------------
# muhat(nu) = 0 exactly when the exponentials at 0 and nu are orthogonal
for nu in (1, 2, 3, 4, 8, 21):
    status = "vanishes" if orthogonality_check([0, nu], pair).passed else "nonzero"
    print(f"muhat({nu}): {status}")

# --- quadrature mirror filters ----------------------------------------------
print("\nQMF certification of the averaging taps (1/2, 1/2):")
print("  d=2:", qmf_check((0.5, 0.5), 2))
print("  d=3:", qmf_check((0.5, 0.5), 3).passed, "(wrong normalization)")
print("broken taps (0.6, 0.4):", qmf_check((0.6, 0.4), 2).max_defect)

# a modulated family keeps |G| and stays certified
fam = FilterFamily(pair=pair, explicit=((0j, 0j, 0.5, 0.5),))
cert = fam.certify(10)
print("\nmodulated family: ok =", cert.ok, " d0 =", cert.d0, " d1 =", round(cert.d1, 4))
print("phi_hat(0.3) =", phi_hat(fam, 0.3, 1e-10).value)
print("muhat (0.3)  =", mu_hat(pair, 0.3, 1e-10).value)
print("(they differ: modulation shifts the underlying distribution)")
print("uniform family reproduces the transform bit for bit:",
      phi_hat(uniform_family(pair), 0.3, 1e-10) == mu_hat(pair, 0.3, 1e-10))
