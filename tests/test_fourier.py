import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorspec import (FilterCertificationError, FilterFamily,
                        certificate_report, constant_pair,
                        dimension_targeting_pair, eval_H, eval_H_array,
                        eval_H_sq_array, filter_family_from_config, mu_hat,
                        mu_hat_array,
                        mu_hat_exact_zero, phi_hat, qmf_check, uniform_family)


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
    # closed form, the cosine form at m = 2, and the Fejer sum in the guard band
    rng = np.random.default_rng(4)
    xs = np.concatenate([rng.uniform(-3, 3, size=200), [-2.0, 0.0, 1.0, 0.5, -0.5],
                         [k + e for k in (0, 3) for e in (-2e-9, -1e-12, 1e-300, 5e-10)]])
    for m in (2, 3, 5, 8, 17, 64):
        got = eval_H_sq_array(m, xs)
        want = [abs(kernel_by_summation(m, x)) ** 2 for x in xs]
        assert np.max(np.abs(got - want)) < 1e-13, m
        assert np.all(got[np.round(xs) == xs] == 1.0)


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
    for xi, tol in ((math.inf, 1e-10), (math.nan, 1e-10), (1e300, 1e-10),
                    (0.3, math.nan), (0.3, math.inf)):
        with pytest.raises(ValueError):
            mu_hat(pair, xi, tol)
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
