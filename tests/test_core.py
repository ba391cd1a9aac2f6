import math
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cantorspec import (PairConstraintError, constant_pair,
                        dimension_targeting_pair, explicit_pair,
                        pair_from_config, rho, validate_pair)
from cantorspec import core, dimension
from cantorspec.dimension import build_intervals, hausdorff_dim_formula
from cantorspec.fourier import qmf_check
from cantorspec.spectra import check_word_budget


def test_rho_examples():
    four = constant_pair(4, 2)
    assert rho(four, 1) == 1          # empty product
    assert rho(four, 3) == 16         # 4*4
    mixed = explicit_pair([4, 6, 8], [2, 3, 4])
    assert rho(mixed, 4) == 192       # 4*6*8


_MU42 = constant_pair(4, 2)


@pytest.mark.parametrize("call, error, fragment", [
    pytest.param(lambda: rho(_MU42, 0), ValueError, "level index must be >= 1, got 0", id="rho"),
    pytest.param(lambda: _MU42.b(0), ValueError, "level index must be >= 1, got 0", id="level"),
    pytest.param(lambda: core.exact_int(math.inf, "b"), ValueError, "b must be an integer, got inf",
                 id="exact_int-inf"),
    pytest.param(lambda: core.exact_int(None, "b"), ValueError, "b must be an integer, got None",
                 id="exact_int-None"),
    pytest.param(lambda: explicit_pair([4, 0], [2, 1]), PairConstraintError,
                 "explicit pair entries must be positive integers", id="explicit_pair"),
    pytest.param(lambda: validate_pair(_MU42, 0), ValueError, "depth must be >= 1, got 0",
                 id="validate_pair"),
    pytest.param(lambda: dimension._ratio_numerators(_MU42, 0), ValueError, "n_max must be >= 1, got 0",
                 id="ratio_numerators"),
    pytest.param(lambda: build_intervals(_MU42, -1), ValueError, "depth must be >= 0, got -1",
                 id="build_intervals"),
    pytest.param(lambda: hausdorff_dim_formula(_MU42, 1), ValueError, "n_max must be >= 2, got 1",
                 id="hausdorff_dim_formula"),
    pytest.param(lambda: qmf_check([0.5, 0.5], 1), ValueError, "d must be >= 2, got 1", id="qmf_check-d"),
    pytest.param(lambda: qmf_check([], 2), ValueError, "coefficient vector must be nonempty",
                 id="qmf_check-empty"),
    pytest.param(lambda: check_word_budget(_MU42, 0, 10, least=1), ValueError, "level must be >= 1, got 0",
                 id="check_word_budget"),
])
def test_guards_refuse_arguments_out_of_range(call, error, fragment):
    # each guard raises its own class, not a subclass or a numpy error, naming the argument
    with pytest.raises(error, match=re.escape(fragment)) as info:
        call()
    assert type(info.value) is error


def test_rho_recurrence_and_growth():
    pairs = [constant_pair(4, 2), constant_pair(9, 3),
             dimension_targeting_pair(0.5), dimension_targeting_pair(1)]
    for pair in pairs:
        acc = 1
        for n in range(1, 65):
            assert rho(pair, n) == acc
            assert rho(pair, n) >= 4 ** (n - 1)
            acc *= pair.b(n)
        assert rho(pair, 65) == acc


def test_constant_pair_examples():
    jp = constant_pair(4, 2)
    assert (jp.b(1), jp.d(1)) == (4, 2)
    assert (jp.b(7), jp.d(7)) == (4, 2)
    constant_pair(9, 3)
    with pytest.raises(PairConstraintError, match="multiple"):
        constant_pair(6, 4)           # 4 does not divide 6
    with pytest.raises(PairConstraintError, match="smaller"):
        constant_pair(4, 4)
    with pytest.raises(PairConstraintError, match="exceed 1"):
        constant_pair(4, 1)


def test_quotient_constraint():
    with pytest.raises(PairConstraintError):
        constant_pair(3, 2)           # 3/2 not an integer
    # quotient exactly 2 is the boundary and is allowed
    constant_pair(6, 3)


def test_alpha_pair_level_values():
    half = dimension_targeting_pair(0.5)
    assert [half.d(n) for n in range(1, 5)] == [2, 4, 8, 16]
    assert [half.b(n) for n in range(1, 5)] == [4, 16, 64, 256]
    one = dimension_targeting_pair(1)
    assert one.d(1) == 4 and one.b(1) == 8
    zero = dimension_targeting_pair(0)
    assert zero.d(3) == 8 and zero.b(3) == 1 << 27


@pytest.mark.parametrize("alpha", [0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1])
def test_alpha_ratio_within_1_over_n(alpha):
    pair = dimension_targeting_pair(alpha)
    for n in range(2, 65):
        ratio = math.log(pair.d(n)) / math.log(pair.b(n))
        assert abs(ratio - float(alpha)) <= 1.0 / n + 1e-12
        assert pair.b(n) % pair.d(n) == 0 and pair.b(n) // pair.d(n) >= 2


@given(st.integers(2, 1000).flatmap(lambda q: st.tuples(st.integers(1, q - 1), st.just(q))),
       st.integers(1, 500))
def test_alpha_rule_scales_equal_the_fraction_ceiling(pq, n):
    # b_n = 2^max(n + 1, ceil(n / alpha)) with the ceiling in integers, as
    # math.ceil of the exact Fraction quotient
    alpha = Fraction(*pq)
    want = (1 << max(n + 1, math.ceil(Fraction(n) / alpha)), 1 << n)
    assert core._dyadic_rule(alpha.numerator, alpha.denominator, n) == want


@pytest.mark.parametrize("n", [1, 2, 3, 17, 500])
def test_alpha_rule_endpoints(n):
    assert core._dyadic_rule(0, 1, n) == (1 << (3 * n * n), 1 << n)
    assert core._dyadic_rule(1, 1, n) == (1 << (3 * n), 1 << (3 * n - 1))


def test_a_constant_pair_is_the_explicit_pair_of_its_one_level():
    # one rule past the prefix: the same sequences make equal, equally hashed pairs
    assert constant_pair(4, 2) == explicit_pair([4], [2])
    assert hash(constant_pair(4, 2)) == hash(explicit_pair([4], [2]))


def test_alpha_ratio_limits():
    one = dimension_targeting_pair(1)
    half = dimension_targeting_pair(0.5)
    zero = dimension_targeting_pair(0)
    r = lambda p, n: math.log(p.d(n)) / math.log(p.b(n))
    assert abs(r(one, 200) - 1) < 2e-3         # (3n-1)/3n -> 1
    assert r(half, 7) == pytest.approx(0.5)    # exact by construction
    assert abs(r(zero, 100)) < 4e-3            # 1/(3n) -> 0


def test_to_float_saturates_past_the_double_range():
    top = 2**1024 - 2**970  # the least integer that rounds past the largest double
    for big in (0, 1, -7, 2**53 + 1, 2**1020, top - 1, -(top - 1)):
        assert core._to_float(big) == float(big)
    for big, inf in ((top, math.inf), (2**1100, math.inf), (-top, -math.inf), (-(2**5000), -math.inf)):
        with pytest.raises(OverflowError):
            float(big)
        assert core._to_float(big) == inf


def test_alpha_rejections():
    with pytest.raises(PairConstraintError, match="alpha"):
        dimension_targeting_pair(1.5)
    with pytest.raises(PairConstraintError, match="profile"):
        pair_from_config({"kind": "alpha", "alpha": 0.5, "profile": "exotic"})


def test_validate_pair_examples():
    assert validate_pair(constant_pair(4, 2), 10).ok
    bad = validate_pair(explicit_pair([4, 5], [2, 2]), 2)
    assert not bad.ok
    assert bad.issues[0].condition == "divisibility"
    assert "n=2" in bad.issues[0].location
    bad1 = validate_pair(explicit_pair([4], [4]), 1)
    assert not bad1.ok
    assert bad1.issues[0].condition == "d<b"


def test_explicit_pair_structural_errors():
    with pytest.raises(PairConstraintError):
        explicit_pair([4, 4], [2])
    with pytest.raises(PairConstraintError):
        explicit_pair([], [])


def test_unknown_pair_kind_rejected():
    with pytest.raises(PairConstraintError, match="kind"):
        pair_from_config({"kind": "mystery"})


@pytest.mark.parametrize("cfg, field", [
    ({"kind": "constant", "b": 4.7, "d": 2}, "b"),
    ({"kind": "constant", "b": 4, "d": "2"}, "d"),
    ({"kind": "explicit", "b": [4, 8.5], "d": [2, 2]}, "b[1]"),
    ({"kind": "explicit", "b": [4, 8], "d": [2.25, 2]}, "d[0]"),
    # JSON true is no integer, though Python's bool is an int: b_2 = d_2 = 1 was built
    ({"kind": "constant", "b": 4, "d": True}, "d"),
    ({"kind": "explicit", "b": [4, True], "d": [2, True]}, "b[1]"),
])
def test_pair_config_rejects_non_integral_values(cfg, field):
    # int() used to truncate 4.7 to 4 while the report echoed 4.7
    with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be an integer"):
        pair_from_config(cfg)
    assert pair_from_config({"kind": "constant", "b": 4.0, "d": 2}) == constant_pair(4, 2)


@pytest.mark.parametrize("alpha", [False, True, "1/3", "0.5", None, [0.5], math.inf, 10**400],
                         ids=["false", "true", "1/3", "0.5", "null", "list", "inf", "10**400"])
def test_pair_config_alpha_must_be_a_finite_number(alpha):
    # alpha went straight to Fraction: false ran as alpha = 0 and "1/3" as alpha = 1/3
    with pytest.raises(ValueError, match=r"^alpha must be a finite number"):
        pair_from_config({"kind": "alpha", "alpha": alpha})
    assert pair_from_config({"kind": "alpha", "alpha": 1}) == dimension_targeting_pair(1)
