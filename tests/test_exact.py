import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selmat.exact import (
    Approx,
    GammaProduct,
    PoleError,
    format_rational,
    log_abs_rational,
    parse_rational,
    pochhammer,
    to_float,
)


def test_pochhammer_examples():
    assert pochhammer(F(3), 2) == 12
    assert pochhammer(F(1, 2), 0) == 1
    assert pochhammer(F(-3, 2), 3) == F(3, 8)


@settings(deadline=None, max_examples=40)
@given(
    x=st.fractions(min_value=F(1, 60), max_value=40, max_denominator=60),
    k=st.integers(min_value=0, max_value=12),
)
def test_gamma_normal_form_shift_property(x, k):
    # Gamma(x + k) = (x)_k Gamma(x): both sides reduce to the same normal form
    assert GammaProduct.from_gamma(x + k) == pochhammer(x, k) * GammaProduct.from_gamma(x)


def test_pochhammer_split_identity():
    rng = random.Random(7)
    for _ in range(40):
        x = F(rng.randint(-30, 30), rng.randint(1, 12))
        m, k = rng.randint(0, 20), rng.randint(0, 20)
        assert pochhammer(x, m + k) == pochhammer(x, m) * pochhammer(x + m, k)


def test_rational_field_ops_exact():
    rng = random.Random(11)
    for _ in range(60):
        a = F(rng.randint(-99, 99), rng.randint(1, 40))
        b = F(rng.randint(-99, 99), rng.randint(1, 40))
        c = F(rng.randint(-99, 99), rng.randint(1, 40))
        assert a * (b + c) == a * b + a * c
        if b != 0:
            assert (a / b) * b == a


def test_rational_serialization_roundtrip():
    for v in (F(1, 3), F(-7, 2), F(5), F(0), F(-1000), F(10**40, 3), F(-(7**900), 3**1200)):
        assert parse_rational(format_rational(v)) == v
        assert format_rational(v) == str(v)  # the Decimal route prints what str prints
    # a ValueError, as argparse reports a bad flag value; Fraction raises ZeroDivisionError
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")


def gamma_product_ratio(num, den):
    """Shift-normalised quotient; an exact Rational when all factors cancel."""
    return (num / den).simplify()


def test_gamma_ratio_integer_cancellation():
    assert gamma_product_ratio(GammaProduct.from_gamma(5), GammaProduct.from_gamma(3)) == 12


def test_gamma_ratio_half_integer_example():
    num = GammaProduct(1, [(F(3, 2), 2), (2, 1)])
    den = GammaProduct(1, [(F(3, 2), 1), (F(5, 2), 1), (3, 1)])
    assert gamma_product_ratio(num, den) == F(1, 3)


def test_gamma_pole():
    with pytest.raises(PoleError):
        gamma_product_ratio(GammaProduct.from_gamma(1), GammaProduct.from_gamma(0))
    with pytest.raises(PoleError):
        GammaProduct.from_gamma(-3)


def test_inverse_gamma_pole_is_zero():
    v = GammaProduct(1, [(0, -1)])  # 1 / Gamma(0) = 0
    assert v.simplify() == 0


def test_normalization_canonical_window():
    # same value reached through shifted arguments normalises identically
    a = GammaProduct.from_gamma(F(7, 2))
    b = GammaProduct(F(5, 2) * F(3, 2) * F(1, 2), [(F(1, 2), 1)])
    assert a == b
    assert all(0 < arg <= 1 for arg, _ in a.factors)


def test_gamma_ratio_idempotent_and_float_agreement():
    rng = random.Random(3)
    for _ in range(1000):
        den_choice = rng.choice((2, 3))
        args = [F(rng.randint(1, 40), den_choice) for _ in range(4)]
        exps = [rng.choice((-1, 1)) for _ in range(4)]
        gp = GammaProduct(1, list(zip(args, exps)))
        again = GammaProduct(gp.prefactor, gp.factors)
        assert again == gp  # renormalisation is idempotent
        direct = sum(e * math.lgamma(float(a)) for a, e in zip(args, exps))
        ap = to_float(gp)
        if ap.sign != 0:
            assert ap.log_value == pytest.approx(direct, abs=1e-10, rel=1e-10)


def test_to_float_examples():
    assert to_float(F(1, 3)).value == pytest.approx(1 / 3, rel=1e-15)
    assert to_float(GammaProduct.from_gamma(F(1, 2))).value == pytest.approx(
        math.sqrt(math.pi), rel=1e-12
    )
    v = to_float(GammaProduct(F(1, 2), [(F(3, 2), 1)]))
    assert v.value == pytest.approx(math.sqrt(math.pi) / 4, rel=1e-12)


def test_approx_invariant():
    for v in (F(3, 7), F(-1, 923), F(10) ** 40, -F(10) ** -40):
        ap = to_float(v)
        assert isinstance(ap, Approx)
        assert ap.sign * math.exp(ap.log_value) == pytest.approx(ap.value, rel=1e-12)


def test_log_abs_rational_huge():
    big = F(10**400, 3)
    assert log_abs_rational(big) == pytest.approx(400 * math.log(10) - math.log(3), rel=1e-12)


def test_gamma_product_json():
    # Gamma(5/2) = (3/2)(1/2) Gamma(1/2), folded into the prefactor
    gp = GammaProduct(F(-2, 3), [(F(5, 2), 1)])
    d = gp.to_json()
    assert gp.prefactor == F(-2, 3) * F(3, 2) * F(1, 2) == F(-1, 2)
    assert d["prefactor"] == "-1/2"
    assert d["factors"] == [["1/2", 1]]
