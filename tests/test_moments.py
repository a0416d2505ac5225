import json
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selmat import moments
from selmat.combinat import partitions_of
from selmat.jack import kadell_ratio, monomial_to_jack
from selmat.moments import (
    ENSEMBLES,
    InconsistentSamplesError,
    RationalFunction,
    asymptotic_expansion,
    beta_remark_combination,
    ensemble,
    ensemble_moments,
    full_matrix_moment_ratio,
    laurent_coefficients,
    monomial_moment_ratio,
    reconstruct_rational,
    richardson_limit,
    shifted_moment_ratio,
    trace_moments,
)


def test_ensemble_specs():
    her = ensemble("hermitian")
    assert (her.a, her.b, her.c, her.kappa) == (1, 2, 0, F(1))
    assert her.dim(4) == 16
    sym = ensemble("symmetric")
    assert (sym.a, sym.b, sym.c) == (1, 1, 0)
    assert sym.dim(4) == 10
    quat = ensemble("quaternion")
    assert quat.dim(3) == 3 + 4 * 3
    fc = ensemble("full-complex")
    assert (fc.a, fc.b, fc.c) == (2, 2, 1)
    assert fc.dim(3) == 18
    assert len(ENSEMBLES) == 6
    with pytest.raises(ValueError):
        ensemble("octonion")


def test_shifted_square_closed_forms():
    # kappa = 2: J((t1-1/2)^2)/J(1) reduces to n / (2(4n-1))
    for n in range(2, 12):
        assert shifted_moment_ratio("x2", n, F(2)) == F(n, 2 * (4 * n - 1))
    # kappa = 1, n = 2: R(m2) = 9/10 - 1/6 = 11/15, so the value is 11/30 - 1/2 + 1/4
    assert shifted_moment_ratio("x2", 2, F(1)) == F(7, 60)


def test_full_matrix_closed_forms():
    for beta in (1, 2, 4):
        b = F(beta)
        for n in (2, 3, 5, 9):
            den1 = 1 + (2 * n - 1) * b / 2
            den2 = 1 + (n - 1) * b
            assert full_matrix_moment_ratio("x2", n, beta) == (n * b / 2) / den1
            assert full_matrix_moment_ratio("x2x2", n, beta) == (n * (n - 1) * b**2 / 4) / (
                den1 * den2
            )


def test_full_matrix_single_entry_second_moment():
    # E[T_11^2] = (1/n^2) E[Tr TT^t] = m2/n = 1/(2n+1) at beta = 1
    for n in (2, 3, 7):
        m2 = full_matrix_moment_ratio("x2", n, 1)
        assert m2 == F(n, 2 * n + 1)
        assert m2 / n == F(1, 2 * n + 1)


def test_moment_report_invariant_and_json():
    rep = ensemble_moments(ensemble("hermitian"), 5, "paper")
    assert rep.var == 5 * rep.M4 + 20 * rep.M22 - (5 * rep.M2) ** 2
    js = rep.to_json()
    assert js["convention"] == "paper"
    assert F(js["M2"]) == rep.M2
    json.dumps(js)  # serialisable
    fullr = ensemble_moments(ensemble("full-real"), 5)
    assert fullr.M11 is None
    assert fullr.to_json()["M11"] is None


def test_variance_nonnegative_and_sigma_bounds():
    for name in ENSEMBLES:
        spec = ensemble(name)
        for n in (2, 3, 17, 60, 200):
            for conv in ("forced", "paper"):
                rep = ensemble_moments(spec, n, conv)
                assert rep.var >= 0
                assert F(1, 10) <= rep.sigma2 <= 10


def test_sigma2_convention_free():
    for name in ENSEMBLES:
        spec = ensemble(name)
        for n in (2, 9, 33):
            assert (
                ensemble_moments(spec, n, "forced").sigma2
                == ensemble_moments(spec, n, "paper").sigma2
            )


def test_forced_var_equals_16x_remark():
    for name in ("hermitian", "symmetric", "quaternion"):
        spec = ensemble(name)
        for n in range(2, 26):
            assert ensemble_moments(spec, n, "forced").var == 16 * beta_remark_combination(
                n, spec.beta
            )


def test_remark_constant_terms():
    for beta in (1, 2, 4, 6):
        _, lc = asymptotic_expansion("remark", 0, beta=beta)
        assert lc[0] == F(1, 64 * beta)


def test_paper_variance_constants():
    for name, c in (("hermitian", F(1, 32)), ("symmetric", F(1, 16)), ("quaternion", F(1, 64))):
        _, lc = asymptotic_expansion("var", 0, ensemble_name=name, convention="paper")
        assert lc[0] == c


def test_fullmatrix_variance_constants():
    for name, beta in (("full-real", 1), ("full-complex", 2), ("full-quaternion", 4)):
        _, lc = asymptotic_expansion("var", 0, ensemble_name=name)
        assert lc[0] == F(1, 8 * beta)


EXPANSIONS = [
    (F(1), "x2", [F(1, 8), F(0), F(-1, 32)]),
    (F(1), "x1x1", [F(0), F(-1, 8), F(-1, 16), F(-1, 32)]),
    (F(1), "x2x2", [F(1, 64), F(-1, 128), F(-1, 128)]),
    (F(1), "x4", [F(3, 128), F(0)]),
    (F(1, 2), "x2", [F(1, 8), F(-1, 16), F(1, 32)]),
    (F(1, 2), "x1x1", [F(0), F(-1, 8), F(1, 16), F(-1, 32)]),
    (F(1, 2), "x2x2", [F(1, 64), F(-3, 128), F(3, 128)]),
    (F(1, 2), "x4", [F(3, 128), F(-5, 256)]),
    (F(2), "x2", [F(1, 8), F(1, 32), F(1, 128)]),
    (F(2), "x2x2", [F(1, 64), F(0), F(-3, 1024)]),
    (F(2), "x4", [F(3, 128), F(5, 512)]),
]


@pytest.mark.parametrize("kappa,payload,want", EXPANSIONS)
def test_expansion_lines(kappa, payload, want):
    _, got = asymptotic_expansion(payload, len(want) - 1, kappa=kappa)
    assert got == want


def test_trace_moments_match_known_closed_forms():
    for n in (2, 3, 5, 9):
        tm = trace_moments(ensemble("full-complex"), n)
        assert tm[(1, 1)] == F(n**4, 4 * n * n - 1)
        assert tm[(2,)] == F(3 * n**3 - n, 2 * (4 * n * n - 1))
        tmr = trace_moments(ensemble("full-real"), n)
        assert tmr[(1, 1)] == F(n**4 + n**3 + n, (2 * n + 1) * (2 * n + 3))
        assert tmr[(2,)] == F(3 * n**3 + 4 * n * n - n, 2 * (2 * n + 1) * (2 * n + 3))


def test_trace_moments_self_adjoint_first_zero():
    tm = trace_moments(ensemble("hermitian"), 4, "forced")
    assert tm[(1,)] == 0


def test_reconstruct_examples():
    rf = reconstruct_rational([(n, F(n, 2 * n + 1)) for n in range(1, 7)], 2)
    assert rf.numerator == (0, 1) and rf.denominator == (1, 2)
    assert laurent_coefficients(rf, 2) == [F(1, 2), F(-1, 4), F(1, 8)]
    rf = reconstruct_rational([(n, F(1, 6)) for n in range(1, 7)], 2)
    assert laurent_coefficients(rf, 2) == [F(1, 6), F(0), F(0)]


def test_reconstruct_inconsistent():
    # 2^n is not a rational function of n
    samples = [(n, F(2**n)) for n in range(1, 11)]
    with pytest.raises(InconsistentSamplesError):
        reconstruct_rational(samples, 4)


def test_reconstruct_needs_distinct_points():
    with pytest.raises(ValueError):
        reconstruct_rational([(1, F(1)), (1, F(2))], 1)


def test_rational_function_normal_form():
    # (2+4n)/(-2-6n^2): content 2 cleared, denominator leading sign made positive
    rf = RationalFunction.from_fraction_polys([F(2), F(4)], [F(-2), F(0), F(-6)])
    assert rf.denominator[-1] > 0
    assert rf(1) == F(6, -8)


def test_laurent_with_polynomial_part_removed():
    # n^2/(n+1) = n - 1 + 1/n - 1/n^2 + ...: the n^1 part is dropped, n^0 kept
    rf = RationalFunction.from_fraction_polys([F(0), F(0), F(1)], [F(1), F(1)])
    lc = laurent_coefficients(rf, 3)
    assert lc == [F(-1), F(1), F(-1), F(1)]


def test_richardson_limit():
    pairs = [(n, 0.5 - 0.25 / n + 0.125 / n**2) for n in (10, 20, 40, 80, 160)]
    assert richardson_limit(pairs) == pytest.approx(0.5, abs=1e-10)


def test_rational_function_at_fractional_n():
    rf = RationalFunction.from_fraction_polys([F(1), F(2), F(3)], [F(5), F(0), F(0), F(7)])
    for x in (F(3, 7), F(-2, 5), F(4), F(1, 1)):
        assert rf(x) == (1 + 2 * x + 3 * x**2) / (5 + 7 * x**3)
    zero = RationalFunction.from_fraction_polys([], [F(1), F(1)])
    assert zero(F(2, 3)) == 0 and zero(5) == 0


# -- the monomial moment ratios as rational functions of n ---------------------

MONOMIALS = [mu for d in range(1, 5) for mu in partitions_of(d)]
# kappa = 1/2, 1, 2, and beta/2 for every remark-beta beta of the benchmark
CLOSED_FORM_KAPPAS = sorted(
    {F(1, 2), F(1), F(2)} | {F(b) / 2 for b in ("1", "2", "4", "6", "1/2", "3/2", "5/2")}
)


def kadell_sum(mu, n, kappa):
    """J(m_mu)/J(1) at one n: sum over lambda of c_lambda times kadell_ratio."""
    return sum(
        (c * kadell_ratio(lam, n, 1, 1, kappa) for lam, c in monomial_to_jack(mu, kappa).items()),
        F(0),
    )


@pytest.mark.parametrize("kappa", CLOSED_FORM_KAPPAS, ids=str)
def test_monomial_moment_ratio_matches_per_n_kadell(kappa):
    assert len(MONOMIALS) == 11
    for mu in MONOMIALS:
        for n in range(1, 61):
            assert monomial_moment_ratio(mu, n, kappa) == kadell_sum(mu, n, kappa), (mu, n)


def test_monomial_moment_ratio_vanishes_below_the_length():
    # m_(1,1) = P_(1,1) and m_(1,1,1,1) = P_(1,1,1,1) vanish in fewer variables;
    # at kappa = 2 and 3 their Kadell products sit at a pole there
    for kappa in (F(1, 2), F(1), F(2), F(3)):
        assert monomial_moment_ratio((1, 1), 1, kappa) == 0
        for n in (1, 2, 3):
            assert monomial_moment_ratio((1, 1, 1, 1), n, kappa) == 0
        assert monomial_moment_ratio((1, 1, 1, 1), 4, kappa) > 0


@settings(deadline=None, max_examples=30)
@given(
    kappa=st.fractions(min_value=F(1, 12), max_value=5, max_denominator=12),
    mu=st.sampled_from(MONOMIALS),
    n=st.integers(min_value=1, max_value=40),
)
def test_monomial_moment_ratio_property(kappa, mu, n):
    assert monomial_moment_ratio(mu, n, kappa) == kadell_sum(mu, n, kappa)


def test_ensemble_moments_match_per_n_reference(monkeypatch):
    fields = ("M2", "M4", "M22", "M11", "var", "sigma2")
    grid = [(name, conv, n) for name in sorted(ENSEMBLES) for conv in ("forced", "paper")
            for n in range(2, 61)]
    closed = {key: ensemble_moments(ensemble(key[0]), key[2], key[1]) for key in grid}
    monkeypatch.setattr(moments, "monomial_moment_ratio", lru_cache(maxsize=None)(kadell_sum))
    for key in grid:
        ref = ensemble_moments(ensemble(key[0]), key[2], key[1])
        for f in fields:
            assert getattr(closed[key], f) == getattr(ref, f), (key, f)
