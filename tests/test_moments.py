import json
import math
from fractions import Fraction as F
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from selmat import moments
from selmat.combinat import partitions_of
from selmat.exact import pochhammer
from selmat.jack import jack_row, kadell_factors, monomial_to_jack
from selmat.moments import (
    ENSEMBLES,
    InconsistentSamplesError,
    RationalFunction,
    asymptotic_expansion,
    beta_remark_combination,
    beta_remark_function,
    ensemble,
    ensemble_moment_functions,
    ensemble_moments,
    full_matrix_moment_ratio,
    laurent_coefficients,
    monomial_moment_ratio,
    reconstruct_rational,
    shifted_moment_ratio,
    trace_moments,
)
from selmat.selberg import SelbergParams, aomoto_general_ratio, aomoto_ratio
from test_combinat import monomial_count  # test-only: m_mu(1^n)


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
    # one formula, generic in n: the dimension function agrees with each int n
    for spec in ENSEMBLES.values():
        assert all(spec.dim(moments._N)(n) == spec.dim(n) for n in range(1, 9))
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


# (u, w, kappa): (1, 1, kappa) at those kappas, the six balls' weights, and two
# with u != w whose denominators are not kappa's (the builder scales by their lcm)
KADELL_WEIGHTS = sorted(
    {(F(1), F(1), k) for k in CLOSED_FORM_KAPPAS}
    | {tuple(map(F, spec.weight)) for spec in ENSEMBLES.values()}
    | {(F(1, 3), F(1, 2), F(3, 2)), (F(3, 2), F(2), F(1, 2))}
)


def weight_id(weight):
    u, w, kappa = weight
    return str(kappa) if u == w == 1 else ",".join(map(str, weight))


@lru_cache(maxsize=None)
def principal_by_row(lam, kappa, n):
    """P_lambda(1^n) = sum_nu [m_nu]P_lambda m_nu(1^n), from the Jack row, not the hook product."""
    return sum((c * monomial_count(nu, n) for nu, c in jack_row(kappa, lam).items()), F(0))


def kadell_sum(mu, n, u, w, kappa):
    """J(m_mu)/J(1) at one n: sum over lambda of c_lambda K_lambda(n), independently of jack's
    Kadell factors: K_lambda(n) = P_lambda(1^n) prod_i (u+(n-i)kappa)_{lambda_i} /
    (u+w+(2n-i-1)kappa)_{lambda_i} at this n, and 0 for n < l(lambda).
    """
    u, w, kappa = F(u), F(w), F(kappa)
    total = F(0)
    for lam, c in monomial_to_jack(mu, kappa).items():
        if n < len(lam):
            continue
        k = principal_by_row(lam, kappa, n)
        for i, part in enumerate(lam, start=1):
            k *= pochhammer(u + (n - i) * kappa, part)
            k /= pochhammer(u + w + (2 * n - i - 1) * kappa, part)
        total += c * k
    return total


@pytest.mark.parametrize("weight", KADELL_WEIGHTS, ids=weight_id)
def test_monomial_moment_ratio_matches_per_n_kadell(weight):
    assert len(MONOMIALS) == 11
    for mu in MONOMIALS:
        for n in range(1, 61):
            assert monomial_moment_ratio(mu, n, *weight) == kadell_sum(mu, n, *weight), (mu, n)


@pytest.mark.parametrize("weight", [(F(1), F(1), F(1, 2)), (F(1, 3), F(1, 2), F(3, 2))], ids=weight_id)
def test_monomial_moment_ratio_matches_per_n_kadell_degree_5_to_8(weight):
    # the hook factors of large partitions: arms and legs up to 7, rows and columns up to 7
    monomials = [mu for d in range(5, 9) for mu in partitions_of(d)]
    assert len(monomials) == 55
    for mu in monomials:
        for n in (*range(1, 10), 12, 30):  # every m = min(n, |mu|), then two n past it
            assert monomial_moment_ratio(mu, n, *weight) == kadell_sum(mu, n, *weight), (mu, n)


def test_kadell_factors_are_built_once_per_partition():
    # at m = 12 the 77 degree-12 monomial functions read every lambda of degree 12;
    # each lambda's factors are built once, not once per mu (no other test uses this weight)
    weight = (F(2, 3), F(5, 4), F(1))
    misses = kadell_factors.cache_info().misses
    for mu in partitions_of(12):
        moments.monomial_moment_function(mu, *weight, 12)
    assert kadell_factors.cache_info().misses - misses == len(partitions_of(12)) == 77


def _monomial_function_by_form_products(mu, u, w, kappa, m):
    # monomial_moment_function as it was written before the expanded numerators were
    # cached: each term multiplies its lambda's numerator forms out again
    terms = []
    for lam, c in monomial_to_jack(mu, kappa).items():
        if len(lam) <= m:
            scale, forms, den = kadell_factors(lam, u, w, kappa)
            poly = [1]
            for form in forms:
                poly = moments._poly_mul(poly, form)
            terms.append((c * scale, poly, Counter(den)))
    lcm = {}
    for _, _, den in terms:
        for f, k in den.items():
            lcm[f] = max(lcm.get(f, 0), k)
    common = math.lcm(*(c.denominator for c, _, _ in terms))
    num = []
    for c, poly, den in terms:
        for form, k in lcm.items():
            for _ in range(k - den[form]):
                poly = moments._poly_mul(poly, form)
        num = moments._poly_add(num, [int(c * common) * x for x in poly])
    den_poly = [common]
    for form, k in lcm.items():
        for _ in range(k):
            den_poly = moments._poly_mul(den_poly, form)
    return moments.RationalFunction.from_fraction_polys(num, den_poly)


def test_monomial_functions_read_the_cached_numerators_unchanged():
    weight = (F(2, 3), F(5, 4), F(1))
    for d in range(1, 9):
        for mu in partitions_of(d):
            for m in range(1, d + 1):
                got = moments.monomial_moment_function(mu, *weight, m)
                want = _monomial_function_by_form_products(mu, *weight, m)
                assert (got.numerator, got.denominator) == (want.numerator, want.denominator), (mu, m)


def test_monomial_moment_ratio_vanishes_below_the_length():
    # m_(1,1) = P_(1,1) and m_(1,1,1,1) = P_(1,1,1,1) vanish in fewer variables;
    # at kappa = 2 and 3 their Kadell products sit at a pole there
    for kappa in (F(1, 2), F(1), F(2), F(3)):
        assert monomial_moment_ratio((1, 1), 1, 1, 1, kappa) == 0
        for n in (1, 2, 3):
            assert monomial_moment_ratio((1, 1, 1, 1), n, 1, 1, kappa) == 0
        assert monomial_moment_ratio((1, 1, 1, 1), 4, 1, 1, kappa) > 0


@settings(deadline=None, max_examples=30)
@given(
    u=st.fractions(min_value=F(1, 12), max_value=5, max_denominator=12),
    w=st.fractions(min_value=F(1, 12), max_value=5, max_denominator=12),
    kappa=st.fractions(min_value=F(1, 12), max_value=5, max_denominator=12),
    mu=st.sampled_from(MONOMIALS),
    n=st.integers(min_value=1, max_value=40),
)
def test_monomial_moment_ratio_property(u, w, kappa, mu, n):
    assert monomial_moment_ratio(mu, n, u, w, kappa) == kadell_sum(mu, n, u, w, kappa)


# -- the Q(n) builders against per-n references --------------------------------

REFERENCE_NS = list(range(2, 61)) + [100, 700, 2000]
REMARK_BETAS = [F(b) for b in ("1", "2", "4", "6", "1/2", "3/2", "5/2")]


@lru_cache(maxsize=None)
def kadell_sum_cached(mu, n, kappa):
    return kadell_sum(mu, n, 1, 1, kappa)


def shifted_reference(payload, n, kappa):
    """The (t1-1/2)-power payloads at one n from per-n Kadell sums."""
    R = lambda mu: kadell_sum_cached(mu, n, kappa)
    if payload == "x2":
        return R((2,)) / n - R((1,)) / n + F(1, 4)
    if payload == "x1x1":
        return 2 * R((1, 1)) / (n * (n - 1)) - R((1,)) / n + F(1, 4)
    if payload == "x2x2":
        return (2 * R((2, 2)) / (n * (n - 1)) - 2 * R((2, 1)) / (n * (n - 1)) + R((2,)) / (2 * n)
                + 2 * R((1, 1)) / (n * (n - 1)) - R((1,)) / (2 * n) + F(1, 16))
    assert payload == "x4"
    return R((4,)) / n - 2 * R((3,)) / n + 3 * R((2,)) / (2 * n) - R((1,)) / (2 * n) + F(1, 16)


def box_variance_reference(n, M2, M22, M4):
    return n * M4 + n * (n - 1) * M22 - (n * M2) ** 2


def moments_reference(spec, n, convention):
    """(M2, M4, M22, M11, var, sigma2) at one n: Kadell sums or Aomoto ratios."""
    if spec.family == moments.SELF_ADJOINT:
        s2, s4 = {"forced": (4, 16), "paper": (2, 4)}[convention]
        M2, M11, M22, M4 = (
            s * shifted_reference(p, n, spec.kappa)
            for s, p in ((s2, "x2"), (s2, "x1x1"), (s4, "x2x2"), (s4, "x4"))
        )
    else:
        half = F(spec.beta, 2)
        p = SelbergParams(n, half, 1, half)
        M2 = aomoto_ratio(p, 1) / n
        M22 = M2 - aomoto_general_ratio(p, 1, 1, 0)
        M4 = M2 - aomoto_general_ratio(p, 1, 1, 1)
        M11 = None
    T2, T4 = n * M2, n * M4 + n * (n - 1) * M22
    return M2, M4, M22, M11, box_variance_reference(n, M2, M22, M4), spec.dim(n) * (T4 / T2**2 - 1)


def test_ensemble_moments_match_per_n_reference():
    # n < 4 takes the per-n formulas, n >= 4 the functions of n from the builder
    fields = moments.MOMENT_FIELDS
    for name in sorted(ENSEMBLES):
        spec = ensemble(name)
        for conv in ("forced", "paper"):
            for n in REFERENCE_NS:
                got = ensemble_moments(spec, n, conv)
                for f, want in zip(fields, moments_reference(spec, n, conv)):
                    assert getattr(got, f) == want, (name, conv, n, f)


@pytest.mark.parametrize("beta", REMARK_BETAS, ids=str)
def test_remark_matches_per_n_reference(beta):
    kap = beta / 2
    for n in REFERENCE_NS:
        j2, j22, j4 = (shifted_reference(p, n, kap) for p in ("x2", "x2x2", "x4"))
        assert beta_remark_combination(n, beta) == box_variance_reference(n, j2, j22, j4), n


def test_built_functions_equal_the_reconstruction():
    def reconstructed(fn):
        return reconstruct_rational([(n, fn(n)) for n in range(4, 26)], 10)

    for name in sorted(ENSEMBLES):
        spec = ensemble(name)
        fns = ensemble_moment_functions(spec, "forced")
        assert fns[-2] == reconstructed(lambda n: ensemble_moments(spec, n).var)
        assert fns[-1] == reconstructed(lambda n: ensemble_moments(spec, n).sigma2)
    for beta in (F(1), F(5, 2)):
        assert beta_remark_function(beta) == reconstructed(
            lambda n: box_variance_reference(
                n, *(shifted_reference(p, n, beta / 2) for p in ("x2", "x2x2", "x4"))))
    for beta in range(1, 7):
        for p in ("x2", "x2x2", "x4"):
            rf, _ = asymptotic_expansion(f"fm-{p}", 0, beta=beta)
            assert rf == reconstructed(lambda n: full_matrix_moment_ratio(p, n, beta)), (p, beta)


def test_closed_form_quantities_are_not_reconstructed(monkeypatch):
    def refuse(*args):
        raise AssertionError("reconstruct_rational called")

    monkeypatch.setattr(moments, "reconstruct_rational", refuse)
    rf, lc = asymptotic_expansion("var", 1, ensemble_name="hermitian", convention="paper")
    assert rf == ensemble_moment_functions(ensemble("hermitian"), "paper")[-2]
    assert lc[0] == F(1, 32)
    _, lc = asymptotic_expansion("sigma2", 0, ensemble_name="full-real")
    assert lc == [F(1, 2)]
    _, lc = asymptotic_expansion("remark", 0, beta=F(5, 2))
    assert lc == [F(1, 160)]
    _, lc = asymptotic_expansion("fm-x4", 1, beta=3)
    assert lc == [F(3, 8), F(1, 12)]


def test_bad_convention_raises_before_any_builder_is_cached():
    # the builders' caches store nothing; the monomial tables are not even asked
    builders = (moments.ensemble_moment_functions, moments.beta_remark_function)
    tables = (moments.monomial_moment_function, moments.monomial_moment_ratio)
    before = [c.cache_info().currsize for c in builders] + [c.cache_info() for c in tables]
    for name in ("quaternion", "full-complex"):
        for n in (3, 5):
            with pytest.raises(ValueError, match="unknown convention"):
                ensemble_moments(ensemble(name), n, "bogus")
        with pytest.raises(ValueError, match="unknown convention"):
            asymptotic_expansion("var", 1, ensemble_name=name, convention="bogus")
        with pytest.raises(ValueError, match="unknown convention"):
            ensemble_moment_functions(ensemble(name), "bogus")
    for beta in (0, -1, -2):
        with pytest.raises(ValueError, match="beta must be positive"):
            asymptotic_expansion("remark", 0, beta=beta)
        with pytest.raises(ValueError, match="beta must be positive"):
            asymptotic_expansion("fm-x2", 0, beta=beta)
        with pytest.raises(ValueError, match="beta must be positive"):
            beta_remark_combination(5, beta)
    assert [c.cache_info().currsize for c in builders] + [c.cache_info() for c in tables] == before


# -- RationalFunction arithmetic ------------------------------------------------

X = RationalFunction((0, 1), (1,))  # the identity function n


def poly_gcd_over_q(a, b):
    """Monic gcd over Q by Fraction Euclid: an independent check of coprimality."""
    a, b = [F(c) for c in a], [F(c) for c in b]
    while b:
        while len(a) >= len(b):
            f, k = a[-1] / b[-1], len(a) - len(b)
            a = [c - f * b[i - k] if i >= k else c for i, c in enumerate(a)][:-1]
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return [c / a[-1] for c in a]


def assert_normal_form(rf):
    num, den = rf.numerator, rf.denominator
    assert all(type(c) is int for c in num + den)
    assert den and den[-1] > 0
    if not num:
        assert den == (1,)
        return
    assert num[-1] != 0
    assert math.gcd(*num, *den) == 1
    assert poly_gcd_over_q(num, den) == [1]


def test_rational_function_arithmetic_examples():
    one = RationalFunction((1,), (1,))
    assert X / (2 * X + 1) + 1 == (3 * X + 1) / (2 * X + 1)
    assert X / (X + 1) * ((X + 1) / X) == one
    assert 1 / X - 1 / (X + 1) == 1 / (X * (X + 1))
    assert (1 / X - 1 / (X + 1)).denominator == (0, 1, 1)
    assert (X - 1) ** 2 == X * X - 2 * X + 1
    assert (X / 2) ** -2 == 4 / X**2
    assert X**0 == one
    assert F(1, 2) - X / 2 == (1 - X) / 2
    assert 3 / (X / 3) == 9 / X
    assert -(X / (1 - X)) == X / (X - 1)
    assert (X / (X - 1)).denominator == (-1, 1)  # leading denominator coefficient positive
    assert (X - X) == RationalFunction((), (1,))
    # (2n^2 - 2)/(4n + 4) cancels to (n - 1)/2
    assert (2 * X * X - 2) / (4 * X + 4) == RationalFunction((-1, 1), (2,))


def test_rational_function_zero_division():
    zero = X - X
    with pytest.raises(ZeroDivisionError):
        X / zero
    with pytest.raises(ZeroDivisionError):
        1 / zero
    with pytest.raises(ZeroDivisionError):
        zero ** -1
    with pytest.raises(ZeroDivisionError):
        X / 0
    with pytest.raises(TypeError):
        X + 0.5


small_polys = st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=4)


@st.composite
def small_functions(draw):
    num = draw(small_polys)
    den = draw(small_polys.filter(any))
    return RationalFunction.from_fraction_polys([F(c) for c in num], [F(c) for c in den])


def value_at(f, x):
    """f(x) from its coefficients directly, or None at a pole."""
    den = sum(c * x**k for k, c in enumerate(f.denominator))
    if den == 0:
        return None
    return sum(c * x**k for k, c in enumerate(f.numerator)) / den


@settings(deadline=None, max_examples=150)
@given(
    f=small_functions(),
    g=st.one_of(small_functions(), st.integers(-3, 3), st.fractions(-3, 3, max_denominator=5)),
    x=st.fractions(min_value=-10, max_value=10, max_denominator=20),
)
def test_rational_function_arithmetic_property(f, g, x):
    fx = value_at(f, x)
    gx = value_at(g, x) if isinstance(g, RationalFunction) else F(g)
    assume(fx is not None and gx is not None)
    results = [(f + g, fx + gx), (g + f, fx + gx), (f - g, fx - gx), (g - f, gx - fx),
               (f * g, fx * gx), (g * f, fx * gx), (f**2, fx**2), (-f, -fx)]
    if gx != 0:
        results.append((f / g, fx / gx))
    if fx != 0:
        results += [(g / f, gx / fx), (f**-3, fx**-3)]
    for h, want in results:
        assert_normal_form(h)
        if value_at(h, x) is not None:  # a cancelled common factor can leave no pole at x
            assert h(x) == want
    assert f - f == RationalFunction((), (1,))
    assert f * 1 == f and f + 0 == f
    g_is_zero = not isinstance(g, RationalFunction) and g == 0 or g == RationalFunction((), (1,))
    if g_is_zero:
        with pytest.raises(ZeroDivisionError):
            f / g
