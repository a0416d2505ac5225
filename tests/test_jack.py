import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selmat.combinat import character, partition, partitions_of, zee
from selmat.exact import GammaProduct
from selmat.jack import (
    MAX_DEGREE,
    _move_matrix,
    jack_basis_matrix,
    jack_in_monomials,
    jack_in_power_sums,
    jack_row,
    kadell_ratio,
    monomial_to_jack,
    monomial_to_power_matrix,
    principal_specialization,
)
from selmat.selberg import ParamOutOfRangeError, SelbergParams, aomoto_ratio
from test_combinat import dominance_leq, monomial_count  # test-only: dominance order, m_mu(1^n)

KAPPAS = (F(1, 2), F(1), F(2), F(3))


def dense_basis(kappa, d):
    """The whole degree-d basis by the dense pull loop: the row-path reference.

    Each coefficient of P_lambda sums the moves of every coefficient already
    known, in reverse-lexicographic order, and divides kappa times that sum by
    the eigenvalue gap.
    """
    def sum_sq(lam):
        return sum(p * p for p in lam)

    def nval(lam):
        return sum(i * p for i, p in enumerate(lam))

    parts = partitions_of(d)
    moves = _move_matrix(d)
    basis = {}
    for li, lam in enumerate(parts):
        coeffs = {lam: F(1)}
        for mu in parts[li + 1:]:
            acc = F(0)
            for nu, c in coeffs.items():
                acc += c * moves.get(nu, {}).get(mu, 0)
            if acc == 0:
                continue
            gap = (sum_sq(lam) - sum_sq(mu)) + 2 * kappa * (nval(mu) - nval(lam))
            coeffs[mu] = kappa * acc / gap
        basis[lam] = coeffs
    return basis


def jack_inner_product(lam, mu, xi):
    """<P_lambda, P_mu> under <p_a, p_b> = z_a xi^l(a) delta_ab."""
    pl = jack_in_power_sums(lam, 1 / xi)
    pm = jack_in_power_sums(mu, 1 / xi)
    return sum(
        (a * pm[rho] * zee(rho) * xi ** len(rho) for rho, a in pl.items() if rho in pm),
        F(0),
    )


def principal_specialization_gamma(lam, kappa, n):
    """P_lambda(1^n) through the hook-ratio product of Gamma factors.

    Independent of the monomial path: evaluates
    prod_{i<j} (lambda_i - lambda_j + (j-i)kappa)_kappa over the unequal pairs
    times prod (j-i)/(j-i+1) (1+(j-i)kappa)_kappa over the equal ones, as a
    ratio against the empty partition; (x)_kappa = Gamma(x+kappa)/Gamma(x).
    """
    lam = partition(lam)
    kappa = F(kappa)
    if n < len(lam):
        return F(0)

    def poch(x):
        return GammaProduct(F(1), [(x + kappa, 1), (x, -1)])

    def f_of(padded):
        out = GammaProduct(F(1), [])
        for i in range(n):
            for j in range(i + 1, n):
                diff = padded[i] - padded[j]
                if diff > 0:
                    out = out * poch(diff + (j - i) * kappa)
                else:
                    out = out * poch(1 + (j - i) * kappa) * F(j - i, j - i + 1)
        return out

    return (f_of(lam + (0,) * (n - len(lam))) / f_of((0,) * n)).simplify()


@pytest.mark.parametrize("kappa", [F(1, 3), F(1, 2), F(1), F(3, 2), F(2), F(3)])
def test_rows_equal_the_dense_basis(kappa):
    # values and key order of every row up to degree 9
    for d in range(10):
        for lam, want in dense_basis(kappa, d).items():
            assert list(jack_row(kappa, lam).items()) == list(want.items()), (kappa, lam)


def test_one_row_builds_no_basis():
    # a single Jack polynomial reads one row; its specialization and its Kadell
    # ratio read none (no other test builds a degree-12 row at kappa = 5/13)
    kap = F(5, 13)
    misses = jack_basis_matrix.cache_info().misses
    assert jack_in_monomials((MAX_DEGREE,), kap).coeff((MAX_DEGREE,)) == 1
    assert jack_basis_matrix.cache_info().misses == misses
    rows = jack_row.cache_info().misses
    assert principal_specialization((5, 4, 3), kap, 3) > 0
    assert kadell_ratio((6, 6), 4, 1, 1, kap) > 0
    assert jack_row.cache_info().misses == rows


def test_first_table_row():
    for kap in KAPPAS:
        p2 = jack_in_monomials((2,), kap)
        assert p2.coeff((2,)) == 1
        assert p2.coeff((1, 1)) == 2 * kap / (kap + 1)


def test_schur_case_degree3():
    # kappa = 1 gives the Schur polynomials: s_(2,1) = m_(2,1) + 2 m_(1,1,1)
    p21 = jack_in_monomials((2, 1), F(1))
    assert p21.as_dict() == {(2, 1): F(1), (1, 1, 1): F(2)}


def test_elementary_rows():
    for kap in KAPPAS:
        for k in (1, 2, 3, 4):
            ek = jack_in_monomials((1,) * k, kap)
            assert ek.as_dict() == {(1,) * k: F(1)}


def test_monomial_to_jack_row():
    for kap in KAPPAS:
        m2 = monomial_to_jack((2,), kap)
        assert m2 == {(2,): F(1), (1, 1): -2 * kap / (kap + 1)}
        m31 = monomial_to_jack((3, 1), kap)
        assert m31.get((2, 2), F(0)) == -2 * kap / (kap + 1)
        assert m31.get((2, 1, 1), F(0)) == -kap * (kap + 3) / (kap + 1) ** 2
        assert m31.get((1, 1, 1, 1), F(0)) == 24 * kap**2 / ((2 * kap + 1) * (3 * kap + 1))


def test_unitriangularity():
    for kap in (F(1, 2), F(1), F(2), F(3)):
        for d in range(1, 7):
            for lam in partitions_of(d):
                poly = jack_in_monomials(lam, kap)
                assert poly.coeff(lam) == 1
                for mu, c in poly.coeffs:
                    assert dominance_leq(mu, lam)


def test_inverse_consistency():
    for kap in (F(1, 2), F(2), F(5, 3)):
        for d in range(1, 6):
            parts = partitions_of(d)
            for mu in parts:
                acc = {}
                for lam, c in monomial_to_jack(mu, kap).items():
                    for nu, t in jack_in_monomials(lam, kap).coeffs:
                        acc[nu] = acc.get(nu, F(0)) + c * t
                acc = {k: v for k, v in acc.items() if v != 0}
                assert acc == {mu: F(1)}


def test_orthogonality_degree_le_4():
    for xi in (F(1), F(2), F(1, 2), F(3)):
        for d in (2, 3, 4):
            parts = partitions_of(d)
            for i, lam in enumerate(parts):
                for mu in parts[i + 1:]:
                    assert jack_inner_product(lam, mu, xi) == 0
                assert jack_inner_product(lam, lam, xi) > 0


@pytest.mark.parametrize("d", range(1, 9))
def test_monomial_to_power_matrix_against_characters(d):
    # at kappa = 1 P_lambda is the Schur function, s_lambda = sum chi^lambda(rho)/z_rho p_rho
    m2p = monomial_to_power_matrix(d)
    schur = jack_basis_matrix(F(1), d)
    for lam in partitions_of(d):
        got = {}
        for mu, c in schur[lam].items():
            for rho, t in m2p[mu].items():
                got[rho] = got.get(rho, F(0)) + c * t
        for rho in partitions_of(d):
            assert got.get(rho, 0) == F(character(lam, rho), zee(rho)), (lam, rho)


@settings(deadline=None, max_examples=25)
@given(
    kappa=st.fractions(min_value=F(1, 20), max_value=20, max_denominator=20),
    d=st.integers(min_value=1, max_value=6),
)
def test_jack_basis_unitriangular_property(kappa, d):
    for lam, row in jack_basis_matrix(kappa, d).items():
        assert row[lam] == 1
        assert all(dominance_leq(mu, lam) for mu in row)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=1, max_value=6).flatmap(lambda d: st.sampled_from(partitions_of(d))))
def test_schur_power_sum_property(lam):
    # kappa = 1: [p_rho] s_lambda = chi^lambda(rho) / z_rho
    got = jack_in_power_sums(lam, F(1))
    for rho in partitions_of(sum(lam)):
        assert got.get(rho, 0) == F(character(lam, rho), zee(rho)), rho


def test_principal_specialization_examples():
    assert principal_specialization((1, 1), F(7, 5), 3) == 3  # e_2(1,1,1)
    assert principal_specialization((2,), F(1), 2) == 3
    for kap in KAPPAS:
        for n in (1, 2, 3, 6):
            want = n + kap * n * (n - 1) / (kap + 1)
            assert principal_specialization((2,), kap, n) == want


def test_principal_specialization_matches_the_monomial_route():
    # the reference: P_lambda(1^n) = sum_mu [m_mu]P_lambda m_mu(1^n), from the Jack row
    # kappa != 1: arm + kappa (leg + 1) is symmetric in arm and leg at kappa = 1
    cases = 0
    for kap in (F(1, 3), F(2), F(7, 11)):
        for d in range(MAX_DEGREE + 1):
            for lam in partitions_of(d):
                row = jack_row(kap, lam)
                for n in sorted({len(lam) - 1, len(lam), len(lam) + 2, 20} - {-1}):
                    want = sum((c * monomial_count(mu, n) for mu, c in row.items()), F(0))
                    assert principal_specialization(lam, kap, n) == want, (kap, lam, n)
                    cases += 1
    assert cases == 3261


def test_principal_vanishes_below_length():
    assert principal_specialization((2, 1, 1), F(2), 2) == 0
    assert principal_specialization((1, 1, 1, 1), F(1, 2), 3) == 0


def test_principal_specialization_gamma_crosscheck():
    for kap in (F(1, 2), F(1), F(2), F(5, 3), F(7, 2)):
        for d in (1, 2, 3, 4):
            for lam in partitions_of(d):
                for n in (len(lam), len(lam) + 1, len(lam) + 3):
                    a = principal_specialization(lam, kap, n)
                    b = principal_specialization_gamma(lam, kap, n)
                    assert a == b, (lam, kap, n)


def test_stability_no_n_dependence():
    # the basis matrix is built once per (kappa, degree); identical object reuse
    a = jack_basis_matrix(F(2), 4)
    b = jack_basis_matrix(F(2), 4)
    assert a is b


def test_kadell_examples():
    assert kadell_ratio((1, 1), 2, 1, 1, F(1)) == F(1, 6)
    for n in (2, 3, 5, 11):
        assert kadell_ratio((1, 1), n, 1, 1, F(1)) == F(n * (n - 1), 4) * F(n - 1, 2 * n - 1)
        assert kadell_ratio((2,), n, 1, 1, F(1, 2)) == F(n * (n + 3), 12)


def test_kadell_zero_below_length():
    assert kadell_ratio((1, 1, 1), 2, 1, 1, F(1)) == 0


def test_kadell_elementary_equals_aomoto():
    for n in (2, 3, 4, 5):
        for kap in (F(1, 2), F(1), F(2)):
            for (u, w) in ((F(1), F(1)), (F(3, 2), F(2))):
                p = SelbergParams(n, u, w, kap)
                for m in range(1, min(n, 4) + 1):
                    assert kadell_ratio((1,) * m, n, u, w, kap) == aomoto_ratio(p, m)


def test_kadell_param_validation():
    with pytest.raises(ParamOutOfRangeError):
        kadell_ratio((2,), 2, 0, 1, F(1))


def test_degree_cap():
    with pytest.raises(ValueError):
        jack_in_monomials((13,), F(1))
    with pytest.raises(ValueError):
        jack_basis_matrix(F(1), MAX_DEGREE + 1)
    # the cap itself works
    poly = jack_in_monomials((MAX_DEGREE,), F(1))
    assert poly.coeff((MAX_DEGREE,)) == 1


def test_kappa_positive_required():
    with pytest.raises(ValueError):
        jack_in_monomials((2,), F(-1))
    with pytest.raises(ValueError):
        jack_in_monomials((2,), 0)
    with pytest.raises(ValueError):
        jack_basis_matrix(F(0), 2)


def test_random_degree_unitriangular_high():
    rng = random.Random(13)
    kap = F(rng.randint(1, 9), rng.randint(1, 9))
    for lam in ((5, 3, 2), (4, 4, 1, 1), (7, 3)):
        poly = jack_in_monomials(lam, kap)
        assert poly.coeff(lam) == 1
        for mu, _ in poly.coeffs:
            assert dominance_leq(mu, lam)


# closed-form normalised integrals I(lambda)/I(0) at u = w = 1 for the three
# special kappa values, as explicit rational functions of n
def _ratio_table(kap, n):
    F_ = F
    if kap == F_(1):
        return {
            (1, 1): F_(n * (n - 1), 4) * F_(n - 1, 2 * n - 1),
            (2,): F_(n * (n + 1), 4) * F_(n + 1, 2 * n + 1),
            (1, 1, 1): F_(n * (n - 1) * (n - 2), 24) * F_(n - 2, 2 * n - 1),
            (2, 1): F_(n * (n - 1) * (n + 1), 6) * F_(n + 1, 2 * n + 1) * F_(n - 1, 2 * n - 1),
            (3,): F_((n + 2) * (n + 1) * n, 24) * F_(n + 2, 2 * n + 1),
            (1, 1, 1, 1): F_(n * (n - 1) * (n - 2) * (n - 3), 96)
            * F_(n - 2, 2 * n - 1) * F_(n - 3, 2 * n - 3),
            (2, 1, 1): F_((n + 1) * n * (n - 1) * (n - 2), 32)
            * F_(n + 1, 2 * n + 1) * F_(n - 2, 2 * n - 1),
            (2, 2): F_(n * (n - 1) * (n + 1) * n, 48)
            * F_(n + 1, 2 * n + 1) * F_(n - 1, 2 * n - 1),
            (3, 1): F_((n + 2) * (n + 1) * n * (n - 1), 32)
            * F_(n + 2, 2 * n + 1) * F_(n - 1, 2 * n - 1),
            (4,): F_((n + 3) * (n + 2) * (n + 1) * n, 96)
            * F_(n + 3, 2 * n + 3) * F_(n + 2, 2 * n + 1),
        }
    if kap == F_(1, 2):
        return {
            (1, 1): F_(n * (n - 1), 4) * F_(n, 2 * n + 1),
            (2,): F_(n * (n + 2), 12) * F_(n + 3, n + 2),
            (1, 1, 1): F_(n * (n - 1) * (n - 2), 24) * F_(n - 1, 2 * n + 1),
            (2, 1): F_(n * (n - 1) * (n + 2), 16) * F_(n + 3, n + 2) * F_(n, 2 * n + 1),
            (3,): F_((n + 4) * (n + 2) * n, 120) * F_(n + 5, n + 2),
            (1, 1, 1, 1): F_(n * (n - 1) * (n - 2) * (n - 3), 96)
            * F_(n - 1, 2 * n + 1) * F_(n - 2, 2 * n - 1),
            (2, 1, 1): F_((n + 2) * n * (n - 1) * (n - 2), 80)
            * F_(n + 3, n + 2) * F_(n - 1, 2 * n + 1),
            (2, 2): F_(n * (n - 1) * (n + 2) * (n + 1), 96)
            * F_(n + 3, n + 2) * F_(n + 2, 2 * n + 3) * F_(n, 2 * n + 1),
            (3, 1): F_((n + 4) * (n + 2) * n * (n - 1), 144)
            * F_(n + 5, n + 2) * F_(n, 2 * n + 1),
            (4,): F_((n + 6) * (n + 4) * (n + 2) * n, 1680)
            * F_(n + 7, n + 4) * F_(n + 5, n + 2),
        }
    if kap == F_(2):
        return {
            (1, 1): F_(n * (n - 1), 16) * F_(2 * n - 3, n - 1),
            (2,): F_(n * (2 * n + 1), 6) * F_(2 * n, 4 * n - 1),
            (1, 1, 1): F_(n * (n - 1) * (n - 2), 96) * F_(2 * n - 5, n - 1),
            (2, 1): F_(n * (n - 1) * (2 * n + 1), 20)
            * F_(n, 4 * n - 1) * F_(2 * n - 3, n - 1),
            (3,): F_((n + 1) * (2 * n + 1) * n, 24) * F_(2 * n + 1, 4 * n - 1),
            (1, 1, 1, 1): F_(n * (n - 1) * (n - 2) * (n - 3), 1536)
            * F_(2 * n - 5, n - 1) * F_(2 * n - 7, n - 2),
            (2, 1, 1): F_((2 * n + 1) * n * (n - 1) * (n - 2), 112)
            * F_(n, 4 * n - 1) * F_(2 * n - 5, n - 1),
            (2, 2): F_(n * (n - 1) * (2 * n + 1) * (2 * n - 1), 60)
            * F_(2 * n, 4 * n - 1) * F_(2 * n - 2, 4 * n - 3) * F_(2 * n - 3, 4 * n - 4),
            (3, 1): F_((2 * n + 2) * (2 * n + 1) * n * (n - 1), 72)
            * F_(2 * n + 1, 4 * n - 1) * F_(2 * n - 3, 4 * n - 4),
            (4,): F_((2 * n + 3) * (2 * n + 2) * (2 * n + 1) * n, 240)
            * F_(2 * n + 2, 4 * n + 1) * F_(2 * n + 1, 4 * n - 1),
        }
    raise ValueError(kap)


@pytest.mark.parametrize("kappa", [F(1), F(1, 2), F(2)])
def test_kadell_ratio_closed_form_tables(kappa):
    for n in (4, 5, 7, 12, 30):
        table = _ratio_table(kappa, n)
        for lam, want in table.items():
            assert kadell_ratio(lam, n, 1, 1, kappa) == want, (kappa, n, lam)
