import itertools
import math
from collections import Counter
from fractions import Fraction as F

import pytest

from selmat import weingarten
from selmat.combinat import (
    Permutation,
    character,
    coset_type,
    cycle_type,
    hyperoctahedral,
    pair_partitions,
    partitions_of,
)
from selmat.moments import ensemble, ensemble_moments, trace_moments
from selmat.weingarten import (
    c_lambda,
    c_lambda_prime,
    conj_invariant_moment_orthogonal,
    conj_invariant_moment_unitary,
    covariance_report,
    haar_moment_orthogonal,
    haar_moment_unitary,
    lr_moment_real,
    negcorr_report,
    wg_orthogonal,
    wg_unitary,
    zonal_spherical,
)


def test_c_lambda_examples():
    assert c_lambda((2,), 3) == 12
    assert c_lambda((1, 1), 3) == 6
    assert c_lambda((1,), 5) == 5
    for n in (2, 3, 9):
        assert c_lambda((2,), n) == n * (n + 1)
        assert c_lambda_prime((2,), n) == n * (n + 2)
        assert c_lambda_prime((1, 1), n) == n * (n - 1)
        assert c_lambda_prime((1,), n) == n


def test_wg_unitary_closed_forms():
    for n in range(3, 21):
        assert wg_unitary((1, 1), 2, n) == F(1, n * n - 1)
        assert wg_unitary((2,), 2, n) == F(-1, n * (n * n - 1))
        assert wg_unitary((1,), 1, n) == F(1, n)


def test_wg_unitary_is_class_function():
    # the k = 3 table covers every cycle type, and Wg is the inverse of
    # z^#cycles in the group algebra: sum_sigma Wg(sigma tau^-1) z^#cycles(sigma) = [tau = e]
    z = 7
    assert set(weingarten._wg_unitary_table(3, F(z), None)) == set(partitions_of(3))
    perms = [Permutation(images) for images in itertools.permutations((1, 2, 3))]
    for tau in perms:
        total = sum(
            wg_unitary(cycle_type(sigma * tau.inverse()), 3, z) * z ** len(cycle_type(sigma))
            for sigma in perms
        )
        assert total == (cycle_type(tau) == (1, 1, 1)), tau


def test_wg_unitary_two_parameter():
    # Wg(e; n, n) and Wg((12); n, n) used by the left-right correlation sums
    for n in (3, 5, 10):
        e = wg_unitary((1, 1), 2, n, n)
        t = wg_unitary((2,), 2, n, n)
        assert e == F(n * n + 1, (n * (n * n - 1)) ** 2)
        assert t == F(-2, n * (n * n - 1) ** 2)


def test_wg_pole_filter():
    # z = 1 kills C_lambda for all lambda of 2 except (2,): term filtered, sum kept
    val = wg_unitary((1, 1), 2, 1)
    assert val == F(1, 2) * F(1, c_lambda((2,), 1))
    # the orthogonal filter at z = 1: C'_(1,1)(1) = 0 drops that term
    val = wg_orthogonal((1, 1), 2, 1)
    assert val == F(8, 24) * F(1, c_lambda_prime((2,), 1))


def test_zonal_spherical_values():
    for images in itertools.permutations((1, 2, 3, 4)):
        assert zonal_spherical((2,), Permutation(images)) == 1
    assert zonal_spherical((1, 1), Permutation.identity(4)) == 1
    assert zonal_spherical((1, 1), Permutation.from_cycles(4, (2, 3))) == F(-1, 2)


def test_zonal_spherical_constant_on_cosets():
    # omega is H_k-bi-invariant, so it only depends on the coset type
    from selmat.combinat import coset_type, hyperoctahedral

    h2 = hyperoctahedral(2)
    for images in itertools.permutations((1, 2, 3, 4)):
        s = Permutation(images)
        base = zonal_spherical((1, 1), s)
        for z in h2:
            assert zonal_spherical((1, 1), z * s) == base
            assert zonal_spherical((1, 1), s * z) == base


def test_zonal_spherical_matches_hyperoctahedral_average():
    # omega^lambda(sigma) = (1/|H_k|) sum_{zeta in H_k} chi^(2 lambda)(sigma zeta)
    for k in (1, 2, 3):
        group = hyperoctahedral(k)
        for lam in partitions_of(k):
            two_lam = tuple(2 * p for p in lam)
            for sigma in pair_partitions(k):
                avg = F(sum(character(two_lam, cycle_type(sigma * z)) for z in group), len(group))
                assert zonal_spherical(lam, sigma) == avg, (lam, sigma)


@pytest.mark.parametrize("k", [4, 5, 6])
def test_wg_orthogonal_inverts_gram_matrix(k):
    types = Counter(coset_type(sigma) for sigma in pair_partitions(k))
    for n in (k + 1, 2 * k + 3, 20):
        wg = {rho: wg_orthogonal(rho, k, n) for rho in types}
        # e-row of Wg = G^-1 with G(sigma, tau) = n^l(coset_type(sigma^-1 tau))
        assert sum(c * wg[rho] * n ** len(rho) for rho, c in types.items()) == 1
        # E[O_11^2k] / (2k-1)!!
        assert sum(c * wg[rho] for rho, c in types.items()) == F(
            1, math.prod(n + 2 * i for i in range(k))
        )


def test_wg_orthogonal_closed_forms():
    for n in range(3, 21):
        assert wg_orthogonal((1, 1), 2, n) == F(n + 1, n * (n - 1) * (n + 2))
        assert wg_orthogonal((2,), 2, n) == F(-1, n * (n - 1) * (n + 2))
        assert wg_orthogonal((1,), 1, n) == F(1, n)


def test_wg_orthogonal_k3_consistency():
    # k = 3 table exists and is constant on double cosets
    from selmat.combinat import coset_type

    vals = weingarten._wg_orthogonal_table(3, F(9))
    assert set(vals) == set(partitions_of(3))
    for sigma in pair_partitions(3):
        assert wg_orthogonal(coset_type(sigma), 3, 9) == vals[coset_type(sigma)]


def test_haar_moment_unitary_known_values():
    for n in (3, 4, 7):
        assert haar_moment_unitary((1,), (1,), (1,), (1,), n) == F(1, n)
        # E|U11|^4 = 2/(n(n+1)); E[|U11|^2 |U22|^2] = 1/(n^2-1) (only sigma = tau = e)
        v = haar_moment_unitary((1, 1), (1, 1), (1, 1), (1, 1), n)
        assert v == F(2, n * (n + 1))
        v = haar_moment_unitary((1, 2), (1, 2), (1, 2), (1, 2), n)
        assert v == F(1, n * n - 1)


def test_haar_moment_orthogonal_known_values():
    for n in (3, 4, 7):
        assert haar_moment_orthogonal((1, 1), (1, 1), n) == F(1, n)
        # E[O11^4] = 3/(n(n+2))
        v = haar_moment_orthogonal((1, 1, 1, 1), (1, 1, 1, 1), n)
        assert v == F(3, n * (n + 2))


def test_haar_moment_orthogonal_eighth_power():
    for n in (5, 9):
        v = haar_moment_orthogonal((1,) * 8, (1,) * 8, n)
        assert v == F(105, n * (n + 2) * (n + 4) * (n + 6))


@pytest.mark.parametrize(
    "moment, seqs",
    [
        (haar_moment_orthogonal, ((1, 1, 1), (1, 1, 1))),  # odd length
        (haar_moment_orthogonal, ((1, 1), (1, 1, 1, 1))),  # unequal lengths
        (haar_moment_unitary, ((1, 2), (1,), (1, 2), (1,))),  # unequal lengths
    ],
)
def test_haar_moment_index_validation(moment, seqs):
    with pytest.raises(ValueError):
        moment(*seqs, 5)


def test_conj_unitary_moments_and_identity():
    spec = ensemble("hermitian")
    for n in (2, 3, 7, 20):
        for conv in ("forced", "paper"):
            tm = trace_moments(spec, n, conv)
            a = conj_invariant_moment_unitary((1, 1), (1, 1), tm, n)
            b = conj_invariant_moment_unitary((1, 2), (1, 2), tm, n)
            off = conj_invariant_moment_unitary((1, 2), (2, 1), tm, n)
            m = ensemble_moments(spec, n, conv)
            assert b == (m.M2 + n * m.M11) / (n + 1)
            assert a == b + off
            # zero pattern
            assert conj_invariant_moment_unitary((1, 1), (2, 2), tm, n) == 0
            assert conj_invariant_moment_unitary((1, 1), (1, 2), tm, n) == 0


def test_conj_orthogonal_moments_and_identity():
    spec = ensemble("symmetric")
    for n in (2, 3, 7, 20):
        for conv in ("forced", "paper"):
            tm = trace_moments(spec, n, conv)
            a = conj_invariant_moment_orthogonal((1, 1, 1, 1), tm, n)
            b = conj_invariant_moment_orthogonal((1, 1, 2, 2), tm, n)
            t = conj_invariant_moment_orthogonal((1, 2, 1, 2), tm, n)
            m = ensemble_moments(spec, n, conv)
            assert b == m.M2 / (n + 2) + F(n + 1, n + 2) * m.M11
            assert t == (m.M2 - m.M11) / (n + 2)
            assert a == b + 2 * t
            assert conj_invariant_moment_orthogonal((1, 1, 1, 2), tm, n) == 0


def test_covariance_report_structure():
    for kind in ("hermitian", "symmetric"):
        rep = covariance_report(kind, 6, "forced")
        assert rep.zero_pattern_exact
        assert rep.eig_bulk == rep.diag_variance - rep.diag_diag_covariance
        assert rep.eig_trace_direction == rep.diag_variance + 5 * rep.diag_diag_covariance
        # the off-diagonal marginal variance equals the bulk eigenvalue exactly
        assert rep.offdiag_variance == rep.eig_bulk
        assert rep.diag_diag_covariance < 0
        js = rep.to_json()
        assert js["ensemble"] == kind and js["n"] == 6


@pytest.mark.parametrize("kind", ["hermitian", "symmetric"])
def test_unchecked_covariance_report_claims_no_zero_pattern(kind):
    rep = covariance_report(kind, 4, check_zeros=False)
    assert rep.zero_pattern_exact is None
    assert rep.to_json()["zero_pattern_exact"] is None


@pytest.mark.parametrize("kind", ["hermitian", "symmetric"])
def test_covariance_identity_guard(monkeypatch, kind):
    # E[T_11^2] = 1 against E[T_11 T_22] = 0 plus an off-diagonal part of 1/3 or 2/3
    broken = {"T11T22": F(0), "absT12sq": F(1, 3), "T12sq": F(1, 3), "T11sq": F(1)}
    monkeypatch.setattr(weingarten, "self_adjoint_second_moments", lambda kind, n, tm: broken)
    with pytest.raises(ArithmeticError):
        covariance_report(kind, 4, check_zeros=False)


def test_covariance_condition_number_trend():
    for kind in ("hermitian", "symmetric"):
        conds = [
            float(covariance_report(kind, n, "paper", check_zeros=False).condition_number)
            for n in (4, 10, 30, 100)
        ]
        assert all(c <= 3 for c in conds)
        assert abs(conds[-1] - 2) < 0.05


def test_covariance_asymptotics():
    # leading Laurent data of the covariance entries in the 2^(s/2) scaling
    from selmat.moments import laurent_coefficients, reconstruct_rational

    def laurent(kind, attr, order):
        samples = [
            (n, getattr(covariance_report(kind, n, "paper", check_zeros=False), attr))
            for n in range(4, 21)
        ]
        return laurent_coefficients(reconstruct_rational(samples, 8), order)

    lc = laurent("hermitian", "diag_diag_covariance", 3)
    assert lc[:3] == [F(0), F(0), F(-1, 8)]  # -1/(8n(n+1)) + O(1/n^3)
    lc = laurent("hermitian", "offdiag_variance", 2)
    assert lc[:2] == [F(0), F(1, 4)]  # n/(4(n-1)(n+1)) + O(1/n^3)
    lc = laurent("hermitian", "eig_trace_direction", 2)
    assert lc[:2] == [F(0), F(1, 8)]  # 1/(8(n+1)) + O(1/n^2)
    lc = laurent("symmetric", "diag_variance", 2)
    assert lc[:2] == [F(0), F(1, 2)]  # 1/(2(n+2)) + O(1/n^2)
    lc = laurent("symmetric", "offdiag_variance", 2)
    assert lc[:2] == [F(0), F(1, 2)]  # 2 E[T_jk^2] = 1/(2(n+2)) + O(1/n^2)
    lc = laurent("symmetric", "diag_diag_covariance", 3)
    assert lc[:3] == [F(0), F(0), F(-1, 4)]  # -1/(4n(n+2)) + O(1/n^3)


def test_covariance_convention_free_conditioning():
    for kind in ("hermitian", "symmetric"):
        for n in (3, 12):
            a = covariance_report(kind, n, "forced", check_zeros=False).condition_number
            b = covariance_report(kind, n, "paper", check_zeros=False).condition_number
            assert a == b


def test_negcorr_closed_forms_and_patterns():
    for n in range(2, 26):
        c = negcorr_report("c", n)
        assert c["cross"] == F(1, 4 * n * n - 1)
        assert c["same_row"] == F(1, 2 * n * (2 * n + 1))
        assert c["second_moment"] == F(1, 2 * n)
        assert c["cross"] > c["second_moment_sq"] > c["same_row"]
        r = negcorr_report("r", n)
        assert r["cross"] == F(n + 1, n * (2 * n + 1) * (2 * n + 3))
        assert r["same_row"] == F(1, (2 * n + 1) * (2 * n + 3))
        assert r["second_moment"] == F(1, 2 * n + 1)
        assert r["cross"] > r["second_moment_sq"] > r["same_row"]


def test_lr_real_zero_pattern():
    tmr = trace_moments(ensemble("full-real"), 3)
    # an index appearing an odd number of times in rows gives zero
    assert lr_moment_real((1, 2, 3, 3), (1, 1, 2, 2), tmr, 3) == 0
