import itertools
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from selmat import moments, weingarten
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
    CovarianceReport,
    conj_invariant_moment_orthogonal,
    conj_invariant_moment_unitary,
    covariance_report,
    haar_moment_orthogonal,
    haar_moment_unitary,
    lr_moment_complex,
    lr_moment_real,
    negcorr_report,
    self_adjoint_second_moments,
    wg_orthogonal,
    wg_unitary,
    zonal_spherical,
)

# -- the moment sums by brute force: every sigma, tau pair, one term at a time ---------


def _delta(sigma, i_seq, j_seq):
    return all(i_seq[sigma(s) - 1] == j_seq[s - 1] for s in range(1, sigma.degree + 1))


def _delta_pair(sigma, i_seq):
    return all(i_seq[sigma(2 * s - 1) - 1] == i_seq[sigma(2 * s) - 1] for s in range(1, sigma.degree // 2 + 1))


def _symmetric_group(k):
    return [Permutation(p) for p in itertools.permutations(range(1, k + 1))]


def reference_conj_unitary(i_seq, j_seq, tm, n):
    k = len(i_seq)
    total = F(0)
    for sigma in _symmetric_group(k):
        if _delta(sigma, i_seq, j_seq):
            for tau in _symmetric_group(k):
                total += wg_unitary(cycle_type(sigma.inverse() * tau), k, n) * tm[cycle_type(tau)]
    return total


def reference_conj_orthogonal(i_seq, tm, n):
    k = len(i_seq) // 2
    total = F(0)
    for sigma in pair_partitions(k):
        if _delta_pair(sigma, i_seq):
            for tau in pair_partitions(k):
                total += wg_orthogonal(coset_type(sigma.inverse() * tau), k, n) * tm[coset_type(tau)]
    return total


def reference_lr_complex(i_seq, j_seq, ip_seq, jp_seq, tm, n):
    k = len(i_seq)
    total = F(0)
    perms = _symmetric_group(k)
    for sigma1 in perms:
        if not _delta(sigma1, i_seq, ip_seq):
            continue
        for sigma2 in perms:
            if not _delta(sigma2, j_seq, jp_seq):
                continue
            for tau in perms:
                wg = wg_unitary(cycle_type(tau * sigma1.inverse() * sigma2), k, n, n)
                total += wg * tm[cycle_type(tau)]
    return total


def reference_lr_real(i_seq, j_seq, tm, n):
    k = len(i_seq) // 2
    total = F(0)
    pps = pair_partitions(k)
    for sigma1 in pps:
        if not _delta_pair(sigma1, i_seq):
            continue
        for sigma2 in pps:
            if not _delta_pair(sigma2, j_seq):
                continue
            for tau1 in pps:
                w1 = wg_orthogonal(coset_type(sigma1.inverse() * tau1), k, n)
                for tau2 in pps:
                    w2 = wg_orthogonal(coset_type(sigma2.inverse() * tau2), k, n)
                    total += w1 * w2 * tm[coset_type(tau1.inverse() * tau2)]
    return total


def test_c_lambda_examples():
    # C_lambda(z) = prod (z + j - i) at step 1, C'_lambda(z) = prod (z + 2j - i - 1) at step 2
    c_lambda = lambda lam, z: weingarten._box_product(lam, z, 1)
    c_lambda_prime = lambda lam, z: weingarten._box_product(lam, z, 2)
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
    assert val == F(1, 2) / weingarten._box_product((2,), 1, 1)
    # the orthogonal filter at z = 1: C'_(1,1)(1) = 0 drops that term
    val = wg_orthogonal((1, 1), 2, 1)
    assert val == F(8, 24) / weingarten._box_product((2,), 1, 2)


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
def test_covariance_identity_guard(monkeypatch, kind):
    # E[T_11^2] = 1 against E[T_11 T_22] = 0 plus an off-diagonal part of 1/3 or 2/3,
    # at the smallest n and at a large one: the reports have one route
    broken = {"T11T22": F(0), "absT12sq": F(1, 3), "T12sq": F(1, 3), "T11sq": F(1)}
    constants = {key: (lambda n, v=v: v) for key, v in broken.items()}
    monkeypatch.setattr(weingarten, "covariance_functions", lambda kind, conv: (constants, []))
    for n in (2, 60):
        with pytest.raises(ArithmeticError):
            covariance_report(kind, n)


def test_covariance_condition_number_trend():
    for kind in ("hermitian", "symmetric"):
        conds = [
            float(covariance_report(kind, n, "paper").condition_number)
            for n in (4, 10, 30, 100)
        ]
        assert all(c <= 3 for c in conds)
        assert abs(conds[-1] - 2) < 0.05


def test_covariance_asymptotics():
    # leading Laurent data of the covariance entries in the 2^(s/2) scaling
    from selmat.moments import laurent_coefficients, reconstruct_rational

    def laurent(kind, attr, order):
        samples = [
            (n, getattr(covariance_report(kind, n, "paper"), attr))
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
            a = covariance_report(kind, n, "forced").condition_number
            b = covariance_report(kind, n, "paper").condition_number
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


# -- tallied sums against the brute-force loops ------------------------------------------

TALLY_NS = (2, 3, 5, 9)


def _random_trace_moments(seed):
    # no ball's moments: a cancellation among those cannot hide a wrong count
    rng = random.Random(seed)
    return {t: F(rng.randint(-99, 99), rng.randint(1, 99)) for t in ((1,), (1, 1), (2,))}


@pytest.mark.parametrize("n", TALLY_NS)
def test_tallied_sums_match_brute_force_on_every_short_index_tuple(n):
    # every tuple of 2 or 4 indices on at most 4 labels
    tm = _random_trace_moments(n)
    for length in (2, 4):
        for idx in itertools.product((1, 2, 3, 4), repeat=length):
            half = length // 2
            i_seq, j_seq = idx[:half], idx[half:]
            assert conj_invariant_moment_unitary(i_seq, j_seq, tm, n) == reference_conj_unitary(
                i_seq, j_seq, tm, n
            ), idx
            assert conj_invariant_moment_orthogonal(idx, tm, n) == reference_conj_orthogonal(idx, tm, n), idx
        for idx in itertools.product((1, 2, 3, 4), repeat=4):  # k = 1 left-right sums
            seqs = [(x,) for x in idx]
            assert lr_moment_complex(*seqs, tm, n) == reference_lr_complex(*seqs, tm, n), idx
            assert lr_moment_real(idx[:2], idx[2:], tm, n) == reference_lr_real(idx[:2], idx[2:], tm, n), idx


@pytest.mark.parametrize("n", TALLY_NS)
def test_tallied_sums_match_brute_force_on_every_index_pattern_of_eight(n):
    # the k = 2 left-right sums read 8 indices: one tuple per equality pattern on at most
    # 4 labels (2795 of the 65536 tuples), each written in labels drawn at random
    tm = _random_trace_moments(n)
    rng = random.Random(100 + n)
    patterns = weingarten._equality_patterns(8, 4)
    assert len(patterns) == 1 + 127 + 966 + 1701  # Stirling numbers S(8, b), b <= 4
    for pattern in patterns:
        labels = rng.sample(range(1, 10), 4)
        idx = tuple(labels[x] for x in pattern)
        i, j, ip, jp = idx[:2], idx[2:4], idx[4:6], idx[6:]
        assert lr_moment_complex(i, j, ip, jp, tm, n) == reference_lr_complex(i, j, ip, jp, tm, n), idx
        assert lr_moment_real(idx[:4], idx[4:], tm, n) == reference_lr_real(idx[:4], idx[4:], tm, n), idx


def test_equality_patterns_are_the_relabelled_tuples():
    for length, labels in ((4, 2), (4, 3), (4, 4), (5, 3)):
        tuples = itertools.product(range(labels), repeat=length)
        assert set(weingarten._equality_patterns(length, labels)) == {
            weingarten._pattern(t) for t in tuples
        }
    assert len(weingarten._equality_patterns(4, 4)) == 15


# -- covariance and correlation reports against the per-n route --------------------------


def _per_n_covariance(kind, n, conv):
    tm = trace_moments(ensemble(kind), n, conv)
    m = self_adjoint_second_moments(kind, n, tm)
    a, b = m["T11sq"], m["T11T22"]
    off = m["absT12sq"] if kind == "hermitian" else 2 * m["T12sq"]
    eig_trace, eig_bulk = a + (n - 1) * b, a - b
    zeros = True  # every index tuple, as the support of the covariance says
    for k1, k2, l1, l2 in itertools.product(range(1, min(n, 4) + 1), repeat=4):
        if kind == "hermitian":
            if sorted((k1, k2)) != sorted((l1, l2)):
                zeros &= conj_invariant_moment_unitary((k1, k2), (l1, l2), tm, n) == 0
        elif any(c % 2 for c in Counter((k1, k2, l1, l2)).values()):
            zeros &= conj_invariant_moment_orthogonal((k1, k2, l1, l2), tm, n) == 0
    return CovarianceReport(
        kind, n, conv, a, off, b, eig_trace, eig_bulk,
        max(eig_trace, eig_bulk) / min(eig_trace, eig_bulk), zeros,
    )


@pytest.mark.parametrize("kind", ["hermitian", "symmetric"])
def test_covariance_report_equals_the_per_n_route(kind):
    for conv in ("forced", "paper"):
        for n in range(2, 61):
            assert covariance_report(kind, n, conv) == _per_n_covariance(kind, n, conv), (conv, n)


def _schur_eigenvalues(spec, n, conv):
    """(lambda_tr, lambda_rest): the covariance on I/sqrt(n) and on the traceless part."""
    tm = trace_moments(spec, n, conv)
    lam_tr = tm[(1, 1)] / n
    return lam_tr, (tm[(2,)] - lam_tr) / (spec.dim(n) - 1)


# lambda_tr / lambda_rest on the self-adjoint balls, not isotropic yet almost isotropic:
# numerator and denominator coefficients, ascending in n
ISOTROPY_RATIOS = {
    "symmetric": ((2, 1), (2, 2)),  # (n + 2)/(2n + 2)
    "hermitian": ((1,), (2,)),  # 1/2
    "quaternion": ((-1, 1), (-1, 2)),  # (n - 1)/(2n - 1)
}


@pytest.mark.parametrize("kind", sorted(ISOTROPY_RATIOS))
def test_trace_and_traceless_eigenvalues_are_exact_ratios(kind):
    # by Schur's lemma the covariance has two eigenvalues, read off E[p_(1,1)] and E[p_2]
    spec, ratio = ensemble(kind), moments.RationalFunction(*ISOTROPY_RATIOS[kind])
    for conv in ("forced", "paper"):
        lam_tr, lam_rest = _schur_eigenvalues(spec, moments._N, conv)
        assert lam_tr / lam_rest == ratio, conv
        for n in (2, 3):
            lam_tr, lam_rest = _schur_eigenvalues(spec, n, conv)
            assert lam_tr / lam_rest == ratio(n), (conv, n)


@pytest.mark.parametrize("kind", ["hermitian", "symmetric"])
def test_trace_and_traceless_eigenvalues_equal_the_weingarten_route(kind):
    spec = ensemble(kind)
    for conv in ("forced", "paper"):
        for n in range(2, 51):
            report = covariance_report(kind, n, conv)
            want = (report.eig_trace_direction, report.eig_bulk)
            assert _schur_eigenvalues(spec, n, conv) == want, (conv, n)


@pytest.mark.parametrize("field, ball", [("c", "full-complex"), ("r", "full-real")])
def test_negcorr_report_equals_the_per_n_route(field, ball):
    for n in range(2, 61):
        tm = trace_moments(ensemble(ball), n)
        if field == "c":
            second = lr_moment_complex((1,), (1,), (1,), (1,), tm, n)
            cross = lr_moment_complex((1, 2), (1, 2), (1, 2), (1, 2), tm, n)
            same_row = lr_moment_complex((1, 1), (1, 2), (1, 1), (1, 2), tm, n)
        else:
            second = lr_moment_real((1, 1), (1, 1), tm, n)
            cross = lr_moment_real((1, 1, 2, 2), (1, 1, 2, 2), tm, n)
            same_row = lr_moment_real((1, 1, 1, 1), (1, 1, 2, 2), tm, n)
        assert negcorr_report(field, n) == {
            "field": field, "n": n, "cross": cross, "same_row": same_row,
            "second_moment": second, "second_moment_sq": second**2,
        }, n


def test_reports_build_no_per_n_trace_moment_at_any_n(monkeypatch):
    # the functions of n equal the per-n moments of these four balls at every n >= 2
    # (a hook numerator vanishes where a monomial ratio reads m = min(n, |mu|) < |mu|),
    # so the reports have one route and build no per-n trace moment
    functions_of_n = moments.trace_moments

    def functions_only(spec, n, *convention):
        if n is not moments._N:
            raise AssertionError(f"per-n trace moments built at n={n}")
        return functions_of_n(spec, n, *convention)

    monkeypatch.setattr(moments, "trace_moments", functions_only)
    for cached in (weingarten.covariance_functions, weingarten.full_ball_functions):
        monkeypatch.setattr(weingarten, cached.__name__, cached.__wrapped__)
    for n in (2, 3, 4, 7, 60):
        for kind in ("hermitian", "symmetric"):
            covariance_report(kind, n, "paper")
        for field in ("r", "c"):
            negcorr_report(field, n)
