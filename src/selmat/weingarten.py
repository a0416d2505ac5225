"""Unitary and orthogonal Weingarten calculus, covariance and correlation reports.

Weingarten functions are class functions (on cycle types for the unitary
case, on coset types, i.e. double cosets of H_k < S_2k, for the orthogonal
case) built from the symmetric-group characters.  The orthogonal case also
needs the zonal spherical functions, read off the zonal (kappa = 1/2) Jack
polynomials in the power-sum basis, so both Wg^U and Wg^O reach k <= 6.
Terms whose C_lambda(z) vanishes are dropped from the defining sums,
matching the definitions' explicit filter.

Moment formulas take the needed E[Tr_tau] data as an injected mapping keyed
by cycle/coset type, so the scaling-convention choice stays upstream.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .combinat import (
    Partition,
    Permutation,
    character,
    coset_type,
    cycle_type,
    pair_partitions,
    partition,
    partitions_of,
    zee,
)
from .exact import Rational, format_rational
from .jack import jack_in_power_sums

MAX_K_UNITARY = 6
MAX_K_ORTHOGONAL = 6


class PoleAtIntegerError(ArithmeticError):
    """Requested a Weingarten value whose every character term is filtered out."""


def c_lambda(lam: Partition, z) -> Rational:
    """C_lambda(z) = prod over boxes (i,j) of (z + j - i)."""
    z = Fraction(z)
    out = Fraction(1)
    for i, part in enumerate(partition(lam), start=1):
        for j in range(1, part + 1):
            out *= z + j - i
    return out


def c_lambda_prime(lam: Partition, z) -> Rational:
    """C'_lambda(z) = prod over boxes (i,j) of (z + 2j - i - 1)."""
    z = Fraction(z)
    out = Fraction(1)
    for i, part in enumerate(partition(lam), start=1):
        for j in range(1, part + 1):
            out *= z + 2 * j - i - 1
    return out


@lru_cache(maxsize=None)
def _wg_unitary_table(k: int, z: Fraction, w) -> dict:
    """{cycle type: Wg^U} at one (k, z[, w]); filtered-sum per the definition."""
    if k > MAX_K_UNITARY:
        raise ValueError(f"unitary Weingarten capped at k <= {MAX_K_UNITARY}")
    table = {}
    kfact = math.factorial(k)
    any_term = False
    for mu in partitions_of(k):
        total = Fraction(0)
        for lam in partitions_of(k):
            cz = c_lambda(lam, z)
            if cz == 0:
                continue
            if w is not None:
                cw = c_lambda(lam, w)
                if cw == 0:
                    continue
                cz = cz * cw
            any_term = True
            total += Fraction(character(lam, (1,) * k) * character(lam, mu), 1) / cz
        table[mu] = total / kfact
    if not any_term:
        raise PoleAtIntegerError(f"every C_lambda vanishes at z={z}" + (f", w={w}" if w is not None else ""))
    return table


def wg_unitary(pi_cycle_type: Partition, k: int, z, w=None) -> Rational:
    """Wg^U(pi; z) or the two-parameter Wg^U(pi; z, w), by cycle type."""
    mu = partition(pi_cycle_type)
    if sum(mu) != k:
        raise ValueError(f"cycle type {mu} is not a partition of k={k}")
    wkey = Fraction(w) if w is not None else None
    return _wg_unitary_table(k, Fraction(z), wkey)[mu]


@lru_cache(maxsize=None)
def _zonal_table(k: int) -> dict:
    """{(lambda, rho): omega^lambda_rho} over lambda, rho |- k.

    The zonal polynomial Z_lambda, a multiple of the Jack polynomial at
    kappa = 1/2, is proportional to sum_rho omega^lambda_rho p_rho / (2^l(rho) z_rho)
    (Macdonald VII (2.13)); omega^lambda(e) = 1 fixes the multiple.
    """
    if k > MAX_K_ORTHOGONAL:
        raise ValueError(f"zonal spherical functions capped at k <= {MAX_K_ORTHOGONAL}")
    parts = partitions_of(k)
    table = {}
    for lam in parts:
        powers = jack_in_power_sums(lam, Fraction(1, 2))
        raw = {rho: 2 ** len(rho) * zee(rho) * powers.get(rho, 0) for rho in parts}
        for rho in parts:
            table[lam, rho] = raw[rho] / raw[(1,) * k]
    return table


def zonal_spherical(lam: Partition, sigma: Permutation) -> Rational:
    """omega^lambda(sigma), the zonal spherical function at the coset type of sigma."""
    lam = partition(lam)
    k = sum(lam)
    if sigma.degree != 2 * k:
        raise ValueError(f"sigma must live in S_{2*k}")
    return _zonal_table(k)[lam, coset_type(sigma)]


@lru_cache(maxsize=None)
def _wg_orthogonal_table(k: int, z: Fraction) -> dict:
    """{coset type: Wg^O} at one (k, z); filtered-sum per the definition."""
    if k > MAX_K_ORTHOGONAL:
        raise ValueError(f"orthogonal Weingarten capped at k <= {MAX_K_ORTHOGONAL}")
    omega = _zonal_table(k)
    pref = Fraction(2**k * math.factorial(k), math.factorial(2 * k))
    terms = []
    for lam in partitions_of(k):
        cz = c_lambda_prime(lam, z)
        if cz != 0:
            two_lam = partition(tuple(2 * p for p in lam))
            terms.append((lam, character(two_lam, (1,) * (2 * k)) / cz))
    if not terms:
        raise PoleAtIntegerError(f"every C'_lambda vanishes at z={z}")
    return {
        rho: pref * sum((f * omega[lam, rho] for lam, f in terms), Fraction(0))
        for rho in partitions_of(k)
    }


def wg_orthogonal(sigma_coset_type: Partition, k: int, z) -> Rational:
    """Wg^O(sigma; z), by coset type."""
    mu = partition(sigma_coset_type)
    if sum(mu) != k:
        raise ValueError(f"coset type {mu} is not a partition of k={k}")
    return _wg_orthogonal_table(k, Fraction(z))[mu]


# ---------------------------------------------------------------------------
# delta symbols and the CMS moment sums
# ---------------------------------------------------------------------------


def _delta(sigma: Permutation, i_seq, j_seq) -> int:
    """delta_sigma(i, j) = prod_s [i_{sigma(s)} == j_s]."""
    return int(all(i_seq[sigma(s) - 1] == j_seq[s - 1] for s in range(1, sigma.degree + 1)))


def _delta_pair(sigma: Permutation, i_seq) -> int:
    """delta'_sigma(i) = prod_s [i_{sigma(2s-1)} == i_{sigma(2s)}]."""
    k = sigma.degree // 2
    return int(
        all(i_seq[sigma(2 * s - 1) - 1] == i_seq[sigma(2 * s) - 1] for s in range(1, k + 1))
    )


@lru_cache(maxsize=None)
def _symmetric_group(k: int) -> tuple[Permutation, ...]:
    """All k! permutations of {1..k}, built once per k."""
    return tuple(Permutation(p) for p in itertools.permutations(range(1, k + 1)))


def conj_invariant_moment_unitary(i_seq, j_seq, trace_moments: dict, n: int) -> Rational:
    """E[T_{i1 j1} ... T_{ik jk}] for a conjugation-invariant Hermitian ensemble.

    trace_moments maps cycle types of S_k to the exact E[Tr_tau(T)].
    """
    k = len(i_seq)
    if k != len(j_seq) or k > 2:
        raise ValueError("index sequences must have equal length k <= 2")
    total = Fraction(0)
    for sigma in _symmetric_group(k):
        d = _delta(sigma, i_seq, j_seq)
        if not d:
            continue
        sig_inv = sigma.inverse()
        for tau in _symmetric_group(k):
            wg = wg_unitary(cycle_type(sig_inv * tau), k, n)
            total += wg * trace_moments[cycle_type(tau)]
    return total


def conj_invariant_moment_orthogonal(i_seq, trace_moments: dict, n: int) -> Rational:
    """E[T_{i1 i2} T_{i3 i4} ...] for a conjugation-invariant real symmetric ensemble.

    i_seq has length 2k; trace_moments maps coset types to E[Tr'_tau(T)].
    """
    if len(i_seq) % 2 or len(i_seq) > 4:
        raise ValueError("need an index sequence of length 2k, k <= 2")
    k = len(i_seq) // 2
    total = Fraction(0)
    pps = pair_partitions(k)
    for sigma in pps:
        if not _delta_pair(sigma, i_seq):
            continue
        sig_inv = sigma.inverse()
        for tau in pps:
            wg = wg_orthogonal(coset_type(sig_inv * tau), k, n)
            total += wg * trace_moments[coset_type(tau)]
    return total


def lr_moment_complex(i_seq, j_seq, ip_seq, jp_seq, trace_moments: dict, n: int) -> Rational:
    """E[T_{i1 j1}..T_{ik jk} conj(T_{i'1 j'1}..T_{i'k j'k})], left-right invariant.

    trace_moments maps cycle types to E[Tr_tau(T T*)].
    """
    k = len(i_seq)
    if not (len(j_seq) == len(ip_seq) == len(jp_seq) == k) or k > 2:
        raise ValueError("index sequences must have equal length k <= 2")
    total = Fraction(0)
    perms = _symmetric_group(k)
    for sigma1 in perms:
        d1 = _delta(sigma1, i_seq, ip_seq)
        if not d1:
            continue
        s1_inv = sigma1.inverse()
        for sigma2 in perms:
            if not _delta(sigma2, j_seq, jp_seq):
                continue
            for tau in perms:
                wg = wg_unitary(cycle_type(tau * s1_inv * sigma2), k, n, n)
                total += wg * trace_moments[cycle_type(tau)]
    return total


def lr_moment_real(i_seq, j_seq, trace_moments: dict, n: int) -> Rational:
    """E[T_{i1 j1} ... T_{i_2k j_2k}] for a left-right invariant real ensemble.

    trace_moments maps coset types to E[Tr'_tau(T T^t)].
    """
    if len(i_seq) != len(j_seq) or len(i_seq) % 2 or len(i_seq) > 4:
        raise ValueError("need row/column sequences of equal length 2k, k <= 2")
    k = len(i_seq) // 2
    total = Fraction(0)
    pps = pair_partitions(k)
    for sigma1 in pps:
        if not _delta_pair(sigma1, i_seq):
            continue
        s1_inv = sigma1.inverse()
        for sigma2 in pps:
            if not _delta_pair(sigma2, j_seq):
                continue
            s2_inv = sigma2.inverse()
            for tau1 in pps:
                w1 = wg_orthogonal(coset_type(s1_inv * tau1), k, n)
                t1_inv = tau1.inverse()
                for tau2 in pps:
                    w2 = wg_orthogonal(coset_type(s2_inv * tau2), k, n)
                    total += w1 * w2 * trace_moments[coset_type(t1_inv * tau2)]
    return total


def haar_moment_unitary(i_seq, j_seq, ip_seq, jp_seq, n: int) -> Rational:
    """E[U_{i1 j1}..U_{ik jk} conj(U_{i'1 j'1}..U_{i'k j'k})] for Haar U(n)."""
    k = len(i_seq)
    if not len(j_seq) == len(ip_seq) == len(jp_seq) == k:
        raise ValueError("index sequences must have equal length k")
    total = Fraction(0)
    for sigma in _symmetric_group(k):
        if not _delta(sigma, i_seq, ip_seq):
            continue
        s_inv = sigma.inverse()
        for tau in _symmetric_group(k):
            if not _delta(tau, j_seq, jp_seq):
                continue
            total += wg_unitary(cycle_type(s_inv * tau), k, n)
    return total


def haar_moment_orthogonal(i_seq, j_seq, n: int) -> Rational:
    """E[O_{i1 j1} ... O_{i_2k j_2k}] for Haar O(n)."""
    if len(i_seq) != len(j_seq) or len(i_seq) % 2:
        raise ValueError("need row/column sequences of equal length 2k")
    k = len(i_seq) // 2
    total = Fraction(0)
    pps = pair_partitions(k)
    for sigma in pps:
        if not _delta_pair(sigma, i_seq):
            continue
        s_inv = sigma.inverse()
        for tau in pps:
            if not _delta_pair(tau, j_seq):
                continue
            total += wg_orthogonal(coset_type(s_inv * tau), k, n)
    return total


# ---------------------------------------------------------------------------
# covariance structure of the self-adjoint balls
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CovarianceReport:
    """Covariance matrix structure of a self-adjoint operator-norm ball.

    On the diagonal-marginal block the matrix is (a-b) I + b J; every other
    marginal is uncorrelated with everything and carries variance a - b
    exactly, so the full spectrum is {a + (n-1) b} + {a - b} (multiplicity
    d_n - 1).
    """

    ensemble: str
    n: int
    convention: str
    diag_variance: Rational  # a
    offdiag_variance: Rational  # marginal variance of the off-diagonal coordinates
    diag_diag_covariance: Rational  # b
    eig_trace_direction: Rational
    eig_bulk: Rational
    condition_number: Rational
    zero_pattern_exact: Optional[bool]  # None when covariance_report skips the check

    def to_json(self) -> dict:
        return {
            "ensemble": self.ensemble,
            "n": self.n,
            "convention": self.convention,
            "diag_variance": format_rational(self.diag_variance),
            "offdiag_variance": format_rational(self.offdiag_variance),
            "diag_diag_covariance": format_rational(self.diag_diag_covariance),
            "eig_trace_direction": format_rational(self.eig_trace_direction),
            "eig_bulk": format_rational(self.eig_bulk),
            "condition_number": format_rational(self.condition_number),
            "condition_number_float": float(self.condition_number),
            "diag_variance_float": float(self.diag_variance),
            "offdiag_variance_float": float(self.offdiag_variance),
            "diag_diag_covariance_float": float(self.diag_diag_covariance),
            "zero_pattern_exact": self.zero_pattern_exact,
        }


def self_adjoint_second_moments(kind: str, n: int, trace_moments: dict) -> dict:
    """Exact E[T_11 T_22], E|T_12|^2 and E[T_11^2] of the hermitian or symmetric ball.

    Keyed as oracle.ball_second_moments keys the matching payloads.
    """
    if kind == "hermitian":
        m = lambda k, l: conj_invariant_moment_unitary(k, l, trace_moments, n)
        return {
            "T11T22": m((1, 2), (1, 2)), "absT12sq": m((1, 2), (2, 1)), "T11sq": m((1, 1), (1, 1))
        }
    m = lambda idx: conj_invariant_moment_orthogonal(idx, trace_moments, n)
    return {"T11T22": m((1, 1, 2, 2)), "T12sq": m((1, 2, 1, 2)), "T11sq": m((1, 1, 1, 1))}


def _zero_pattern_exact(kind: str, n: int, trace_moments: dict) -> bool:
    """Check every off-pattern second moment vanishes identically.

    Enumerates all index patterns on up to four distinct labels; the vanishing
    comes from the index-matching deltas, so checking class representatives
    covers every index tuple at this n.
    """
    labels = [1, 2, 3, 4][: max(2, min(n, 4))]
    ok = True
    if kind == "hermitian":
        for idx in itertools.product(labels, repeat=4):
            k1, l1, k2, l2 = idx
            val = conj_invariant_moment_unitary((k1, k2), (l1, l2), trace_moments, n)
            if sorted((k1, k2)) != sorted((l1, l2)):
                ok &= val == 0
    else:
        for idx in itertools.product(labels, repeat=4):
            counts = {v: idx.count(v) for v in set(idx)}
            val = conj_invariant_moment_orthogonal(idx, trace_moments, n)
            if any(c % 2 for c in counts.values()):
                ok &= val == 0
    return ok


def covariance_report(
    ensemble_name: str, n: int, convention: str = "forced", check_zeros: bool = True
) -> CovarianceReport:
    """Exact covariance structure for the Hermitian or real symmetric ball."""
    from .moments import ensemble, trace_moments as trace_of

    spec = ensemble(ensemble_name)
    kind = spec.name
    if kind not in ("hermitian", "symmetric"):
        raise ValueError(f"covariance_report covers hermitian|symmetric, got {ensemble_name!r}")
    if n < 2:
        raise ValueError("need n >= 2")
    tm = trace_of(spec, n, convention)
    m = self_adjoint_second_moments(kind, n, tm)
    a, b = m["T11sq"], m["T11T22"]
    # variance of sqrt(2) Re T_12: E|T_12|^2 on the hermitian ball, 2 E[T_12^2] on the symmetric
    offdiag_marginal = m["absT12sq"] if kind == "hermitian" else 2 * m["T12sq"]
    if a != b + offdiag_marginal:
        raise ArithmeticError(f"E[T_11^2] != E[T_11 T_22] + Var(sqrt(2) Re T_12) at n={n}")
    eig_trace = a + (n - 1) * b
    eig_bulk = a - b
    lo, hi = sorted((eig_trace, eig_bulk))
    if lo <= 0:
        raise ArithmeticError(f"covariance not positive definite at n={n}")
    zeros = _zero_pattern_exact(kind, n, tm) if check_zeros else None
    return CovarianceReport(
        ensemble=kind,
        n=n,
        convention=convention,
        diag_variance=a,
        offdiag_variance=offdiag_marginal,
        diag_diag_covariance=b,
        eig_trace_direction=eig_trace,
        eig_bulk=eig_bulk,
        condition_number=hi / lo,
        zero_pattern_exact=zeros,
    )


# ---------------------------------------------------------------------------
# entrywise correlation report for the full-matrix balls
# ---------------------------------------------------------------------------


def negcorr_report(field: str, n: int) -> dict:
    """Exact entrywise fourth-moment comparison for the full-matrix ball.

    cross: E[|T_ij|^2 |T_lr|^2] with i != l, j != r (positively correlated);
    same_row: E[|T_ij|^2 |T_ir|^2], j != r (negatively correlated);
    second_moment_sq: (E[|T_11|^2])^2, the uncorrelated benchmark.
    """
    from .moments import ensemble, trace_moments as trace_of

    if n < 2:
        raise ValueError("need n >= 2")
    f = field.lower()
    if f in ("c", "complex"):
        tm = trace_of(ensemble("full-complex"), n)
        second = lr_moment_complex((1,), (1,), (1,), (1,), tm, n)
        cross = lr_moment_complex((1, 2), (1, 2), (1, 2), (1, 2), tm, n)
        same_row = lr_moment_complex((1, 1), (1, 2), (1, 1), (1, 2), tm, n)
    elif f in ("r", "real"):
        tm = trace_of(ensemble("full-real"), n)
        second = lr_moment_real((1, 1), (1, 1), tm, n)
        cross = lr_moment_real((1, 1, 2, 2), (1, 1, 2, 2), tm, n)
        same_row = lr_moment_real((1, 1, 1, 1), (1, 1, 2, 2), tm, n)
    else:
        raise ValueError(f"field must be 'r' or 'c', got {field!r}")
    return {
        "field": f[0],
        "n": n,
        "cross": cross,
        "same_row": same_row,
        "second_moment": second,
        "second_moment_sq": second**2,
    }
