"""Unitary and orthogonal Weingarten calculus, covariance and correlation reports.

Weingarten functions are class functions (on cycle types for the unitary
case, on coset types, i.e. double cosets of H_k < S_2k, for the orthogonal
case) built from the symmetric-group characters.  The orthogonal case also
needs the zonal spherical functions, read off the zonal (kappa = 1/2) Jack
polynomials in the power-sum basis, so both Wg^U and Wg^O reach k <= 6.
Terms whose C_lambda(z) vanishes are dropped from the defining sums,
matching the definitions' explicit filter.

Moment formulas take the needed E[Tr_tau] data as an injected mapping keyed
by cycle/coset type, so the scaling-convention choice stays upstream.  The
delta symbols read only which indices are equal, so each moment sum walks its
permutations once per index pattern (the indices relabelled by first
occurrence) into a tally of (Wg type, trace type) counts; a sum is then
count * Wg * E[Tr] over the tally, read at one n.

Every table and sum also takes n = moments._N, the identity function of n:
Wg and the moments are then RationalFunctions of n.  For k <= 2 no C_lambda(n)
or C'_lambda(n) vanishes at n >= 2, so the unfiltered functions are exact
there.  The trace moments of the hermitian, symmetric and full real and complex
balls are one function of n at every n >= 2 too: at n = 2 and 3 the hook
numerator of each lambda with l(lambda) > n vanishes, and no Kadell denominator
form does for |mu| <= 4.  So ``covariance_report`` and ``negcorr_report``
evaluate ``covariance_functions`` and ``full_ball_functions``, built once per
ball, at every n >= 2.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

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
from .exact import Rational, Value, format_rational
from .jack import jack_in_power_sums

MAX_K_UNITARY = 6
MAX_K_ORTHOGONAL = 6


class PoleAtIntegerError(ArithmeticError):
    """Requested a Weingarten value whose every character term is filtered out."""


def _point(z):
    """z as a table key: a number as a Fraction, a function of n (moments._N) as itself."""
    return z if callable(z) else Fraction(z)


def _box_product(lam: Partition, z, step: int):
    """prod over boxes (i,j) of (z + step j - i - step + 1): C_lambda at step 1, C'_lambda at 2."""
    out = Fraction(1)
    for i, part in enumerate(lam, start=1):
        for j in range(1, part + 1):
            out *= z + step * (j - 1) + 1 - i
    return out


@lru_cache(maxsize=None)
def _wg_unitary_table(k: int, z, w) -> dict:
    """{cycle type: Wg^U} at one (k, z[, w]); filtered-sum per the definition.

    At z = moments._N (and w = _N or None) no term is filtered: a RationalFunction
    never equals 0, and the table holds Wg^U as functions of n.
    """
    if k > MAX_K_UNITARY:
        raise ValueError(f"unitary Weingarten capped at k <= {MAX_K_UNITARY}")
    table = {}
    kfact = math.factorial(k)
    any_term = False
    for mu in partitions_of(k):
        total = Fraction(0)
        for lam in partitions_of(k):
            cz = _box_product(lam, z, 1)
            if cz == 0:
                continue
            if w is not None:
                cw = _box_product(lam, w, 1)
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
    return _wg_unitary_table(k, _point(z), None if w is None else _point(w))[mu]


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
def _wg_orthogonal_table(k: int, z) -> dict:
    """{coset type: Wg^O} at one (k, z); filtered-sum per the definition (none at z = _N)."""
    if k > MAX_K_ORTHOGONAL:
        raise ValueError(f"orthogonal Weingarten capped at k <= {MAX_K_ORTHOGONAL}")
    omega = _zonal_table(k)
    pref = Fraction(2**k * math.factorial(k), math.factorial(2 * k))
    terms = []
    for lam in partitions_of(k):
        cz = _box_product(lam, z, 2)
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
    return _wg_orthogonal_table(k, _point(z))[mu]


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


def _pattern(seq) -> tuple:
    """seq relabelled 0, 1, ... by first occurrence: the equalities the deltas read."""
    first = {}
    return tuple(first.setdefault(x, len(first)) for x in seq)


def _tally(pairs) -> tuple:
    """((types..., trace type), count) over an iterable of such keys."""
    return tuple(Counter(pairs).items())


@lru_cache(maxsize=None)
def _conj_unitary_tally(pattern: tuple) -> tuple:
    """(Wg cycle type, Tr cycle type) counts over sigma, tau in S_k, delta_sigma(i, j) = 1."""
    k = len(pattern) // 2
    i_seq, j_seq = pattern[:k], pattern[k:]
    perms = _symmetric_group(k)
    return _tally(
        (cycle_type(sigma.inverse() * tau), cycle_type(tau))
        for sigma in perms
        if _delta(sigma, i_seq, j_seq)
        for tau in perms
    )


@lru_cache(maxsize=None)
def _conj_orthogonal_tally(pattern: tuple) -> tuple:
    """(Wg coset type, Tr' coset type) counts over pair partitions sigma, tau, delta'_sigma(i) = 1."""
    pps = pair_partitions(len(pattern) // 2)
    return _tally(
        (coset_type(sigma.inverse() * tau), coset_type(tau))
        for sigma in pps
        if _delta_pair(sigma, pattern)
        for tau in pps
    )


@lru_cache(maxsize=None)
def _lr_complex_tally(pattern: tuple) -> tuple:
    """(Wg cycle type, Tr cycle type) counts for the index pattern of (i, j, i', j')."""
    k = len(pattern) // 4
    i_seq, j_seq, ip_seq, jp_seq = (pattern[s * k : (s + 1) * k] for s in range(4))
    perms = _symmetric_group(k)
    return _tally(
        (cycle_type(tau * sigma1.inverse() * sigma2), cycle_type(tau))
        for sigma1 in perms
        if _delta(sigma1, i_seq, ip_seq)
        for sigma2 in perms
        if _delta(sigma2, j_seq, jp_seq)
        for tau in perms
    )


@lru_cache(maxsize=None)
def _lr_real_tally(pattern: tuple) -> tuple:
    """(Wg coset type, Wg coset type, Tr' coset type) counts for the index pattern of (i, j)."""
    half = len(pattern) // 2
    i_seq, j_seq = pattern[:half], pattern[half:]
    pps = pair_partitions(half // 2)
    return _tally(
        (coset_type(sigma1.inverse() * tau1), coset_type(sigma2.inverse() * tau2),
         coset_type(tau1.inverse() * tau2))
        for sigma1 in pps
        if _delta_pair(sigma1, i_seq)
        for sigma2 in pps
        if _delta_pair(sigma2, j_seq)
        for tau1 in pps
        for tau2 in pps
    )


def _tally_sum(tally: tuple, wg: dict, trace_moments: dict):
    """sum over the tally of count * prod Wg[types] * E[Tr_type], with Wg read from one table."""
    total = 0 * next(iter(wg.values()))  # a Fraction, or a function of n at z = moments._N
    for (*wg_types, trace_type), count in tally:
        term = count * trace_moments[trace_type]
        for t in wg_types:
            term *= wg[t]
        total += term
    return total


def conj_invariant_moment_unitary(i_seq, j_seq, trace_moments: dict, n: int) -> Rational:
    """E[T_{i1 j1} ... T_{ik jk}] for a conjugation-invariant Hermitian ensemble.

    trace_moments maps cycle types of S_k to the exact E[Tr_tau(T)].
    """
    k = len(i_seq)
    if k != len(j_seq) or k > 2:
        raise ValueError("index sequences must have equal length k <= 2")
    tally = _conj_unitary_tally(_pattern((*i_seq, *j_seq)))
    return _tally_sum(tally, _wg_unitary_table(k, _point(n), None), trace_moments)


def conj_invariant_moment_orthogonal(i_seq, trace_moments: dict, n: int) -> Rational:
    """E[T_{i1 i2} T_{i3 i4} ...] for a conjugation-invariant real symmetric ensemble.

    i_seq has length 2k; trace_moments maps coset types to E[Tr'_tau(T)].
    """
    if len(i_seq) % 2 or len(i_seq) > 4:
        raise ValueError("need an index sequence of length 2k, k <= 2")
    tally = _conj_orthogonal_tally(_pattern(i_seq))
    return _tally_sum(tally, _wg_orthogonal_table(len(i_seq) // 2, _point(n)), trace_moments)


def lr_moment_complex(i_seq, j_seq, ip_seq, jp_seq, trace_moments: dict, n: int) -> Rational:
    """E[T_{i1 j1}..T_{ik jk} conj(T_{i'1 j'1}..T_{i'k j'k})], left-right invariant.

    trace_moments maps cycle types to E[Tr_tau(T T*)].
    """
    k = len(i_seq)
    if not (len(j_seq) == len(ip_seq) == len(jp_seq) == k) or k > 2:
        raise ValueError("index sequences must have equal length k <= 2")
    tally = _lr_complex_tally(_pattern((*i_seq, *j_seq, *ip_seq, *jp_seq)))
    z = _point(n)
    return _tally_sum(tally, _wg_unitary_table(k, z, z), trace_moments)


def lr_moment_real(i_seq, j_seq, trace_moments: dict, n: int) -> Rational:
    """E[T_{i1 j1} ... T_{i_2k j_2k}] for a left-right invariant real ensemble.

    trace_moments maps coset types to E[Tr'_tau(T T^t)].
    """
    if len(i_seq) != len(j_seq) or len(i_seq) % 2 or len(i_seq) > 4:
        raise ValueError("need row/column sequences of equal length 2k, k <= 2")
    tally = _lr_real_tally(_pattern((*i_seq, *j_seq)))
    return _tally_sum(tally, _wg_orthogonal_table(len(i_seq) // 2, _point(n)), trace_moments)


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


class CovarianceReport(Value):
    """Covariance matrix structure of a self-adjoint operator-norm ball.

    On the diagonal-marginal block the matrix is (a-b) I + b J; every other
    marginal is uncorrelated with everything and carries variance a - b
    exactly, so the full spectrum is {a + (n-1) b} + {a - b} (multiplicity
    d_n - 1).
    """

    __slots__ = _fields = (
        "ensemble",
        "n",
        "convention",
        "diag_variance",  # a
        "offdiag_variance",  # marginal variance of the off-diagonal coordinates
        "diag_diag_covariance",  # b
        "eig_trace_direction",
        "eig_bulk",
        "condition_number",
        "zero_pattern_exact",
    )

    def __init__(self, ensemble: str, n: int, convention: str, diag_variance: Rational,
                 offdiag_variance: Rational, diag_diag_covariance: Rational,
                 eig_trace_direction: Rational, eig_bulk: Rational,
                 condition_number: Rational, zero_pattern_exact: bool):
        self._set(ensemble, n, convention, diag_variance, offdiag_variance, diag_diag_covariance,
                  eig_trace_direction, eig_bulk, condition_number, zero_pattern_exact)

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

    Keyed as oracle.ball_second_moments keys the matching payloads; at n =
    moments._N, with trace moments as functions of n, they are functions of n.
    """
    if kind == "hermitian":
        m = lambda k, l: conj_invariant_moment_unitary(k, l, trace_moments, n)
        return {
            "T11T22": m((1, 2), (1, 2)), "absT12sq": m((1, 2), (2, 1)), "T11sq": m((1, 1), (1, 1))
        }
    m = lambda idx: conj_invariant_moment_orthogonal(idx, trace_moments, n)
    return {"T11T22": m((1, 1, 2, 2)), "T12sq": m((1, 2, 1, 2)), "T11sq": m((1, 1, 1, 1))}


@lru_cache(maxsize=None)
def _equality_patterns(length: int, labels: int) -> tuple:
    """One index tuple per equality pattern on at most `labels` labels: the tuples that
    first-occurrence relabelling leaves fixed (15 of length 4 on 4 labels)."""
    out = [()]
    for _ in range(length):
        out = [p + (x,) for p in out for x in range(min(labels, max(p, default=-1) + 2))]
    return tuple(out)


def _off_pattern_moments(kind: str, trace_moments: dict) -> list:
    """The second moments, as functions of n, whose index pattern is off the covariance's support.

    One per equality pattern on 4 labels (i1 i2 j1 j2 for the hermitian ball):
    the sums read only which indices are equal, so these cover every index
    tuple at every n.  Each vanishes by the index-matching deltas.
    """
    from .moments import _N

    out = []
    for idx in _equality_patterns(4, 4):
        if kind == "hermitian":
            i_seq, j_seq = idx[:2], idx[2:]
            if sorted(i_seq) != sorted(j_seq):
                out.append(conj_invariant_moment_unitary(i_seq, j_seq, trace_moments, _N))
        elif any(idx.count(v) % 2 for v in idx):
            out.append(conj_invariant_moment_orthogonal(idx, trace_moments, _N))
    return out


@lru_cache(maxsize=None)
def covariance_functions(kind: str, convention: str) -> tuple:
    """(second moments, off-pattern moments) of the ball as functions of n, exact at n >= 2."""
    from .moments import _N, ensemble, trace_moments as trace_of

    tm = trace_of(ensemble(kind), _N, convention)
    return self_adjoint_second_moments(kind, _N, tm), _off_pattern_moments(kind, tm)


def covariance_report(ensemble_name: str, n: int, convention: str = "forced") -> CovarianceReport:
    """Exact covariance structure for the Hermitian or real symmetric ball.

    The moments are functions of n, built once per (ball, convention) and evaluated at n.
    """
    from .moments import ensemble

    kind = ensemble(ensemble_name).name
    if kind not in ("hermitian", "symmetric"):
        raise ValueError(f"covariance_report covers hermitian|symmetric, got {ensemble_name!r}")
    if n < 2:
        raise ValueError("need n >= 2")
    functions, off_functions = covariance_functions(kind, convention)
    m = {key: f(n) for key, f in functions.items()}
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
        zero_pattern_exact=all(f(n) == 0 for f in off_functions),
    )


# ---------------------------------------------------------------------------
# entrywise correlation report for the full-matrix balls
# ---------------------------------------------------------------------------


_FULL_BALLS = {"c": "full-complex", "complex": "full-complex", "r": "full-real", "real": "full-real"}


@lru_cache(maxsize=None)
def full_ball_functions(name: str) -> tuple:
    """(E|T_11|^2, cross, same_row) of the full ball as functions of n, exact at n >= 2."""
    from .moments import _N, ensemble, trace_moments as trace_of

    tm = trace_of(ensemble(name), _N)
    if name == "full-complex":
        m = lambda i, j: lr_moment_complex(i, j, i, j, tm, _N)
        return m((1,), (1,)), m((1, 2), (1, 2)), m((1, 1), (1, 2))
    m = lambda i, j: lr_moment_real(i, j, tm, _N)
    return m((1, 1), (1, 1)), m((1, 1, 2, 2), (1, 1, 2, 2)), m((1, 1, 1, 1), (1, 1, 2, 2))


def negcorr_report(field: str, n: int) -> dict:
    """Exact entrywise fourth-moment comparison for the full-matrix ball.

    cross: E[|T_ij|^2 |T_lr|^2] with i != l, j != r (positively correlated);
    same_row: E[|T_ij|^2 |T_ir|^2], j != r (negatively correlated);
    second_moment_sq: (E[|T_11|^2])^2, the uncorrelated benchmark.
    Read off ``full_ball_functions`` at n.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    f = field.lower()
    name = _FULL_BALLS.get(f)
    if name is None:
        raise ValueError(f"field must be 'r' or 'c', got {field!r}")
    second, cross, same_row = (g(n) for g in full_ball_functions(name))
    return {
        "field": f[0],
        "n": n,
        "cross": cross,
        "same_row": same_row,
        "second_moment": second,
        "second_moment_sq": second**2,
    }
