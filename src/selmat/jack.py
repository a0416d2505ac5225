"""Jack polynomials in the monomial basis, principal specialization, Kadell ratios.

The monic Jack polynomial P_lambda (parameter xi = 1/kappa) is computed by
imposing the eigenfunction equation of the Calogero-Sutherland operator

    D* = sum_i (x_i d_i)^2 + (1/xi) sum_{i<j} (x_i+x_j)/(x_i-x_j) (x_i d_i - x_j d_j)

on a monomial expansion.  The operator acts triangularly on monomial
symmetric functions: it moves a pair of exponents (r, s) to any intermediate
pair (r-t, s+t), which strictly lowers dominance.  One row P_lambda is built
by a forward (push) recursion, as in Stanley (Adv. Math. 77, 1989) and MOPS
(Dumitriu, Edelman and Shuman, J. Symb. Comput. 42, 2007): the partitions
below lambda are walked in reverse-lexicographic order, which refines
dominance, and each coefficient, once known, pushes its moves onto the
dominance-lower partitions it reaches.  A coefficient is then kappa times its
pushed sum over the eigenvalue gap to lambda.  All moves touch only nonzero
parts, hence every coefficient is independent of the number of variables.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .combinat import Partition, boxes, partition, partitions_of
from .exact import Rational, Value
from .selberg import SelbergParams

MAX_DEGREE = 12


class SymPoly(Value):
    """Graded symmetric polynomial in the monomial basis (zero coeffs dropped)."""

    __slots__ = _fields = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: tuple):  # coeffs: (Partition, Fraction) pairs, sorted
        self._set(degree, coeffs)

    @classmethod
    def from_dict(cls, degree: int, coeffs: dict) -> "SymPoly":
        items = tuple(
            sorted((lam, Fraction(c)) for lam, c in coeffs.items() if c != 0)
        )
        for lam, _ in items:
            if sum(lam) != degree:
                raise ValueError(f"partition {lam} has weight != {degree}")
        return cls(degree, items)

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    def coeff(self, lam: Partition) -> Fraction:
        return dict(self.coeffs).get(lam, Fraction(0))


def _sum_sq(lam: Partition) -> int:
    return sum(p * p for p in lam)


def _nval(lam: Partition) -> int:
    # n(lambda) = sum (i-1) lambda_i, strictly decreasing along dominance
    return sum(i * p for i, p in enumerate(lam))


@lru_cache(maxsize=None)
def _move_matrix(d: int) -> dict:
    """Off-diagonal action of the interaction term on monomials of degree d.

    Returns {source: {target: integer coefficient}} over partitions of d: the
    coefficient of m_target in sum_{i<j} ((x_i+x_j)/(x_i-x_j))(x_i d_i - x_j d_j) m_source,
    excluding the diagonal.  For each coordinate pair of the target holding
    values (p, q), every source pair (r, s) with r+s = p+q, r > p >= q > s
    contributes 2(r-s).
    """
    mat: dict[Partition, dict[Partition, int]] = {}
    for target in partitions_of(d):
        l = len(target)
        for i in range(l):
            for j in range(i + 1, l):
                p, q = target[i], target[j]
                tot = p + q
                for r in range(p + 1, tot + 1):
                    s = tot - r
                    src = list(target)
                    src[i], src[j] = r, s
                    source = partition(src)
                    mat.setdefault(source, {}).setdefault(target, 0)
                    mat[source][target] += 2 * (r - s)
    return mat


def _check_jack_args(kappa: Fraction, d: int) -> None:
    """Refuse kappa <= 0 and degrees past the cap (raises, so it holds under -O)."""
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if d > MAX_DEGREE:
        raise ValueError(f"degree {d} exceeds cap {MAX_DEGREE}")


@lru_cache(maxsize=None)
def jack_row(kappa: Fraction, lam: Partition) -> dict:
    """{mu: coeff} with P_lambda = sum_mu coeff * m_mu, keyed in revlex order.

    Walks the partitions below lambda in reverse-lexicographic order.  Each
    coefficient, once known, pushes its moves onto the dominance-lower
    partitions it reaches, so a partition's sum is complete when the walk
    gets to it; partitions whose sum is zero are skipped.
    """
    kappa = Fraction(kappa)
    d = sum(lam)
    _check_jack_args(kappa, d)
    parts = partitions_of(d)  # revlex refines dominance, largest first
    moves = _move_matrix(d)
    row: dict[Partition, Fraction] = {lam: Fraction(1)}
    pending = dict(moves.get(lam, {}))
    for mu in parts[parts.index(lam) + 1 :]:
        acc = pending.pop(mu, 0)
        if acc == 0:
            continue
        gap = (_sum_sq(lam) - _sum_sq(mu)) + 2 * kappa * (_nval(mu) - _nval(lam))
        c = row[mu] = kappa * acc / gap
        for nu, m in moves.get(mu, {}).items():
            pending[nu] = pending.get(nu, 0) + c * m
    return row


@lru_cache(maxsize=None)
def jack_basis_matrix(kappa: Fraction, d: int) -> dict:
    """{lambda: {mu: coeff}} with P_lambda = sum_mu coeff * m_mu, unitriangular."""
    return {lam: jack_row(Fraction(kappa), lam) for lam in partitions_of(d)}


def _invert_triangular(order, basis: dict) -> dict:
    """{mu: {lam: coeff}} with m_mu = sum_lam coeff * b_lam, by back-substitution.

    basis[mu] is {nu: c} with b_mu = sum_nu c * m_nu; c at nu = mu is nonzero,
    and every other nu comes before mu in order.
    """
    inv: dict[Partition, dict[Partition, Fraction]] = {}
    for mu in order:
        b = basis[mu]
        row = {mu: Fraction(1)}
        for nu, c in b.items():
            if nu != mu:
                for lam, d in inv[nu].items():
                    row[lam] = row.get(lam, Fraction(0)) - c * d
        inv[mu] = {lam: c / b[mu] for lam, c in row.items() if c != 0}
    return inv


@lru_cache(maxsize=None)
def monomial_to_jack_matrix(kappa: Fraction, d: int) -> dict:
    """Inverse table: {mu: {lambda: coeff}} with m_mu = sum_lambda coeff * P_lambda.

    P_mu has m_mu plus dominance-smaller monomials, so the rows are solved from
    the dominance-smallest mu up.
    """
    return _invert_triangular(reversed(partitions_of(d)), jack_basis_matrix(Fraction(kappa), d))


def jack_in_monomials(lam: Partition, kappa) -> SymPoly:
    """Monic Jack polynomial P_lambda^(1/kappa) expanded over monomials."""
    lam = partition(lam)
    return SymPoly.from_dict(sum(lam), jack_row(Fraction(kappa), lam))


def monomial_to_jack(mu: Partition, kappa) -> dict:
    """Coefficients of m_mu in the Jack basis: m_mu = sum coeff[lambda] P_lambda."""
    mu = partition(mu)
    return dict(monomial_to_jack_matrix(Fraction(kappa), sum(mu))[mu])


def _hook_forms(lam: Partition, q: int, P: int) -> tuple[list, int]:
    """([(a, b), ...], d) with P_lambda^(1/kappa)(1^n) = prod (a + b n) / d, kappa = P/q.

    Box (i, j), counted from 0, gives q (kappa (n - i) + j) = q j - i P + P n over
    q (arm + kappa (leg + 1)) (Stanley, Adv. Math. 77 (1989), Thm 5.4).
    """
    forms, d = [], 1
    for i, j, arm, leg in boxes(lam):
        forms.append((q * j - i * P, P))
        d *= q * arm + P * (leg + 1)
    return forms, d


@lru_cache(maxsize=None)
def kadell_factors(lam: Partition, u, w, kappa) -> tuple:
    """(c, num, den) with kadell_ratio = c prod_num (a + b n) / prod_den (a + b n).

    With q the common denominator of u, w and kappa, U = q u, W = q w and P = q kappa:
    ``num`` holds the hook forms, then q (u+(n-i)kappa+j) = P n + U + q j - i P; ``den``
    holds q (u+w+(2n-i-1)kappa+j) = 2P n + U + W + q j - (i+1)P over its content g, whose
    g's go into c.  The one place the product is written, built once per lambda.
    """
    u, w, kappa = Fraction(u), Fraction(w), Fraction(kappa)
    q = math.lcm(u.denominator, w.denominator, kappa.denominator)
    U, W, P = int(q * u), int(q * w), int(q * kappa)
    num, d = _hook_forms(lam, q, P)
    c, den = Fraction(1, d), []
    for i, part in enumerate(lam, start=1):
        for j in range(part):
            num.append((U + q * j - i * P, P))
            a, b = U + W + q * j - (i + 1) * P, 2 * P
            g = math.gcd(a, b)
            den.append((a // g, b // g))
            c /= g
    return c, tuple(num), tuple(den)


@lru_cache(maxsize=None)
def kadell_numerator(lam: Partition, u, w, kappa) -> tuple:
    """prod_num (a + b n) of ``kadell_factors`` expanded: integer coefficients, ascending in n.

    Built once per (lambda, u, w, kappa), for every monomial function that reads lambda.
    """
    poly = (1,)
    for a, b in kadell_factors(lam, u, w, kappa)[1]:
        poly = tuple(a * c + b * d for c, d in zip(poly + (0,), (0,) + poly))
    return poly


def principal_specialization(lam: Partition, kappa, n: int) -> Rational:
    """P_lambda^(1/kappa)(1^n) = prod over the boxes (i, j) of lambda, counted from 0, of
    (kappa (n - i) + j) / (arm + kappa (leg + 1)): exact, 0 if n < l, and no Jack row
    (``_hook_forms``).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    lam, kappa = partition(lam), Fraction(kappa)
    _check_jack_args(kappa, sum(lam))
    forms, d = _hook_forms(lam, kappa.denominator, kappa.numerator)
    return Fraction(math.prod(a + b * n for a, b in forms), d)


def kadell_ratio(lam: Partition, n: int, u, w, kappa) -> Rational:
    """I(lambda)/I(0): normalised Selberg integral of P_lambda^(1/kappa).

    Equals P_lambda(1^n) * prod_i (u+(n-i)kappa)_{lambda_i} / (u+w+(2n-i-1)kappa)_{lambda_i},
    all factors linear in n; 0 when n < l(lambda), where a denominator can vanish.
    """
    lam = partition(lam)
    params = SelbergParams(n, u, w, kappa)  # validates the constraint set
    _check_jack_args(params.kappa, sum(lam))  # before the shortcut, so it refuses at every n
    if n < len(lam):
        return Fraction(0)
    c, num, den = kadell_factors(lam, params.u, params.w, params.kappa)
    return c * math.prod(a + b * n for a, b in num) / math.prod(a + b * n for a, b in den)


# ---------------------------------------------------------------------------
# the power-sum basis
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _merge_count(rho: Partition, mu: Partition) -> int:
    """Coefficient of m_mu in p_rho: the ways to merge the parts of rho into mu.

    Counts the maps sending each part of rho to a part of mu such that the
    parts landing on mu_i sum to mu_i.  The first part of rho goes to some
    part of mu with room for it; what is left of mu is again a partition.
    """
    if not rho:
        return int(not mu)
    first, rest = rho[0], rho[1:]
    total = 0
    for i, cap in enumerate(mu):
        if cap >= first:
            total += _merge_count(rest, partition(mu[:i] + (cap - first,) + mu[i + 1 :]))
    return total


@lru_cache(maxsize=None)
def monomial_to_power_matrix(d: int) -> dict:
    """{mu: {rho: coeff}} with m_mu = sum_rho coeff * p_rho.

    p_rho = sum_{mu >= rho} R(rho, mu) m_mu is triangular in dominance, so the
    rows are solved by back-substitution from the dominance-largest mu down.
    """
    if d > MAX_DEGREE:
        raise ValueError(f"degree {d} exceeds cap {MAX_DEGREE}")
    parts = partitions_of(d)  # revlex refines dominance, largest first

    p_in_m = {  # p_rho over the m_mu, mu dominating rho
        rho: {mu: r for mu in parts[: i + 1] if (r := _merge_count(rho, mu))}
        for i, rho in enumerate(parts)
    }
    return _invert_triangular(parts, p_in_m)


def jack_in_power_sums(lam: Partition, kappa) -> dict:
    """{rho: [p_rho] P_lambda^(1/kappa)}: the Jack polynomial over power sums."""
    poly = jack_in_monomials(lam, kappa)
    m2p = monomial_to_power_matrix(poly.degree)
    out: dict[Partition, Fraction] = {}
    for mu, c in poly.coeffs:
        for rho, t in m2p[mu].items():
            out[rho] = out.get(rho, Fraction(0)) + c * t
    return {rho: c for rho, c in out.items() if c != 0}
