"""Ensemble moment calculators and exact asymptotics.

Reduces operator-norm-ball moments to Selberg/Kadell ratios and assembles
variances, the thin-shell constant sigma^2, and the general-beta box
combination.  For a fixed ensemble all of these are exact rational functions
of n, and ``RationalFunction`` does exact arithmetic on them.  At each ball's
Selberg weight (u, w, kappa) (``EnsembleSpec.weight``) the monomial moment
ratios J(m_mu)/J(1) are built once per (mu, u, w, kappa, min(n, |mu|)): each
Kadell ratio is a product of factors linear in n, the hook product of
P_lambda(1^n) times the Pochhammer factors.  Each payload E[prod_i x_i^e_i]
is defined once, by its exponents (``selberg.PAYLOAD_POWERS``), and one expansion
generic in n writes it in those ratios (x = 2t - 1 on the self-adjoint
balls, t = x^2 on the full balls).  With the variance assembly, at the
identity function of n, it builds one function per (ensemble, convention)
and one per beta, which every n >= 4 evaluates in integer arithmetic; their
Laurent expansions at infinity are the asymptotics.
The J-level shifted payloads are still sampled per n and interpolated by a
rational function of n (exact linear solve).  Nothing is fitted in floats.

Scaling conventions.  The self-adjoint eigenvalue density lives on [-1, 1]^n
and the Kadell machinery on [0, 1]^n.  "forced", the default, reports E[x^e]
of x = 2t - 1 itself, 2^s times the t - 1/2 moment of an s-homogeneous
payload; "paper" reports 2^(-s/2) E[x^e], under which the three self-adjoint
variance constants read 1/32, 1/16, 1/64.  Scale-invariant outputs (sigma^2,
eigenvalue ratios) agree under both.
"""

from __future__ import annotations

import collections
import itertools
import math
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from .exact import Rational, Value, format_rational
from .jack import kadell_factors, kadell_numerator, monomial_to_jack
from .jack import kadell_ratio  # noqa: F401  re-exported; perfbench traces its bindings
from .selberg import FULL_PAYLOADS, PAYLOAD_POWERS, SHIFTED_PAYLOADS

CONVENTIONS = ("forced", "paper")

SELF_ADJOINT = "self_adjoint"
FULL_MATRIX = "full_matrix"

MOMENT_FIELDS = ("M2", "M4", "M22", "M11", "var", "sigma2")  # MomentReport's exact fields


class InconsistentSamplesError(ValueError):
    """No rational function within the degree bound fits all samples."""


class EnsembleSpec(Value):
    """A matrix ensemble: self-adjoint or full over the beta = 1, 2, 4 algebras.

    Carries the log-gas exponents (a, b, c) of the eigenvalue / singular-value
    density prod |x_i^a - x_j^a|^b prod |x_i|^c on the unit box, plus
    kappa = beta/2 and the real dimension d_n of the matrix space.
    """

    __slots__ = _fields = ("family", "beta")

    def __init__(self, family: str, beta: int):
        if family not in (SELF_ADJOINT, FULL_MATRIX):
            raise ValueError(f"unknown family {family}")
        if beta not in (1, 2, 4):
            raise ValueError(f"beta must be 1, 2 or 4, got {beta}")
        self._set(family, beta)

    @property
    def a(self) -> int:
        return 1 if self.family == SELF_ADJOINT else 2

    @property
    def b(self) -> int:
        return self.beta

    @property
    def c(self) -> int:
        return 0 if self.family == SELF_ADJOINT else self.beta - 1

    @property
    def kappa(self) -> Fraction:
        return Fraction(self.beta, 2)

    @property
    def weight(self) -> tuple:
        """(u, w, kappa) of the Selberg weight on [0,1]^n that the moments reduce to.

        x = 2t - 1 maps the eigenvalue density to (1, 1, kappa); t = x^2 maps
        the singular-value density to (kappa, 1, kappa).
        """
        u = 1 if self.family == SELF_ADJOINT else self.kappa
        return u, 1, self.kappa

    def dim(self, n):
        """Real dimension d_n of the ball, at an int n or as a function of n at _N."""
        if self.family == SELF_ADJOINT:
            return n + Fraction(self.beta, 2) * n * (n - 1)
        return self.beta * n * n

    @property
    def name(self) -> str:
        return _ENSEMBLE_NAMES[(self.family, self.beta)]


_ENSEMBLE_NAMES = {
    (SELF_ADJOINT, 1): "symmetric",
    (SELF_ADJOINT, 2): "hermitian",
    (SELF_ADJOINT, 4): "quaternion",
    (FULL_MATRIX, 1): "full-real",
    (FULL_MATRIX, 2): "full-complex",
    (FULL_MATRIX, 4): "full-quaternion",
}

ENSEMBLES = {name: EnsembleSpec(fam, b) for (fam, b), name in _ENSEMBLE_NAMES.items()}
ENSEMBLE_ALIASES = {
    "her": "hermitian",
    "sym": "symmetric",
    "quat": "quaternion",
    "real-full": "full-real",
    "complex-full": "full-complex",
    "quaternion-full": "full-quaternion",
}


def ensemble(name: str) -> EnsembleSpec:
    key = name.lower()
    key = ENSEMBLE_ALIASES.get(key, key)
    if key not in ENSEMBLES:
        raise ValueError(f"unknown ensemble {name!r}; choose from {sorted(ENSEMBLES)}")
    return ENSEMBLES[key]


# ---------------------------------------------------------------------------
# exact rational functions of n
# ---------------------------------------------------------------------------


def _homogeneous_eval(coeffs: Sequence[int], p: int, q: int) -> int:
    """q^(len(coeffs) - 1) * poly(p/q) for integer coefficients, in integers."""
    out, qk = 0, 1
    for c in reversed(coeffs):
        out = out * p + c * qk
        qk *= q
    return out


def _poly_add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + a[len(b) :]


def _poly_trim(coeffs: list) -> list:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_primitive(a: Sequence[int]) -> list:
    """a over its content, with a positive leading coefficient ([] for zero)."""
    if not a:
        return []
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def _poly_prem(a: Sequence[int], b: Sequence[int]) -> list:
    """Pseudo-remainder of a by b (len(b) >= 2) in Z[x]."""
    a = list(a)
    lead = b[-1]
    while len(a) >= len(b):
        top, k = a[-1], len(a) - len(b)
        a = [lead * c for c in a]
        for i, c in enumerate(b):
            a[k + i] -= top * c
        a.pop()
        _poly_trim(a)
    return a


def _poly_gcd(a: Sequence[int], b: Sequence[int]) -> list:
    """The primitive gcd in Z[x] (positive leading coefficient); [1] if coprime.

    Euclid on primitive pseudo-remainders, so coefficients stay integers and
    small; by Gauss's lemma this is the gcd over Q up to a unit.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return _poly_primitive(a)
    if len(b) == 1:
        return [1]
    a, b = _poly_primitive(a), _poly_primitive(b)
    while len(b) > 1:
        a, b = b, _poly_primitive(_poly_prem(a, b))
    return a if not b else [1]


def _poly_exact_div(a: Sequence[int], b: Sequence[int]) -> list:
    """a / b in Z[x] for a primitive divisor b of a (the quotient is integral)."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = a[k + len(b) - 1] // b[-1]
        for i, y in enumerate(b):
            a[k + i] -= c * y
    return q


def _cancel(num: list, den: list, g: list) -> tuple:
    """(num, den) divided by their common factor g, unless g is a unit."""
    if len(g) < 2:
        return num, den
    return _poly_exact_div(num, g), _poly_exact_div(den, g)


def _rf_parts(x) -> tuple | None:
    """(numerator, denominator) of a RationalFunction, int or Fraction."""
    if isinstance(x, RationalFunction):
        return x.numerator, x.denominator
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)
        return ((x.numerator,) if x else ()), (x.denominator,)
    return None


class RationalFunction(Value):
    """p(n)/q(n) with coprime integer-coefficient polynomials, q normalised.

    Normal form: coefficients ascending in degree, integer, with no common
    integer factor; numerator and denominator coprime; the denominator's
    leading coefficient positive; the zero function is 0/1.  Arithmetic with
    other functions, ints and Fractions (+, -, *, /, integer powers) returns
    the normal form, cancelling common factors as it goes (Henrici's
    gcd-of-denominators scheme), so equal functions compare equal.
    """

    __slots__ = _fields = ("numerator", "denominator")

    def __init__(self, numerator: tuple, denominator: tuple):  # int coefficients, ascending degree
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    @classmethod
    def _normal(cls, num: Sequence[int], den: Sequence[int]) -> RationalFunction:
        """The normal form of num/den for coprime integer polynomials."""
        num, den = _poly_trim(list(num)), _poly_trim(list(den))
        if not den:
            raise ZeroDivisionError("zero denominator polynomial")
        if not num:
            return cls((), (1,))
        g = math.gcd(*num, *den)
        if den[-1] < 0:
            g = -g
        return cls(tuple(c // g for c in num), tuple(c // g for c in den))

    @classmethod
    def from_fraction_polys(cls, num: Sequence[Fraction], den: Sequence[Fraction]) -> RationalFunction:
        num, den = _poly_trim(list(num)), _poly_trim(list(den))
        if not den:
            raise ZeroDivisionError("zero denominator polynomial")
        mult = math.lcm(*(c.denominator for c in num + den))
        num = [int(c * mult) for c in num]
        den = [int(c * mult) for c in den]
        return cls._normal(*_cancel(num, den, _poly_gcd(num, den)))

    def __call__(self, n) -> Fraction:
        # integer Horner on q^deg * poly(p/q), then one Fraction
        x = n if type(n) is int else Fraction(n)
        p, q = x.numerator, x.denominator
        den = _homogeneous_eval(self.denominator, p, q)
        if den == 0:
            raise ZeroDivisionError(f"denominator vanishes at n={n}")
        value = Fraction(_homogeneous_eval(self.numerator, p, q), den)
        if q != 1:
            value *= Fraction(q) ** (len(self.denominator) - len(self.numerator))
        return value

    def __add__(self, other):
        o = _rf_parts(other)
        if o is None:
            return NotImplemented
        (a, b), (c, d) = (self.numerator, self.denominator), o
        g = _poly_gcd(b, d)
        b1, d1 = _cancel(b, d, g)
        num = _poly_trim(_poly_add(_poly_mul(a, d1), _poly_mul(c, b1)))
        den = _poly_mul(b, d1)
        if len(g) > 1 and num:  # a common factor of num and den divides g
            num, den = _cancel(num, den, _poly_gcd(num, g))
        return self._normal(num, den)

    __radd__ = __add__

    def __neg__(self) -> RationalFunction:
        return RationalFunction(tuple(-c for c in self.numerator), self.denominator)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = _rf_parts(other)
        if o is None:
            return NotImplemented
        (a, b), (c, d) = (self.numerator, self.denominator), o
        if not a or not c:
            return RationalFunction((), (1,))
        a, d = _cancel(a, d, _poly_gcd(a, d))
        c, b = _cancel(c, b, _poly_gcd(c, b))
        return self._normal(_poly_mul(a, c), _poly_mul(b, d))

    __rmul__ = __mul__

    def _reciprocal(self) -> RationalFunction:
        if not self.numerator:
            raise ZeroDivisionError("division by the zero function")
        return self._normal(self.denominator, self.numerator)

    def __truediv__(self, other):
        o = _rf_parts(other)
        if o is None:
            return NotImplemented
        return self * RationalFunction(*o)._reciprocal()

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        base = self if k >= 0 else self._reciprocal()
        k = abs(k)
        # coprime parts stay coprime, and content 1 survives powers (Gauss)
        num, den = [1], [1]
        for _ in range(k):
            num, den = _poly_mul(num, base.numerator), _poly_mul(den, base.denominator)
        return self._normal(num, den)

    def to_json(self) -> dict:
        return {"numerator": list(self.numerator), "denominator": list(self.denominator)}


# ---------------------------------------------------------------------------
# J-level building blocks (box [0,1]^n, Selberg weight (u, w, kappa))
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def monomial_moment_ratio(mu: tuple, n: int, u, w, kappa) -> Fraction:
    """J(m_mu)/J(1) over [0,1]^n at the Selberg weight (u, w, kappa) of ``SelbergParams``.

    m_mu = sum_lambda c_lambda P_lambda (``monomial_to_jack``), so the ratio is
    sum_lambda c_lambda K_lambda(n) with K_lambda the Kadell ratio, a product of
    factors linear in n (``jack.kadell_factors``).  K_lambda = 0 for n < l(lambda):
    the polynomial vanishes there, but the product can sit at a pole, so only the
    lambda with l(lambda) <= min(n, |mu|) are summed.  The sum is built once as a
    rational function of n per (mu, u, w, kappa, min(n, |mu|))
    (monomial_moment_function) and evaluated here; ``kadell_ratio`` reads the
    same factors at one n.
    """
    if not mu:
        return Fraction(1)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return monomial_moment_function(mu, u, w, kappa, min(n, sum(mu)))(n)


@lru_cache(maxsize=None)
def monomial_moment_function(mu: tuple, u, w, kappa, m: int) -> RationalFunction:
    """sum_{l(lambda) <= m} c_lambda K_lambda(n) as one rational function of n.

    Equals J(m_mu)/J(1) at every n with min(n, |mu|) = m (see
    monomial_moment_ratio).  The terms are put over the lcm of their linear
    denominator factors, giving one integer numerator/denominator pair.
    """
    terms = []  # (scalar, integer polynomial in n, {(a, b): multiplicity of a + b n})
    for lam, c in monomial_to_jack(mu, kappa).items():
        if len(lam) > m:
            continue
        scale, _, den = kadell_factors(lam, u, w, kappa)
        terms.append((c * scale, list(kadell_numerator(lam, u, w, kappa)), collections.Counter(den)))
    lcm = {}
    for _, _, den in terms:
        for f, k in den.items():
            lcm[f] = max(lcm.get(f, 0), k)
    common = math.lcm(*(c.denominator for c, _, _ in terms))
    num = []
    for c, poly, den in terms:
        for form, k in lcm.items():
            for _ in range(k - den[form]):
                poly = _poly_mul(poly, form)
        num = _poly_add(num, [int(c * common) * x for x in poly])
    den_poly = [common]
    for form, k in lcm.items():
        for _ in range(k):
            den_poly = _poly_mul(den_poly, form)
    return RationalFunction.from_fraction_polys(num, den_poly)


# the identity function of n, for the formulas written generic in n
_N = RationalFunction((0, 1), (1,))


def _monomial_ratios(n, weight: tuple):
    """mu -> J(m_mu)/J(1) at weight (u, w, kappa): at an int n, or in n (m = |mu|) at _N."""
    if n is _N:
        return lambda mu: monomial_moment_function(mu, *weight, sum(mu))
    return lambda mu: monomial_moment_ratio(mu, n, *weight)


def _payload_moment(payload: str, n, R, a: int):
    """E[prod_i x_i^e_i] for e = PAYLOAD_POWERS[payload], from the monomial ratios R(mu).

    x^e expands binomially in t for x = 2t - 1 (a = 1), and is t^(e/2) for
    t = x^2 (a = 2).  m_mu has (n)_l / prod_j m_j(mu)! monomials (l = l(mu)), so
    by symmetry each has mean R(mu) prod_j m_j(mu)! / (n)_l; terms are merged by
    mu, and by l, before R is read.  n is an int (R returns Fractions) or the
    identity function of n (R returns RationalFunctions).
    """
    if a == 2 and payload not in FULL_PAYLOADS:  # t = x^2 takes only even exponents
        raise ValueError(f"unknown full-matrix payload {payload!r}")
    powers = PAYLOAD_POWERS.get(payload)
    if powers is None:
        raise ValueError(f"unknown payload {payload!r}; choose from {SHIFTED_PAYLOADS}")
    if n is not _N and n < len(powers):
        raise ValueError(f"payload {payload} needs n >= {len(powers)}, got n={n}")
    per_variable = [  # x^e as (j, coefficient of t^j)
        [(j, math.comb(e, j) * 2**j * (-1) ** (e - j)) for j in range(e + 1)] if a == 1
        else [(e // 2, 1)]
        for e in powers
    ]
    by_length = {}  # l -> mu -> coefficient of R(mu)
    for term in itertools.product(*per_variable):
        mu = tuple(sorted((j for j, _ in term if j), reverse=True))
        coefficient = math.prod(c for _, c in term)
        group = by_length.setdefault(len(mu), {})
        group[mu] = group.get(mu, 0) + coefficient
    out = by_length.pop(0, {}).get((), 0)
    for l, group in by_length.items():
        total = sum(
            c * math.prod(math.factorial(mu.count(v)) for v in set(mu)) * R(mu)
            for mu, c in group.items()
        )
        out = out + total / math.prod(n - i for i in range(l))
    return out


def shifted_moment_ratio(payload: str, n: int, kappa) -> Rational:
    """J(prod_i (t_i - 1/2)^e_i)/J(1) at (1, 1, kappa), exactly, for e = PAYLOAD_POWERS[payload].

    payload: "x2" -> (t1-1/2)^2, "x1x1" -> (t1-1/2)(t2-1/2),
    "x2x2" -> (t1-1/2)^2 (t2-1/2)^2, "x4" -> (t1-1/2)^4; t - 1/2 = x/2.
    """
    x_moment = _payload_moment(payload, n, _monomial_ratios(n, (1, 1, Fraction(kappa))), 1)
    return x_moment / 2 ** sum(PAYLOAD_POWERS[payload])


def full_matrix_moment_ratio(payload: str, n: int, beta: int) -> Rational:
    """N(payload)/N(1) for the full-matrix singular-value density, exactly (t = x^2)."""
    k = Fraction(beta, 2)
    return _payload_moment(payload, n, _monomial_ratios(n, (k, 1, k)), 2)


# ---------------------------------------------------------------------------
# moment reports
# ---------------------------------------------------------------------------


class MomentReport(Value):
    """Second/fourth entrywise-reduced moments, variance and sigma^2 at one n.

    M11, the cross linear moment, is None for the full-matrix families.
    """

    __slots__ = _fields = ("n", "ensemble", "convention", *MOMENT_FIELDS)

    def __init__(self, n: int, ensemble: EnsembleSpec, convention: str, M2: Rational,
                 M4: Rational, M22: Rational, M11: Rational | None, var: Rational,
                 sigma2: Rational):
        put = object.__setattr__
        put(self, "n", n)
        put(self, "ensemble", ensemble)
        put(self, "convention", convention)
        put(self, "M2", M2)
        put(self, "M4", M4)
        put(self, "M22", M22)
        put(self, "M11", M11)
        put(self, "var", var)
        put(self, "sigma2", sigma2)

    def to_json(self) -> dict:
        def fmt(x):
            return None if x is None else format_rational(x)

        out = {
            "n": self.n,
            "ensemble": self.ensemble.name,
            "convention": self.convention,
            "M2": fmt(self.M2),
            "M4": fmt(self.M4),
            "M22": fmt(self.M22),
            "M11": fmt(self.M11),
            "var": fmt(self.var),
            "sigma2": fmt(self.sigma2),
            "M2_float": float(self.M2),
            "M4_float": float(self.M4),
            "M22_float": float(self.M22),
            "M11_float": None if self.M11 is None else float(self.M11),
            "var_float": float(self.var),
            "sigma2_float": float(self.sigma2),
        }
        return out


def _scale(convention: str) -> Fraction:
    """The factor on an s-homogeneous self-adjoint payload of x is this to the s/2."""
    if convention == "forced":
        return Fraction(1)  # E[x^e] itself
    if convention == "paper":
        return Fraction(1, 2)  # 2^(-s/2)
    raise ValueError(f"unknown convention {convention!r}; choose from {CONVENTIONS}")


# From this n on every monomial ratio of the payloads has m = min(n, |mu|) =
# |mu|, so one rational function of n holds; below it the formulas run per n.
Q_N_FROM = 4

def _sum_sq_moments(n, M2, M22, M4) -> tuple:
    """E[S] and E[S^2] of S = sum x_i^2 from the reduced moments."""
    return n * M2, n * M4 + n * (n - 1) * M22


def _moment_fields(spec: EnsembleSpec, n, convention: str) -> tuple:
    """The MOMENT_FIELDS at an int n, or as functions of n at _N."""
    h = _scale(convention)
    R = _monomial_ratios(n, spec.weight)
    if spec.family == SELF_ADJOINT:
        M2, M11, M22, M4 = (
            h ** (sum(PAYLOAD_POWERS[p]) // 2) * _payload_moment(p, n, R, 1)
            for p in SHIFTED_PAYLOADS
        )
    else:  # the convention has no effect on the full balls
        M2, M22, M4 = (_payload_moment(p, n, R, 2) for p in FULL_PAYLOADS)
        M11 = None
    T2, T4 = _sum_sq_moments(n, M2, M22, M4)
    T2sq = T2**2
    return M2, M4, M22, M11, T4 - T2sq, spec.dim(n) * (T4 / T2sq - 1)


@lru_cache(maxsize=None)
def ensemble_moment_functions(spec: EnsembleSpec, convention: str = "forced") -> tuple:
    """The MOMENT_FIELDS of ``ensemble_moments`` as functions of n.

    Each is one RationalFunction, equal to the report's field at every
    n >= Q_N_FROM (M11 is None for the full balls): each composes the
    monomial ratios at m = |mu| and the ball's own ``EnsembleSpec.weight``.
    """
    return _moment_fields(spec, _N, convention)


def ensemble_moments(spec: EnsembleSpec, n: int, convention: str = "forced") -> MomentReport:
    """Exact moment report for one ensemble at one n."""
    if n < 2:
        raise ValueError("need n >= 2")
    if n < Q_N_FROM:
        fields = _moment_fields(spec, n, convention)
    else:
        fields = [None if f is None else f(n) for f in ensemble_moment_functions(spec, convention)]
    return MomentReport(n, spec, convention, *fields)


def trace_moments(spec: EnsembleSpec, n: int, convention: str = "forced") -> dict:
    """E[Tr_tau] data keyed by cycle/coset type, for the Weingarten sums.

    Self-adjoint (powers of T itself): (1,) -> E[Tr T] = 0 by symmetry,
    (1,1) -> E[(Tr T)^2] = n M2 + n(n-1) M11, (2,) -> E[Tr T^2] = n M2.
    Full matrix (powers of TT*): (1,) -> E[Tr TT*] = n M2,
    (1,1) -> E[(Tr TT*)^2] = n M4 + n(n-1) M22, (2,) -> E[Tr (TT*)^2] = n M4.
    At an int n, or as functions of n at _N, equal to those at every n >= Q_N_FROM;
    on the balls of beta 1 and 2 the functions equal them at n = 2 and 3 as well.
    """
    if n is _N:
        M2, M4, M22, M11 = ensemble_moment_functions(spec, convention)[:4]
    else:
        r = ensemble_moments(spec, n, convention)
        M2, M4, M22, M11 = r.M2, r.M4, r.M22, r.M11
    if spec.family == SELF_ADJOINT:
        return {
            (1,): Fraction(0),  # odd moment on a symmetric box
            (1, 1): n * M2 + n * (n - 1) * M11,
            (2,): n * M2,
        }
    return {
        (1,): n * M2,
        (1, 1): n * M4 + n * (n - 1) * M22,
        (2,): n * M4,
    }


def _remark(n, beta: Fraction):
    """The box combination at an int n, or as a function of n at _N."""
    R = _monomial_ratios(n, (1, 1, beta / 2))
    T2, T4 = _sum_sq_moments(n, *(_payload_moment(p, n, R, 1) for p in ("x2", "x2x2", "x4")))
    return (T4 - T2**2) / 16  # x = 2t - 1 on [-1, 1] is twice t - 1/2 on [-1/2, 1/2]


def _positive_beta(beta) -> Fraction:
    beta = Fraction(beta)
    if beta <= 0:
        raise ValueError("beta must be positive")
    return beta


@lru_cache(maxsize=None)
def beta_remark_function(beta: Fraction) -> RationalFunction:
    """``beta_remark_combination`` as one rational function of n, for n >= Q_N_FROM."""
    return _remark(_N, _positive_beta(beta))


def beta_remark_combination(n: int, beta) -> Rational:
    """Var of sum x_i^2 for the |Delta|^beta log-gas on [-1/2, 1/2]^n, exactly.

    This is the normalised m_(4) + 2 m_(2^2) combination minus the squared
    m_(2) term; its constant term in 1/n is 1/(64 beta).
    """
    beta = _positive_beta(beta)
    if n < Q_N_FROM:
        if n < 2:
            raise ValueError("two-variable payload needs n >= 2")
        return _remark(n, beta)
    return beta_remark_function(beta)(n)


# ---------------------------------------------------------------------------
# exact rational-function reconstruction and Laurent expansion
# ---------------------------------------------------------------------------


def reconstruct_rational(samples: Sequence[tuple], deg_bound: int) -> RationalFunction:
    """The unique rational function of degree <= deg_bound through the samples.

    samples: (n, value) pairs at distinct integers, values exact Rationals.
    Searches degrees upward and verifies every sample, so the minimal-degree
    consistent function is returned; raises InconsistentSamplesError if none
    fits within the bound.
    """
    pts = [(Fraction(n), Fraction(v)) for n, v in samples]
    if len({n for n, _ in pts}) != len(pts):
        raise ValueError("sample points must be distinct")
    for d in range(deg_bound + 1):
        need = 2 * d + 2
        if need > len(pts):
            break
        sol = _try_degree(pts, d)
        if sol is not None:
            return sol
    raise InconsistentSamplesError(
        f"no rational function of degree <= {deg_bound} fits {len(pts)} samples"
    )


def _try_degree(pts, d) -> RationalFunction | None:
    # unknowns: p_0..p_d, q_0..q_d with p(n_i) - v_i q(n_i) = 0
    rows = []
    for n, v in pts[: 2 * d + 2]:
        row = [n**j for j in range(d + 1)] + [-v * n**j for j in range(d + 1)]
        rows.append(row)
    kernel = _nullspace_vector(rows)
    if kernel is None:
        return None
    num, den = kernel[: d + 1], kernel[d + 1 :]
    if not _poly_trim(list(den)):
        return None
    try:
        rf = RationalFunction.from_fraction_polys(num, den)
    except ZeroDivisionError:
        return None
    try:
        ok = all(rf(n) == v for n, v in pts)
    except ZeroDivisionError:
        return None
    return rf if ok else None


def _nullspace_vector(rows) -> list | None:
    """One nonzero rational kernel vector of the row system, or None."""
    if not rows:
        return None
    ncols = len(rows[0])
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None
    # set the first free variable to 1, the rest to 0
    vec = [Fraction(0)] * ncols
    vec[free[0]] = Fraction(1)
    for i, c in enumerate(pivots):
        vec[c] = -mat[i][free[0]]
    return vec


def laurent_coefficients(f: RationalFunction, order: int) -> list:
    """Coefficients of n^0, n^-1, ..., n^-order in the expansion at infinity.

    Any polynomial part (growth) is discarded first, per the reduction of the
    moment quantities to bounded expressions.
    """
    if not 0 <= order <= 8:
        raise ValueError(f"order must be in 0..8, got {order}")
    num = [Fraction(c) for c in f.numerator]
    den = [Fraction(c) for c in f.denominator]
    dp, dq = len(num) - 1, len(den) - 1
    # reverse to series in x = 1/n: f(n) = n^(dp-dq) * (sum num_rev x^j)/(sum den_rev x^j)
    num_rev = list(reversed(num))
    den_rev = list(reversed(den))
    shift = dp - dq
    terms = order + max(shift, 0) + 1
    series = []
    acc = list(num_rev) + [Fraction(0)] * max(0, terms - len(num_rev))
    for j in range(terms):
        c = acc[j] / den_rev[0]
        series.append(c)
        for i, dcoef in enumerate(den_rev):
            if j + i < len(acc):
                acc[j + i] -= c * dcoef
    out = []
    for m in range(order + 1):
        idx = m + shift
        out.append(series[idx] if 0 <= idx < len(series) else Fraction(0))
    return out


def asympt_quantity(
    name: str,
    *,
    kappa=None,
    beta=None,
    ensemble_name: str | None = None,
    convention: str = "forced",
) -> RationalFunction:
    """A named quantity as one rational function of n, for ``asymptotic_expansion``.

    "remark" and the "fm-" payloads (need beta) and "var"/"sigma2" (need an
    ensemble) are built in closed form.  The J-level payloads (need kappa) are
    sampled at n = min_n .. 16 and reconstructed at degree <= 5, which takes
    12 samples and checks the rest.  min_n is 4 for anything involving
    weight-4 monomials: below the longest partition length the integral values
    are correct but sit off the rational-in-n continuation (the Kadell
    pole-zero cancellation fails).
    """
    if name in SHIFTED_PAYLOADS:
        if kappa is None:
            raise ValueError(f"quantity {name!r} needs kappa")
        kap = Fraction(kappa)
        min_n = sum(PAYLOAD_POWERS[name])  # the payload's degree, its largest |mu|
        return reconstruct_rational(
            [(n, shifted_moment_ratio(name, n, kap)) for n in range(min_n, 17)], 5
        )
    if name.startswith("fm-"):
        if beta is None:
            raise ValueError(f"quantity {name!r} needs beta")
        beta = _positive_beta(beta)
        if beta.denominator != 1:
            raise ValueError("full-matrix quantities need integer beta")
        return _payload_moment(name[3:], _N, _monomial_ratios(_N, (beta / 2, 1, beta / 2)), 2)
    if name == "remark":
        if beta is None:
            raise ValueError("quantity 'remark' needs beta")
        return beta_remark_function(_positive_beta(beta))
    if name in ("var", "sigma2"):
        if ensemble_name is None:
            raise ValueError(f"quantity {name!r} needs an ensemble")
        fns = ensemble_moment_functions(ensemble(ensemble_name), convention)
        return fns[MOMENT_FIELDS.index(name)]
    raise ValueError(f"unknown quantity {name!r}")


def asymptotic_expansion(name: str, order: int, **quantity) -> tuple:
    """Exact Laurent coefficients (n^0 .. n^-order) of a named quantity.

    Returns (rational_function, [coefficients]); ``quantity`` holds the
    keyword arguments of ``asympt_quantity``.
    """
    rf = asympt_quantity(name, **quantity)
    return rf, laurent_coefficients(rf, order)

