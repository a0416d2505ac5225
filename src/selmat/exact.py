"""Exact scalar arithmetic: rationals, rising factorials, formal Gamma products.

Every symbolic computation in this package is carried out over arbitrary
precision rationals (``fractions.Fraction``); nothing on the exact path is
ever rounded.  Absolute values of Selberg-type integrals, which are products
of Gamma factors at rational arguments, are represented by
:class:`GammaProduct`.  The normal form keeps each Gamma argument inside the
window (0, 1] (repeatedly applying Gamma(x+1) = x*Gamma(x)), so two products
representing the same value have identical factor multisets and cancellation
is a plain multiset comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Fraction

_LOG2 = math.log(2.0)


class PoleError(ArithmeticError):
    """A Gamma factor with positive exponent sits at a non-positive integer."""


def format_rational(x: Rational) -> str:
    """Canonical string form, ``"p/q"`` (or ``"p"`` for integers)."""
    return str(Fraction(x))


def parse_rational(s: str) -> Rational:
    return Fraction(s)


def pochhammer(x: Rational, m: int) -> Rational:
    """Rising factorial x(x+1)...(x+m-1); the empty product (m=0) is 1."""
    if m < 0:
        raise ValueError(f"pochhammer needs m >= 0, got {m}")
    out = Fraction(1)
    x = Fraction(x)
    for j in range(m):
        out *= x + j
    return out


def log_abs_rational(x: Rational) -> float:
    """log|x| for a Fraction, stable when |x| over- or underflows a double."""
    if x == 0:
        return float("-inf")
    p, q = abs(x.numerator), x.denominator
    try:
        v = float(Fraction(p, q))
    except OverflowError:
        v = float("inf")
    if 0.0 < v < float("inf"):
        return math.log(v)
    # scale into [1/2, 2) by a power of two and take the log exactly
    shift = p.bit_length() - q.bit_length()
    scaled = Fraction(p, q) / Fraction(2) ** shift
    return shift * _LOG2 + math.log(float(scaled))


@dataclass(frozen=True)
class Approx:
    """Double-precision mirror of an exact value, carried in log space too."""

    value: float
    log_value: float
    sign: int


def _approx_from_log(log_value: float, sign: int) -> Approx:
    if sign == 0:
        return Approx(0.0, float("-inf"), 0)
    try:
        v = sign * math.exp(log_value)
    except OverflowError:
        v = sign * float("inf")
    return Approx(v, log_value, sign)


def _reduce_gamma_argument(x: Fraction) -> tuple[Fraction, Fraction]:
    """Return (xr, c) with Gamma(x) = c * Gamma(xr) and xr in (0, 1].

    Raises PoleError if x is a non-positive integer (the caller decides how a
    pole in a *denominator* factor should be interpreted).
    """
    if x.denominator == 1 and x <= 0:
        raise PoleError(f"Gamma pole at {x}")
    c = Fraction(1)
    if x > 1:
        # Gamma(x) = (x-1)(x-2)...(xr) Gamma(xr)
        k = math.ceil(x) - 1  # number of downward steps; x - k in (0, 1]
        xr = x - k
        c = pochhammer(xr, k)
        return xr, c
    if x <= 0:
        # Gamma(x) = Gamma(x+k) / (x(x+1)...(x+k-1))
        k = 1 - math.floor(x)
        xr = x + k
        c = 1 / pochhammer(x, k)
        return xr, c
    return x, c


class GammaProduct:
    """prefactor * prod_i Gamma(arg_i)^exp_i with arguments normalised to (0, 1].

    Immutable after construction.  A Gamma pole in a positive-exponent factor
    raises :class:`PoleError`; a pole in a negative-exponent factor makes the
    whole product exactly zero (1/Gamma is entire).
    """

    __slots__ = ("prefactor", "factors")

    def __init__(self, prefactor: Rational = Fraction(1), factors=()):
        pre = Fraction(prefactor)
        merged: dict[Fraction, int] = {}
        zero = False
        for arg, exp in factors:
            arg = Fraction(arg)
            exp = int(exp)
            if exp == 0:
                continue
            try:
                xr, c = _reduce_gamma_argument(arg)
            except PoleError:
                if exp > 0:
                    raise
                zero = True  # Gamma pole downstairs: the value is 0
                continue
            pre *= c**exp
            if xr == 1:
                continue  # Gamma(1) = 1
            merged[xr] = merged.get(xr, 0) + exp
        if zero or pre == 0:
            object.__setattr__(self, "prefactor", Fraction(0))
            object.__setattr__(self, "factors", ())
            return
        object.__setattr__(self, "prefactor", pre)
        object.__setattr__(
            self, "factors", tuple(sorted((a, e) for a, e in merged.items() if e != 0))
        )

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("GammaProduct is immutable")

    @classmethod
    def from_gamma(cls, arg, exp: int = 1) -> "GammaProduct":
        return cls(Fraction(1), [(arg, exp)])

    def __mul__(self, other):
        if isinstance(other, GammaProduct):
            return GammaProduct(
                self.prefactor * other.prefactor, self.factors + other.factors
            )
        return GammaProduct(self.prefactor * Fraction(other), self.factors)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GammaProduct):
            return self * other.inverse()
        return GammaProduct(self.prefactor / Fraction(other), self.factors)

    def inverse(self) -> "GammaProduct":
        if self.prefactor == 0:
            raise ZeroDivisionError("inverse of zero GammaProduct")
        return GammaProduct(
            1 / self.prefactor, tuple((a, -e) for a, e in self.factors)
        )

    def __pow__(self, k: int) -> "GammaProduct":
        k = int(k)
        if k == 0:
            return GammaProduct(Fraction(1), [])
        base = self if k > 0 else self.inverse()
        return GammaProduct(
            base.prefactor ** abs(k), tuple((a, e * abs(k)) for a, e in base.factors)
        )

    def is_rational(self) -> bool:
        return not self.factors

    def simplify(self) -> Union[Rational, "GammaProduct"]:
        """Collapse to an exact Rational when every Gamma factor cancelled."""
        return self.prefactor if self.is_rational() else self

    def __eq__(self, other):
        if isinstance(other, GammaProduct):
            return self.prefactor == other.prefactor and self.factors == other.factors
        if self.is_rational():
            return self.prefactor == other
        return NotImplemented

    def __hash__(self):
        return hash((self.prefactor, self.factors))

    def __repr__(self):
        if self.is_rational():
            return f"GammaProduct({self.prefactor})"
        fac = " * ".join(
            f"Gamma({a})^{e}" if e != 1 else f"Gamma({a})" for a, e in self.factors
        )
        return f"GammaProduct({self.prefactor} * {fac})"

    def to_json(self) -> dict:
        return {
            "prefactor": format_rational(self.prefactor),
            "factors": [[format_rational(a), e] for a, e in self.factors],
        }

    def approx(self) -> Approx:
        if self.prefactor == 0:
            return _approx_from_log(float("-inf"), 0)
        log_v = log_abs_rational(self.prefactor)
        for a, e in self.factors:
            log_v += e * math.lgamma(float(a))
        sign = 1 if self.prefactor > 0 else -1  # Gamma > 0 on (0, 1]
        return _approx_from_log(log_v, sign)


def to_float(v: Union[Rational, GammaProduct]) -> Approx:
    """Double-precision evaluation (via log-gamma for Gamma products)."""
    if isinstance(v, GammaProduct):
        return v.approx()
    x = Fraction(v)
    if x == 0:
        return _approx_from_log(float("-inf"), 0)
    sign = 1 if x > 0 else -1
    return _approx_from_log(log_abs_rational(x), sign)
