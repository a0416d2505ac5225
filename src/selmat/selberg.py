"""Closed forms for Selberg's integral and Aomoto's extensions.

Absolute values are formal Gamma products; every ratio of integrals is
computed directly as a product of rational linear factors, so ratios are
always exact Rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import GammaProduct, Rational, Value, format_rational

# Each payload moment E[prod_i x_i^e_i] of the spectral variable x, by its exponents e
PAYLOAD_POWERS = {"x2": (2,), "x1x1": (1, 1), "x2x2": (2, 2), "x4": (4,)}
SHIFTED_PAYLOADS = tuple(PAYLOAD_POWERS)
FULL_PAYLOADS = tuple(p for p, e in PAYLOAD_POWERS.items() if all(x % 2 == 0 for x in e))


class ParamOutOfRangeError(ValueError):
    """Parameters violate the Selberg convergence constraints."""


class IndexConstraintError(ValueError):
    """Index arguments outside the valid (m1, m2, m3) region."""


class SelbergParams(Value):
    """(n, u, w, kappa) for the weight prod t^(u-1)(1-t)^(w-1) prod|t_i-t_j|^(2kappa)."""

    __slots__ = _fields = ("n", "u", "w", "kappa")

    def __init__(self, n: int, u: Rational, w: Rational, kappa: Rational):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "u", Fraction(u))
        object.__setattr__(self, "w", Fraction(w))
        object.__setattr__(self, "kappa", Fraction(kappa))
        self.validate()

    def validate(self):
        n, u, w, k = self.n, self.u, self.w, self.kappa
        if n < 1:
            raise ParamOutOfRangeError(f"n must be >= 1, got {n}")
        if u <= 0 or w <= 0:
            raise ParamOutOfRangeError(f"need u, w > 0, got u={u}, w={w}")
        bounds = [Fraction(1, n)]
        if n > 1:
            bounds += [u / (n - 1), w / (n - 1)]
        if k <= -min(bounds):  # strict: boundary equality rejected
            listed = ", ".join(format_rational(b) for b in bounds)
            raise ParamOutOfRangeError(f"kappa={k} violates kappa > -min[{listed}]")


def selberg_I0(p: SelbergParams) -> GammaProduct:
    """The exact Gamma-product value of the n-dimensional Selberg integral.

    Call ``.simplify()`` on the result to collapse to a Rational whenever all
    Gamma factors cancel (e.g. integer u, w, kappa).
    """
    n, u, w, k = p.n, p.u, p.w, p.kappa
    factors = []
    for i in range(1, n + 1):
        factors.append((1 + (n - i + 1) * k, 1))
        factors.append((1 + k, -1))
        factors.append((u + (n - i) * k, 1))
        factors.append((w + (n - i) * k, 1))
        factors.append((u + w + (2 * n - i - 1) * k, -1))
    return GammaProduct(Fraction(1), factors)


def aomoto_ratio(p: SelbergParams, m: int) -> Rational:
    """I_m / I_0: the normalised integral of the elementary symmetric e_m.

    I_m / I_0 = binom(n, m) * prod_{i=1}^m (u+(n-i)kappa) / (u+w+(2n-i-1)kappa).
    """
    n, u, w, k = p.n, p.u, p.w, p.kappa
    if not 0 <= m <= n:
        raise ParamOutOfRangeError(f"need 0 <= m <= n, got m={m}, n={n}")
    out = Fraction(math.comb(n, m))
    for i in range(1, m + 1):
        out *= (u + (n - i) * k) / (u + w + (2 * n - i - 1) * k)
    return out


def check_aomoto_indices(n: int, m1: int, m2: int, m3: int) -> None:
    """Refuse (m1, m2, m3) outside the region where the Aomoto integrand lives in n variables."""
    if m1 < 0 or m2 < 0 or m3 < 0:
        raise IndexConstraintError("m1, m2, m3 must be >= 0")
    if m3 > m1 or m1 + m2 - m3 > n:
        raise IndexConstraintError(
            f"need m3 <= m1 and m1+m2-m3 <= n, got ({m1},{m2},{m3}), n={n}"
        )


def aomoto_general_ratio(p: SelbergParams, m1: int, m2: int, m3: int) -> Rational:
    """I_{m1,m2,m3} / I_0 for the integrand prod_{i<=m1} t_i * prod (1-t_j).

    The m3-fold overlap contributes the extra prefactor
    prod_{i=1}^{m3} (u+w+(n-i-1)kappa) / (u+w+1+(2n-i-1)kappa), whose numerator at
    i is the denominator's form at j = n + i; such pairs cancel unevaluated, as both
    vanish at (n, n, n) with u + w = kappa.
    """
    n, u, w, k = p.n, p.u, p.w, p.kappa
    check_aomoto_indices(n, m1, m2, m3)
    cancel = max(0, m1 + m2 - n)  # <= m3, as m1 + m2 - m3 <= n
    out = Fraction(1)
    for i in range(1, m3 + 1):
        out *= (u + w + (n - i - 1) * k if i > cancel else 1) / (u + w + 1 + (2 * n - i - 1) * k)
    for i in range(1, m1 + 1):
        out *= u + (n - i) * k
    for i in range(1, m2 + 1):
        out *= w + (n - i) * k
    for i in range(1, m1 + m2 - cancel + 1):
        out /= u + w + (2 * n - i - 1) * k
    return out
