"""The acceptance suite: one callable check per criterion, hermetic and seeded.

Each check returns a CheckResult with per-case detail records; run_all returns
them in criterion order and serialize_result writes each as one JSON line.
run_all draws C10's Monte Carlo samples in a forked child while C1-C9 run in
its own process; the bytes are those of a serial run.
Everything exact is compared with exact equality; quadrature cases (QUAD_POINTS
per axis) must agree to QUAD_RTOL relative to the exact value; Monte Carlo cases
(MC_COUNT draws per ball) use a 4-standard-error band at the given seed.
C4-C9 hold for every n: an equality is an identity of rational functions of n,
an inequality one sign certificate (_positive_from), and only n = 2 and 3,
below moments.Q_N_FROM, are read per n.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

from . import DEFAULT_SEED  # noqa: F401  re-exported: the default --seed of verify
from .combinat import Permutation, partitions_of
from .exact import Value, format_rational, to_float
from .jack import jack_in_monomials, kadell_ratio, monomial_to_jack
from .moments import (
    _N,
    Q_N_FROM,
    SELF_ADJOINT,
    asympt_quantity,
    asymptotic_expansion,
    beta_remark_combination,
    ensemble,
    ensemble_moment_field,
    full_matrix_moment_ratio,
    laurent_coefficients,
)
from .oracle import QuadratureSpec, SampleEstimate, ball_moment_estimate, ball_second_moments
from .oracle import coarse_spec, quadrature_values
from .selberg import aomoto_general_ratio, aomoto_ratio, selberg_I0
from .weingarten import (
    covariance_functions,
    full_ball_functions,
    wg_orthogonal,
    wg_unitary,
    zonal_spherical,
)

QUAD_POINTS = 28
QUAD_RTOL = 1e-11  # |quad - exact| <= QUAD_RTOL |exact| for every C1 case
MC_COUNT = 400_000


class CheckResult(Value):
    """One criterion's verdict and its per-case detail records (a list, so no hash)."""

    __slots__ = _fields = ("criterion", "name", "passed", "n_cases", "details")
    __hash__ = None

    def __init__(self, criterion: str, name: str, passed: bool, n_cases: int,
                 details: list | None = None):
        self._set(criterion, name, passed, n_cases, [] if details is None else details)

    def to_json(self) -> dict:
        return {
            "criterion": self.criterion,
            "name": self.name,
            "passed": self.passed,
            "n_cases": self.n_cases,
            "details": self.details,
        }


def _result(criterion, name, details) -> CheckResult:
    passed = all(d.get("pass", True) for d in details)
    return CheckResult(criterion, name, passed, len(details), details)


def _positive_from(f, n0: int) -> bool:
    """True only if the RationalFunction f is positive at every real n >= n0, by one certificate.

    After the integer Taylor shift n = n0 + m, a polynomial with a positive constant
    term and no negative coefficient is positive at every m >= 0 (Descartes' rule of
    signs).  Both of f's must be; else False, also for a positive f: nothing is guessed.
    """
    for poly in (f.numerator, f.denominator):
        c = list(poly)
        for i in range(len(c) - 1):
            for j in range(len(c) - 2, i - 1, -1):
                c[j] += n0 * c[j + 1]
        if not c or c[0] <= 0 or min(c) < 0:
            return False
    return True


# -- C1 ---------------------------------------------------------------------


def check_selberg_quadrature() -> CheckResult:
    """Exact Selberg/Aomoto/Kadell values against tensor-product quadrature.

    I0 is compared directly, with the error estimate of oracle.quadrature (its
    distance to the coarse rule); every other case compares its exact ratio to
    I0 with the ratio of its fine-rule value to the I0 quadrature at the same
    weight.  Every rule is read in one quadrature_values batch.  Every case
    passes iff |quad - exact| <= QUAD_RTOL |exact|.
    """
    details = []
    i0_cases, ratio_cases = [], []  # (detail, spec) and (detail, spec, I0 detail)
    kappas = (Fraction(1, 2), Fraction(1), Fraction(2))
    uws = (Fraction(1), Fraction(3, 2), Fraction(2))
    general_idx = [
        (1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1),
        (2, 0, 0), (0, 2, 0), (2, 1, 0), (2, 1, 1), (1, 2, 0), (1, 2, 1),
        (3, 0, 0), (0, 3, 0),
    ]
    lams = [lam for d in (1, 2, 3, 4) for lam in partitions_of(d)]
    for n in (2, 3):
        for kap in kappas:
            i0 = {}  # (u, w) -> I0 case

            def ratio_case(case, exact, payload, u, w):
                details.append({"case": f"{case} n={n} u={u} w={w} kappa={kap}",
                                "exact": float(exact)})
                spec = QuadratureSpec("selberg", n, payload, (u, w, kap), QUAD_POINTS)
                ratio_cases.append((details[-1], spec, i0[u, w]))

            for u in uws:
                for w in uws:
                    spec = QuadratureSpec("selberg", n, ("one",), (u, w, kap), QUAD_POINTS)
                    p = spec.weight
                    details.append({"case": f"I0 n={n} u={u} w={w} kappa={kap}",
                                    "exact": to_float(selberg_I0(p)).value})
                    i0[u, w] = details[-1]
                    i0_cases.append((details[-1], spec))
                    for m in range(1, n + 1):
                        ratio_case(f"aomoto m={m}", aomoto_ratio(p, m), ("elementary", m), u, w)
                    for (m1, m2, m3) in general_idx:
                        if m1 + m2 - m3 > n or m3 > min(m1, m2):
                            continue
                        ratio_case(f"aomoto ({m1},{m2},{m3})", aomoto_general_ratio(p, m1, m2, m3),
                                   ("aomoto", (m1, m2, m3)), u, w)
            # Kadell cases at u = w = 1 and at one off-centre (u, w), on the I0 quadratures above
            for (u, w) in ((Fraction(1), Fraction(1)), (Fraction(3, 2), Fraction(2))):
                for lam in lams:
                    if len(lam) > n:
                        continue
                    desc = ("sympoly", jack_in_monomials(lam, kap).coeffs)
                    ratio_case(f"kadell {lam}", kadell_ratio(lam, n, u, w, kap), desc, u, w)
    # one batch builds each node set once and reads each payload once on it
    k = len(i0_cases)
    values = quadrature_values([*(spec for _, spec in i0_cases),
                                *(coarse_spec(spec) for _, spec in i0_cases),
                                *(spec for _, spec, _ in ratio_cases)])
    for (detail, _), quad, coarse in zip(i0_cases, values[:k], values[k:2 * k]):
        detail.update(quad=quad, quad_err_est=abs(quad - coarse))
    for (detail, _, i0_case), val in zip(ratio_cases, values[2 * k:]):
        detail["quad"] = val / i0_case["quad"]
    for detail in details:
        detail["pass"] = abs(detail["quad"] - detail["exact"]) <= QUAD_RTOL * abs(detail["exact"])
    return _result("C1", "selberg/aomoto/kadell vs quadrature", details)


# -- C2 ---------------------------------------------------------------------


def _p_table(kap: Fraction) -> dict:
    """Closed-form degree <= 4 monic-Jack coefficient tables."""
    k = kap
    return {
        (1,): {(1,): 1},
        (2,): {(2,): 1, (1, 1): 2 * k / (k + 1)},
        (1, 1): {(1, 1): 1},
        (3,): {(3,): 1, (2, 1): 3 * k / (k + 2), (1, 1, 1): 6 * k**2 / ((k + 1) * (k + 2))},
        (2, 1): {(2, 1): 1, (1, 1, 1): 6 * k / (2 * k + 1)},
        (1, 1, 1): {(1, 1, 1): 1},
        (4,): {
            (4,): 1,
            (3, 1): 4 * k / (k + 3),
            (2, 2): 6 * k * (k + 1) / ((k + 2) * (k + 3)),
            (2, 1, 1): 12 * k**2 / ((k + 2) * (k + 3)),
            (1, 1, 1, 1): 24 * k**3 / ((k + 1) * (k + 2) * (k + 3)),
        },
        (3, 1): {
            (3, 1): 1,
            (2, 2): 2 * k / (k + 1),
            (2, 1, 1): (5 * k + 3) * k / (k + 1) ** 2,
            (1, 1, 1, 1): 12 * k**2 / (k + 1) ** 2,
        },
        (2, 2): {
            (2, 2): 1,
            (2, 1, 1): 2 * k / (k + 1),
            (1, 1, 1, 1): 12 * k**2 / ((k + 1) * (2 * k + 1)),
        },
        (2, 1, 1): {(2, 1, 1): 1, (1, 1, 1, 1): 12 * k / (3 * k + 1)},
        (1, 1, 1, 1): {(1, 1, 1, 1): 1},
    }


def _conversion_table(kap: Fraction) -> dict:
    """Closed-form inverse tables (monomials in the Jack basis)."""
    k = kap
    return {
        (2,): {(2,): 1, (1, 1): -2 * k / (k + 1)},
        (1, 1): {(1, 1): 1},
        (3,): {
            (3,): 1,
            (2, 1): -3 * k / (k + 2),
            (1, 1, 1): 6 * k**2 / ((k + 1) * (2 * k + 1)),
        },
        (2, 1): {(2, 1): 1, (1, 1, 1): -6 * k / (2 * k + 1)},
        (1, 1, 1): {(1, 1, 1): 1},
        (4,): {
            (4,): 1,
            (3, 1): -4 * k / (k + 3),
            (2, 2): 2 * k * (k - 1) / ((k + 1) * (k + 2)),
            (2, 1, 1): 4 * k**2 / (k + 1) ** 2,
            (1, 1, 1, 1): -24 * k**3 / ((k + 1) * (2 * k + 1) * (3 * k + 1)),
        },
        (3, 1): {
            (3, 1): 1,
            (2, 2): -2 * k / (k + 1),
            (2, 1, 1): -k * (k + 3) / (k + 1) ** 2,
            (1, 1, 1, 1): 24 * k**2 / ((2 * k + 1) * (3 * k + 1)),
        },
        (2, 2): {
            (2, 2): 1,
            (2, 1, 1): -2 * k / (k + 1),
            (1, 1, 1, 1): 12 * k**2 / ((2 * k + 1) * (3 * k + 1)),
        },
        (2, 1, 1): {(2, 1, 1): 1, (1, 1, 1, 1): -12 * k / (3 * k + 1)},
        (1, 1, 1, 1): {(1, 1, 1, 1): 1},
    }


def check_jack_tables() -> CheckResult:
    """Degree <= 4 Jack/monomial tables at kappa in {1/2, 1, 2, 3}, exactly."""
    details = []
    for kap in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)):
        ptab = _p_table(kap)
        for lam, want in ptab.items():
            got = jack_in_monomials(lam, kap).as_dict()
            want = {mu: Fraction(c) for mu, c in want.items() if c != 0}
            details.append(
                {"case": f"P_{lam} kappa={kap}", "pass": got == want}
            )
        ctab = _conversion_table(kap)
        for mu, want in ctab.items():
            got = monomial_to_jack(mu, kap)
            want = {lam: Fraction(c) for lam, c in want.items() if c != 0}
            details.append(
                {"case": f"m_{mu} kappa={kap}", "pass": got == want}
            )
    return _result("C2", "jack coefficient tables (exact)", details)


# -- C3 ---------------------------------------------------------------------

EXPANSION_DATA = {
    (Fraction(1), "x2"): [Fraction(1, 8), Fraction(0), Fraction(-1, 32)],
    (Fraction(1), "x1x1"): [Fraction(0), Fraction(-1, 8), Fraction(-1, 16), Fraction(-1, 32)],
    (Fraction(1), "x2x2"): [Fraction(1, 64), Fraction(-1, 128), Fraction(-1, 128)],
    (Fraction(1), "x4"): [Fraction(3, 128), Fraction(0)],
    (Fraction(1, 2), "x2"): [Fraction(1, 8), Fraction(-1, 16), Fraction(1, 32)],
    (Fraction(1, 2), "x1x1"): [Fraction(0), Fraction(-1, 8), Fraction(1, 16), Fraction(-1, 32)],
    (Fraction(1, 2), "x2x2"): [Fraction(1, 64), Fraction(-3, 128), Fraction(3, 128)],
    (Fraction(1, 2), "x4"): [Fraction(3, 128), Fraction(-5, 256)],
    (Fraction(2), "x2"): [Fraction(1, 8), Fraction(1, 32), Fraction(1, 128)],
    (Fraction(2), "x2x2"): [Fraction(1, 64), Fraction(0), Fraction(-3, 1024)],
    (Fraction(2), "x4"): [Fraction(3, 128), Fraction(5, 512)],
}


def check_expansions() -> CheckResult:
    """Exact Laurent data of the box-moment quantities, reconstructed from samples."""
    details = []
    for (kap, payload), want in EXPANSION_DATA.items():
        _, got = asymptotic_expansion(payload, len(want) - 1, kappa=kap)
        details.append(
            {
                "case": f"{payload} kappa={kap}",
                "want": [format_rational(c) for c in want],
                "got": [format_rational(c) for c in got],
                "pass": got == want,
            }
        )
    return _result("C3", "exact moment expansions", details)


# -- C4 ---------------------------------------------------------------------

# The exact limit of var: the paper's constants, in its convention, and 1/(8 beta) on the full balls
VARIANCE_CONSTANTS = {
    "hermitian": Fraction(1, 32),
    "symmetric": Fraction(1, 16),
    "quaternion": Fraction(1, 64),
    "full-real": Fraction(1, 8),
    "full-complex": Fraction(1, 16),
    "full-quaternion": Fraction(1, 32),
}

_PER_N = range(2, Q_N_FROM)  # the n checked per n: the functions of n hold from Q_N_FROM on


def _full_matrix_chain(beta: int) -> dict:
    """E[x_1^2], E[x_1^2 x_2^2] and E[x_1^4] of the full ball in closed form, as functions of n."""
    n, b = _N, Fraction(beta)
    den1 = 1 + (2 * n - 1) * b / 2
    den2 = 1 + (n - 1) * b
    return {
        "x2": (n * b / 2) / den1,
        "x2x2": (n * (n - 1) * b**2 / 4) / (den1 * den2),
        "x4": (n * b / 2 * (Fraction(1, 2) + 3 * (n - 1) * b / 4)) / (den1 * den2)
        + (n * b**2 / 8 * (1 + (n - 1) * b / 2)) / ((2 + (2 * n - 1) * b / 2) * den1 * den2),
    }


def check_variance_constants() -> CheckResult:
    """|var - c| < 2/n for all n >= 20 by two sign certificates, the exact limit c, and the
    full balls' moments as the identity _full_matrix_chain (per n at n = 2 and 3)."""
    details = []
    for name, c in VARIANCE_CONSTANTS.items():
        spec = ensemble(name)
        convention = "paper" if spec.family == SELF_ADJOINT else "forced"
        var, (lim,) = asymptotic_expansion("var", 0, ensemble_name=name, convention=convention)
        details.append({"case": f"{name} |var-c|<2/n, all n >= 20", "pass": all(
            _positive_from(2 / _N + sign * (var - c), 20) for sign in (-1, 1))})
        details.append({"case": f"{name} exact limit", "limit": format_rational(lim),
                        "target": format_rational(c), "pass": lim == c})
        if spec.family == SELF_ADJOINT:
            continue
        chain_ok = all(
            asympt_quantity(f"fm-{payload}", beta=spec.beta) == f
            and all(full_matrix_moment_ratio(payload, n, spec.beta) == f(n) for n in _PER_N)
            for payload, f in _full_matrix_chain(spec.beta).items()
        )
        details.append({"case": f"{name} closed-form chain, all n >= 2", "pass": chain_ok})
    return _result("C4", "variance constants", details)


# -- C5 ---------------------------------------------------------------------


def check_remark() -> CheckResult:
    """Exact 1/(64 beta) constant of the box combination; forced var = 16 x remark as an
    identity of functions of n, and per n at n = 2 and 3."""
    details = []
    for beta in (1, 2, 4, 6):
        _, lc = asymptotic_expansion("remark", 0, beta=beta)
        details.append(
            {
                "case": f"remark constant beta={beta}",
                "got": format_rational(lc[0]),
                "want": format_rational(Fraction(1, 64 * beta)),
                "pass": lc[0] == Fraction(1, 64 * beta),
            }
        )
    for name in ("hermitian", "symmetric", "quaternion"):
        spec = ensemble(name)
        ok = asympt_quantity("var", ensemble_name=name) == 16 * asympt_quantity(
            "remark", beta=spec.beta) and all(
            ensemble_moment_field(spec, n, "var") == 16 * beta_remark_combination(n, spec.beta)
            for n in _PER_N)
        details.append({"case": f"{name} forced var = 16 x remark, all n >= 2", "pass": ok})
    return _result("C5", "general-beta box combination", details)


# -- C6 ---------------------------------------------------------------------


def check_sigma2() -> CheckResult:
    """1/10 < sigma^2 < 10 in both conventions for all six balls and n >= 2; exact limit 1/2.

    From Q_N_FROM on the bounds are two sign certificates and convention independence
    an identity of functions of n; n = 2 and 3 are checked per n.
    """
    details = []
    lo, hi = Fraction(1, 10), 10
    for name in VARIANCE_CONSTANTS:
        spec = ensemble(name)
        sigma2, (lim,) = asymptotic_expansion("sigma2", 0, ensemble_name=name)
        ok = _positive_from(sigma2 - lo, Q_N_FROM) and _positive_from(hi - sigma2, Q_N_FROM) and (
            asympt_quantity("sigma2", ensemble_name=name, convention="paper") == sigma2)
        for n in _PER_N:
            s = ensemble_moment_field(spec, n, "sigma2")
            ok = ok and lo < s < hi and s == ensemble_moment_field(spec, n, "sigma2", "paper")
        details.append({"case": f"{name} bounds in both conventions, all n >= 2", "pass": ok})
        details.append({"case": f"{name} exact limit", "limit": format_rational(lim),
                        "target": "1/2", "pass": lim == Fraction(1, 2)})
    return _result("C6", "thin-shell constant bounds", details)


# -- C7 ---------------------------------------------------------------------


def check_weingarten_values() -> CheckResult:
    """Closed-form Weingarten and zonal spherical values, as identities of functions of n."""
    details = []
    n = _N
    ok_u = (
        wg_unitary((1, 1), 2, n) == 1 / (n * n - 1)
        and wg_unitary((2,), 2, n) == -1 / (n * (n * n - 1))
    )
    details.append({"case": "Wg^U k=2 closed forms", "pass": ok_u})
    ok_o = (
        wg_orthogonal((1, 1), 2, n) == (n + 1) / (n * (n - 1) * (n + 2))
        and wg_orthogonal((2,), 2, n) == -1 / (n * (n - 1) * (n + 2))
    )
    details.append({"case": "Wg^O k=2 closed forms", "pass": ok_o})
    import itertools as it

    omega2 = all(
        zonal_spherical((2,), Permutation(p)) == 1 for p in it.permutations((1, 2, 3, 4))
    )
    details.append({"case": "omega^(2) == 1 on S_4", "pass": omega2})
    details.append(
        {
            "case": "omega^(1,1) values",
            "pass": zonal_spherical((1, 1), Permutation.identity(4)) == 1
            and zonal_spherical((1, 1), Permutation.from_cycles(4, (2, 3))) == Fraction(-1, 2),
        }
    )
    ok_k1 = wg_unitary((1,), 1, n) == 1 / n and wg_orthogonal((1,), 1, n) == 1 / n
    details.append({"case": "k=1 values 1/n", "pass": ok_k1})
    return _result("C7", "weingarten closed forms", details)


# -- C8 ---------------------------------------------------------------------


def check_covariance() -> CheckResult:
    """Covariance structure of the self-adjoint balls for all n >= 2, from functions of n.

    The structural identity and the zero pattern (one off-pattern moment per equality
    pattern covers every index tuple; a zero function has an empty numerator) are
    identities.  Of the spectrum {trace} + {bulk}, trace > 0, bulk > trace and
    bulk/trace < 3 are sign certificates, and bulk/trace tends to exactly 2.
    """
    details = []
    for kind in ("hermitian", "symmetric"):
        m, off = covariance_functions(kind, "forced")
        a, b = m["T11sq"], m["T11T22"]
        offdiag = m["absT12sq"] if kind == "hermitian" else 2 * m["T12sq"]
        details.append({"case": f"{kind} structural identity, all n >= 2",
                        "pass": a == b + offdiag})
        details.append({"case": f"{kind} zero statements, every index tuple, all n >= 2",
                        "pass": not any(f.numerator for f in off)})
        trace, bulk = a + (_N - 1) * b, a - b
        (lim,) = laurent_coefficients(bulk / trace, 0)
        signs = (trace, bulk - trace, 3 - bulk / trace)
        details.append({"case": f"{kind} condition number < 3, all n >= 2",
                        "limit": format_rational(lim),
                        "pass": all(_positive_from(f, 2) for f in signs) and lim == 2})
    return _result("C8", "covariance structure of self-adjoint balls", details)


# -- C9 ---------------------------------------------------------------------

# (E|T_11|^2, cross, same_row) of the full balls in closed form
NEGCORR_VALUES = {
    "c": (1 / (2 * _N), 1 / (4 * _N * _N - 1), 1 / (2 * _N * (2 * _N + 1))),
    "r": (1 / (2 * _N + 1), (_N + 1) / (_N * (2 * _N + 1) * (2 * _N + 3)),
          1 / ((2 * _N + 1) * (2 * _N + 3))),
}


def check_negcorr() -> CheckResult:
    """Exact full-matrix correlation values as identities in n; cross > (E|T_11|^2)^2 > same_row
    for all n >= 2, by two sign certificates."""
    details = []
    for f, ball in (("c", "full-complex"), ("r", "full-real")):
        second, cross, same_row = values = full_ball_functions(ball)
        details.append({"case": f"field {f} exact values, all n >= 2",
                        "pass": values == NEGCORR_VALUES[f]})
        signs = (cross - second**2, second**2 - same_row)
        details.append({"case": f"field {f} inequality pattern, all n >= 2",
                        "pass": all(_positive_from(g, 2) for g in signs)})
    return _result("C9", "entrywise correlation values", details)


# -- C10 --------------------------------------------------------------------

MC_N = 3  # C10 samples the n x n hermitian and symmetric balls
MC_BALLS = ("hermitian", "symmetric")


def oracle_estimates(seed: int) -> dict:
    """C10's Monte Carlo side: {ball: {moment: SampleEstimate}}, MC_COUNT draws per ball."""
    return {kind: ball_moment_estimate(kind, MC_N, ball_second_moments(kind), MC_COUNT, seed)
            for kind in MC_BALLS}


def check_oracle_concordance(seed: int, estimates: dict | None = None) -> CheckResult:
    """Exactly sampled n=3 balls against the forced-convention exact engine.

    Also adjudicates the scaling convention: the paper-convention second
    moments sit far outside the Monte Carlo error band.  estimates are
    oracle_estimates(seed), drawn here unless given.
    """
    if estimates is None:
        estimates = oracle_estimates(seed)
    details = []
    for kind in MC_BALLS:
        exact = {
            conv: {name: f(MC_N) for name, f in covariance_functions(kind, conv)[0].items()}
            for conv in ("forced", "paper")
        }
        z_paper = []  # of the moments whose forced value is not zero
        for name, e in estimates[kind].items():
            zf = abs(e.mean - float(exact["forced"][name])) / e.stderr
            zp = abs(e.mean - float(exact["paper"][name])) / e.stderr
            details.append({
                "case": f"{kind} {name}", "mc": e.mean, "stderr": e.stderr,
                "exact_forced": float(exact["forced"][name]), "z_forced": round(zf, 3),
                "z_paper": round(zp, 3), "n_samples": e.n_samples, "pass": zf <= 4.0,
            })
            if abs(details[-1]["exact_forced"]) > 1e-9:
                z_paper.append(details[-1]["z_paper"])
        # the convention adjudication: paper-convention values must be rejected
        details.append(
            {"case": f"{kind} forced convention adjudicated", "pass": all(z > 10 for z in z_paper)}
        )
    return _result("C10", "ball-sampler concordance", details)


class _SamplingChild:
    """oracle_estimates(seed) drawn in a forked child while the parent runs on.

    The fork comes first, while the process is single-threaded, after stdout
    and stderr are flushed so the child holds nothing of the parent's output.
    The child sends one JSON document through a pipe, its estimates (JSON
    floats round-trip exactly) or the module, type, message and traceback of
    what it raised, and ends through os._exit on every path, so it runs no
    exit handler and flushes no stream.
    """

    def __init__(self, seed: int):
        sys.stdout.flush()
        sys.stderr.flush()
        self.fd, w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(self.fd)
            os.close(w)
            raise
        if self.pid == 0:
            _sampling_child_main(seed, w)
        os.close(w)

    def estimates(self) -> dict:
        """Read the child's document, reap the child, and return its estimates or raise
        what it raised."""
        chunks = []
        while chunk := os.read(self.fd, 1 << 16):
            chunks.append(chunk)
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        try:
            msg = json.loads(b"".join(chunks))
        except ValueError:
            raise RuntimeError(f"C10's sampling child sent no result (wait status {status})") from None
        if "error" in msg:
            module, qualname, message, child_traceback = msg["error"]
            cls = getattr(sys.modules.get(module), qualname, None)
            try:
                exc = cls(message) if isinstance(cls, type) and issubclass(cls, Exception) else None
            except Exception:  # a class not built from its message alone
                exc = None
            if exc is None:
                exc = RuntimeError(f"{qualname}: {message}")
            raise exc from RuntimeError(f"in C10's sampling child:\n{child_traceback}")
        return {kind: {name: SampleEstimate(**e) for name, e in est.items()}
                for kind, est in msg["estimates"].items()}

    def close(self) -> None:
        """Kill and reap the child unless estimates() has, and close the pipe."""
        if self.pid is not None:
            import signal
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        os.close(self.fd)


def _sampling_child_main(seed: int, w: int):
    """The child's whole life: draw, send one document to w, os._exit."""
    try:
        try:
            msg = {"estimates": {kind: {name: e.to_json() for name, e in est.items()}
                                 for kind, est in oracle_estimates(seed).items()}}
        except Exception as exc:  # an interrupt ends the child unreported, by os._exit below
            import traceback
            msg = {"error": [type(exc).__module__, type(exc).__qualname__, str(exc),
                             traceback.format_exc()]}
        data = json.dumps(msg).encode()
        while data:
            data = data[os.write(w, data):]
    finally:
        os._exit(0)


# -- runner -----------------------------------------------------------------

ALL_CRITERIA = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10")


def run_all(seed: int, criteria) -> list[CheckResult]:
    """Run the acceptance criteria (C11, determinism, is checked by re-running).

    The serialised results are byte-deterministic for a fixed seed.  C10's
    draws share nothing with C1-C9 but the seed, so where os.fork exists they
    run in a child (_SamplingChild) started before the others, and the parent
    compares them with the exact engine once the others are done.  The child
    is reaped before this returns or raises.
    """
    runners = {
        "C1": check_selberg_quadrature,
        "C2": check_jack_tables,
        "C3": check_expansions,
        "C4": check_variance_constants,
        "C5": check_remark,
        "C6": check_sigma2,
        "C7": check_weingarten_values,
        "C8": check_covariance,
        "C9": check_negcorr,
        "C10": lambda: check_oracle_concordance(seed),
    }
    unknown = [c for c in criteria if c not in runners]
    if unknown:
        raise ValueError(f"unknown criteria {unknown}; choose from {list(ALL_CRITERIA)}")
    if len(set(criteria)) != len(criteria):
        raise ValueError(f"criteria {list(criteria)} name a criterion more than once")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    child = _SamplingChild(seed) if "C10" in criteria and hasattr(os, "fork") else None
    try:
        results = {c: runners[c]() for c in criteria if not (child and c == "C10")}
        if child:
            results["C10"] = check_oracle_concordance(seed, child.estimates())
    finally:
        if child:
            child.close()
    return [results[c] for c in criteria]


def serialize_result(res: CheckResult) -> str:
    """Stable JSON line for a check result."""
    return json.dumps(res.to_json(), sort_keys=True)


def summary_line(results) -> str:
    ok = sum(1 for r in results if r.passed)
    verdicts = ", ".join(f"{r.criterion}:{'PASS' if r.passed else 'FAIL'}" for r in results)
    return f"{ok}/{len(results)} criteria passed ({verdicts})"
