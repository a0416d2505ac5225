"""The acceptance suite: one callable check per criterion, hermetic and seeded.

Each check returns a CheckResult with per-case detail records; run_all returns
them in criterion order and serialize_result writes each as one JSON line.
Everything exact is compared with exact equality; quadrature cases (QUAD_POINTS
per axis) must agree to QUAD_RTOL relative to the exact value; Monte Carlo cases
(MC_COUNT draws per ball) use a 4-standard-error band at the given seed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import DEFAULT_SEED  # noqa: F401  re-exported: the default --seed of verify
from .combinat import Permutation, partitions_of
from .exact import format_rational, to_float
from .jack import jack_in_monomials, kadell_ratio, monomial_to_jack
from .moments import (
    asymptotic_expansion,
    beta_remark_combination,
    ensemble,
    ensemble_moments,
    full_matrix_moment_ratio,
    trace_moments,
)
from .oracle import QuadratureSpec, ball_moment_estimate, ball_second_moments, node_key
from .oracle import quadrature, quadrature_values
from .selberg import aomoto_general_ratio, aomoto_ratio, selberg_I0
from .weingarten import (
    conj_invariant_moment_orthogonal,
    conj_invariant_moment_unitary,
    covariance_report,
    negcorr_report,
    self_adjoint_second_moments,
    wg_orthogonal,
    wg_unitary,
    zonal_spherical,
)

QUAD_POINTS = 28
QUAD_RTOL = 1e-11  # |quad - exact| <= QUAD_RTOL |exact| for every C1 case
MC_COUNT = 400_000


@dataclass
class CheckResult:
    criterion: str
    name: str
    passed: bool
    n_cases: int
    seconds: float
    details: list = field(default_factory=list)

    def to_json(self) -> dict:
        """The record without its timing, so that it is byte-deterministic."""
        return {
            "criterion": self.criterion,
            "name": self.name,
            "passed": self.passed,
            "n_cases": self.n_cases,
            "details": self.details,
        }


def _result(criterion, name, details, t0) -> CheckResult:
    passed = all(d.get("pass", True) for d in details)
    return CheckResult(criterion, name, passed, len(details), time.perf_counter() - t0, details)


# -- C1 ---------------------------------------------------------------------


def check_selberg_quadrature() -> CheckResult:
    """Exact Selberg/Aomoto/Kadell values against tensor-product quadrature.

    I0 is compared directly, with the quadrature's error estimate; every other
    case compares its exact ratio to I0 with the ratio of its fine-rule value
    (one quadrature_values batch) to the I0 quadrature at the same weight.
    Every case passes iff |quad - exact| <= QUAD_RTOL |exact|.
    """
    t0 = time.perf_counter()
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
    # one node set after another, so that quadrature builds each once
    for detail, spec in sorted(i0_cases, key=lambda case: node_key(case[1])):
        quad, err = quadrature(spec)
        detail.update(quad=quad, quad_err_est=err)
    values = quadrature_values([spec for _, spec, _ in ratio_cases])
    for (detail, _, i0_case), val in zip(ratio_cases, values):
        detail["quad"] = val / i0_case["quad"]
    for detail in details:
        detail["pass"] = abs(detail["quad"] - detail["exact"]) <= QUAD_RTOL * abs(detail["exact"])
    return _result("C1", "selberg/aomoto/kadell vs quadrature", details, t0)


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
    t0 = time.perf_counter()
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
    return _result("C2", "jack coefficient tables (exact)", details, t0)


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
    t0 = time.perf_counter()
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
    return _result("C3", "exact moment expansions", details, t0)


# -- C4 ---------------------------------------------------------------------

VARIANCE_CONSTANTS = {
    "hermitian": Fraction(1, 32),
    "symmetric": Fraction(1, 16),
    "quaternion": Fraction(1, 64),
}


def check_variance_constants() -> CheckResult:
    """Paper-convention variance constants, plus the full-matrix 1/(8 beta) chain."""
    t0 = time.perf_counter()
    details = []
    for name, c in VARIANCE_CONSTANTS.items():
        spec = ensemble(name)
        bad = []
        for n in range(20, 201):
            v = ensemble_moments(spec, n, "paper").var
            if abs(v - c) > Fraction(2, n):
                bad.append(n)
        details.append({"case": f"{name} |var-c|<=2/n on 20..200", "pass": not bad, "bad_n": bad})
        _, (lim,) = asymptotic_expansion("var", 0, ensemble_name=name, convention="paper")
        details.append(
            {"case": f"{name} exact limit", "limit": format_rational(lim),
             "target": format_rational(c), "pass": lim == c}
        )
    for name, beta in (("full-real", 1), ("full-complex", 2), ("full-quaternion", 4)):
        spec = ensemble(name)
        c = Fraction(1, 8 * beta)
        bad = []
        for n in range(20, 201):
            if abs(ensemble_moments(spec, n).var - c) > Fraction(2, n):
                bad.append(n)
        details.append({"case": f"{name} |var-1/(8b)|<=2/n", "pass": not bad, "bad_n": bad})
        _, (lim,) = asymptotic_expansion("var", 0, ensemble_name=name)
        details.append(
            {"case": f"{name} exact limit", "limit": format_rational(lim),
             "target": format_rational(c), "pass": lim == c}
        )
        # closed-form chain in beta and n vs the Aomoto assembly
        b = Fraction(beta)
        chain_ok = True
        for n in range(2, 51):
            m2 = full_matrix_moment_ratio("x2", n, beta)
            m22 = full_matrix_moment_ratio("x2x2", n, beta)
            m4 = full_matrix_moment_ratio("x4", n, beta)
            den1 = 1 + (2 * n - 1) * b / 2
            den2 = 1 + (n - 1) * b
            want2 = (n * b / 2) / den1
            want22 = (n * (n - 1) * b**2 / 4) / (den1 * den2)
            want4 = (n * b / 2 * (Fraction(1, 2) + 3 * (n - 1) * b / 4)) / (den1 * den2) + (
                n * b**2 / 8 * (1 + (n - 1) * b / 2)
            ) / ((2 + (2 * n - 1) * b / 2) * den1 * den2)
            chain_ok &= m2 == want2 and m22 == want22 and m4 == want4
        details.append({"case": f"{name} closed-form chain n<=50", "pass": chain_ok})
    return _result("C4", "variance constants", details, t0)


# -- C5 ---------------------------------------------------------------------


def check_remark() -> CheckResult:
    """Exact 1/(64 beta) constant of the box combination; 16x identity vs forced var."""
    t0 = time.perf_counter()
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
    for name in VARIANCE_CONSTANTS:
        spec = ensemble(name)
        ok = all(
            ensemble_moments(spec, n, "forced").var == 16 * beta_remark_combination(n, spec.beta)
            for n in range(2, 51)
        )
        details.append({"case": f"{name} forced var = 16 x remark, n<=50", "pass": ok})
    return _result("C5", "general-beta box combination", details, t0)


# -- C6 ---------------------------------------------------------------------


def check_sigma2() -> CheckResult:
    """sigma^2 in [0.1, 10] for all six ensembles and 2 <= n <= 200; exact limit 1/2."""
    t0 = time.perf_counter()
    details = []
    for name in (
        "hermitian", "symmetric", "quaternion", "full-real", "full-complex", "full-quaternion",
    ):
        spec = ensemble(name)
        bad = []
        for n in range(2, 201):
            s = ensemble_moments(spec, n).sigma2
            if not Fraction(1, 10) <= s <= 10:
                bad.append(n)
            if n in (2, 10, 100):
                # convention independence, exact
                if s != ensemble_moments(spec, n, "paper").sigma2:
                    bad.append(-n)
        details.append({"case": f"{name} bounds 2..200", "pass": not bad, "bad_n": bad})
        _, (lim,) = asymptotic_expansion("sigma2", 0, ensemble_name=name)
        details.append(
            {"case": f"{name} exact limit", "limit": format_rational(lim),
             "target": "1/2", "pass": lim == Fraction(1, 2)}
        )
    return _result("C6", "thin-shell constant bounds", details, t0)


# -- C7 ---------------------------------------------------------------------


def check_weingarten_values() -> CheckResult:
    """Closed-form Weingarten and zonal spherical values, n = 3..20, exactly."""
    t0 = time.perf_counter()
    details = []
    ok_u = all(
        wg_unitary((1, 1), 2, n) == Fraction(1, n * n - 1)
        and wg_unitary((2,), 2, n) == Fraction(-1, n * (n * n - 1))
        for n in range(3, 21)
    )
    details.append({"case": "Wg^U k=2 closed forms", "pass": ok_u})
    ok_o = all(
        wg_orthogonal((1, 1), 2, n) == Fraction(n + 1, n * (n - 1) * (n + 2))
        and wg_orthogonal((2,), 2, n) == Fraction(-1, n * (n - 1) * (n + 2))
        for n in range(3, 21)
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
    ok_k1 = all(
        wg_unitary((1,), 1, n) == Fraction(1, n) and wg_orthogonal((1,), 1, n) == Fraction(1, n)
        for n in range(3, 21)
    )
    details.append({"case": "k=1 values 1/n", "pass": ok_k1})
    return _result("C7", "weingarten closed forms", details, t0)


# -- C8 ---------------------------------------------------------------------


def check_covariance() -> CheckResult:
    """Zero pattern, structural identities, and conditioning of the covariance."""
    t0 = time.perf_counter()
    details = []
    for kind in ("hermitian", "symmetric"):
        spec = ensemble(kind)
        ident_ok = True
        zeros_ok = True
        for n in range(2, 51):
            tm = trace_moments(spec, n, "forced")
            m = self_adjoint_second_moments(kind, n, tm)
            if kind == "hermitian":
                ident_ok &= m["T11sq"] == m["T11T22"] + m["absT12sq"]
                # complex zero statements: E[T_kl T_kl] = 0 and mixed patterns
                zeros_ok &= conj_invariant_moment_unitary((1, 1), (2, 2), tm, n) == 0
                zeros_ok &= conj_invariant_moment_unitary((1, 1), (2, 1), tm, n) == 0
                if n > 2:
                    zeros_ok &= conj_invariant_moment_unitary((1, 2), (1, 3), tm, n) == 0
            else:
                ident_ok &= m["T11sq"] == m["T11T22"] + 2 * m["T12sq"]
                zeros_ok &= conj_invariant_moment_orthogonal((1, 1, 1, 2), tm, n) == 0
                if n > 2:
                    zeros_ok &= conj_invariant_moment_orthogonal((1, 2, 1, 3), tm, n) == 0
        details.append({"case": f"{kind} structural identity n<=50", "pass": ident_ok})
        details.append({"case": f"{kind} zero statements n<=50", "pass": zeros_ok})
        full_zero = all(
            covariance_report(kind, n, "forced", check_zeros=True).zero_pattern_exact
            for n in (2, 3, 4, 5)
        )
        details.append({"case": f"{kind} exhaustive index patterns n<=5", "pass": full_zero})
        cond_ok = all(
            covariance_report(kind, n, "forced", check_zeros=False).condition_number <= 3
            for n in range(2, 101)
        )
        c100 = float(covariance_report(kind, 100, "forced", check_zeros=False).condition_number)
        details.append(
            {
                "case": f"{kind} condition number",
                "cond_100": c100,
                "pass": cond_ok and abs(c100 - 2) <= 0.05,
            }
        )
    return _result("C8", "covariance structure of self-adjoint balls", details, t0)


# -- C9 ---------------------------------------------------------------------


def check_negcorr() -> CheckResult:
    """Exact full-matrix correlation values and sign patterns, 2 <= n <= 50."""
    t0 = time.perf_counter()
    details = []
    vals_ok = {"c": True, "r": True}
    ineq_ok = {"c": True, "r": True}
    for n in range(2, 51):
        c = negcorr_report("c", n)
        vals_ok["c"] &= (
            c["cross"] == Fraction(1, 4 * n * n - 1)
            and c["same_row"] == Fraction(1, 2 * n * (2 * n + 1))
            and c["second_moment"] == Fraction(1, 2 * n)
        )
        ineq_ok["c"] &= c["cross"] > c["second_moment_sq"] > c["same_row"]
        r = negcorr_report("r", n)
        vals_ok["r"] &= (
            r["cross"] == Fraction(n + 1, n * (2 * n + 1) * (2 * n + 3))
            and r["same_row"] == Fraction(1, (2 * n + 1) * (2 * n + 3))
            and r["second_moment"] == Fraction(1, 2 * n + 1)
        )
        ineq_ok["r"] &= r["cross"] > r["second_moment_sq"] > r["same_row"]
    for f in ("c", "r"):
        details.append({"case": f"field {f} exact values", "pass": vals_ok[f]})
        details.append({"case": f"field {f} inequality pattern", "pass": ineq_ok[f]})
    return _result("C9", "entrywise correlation values", details, t0)


# -- C10 --------------------------------------------------------------------


def check_oracle_concordance(seed: int) -> CheckResult:
    """Exactly sampled n=3 balls against the forced-convention exact engine.

    Also adjudicates the scaling convention: the paper-convention second
    moments sit far outside the Monte Carlo error band.
    """
    t0 = time.perf_counter()
    details = []
    n = 3
    for kind in ("hermitian", "symmetric"):
        spec = ensemble(kind)
        exact = {
            conv: self_adjoint_second_moments(kind, n, trace_moments(spec, n, conv))
            for conv in ("forced", "paper")
        }
        est = ball_moment_estimate(kind, n, ball_second_moments(kind), MC_COUNT, seed)
        for name, e in est.items():
            zf = abs(e.mean - float(exact["forced"][name])) / e.stderr
            zp = abs(e.mean - float(exact["paper"][name])) / e.stderr
            details.append(
                {
                    "case": f"{kind} {name}",
                    "mc": e.mean,
                    "stderr": e.stderr,
                    "exact_forced": float(exact["forced"][name]),
                    "z_forced": round(zf, 3),
                    "z_paper": round(zp, 3),
                    "n_samples": e.n_samples,
                    "pass": zf <= 4.0,
                }
            )
        # the convention adjudication: paper-convention values must be rejected
        distinguishable = [
            d for d in details
            if d["case"].startswith(kind)
            and "exact_forced" in d
            and abs(d["exact_forced"]) > 1e-9
        ]
        details.append(
            {
                "case": f"{kind} forced convention adjudicated",
                "pass": all(d["z_paper"] > 10 for d in distinguishable),
            }
        )
    return _result("C10", "ball-sampler concordance", details, t0)


# -- runner -----------------------------------------------------------------

ALL_CRITERIA = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10")


def run_all(seed: int, criteria) -> list[CheckResult]:
    """Run the acceptance criteria (C11, determinism, is checked by re-running).

    The serialised results are byte-deterministic for a fixed seed.
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
    return [runners[crit]() for crit in criteria]


def serialize_result(res: CheckResult) -> str:
    """Stable JSON line for a check result."""
    return json.dumps(res.to_json(), sort_keys=True)


def summary_line(results) -> str:
    ok = sum(1 for r in results if r.passed)
    verdicts = ", ".join(f"{r.criterion}:{'PASS' if r.passed else 'FAIL'}" for r in results)
    return f"{ok}/{len(results)} criteria passed ({verdicts})"
