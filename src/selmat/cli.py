"""Command-line front end: exact values, reproduction tables, oracles, verify.

Every run emits JSON lines (or CSV with --format csv): first a config record
echoing the resolved arguments, then one record per result.  Exact values are
printed as "p/q" strings next to float mirrors, so reproduction tables can be
diffed bit-for-bit.  Exit codes: 0 ok, 1 verification failure, 2 bad usage
(a rational with a zero denominator among them), 141 when the reader closes
stdout early (128 + SIGPIPE, as a shell reports it); a bad value ends the run
with an {"error": {"type", "message"}} record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import DEFAULT_SEED, moments, oracle, weingarten
from . import verify as verify_mod
from .combinat import format_partition, parse_partition
from .exact import format_rational, parse_rational, to_float
from .jack import jack_in_monomials, kadell_ratio, principal_specialization
from .selberg import (
    FULL_PAYLOADS,
    SHIFTED_PAYLOADS,
    SelbergParams,
    aomoto_general_ratio,
    aomoto_ratio,
    selberg_I0,
)


class Emitter:
    def __init__(self, fmt: str, out):
        self.fmt = fmt
        self.out = out
        self.rows = []

    def emit(self, record: dict):
        if self.fmt == "json":
            self.out.write(json.dumps(record, sort_keys=True, default=str) + "\n")
        else:
            self.rows.append(record)

    def close(self):
        if self.fmt == "csv" and self.rows:
            import csv
            keys = sorted({k for r in self.rows for k in r})
            writer = csv.DictWriter(self.out, fieldnames=keys)
            writer.writeheader()
            for r in self.rows:
                writer.writerow({k: r.get(k, "") for k in keys})


def _checked_n_list(n_list: list[int]) -> list[int]:
    """The n-list, if it names at least one n and none twice."""
    if not n_list:
        raise ValueError("--n-list names no n (a range a:b needs a <= b)")
    seen = set()
    for n in n_list:
        if n in seen:
            raise ValueError(f"--n-list names n = {n} twice")
        seen.add(n)
    return n_list


def _n_list(s: str) -> list[int]:
    out = []
    for tok in s.split(","):
        tok = tok.strip()
        if ":" in tok:  # a:b means the inclusive range a..b
            a, b = tok.split(":")
            out.extend(range(int(a), int(b) + 1))
        else:
            out.append(int(tok))
    return out


def _exact_record(value, extra=None) -> dict:
    ap = to_float(value)
    rec = dict(extra or {})
    if isinstance(value, Fraction):
        rec["exact"] = format_rational(value)
    else:  # GammaProduct
        simplified = value.simplify()
        if isinstance(simplified, Fraction):
            rec["exact"] = format_rational(simplified)
        else:
            rec["exact_gamma"] = simplified.to_json()
    # strict JSON has no Infinity: null stands for the log of 0 and for a float past 1.8e308
    for key, x in (("float", ap.value), ("log_value", ap.log_value)):
        rec[key] = x if math.isfinite(x) else None
    return rec


# Flags that only some values of a selector argument use: command -> (selector
# as typed, {value: {dest: (type or choices, default)}}), each dest typed as
# _flag(dest).  Only the flags of the given value are kept; giving another is
# an error.
SELECTOR_FLAGS = {
    "oracle quad": ("--kind", {
        "selberg": {flag: (parse_rational, Fraction(1)) for flag in ("u", "w", "kappa")},
        "loggas": {"a": (int, 1), "b": (int, 2), "c": (int, 0)},
    }),
    "asympt": ("--quantity", {
        **{q: {"kappa": (parse_rational, None)} for q in SHIFTED_PAYLOADS},
        **{f"fm-{q}": {"beta": (parse_rational, None)} for q in FULL_PAYLOADS},
        "remark": {"beta": (parse_rational, None)},
        **{q: {"ensemble": (str, None), "convention": (("forced", "paper"), "forced")}
           for q in ("var", "sigma2")},
    }),
    "weingarten": ("group", {
        "unitary": {"cycle_type": (parse_partition, None), "w": (parse_rational, None)},
        "orthogonal": {"coset_type": (parse_partition, None)},
    }),
}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _add_selector_flags(p, command: str) -> None:
    selector, by_value = SELECTOR_FLAGS[command]
    users = {}
    for value, flags in by_value.items():
        for flag in flags:
            users.setdefault(flag, []).append(value)
    for flag, values in users.items():
        typ, default = by_value[values[0]][flag]
        kind = {"choices": typ} if isinstance(typ, tuple) else {"type": typ}
        note = "" if default is None else f"; default {default}"
        p.add_argument(_flag(flag), **kind, default=None,
                       help=f"{selector} {'|'.join(values)} only{note}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="selmat", description=__doc__)
    ap.add_argument("--format", choices=("json", "csv"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("selberg", help="Selberg integral I0(n; u, w, kappa)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--u", type=parse_rational, required=True)
    p.add_argument("--w", type=parse_rational, required=True)
    p.add_argument("--kappa", type=parse_rational, required=True)

    p = sub.add_parser("aomoto", help="Aomoto ratios I_m/I0 and I_{m1,m2,m3}/I0")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--u", type=parse_rational, required=True)
    p.add_argument("--w", type=parse_rational, required=True)
    p.add_argument("--kappa", type=parse_rational, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--m1", type=int, default=None)
    p.add_argument("--m2", type=int, default=0)
    p.add_argument("--m3", type=int, default=0)

    p = sub.add_parser("jack", help="Jack polynomial expansion / principal value")
    p.add_argument("mode", choices=("expand", "principal"))
    p.add_argument("--lam", type=parse_partition, required=True)
    p.add_argument("--kappa", type=parse_rational, required=True)
    p.add_argument("--n", type=int, default=None)

    p = sub.add_parser("kadell", help="Kadell ratio I(lambda)/I(0)")
    p.add_argument("--lam", type=parse_partition, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--u", type=parse_rational, required=True)
    p.add_argument("--w", type=parse_rational, required=True)
    p.add_argument("--kappa", type=parse_rational, required=True)

    p = sub.add_parser("moments", help="ensemble moment report at one n")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--convention", choices=("forced", "paper"), default="forced")

    for name in ("variance", "sigma"):
        p = sub.add_parser(name, help=f"{name} over an n-list with its exact limit")
        p.add_argument("--ensemble", required=True)
        p.add_argument("--n-list", type=_n_list, required=True)
        p.add_argument("--convention", choices=("forced", "paper"), default="forced")

    p = sub.add_parser("asympt", help="exact Laurent expansion of a named quantity")
    p.add_argument("--quantity", required=True, help="|".join(SELECTOR_FLAGS["asympt"][1]))
    p.add_argument("--order", type=int, default=2)
    _add_selector_flags(p, "asympt")

    p = sub.add_parser("remark-beta", help="general-beta box combination over an n-list")
    p.add_argument("--beta", type=parse_rational, required=True)
    p.add_argument("--n-list", type=_n_list, required=True)

    p = sub.add_parser("covariance", help="covariance report (hermitian | symmetric)")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--convention", choices=("forced", "paper"), default="forced")

    p = sub.add_parser("negcorr", help="entrywise correlation report (field r | c)")
    p.add_argument("--field", choices=("r", "c"), required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("weingarten", help="Weingarten function values")
    p.add_argument("group", choices=("unitary", "orthogonal"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--z", type=parse_rational, required=True)
    _add_selector_flags(p, "weingarten")

    p = sub.add_parser("oracle", help="numeric oracles")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    q = osub.add_parser("quad", help="tensor-product quadrature")
    q.add_argument("--kind", choices=tuple(SELECTOR_FLAGS["oracle quad"][1]), default="selberg")
    q.add_argument("--n", type=int, required=True)
    _add_selector_flags(q, "oracle quad")
    q.add_argument("--payload", default="one",
                   help="one | monomial:2,1 | elementary:2 | aomoto:1,1,0 | shifted:x2")
    q.add_argument("--points", type=int, default=40)
    s = osub.add_parser("sample", help="uniform sampling from an operator-norm ball")
    s.add_argument("--ensemble", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--count", type=int, default=100_000)
    s.add_argument("--seed", type=int, default=DEFAULT_SEED)
    m = osub.add_parser("loggas", help="exact i.i.d. beta-Jacobi eigenvalue sampler")
    m.add_argument("--a", type=int, required=True)
    m.add_argument("--b", type=int, required=True)
    m.add_argument("--c", type=int, default=0)
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--count", type=int, default=100_000)
    m.add_argument("--seed", type=int, default=DEFAULT_SEED)
    m.add_argument("--payload", action="append", default=None,
                   help="sum_sq | sum_quartic | cross_sq (repeatable)")
    h = osub.add_parser("haar", help="haar moment sanity sample")
    h.add_argument("--group", choices=("unitary", "orthogonal"), required=True)
    h.add_argument("--n", type=int, required=True)
    h.add_argument("--count", type=int, default=20_000)
    h.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("verify", help="run the full acceptance suite")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--criteria", default=None, help="comma list, e.g. C1,C2")
    return ap


def _settle_selector_flags(args) -> str:
    """Fill the defaults of the flags that the selector's value uses, drop the others.

    Returns "" or, if some dropped flag was given, the error that names it.
    An unknown value keeps every flag, for the command to refuse the value.
    """
    command = args.command if args.command != "oracle" else f"oracle {args.oracle_command}"
    if command not in SELECTOR_FLAGS:
        return ""
    selector, by_value = SELECTOR_FLAGS[command]
    chosen = getattr(args, selector.lstrip("-"))
    used = by_value.get(chosen)
    if used is None:
        return ""
    given = []
    for flag in dict.fromkeys(f for flags in by_value.values() for f in flags):
        value = getattr(args, flag)
        if flag in used:
            setattr(args, flag, used[flag][1] if value is None else value)
            continue
        if value is not None:
            given.append(_flag(flag))
        delattr(args, flag)
    if not given:
        return ""
    return f"{command} {selector} {chosen} does not use {', '.join(given)}"


def _config_record(args) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "format"}
    for k, v in list(cfg.items()):
        if isinstance(v, Fraction):
            cfg[k] = format_rational(v)
        elif isinstance(v, tuple):
            cfg[k] = format_partition(v)
    return {"config": cfg}


EXIT_BROKEN_PIPE = 141


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = _run(args, Emitter(args.format, sys.stdout))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send the rest to devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


def _run(args, em: Emitter) -> int:
    flag_error = _settle_selector_flags(args)
    em.emit(_config_record(args))
    try:
        if flag_error:
            raise ValueError(flag_error)
        return _dispatch(args, em)
    except (ValueError, ArithmeticError) as exc:
        em.emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 2
    finally:
        em.close()


def _dispatch(args, em: Emitter) -> int:
    cmd = args.command
    if cmd == "selberg":
        v = selberg_I0(SelbergParams(args.n, args.u, args.w, args.kappa))
        em.emit(_exact_record(v, {"n": args.n}))
        return 0
    if cmd == "aomoto":
        p = SelbergParams(args.n, args.u, args.w, args.kappa)
        if args.m is not None:
            em.emit(_exact_record(aomoto_ratio(p, args.m), {"m": args.m}))
        elif args.m1 is not None:
            v = aomoto_general_ratio(p, args.m1, args.m2, args.m3)
            em.emit(_exact_record(v, {"m1": args.m1, "m2": args.m2, "m3": args.m3}))
        else:
            raise ValueError("aomoto needs --m or --m1/--m2/--m3")
        return 0
    if cmd == "jack":
        if args.mode == "expand":
            poly = jack_in_monomials(args.lam, args.kappa)
            em.emit(
                {
                    "lambda": format_partition(args.lam),
                    "kappa": format_rational(args.kappa),
                    "coefficients": {
                        format_partition(mu): format_rational(c) for mu, c in poly.coeffs
                    },
                }
            )
        else:
            if args.n is None:
                raise ValueError("jack principal needs --n")
            v = principal_specialization(args.lam, args.kappa, args.n)
            em.emit(_exact_record(v, {"lambda": format_partition(args.lam), "n": args.n}))
        return 0
    if cmd == "kadell":
        v = kadell_ratio(args.lam, args.n, args.u, args.w, args.kappa)
        em.emit(_exact_record(v, {"lambda": format_partition(args.lam), "n": args.n}))
        return 0
    if cmd == "moments":
        rep = moments.ensemble_moments(moments.ensemble(args.ensemble), args.n, args.convention)
        em.emit(rep.to_json())
        return 0
    if cmd in ("variance", "sigma"):
        spec = moments.ensemble(args.ensemble)
        n_list = _checked_n_list(args.n_list)
        fieldname = "var" if cmd == "variance" else "sigma2"
        values = [moments.ensemble_moment_field(spec, n, fieldname, args.convention)
                  for n in n_list]
        for n, v in zip(n_list, values):
            em.emit(
                {
                    "n": n,
                    "ensemble": spec.name,
                    "convention": args.convention,
                    fieldname: format_rational(v),
                    f"{fieldname}_float": float(v),
                }
            )
        if len(n_list) >= 3:
            _, (lim,) = moments.asymptotic_expansion(
                fieldname, 0, ensemble_name=spec.name, convention=args.convention
            )
            em.emit({"limit_float": float(lim), "ensemble": spec.name, "quantity": fieldname})
        return 0
    if cmd == "asympt":
        # _settle_selector_flags kept only the flags that the quantity uses
        rf, coeffs = moments.asymptotic_expansion(
            args.quantity,
            args.order,
            kappa=getattr(args, "kappa", None),
            beta=getattr(args, "beta", None),
            ensemble_name=getattr(args, "ensemble", None),
            convention=getattr(args, "convention", "forced"),
        )
        em.emit(
            {
                "quantity": args.quantity,
                "rational_function": rf.to_json(),
                "laurent": [format_rational(c) for c in coeffs],
                "laurent_float": [float(c) for c in coeffs],
            }
        )
        return 0
    if cmd == "remark-beta":
        for n in _checked_n_list(args.n_list):
            v = moments.beta_remark_combination(n, args.beta)
            em.emit(_exact_record(v, {"n": n, "beta": format_rational(args.beta)}))
        _, lc = moments.asymptotic_expansion("remark", 0, beta=args.beta)
        em.emit(
            {
                "beta": format_rational(args.beta),
                "constant_term": format_rational(lc[0]),
                "target_1_over_64beta": format_rational(Fraction(1) / (64 * args.beta)),
            }
        )
        return 0
    if cmd == "covariance":
        em.emit(weingarten.covariance_report(args.ensemble, args.n, args.convention).to_json())
        return 0
    if cmd == "negcorr":
        rep = weingarten.negcorr_report(args.field, args.n)
        em.emit(
            {
                "field": rep["field"],
                "n": rep["n"],
                "cross": format_rational(rep["cross"]),
                "same_row": format_rational(rep["same_row"]),
                "second_moment": format_rational(rep["second_moment"]),
                "second_moment_sq": format_rational(rep["second_moment_sq"]),
            }
        )
        return 0
    if cmd == "weingarten":
        unitary = args.group == "unitary"
        dest = "cycle_type" if unitary else "coset_type"
        ct = getattr(args, dest)
        # () from "--cycle-type 0" is a partition given, not a flag missing
        if ct is None:
            raise ValueError(f"weingarten {args.group} needs {_flag(dest)}")
        if unitary:
            v = weingarten.wg_unitary(ct, args.k, args.z, args.w)
        else:
            v = weingarten.wg_orthogonal(ct, args.k, args.z)
        em.emit(_exact_record(v, {"group": args.group, "k": args.k, "type": format_partition(ct)}))
        return 0
    if cmd == "oracle":
        return _dispatch_oracle(args, em)
    if cmd == "verify":
        criteria = (
            tuple(args.criteria.split(",")) if args.criteria else verify_mod.ALL_CRITERIA
        )
        results = verify_mod.run_all(args.seed, criteria)
        for r in results:
            em.emit(r.to_json())
        ok = all(r.passed for r in results)
        em.emit({"summary": verify_mod.summary_line(results)})
        return 0 if ok else 1
    raise SystemExit(2)


def _parse_payload(s: str) -> tuple:
    if s == "one":
        return ("one",)
    kind, _, rest = s.partition(":")
    if kind == "monomial":
        return ("monomial", parse_partition(rest))
    if kind == "elementary":
        return ("elementary", int(rest))
    if kind == "aomoto":
        return ("aomoto", tuple(int(x) for x in rest.split(",")))
    if kind == "shifted":
        return ("shifted", rest)
    raise ValueError(f"unknown payload {s!r}")


def _dispatch_oracle(args, em: Emitter) -> int:
    oc = args.oracle_command
    if oc in ("sample", "loggas", "haar") and args.seed < 0:
        raise ValueError(f"seed must be >= 0, got {args.seed}")  # before any draw
    if oc == "quad":
        payload = _parse_payload(args.payload)
        if args.kind == "selberg":
            params = (args.u, args.w, args.kappa)
        else:
            params = (args.a, args.b, args.c)
        spec = oracle.QuadratureSpec(args.kind, args.n, payload, params, args.points)
        val, err = oracle.quadrature(spec)
        em.emit({"value": val, "error_estimate": err, "points_per_axis": args.points})
        return 0
    if oc == "sample":
        n, ball = args.n, moments.ensemble(args.ensemble).name
        fns = oracle.ball_second_moments(ball)
        if n < 2:
            fns = {"T11sq": fns["T11sq"]}
        est = oracle.ball_moment_estimate(ball, n, fns, args.count, args.seed)
        for name, e in sorted(est.items()):
            em.emit({"moment": name, **e.to_json()})
        return 0
    if oc == "loggas":
        payloads = {p: p for p in (args.payload or ["sum_sq"])}
        res = oracle.loggas_moment_estimate(
            args.a, args.b, args.c, args.n, payloads, args.count, args.seed
        )
        for name, e in sorted(res.items()):
            em.emit({"payload": name, **e.to_json()})
        return 0
    if oc == "haar":
        u11 = {"u11": lambda U: abs(U[:, 0, 0]) ** 2}
        est = oracle.haar_moment_estimate(args.group, args.n, u11, args.count, args.seed)["u11"]
        em.emit(
            {
                "group": args.group,
                "n": args.n,
                "E_abs_U11_sq": est.mean,
                "stderr": est.stderr,
                "target": 1.0 / args.n,
                "count": args.count,
            }
        )
        return 0
    raise SystemExit(2)


if __name__ == "__main__":
    sys.exit(main())
