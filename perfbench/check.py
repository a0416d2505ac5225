"""Output checker for benchmark ops.

Every op's stdout must be JSON lines whose first record echoes the config.
Independent closed forms are checked where the paper gives them:

* the full-matrix M2/M22/M4 chain in (n, beta), as stated in criterion C4;
* the entrywise correlation values 1/(4n^2-1), 1/(2n(2n+1)) and
  (n+1)/(n(2n+1)(2n+3)), with E|T_11|^2 = 1/(2n) or 1/(2n+1);
* Wg^U and Wg^O at k = 2;
* the monic Jack coefficient tables of degree <= 4.

Every other exact field is compared with ``reference.json``, digests recorded
from the seed commit by ``record_reference.py``.  A digest covers a record's
exact content: floats are dropped (they mirror exact values or are numeric
estimates), and the config echo is skipped.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

FULL_BETA = {"full-real": 1, "full-complex": 2, "full-quaternion": 4}
CRITERIA = tuple(f"C{i}" for i in range(1, 11))


def parse_records(stdout: str) -> list:
    """JSON records of one op; raises ValueError on an unparsable line."""
    records = []
    for line in stdout.splitlines():
        rec = json.loads(line)
        if not isinstance(rec, dict):
            raise ValueError(f"record is not an object: {line[:80]}")
        records.append(rec)
    return records


def exact_part(x):
    """x with every float, and every list made only of floats, removed."""
    if isinstance(x, dict):
        return {k: exact_part(v) for k, v in x.items() if not _is_floaty(v)}
    if isinstance(x, list):
        return [exact_part(v) for v in x if not _is_floaty(v)]
    return x


def _is_floaty(v) -> bool:
    if isinstance(v, float):
        return True
    return isinstance(v, list) and bool(v) and all(isinstance(e, float) for e in v)


def digest(records: list) -> str:
    body = [exact_part(r) for r in records if "config" not in r]
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- closed forms -----------------------------------------------------------


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def full_matrix_chain(n: int, beta: int) -> dict:
    """M2, M22, M4 of the full-matrix ball at (n, beta), criterion C4's chain."""
    b = Fraction(beta)
    den1 = 1 + (2 * n - 1) * b / 2
    den2 = 1 + (n - 1) * b
    m2 = (n * b / 2) / den1
    m22 = (n * (n - 1) * b**2 / 4) / (den1 * den2)
    m4 = (n * b / 2 * (Fraction(1, 2) + 3 * (n - 1) * b / 4)) / (den1 * den2) + (
        n * b**2 / 8 * (1 + (n - 1) * b / 2)
    ) / ((2 + (2 * n - 1) * b / 2) * den1 * den2)
    return {"M2": m2, "M22": m22, "M4": m4}


def negcorr_values(field: str, n: int) -> dict:
    if field == "c":
        second = Fraction(1, 2 * n)
        vals = {"cross": Fraction(1, 4 * n * n - 1), "same_row": Fraction(1, 2 * n * (2 * n + 1))}
    else:
        second = Fraction(1, 2 * n + 1)
        vals = {
            "cross": Fraction(n + 1, n * (2 * n + 1) * (2 * n + 3)),
            "same_row": Fraction(1, (2 * n + 1) * (2 * n + 3)),
        }
    return {**vals, "second_moment": second, "second_moment_sq": second**2}


def weingarten_k2(group: str, ct: str, z: Fraction) -> Fraction:
    if group == "unitary":
        return 1 / (z * z - 1) if ct == "1,1" else -1 / (z * (z * z - 1))
    den = z * (z - 1) * (z + 2)
    return (z + 1) / den if ct == "1,1" else -1 / den


def jack_table(k: Fraction) -> dict:
    """Monic Jack P_lambda^(1/k) in the monomial basis, degree <= 4 (Stanley/Macdonald)."""
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


def _opt(argv: tuple, flag: str):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _partition(s: str) -> tuple:
    return tuple(int(x) for x in s.split(","))


def closed_form_problems(argv: tuple, results: list):
    """Mismatches against the closed forms for this op, or None if none apply."""
    cmd = argv[0]
    if cmd == "moments" and _opt(argv, "--ensemble") in FULL_BETA:
        n = int(_opt(argv, "--n"))
        want = full_matrix_chain(n, FULL_BETA[_opt(argv, "--ensemble")])
    elif cmd == "negcorr":
        want = negcorr_values(_opt(argv, "--field"), int(_opt(argv, "--n")))
    elif cmd == "weingarten" and _opt(argv, "--k") == "2":
        ct = _opt(argv, "--cycle-type") or _opt(argv, "--coset-type")
        want = {"exact": weingarten_k2(argv[1], ct, Fraction(_opt(argv, "--z")))}
    elif cmd == "jack" and argv[1] == "expand" and sum(_partition(_opt(argv, "--lam"))) <= 4:
        table = jack_table(Fraction(_opt(argv, "--kappa")))[_partition(_opt(argv, "--lam"))]
        want = {"coefficients": {",".join(map(str, mu)): Fraction(c) for mu, c in table.items() if c}}
    else:
        return None
    rec = results[0]
    return [
        f"{field}: got {rec.get(field)!r}, closed form {_fmt_value(value)!r}"
        for field, value in want.items()
        if rec.get(field) != _fmt_value(value)
    ]


def _fmt_value(value):
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    return _fmt(value)


# -- the per-op verdict -------------------------------------------------------


def check_op(op, returncode: int, stdout: str, stderr: str, reference: dict) -> list:
    """Every reason the op failed; an empty list means it passed."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    if "Traceback" in stderr:
        return ["traceback on stderr"]
    try:
        records = parse_records(stdout)
    except ValueError as exc:
        return [f"unparsable record: {exc}"]
    if not records or "config" not in records[0]:
        return ["missing config record"]
    results = records[1:]
    if not results:
        return ["no result records"]
    if op.argv[0] == "verify":
        return verify_problems(results)
    closed = closed_form_problems(op.argv, results)
    problems = list(closed or [])
    want = reference.get(op.key)
    if want is not None:
        got = digest(records)
        if got != want:
            problems.append(f"exact fields differ from the reference ({got} != {want})")
    elif closed is None:
        problems.append("no reference entry and no closed form for this op")
    return problems


def verify_problems(results: list) -> list:
    seen = {}
    for rec in results:
        if "criterion" in rec:
            seen[rec["criterion"]] = rec.get("passed") is True
    problems = [f"{c} missing" for c in CRITERIA if c not in seen]
    problems += [f"{c} did not pass" for c, ok in seen.items() if not ok]
    if not any("summary" in rec for rec in results):
        problems.append("missing summary record")
    return problems
