"""The acceptance gate: every criterion at its stated tolerance, plus determinism.

The full suite (the same one `selmat verify` runs) executes once per session,
one criterion at a time so that each is timed; criteria are asserted individually so the report shows one pass/fail line per
criterion.  Determinism is checked by running the whole suite a second time
with the same seed and comparing the serialised bytes.
"""

import ast
import hashlib
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

import selmat
from selmat import moments
from selmat import verify as V

SEED = V.DEFAULT_SEED
# The cases each criterion checks; perfbench's verify n_values_per_s counts them.
CASE_COUNTS = {
    "C1": 837, "C2": 84, "C3": 11, "C4": 15, "C5": 7,
    "C6": 12, "C7": 5, "C8": 6, "C9": 4, "C10": 8,
}


def _run_serialised():
    results = V.run_all(SEED, V.ALL_CRITERIA)
    return results, "".join(V.serialize_result(r) + "\n" for r in results)


@pytest.fixture(scope="session")
def suite():
    """{criterion: result}, the serialised bytes, and {criterion: wall seconds}."""
    results, seconds = {}, {}
    for crit in V.ALL_CRITERIA:
        t0 = time.perf_counter()
        [results[crit]] = V.run_all(SEED, (crit,))
        seconds[crit] = time.perf_counter() - t0
    serialised = "".join(V.serialize_result(r) + "\n" for r in results.values())
    return results, serialised, seconds


def _report(res, seconds):
    lines = [f"{res.criterion} {'PASS' if res.passed else 'FAIL'}: {res.name} "
             f"({res.n_cases} cases, {seconds:.1f}s)"]
    for d in res.details:
        if not d.get("pass", True):
            lines.append(f"  FAILED case: {d}")
    return "\n".join(lines)


@pytest.mark.parametrize("crit", V.ALL_CRITERIA)
def test_criterion(suite, crit):
    results, _, seconds = suite
    res = results[crit]
    print(_report(res, seconds[crit]))
    assert res.passed, _report(res, seconds[crit])


def test_case_counts(suite):
    """Every criterion checks all of its cases: a dropped block fails here, not only a failed case."""
    results, _, _ = suite
    assert {c: r.n_cases for c, r in results.items()} == CASE_COUNTS
    assert all(r.n_cases == len(r.details) for r in results.values())


def test_criterion_runtimes(suite):
    _, _, seconds = suite
    assert seconds["C1"] < 120  # stated bound: 2 minutes
    assert seconds["C2"] < 1
    assert seconds["C3"] < 10
    assert seconds["C10"] < 300  # stated bound: 5 minutes


def test_c11_determinism(suite):
    """Two runs of the verify suite with the same seed are byte-identical."""
    _, first_bytes, _ = suite
    _, second_bytes = _run_serialised()
    print("C11 PASS: determinism (byte-identical verify output)"
          if first_bytes == second_bytes else "C11 FAIL")
    assert first_bytes == second_bytes
    assert len(first_bytes) > 1000


# sha256 prefix of every criterion's exact content at SEED: case names, verdicts and
# exact values, with every float and every list of floats dropped.  A renamed case or a
# changed verdict changes it, so the change shows in the diff of this line.
EXACT_DIGEST = "86eb7258e11cfb52"


def _exact_part(x):
    """x without its floats and its lists of floats, as perfbench/check.py's exact_part."""
    def floaty(v):
        return isinstance(v, float) or (
            isinstance(v, list) and bool(v) and all(isinstance(e, float) for e in v))

    if isinstance(x, dict):
        return {k: _exact_part(v) for k, v in x.items() if not floaty(v)}
    if isinstance(x, list):
        return [_exact_part(v) for v in x if not floaty(v)]
    return x


def test_c11_exact_content_is_recorded(suite):
    results, _, _ = suite
    body = [_exact_part(json.loads(V.serialize_result(r))) for r in results.values()]
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == EXACT_DIGEST


@pytest.mark.parametrize(
    "field,check", [("var", V.check_variance_constants), ("sigma2", V.check_sigma2)]
)
def test_exact_limits_catch_a_shifted_function(monkeypatch, field, check):
    """A broken copy whose var or sigma^2 is off by 1/1000 fails C4 or C6 on every limit."""
    # sigma^2 + 1/1000 tends to 0.501, inside the old float band |limit - 1/2| <= 0.01
    build = moments.ensemble_moment_functions
    i = moments.MOMENT_FIELDS.index(field)

    def shifted(spec, convention="forced"):
        fns = list(build(spec, convention))
        fns[i] = fns[i] + Fraction(1, 1000)
        return tuple(fns)

    monkeypatch.setattr(moments, "ensemble_moment_functions", shifted)
    res = check()
    limits = [d for d in res.details if d["case"].endswith("exact limit")]
    assert not res.passed
    assert len(limits) == 6 and not any(d["pass"] for d in limits)


def test_no_assert_statements_in_the_package():
    """python -O strips asserts, so no guard of the package may be one."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(selmat.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
