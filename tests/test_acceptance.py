"""The acceptance gate: every criterion at its stated tolerance, plus determinism.

The full suite (the same one `selmat verify` runs) executes once per session;
criteria are asserted individually so the report shows one pass/fail line per
criterion.  Determinism is checked by running the whole suite a second time
with the same seed and comparing the serialised bytes.
"""

import io
from fractions import Fraction

import pytest

from selmat import moments
from selmat import verify as V

SEED = V.DEFAULT_SEED
MC_COUNT = 1_000_000


@pytest.fixture(scope="session")
def suite():
    stream = io.StringIO()
    results = V.run_all(seed=SEED, mc_count=MC_COUNT, stream=stream)
    return {r.criterion: r for r in results}, stream.getvalue()


def _report(res):
    lines = [f"{res.criterion} {'PASS' if res.passed else 'FAIL'}: {res.name} "
             f"({res.n_cases} cases, {res.seconds:.1f}s)"]
    for d in res.details:
        if not d.get("pass", True):
            lines.append(f"  FAILED case: {d}")
    return "\n".join(lines)


@pytest.mark.parametrize("crit", V.ALL_CRITERIA)
def test_criterion(suite, crit):
    results, _ = suite
    res = results[crit]
    print(_report(res))
    assert res.passed, _report(res)


def test_criterion_runtimes(suite):
    results, _ = suite
    assert results["C1"].seconds < 120  # stated bound: 2 minutes
    assert results["C2"].seconds < 1
    assert results["C3"].seconds < 10
    assert results["C10"].seconds < 300  # stated bound: 5 minutes


def test_c11_determinism(suite):
    """Two runs of the verify suite with the same seed are byte-identical."""
    _, first_bytes = suite
    stream = io.StringIO()
    V.run_all(seed=SEED, mc_count=MC_COUNT, stream=stream)
    second_bytes = stream.getvalue()
    print("C11 PASS: determinism (byte-identical verify output)"
          if first_bytes == second_bytes else "C11 FAIL")
    assert first_bytes == second_bytes
    assert len(first_bytes) > 1000


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
