"""verify's quadrature bound and its forked Monte Carlo child.

C1 judges every case by one relative bound, |quad - exact| <= QUAD_RTOL |exact|,
at QUAD_POINTS per axis; the grid test holds the same bound on half-integer
parameters that C1 never reaches.  run_all draws C10's samples in a forked child
while C1-C9 run in this process, one after another; the child's estimates, its
errors and its end must be those of a serial run.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

import selmat
from selmat import moments, weingarten
from selmat import verify as V
from selmat.exact import to_float
from selmat.jack import jack_in_monomials, kadell_ratio
from selmat.oracle import QuadratureSpec, quadrature_values
from selmat.selberg import SelbergParams, aomoto_general_ratio, aomoto_ratio, selberg_I0

SRC = os.path.dirname(os.path.dirname(selmat.__file__))
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}

HALVES = {
    "kappa": (F(1, 2), F(1), F(3, 2), F(2), F(5, 2), F(3)),
    "u": (F(1, 2), F(1), F(3, 2), F(5, 2), F(3)),
    "w": (F(1, 2), F(3, 2), F(3)),
}


def _spec(p: SelbergParams, desc) -> QuadratureSpec:
    return QuadratureSpec("selberg", p.n, desc, (p.u, p.w, p.kappa), V.QUAD_POINTS)


def test_closed_forms_hold_the_c1_bound_on_a_half_integer_grid():
    # odd 2 kappa puts the integral on the ordered sector, and half-integer u or w
    # takes the sin^2 substitution: C1's grid reaches neither 3/2 nor 5/2 for kappa,
    # nor 1/2 for u or w
    grid = [SelbergParams(n, u, w, kap) for n in (1, 2, 3) for kap in HALVES["kappa"]
            for u in HALVES["u"] for w in HALVES["w"]]
    i0 = dict(zip(grid, quadrature_values([_spec(p, ("one",)) for p in grid])))
    cases = []  # (label, params, exact, payload of the ratio's numerator)
    for p in grid:
        for m in range(1, p.n + 1):
            cases.append((f"aomoto m={m}", p, aomoto_ratio(p, m), ("elementary", m)))
        # (n, n, n) at u + w = kappa is 0/0 unless equal linear forms cancel first:
        # (1, 1, 1) at n = 1 and (2, 2, 2) at n = 2
        for idx in ((1, 1, 1), (1, 1, 0), (2, 1, 1), (2, 2, 2)):
            if idx[0] + idx[1] - idx[2] <= p.n:
                cases.append((f"aomoto {idx}", p, aomoto_general_ratio(p, *idx), ("aomoto", idx)))
        if p.n >= 2:
            desc = ("sympoly", jack_in_monomials((2, 1), p.kappa).coeffs)
            cases.append(("kadell (2, 1)", p, kadell_ratio((2, 1), p.n, p.u, p.w, p.kappa), desc))
    values = quadrature_values([_spec(p, desc) for _, p, _, desc in cases])
    compared = [("I0", p, to_float(selberg_I0(p)).value, i0[p]) for p in grid]
    compared += [(label, p, float(exact), val / i0[p])
                 for (label, p, exact, _), val in zip(cases, values)]
    bad = [c for c in compared if not abs(c[3] - c[2]) <= V.QUAD_RTOL * abs(c[2])]
    assert len(compared) >= 900 and bad == []


@pytest.mark.parametrize("name,family", [("kadell_ratio", "kadell"), ("aomoto_ratio", "aomoto m=")])
def test_c1_fails_a_ratio_one_millionth_off(monkeypatch, name, family):
    # a relative error of 1e-6 once passed the absolute bounds 1e-3 (kappa = 1/2) and 1e-6
    exact = getattr(V, name)
    monkeypatch.setattr(V, name, lambda *args: exact(*args) * F(1_000_001, 1_000_000))
    res = V.check_selberg_quadrature()
    off = [d["case"].startswith(family) for d in res.details]
    assert not res.passed and res.n_cases == 837
    assert [not d["pass"] for d in res.details] == off and any(off)


def test_cli_import_loads_no_process_pool():
    # each CLI call is a fresh process: start-up must not load a process pool
    script = """
import sys
import selmat.cli
assert "multiprocessing" not in sys.modules, "multiprocessing"
assert "concurrent.futures" not in sys.modules, "concurrent.futures"
"""
    res = subprocess.run([sys.executable, "-c", script], env=ENV, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


# each CLI call is a fresh process: the import and typical commands must not pay for
# dataclasses and the inspect, ast and dis modules it loads, nor for typing, which only
# annotations would read; only modules that selmat adds count, as site may load some before
START_UP = """
import contextlib, io, sys
before = set(sys.modules)
def added(when):
    new = {"dataclasses", "inspect", "typing"} & (set(sys.modules) - before)
    assert not new, f"{when} loads {sorted(new)}"
import selmat.cli
added("import selmat.cli")
for argv in (["sigma", "--ensemble", "hermitian", "--n-list", "2:5"],
             ["covariance", "--ensemble", "hermitian", "--n", "4"],
             ["verify", "--criteria", "C2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert selmat.cli.main(argv) == 0, argv
    added(" ".join(argv))
"""


def test_cli_start_up_loads_no_dataclasses_or_inspect():
    res = subprocess.run([sys.executable, "-c", START_UP], env=ENV, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_cli_start_up_without_site_loads_no_typing():
    # a site that preloads typing hides it from the test above; -S loads no site
    res = subprocess.run([sys.executable, "-S", "-c", START_UP], env=ENV, capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr


def test_piped_verify_prints_one_config_record():
    # stdout is a pipe, and without PYTHONUNBUFFERED it is block-buffered: the config
    # line must be written once, and the criteria after it in criteria order.  C10's
    # child inherits stdout's buffer; here its draws flush it, so an unflushed config
    # line from before the fork would be printed twice
    env = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"}
    script = """
import sys
from selmat import verify
from selmat.cli import main
verify.MC_COUNT = 10_000
draw = verify.ball_moment_estimate
def flushing_draw(*args):
    sys.stdout.flush()
    return draw(*args)
verify.ball_moment_estimate = flushing_draw
sys.exit(main(["verify", "--criteria", "C2,C10"]))
"""
    res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    # at 10 000 draws C10 cannot adjudicate the convention, so it may fail: exit 1
    assert res.returncode in (0, 1) and res.stderr == "", res.stderr
    records = [json.loads(line) for line in res.stdout.splitlines()]
    assert ["config" in r for r in records] == [True, False, False, False]
    assert [r.get("criterion") for r in records[1:3]] == ["C2", "C10"]


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children that os.fork starts in this test."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


@pytest.mark.parametrize("seed", [1, 302])
def test_forked_run_all_matches_the_serial_checks(monkeypatch, forks, seed):
    monkeypatch.setattr(V, "MC_COUNT", 20_000)
    forked = [V.serialize_result(r) for r in V.run_all(seed, ("C2", "C10"))]
    assert len(forks) == 1
    serial = [V.serialize_result(V.check_jack_tables()),
              V.serialize_result(V.check_oracle_concordance(seed))]
    assert forked == serial


def test_without_fork_c10_runs_inline(monkeypatch):
    monkeypatch.setattr(V, "MC_COUNT", 20_000)
    monkeypatch.delattr(os, "fork")
    inline = [V.serialize_result(r) for r in V.run_all(1, ("C10", "C2"))]
    assert inline == [V.serialize_result(V.check_oracle_concordance(1)),
                      V.serialize_result(V.check_jack_tables())]


def test_an_error_in_the_childs_draws_reaches_the_caller(monkeypatch, forks):
    def broken(*args):
        raise ValueError("no draws today")

    monkeypatch.setattr(V, "ball_moment_estimate", broken)
    with pytest.raises(ValueError) as info:
        V.run_all(1, ("C2", "C10"))
    assert str(info.value) == "no draws today" and type(info.value) is ValueError
    assert "in broken" in str(info.value.__cause__)  # the child's traceback
    assert len(forks) == 1


def test_a_parent_error_kills_and_reaps_the_sampling_child(monkeypatch, forks):
    def broken():
        raise RuntimeError("C2 broke")

    monkeypatch.setattr(V, "oracle_estimates", lambda seed: time.sleep(60))
    monkeypatch.setattr(V, "check_jack_tables", broken)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="C2 broke"):
        V.run_all(1, ("C2", "C10"))
    assert time.perf_counter() - start < 10
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):  # reaped, so no longer this process's child
        os.waitpid(forks[0], os.WNOHANG)


def _vanishing_up_to(n_max):
    """A nonzero polynomial in n that vanishes at every n in 2..n_max."""
    out = 1
    for j in range(2, n_max + 1):
        out *= moments._N - j
    return out


@pytest.mark.parametrize("f,n0,want", [
    ((2 * moments._N - 41) ** 2, 20, False),  # positive at every integer, zero at n = 41/2
    (1 / (moments._N - 30), 20, False),  # a pole the numerator alone does not show
    (moments._N - 20, 20, False),
    (moments._N - 20, 21, True),
    (moments._N - moments._N, 2, False),  # the zero function
    ((moments._N**2 + 1) / (moments._N + 3), 0, True),
    (-1 / (moments._N + 3), 0, False),
])
def test_positive_from_certifies_only_what_one_shift_shows(f, n0, want):
    assert V._positive_from(f, n0) is want


@pytest.mark.parametrize("field,check,case", [
    ("var", V.check_variance_constants, "|var-c|<2/n, all n >= 20"),
    ("sigma2", V.check_sigma2, "bounds in both conventions, all n >= 2"),
])
def test_c4_and_c6_fail_a_bound_broken_only_beyond_n_200(monkeypatch, field, check, case):
    # C4 once checked its bound at n = 20..200 and C6 at n = 2..200, where this
    # function equals the true one; with no constant term, the polynomial leaves
    # the exact limit as it is too
    build = moments.ensemble_moment_functions
    i = moments.MOMENT_FIELDS.index(field)
    extra = moments._N * _vanishing_up_to(200)

    def broken(spec, convention="forced"):
        fns = list(build(spec, convention))
        fns[i] = fns[i] + extra
        return tuple(fns)

    monkeypatch.setattr(moments, "ensemble_moment_functions", broken)
    res = check()
    assert not res.passed
    assert [d["case"] for d in res.details if not d["pass"]] == [
        f"{name} {case}" for name in V.VARIANCE_CONSTANTS
    ]


def test_c6_reads_sigma2_per_n_below_the_functions(monkeypatch):
    # at n = 2 and 3 the functions of n do not hold by construction, so C6 reads
    # the per-n value there; a per-n sigma^2 outside [1/10, 10] at n = 2 fails
    fields = moments._moment_fields

    def broken(spec, n, convention):
        out = fields(spec, n, convention)
        at_2 = type(n) is int and n == 2 and convention == "forced"
        return (*out[:-1], F(11)) if at_2 else out

    monkeypatch.setattr(moments, "_moment_fields", broken)
    res = V.check_sigma2()
    assert [d["case"] for d in res.details if not d["pass"]] == [
        f"{name} bounds in both conventions, all n >= 2" for name in V.VARIANCE_CONSTANTS
    ]


@pytest.mark.parametrize("kind, key", [("hermitian", "absT12sq"), ("symmetric", "T12sq")])
def test_c8_fails_an_identity_broken_only_beyond_n_100(monkeypatch, kind, key):
    # C8 once checked its identity at n <= 50 only; it now compares functions of n
    real = V.covariance_functions

    def broken(ball, convention):
        m, off = real(ball, convention)
        if ball == kind:
            m = {**m, key: m[key] + _vanishing_up_to(100)}
        return m, off

    monkeypatch.setattr(V, "covariance_functions", broken)
    res = V.check_covariance()
    assert not res.passed
    assert [d["case"] for d in res.details if not d["pass"]] == [
        f"{kind} structural identity, all n >= 2"
    ]


@pytest.mark.parametrize("kind", ["hermitian", "symmetric"])
def test_c8_fails_a_condition_number_broken_only_beyond_n_100(monkeypatch, kind):
    # the same shift on E[T_11^2] and E[T_11 T_22] keeps the structural identity and
    # the bulk eigenvalue, but beyond n = 100 the trace eigenvalue outgrows the bulk
    real = V.covariance_functions

    def broken(ball, convention):
        m, off = real(ball, convention)
        if ball == kind:
            extra = _vanishing_up_to(100)
            m = {**m, "T11sq": m["T11sq"] + extra, "T11T22": m["T11T22"] + extra}
        return m, off

    monkeypatch.setattr(V, "covariance_functions", broken)
    monkeypatch.setattr(weingarten, "covariance_functions", broken)
    res = V.check_covariance()
    assert [d["case"] for d in res.details if not d["pass"]] == [
        f"{kind} condition number < 3, all n >= 2"
    ]


def test_c9_fails_a_cross_function_off_only_beyond_n_50(monkeypatch):
    real = V.full_ball_functions

    def broken(ball):
        second, cross, same_row = real(ball)
        if ball == "full-complex":
            cross = cross + _vanishing_up_to(50)
        return second, cross, same_row

    monkeypatch.setattr(V, "full_ball_functions", broken)
    res = V.check_negcorr()
    assert not res.passed
    # no sign certificate holds for cross + the polynomial either
    assert [d["case"] for d in res.details if not d["pass"]] == [
        "field c exact values, all n >= 2", "field c inequality pattern, all n >= 2"
    ]


def test_c9_fails_a_sign_pattern_broken_only_beyond_n_50(monkeypatch):
    # cross falls below (E|T_11|^2)^2 beyond n = 50 only; the closed form it is
    # compared with is broken alike, so only the sign pattern can fail
    real = V.full_ball_functions

    def broken(ball):
        second, cross, same_row = real(ball)
        if ball == "full-complex":
            cross = cross - _vanishing_up_to(50)
        return second, cross, same_row

    second, cross, same_row = V.NEGCORR_VALUES["c"]
    monkeypatch.setitem(V.NEGCORR_VALUES, "c", (second, cross - _vanishing_up_to(50), same_row))
    monkeypatch.setattr(V, "full_ball_functions", broken)
    monkeypatch.setattr(weingarten, "full_ball_functions", broken)
    res = V.check_negcorr()
    assert [d["case"] for d in res.details if not d["pass"]] == [
        "field c inequality pattern, all n >= 2"
    ]
