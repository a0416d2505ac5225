"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter

import check
import run
import tracer
import workloads

ENV = run.op_env()


def _cli(*argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "selmat.cli", *argv], env=ENV,
                          capture_output=True, text=True, check=True)


def _reference(workload: str) -> dict:
    with open(os.path.join(run.HERE, "reference.json")) as fh:
        return json.load(fh)[workload]


# -- generator ------------------------------------------------------------------


def test_passes_are_deterministic_per_seed():
    for w in workloads.WORKLOADS:
        assert workloads.make_passes(w, 7, 3) == workloads.make_passes(w, 7, 3)
        assert workloads.make_passes(w, 7, 3)[:2] == workloads.make_passes(w, 7, 2)
    assert workloads.make_passes("exact-point", 7, 1) != workloads.make_passes("exact-point", 8, 1)


def test_every_seed_runs_the_same_ops_per_size_class():
    for w in workloads.WORKLOADS:
        classes = workloads.classes_for(w)
        names = [c.name for c in classes]
        assert len(set(names)) == len(names)
        want = Counter({c.name: c.per_pass for c in classes})
        for seed in range(25):
            for ops in workloads.make_passes(w, seed, 3):
                assert Counter(op.cls for op in ops) == want
                for op in ops:
                    cls = next(c for c in workloads.classes_for(w, seed) if c.name == op.cls)
                    assert op.argv in cls.population


def test_passes_deal_distinct_members_until_a_population_is_used_up():
    passes = workloads.make_passes("exact-sweep", 3, 3)
    for cls in workloads.classes_for("exact-sweep"):
        drawn = [op.argv for ops in passes for op in ops if op.cls == cls.name]
        assert len(set(drawn)) == min(len(drawn), len(cls.population)), cls.name


def test_reference_covers_every_open_population():
    for w in ("exact-sweep", "exact-point"):
        ref = _reference(w)
        for cls in workloads.classes_for(w):
            if not cls.closed:
                assert all(" ".join(argv) in ref for argv in cls.population), cls.name


# -- checker --------------------------------------------------------------------


def _op(*argv) -> workloads.Op:
    return workloads.Op("exact-point", "test", tuple(argv))


def test_checker_accepts_good_output_and_flags_corrupted_fields():
    ref = _reference("exact-point")
    op = _op("moments", "--ensemble", "full-real", "--n", "16", "--convention", "forced")
    out = _cli(*op.argv).stdout
    assert check.check_op(op, 0, out, "", ref) == []
    config, rec = out.splitlines()
    for field in ("M2", "var"):  # closed form, then reference digest
        bad = dict(json.loads(rec), **{field: "1/3"})
        problems = check.check_op(op, 0, config + "\n" + json.dumps(bad) + "\n", "", ref)
        assert problems, field
    floats_only = dict(json.loads(rec), M2_float=0.5)
    assert check.check_op(op, 0, config + "\n" + json.dumps(floats_only) + "\n", "", ref) == []


def test_checker_closed_forms():
    op = _op("negcorr", "--field", "r", "--n", "1777")
    out = _cli(*op.argv).stdout
    assert check.check_op(op, 0, out, "", {}) == []
    assert check.check_op(op, 0, out.replace('"cross": "', '"cross": "-'), "", {})
    for argv in (("weingarten", "orthogonal", "--k", "2", "--coset-type", "1,1", "--z", "9/2"),
                 ("jack", "expand", "--lam", "3,1", "--kappa", "5/2")):
        assert check.check_op(_op(*argv), 0, _cli(*argv).stdout, "", {}) == []
    assert check.check_op(_op("selberg", "--n", "2"), 0, out, "", {})  # no reference entry


def test_checker_flags_exit_code_traceback_and_garbage():
    op = _op("negcorr", "--field", "c", "--n", "5")
    out = _cli(*op.argv).stdout
    assert check.check_op(op, 2, out, "", {}) == ["exit code 2"]
    assert check.check_op(op, 0, out, "Traceback (most recent call last):", {})
    assert check.check_op(op, 0, out + "not json\n", "", {})


def test_checker_verify_requires_every_criterion():
    recs = [{"config": {}}] + [{"criterion": c, "passed": True} for c in check.CRITERIA]
    recs.append({"summary": "10/10"})
    good = "\n".join(json.dumps(r) for r in recs)
    op = workloads.Op("verify", "verify", ("verify", "--seed", "1"))
    assert check.check_op(op, 0, good, "", {}) == []
    assert check.check_op(op, 0, good.replace('"C4", "passed": true', '"C4", "passed": false'), "", {})
    assert check.check_op(op, 0, good.replace('"C10"', '"C11"'), "", {})


# -- span arithmetic ------------------------------------------------------------


def test_self_time_on_a_synthetic_tree():
    spans = [
        ("root", 0.0, 10.0, -1, "op"),
        ("a", 1.0, 4.0, 0, "op"),
        ("b", 3.0, 6.0, 0, "op"),  # overlaps a, as a thread would
        ("leaf", 2.0, 3.0, 1, "op"),
        ("a", 2.5, 2.75, 3, "op"),  # recursion below leaf
        ("late", 9.5, 12.0, 0, "op"),  # runs past its parent: clipped
    ]
    assert tracer.self_times(spans) == [10 - 5 - 0.5, 3 - 1, 3, 1 - 0.25, 0.25, 2.5]
    summary = tracer.summarize(spans, groups={"ab": ("a", "b")}, within=(("root", "a"),))
    assert summary["functions"]["a"] == {"calls": 2, "s": 3.0, "self_s": 2.25}
    assert summary["groups"]["ab"] == 6.0
    assert summary["within"]["root>a"] == 3.0


def test_tail_percentile_keeps_ten_ops_beyond():
    assert run.tail(list(range(30))) == (19, 100 * 20 / 30)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


# -- tracer -------------------------------------------------------------------------


BINDINGS = """
import sys, json
sys.path[:0] = [{here!r}]
import tracer
import selmat, selmat.cli
t = tracer.Tracer("x")
t.install()
w = t.wrappers["jack.kadell_ratio"]
homes = [m.__name__ for m in tracer.selmat_modules() if getattr(m, "kadell_ratio", None) is w]
print(json.dumps({{"stale": t.stale_bindings(), "homes": homes}}))
"""


def test_every_binding_points_to_the_one_wrapper():
    res = subprocess.run([sys.executable, "-c", BINDINGS.format(here=run.HERE)], env=ENV,
                         capture_output=True, text=True, check=True)
    got = json.loads(res.stdout)
    assert got["stale"] == []
    assert {"selmat", "selmat.jack", "selmat.moments", "selmat.verify", "selmat.cli"} <= set(got["homes"])


def test_traced_op_is_byte_identical(tmp_path):
    argv = ("asympt", "--quantity", "x2x2", "--kappa", "1/2", "--order", "2")
    out = tmp_path / "trace.json"
    traced = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "tracer.py"), str(out), "op1", "--", *argv],
        env=ENV, capture_output=True, text=True, check=True)
    assert traced.stdout == _cli(*argv).stdout
    rep = json.loads(out.read_text())
    assert rep["op"] == "op1"
    assert rep["functions"]["cli.main"]["calls"] == 1
    assert rep["functions"]["moments.reconstruct_rational"]["calls"] == 1
    assert rep["caches"]["selmat.moments.monomial_moment_ratio"][1] > 0
