"""The selmat benchmark: seeded closed-loop workloads over the selmat CLI.

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 30 --trace 0

Run it from any directory; it measures the tree it sits in (``../src``).
One client runs one op at a time, each op a fresh ``python -m selmat.cli``
process, as a CLI user pays a cold start on every call.  A run repeats the
seeded passes of its workload as often as ``--seconds`` allots (at least once),
each pass with its own seeded draw of ops, then checks every op's output.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the first pass
once untraced and once traced and prints the per-layer metrics.  The
last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import check
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "perfbench-trace")
SETUP_SAMPLES = 3
OP_TIMEOUT_S = 150
# Nominal pass lengths: one pass took 14.5-17.5 s, 8.5-10 s and 37-45 s at the
# commit that introduced the benchmark, on a shared 2-core Xeon whose speed
# drifted.  The pass count depends on --seconds only, so parent and change run
# the same ops and the tail percentile stays put.
PASS_SECONDS = {"exact-sweep": 14.0, "exact-point": 8.0, "verify": 35.0}
# Commands whose records each carry one n-value; verify counts checked cases.
N_VALUE_COMMANDS = ("sigma", "variance", "remark-beta", "moments")


@dataclass
class OpRun:
    op: workloads.Op
    returncode: int
    stdout: str
    stderr: str
    seconds: float
    rss_mb: float


def op_env() -> dict:
    """Environment of every op: the measured tree's src alone on PYTHONPATH,
    and SELMAT_THREADS unset so the CLI runs with its default."""
    env = {k: v for k, v in os.environ.items() if k not in ("SELMAT_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = SRC
    return env


def launch(args: list, env: dict) -> tuple:
    """Run `python <args>`; (returncode, stdout, stderr, seconds, peak RSS MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT)
    killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    killer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t0
    killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return (proc.returncode, out.decode(errors="replace"), err[0].decode(errors="replace"),
            seconds, usage.ru_maxrss / 1024.0)


def run_op(op: workloads.Op, env: dict, trace_file: str | None = None) -> OpRun:
    if trace_file is None:
        args = ["-m", "selmat.cli", *op.argv]
    else:
        args = [os.path.join(HERE, "tracer.py"), trace_file, op.key, "--", *op.argv]
    return OpRun(op, *launch(args, env))


PROBE = (
    "import json, os, sys, numpy, selmat.cli as c; "
    "print(json.dumps({'selmat': os.path.realpath(c.__file__), "
    "'python': sys.version.split()[0], 'numpy': numpy.__version__}))"
)


def probe(env: dict) -> dict:
    """Versions, after checking that `selmat` resolves inside the measured tree."""
    code, out, err, _, _ = launch(["-c", PROBE], env)
    if code != 0:
        raise SystemExit(f"cannot import selmat from {SRC}:\n{err}")
    info = json.loads(out)
    if not info["selmat"].startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"selmat resolved to {info['selmat']}, outside {SRC}")
    return info


def machine_info(versions: dict) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            commit = res.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": versions["python"],
        "numpy": versions["numpy"],
        "platform": platform.platform(),
    }


def import_seconds(env: dict, count: int) -> list:
    """Wall times of `count` fresh interpreters running `import selmat.cli`."""
    return [launch(["-c", "import selmat.cli"], env)[3] for _ in range(count)]


def pass_count(workload: str, seconds: float) -> int:
    """Passes that fit in `seconds` at the workload's pass length; at least one."""
    return max(1, int(seconds // PASS_SECONDS[workload]))


def run_passes(scripts: list, env: dict) -> tuple:
    """(passes, set-up samples): one (wall seconds, op runs) per op script, with
    SETUP_SAMPLES import timings before each pass and after the last, so the
    set-up median spans the whole run.  One unmeasured import first writes the
    bytecode caches, which an installed package already has."""
    launch(["-c", "import selmat.cli"], env)
    passes, setup = [], []
    for ops in scripts:
        setup += import_seconds(env, SETUP_SAMPLES)
        p0 = time.perf_counter()
        runs = [run_op(op, env) for op in ops]
        passes.append((time.perf_counter() - p0, runs))
    setup += import_seconds(env, SETUP_SAMPLES)
    return passes, setup


def verdicts(runs: list, reference: dict, extra: dict) -> list:
    """(run, problems) for each run; `extra` maps id(run) to further problems."""
    return [
        (r, check.check_op(r.op, r.returncode, r.stdout, r.stderr, reference) + extra.get(id(r), []))
        for r in runs
    ]


def n_values(run: OpRun) -> int:
    command = run.op.argv[0]
    records = check.parse_records(run.stdout)[1:]
    if command == "verify":
        return sum(rec.get("n_cases", 0) for rec in records)
    if command in N_VALUE_COMMANDS:
        return sum(1 for rec in records if "n" in rec)
    return 0


def tail(latencies: list) -> tuple:
    """(value, percentile): the highest order statistic with >= 10 ops beyond it,
    or the maximum when there are fewer than 11 ops."""
    xs = sorted(latencies)
    if len(xs) < 11:
        return xs[-1], 100.0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


def end_to_end(passes: list, good: list, setup: list) -> tuple:
    runs = [r for _, rs in passes for r in rs]
    lat = [r.seconds for r in runs]
    tail_s, pct = tail(lat)
    counted = [(r, n) for r in good if (n := n_values(r))]
    values = sum(n for _, n in counted)
    busy = sum(r.seconds for r, _ in counted)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(w for w, _ in passes), "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail_s, "s"),
        "n_values_per_s": (values / busy if busy else 0.0, "1/s"),
        "peak_rss_mb": (max(r.rss_mb for r in runs), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh `import selmat.cli`",
        "wall_s": f"median of {len(passes)} passes",
        "op_p50_s": f"{len(lat)} ops",
        "op_tail_s": f"p{pct:.1f} of {len(lat)} ops",
        "n_values_per_s": f"{values} values over {busy:.2f} s of {len(counted)} ops",
        "peak_rss_mb": "largest op process",
    }
    return metrics, notes


# -- traced run ---------------------------------------------------------------


def load_traces(paths: list) -> dict:
    """Sum the tracer reports of several ops."""
    total = {"functions": {}, "groups": {}, "within": {}, "caches": {}, "counters": {},
             "maxima": {}, "rejection": {}, "verify": {}, "spans": 0}
    for path in paths:
        with open(path) as fh:
            rep = json.load(fh)
        for name, f in rep["functions"].items():
            acc = total["functions"].setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += f[k]
        for section in ("groups", "within", "counters"):
            for k, v in rep[section].items():
                total[section][k] = total[section].get(k, 0) + v
        for k, v in rep["maxima"].items():
            total["maxima"][k] = max(total["maxima"].get(k, v), v)
        for k, (hits, misses) in rep["caches"].items():
            acc = total["caches"].setdefault(k, [0, 0])
            acc[0] += hits
            acc[1] += misses
        for k, tally in rep["rejection"].items():
            acc = total["rejection"].setdefault(k, [0, 0, 0.0])
            for i in range(3):
                acc[i] += tally[i]
        for crit, v in rep["verify"].items():
            acc = total["verify"].setdefault(crit, {"s": 0.0, "cases": 0, "failed": 0})
            for k in acc:
                acc[k] += v[k]
        total["spans"] += rep["spans"]
    return total


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def per_layer(tr: dict, traced_runs: list, overhead_s: float) -> dict:
    F = tr["functions"]
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def f(name, key):
        return F.get(name, zero)[key]

    def cache(name):
        return tr["caches"].get(name, [0, 0])

    def hit_ratio(name):
        hits, misses = cache(name)
        return _ratio(hits, hits + misses)

    groups, counters, maxima = tr["groups"], tr["counters"], tr["maxima"]
    proposals = sum(t[0] for t in tr["rejection"].values())
    accepted = sum(t[1] for t in tr["rejection"].values())
    points = counters.get("oracle.quadrature.points", 0)
    m = {
        "jack.kadell_ratio.calls": (f("jack.kadell_ratio", "calls"), "count"),
        "jack.kadell_ratio.s": (f("jack.kadell_ratio", "s"), "s"),
        "jack.principal_specialization.s": (f("jack.principal_specialization", "s"), "s"),
        "jack.basis.builds": (cache("selmat.jack.jack_basis_matrix")[1], "count"),
        "jack.basis.s": (f("jack.jack_basis_matrix", "s"), "s"),
        "jack.basis.max_degree": (maxima.get("jack.basis.max_degree", 0), "degree"),
        "jack.inverse.builds": (cache("selmat.jack.monomial_to_jack_matrix")[1], "count"),
        "jack.inverse.s": (f("jack.monomial_to_jack_matrix", "self_s"), "s"),
        "moments.ensemble_moments.calls": (f("moments.ensemble_moments", "calls"), "count"),
        "moments.ensemble_moments.s": (f("moments.ensemble_moments", "s"), "s"),
        "moments.monomial_moment_ratio.hit_ratio": (
            hit_ratio("selmat.moments.monomial_moment_ratio"), "ratio"),
        "moments.reconstruct.calls": (f("moments.reconstruct_rational", "calls"), "count"),
        "moments.reconstruct.samples": (counters.get("moments.reconstruct.samples", 0), "count"),
        "moments.reconstruct.s": (f("moments.reconstruct_rational", "s"), "s"),
        "moments.laurent.s": (f("moments.laurent_coefficients", "s"), "s"),
        "exact.pochhammer.calls": (f("exact.pochhammer", "calls"), "count"),
        "exact.pochhammer.s": (f("exact.pochhammer", "s"), "s"),
        "exact.to_float.s": (f("exact.to_float", "s"), "s"),
        "selberg.calls": (sum(f(n, "calls") for n in tracer.GROUPS["selberg"]), "count"),
        "selberg.s": (groups.get("selberg", 0.0), "s"),
        "weingarten.table.builds": (
            cache("selmat.weingarten._wg_unitary_table")[1]
            + cache("selmat.weingarten._wg_orthogonal_table")[1], "count"),
        "weingarten.table.s": (groups.get("weingarten.table", 0.0), "s"),
        "weingarten.zonal.calls": (f("weingarten.zonal_spherical", "calls"), "count"),
        "weingarten.moment_sum.calls": (
            sum(f(n, "calls") for n in tracer.GROUPS["weingarten.moment_sum"]), "count"),
        "weingarten.moment_sum.s": (groups.get("weingarten.moment_sum", 0.0), "s"),
        "weingarten.covariance_report.s": (f("weingarten.covariance_report", "s"), "s"),
        "combinat.character.calls": (f("combinat.character", "calls"), "count"),
        "combinat.character.hit_ratio": (hit_ratio("selmat.combinat.character"), "ratio"),
        "combinat.character.s": (f("combinat.character", "s"), "s"),
        "combinat.hyperoctahedral.s": (f("combinat.hyperoctahedral", "s"), "s"),
        "combinat.partitions_of.misses": (cache("selmat.combinat.partitions_of")[1], "count"),
        "cli.main.s": (f("cli.main", "s"), "s"),
        "cli.main.self_s": (f("cli.main", "self_s"), "s"),
        "cli.records": (sum(len(r.stdout.splitlines()) for r in traced_runs), "count"),
        "oracle.quadrature.calls": (f("oracle.quadrature", "calls"), "count"),
        "oracle.quadrature.points": (points, "count"),
        "oracle.quadrature.points_per_s": (_ratio(points, f("oracle.quadrature", "s")), "1/s"),
        "oracle.quadrature.err_max": (maxima.get("oracle.quadrature.err_max", 0.0), "abs"),
        "oracle.rejection.proposals": (proposals, "count"),
        "oracle.rejection.accepted": (accepted, "count"),
        "oracle.rejection.acceptance_ratio": (_ratio(accepted, proposals), "ratio"),
        "oracle.rejection.proposals_per_s": (
            _ratio(proposals, f("oracle.rejection_sample_ball", "s")), "1/s"),
        "oracle.rejection.accepted_per_s": (
            _ratio(accepted, f("oracle.rejection_sample_ball", "s")), "1/s"),
    }
    for crit in check.CRITERIA:
        m[f"verify.{crit}.s"] = (tr["verify"].get(crit, {}).get("s", 0.0), "s")
    m["verify.cases"] = (sum(v["cases"] for v in tr["verify"].values()), "count")
    m["verify.failed_cases"] = (sum(v["failed"] for v in tr["verify"].values()), "count")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def sanity_lines(tr: dict, identical: int, total: int) -> list:
    lines = [f"trace: {identical}/{total} traced ops byte-identical to the untraced pass"]
    em = tr["functions"].get("moments.ensemble_moments", {}).get("s", 0.0)
    inside = tr["within"].get("moments.ensemble_moments>jack.kadell_ratio", 0.0)
    if em:
        lines.append(f"trace: kadell_ratio is {100 * inside / em:.1f}% of ensemble_moments time "
                     f"({inside:.3f} of {em:.3f} s; about 90% expected on self-adjoint "
                     "ensembles, none on full-matrix ones or cache hits)")
    herm = tr["rejection"].get("hermitian,n=3")
    if herm and herm[0]:
        lines.append(f"trace: hermitian n=3 rejection acceptance {100 * herm[1] / herm[0]:.3f}% "
                     f"({herm[1]} of {herm[0]}; about 0.72% expected)")
    lines.append(f"trace: {tr['spans']} spans")
    return lines


# -- main -----------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    env = op_env()
    info = machine_info(probe(env))
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh).get(args.workload, {})
    scripts = workloads.make_passes(args.workload, args.seed,
                                    1 if args.trace else pass_count(args.workload, args.seconds))
    ops = scripts[0]

    report = []
    if args.trace:
        metrics, runs, notes, extra, report = traced_run(ops, env)
        checked = verdicts(runs, reference, extra)
    else:
        passes, setup = run_passes(scripts, env)
        info["passes"] = len(passes)
        checked = verdicts([r for _, rs in passes for r in rs], reference, {})
        metrics, notes = end_to_end(passes, [r for r, p in checked if not p], setup)
    failures = [(r, p) for r, p in checked if p]
    attempted = len(checked)

    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, ops_per_pass=len(ops))
    print(json.dumps({"bench": info}, sort_keys=True))
    for line in report:
        print(line)
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops, {len(failures)} failed")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:42s} {value:>14.6g} {unit:6s} {note}")
    print(f"  {'failed_ratio':42s} {len(failures) / attempted:>14.6g} {'ratio':6s} "
          f"{len(failures)} of {attempted} ops")
    for run, problems in failures[:20]:
        print(f"FAILED {run.op.key}: {'; '.join(problems)}", file=sys.stderr)
        if run.stderr:
            print(run.stderr[-2000:], file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_run(ops: list, env: dict) -> tuple:
    """One untraced and one traced pass of the same ops; per-layer metrics."""
    shutil.rmtree(TRACE_DIR, ignore_errors=True)
    os.makedirs(TRACE_DIR)
    t0 = time.perf_counter()
    plain = [run_op(op, env) for op in ops]
    plain_s = time.perf_counter() - t0
    paths = [os.path.join(TRACE_DIR, f"op{i}.json") for i in range(len(ops))]
    t0 = time.perf_counter()
    traced = [run_op(op, env, path) for op, path in zip(ops, paths)]
    traced_s = time.perf_counter() - t0
    extra = {id(t): ["traced stdout differs from the untraced op"]
             for p, t in zip(plain, traced) if p.stdout != t.stdout}
    tr = load_traces([p for p in paths if os.path.exists(p)])
    shutil.rmtree(TRACE_DIR, ignore_errors=True)
    metrics = per_layer(tr, traced, traced_s - plain_s)
    notes = {"trace.overhead_s": f"traced pass {traced_s:.2f} s - untraced pass {plain_s:.2f} s"}
    report = sanity_lines(tr, len(ops) - len(extra), len(ops))
    return metrics, plain + traced, notes, extra, report


if __name__ == "__main__":
    sys.exit(main())
