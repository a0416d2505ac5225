"""run_all's worker: C10 in one forked process beside the other criteria.

The worker is a fork, so it inherits every monkeypatch made here, MC_COUNT
included; each test sets MC_COUNT to 10 000 draws per ball to stay fast.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

import selmat
from selmat import verify as V

SRC = os.path.dirname(os.path.dirname(selmat.__file__))
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
TWO_CPUS = V._usable_cpus() >= 2


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes os.fork starts, with MC_COUNT at 10 000."""
    monkeypatch.setattr(V, "MC_COUNT", 10_000)
    pids, fork = [], os.fork

    def counting_fork():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def _reaped(pid) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.parametrize("seed", [V.DEFAULT_SEED, 11])
def test_worker_results_match_the_serial_checks(forks, seed):
    results = V.run_all(seed, ("C10", "C2"))
    assert [r.criterion for r in results] == ["C10", "C2"]
    assert len(forks) == (1 if TWO_CPUS else 0)
    serial = [V.check_oracle_concordance(seed), V.check_jack_tables()]
    assert [V.serialize_result(r) for r in results] == [V.serialize_result(r) for r in serial]
    assert all(_reaped(pid) for pid in forks)


@pytest.mark.skipif(not TWO_CPUS, reason="the worker runs on two or more CPUs only")
def test_worker_exception_reaches_the_caller(forks, monkeypatch):
    def broken(seed):
        raise ValueError(f"broken C10 at seed {seed}")

    monkeypatch.setattr(V, "check_oracle_concordance", broken)
    with pytest.raises(ValueError, match="^broken C10 at seed 5$") as exc:
        V.run_all(5, ("C10", "C2"))
    assert "in the worker" in str(exc.value.__cause__)
    assert len(forks) == 1 and _reaped(forks[0])
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not TWO_CPUS, reason="the worker runs on two or more CPUs only")
def test_main_process_failure_stops_the_worker(forks, monkeypatch):
    def broken_c2():
        raise ValueError("broken C2")

    # C10 would run for a minute: the worker must be stopped, not waited for
    monkeypatch.setattr(V, "check_oracle_concordance", lambda seed: time.sleep(60))
    monkeypatch.setattr(V, "check_jack_tables", broken_c2)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="^broken C2$"):
        V.run_all(V.DEFAULT_SEED, ("C10", "C2"))
    assert time.perf_counter() - t0 < 30
    assert len(forks) == 1 and _reaped(forks[0])
    assert multiprocessing.active_children() == []


def test_one_cpu_starts_no_process(forks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    results = V.run_all(V.DEFAULT_SEED, ("C10", "C2"))
    assert [r.criterion for r in results] == ["C10", "C2"]
    assert forks == []


def test_cli_import_loads_no_process_pool():
    # each CLI call is a fresh process: start-up must not pay for the worker's modules
    script = """
import sys
import selmat.cli
assert "multiprocessing" not in sys.modules, "multiprocessing"
assert "concurrent.futures" not in sys.modules, "concurrent.futures"
"""
    res = subprocess.run([sys.executable, "-c", script], env=ENV, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_piped_verify_prints_one_config_record():
    # a worker forked with the config line still in the stdout buffer would print it twice;
    # stdout is a pipe, and without PYTHONUNBUFFERED it is block-buffered
    env = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"}
    script = """
import sys
from selmat import verify
from selmat.cli import main
verify.MC_COUNT = 10_000
sys.exit(main(["verify", "--criteria", "C2,C10"]))
"""
    res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    # at 10 000 draws C10 cannot adjudicate the convention, so it may fail: exit 1
    assert res.returncode in (0, 1) and res.stderr == "", res.stderr
    records = [json.loads(line) for line in res.stdout.splitlines()]
    assert ["config" in r for r in records] == [True, False, False, False]
    assert [r.get("criterion") for r in records[1:3]] == ["C2", "C10"]
