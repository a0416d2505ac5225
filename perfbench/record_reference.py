"""Record reference.json: digests of every exact op output in the workload populations.

Run from the root of a checkout whose outputs are trusted (the reference
was recorded at the commit that introduced the benchmark):

    python3 perfbench/record_reference.py

Ops run in-process through ``selmat.cli.main``; their exact fields do not
depend on the process.  Classes checked by closed forms are run as well, and
the script exits nonzero if any op fails or any closed form does not hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ.pop("SELMAT_THREADS", None)

import check  # noqa: E402
import workloads  # noqa: E402
from selmat import cli  # noqa: E402


def run_inprocess(argv: tuple) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def main() -> int:
    reference, bad, total = {}, [], 0
    t0 = time.perf_counter()
    for workload in ("exact-sweep", "exact-point"):
        entries = {}
        for cls in workloads.classes_for(workload):
            for argv in cls.population:
                total += 1
                code, stdout = run_inprocess(argv)
                records = check.parse_records(stdout)
                if code != 0:
                    bad.append((argv, f"exit {code}"))
                    continue
                problems = check.closed_form_problems(argv, records[1:])
                if problems or (cls.closed and problems is None):
                    bad.append((argv, problems))
                if not cls.closed:
                    entries[" ".join(argv)] = check.digest(records)
        reference[workload] = entries
    for argv, why in bad:
        print("FAILED", " ".join(argv), why, file=sys.stderr)
    print(f"{total} ops, {len(bad)} failed, {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    if bad:
        return 1
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
