"""Out-of-program tracer: runs one selmat CLI op with spans around each layer.

    python3 perfbench/tracer.py OUT.json OP_ID -- <selmat arguments...>

Imports ``selmat.cli``, replaces every module binding of the functions in
``TRACED`` with one timing wrapper, snapshots ``cache_info()`` of the
``lru_cache`` tables, then calls ``selmat.cli.main`` with the op's arguments.
Nothing is written to stdout, so the op's output stays byte-identical.
Spans (name, start, end, parent, op id) are kept in memory; at exit they are
reduced to per-function and per-group totals, which go to OUT.json.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# (layer, module, function).  The two Weingarten table builders are private,
# but they are the only place a table build can be timed from outside.
TRACED = (
    ("cli", "selmat.cli", "main"),
    ("exact", "selmat.exact", "pochhammer"),
    ("exact", "selmat.exact", "to_float"),
    ("combinat", "selmat.combinat", "character"),
    ("combinat", "selmat.combinat", "hyperoctahedral"),
    ("combinat", "selmat.combinat", "partitions_of"),
    ("selberg", "selmat.selberg", "selberg_I0"),
    ("selberg", "selmat.selberg", "aomoto_ratio"),
    ("selberg", "selmat.selberg", "aomoto_general_ratio"),
    ("jack", "selmat.jack", "kadell_ratio"),
    ("jack", "selmat.jack", "principal_specialization"),
    ("jack", "selmat.jack", "jack_basis_matrix"),
    ("jack", "selmat.jack", "monomial_to_jack_matrix"),
    ("moments", "selmat.moments", "ensemble_moments"),
    ("moments", "selmat.moments", "monomial_moment_ratio"),
    ("moments", "selmat.moments", "reconstruct_rational"),
    ("moments", "selmat.moments", "laurent_coefficients"),
    ("weingarten", "selmat.weingarten", "_wg_unitary_table"),
    ("weingarten", "selmat.weingarten", "_wg_orthogonal_table"),
    ("weingarten", "selmat.weingarten", "zonal_spherical"),
    ("weingarten", "selmat.weingarten", "conj_invariant_moment_unitary"),
    ("weingarten", "selmat.weingarten", "conj_invariant_moment_orthogonal"),
    ("weingarten", "selmat.weingarten", "lr_moment_complex"),
    ("weingarten", "selmat.weingarten", "lr_moment_real"),
    ("weingarten", "selmat.weingarten", "haar_moment_unitary"),
    ("weingarten", "selmat.weingarten", "haar_moment_orthogonal"),
    ("weingarten", "selmat.weingarten", "covariance_report"),
    ("oracle", "selmat.oracle", "quadrature"),
    ("oracle", "selmat.oracle", "rejection_sample_ball"),
    ("verify", "selmat.verify", "check_selberg_quadrature"),
    ("verify", "selmat.verify", "check_jack_tables"),
    ("verify", "selmat.verify", "check_expansions"),
    ("verify", "selmat.verify", "check_variance_constants"),
    ("verify", "selmat.verify", "check_remark"),
    ("verify", "selmat.verify", "check_sigma2"),
    ("verify", "selmat.verify", "check_weingarten_values"),
    ("verify", "selmat.verify", "check_covariance"),
    ("verify", "selmat.verify", "check_negcorr"),
    ("verify", "selmat.verify", "check_oracle_concordance"),
)

# Functions whose time is counted once however they nest inside each other.
GROUPS = {
    "selberg": ("selberg.selberg_I0", "selberg.aomoto_ratio", "selberg.aomoto_general_ratio"),
    "weingarten.table": ("weingarten._wg_unitary_table", "weingarten._wg_orthogonal_table"),
    "weingarten.moment_sum": tuple(
        f"weingarten.{f}" for f in (
            "conj_invariant_moment_unitary", "conj_invariant_moment_orthogonal",
            "lr_moment_complex", "lr_moment_real", "haar_moment_unitary", "haar_moment_orthogonal",
        )
    ),
}

# (ancestor, descendant): time of the descendant's spans inside the ancestor's.
WITHIN = (("moments.ensemble_moments", "jack.kadell_ratio"),)

NAME, START, END, PARENT, OP = range(5)


# -- span arithmetic ----------------------------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [
        s[END] - s[START] - covered(children.get(i, ()), s[START], s[END])
        for i, s in enumerate(spans)
    ]


def ancestor_names(spans) -> list:
    """For each span, the frozenset of names on its ancestor chain.

    Parents precede their children in `spans` (spans are appended on entry).
    """
    empty = frozenset()
    memo = {}
    out = []
    for s in spans:
        p = s[PARENT]
        if p < 0:
            out.append(empty)
            continue
        key = (out[p], spans[p][NAME])
        anc = memo.get(key)
        if anc is None:
            anc = memo[key] = key[0] | {key[1]}
        out.append(anc)
    return out


def summarize(spans, groups=GROUPS, within=WITHIN) -> dict:
    """Per-function calls, outermost inclusive time and self time; group and
    ancestor/descendant totals.  An outermost span has no ancestor of the same
    name (or, for a group, of any name in the group)."""
    anc = ancestor_names(spans)
    selfs = self_times(spans)
    funcs = {}
    for s, a, st in zip(spans, anc, selfs):
        f = funcs.setdefault(s[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
        f["calls"] += 1
        f["self_s"] += st
        if s[NAME] not in a:
            f["s"] += s[END] - s[START]
    group_s = {g: 0.0 for g in groups}
    within_s = {f"{o}>{i}": 0.0 for o, i in within}
    for s, a in zip(spans, anc):
        dur = s[END] - s[START]
        for g, members in groups.items():
            if s[NAME] in members and not any(m in a for m in members):
                group_s[g] += dur
        for o, i in within:
            if s[NAME] == i and o in a and i not in a:
                within_s[f"{o}>{i}"] += dur
    return {"functions": funcs, "groups": group_s, "within": within_s}


# -- wrapping -----------------------------------------------------------------


def selmat_modules() -> list:
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "selmat" or k.startswith("selmat."))]


def lru_tables() -> dict:
    """Every lru_cache table bound in a selmat module, by qualified name."""
    tables = {}
    for mod in selmat_modules():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_info", None)) and hasattr(obj, "cache_clear"):
                tables[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return tables


def cache_counts(tables: dict) -> dict:
    return {k: list(t.cache_info()[:2]) for k, t in tables.items()}


class Tracer:
    def __init__(self, op_id: str):
        self.op = op_id
        self.spans = []
        self.stack = []
        self.counters = defaultdict(int)
        self.maxima = {"jack.basis.max_degree": 0, "oracle.quadrature.err_max": 0.0}
        # "ensemble,n=N" -> [proposals, accepted, seconds inside the sampler]
        self.rejection = defaultdict(lambda: [0, 0, 0.0])
        self.verify = {}
        self.originals = {}  # traced name -> original function
        self.wrappers = {}

    def _enter(self):
        self.spans.append(None)
        sid = len(self.spans) - 1
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        return sid, parent

    def _exit(self, sid, name, parent, t0, t1):
        self.stack.pop()
        self.spans[sid] = (name, t0, t1, parent, self.op)

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        clock = time.perf_counter
        if name.startswith("verify."):
            observe = self._observe_verify
        else:
            observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = self._enter()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._exit(sid, name, parent, t0, t1)
            if observe is not None:
                observe(args, result, t1 - t0)
            return result

        return wrapper

    def _wrap_generator(self, name, fn):
        """Spans cover the time spent inside the generator, one per item."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            key = f"{args[0]},n={args[1]}"
            while True:
                sid, parent = self._enter()
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    t1 = clock()
                    self._exit(sid, name, parent, t0, t1)
                    tally = self.rejection[key]
                    tally[2] += t1 - t0
                batch, proposed_total = item
                tally[0] = proposed_total
                tally[1] += len(batch)
                yield item

        return wrapper

    def _observe_jack_jack_basis_matrix(self, args, result, dt):
        self.maxima["jack.basis.max_degree"] = max(self.maxima["jack.basis.max_degree"], args[1])

    def _observe_moments_reconstruct_rational(self, args, result, dt):
        self.counters["moments.reconstruct.samples"] += len(args[0])

    def _observe_oracle_quadrature(self, args, result, dt):
        spec = args[0]
        self.counters["oracle.quadrature.points"] += spec.points_per_axis ** spec.n
        key = "oracle.quadrature.err_max"
        self.maxima[key] = max(self.maxima[key], float(result[1]))

    def _observe_verify(self, args, result, dt):
        details = result.details
        self.verify[result.criterion] = {
            "s": dt,
            "cases": len(details),
            "failed": sum(1 for d in details if not d.get("pass", True)),
        }

    def install(self) -> None:
        """Replace every selmat-module binding of each traced function."""
        by_id = {}
        for layer, module, attr in TRACED:
            orig = getattr(sys.modules[module], attr)
            name = f"{layer}.{attr}"
            wrapper = self.wrap(name, orig)
            self.originals[name] = orig
            self.wrappers[name] = wrapper
            by_id[id(orig)] = wrapper
        for mod in selmat_modules():
            for key, obj in list(vars(mod).items()):
                if id(obj) in by_id:
                    setattr(mod, key, by_id[id(obj)])

    def stale_bindings(self) -> list:
        """(module, attribute) pairs still bound to an original, or to a wrapper
        other than the one installed for that function."""
        installed = {id(orig): self.wrappers[name] for name, orig in self.originals.items()}
        bad = []
        for mod in selmat_modules():
            for key, obj in vars(mod).items():
                if id(obj) in installed:
                    bad.append((mod.__name__, key))
                elif id(getattr(obj, "__wrapped__", None)) in installed:
                    if obj is not installed[id(obj.__wrapped__)]:
                        bad.append((mod.__name__, key))
        return bad

    def report(self, caches_before: dict, caches_after: dict) -> dict:
        out = summarize(self.spans)
        out["op"] = self.op
        out["spans"] = len(self.spans)
        out["caches"] = {
            k: [a - b for a, b in zip(caches_after[k], caches_before.get(k, [0, 0]))]
            for k in caches_after
        }
        out["counters"] = dict(self.counters)
        out["maxima"] = self.maxima
        out["rejection"] = dict(self.rejection)
        out["verify"] = self.verify
        return out


def main(argv: list) -> int:
    out_path, op_id, sep, *op_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.json OP_ID -- <selmat arguments>")
    from selmat import cli

    tracer = Tracer(op_id)
    tables = lru_tables()
    tracer.install()
    before = cache_counts(tables)
    try:
        return cli.main(op_argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.report(before, cache_counts(tables)), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
