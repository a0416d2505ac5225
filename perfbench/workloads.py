"""Seeded op scripts for the three benchmark workloads.

A workload is a list of size classes.  Each class owns a finite population
of CLI argument vectors whose costs are alike; one pass over a workload runs
exactly ``per_pass`` ops from every class, so every seed gives the same number
of ops per class.  The seed deals each population out in a shuffled order, so
successive passes of a run take different members (repeating only once a
population is used up), and it shuffles the order of every pass.  Classes
marked ``closed`` are fully checked by closed forms in ``check.py``; every
other population is listed in ``reference.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SIZES = (100, 300, 700)
SELF_ADJOINT = ("hermitian", "symmetric", "quaternion")
FULL = ("full-real", "full-complex", "full-quaternion")
KAPPAS = ("1/3", "1/2", "1", "3/2", "2", "3")
REMARK_BETAS = ("1", "2", "4", "6", "1/2", "3/2", "5/2")
FULL_BETAS = ("1", "2", "4")
SHIFTED = ("x2", "x1x1", "x2x2", "x4")
UW = (("1", "1"), ("3/2", "2"), ("2", "1/2"))
N_MID = (2, 3, 4, 5, 7, 10, 16, 25, 40, 63, 100, 160, 250, 400)
N_LARGE = (500, 630, 800, 1000, 1260, 1600, 2000)
WORKLOADS = ("exact-sweep", "exact-point", "verify")


@dataclass(frozen=True)
class SizeClass:
    name: str
    population: tuple  # tuple of argv tuples
    closed: bool = False  # checked by closed forms only, no reference entry
    per_pass: int = 1  # ops drawn from this class in every pass


@dataclass(frozen=True)
class Op:
    workload: str
    cls: str
    argv: tuple

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _partitions(d: int, largest: int | None = None):
    largest = d if largest is None else largest
    if d == 0:
        yield ()
        return
    for first in range(min(d, largest), 0, -1):
        for rest in _partitions(d - first, first):
            yield (first,) + rest


def sample_partitions(d: int, count: int = 4) -> list:
    """`count` partitions of d spread evenly over reverse-lexicographic order."""
    parts = list(_partitions(d))
    step = max(1, len(parts) // count)
    return parts[::step][:count]


def _lam(p) -> str:
    return ",".join(str(x) for x in p)


def _sweep_classes() -> list:
    classes = []
    for N in SIZES:
        # Two ops of each self-adjoint and remark-beta class at N = 100 per
        # pass fill the cluster of like-cost ops that holds the tail order
        # statistic of a two-pass run.
        k = 2 if N == SIZES[0] else 1
        nl = ("--n-list", f"2:{N}")
        sa = []
        for ens in SELF_ADJOINT:
            sa.append(("sigma", "--ensemble", ens) + nl)
            for conv in ("forced", "paper"):
                sa.append(("variance", "--ensemble", ens, "--convention", conv) + nl)
        classes.append(SizeClass(f"sweep-self-adjoint-{N}", tuple(sa), per_pass=k))
        fm = [(cmd, "--ensemble", ens) + nl for ens in FULL for cmd in ("sigma", "variance")]
        classes.append(SizeClass(f"sweep-full-{N}", tuple(fm)))
        rb = [("remark-beta", "--beta", b, "--n-list", f"4:{N}") for b in REMARK_BETAS]
        classes.append(SizeClass(f"remark-beta-{N}", tuple(rb), per_pass=k))
    ens_ops = []
    for ens in SELF_ADJOINT + FULL:
        convs = ("forced", "paper") if ens in SELF_ADJOINT else ("forced",)
        for q in ("var", "sigma2"):
            for conv in convs if q == "var" else ("forced",):
                ens_ops.append(("asympt", "--quantity", q, "--ensemble", ens,
                                "--convention", conv, "--order", "2"))
    # Three ops of each asympt class per pass put the median op inside this
    # cluster of like-cost ops instead of between the sweep sizes.
    classes.append(SizeClass("asympt-ensemble", tuple(ens_ops), per_pass=3))
    classes.append(SizeClass("asympt-shifted", tuple(
        ("asympt", "--quantity", q, "--kappa", k, "--order", "2")
        for q in SHIFTED for k in KAPPAS
    ), per_pass=3))
    classes.append(SizeClass("asympt-full", tuple(
        ("asympt", "--quantity", f"fm-{q}", "--beta", b, "--order", "2")
        for q in ("x2", "x2x2", "x4") for b in FULL_BETAS
    ), per_pass=3))
    classes.append(SizeClass("asympt-remark", tuple(
        ("asympt", "--quantity", "remark", "--beta", b, "--order", "1") for b in REMARK_BETAS
    ), per_pass=3))
    return classes


def _moments_class(name, ensembles, ns) -> SizeClass:
    ops = []
    for ens in ensembles:
        for n in ns:
            for conv in ("forced", "paper") if ens in SELF_ADJOINT else ("forced",):
                ops.append(("moments", "--ensemble", ens, "--n", str(n), "--convention", conv))
    return SizeClass(name, tuple(ops))


def _jack_classes(label: str, degrees: tuple) -> list:
    lams = [p for d in degrees for p in sample_partitions(d)]
    kadell, expand, principal = [], [], []
    for lam in lams:
        l = len(lam)
        for k in KAPPAS:
            expand.append(("jack", "expand", "--lam", _lam(lam), "--kappa", k))
            for n in (l + 2, 20):
                principal.append(("jack", "principal", "--lam", _lam(lam), "--kappa", k,
                                  "--n", str(n)))
            for n, (u, w) in zip((l + 1, 12), UW[1:]):
                kadell.append(("kadell", "--lam", _lam(lam), "--n", str(n), "--u", u,
                               "--w", w, "--kappa", k))
    return [
        SizeClass(f"kadell-{label}", tuple(kadell)),
        SizeClass(f"jack-expand-{label}", tuple(expand)),
        SizeClass(f"jack-principal-{label}", tuple(principal)),
    ]


def _point_classes() -> list:
    classes = [
        _moments_class("moments-self-adjoint-mid", SELF_ADJOINT, N_MID),
        _moments_class("moments-self-adjoint-large", SELF_ADJOINT, N_LARGE),
        _moments_class("moments-full-mid", FULL, N_MID),
        _moments_class("moments-full-large", FULL, N_LARGE),
    ]
    # Degree 11 and 12 get classes of their own: their Jack basis builds set
    # the tail, and one cost per class keeps the tail order statistic inside
    # one class whatever the seed picks.
    for label, degrees in (("d6-10", (6, 7, 8, 9, 10)), ("d11", (11,)), ("d12", (12,))):
        classes.extend(_jack_classes(label, degrees))
    classes.append(SizeClass("jack-expand-d2-4", tuple(
        ("jack", "expand", "--lam", _lam(lam), "--kappa", k)
        for d in (2, 3, 4) for lam in _partitions(d) for k in KAPPAS + ("5/2", "7")
    ), closed=True))
    for ens in ("hermitian", "symmetric"):
        classes.append(SizeClass(f"covariance-{ens}", tuple(
            ("covariance", "--ensemble", ens, "--n", str(n), "--convention", conv)
            for n in N_MID for conv in ("forced", "paper")
        )))
    classes.append(SizeClass("negcorr", tuple(
        ("negcorr", "--field", f, "--n", str(n)) for f in ("r", "c") for n in range(2, 2001)
    ), closed=True))
    unitary = []
    for k in range(1, 7):
        for ct in _partitions(k):
            for z in (str(k + 1), str(2 * k + 1), "20", "37/2"):
                unitary.append(("weingarten", "unitary", "--k", str(k),
                                "--cycle-type", _lam(ct), "--z", z))
    classes.append(SizeClass("weingarten-unitary", tuple(unitary)))
    orthogonal = []
    for k in range(1, 4):
        for ct in _partitions(k):
            for z in (str(k + 1), str(2 * k + 1), "20", "11/2"):
                orthogonal.append(("weingarten", "orthogonal", "--k", str(k),
                                   "--coset-type", _lam(ct), "--z", z))
    classes.append(SizeClass("weingarten-orthogonal", tuple(orthogonal)))
    k2 = []
    for z in [str(z) for z in range(3, 61)] + ["7/2", "9/2", "25/3"]:
        for ct in ("1,1", "2"):
            k2.append(("weingarten", "unitary", "--k", "2", "--cycle-type", ct, "--z", z))
            k2.append(("weingarten", "orthogonal", "--k", "2", "--coset-type", ct, "--z", z))
    classes.append(SizeClass("weingarten-k2", tuple(k2), closed=True))
    classes.append(SizeClass("selberg", tuple(
        ("selberg", "--n", str(n), "--u", u, "--w", w, "--kappa", k)
        for n in (2, 3, 5, 8) for u, w in UW for k in KAPPAS
    )))
    aomoto = []
    for n in (3, 4, 6):
        for u, w in UW:
            for k in KAPPAS:
                p = ("aomoto", "--n", str(n), "--u", u, "--w", w, "--kappa", k)
                aomoto.append(p + ("--m", str(n - 1)))
                aomoto.append(p + ("--m1", "1", "--m2", "1", "--m3", "1"))
    classes.append(SizeClass("aomoto", tuple(aomoto)))
    return classes


def classes_for(workload: str, seed: int = 0) -> list:
    if workload == "exact-sweep":
        return _sweep_classes()
    if workload == "exact-point":
        return _point_classes()
    if workload == "verify":
        # One op per pass; the benchmark seed becomes the verify seed, which
        # numpy needs non-negative.
        return [SizeClass("verify", (("verify", "--seed", str(abs(seed))),), closed=True)]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def make_passes(workload: str, seed: int, count: int) -> list:
    """The op scripts of `count` passes: `per_pass` ops of every class in each,
    dealt from a seeded shuffle of the class population, in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    classes = classes_for(workload, seed)
    decks = [rng.sample(c.population, len(c.population)) for c in classes]
    passes = []
    for i in range(count):
        ops = [Op(workload, c.name, deck[(i * c.per_pass + j) % len(deck)])
               for c, deck in zip(classes, decks) for j in range(c.per_pass)]
        random.Random(f"{workload}:{seed}:{i}").shuffle(ops)
        passes.append(ops)
    return passes
