"""Partitions and their diagrams, and symmetric-group structure.

Partitions are plain tuples of weakly decreasing positive ints (the empty
tuple is the partition of 0); they key every coefficient table in the
package.  Reverse-lexicographic order, which refines dominance, is the
canonical enumeration order, matching the row order of the degree-4
coefficient tables used elsewhere.
"""

from __future__ import annotations

import math
from functools import lru_cache
from collections.abc import Iterable, Iterator

from .exact import Value

Partition = tuple[int, ...]


class UnequalWeightError(ValueError):
    """Dominance comparison of partitions with different weights."""


def partition(parts: Iterable[int]) -> Partition:
    """Canonicalise to a sorted tuple, dropping zero parts."""
    p = tuple(sorted((int(x) for x in parts if int(x) != 0), reverse=True))
    if any(x < 0 for x in p):
        raise ValueError(f"negative part in {p}")
    return p


def format_partition(lam: Partition) -> str:
    return ",".join(str(x) for x in lam) if lam else "0"


def parse_partition(s: str) -> Partition:
    s = s.strip()
    if s in ("0", "", "()"):
        return ()
    return partition(int(tok) for tok in s.split(","))


@lru_cache(maxsize=None)
def partitions_of(k: int) -> tuple[Partition, ...]:
    """All partitions of k in reverse-lexicographic (dominance-refining) order."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > 40:
        raise ValueError("partitions_of capped at k <= 40")

    def gen(rem: int, largest: int) -> Iterator[tuple[int, ...]]:
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, largest), 0, -1):
            for rest in gen(rem - first, first):
                yield (first,) + rest

    return tuple(gen(k, k))


def zee(lam: Partition) -> int:
    """Centraliser order z_lambda = prod_i i^{a_i} a_i! (a_i = #parts equal to i)."""
    counts: dict[int, int] = {}
    for p in lam:
        counts[p] = counts.get(p, 0) + 1
    out = 1
    for i, a in counts.items():
        out *= i**a * math.factorial(a)
    return out


def boxes(lam: Partition) -> list[tuple[int, int, int, int]]:
    """(row, column, arm, leg) of each box of lambda's diagram, rows and columns from 0.

    The arm of box (i, j) counts the boxes right of it in row i, lambda_i - j - 1,
    and the leg the boxes below it in column j, lambda'_j - i - 1.
    """
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []
    return [(i, j, p - j - 1, conj[j] - i - 1) for i, p in enumerate(lam) for j in range(p)]


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


class Permutation(Value):
    """Permutation of {1..k} stored as the image tuple (images[i-1] = sigma(i))."""

    __slots__ = _fields = ("images",)

    def __init__(self, images: tuple[int, ...]):
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, k: int) -> "Permutation":
        return cls(tuple(range(1, k + 1)))

    @classmethod
    def from_cycles(cls, k: int, *cycles: tuple[int, ...]) -> "Permutation":
        img = list(range(1, k + 1))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
                img[a - 1] = b
        return cls(tuple(img))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (self * other)(i) = self(other(i))
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        seen = [False] * len(self.images)
        out = []
        for start in range(1, len(self.images) + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            j = self(start)
            while j != start:
                cyc.append(j)
                seen[j - 1] = True
                j = self(j)
            out.append(tuple(cyc))
        return out


def cycle_type(perm: Permutation) -> Partition:
    return partition(len(c) for c in perm.cycles())


def coset_type(perm: Permutation) -> Partition:
    """Coset type of sigma in S_2k: half the component sizes of the graph G(sigma).

    G(sigma) has vertices 1..2k and edges {2i-1, 2i} plus {sigma(2i-1), sigma(2i)}.
    """
    deg = perm.degree
    if deg % 2 != 0:
        raise ValueError("coset_type needs a permutation of even degree")
    parent = list(range(deg + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for i in range(1, deg // 2 + 1):
        union(2 * i - 1, 2 * i)
        union(perm(2 * i - 1), perm(2 * i))
    sizes: dict[int, int] = {}
    for v in range(1, deg + 1):
        r = find(v)
        sizes[r] = sizes.get(r, 0) + 1
    return partition(s // 2 for s in sizes.values())


# ---------------------------------------------------------------------------
# pair partitions and the hyperoctahedral group
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def pair_partitions(k: int) -> tuple[Permutation, ...]:
    """All (2k-1)!! pair partitions of {1..2k}, each as the permutation of its pairs.

    Pairs are sorted by first element and each pair increases, so sigma(1) = 1
    < sigma(3) < ... and sigma(2i - 1) < sigma(2i); the permutation lists the
    pairs in that order.
    """
    if k > 8:
        raise ValueError("pair_partitions capped at k <= 8")

    def gen(avail: tuple[int, ...]):
        if not avail:
            yield ()
            return
        a = avail[0]
        for idx in range(1, len(avail)):
            b = avail[idx]
            rest = avail[1:idx] + avail[idx + 1 :]
            for tail in gen(rest):
                yield ((a, b),) + tail

    return tuple(Permutation(sum(p, ())) for p in gen(tuple(range(1, 2 * k + 1))))


@lru_cache(maxsize=None)
def hyperoctahedral(k: int) -> tuple[Permutation, ...]:
    """The subgroup H_k < S_2k of order 2^k k!, by closure of its generators."""
    if k > 5:
        raise ValueError("hyperoctahedral capped at k <= 5")
    deg = 2 * k
    gens = [Permutation.from_cycles(deg, (2 * i - 1, 2 * i)) for i in range(1, k + 1)]
    gens += [
        Permutation.from_cycles(deg, (2 * i - 1, 2 * j - 1), (2 * i, 2 * j))
        for i in range(1, k + 1)
        for j in range(i + 1, k + 1)
    ]
    group = {Permutation.identity(deg)}
    frontier = list(group)
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = g * s
                if h not in group:
                    group.add(h)
                    nxt.append(h)
        frontier = nxt
    if len(group) != 2**k * math.factorial(k):
        raise ArithmeticError(f"generated {len(group)} elements, not 2^k k! for k = {k}")
    return tuple(sorted(group, key=lambda p: p.images))


# ---------------------------------------------------------------------------
# irreducible characters of S_k (Murnaghan-Nakayama on beta-numbers)
# ---------------------------------------------------------------------------


def _beta_numbers(lam: Partition, m: int) -> tuple[int, ...]:
    padded = lam + (0,) * (m - len(lam))
    return tuple(padded[i] + (m - 1 - i) for i in range(m))


def _partition_from_betas(betas: Iterable[int]) -> Partition:
    bs = sorted(betas, reverse=True)
    m = len(bs)
    return partition(bs[i] - (m - 1 - i) for i in range(m))


@lru_cache(maxsize=None)
def character(lam: Partition, mu: Partition) -> int:
    """chi^lambda(mu) for partitions of the same k (Murnaghan-Nakayama)."""
    if sum(lam) != sum(mu):
        raise UnequalWeightError(f"|{lam}| != |{mu}|")
    if sum(lam) > 12:
        raise ValueError("character capped at k <= 12")
    if not lam:
        return 1
    r = mu[0]
    rest = mu[1:]
    m = len(lam)
    betas = _beta_numbers(lam, m)
    beta_set = set(betas)
    total = 0
    for b in betas:
        nb = b - r
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for c in betas if nb < c < b)
        sub = _partition_from_betas([c for c in betas if c != b] + [nb])
        total += (-1) ** height * character(sub, rest)
    return total
