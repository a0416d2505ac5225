import itertools
import math
import random
from fractions import Fraction as F

import pytest

from selmat.combinat import (
    Permutation,
    UnequalWeightError,
    boxes,
    character,
    coset_type,
    cycle_type,
    format_partition,
    hyperoctahedral,
    pair_partitions,
    parse_partition,
    partition,
    partitions_of,
    zee,
)


def dominance_leq(mu, lam) -> bool:
    """mu <= lam in dominance order: partial sums of mu never exceed lam's."""
    if sum(mu) != sum(lam):
        raise UnequalWeightError(f"|{mu}| != |{lam}|")
    acc_m = acc_l = 0
    for i in range(max(len(mu), len(lam))):
        acc_m += mu[i] if i < len(mu) else 0
        acc_l += lam[i] if i < len(lam) else 0
        if acc_m > acc_l:
            return False
    return True


def monomial_count(mu, n):
    """m_mu(1^n): the distinct monomials of type mu in n variables, n!/((n-l)! prod_j m_j!)."""
    if n < len(mu):
        return 0
    mult = math.prod(math.factorial(mu.count(v)) for v in set(mu))
    return math.factorial(n) // (math.factorial(n - len(mu)) * mult)


def test_partitions_of_order():
    assert partitions_of(0) == ((),)
    assert partitions_of(2) == ((2,), (1, 1))
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_partitions_counts():
    # p(k) for k = 0..12
    want = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    for k, p in enumerate(want):
        assert len(partitions_of(k)) == p


def test_revlex_refines_dominance():
    for k in range(2, 9):
        parts = partitions_of(k)
        index = {lam: i for i, lam in enumerate(parts)}
        for mu in parts:
            for lam in parts:
                if mu != lam and dominance_leq(mu, lam):
                    assert index[mu] > index[lam]


def test_dominance_examples():
    assert dominance_leq((1, 1, 1), (3,))
    assert not dominance_leq((3,), (1, 1, 1))
    assert dominance_leq((2, 2), (3, 1))
    with pytest.raises(UnequalWeightError):
        dominance_leq((2,), (1, 1, 1))


def test_partition_serialization():
    assert format_partition((2, 1, 1)) == "2,1,1"
    assert format_partition(()) == "0"
    assert parse_partition("2,1,1") == (2, 1, 1)
    assert parse_partition("0") == ()


def test_cycle_type():
    assert cycle_type(Permutation.identity(4)) == (1, 1, 1, 1)
    assert cycle_type(Permutation.from_cycles(4, (1, 2), (3, 4))) == (2, 2)
    assert cycle_type(Permutation.from_cycles(4, (2, 4, 3))) == (3, 1)


def test_coset_type_examples():
    assert coset_type(Permutation.identity(4)) == (1, 1)
    assert coset_type(Permutation.from_cycles(4, (2, 3))) == (2,)
    assert coset_type(Permutation.from_cycles(4, (2, 4, 3))) == (2,)


def test_pair_partitions():
    assert len(pair_partitions(1)) == 1
    m4 = pair_partitions(2)
    assert {sigma.images for sigma in m4} == {
        (1, 2, 3, 4), (1, 3, 2, 4), (1, 4, 2, 3),
    }
    assert len(pair_partitions(3)) == 15
    for sigma in pair_partitions(3):
        pairs = list(zip(sigma.images[::2], sigma.images[1::2]))
        firsts = [a for a, _ in pairs]
        assert firsts == sorted(firsts) and firsts[0] == 1
        assert all(a < b for a, b in pairs)


def test_hyperoctahedral_sizes_and_k2_elements():
    assert {p.images for p in hyperoctahedral(1)} == {(1, 2), (2, 1)}
    h2 = {p.images for p in hyperoctahedral(2)}
    want = {
        (1, 2, 3, 4), (2, 1, 3, 4), (1, 2, 4, 3), (2, 1, 4, 3),
        (3, 4, 1, 2), (4, 3, 2, 1), (3, 4, 2, 1), (4, 3, 1, 2),
    }
    assert h2 == want
    assert len(hyperoctahedral(3)) == 48


def test_coset_type_double_coset_invariance():
    h2 = hyperoctahedral(2)
    for images in itertools.permutations((1, 2, 3, 4)):
        s = Permutation(images)
        ct = coset_type(s)
        for z1 in h2:
            for z2 in h2:
                assert coset_type(z1 * s * z2) == ct
    rng = random.Random(5)
    h3 = hyperoctahedral(3)
    for _ in range(50):
        imgs = list(range(1, 7))
        rng.shuffle(imgs)
        s = Permutation(tuple(imgs))
        ct = coset_type(s)
        z1, z2 = rng.choice(h3), rng.choice(h3)
        assert coset_type(z1 * s * z2) == ct


def test_double_coset_class_sizes_k2():
    sizes = {}
    for images in itertools.permutations((1, 2, 3, 4)):
        ct = coset_type(Permutation(images))
        sizes[ct] = sizes.get(ct, 0) + 1
    assert sizes == {(1, 1): 8, (2,): 16}  # partition of |S_4| = 24


S2_TABLE = {(2,): {(1, 1): 1, (2,): 1}, (1, 1): {(1, 1): 1, (2,): -1}}
S3_TABLE = {
    (3,): {(1, 1, 1): 1, (2, 1): 1, (3,): 1},
    (2, 1): {(1, 1, 1): 2, (2, 1): 0, (3,): -1},
    (1, 1, 1): {(1, 1, 1): 1, (2, 1): -1, (3,): 1},
}
S4_TABLE = {
    (4,): {(1, 1, 1, 1): 1, (2, 1, 1): 1, (2, 2): 1, (3, 1): 1, (4,): 1},
    (3, 1): {(1, 1, 1, 1): 3, (2, 1, 1): 1, (2, 2): -1, (3, 1): 0, (4,): -1},
    (2, 2): {(1, 1, 1, 1): 2, (2, 1, 1): 0, (2, 2): 2, (3, 1): -1, (4,): 0},
    (2, 1, 1): {(1, 1, 1, 1): 3, (2, 1, 1): -1, (2, 2): -1, (3, 1): 0, (4,): 1},
    (1, 1, 1, 1): {(1, 1, 1, 1): 1, (2, 1, 1): -1, (2, 2): 1, (3, 1): 1, (4,): -1},
}


@pytest.mark.parametrize("table", [S2_TABLE, S3_TABLE, S4_TABLE])
def test_character_tables(table):
    for lam, row in table.items():
        for mu, val in row.items():
            assert character(lam, mu) == val


def test_character_trivial_rep():
    for k in range(1, 7):
        for mu in partitions_of(k):
            assert character((k,), mu) == 1


def test_character_dimension_sum():
    for k in range(1, 9):
        assert sum(character(l, (1,) * k) ** 2 for l in partitions_of(k)) == math.factorial(k)


def test_character_table_orthogonality():
    # row orthogonality: sum_mu (k!/z_mu) chi^lam(mu) chi^lam2(mu) = k! delta
    for k in (2, 3, 4, 5):
        parts = partitions_of(k)
        fact = math.factorial(k)
        for lam in parts:
            for lam2 in parts:
                s = sum(
                    F(fact, zee(mu)) * character(lam, mu) * character(lam2, mu)
                    for mu in parts
                )
                assert s == (fact if lam == lam2 else 0), (lam, lam2)


def test_zee():
    assert zee((1, 1, 1)) == 6
    assert zee((2, 1)) == 2
    assert zee((3,)) == 3
    assert zee(()) == 1


def test_monomial_principal_examples():
    assert monomial_count((1, 1), 3) == 3
    assert monomial_count((2, 1), 3) == 6
    assert monomial_count((2,), 1) == 1
    assert monomial_count((1, 1), 1) == 0


def brute_monomial_count(lam, n):
    padded = tuple(lam) + (0,) * (n - len(lam))
    return len(set(itertools.permutations(padded)))


def test_monomial_principal_vs_enumeration():
    for n in range(1, 7):
        for d in range(1, 5):
            for lam in partitions_of(d):
                if len(lam) <= n:
                    assert monomial_count(lam, n) == brute_monomial_count(lam, n)
                else:
                    assert monomial_count(lam, n) == 0


def test_boxes_arms_and_legs():
    assert boxes(()) == []
    assert boxes((3, 1)) == [(0, 0, 2, 1), (0, 1, 1, 0), (0, 2, 0, 0), (1, 0, 0, 0)]
    for d in range(1, 9):
        for lam in partitions_of(d):
            got = boxes(lam)
            assert [(i, j) for i, j, _, _ in got] == [(i, j) for i, p in enumerate(lam) for j in range(p)]
            # hook length formula: f^lambda = chi^lambda(1^d) = d! / prod (arm + leg + 1)
            hooks = math.prod(arm + leg + 1 for _, _, arm, leg in got)
            assert hooks * character(lam, (1,) * d) == math.factorial(d), lam
            # the conjugate diagram swaps rows with columns and arms with legs
            conj = partition(sum(1 for p in lam if p > j) for j in range(lam[0]))
            assert sorted((j, i, leg, arm) for i, j, arm, leg in got) == boxes(conj), lam


def test_permutation_algebra():
    a = Permutation.from_cycles(5, (1, 2, 3))
    b = Permutation.from_cycles(5, (3, 4))
    assert (a * b).images == tuple(a(b(i)) for i in range(1, 6))
    assert (a * a.inverse()).images == Permutation.identity(5).images
