import itertools
import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from selmat.combinat import partitions_of
from selmat.exact import to_float
from selmat.jack import kadell_ratio
from selmat import moments, oracle
from selmat.moments import (
    ENSEMBLES,
    PAYLOAD_POWERS,
    ensemble,
    ensemble_moments,
    full_matrix_moment_ratio,
    shifted_moment_ratio,
    trace_moments,
)
from selmat.oracle import (
    QuadratureSpec,
    UnsupportedDimensionError,
    ball_moment_estimate,
    eval_monomial,
    haar_moment_estimate,
    loggas_moment_estimate,
    quadrature,
    rejection_sample_ball,
)
from selmat.selberg import SelbergParams, aomoto_general_ratio, aomoto_ratio, selberg_I0
from selmat.verify import QUAD_POINTS, QUAD_RTOL
from selmat.weingarten import (
    conj_invariant_moment_orthogonal,
    conj_invariant_moment_unitary,
    haar_moment_orthogonal,
    haar_moment_unitary,
    negcorr_report,
)


def test_eval_monomial():
    pts = np.array([[0.5, 2.0], [1.0, 3.0]])
    assert eval_monomial((2,), pts) == pytest.approx([0.25 + 4.0, 1.0 + 9.0])
    assert eval_monomial((1, 1), pts) == pytest.approx([1.0, 3.0])
    assert eval_monomial((2, 1), pts) == pytest.approx([0.5 + 2.0, 3.0 + 9.0])
    assert eval_monomial((1, 1, 1), pts) == pytest.approx([0.0, 0.0])


def test_quadrature_selberg_basics():
    val, err = quadrature(QuadratureSpec("selberg", 2, ("one",), (1, 1, F(1)), 32))
    assert val == pytest.approx(1 / 6, abs=1e-12)
    val, _ = quadrature(QuadratureSpec("selberg", 2, ("one",), (1, 1, F(1, 2)), 32))
    assert val == pytest.approx(1 / 3, abs=1e-10)


def test_quadrature_kadell_case():
    # lambda = (1,1), n = 2, kappa = 1: ratio 1/6
    base, _ = quadrature(QuadratureSpec("selberg", 2, ("one",), (1, 1, F(1)), 32))
    num, _ = quadrature(QuadratureSpec("selberg", 2, ("monomial", (1, 1)), (1, 1, F(1)), 32))
    assert num / base == pytest.approx(1 / 6, abs=1e-11)
    assert kadell_ratio((1, 1), 2, 1, 1, F(1)) == F(1, 6)


def test_quadrature_half_integer_weights():
    # sqrt weights via the trig substitution keep spectral accuracy
    p = SelbergParams(3, F(3, 2), F(3, 2), F(1, 2))
    exact = to_float(selberg_I0(p)).value
    val, err = quadrature(QuadratureSpec("selberg", 3, ("one",), (F(3, 2), F(3, 2), F(1, 2)), 32))
    assert val == pytest.approx(exact, rel=1e-10)


def test_quadrature_aomoto_payload():
    p = SelbergParams(3, F(2), F(3, 2), F(2))
    base, _ = quadrature(QuadratureSpec("selberg", 3, ("one",), (2, F(3, 2), F(2)), 32))
    val, _ = quadrature(QuadratureSpec("selberg", 3, ("aomoto", (1, 1, 1)), (2, F(3, 2), F(2)), 32))
    assert val / base == pytest.approx(float(aomoto_general_ratio(p, 1, 1, 1)), abs=1e-10)
    val, _ = quadrature(QuadratureSpec("selberg", 3, ("elementary", 2), (2, F(3, 2), F(2)), 32))
    assert val / base == pytest.approx(float(aomoto_ratio(p, 2)), abs=1e-10)


def test_quadrature_loggas_matches_engine():
    # the log-gas rides the Selberg rule: (1, b, 0) under x = 2t - 1 and
    # (2, b, c) under t = x^2; base, ratios and a non-symmetric payload all check the map
    for name, n in itertools.product(sorted(ENSEMBLES), (2, 3)):
        spec = ensemble(name)
        abc = (spec.a, spec.b, spec.c)
        r = ensemble_moments(spec, n, "forced")
        quad = lambda desc: quadrature(QuadratureSpec("loggas", n, desc, abc, 36))[0]
        base = quad(("one",))
        # u = (c + 1)/a: 1 for (1, b, 0), (c + 1)/2 for (2, b, c)
        want = selberg_I0(SelbergParams(n, F(spec.c + 1, spec.a), 1, F(spec.b, 2)))
        if spec.a == 1:  # dx = 2^n dt and |Delta(x)|^b = 2^(b n(n-1)/2) |Delta(t)|^b
            want *= 2 ** (n + spec.b * n * (n - 1) // 2)
        assert base == pytest.approx(to_float(want).value, rel=1e-10), (name, n)
        ratios = {
            ("monomial", (2,)): n * r.M2,
            ("monomial", (4,)): n * r.M4,
            ("monomial", (2, 2)): n * (n - 1) * r.M22 / 2,
        }
        if spec.a == 1:
            # (x_1 - 1/2)^2 singles out x_1: an odd b needs the sector payload symmetrised
            ratios[("shifted", "x2")] = r.M2 + F(1, 4)
        for desc, want in ratios.items():
            assert quad(desc) / base == pytest.approx(float(want), abs=1e-10), (name, n, desc)


@pytest.mark.parametrize("n", [2, 3])
def test_payload_moments_match_quadrature(n):
    # each PAYLOAD_POWERS entry: its exact expansion against the quadrature of its own
    # product of (t_i - 1/2)^e_i, at C1's resolution and relative bound
    cases = [(kap, name) for kap in (F(1, 2), F(1), F(2)) for name in PAYLOAD_POWERS]
    specs = [QuadratureSpec("selberg", n, desc, (1, 1, kap), QUAD_POINTS)
             for kap, name in cases for desc in (("one",), ("shifted", name))]
    values = oracle.quadrature_values(specs)
    for (kap, name), base, value in zip(cases, values[::2], values[1::2]):
        exact = float(shifted_moment_ratio(name, n, kap))
        assert value / base == pytest.approx(exact, rel=QUAD_RTOL, abs=0), (name, kap)


def _power_sum_in_monomials(rho):
    """{mu: [m_mu] p_rho}: prod_k sum_i x_i^k multiplied out over len(rho) variables."""
    coefficients = {}
    for variables in itertools.product(range(len(rho)), repeat=len(rho)):
        exponents = [0] * len(rho)
        for k, i in zip(rho, variables):
            exponents[i] += k
        if exponents == sorted(exponents, reverse=True):  # the leading monomial x^mu of m_mu
            mu = tuple(e for e in exponents if e)
            coefficients[mu] = coefficients.get(mu, 0) + 1
    return coefficients


def test_power_sum_monomial_expansion_examples():
    assert _power_sum_in_monomials((1, 1)) == {(2,): 1, (1, 1): 2}
    assert _power_sum_in_monomials((2, 1, 1)) == {(4,): 1, (3, 1): 2, (2, 2): 2, (2, 1, 1): 2}


@pytest.mark.parametrize("n", [2, 3])
def test_power_sum_moments_match_quadrature(n):
    # every E[p_rho(x)] with |rho| <= 4 of each ball's spectral variable (even parts on
    # the full balls) against the log-gas quadrature of p_rho written over monomials
    # above: no Jack polynomial and no merge count in the oracle
    cases, specs = [], []
    for name in sorted(ENSEMBLES):
        spec = ensemble(name)
        abc = (spec.a, spec.b, spec.c)
        base = len(specs)
        specs.append(QuadratureSpec("loggas", n, ("one",), abc, 40))
        for rho in (rho for d in range(1, 5) for rho in partitions_of(d)):
            if spec.a == 2 and any(k % 2 for k in rho):
                continue
            payload = ("sympoly", tuple(sorted(_power_sum_in_monomials(rho).items())))
            cases.append((name, rho, base, len(specs)))
            specs.append(QuadratureSpec("loggas", n, payload, abc, 40))
    values = oracle.quadrature_values(specs)
    assert len(cases) == 42
    for name, rho, base, at in cases:
        spec = ensemble(name)
        exact = moments._power_moment(rho, n, moments._monomial_ratios(n, spec.weight), spec.a)
        got = values[at] / values[base]
        assert got == pytest.approx(float(exact), rel=QUAD_RTOL, abs=1e-13), (name, rho)


def test_quadrature_error_estimate_covers_truth():
    # at coarse resolution the two-level estimate should bound the true error
    cases = 0
    covered = 0
    for n in (2, 3):
        for kap in (F(1, 2), F(1), F(2)):
            for u in (F(1), F(3, 2)):
                p = SelbergParams(n, u, 1, kap)
                exact = to_float(selberg_I0(p)).value
                val, est = quadrature(QuadratureSpec("selberg", n, ("one",), (u, 1, kap), 12))
                cases += 1
                covered += abs(val - exact) <= est + 1e-14
    assert covered / cases >= 0.95


def test_quadrature_n4():
    p = SelbergParams(4, 1, 1, F(1))
    exact = to_float(selberg_I0(p)).value
    val, _ = quadrature(QuadratureSpec("selberg", 4, ("one",), (1, 1, F(1)), 20))
    assert val == pytest.approx(exact, rel=1e-9)
    # odd interaction exponent at n = 4 exercises the 4-dimensional sector map
    p = SelbergParams(4, 1, 1, F(1, 2))
    exact = to_float(selberg_I0(p)).value
    val, _ = quadrature(QuadratureSpec("selberg", 4, ("one",), (1, 1, F(1, 2)), 16))
    assert val == pytest.approx(exact, rel=1e-7)


def test_quadrature_loggas_beta4():
    r = ensemble_moments(ensemble("quaternion"), 2, "forced")
    base, _ = quadrature(QuadratureSpec("loggas", 2, ("one",), (1, 4, 0), 36))
    m4, _ = quadrature(QuadratureSpec("loggas", 2, ("monomial", (4,)), (1, 4, 0), 36))
    assert m4 / base / 2 == pytest.approx(float(r.M4), abs=1e-10)


def test_quadrature_dimension_cap():
    with pytest.raises(UnsupportedDimensionError):
        QuadratureSpec("selberg", 5, ("one",), (1, 1, 1), 16)


def test_quadrature_node_cap():
    # 200^4 nodes would need ~51 GB for the mesh alone; the spec refuses it unbuilt
    QuadratureSpec("selberg", 4, ("one",), (1, 1, 1), 40)
    QuadratureSpec("selberg", 2, ("one",), (1, 1, 1), 2**11)
    for n, p in ((4, 200), (2, 2**11 + 1), (3, 162)):
        with pytest.raises(UnsupportedDimensionError, match="nodes"):
            QuadratureSpec("loggas", n, ("one",), (1, 2, 0), p)


def test_node_set_built_once_and_read_only():
    # every payload and weight at one (n, points, sector, trig) shares the fine and coarse nodes
    oracle._node_set.cache_clear()
    descs = (("one",), ("elementary", 1), ("aomoto", (1, 1, 0)), ("monomial", (2,)))
    for desc, params in itertools.product(descs, ((F(3, 2), 1, F(1, 2)), (F(1, 2), 2, F(3, 2)))):
        quadrature(QuadratureSpec("selberg", 3, desc, params, 16))
    info = oracle._node_set.cache_info()
    assert (info.misses, info.hits) == (2, 14)
    pts, ax, wt, jac = oracle._node_set(3, 16, True, True)
    assert pts.shape == ax.shape == (16**3, 3) and wt.shape == jac.shape == (16**3,)
    for arr in (pts, ax, wt, jac, *oracle._node_set(3, 16, False, False)[:3]):
        with pytest.raises(ValueError):
            arr[0] = 0.0


# two weights in each (sector, trig) class: off the sector, then on it; without, then with trig
MIXED_WEIGHTS = [
    (1, 2, F(1)), (2, 1, F(2)), (F(3, 2), 1, F(1)), (F(1, 2), 2, F(2)),
    (1, 1, F(1, 2)), (2, 1, F(3, 2)), (F(3, 2), F(3, 2), F(1, 2)), (1, F(1, 2), F(3, 2)),
]
SYMMETRIC_PAYLOADS = [("one",), ("monomial", (2,)), ("monomial", (2, 1)), ("elementary", 2),
                      ("sympoly", (((2,), "1"), ((1, 1), "-2/3")))]


def mixed_batch():
    """Selberg specs of every node-set class at n = 2, 3 and log-gas specs at a = 1, 2."""
    odd = [("aomoto", (1, 1, 0)), ("shifted", "x1x1")]
    specs = [QuadratureSpec("selberg", n, d, params, 12)
             for n in (2, 3) for params in MIXED_WEIGHTS for d in SYMMETRIC_PAYLOADS + odd]
    # (1, 2, 0) and (2, 2, 1) reduce to (1, 1, 1), on the nodes of the first Selberg weights:
    # one payload there under three maps
    loggas = ((1, 1, 0), (1, 2, 0), (1, 4, 0), (2, 1, 0), (2, 2, 1))
    for n, abc in itertools.product((2, 3), loggas):
        descs = [("one",), ("monomial", (2,)), ("monomial", (2, 2)), ("monomial", (4,))]
        descs += odd + [("elementary", 1)] if abc[0] == 1 else []
        specs += [QuadratureSpec("loggas", n, d, abc, 12) for d in descs]
    return specs + [QuadratureSpec("selberg", 3, ("monomial", (2, 1)), (1, 1, F(1, 2)), 9)]


def test_quadrature_values_equal_one_spec_calls():
    # a batch shares nodes, payload values and weight factors, yet changes no bit of any value
    specs = mixed_batch()
    classes = {oracle.node_key(s)[2:] for s in specs}  # (sector, trig)
    assert classes == set(itertools.product((False, True), repeat=2))
    values = oracle.quadrature_values(specs)
    for spec, value in zip(specs, values):
        assert value == quadrature(spec)[0], spec


def test_quadrature_values_evaluates_each_payload_once_per_node_set(monkeypatch):
    # each payload is resolved and evaluated once per node set, however many specs share it
    specs = [QuadratureSpec("selberg", n, d, params, 12)
             for n in (2, 3) for params in MIXED_WEIGHTS for d in SYMMETRIC_PAYLOADS]
    evaluations = []
    resolve = oracle._on_t
    monkeypatch.setattr(oracle, "_on_t", lambda spec: lambda t, f=resolve(spec): evaluations.append(f) or f(t))
    oracle.quadrature_values(specs)
    node_sets = {oracle.node_key(s) for s in specs}
    assert len(node_sets) == 8 and len(specs) == 16 * len(SYMMETRIC_PAYLOADS)
    assert len(evaluations) == len(node_sets) * len(SYMMETRIC_PAYLOADS)


def test_quadrature_spec_holds_no_function():
    # a spec keeps its payload's descriptor; quadrature_values resolves it per group;
    # it has no __dict__, so every attribute it holds is one of its declared slots
    for spec in mixed_batch():
        assert not hasattr(spec, "__dict__")
        held = {name: getattr(spec, name) for name in type(spec).__slots__}
        assert not [name for name, value in held.items() if callable(value)], spec


@pytest.mark.parametrize("c", [-1, 0, 1, 2])
@pytest.mark.parametrize("a", [0, 1, 2, 3])
def test_loggas_quadrature_and_sampler_accept_the_same_a_c(a, c):
    def outcome(run):
        try:
            run()
        except ValueError as exc:
            return str(exc)
        return None

    quad = outcome(lambda: quadrature(QuadratureSpec("loggas", 2, ("one",), (a, 2, c), 8)))
    sample = outcome(lambda: loggas_moment_estimate(a, 2, c, 2, {"s": "sum_sq"}, 100, seed=1))
    assert quad == sample
    assert (quad is None) == ((a, c) == (1, 0) or (a == 2 and c >= 0))


def test_quadrature_unknown_kind():
    with pytest.raises(ValueError, match="unknown quadrature kind"):
        QuadratureSpec("gauss", 2, ("one",), (1, 1, 1), 16)


def test_quadrature_points_floor():
    with pytest.raises(ValueError):
        QuadratureSpec("selberg", 2, ("one",), (1, 1, 1), 4)


def test_rejection_n1_uniform():
    est = ball_moment_estimate(
        "hermitian", 1, {"T2": lambda T: (T[:, 0, 0] ** 2).real}, 60_000, seed=5
    )
    e = est["T2"]
    assert abs(e.mean - 1 / 3) <= 4 * e.stderr


SELF_ADJOINT_MOMENTS = {
    # name: (payload on T, conj_invariant_moment_unitary indices, _orthogonal indices)
    "T11T22": (lambda T: (T[:, 0, 0] * T[:, 1, 1]).real, ((1, 2), (1, 2)), (1, 1, 2, 2)),
    "absT12sq": (lambda T: np.abs(T[:, 0, 1]) ** 2, ((1, 2), (2, 1)), (1, 2, 1, 2)),
    "T11sq": (lambda T: (T[:, 0, 0] ** 2).real, ((1, 1), (1, 1)), (1, 1, 1, 1)),
}
# the last row is drawn last; by permutation invariance its moments equal the first row's
LAST_ROW_MOMENTS = {
    "TnnSq": (lambda T: (T[:, -1, -1] ** 2).real, "T11sq"),
    "Tn1n1Tnn": (lambda T: (T[:, -2, -2] * T[:, -1, -1]).real, "T11T22"),
    "absT1nSq": (lambda T: np.abs(T[:, 0, -1]) ** 2, "absT12sq"),
}


def _self_adjoint_exact(kind, n):
    """{name: exact forced-convention value} of SELF_ADJOINT_MOMENTS."""
    tm = trace_moments(ensemble(kind), n, "forced")
    if kind == "hermitian":
        return {
            name: float(conj_invariant_moment_unitary(*u_idx, tm, n))
            for name, (_, u_idx, _) in SELF_ADJOINT_MOMENTS.items()
        }
    return {
        name: float(conj_invariant_moment_orthogonal(o_idx, tm, n))
        for name, (_, _, o_idx) in SELF_ADJOINT_MOMENTS.items()
    }


FULL_MOMENTS = {
    # name: (payload on T, negcorr_report key); the second half reads the last row
    "absT11sq": (lambda T: np.abs(T[:, 0, 0]) ** 2, "second_moment"),
    "cross": (lambda T: np.abs(T[:, 0, 0] * T[:, 1, 1]) ** 2, "cross"),
    "sameRow": (lambda T: np.abs(T[:, 0, 0] * T[:, 0, 1]) ** 2, "same_row"),
    "absTnnSq": (lambda T: np.abs(T[:, -1, -1]) ** 2, "second_moment"),
    "crossLast": (lambda T: np.abs(T[:, -1, -1] * T[:, -2, -2]) ** 2, "cross"),
    "sameRowLast": (lambda T: np.abs(T[:, -1, -1] * T[:, -1, -2]) ** 2, "same_row"),
}


def _full_exact(kind, n):
    """{negcorr_report key: exact value}: E|T_11|^2, the cross and the same-row product."""
    rep = negcorr_report("c" if kind == "full-complex" else "r", n)
    return {key: float(rep[key]) for key in ("second_moment", "cross", "same_row")}


@pytest.mark.parametrize(
    "kind,n,count",
    [
        ("hermitian", 2, 80_000),
        ("hermitian", 3, 80_000),
        ("hermitian", 4, 80_000),
        ("symmetric", 2, 80_000),
        ("symmetric", 3, 80_000),
        ("symmetric", 4, 20_000),
        ("full-real", 2, 80_000),
        ("full-real", 3, 80_000),
        ("full-real", 4, 80_000),
        ("full-real", 10, 20_000),
        ("full-real", 32, 2000),
        ("full-complex", 2, 80_000),
        ("full-complex", 3, 80_000),
        ("full-complex", 4, 80_000),
        ("full-complex", 10, 20_000),
        ("full-complex", 32, 2000),
    ],
)
def test_rejection_moments_match_exact_engine(kind, n, count):
    # every sampler is exactly uniform: second moments of the entries, first row
    # and last row, agree with the exact engine's forced convention
    if kind in ("hermitian", "symmetric"):
        exact = _self_adjoint_exact(kind, n)
        fns = {name: f for name, (f, _, _) in SELF_ADJOINT_MOMENTS.items()}
        want = dict(exact)
        for name, (f, same_as) in LAST_ROW_MOMENTS.items():
            fns[name] = f
            want[name] = exact[same_as]
    else:
        exact = _full_exact(kind, n)
        fns = {name: f for name, (f, _) in FULL_MOMENTS.items()}
        want = {name: exact[key] for name, (_, key) in FULL_MOMENTS.items()}
    est = ball_moment_estimate(kind, n, fns, count, seed=9)
    for name, e in est.items():
        assert e.n_samples == count
        assert abs(e.mean - want[name]) <= 4 * e.stderr, (name, e.mean, want[name], e.stderr)


@pytest.mark.parametrize("kind,n", [("hermitian", 3), ("hermitian", 4), ("symmetric", 3), ("symmetric", 4)])
def test_sequential_stage_uniform_position_by_position(kind, n):
    # the stage is uniform position by position: every diagonal square, every
    # diagonal product and every off-diagonal square matches the exact value,
    # so an error in any row shows at its own position
    T = oracle._sequential_self_adjoint(kind, n, np.random.default_rng(17), 100_000)
    assert np.array_equal(T, np.conj(T.transpose(0, 2, 1)))
    assert np.abs(np.linalg.eigvalsh(T)).max() <= 1.0 + 1e-12
    exact = _self_adjoint_exact(kind, n)
    cases = [((T[:, i, i] ** 2).real, "T11sq", (i, i)) for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        cases.append(((T[:, i, i] * T[:, j, j]).real, "T11T22", (i, j)))
        cases.append((np.abs(T[:, i, j]) ** 2, "absT12sq", (i, j)))
    for vals, name, pos in cases:
        se = vals.std() / math.sqrt(len(vals))
        assert abs(vals.mean() - exact[name]) <= 4 * se, (name, pos, vals.mean(), exact[name], se)


@pytest.mark.parametrize("kind,n", [("full-real", 3), ("full-real", 4), ("full-complex", 3), ("full-complex", 4)])
def test_row_by_row_stage_uniform_position_by_position(kind, n):
    # the full-ball stage, as the sampler yields it: every entry's |T_ij|^2, a
    # same-row product in every row and a cross product for every pair of rows
    # match the exact values
    T = oracle._haar_block(kind, n, np.random.default_rng(17), 100_000)
    assert np.linalg.norm(T, ord=2, axis=(1, 2)).max() <= 1.0 + 1e-12
    exact = _full_exact(kind, n)
    sq = np.abs(T) ** 2
    cases = [(sq[:, i, j], "second_moment", (i, j)) for i in range(n) for j in range(n)]
    cases += [(sq[:, i, 0] * sq[:, i, 1], "same_row", (i,)) for i in range(n)]
    for i, l in itertools.combinations(range(n), 2):
        cases.append((sq[:, i, 0] * sq[:, l, 1], "cross", (i, l)))
    for vals, name, pos in cases:
        se = vals.std() / math.sqrt(len(vals))
        assert abs(vals.mean() - exact[name]) <= 4 * se, (name, pos, vals.mean(), exact[name], se)


def _box_reference(kind, n, count, seed):
    """count draws uniform on the operator-norm ball, by rejection from its bounding box.

    Every free real coordinate is uniform on [-1, 1]: all entries of a full
    matrix, the diagonal and upper triangle of a self-adjoint one.  A draw is
    kept iff the largest eigenvalue of T*T, its squared spectral norm, is at most 1.
    """
    rng = np.random.default_rng(seed)
    kept, got = [], 0
    while got < count:
        T = rng.uniform(-1, 1, (200_000, n, n))
        if kind in ("hermitian", "full-complex"):
            T = T + 1j * rng.uniform(-1, 1, (200_000, n, n))
        if kind in ("hermitian", "symmetric"):
            T = np.triu(T, 1) + np.conj(np.triu(T, 1).transpose(0, 2, 1)) + np.eye(n) * T.real
        T = T[np.linalg.eigvalsh(np.conj(T.transpose(0, 2, 1)) @ T)[:, -1] <= 1.0]
        kept.append(T)
        got += len(T)
    return np.concatenate(kept)[:count]


TWO_SAMPLE_STATS = {
    "absT11sq": lambda T: np.abs(T[:, 0, 0]) ** 2,
    "absT11quartic": lambda T: np.abs(T[:, 0, 0]) ** 4,
    "absT12sq": lambda T: np.abs(T[:, 0, 1]) ** 2,
    "T11T22": lambda T: (T[:, 0, 0] * np.conj(T[:, 1, 1])).real,
    "cross": lambda T: np.abs(T[:, 0, 0] * T[:, 1, 1]) ** 2,
    "sameRow": lambda T: np.abs(T[:, 0, 0] * T[:, 0, 1]) ** 2,
    "normSq": lambda T: np.linalg.norm(T, ord=2, axis=(1, 2)) ** 2,
    "absDetSq": lambda T: np.abs(np.linalg.det(T)) ** 2,
}


@pytest.mark.parametrize("kind", ["hermitian", "symmetric", "full-real", "full-complex"])
def test_sampler_agrees_with_box_reference_n2(kind):
    # two samples, one from each sampler: every statistic, moments of entries as
    # well as of the norm and the determinant, agrees within 4 joint stderrs
    count = 40_000
    ref = _box_reference(kind, 2, count, seed=31)
    got = np.concatenate([T for T, _ in rejection_sample_ball(kind, 2, count, seed=32)])
    _assert_same_means(got, ref, TWO_SAMPLE_STATS)


def _assert_same_means(got, ref, stats):
    """Every statistic's two sample means agree within 4 joint stderrs."""
    assert len(got) == len(ref)
    for name, f in stats.items():
        a, b = f(got), f(ref)
        se = math.hypot(a.std(), b.std()) / math.sqrt(len(a))
        assert abs(a.mean() - b.mean()) <= 4 * se, (name, a.mean(), b.mean(), se)


def _matrix_beta_reference(kind, n, count, seed):
    """count draws uniform on the self-adjoint ball, as 2 W W* - I with W a block of a Haar frame.

    W is the leading n x k block of n orthonormal rows in F^N, the frame
    L^-1 G of an n x N Gaussian G with L L* = G G*.  Then W W* is a matrix Beta
    with equal parameters beta k / 2 = beta (N - k) / 2 = beta (n - 1) / 2 + 1,
    whose density is constant (Olkin and Rubin 1964; Muirhead 1982, Thm 3.3.1):
    k = n, N = 2n for hermitian and k = n + 1, N = 2n + 2 for symmetric.
    """
    k, N = (n, 2 * n) if kind == "hermitian" else (n + 1, 2 * n + 2)
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((count, n, N))
    if kind == "hermitian":
        G = G + 1j * rng.standard_normal((count, n, N))
    W = np.linalg.solve(np.linalg.cholesky(G @ np.conj(G.transpose(0, 2, 1))), G[:, :, :k])
    return 2.0 * (W @ np.conj(W.transpose(0, 2, 1))) - np.eye(n)


@pytest.mark.parametrize("kind", ["hermitian", "symmetric"])
def test_sampler_agrees_with_matrix_beta_reference_n6(kind):
    # at n = 6, where box rejection keeps next to nothing, the bordered sampler
    # agrees in law with an unrelated construction on every statistic
    count, n = 40_000, 6
    ref = _matrix_beta_reference(kind, n, count, seed=33)
    got = np.concatenate([T for T, _ in rejection_sample_ball(kind, n, count, seed=34)])
    assert len(got) == count
    stats = dict(TWO_SAMPLE_STATS)
    stats["absTnnSq"] = lambda T: np.abs(T[:, -1, -1]) ** 2
    stats["traceSq"] = lambda T: np.trace(T, axis1=1, axis2=2).real ** 2
    _assert_same_means(got, ref, stats)


@pytest.mark.parametrize("kind", ["hermitian", "symmetric"])
def test_sequential_stage_matches_dense_reference(kind):
    # the same random draws, pushed through dense per-matrix Cholesky and solves
    # for p and q, in place of the m-vector identities p + q = 2|y|^2 and
    # p - q = 2 b*A (I - A^2)^-1 b, on blocks up to 5 x 5
    m, beta = 200, 2 if kind == "hermitian" else 1
    for n in (2, 4, 6):
        got = oracle._sequential_self_adjoint(kind, n, np.random.default_rng(5), m)
        rng = np.random.default_rng(5)
        s = (n - 1) * beta / 2
        want = np.zeros((m, n, n), dtype=got.dtype)
        want[:, 0, 0] = 2.0 * rng.beta(s + 1, s + 1, m) - 1.0
        for k in range(1, n):
            s = (n - k - 1) * beta / 2
            g = rng.standard_normal((k, m))
            if beta == 2:
                g = g + 1j * rng.standard_normal((k, m))
            r2 = rng.beta(beta * k / 2, 2 * s + 2, m)
            u = rng.random(m) if s == 0 else rng.beta(s + 1, s + 1, m)
            for t in range(m):
                A, I = want[t, :k, :k], np.eye(k)
                y = g[:, t] * math.sqrt(r2[t]) / np.linalg.norm(g[:, t])
                b = np.linalg.cholesky(I - A @ A) @ y
                p = (b.conj() @ np.linalg.solve(I - A, b)).real
                q = (b.conj() @ np.linalg.solve(I + A, b)).real
                want[t, :k, k], want[t, k, :k] = b, b.conj()
                want[t, k, k] = q - 1.0 + (2.0 - p - q) * u[t]
        assert np.allclose(got, want, rtol=0, atol=1e-9), n


@pytest.mark.parametrize("kind", ["hermitian", "symmetric"])
def test_sequential_stage_n1_is_one_diagonal_entry(kind):
    got = oracle._sequential_self_adjoint(kind, 1, np.random.default_rng(5), 7)
    assert got.shape == (7, 1, 1)
    assert np.array_equal(got[:, 0, 0], 2.0 * np.random.default_rng(5).random(7) - 1.0)


def _recording(f, seen):
    def g(*args):
        out = f(*args)
        seen.append(np.array(out, dtype=float))
        return out

    return g


def _assert_streamed_matches_whole_sample(estimates, seen):
    # the chunk-by-chunk merge gives the mean and std(ddof=1)/sqrt(N) of every
    # value held at once
    for name, e in estimates.items():
        values = np.concatenate(seen[name])
        assert e.n_samples == len(values), name
        assert e.mean == pytest.approx(float(values.mean()), rel=1e-12, abs=0), name
        want = float(values.std(ddof=1) / math.sqrt(len(values)))
        assert e.stderr == pytest.approx(want, rel=1e-12, abs=0), name


def test_ball_stream_matches_whole_sample():
    # 100 003 draws is not a multiple of the 7281-draw chunk, so the last chunk is short
    fns = {name: f for name, (f, _, _) in SELF_ADJOINT_MOMENTS.items()}
    seen = {name: [] for name in fns}
    est = ball_moment_estimate(
        "hermitian", 3, {name: _recording(f, seen[name]) for name, f in fns.items()}, 100_003, seed=4
    )
    _assert_streamed_matches_whole_sample(est, seen)


@pytest.mark.parametrize("kind,off", [("symmetric", "T12sq"), ("hermitian", "absT12sq")])
def test_ball_second_moments_average_every_position(kind, off):
    # each payload is one value per matrix: its entry's mean over the n diagonal
    # positions or over the n(n-1)/2 pairs i < j
    rng = np.random.default_rng(7)
    T = rng.standard_normal((5, 3, 3))
    if kind == "hermitian":
        T = T + 1j * rng.standard_normal((5, 3, 3))
    pairs = ((0, 1), (0, 2), (1, 2))
    want = {
        "T11sq": sum(abs(T[:, i, i]) ** 2 for i in range(3)) / 3,
        off: sum(abs(T[:, i, j]) ** 2 for i, j in pairs) / 3,
        "T11T22": sum((T[:, i, i] * T[:, j, j]).real for i, j in pairs) / 3,
    }
    fns = oracle.ball_second_moments(kind)
    assert fns.keys() == want.keys()
    for name, f in fns.items():
        np.testing.assert_allclose(f(T), want[name], rtol=1e-14, atol=0, err_msg=name)


def test_loggas_stream_matches_whole_sample(monkeypatch):
    # 50 007 draws at n = 10 fill 7 chunks of 6553 and one short one
    seen = {name: [] for name in ("sum_sq", "cross_sq")}
    for name, values in seen.items():
        monkeypatch.setitem(oracle.LOGGAS_PAYLOADS, name, _recording(oracle.LOGGAS_PAYLOADS[name], values))
    res = loggas_moment_estimate(2, 2, 1, 10, {name: name for name in seen}, 50_007, 6)
    _assert_streamed_matches_whole_sample(res, seen)


def _dense_power_sums(a, b, c, n, count, seed):
    """(p2, p4) of each draw by the eigensolver route: dense B B^t, eigvalsh, power sums."""
    u, w, kappa = (float(x) for x in oracle._loggas_selberg_params(a, b, c))
    rng = np.random.default_rng(seed)  # the Beta draws of _beta_jacobi, in its order
    p, q = u / kappa - 1, w / kappa - 1
    i = np.arange(n, 0, -1)
    cos = np.sqrt(rng.beta(kappa * (p + i), kappa * (q + i), (count, n)))
    j = np.arange(n - 1, 0, -1)
    cos_p = np.sqrt(rng.beta(kappa * j, kappa * (p + q + 1 + j), (count, n - 1)))
    B = np.zeros((count, n, n))
    k = np.arange(n)
    B[:, k, k] = cos * np.concatenate([np.ones((count, 1)), np.sqrt(1 - cos_p**2)], axis=1)
    B[:, k[:-1], k[1:]] = -np.sqrt(1 - cos[:, :-1] ** 2) * cos_p
    t = np.linalg.eigvalsh(B @ B.transpose(0, 2, 1))
    x2 = (2 * t - 1) ** 2 if a == 1 else t  # x = 2t - 1, or x^2 = t
    return x2.sum(axis=1), (x2**2).sum(axis=1)


def test_loggas_traces_match_dense_eigenvalues(monkeypatch):
    # the payloads read p2 and p4 off traces of the Jacobi matrix; the eigenvalues of
    # the dense B B^t from the same Beta draws give the same power sums
    seen = {name: [] for name in ("sum_sq", "sum_quartic")}
    for name, values in seen.items():
        monkeypatch.setitem(oracle.LOGGAS_PAYLOADS, name, _recording(oracle.LOGGAS_PAYLOADS[name], values))
    for ens in sorted(ENSEMBLES):
        spec = ensemble(ens)
        for n in (1, 2, 3, 30):  # 7 draws fit in one chunk at every n here
            for values in seen.values():
                values.clear()
            loggas_moment_estimate(spec.a, spec.b, spec.c, n, {name: name for name in seen}, 7, 3)
            want = _dense_power_sums(spec.a, spec.b, spec.c, n, 7, 3)
            for (name, values), ref in zip(seen.items(), want):
                np.testing.assert_allclose(values[0], ref, rtol=1e-12, atol=0, err_msg=(ens, n, name))


@pytest.mark.parametrize("kind", ["hermitian", "symmetric", "full-real", "full-complex"])
def test_ball_second_moments_ignore_a_permutation(kind):
    # conjugating by a fixed permutation P maps the diagonal onto itself and, on a
    # self-adjoint T, the pairs i < j onto themselves up to |T_ij| = |T_ji|: every
    # payload keeps its value, so C10 never needed permuted draws.  On a full T, P
    # moves some T_ij below the diagonal and only the law of T12sq is invariant
    rng = np.random.default_rng(8)
    T = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
    if kind in ("hermitian", "symmetric"):
        T = T + np.conj(T.transpose(0, 2, 1))
    if kind in ("symmetric", "full-real"):
        T = T.real
    perm = np.array([2, 0, 3, 1])
    PTP = T[:, perm][:, :, perm]
    for name, f in oracle.ball_second_moments(kind).items():
        if name != "T12sq" or kind in ("hermitian", "symmetric"):
            np.testing.assert_allclose(f(PTP), f(T), rtol=1e-13, atol=0, err_msg=name)


def test_stream_stderr_ignores_a_large_offset():
    # a sum of squares minus N mean^2 would cancel T_11's spread away under the 1e8 offset
    t11 = lambda T: T[:, 0, 0].real
    est = ball_moment_estimate(
        "hermitian", 3, {"t": t11, "shifted": lambda T: 1e8 + t11(T)}, 20_000, seed=2
    )
    assert est["shifted"].stderr == pytest.approx(est["t"].stderr, rel=1e-6)


def _peak_growth(estimate):
    """tracemalloc's peak over estimate(400_000) less its peak over estimate(100_000)."""
    estimate(1_000)  # numpy's first-use allocations

    def peak(count):
        tracemalloc.start()
        try:
            estimate(count)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak(400_000) - peak(100_000)


def test_ball_moment_estimate_memory_is_flat_in_count():
    # the estimator keeps three numbers per payload, not every draw: 4x the draws
    # adds nothing that grows with the count, where keeping every value of the
    # three payloads added 8.3 MB
    fns = {name: f for name, (f, _, _) in SELF_ADJOINT_MOMENTS.items()}
    assert _peak_growth(lambda count: ball_moment_estimate("hermitian", 3, fns, count, 1)) <= 1_000_000


def test_haar_moment_estimate_memory_is_flat_in_count():
    # a 2^22-entry chunk and every |U_11|^2 value once made this grow by tens of MB
    u11 = {"u11": lambda U: abs(U[:, 0, 0]) ** 2}
    assert _peak_growth(lambda count: haar_moment_estimate("unitary", 2, u11, count, 1)) <= 1_000_000


def test_loggas_moment_estimate_memory_is_flat_in_count():
    # a 2^22-entry chunk once held every one of these draws at once
    payloads = {"s": "sum_sq"}
    assert _peak_growth(lambda count: loggas_moment_estimate(1, 2, 0, 2, payloads, count, 1)) <= 1_000_000


@pytest.mark.parametrize("n,count", [(0, 10), (2, 0)])
def test_samplers_refuse_empty_requests(n, count):
    with pytest.raises(ValueError, match="n >= 1 and count >= 1"):
        next(rejection_sample_ball("hermitian", n, count, seed=1))
    with pytest.raises(ValueError, match="n >= 1 and count >= 1"):
        haar_sample("unitary", n, seed=1, count=count)


def test_rejection_full_real_n2():
    est = ball_moment_estimate(
        "full-real", 2, {"T11sq": lambda T: T[:, 0, 0] ** 2}, 80_000, seed=3
    )
    e = est["T11sq"]
    assert abs(e.mean - 1 / 5) <= 4 * e.stderr  # 1/(2n+1) at n = 2


def test_rejection_determinism():
    a = ball_moment_estimate("symmetric", 2, {"x": lambda T: T[:, 0, 0] ** 2}, 30_000, seed=21)
    b = ball_moment_estimate("symmetric", 2, {"x": lambda T: T[:, 0, 0] ** 2}, 30_000, seed=21)
    assert a["x"].to_json() == b["x"].to_json()
    c = ball_moment_estimate("symmetric", 2, {"x": lambda T: T[:, 0, 0] ** 2}, 30_000, seed=22)
    assert c["x"].mean != a["x"].mean


def test_rejection_conjugation_invariance():
    # empirical moments of T and PTP^t agree within error for a permutation P
    batches_direct = []
    batches_conj = []
    P = np.zeros((3, 3))
    P[0, 1] = P[1, 2] = P[2, 0] = 1.0
    for T, _ in rejection_sample_ball("symmetric", 3, 60_000, seed=33):
        batches_direct.append(T[:, 0, 0] * T[:, 1, 1])
        TC = np.einsum("ij,bjk,lk->bil", P, T, P)
        batches_conj.append(TC[:, 0, 0] * TC[:, 1, 1])
    d = np.concatenate(batches_direct)
    c = np.concatenate(batches_conj)
    se = math.hypot(d.std() / len(d) ** 0.5, c.std() / len(c) ** 0.5)
    assert abs(d.mean() - c.mean()) <= 4 * se


def test_rejection_validates_ensemble_and_dim():
    # there is no sampler for the quaternion ball; every other ball takes any n
    with pytest.raises(ValueError):
        next(rejection_sample_ball("quaternion", 2, 10, seed=1))
    T, drawn = next(rejection_sample_ball("hermitian", 5, 10, seed=1))
    assert T.shape == (10, 5, 5) and drawn == 10
    assert np.abs(np.linalg.eigvalsh(T)).max() <= 1.0 + 1e-12


def test_rejection_sampler_eigvalsh_path_n4():
    # n = 4 runs the sequential sampler through its deepest bordering; sanity: spectral norm <= 1
    got = 0
    for T, _ in rejection_sample_ball("symmetric", 4, 500, seed=2):
        w = np.linalg.eigvalsh(T)
        assert np.abs(w).max() <= 1.0 + 1e-12
        got += len(T)
        if got >= 500:
            break
    assert got >= 500


LOGGAS_COUNTS = {3: 20_000, 10: 10_000, 50: 1_000, 300: 1_000}


@pytest.mark.parametrize("n", sorted(LOGGAS_COUNTS))
@pytest.mark.parametrize("name", sorted(ENSEMBLES))
def test_loggas_matches_exact_moments(name, n):
    spec = ensemble(name)
    r = ensemble_moments(spec, n, "forced")
    payloads = {"s2": "sum_sq", "s4": "sum_quartic", "cross": "cross_sq"}
    want = {"s2": n * r.M2, "s4": n * r.M4, "cross": n * (n - 1) * r.M22 / 2}
    res = loggas_moment_estimate(spec.a, spec.b, spec.c, n, payloads, LOGGAS_COUNTS[n], seed=7)
    for key, e in res.items():
        assert e.n_samples == LOGGAS_COUNTS[n]
        assert abs(e.mean - float(want[key])) <= 4 * e.stderr, (key, e.mean, float(want[key]))


def test_loggas_determinism():
    run = lambda seed: loggas_moment_estimate(2, 2, 1, 5, {"s": "sum_sq"}, 2000, seed)["s"]
    assert run(5).to_json() == run(5).to_json()
    assert run(6).mean != run(5).mean


@pytest.mark.parametrize(
    "args",
    [
        (1, 2, 1, 3, 1000, "sum_sq"),  # a = 1 needs c = 0
        (3, 2, 0, 3, 1000, "sum_sq"),  # a outside {1, 2}
        (2, 2, -1, 3, 1000, "sum_sq"),  # a = 2 needs c >= 0
        (1, 0, 0, 3, 1000, "sum_sq"),  # b <= 0
        (1, 2, 0, 0, 1000, "sum_sq"),  # n < 1
        (1, 2, 0, 3, 1, "sum_sq"),  # one draw has no stderr
        (1, 2, 0, 3, 1000, "sum_cube"),  # unknown payload name
    ],
)
def test_loggas_typed_errors(args):
    a, b, c, n, count, payload = args
    with pytest.raises(ValueError):
        loggas_moment_estimate(a, b, c, n, {"s": payload}, count, seed=1)


def test_loggas_quadrature_needs_even_payload():
    # m_(3,1) - 2 m_(2,1,1) + m_(2,2) is odd in x_1 yet passes a probe at (+-0.37, 0.37, 0.37)
    odd = ("sympoly", [((3, 1), "1"), ((2, 1, 1), "-2"), ((2, 2), "1")])
    with pytest.raises(ValueError):
        quadrature(QuadratureSpec("loggas", 3, odd, (2, 1, 0), 16))
    for desc in (("elementary", 1), ("aomoto", (1, 0, 0)), ("shifted", "x2")):
        with pytest.raises(ValueError):
            quadrature(QuadratureSpec("loggas", 2, desc, (2, 1, 0), 16))
    base, _ = quadrature(QuadratureSpec("loggas", 2, ("one",), (2, 1, 0), 36))
    m22, _ = quadrature(QuadratureSpec("loggas", 2, ("monomial", (2, 2)), (2, 1, 0), 36))
    assert m22 / base == pytest.approx(float(full_matrix_moment_ratio("x2x2", 2, 1)), abs=1e-10)


def haar_sample(group, n, seed, count=1):
    """`count` Haar-distributed matrices, shape (count, n, n): every chunk of the oracle's stream."""
    return np.concatenate(list(oracle._haar_chunks(group, n, seed, count)))


def test_haar_unitary_moments():
    U = haar_sample("unitary", 3, seed=1, count=30_000)
    err = np.abs(U @ np.conj(np.transpose(U, (0, 2, 1))) - np.eye(3)).max()
    assert err < 1e-12
    m = np.abs(U[:, 0, 0]) ** 2
    se = m.std() / len(m) ** 0.5
    assert abs(m.mean() - 1 / 3) <= 4 * se
    v = np.abs(U[:, 0, 0]) ** 2 * np.abs(U[:, 1, 1]) ** 2
    want = float(haar_moment_unitary((1, 2), (1, 2), (1, 2), (1, 2), 3))
    se = v.std() / len(v) ** 0.5
    assert abs(v.mean() - want) <= 4 * se


def test_haar_orthogonal_moments():
    O = haar_sample("orthogonal", 3, seed=2, count=30_000)
    err = np.abs(O @ np.transpose(O, (0, 2, 1)) - np.eye(3)).max()
    assert err < 1e-12
    v = O[:, 0, 0] ** 2
    se = v.std() / len(v) ** 0.5
    assert abs(v.mean() - 1 / 3) <= 4 * se
    v4 = O[:, 0, 0] ** 2 * O[:, 1, 1] ** 2
    want = float(haar_moment_orthogonal((1, 1, 2, 2), (1, 1, 2, 2), 3))
    se = v4.std() / len(v4) ** 0.5
    assert abs(v4.mean() - want) <= 4 * se


def test_haar_determinism():
    a = haar_sample("unitary", 4, seed=9, count=3)
    b = haar_sample("unitary", 4, seed=9, count=3)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("group", ["unitary", "orthogonal"])
def test_haar_sample_matches_per_matrix_qr(group):
    # reference: one QR per matrix on the same Gaussian draws, each column of Q
    # multiplied by the phase of the matching diagonal entry of R
    rng = np.random.default_rng(4)
    z = rng.standard_normal((50, 4, 4))
    if group == "unitary":
        z = (z + 1j * rng.standard_normal((50, 4, 4))) / math.sqrt(2)
    want = []
    for zk in z:
        q, r = np.linalg.qr(zk)
        ph = np.diagonal(r) / np.abs(np.diagonal(r))
        want.append(q * ph)
    assert np.allclose(haar_sample(group, 4, seed=4, count=50), want, rtol=0, atol=1e-12)
