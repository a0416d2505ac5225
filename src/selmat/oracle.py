"""Independent numeric verification: quadrature, samplers, Haar matrices.

Nothing here touches the exact engine's algebra; integrals are done with
tensor-product Gauss-Legendre rules and expectations with seeded Monte Carlo,
so agreement with the exact modules is evidence, not circularity.

Quadrature has one integrand family, the Selberg type on [0,1]^n:
payload * prod t^(u-1)(1-t)^(w-1) * prod|t_i-t_j|^(2k).  The log-gas type on
[-1,1]^n, payload * prod|x_i^a - x_j^a|^b * prod|x_i|^c, is reduced to it by
the change of variables that the beta-Jacobi sampler also uses: x = 2t - 1
for a = 1 (c = 0), and t = x^2 for a = 2 with an even payload.  The nodes
depend only on (n, resolution, sector, substitution), so each payload is
evaluated once per node set and weighed by every (u, w, kappa) that shares it.

Odd interaction exponents make the integrand non-smooth across the diagonal
hyperplanes; those cases are integrated over the ordered sector t_1 < ... < t_n
(mapped from the unit box by the telescoping product transform) and multiplied
by n!, with the payload symmetrised.  Half-integer u or w gets the per-axis
t = sin^2(theta) substitution, which turns the weight into a smooth
trigonometric density.  Every acceptance-grid case is smooth after these two
moves, so the rules converge spectrally.

Every sampler is exact, at any n.  The operator-norm balls are drawn by the
conditional-distribution method (Devroye, Non-Uniform Random Variate
Generation, 1986, ch. II.3), so nothing is rejected: the self-adjoint balls
grow one row and column at a time from Beta laws, and the full balls one row
at a time from Beta radii and Cholesky factors of I - R*R.  The eigenvalue
log-gas is drawn from the beta-Jacobi matrix model, and Haar matrices from a
phase-corrected QR.

numpy is imported inside the functions that use it: the CLI imports this
module for every command, and the exact commands never need numpy.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache

from .combinat import partition
from .selberg import SelbergParams, check_aomoto_indices


class UnsupportedDimensionError(ValueError):
    pass


@dataclass(frozen=True)
class SampleEstimate:
    """Monte Carlo estimate with batch-means error bar; reproducible by seed."""

    mean: float
    stderr: float
    n_samples: int
    seed: int
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "mean": self.mean,
            "stderr": self.stderr,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "diagnostics": dict(sorted(self.diagnostics.items())),
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


BATCHES = 25  # batch-means batches; an estimate needs at least one draw per batch


class _BatchMeans:
    """Batch means of one payload over `count` draws, fed one chunk at a time.

    The first BATCHES * (count // BATCHES) values fill BATCHES contiguous
    batches through one reused buffer, so memory does not grow with count;
    later values are dropped.  The stderr comes from the batch means, and the
    effective sample size from the pooled variance (mean within-batch variance
    plus the variance of the batch means).
    """

    def __init__(self, count: int):
        import numpy as np
        if count < BATCHES:
            raise ValueError(f"batch means need count >= {BATCHES}, got {count}")
        self.count = count
        self.batch = np.empty(count // BATCHES)
        self.filled = 0
        self.means, self.variances = [], []

    def add(self, values) -> None:
        while len(values) and len(self.means) < BATCHES:
            take = min(len(values), len(self.batch) - self.filled)
            self.batch[self.filled : self.filled + take] = values[:take]
            self.filled += take
            values = values[take:]
            if self.filled == len(self.batch):
                self.means.append(self.batch.mean())
                self.variances.append(self.batch.var())
                self.filled = 0

    def estimate(self, seed: int, diagnostics: dict) -> SampleEstimate:
        import numpy as np
        bm = np.array(self.means)
        var_bm = float(bm.var(ddof=1))
        var_all = float(np.mean(self.variances) + bm.var())
        ess = self.count if var_bm == 0 else self.count * var_all / (len(self.batch) * var_bm)
        return SampleEstimate(
            float(bm.mean()),
            float(bm.std(ddof=1) / math.sqrt(BATCHES)),
            self.count,
            seed,
            {**diagnostics, "ess": round(float(min(ess, self.count)), 2)},
        )


# ---------------------------------------------------------------------------
# payloads
# ---------------------------------------------------------------------------


def eval_monomial(lam, pts: np.ndarray) -> np.ndarray:
    """m_lambda(t_1..t_n) at pts of shape (N, n)."""
    import numpy as np
    lam = partition(lam)
    n = pts.shape[1]
    if len(lam) > n:
        return np.zeros(pts.shape[0])
    padded = tuple(lam) + (0,) * (n - len(lam))
    out = np.zeros(pts.shape[0])
    for perm in set(itertools.permutations(padded)):
        term = np.ones(pts.shape[0])
        for axis, e in enumerate(perm):
            if e:
                term = term * pts[:, axis] ** e
        out += term
    return out


SHIFTED_POWERS = {"x2": (2,), "x1x1": (1, 1), "x2x2": (2, 2), "x4": (4,)}  # of t_i - 1/2


def _payload(desc, n: int) -> tuple:
    """(f, symmetric, even) of a payload descriptor on n variables; every check is here.

    f maps points (N, n) to N values.  Descriptors: ("one",), ("monomial", lam),
    ("elementary", m) for e_m, ("sympoly", ((mu, coefficient), ...)); and, not
    symmetric, ("aomoto", (m1, m2, m3)) for prod_{i<=m1} t_i prod_{j=m1+1-m3}^{m1+m2-m3}
    (1 - t_j) and ("shifted", name) for the (t - 1/2) powers of moments.SHIFTED_PAYLOADS.
    even: even in each variable, as the a = 2 log-gas map needs.
    """
    import numpy as np
    kind = desc[0]
    if kind == "aomoto":
        if len(desc[1]) != 3:
            raise ValueError(f"aomoto payload needs three indices m1,m2,m3, got {desc[1]!r}")
        m1, m2, m3 = desc[1]
        check_aomoto_indices(n, m1, m2, m3)

        def f(pts):
            out = np.ones(pts.shape[0])
            for i in range(m1):
                out = out * pts[:, i]
            for j in range(m1 - m3, m1 + m2 - m3):
                out = out * (1.0 - pts[:, j])
            return out

        return f, False, False
    if kind == "shifted":
        powers = SHIFTED_POWERS.get(desc[1])
        if powers is None:
            raise ValueError(f"unknown shifted payload {desc[1]!r}")
        if len(powers) > n:
            raise ValueError(f"payload shifted:{desc[1]} needs n >= {len(powers)}, got n={n}")

        def f(pts):
            out = np.ones(pts.shape[0])
            for axis, e in enumerate(powers):
                out = out * (pts[:, axis] - 0.5) ** e
            return out

        return f, False, False
    if kind == "one":
        terms = [((), 1)]
    elif kind == "monomial":
        terms = [(desc[1], 1)]
    elif kind == "elementary":
        if int(desc[1]) < 0:
            raise ValueError(f"payload elementary:{desc[1]} needs m >= 0")
        terms = [((1,) * int(desc[1]), 1)]
    elif kind == "sympoly":
        terms = desc[1]
    else:
        raise ValueError(f"unknown payload descriptor {desc!r}")
    terms = [(partition(mu), Fraction(co)) for mu, co in terms]
    even = all(part % 2 == 0 for mu, co in terms if co for part in mu)
    terms = [(mu, float(co)) for mu, co in terms]

    def f(pts):
        acc = np.zeros(pts.shape[0])
        for mu, co in terms:
            acc += co * eval_monomial(mu, pts)
        return acc

    return f, True, even


def _symmetrized(f, n):
    import numpy as np

    def g(pts):
        acc = np.zeros(pts.shape[0])
        for p in itertools.permutations(range(n)):
            acc += f(pts[:, p])
        return acc / math.factorial(n)

    return g


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


QUADRATURE_MAX_NODES = 2**22  # 40^4 fits; the mesh alone takes 8 n bytes per node


@dataclass(frozen=True)
class QuadratureSpec:
    """Deterministic tensor-product rule for one integrand.

    kind: "selberg" (params u, w, kappa on [0,1]^n) or "loggas"
    (params a, b, c on [-1,1]^n).  payload is a descriptor tuple, see
    _payload.  The rule has points_per_axis^n nodes, at most
    QUADRATURE_MAX_NODES.  Everything else is resolved and checked once, here,
    before any rule is built: weight is the Selberg weight on [0,1]^n that the
    integrand reduces to (parameters at which the integral diverges raise
    ParamOutOfRangeError); on_t is the payload as a function of t in [0,1]^n,
    with the log-gas map composed and, on a sector rule, symmetrised; on_t_key
    is what on_t depends on besides node_key; scale multiplies the weighed sum.
    """

    kind: str
    n: int
    payload: tuple
    params: tuple
    points_per_axis: int = 40
    weight: SelbergParams = field(init=False, repr=False, compare=False)
    on_t: Callable = field(init=False, repr=False, compare=False)
    on_t_key: tuple = field(init=False, repr=False, compare=False)
    scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        import numpy as np
        a = 0  # the log-gas map, none for a Selberg integrand
        if self.kind == "selberg":
            weight = SelbergParams(self.n, *self.params)
        elif self.kind == "loggas":
            a, b, c = (int(x) for x in self.params)
            weight = SelbergParams(self.n, *_loggas_selberg_params(a, b, c))
        else:
            raise ValueError(f"unknown quadrature kind {self.kind!r}")
        object.__setattr__(self, "weight", weight)
        f, symmetric, even = _payload(self.payload, self.n)
        if a == 2 and not even:
            raise ValueError(
                f"a=2 log-gas quadrature needs a payload even per variable, got {self.payload!r}"
            )
        if self.n > 4:
            raise UnsupportedDimensionError("quadrature capped at n <= 4")
        if self.points_per_axis < 8:
            raise ValueError("need points_per_axis >= 8")
        if self.points_per_axis**self.n > QUADRATURE_MAX_NODES:
            raise UnsupportedDimensionError(
                f"quadrature capped at {QUADRATURE_MAX_NODES} nodes,"
                f" got {self.points_per_axis}^{self.n}"
            )
        n, _, sector, _ = node_key(self)
        scale = math.factorial(n) if sector else 1
        if a == 1:  # x = 2t - 1: dx = 2^n dt and |Delta(x)|^b is 2^(b n(n-1)/2) |Delta(t)|^b
            f = lambda t, on_box=f: on_box(2.0 * t - 1.0)
            scale = scale * 2.0 ** (n + b * n * (n - 1) // 2)
        elif a == 2:  # x = sqrt(t): an even integrand is 2^n times its [0,1]^n part,
            f = lambda t, on_box=f: on_box(np.sqrt(t))  # and dx = dt / (2 sqrt(t))
        object.__setattr__(self, "on_t", _symmetrized(f, n) if sector and not symmetric else f)
        object.__setattr__(self, "on_t_key", (a, repr(self.payload)))
        object.__setattr__(self, "scale", scale)


def quadrature(spec: QuadratureSpec) -> tuple[float, float]:
    """(value, error_estimate); the estimate compares two resolutions."""
    coarse_pts = max(8, spec.points_per_axis - max(4, spec.points_per_axis // 3))
    fine, coarse = quadrature_values([spec, replace(spec, points_per_axis=coarse_pts)])
    return fine, abs(fine - coarse)


def quadrature_values(specs) -> list[float]:
    """The value of each spec on its own rule, without an error estimate.

    Specs go by node set, the largest first, so the sets left in the cache are
    small.  Each distinct payload (and log-gas map) is evaluated once per node
    set, and weighed by every spec there in one fixed order of factors.
    """
    import numpy as np
    groups = {}  # node_key -> on_t_key -> indices into specs
    for i, spec in enumerate(specs):
        groups.setdefault(node_key(spec), {}).setdefault(spec.on_t_key, []).append(i)
    out = [0.0] * len(specs)
    for key, by_payload in sorted(groups.items(), key=lambda kv: -kv[0][1] ** kv[0][0]):
        _, _, sector, trig = key
        nodes = _node_set(*key)
        density, interaction = {}, {}  # per (u, w) and per kappa
        for idx in by_payload.values():
            vals = specs[idx[0]].on_t(nodes[0])
            for i in idx:
                p = specs[i].weight
                if (p.u, p.w) not in density:
                    density[p.u, p.w] = _density(nodes, sector, trig, float(p.u), float(p.w))
                if p.kappa not in interaction:
                    interaction[p.kappa] = _interaction(nodes[0], float(2 * p.kappa))
                factors = (density[p.u, p.w], interaction[p.kappa])
                if sector:
                    factors = (nodes[2], *factors, nodes[3])
                acc = factors[0] * vals
                for factor in factors[1:]:
                    acc *= factor
                out[i] = float(np.sum(acc) * specs[i].scale)
    return out


def _loggas_selberg_params(a: int, b: int, c: int) -> tuple[Fraction, Fraction, Fraction]:
    """(u, w, kappa) of the Selberg weight that the (a, b, c) box log-gas maps to.

    |Delta(x)|^b on [-1,1]^n is (1, 1, b/2) under x = 2t - 1, and
    |Delta(x^2)|^b prod |x_i|^c is ((c + 1)/2, 1, b/2) under t = x^2.
    """
    if a == 1 and c == 0:
        u = Fraction(1)
    elif a == 2 and c >= 0:
        u = Fraction(c + 1, 2)
    else:
        raise ValueError(f"log-gas covers (a, c) = (1, 0) or (2, c >= 0), not ({a}, {c})")
    return u, Fraction(1), Fraction(b, 2)


@lru_cache(maxsize=2)  # the fine and the coarse point count
def _gl01(p: int) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np
    x, w = np.polynomial.legendre.leggauss(p)
    x, w = (x + 1.0) / 2.0, w / 2.0
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _mesh(axes: list[np.ndarray]) -> np.ndarray:
    import numpy as np
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _interaction(pts: np.ndarray, e: float) -> np.ndarray:
    """prod_{i<j} |t_i - t_j|^e for each row of pts."""
    import numpy as np
    inter = np.ones(len(pts))
    for i in range(pts.shape[1]):
        for j in range(i + 1, pts.shape[1]):
            inter = inter * np.abs(pts[:, i] - pts[:, j]) ** e
    return inter


def node_key(spec: QuadratureSpec) -> tuple:
    """(n, points, sector, trig), all that spec's nodes depend on; specs sorted by it
    build each node set once.  sector: kappa is not an integer.  trig: u and w are
    half-integers, not both integers (see the module docstring).
    """
    p = spec.weight
    trig = max(p.u.denominator, p.w.denominator) == 2
    return spec.n, spec.points_per_axis, p.kappa.denominator != 1, trig


@lru_cache(maxsize=2)  # a fine and a coarse rule
def _node_set(n: int, p: int, sector: bool, trig: bool):
    """(pts, ax, wt, jac) of the p-per-axis rule, read-only as every weight shares them.

    pts are the nodes in [0,1]^n, ax what _density reads (theta under trig, else
    t).  Off the sector ax and wt are 1-d and jac is None; on it wt is the box
    rule's weight per node and jac the Jacobian of the map to the sector.
    """
    import numpy as np
    x, wt = _gl01(p)
    jac = None
    if not sector:
        ax = (math.pi / 2) * x if trig else x
        pts = _mesh([np.sin(ax) ** 2 if trig else x] * n)
    else:
        # ordered sector: t_1 <= ... <= t_n via the telescoping product map
        ubox = _mesh([x] * n)
        wt = _mesh([wt] * n).prod(axis=1)
        jac = np.ones(len(ubox))
        for j in range(n):
            jac = jac * ubox[:, j] ** j  # prod u_j^(j-1), 0-indexed
        # cumulative products from the right: coordinate i = prod_{j >= i} u_j
        ax = np.cumprod(ubox[:, ::-1], axis=1)[:, ::-1]
        if trig:
            ax = (math.pi / 2) * ax
            jac = jac * (math.pi / 2) ** n
        pts = np.sin(ax) ** 2 if trig else ax
    for arr in (pts, ax, wt) if jac is None else (pts, ax, wt, jac):
        arr.flags.writeable = False
    return pts, ax, wt, jac


def _density(nodes: tuple, sector: bool, trig: bool, u: float, w: float) -> np.ndarray:
    """prod t^(u-1) (1-t)^(w-1) per node, times the 1-d rule's weights off the sector."""
    import numpy as np
    pts, ax, wt, _ = nodes
    if not sector:
        if trig:
            w_ax = wt * (math.pi / 2) * 2.0 * np.sin(ax) ** (2 * u - 1) * np.cos(ax) ** (2 * w - 1)
        else:
            w_ax = wt * ax ** (u - 1) * (1 - ax) ** (w - 1)
        return _mesh([w_ax] * pts.shape[1]).prod(axis=1)
    if trig:
        dens = np.ones(len(pts))
        for i in range(pts.shape[1]):
            dens = dens * 2.0 * np.sin(ax[:, i]) ** (2 * u - 1) * np.cos(ax[:, i]) ** (2 * w - 1)
        return dens
    with np.errstate(divide="ignore", invalid="ignore"):
        dens = pts ** (u - 1) * (1 - pts) ** (w - 1)
    return np.where(np.isfinite(dens), dens, 0.0).prod(axis=1)


# ---------------------------------------------------------------------------
# uniform sampling from operator-norm balls
# ---------------------------------------------------------------------------

BALL_ENSEMBLES = ("hermitian", "symmetric", "full-real", "full-complex")


def _sequential_self_adjoint(kind: str, n: int, rng, m: int) -> np.ndarray:
    """m exactly uniform draws from the self-adjoint operator-norm ball, shape (m, n, n).

    T grows one row and column at a time.  Let beta = 1 (symmetric, F = R) or
    2 (hermitian, F = C), and write a leading block of T as [[A, b], [b*, d]],
    A k x k, b in F^k, d real.  By the Schur complement,
    det(I -+ T) = det(I -+ A) (1 -+ d - b*(I -+ A)^-1 b), so given A inside the
    ball the block is inside iff q - 1 <= d <= 1 - p, where
    p = b*(I - A)^-1 b and q = b*(I + A)^-1 b.

    Claim: the leading k x k block of a uniform T has density proportional to
    det(I - A^2)^((n - k) beta / 2).  At k = n this is the uniform law.  Going
    from k + 1 to k, put s = (n - k - 1) beta / 2; the Schur identity gives
    det(I - T_{k+1}^2) = det(I - A^2) (1 - p - d)(1 + d - q).  Integrating d
    over [q - 1, 1 - p], of length L = 2 - p - q, leaves L^(2s + 1) B(s+1, s+1),
    and (d - q + 1) / L ~ Beta(s + 1, s + 1) given (A, b).  Since
    (I - A)^-1 + (I + A)^-1 = 2 (I - A^2)^-1, p + q = 2 b*(I - A^2)^-1 b, which
    is 2|y|^2 under b = R y with R R* = I - A^2; then db = det(I - A^2)^(beta/2) dy
    and L = 2 (1 - |y|^2).  So (A, y) has density proportional to
    det(I - A^2)^(s + beta/2) (1 - |y|^2)^(2s + 1) on |y| < 1: A has exponent
    (n - k) beta / 2, as claimed, and y is independent of A and rotation
    invariant, with |y|^2 ~ Beta(beta k / 2, 2s + 2) (its radial density is
    r^(beta k - 1) (1 - r^2)^(2s + 1)).  At k = 1, (1 + T_11) / 2 ~ Beta(s+1, s+1)
    with s = (n - 1) beta / 2.  For example E[T_11^2] = 1/7 for hermitian
    n = 3, as the exact engine gives.

    So the sampler draws T_11, then for k = 1..n-1 draws y, puts b = R y with R
    the Cholesky factor of I - A^2, and draws d.  Nothing is rejected.  Every
    entry is an m-vector; (I -+ A)^-1 are updated by bordering.  The output is
    not exchangeable, because the last row is drawn last; callers conjugate it
    by a uniform permutation.
    """
    import numpy as np
    beta = 2 if kind == "hermitian" else 1

    def symmetric_beta(s):  # Beta(s + 1, s + 1) draws; uniform at s = 0
        return rng.random(m) if s == 0 else rng.beta(s + 1, s + 1, m)

    a = 2.0 * symmetric_beta((n - 1) * beta / 2) - 1.0
    A = [[a]]  # A[i][j] holds entry (i, j) of every draw
    minus, plus = [[1.0 / (1.0 - a)]], [[1.0 / (1.0 + a)]]  # (I - A)^-1, (I + A)^-1
    for k in range(1, n):
        s = (n - k - 1) * beta / 2
        g = rng.standard_normal((k, m))
        if beta == 2:
            g = g + 1j * rng.standard_normal((k, m))
        norm2 = (g.real**2 + g.imag**2).sum(axis=0)
        y = g * np.sqrt(rng.beta(beta * k / 2, 2 * s + 2, m) / norm2)
        # R: lower Cholesky factor of I - A^2
        R = [[None] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1):
                acc = float(i == j) - sum(A[i][l] * A[l][j] for l in range(k))
                acc = acc - sum(R[i][l] * np.conj(R[j][l]) for l in range(j))
                R[i][j] = np.sqrt(acc.real) if i == j else acc / R[j][j]
        b = [sum(R[i][j] * y[j] for j in range(i + 1)) for i in range(k)]
        v = [sum(minus[i][j] * b[j] for j in range(k)) for i in range(k)]
        w = [sum(plus[i][j] * b[j] for j in range(k)) for i in range(k)]
        p = sum((np.conj(b[i]) * v[i]).real for i in range(k))
        q = sum((np.conj(b[i]) * w[i]).real for i in range(k))
        d = q - 1.0 + (2.0 - p - q) * symmetric_beta(s)
        for i in range(k):
            A[i].append(b[i])
        A.append([np.conj(bi) for bi in b] + [d])
        if k == n - 1:
            break
        # border (I - A)^-1 and (I + A)^-1 with the Schur complements 1 - d - p, 1 + d - q
        sm, sp = 1.0 - d - p, 1.0 + d - q
        minus = [
            [minus[i][j] + v[i] * np.conj(v[j]) / sm for j in range(k)] + [v[i] / sm]
            for i in range(k)
        ] + [[np.conj(vj) / sm for vj in v] + [1.0 / sm]]
        plus = [
            [plus[i][j] + w[i] * np.conj(w[j]) / sp for j in range(k)] + [-w[i] / sp]
            for i in range(k)
        ] + [[-np.conj(wj) / sp for wj in w] + [1.0 / sp]]
    return np.array(A, dtype=complex if beta == 2 else float).transpose(2, 0, 1)


def _sequential_full(kind: str, n: int, rng, m: int) -> np.ndarray:
    """m exactly uniform draws from the full operator-norm ball, shape (m, n, n).

    T is drawn one row at a time.  Let beta = 1 (full-real, F = R) or 2
    (full-complex, F = C), let R be the first k rows and M = I - R*R, so that
    ||T|| <= 1 iff I - T*T = M - (rows k+1..n)*(rows k+1..n) is positive
    semidefinite.  Adding a row x gives det(M - x*x) = det(M) (1 - x M^-1 x*).

    Claim: R has density proportional to det(M)^((n - k) beta / 2) on M > 0.
    At k = n this is the uniform law.  Going from k + 1 to k, put
    s = (n - k - 1) beta / 2; the k + 1 rows have density proportional to
    det(M)^s (1 - x M^-1 x*)^s on x M^-1 x* < 1.  Write x = y L* with L L* = M:
    then x M^-1 x* = |y|^2 and dx = det(M)^(beta/2) dy, so integrating y over
    the unit ball leaves det(M)^(s + beta/2), exponent (n - k) beta / 2 as
    claimed.  Given R, y is rotation invariant with density proportional to
    (1 - |y|^2)^s on |y| < 1 in F^n = R^(beta n); its radial density is
    r^(beta n - 1) (1 - r^2)^s, so |y|^2 ~ Beta(beta n / 2, s + 1).  For example
    the first row is y itself, so |T_11|^2 ~ Beta(beta / 2, beta (n - 1) + 1):
    E|T_11|^2 is 1/(2n + 1) for full-real and 1/(2n) for full-complex, as the
    exact engine gives.

    So the sampler draws, for k = 0..n-1, y with a uniform direction and that
    radius, puts x = y L* with L the Cholesky factor of M, and sets
    M <- M - x*x.  Nothing is rejected.  The last row is drawn last; callers
    conjugate each draw by a uniform permutation, as for the self-adjoint balls.
    """
    import numpy as np
    beta = 2 if kind == "full-complex" else 1
    dtype = complex if beta == 2 else float
    T = np.empty((m, n, n), dtype=dtype)
    M = np.tile(np.eye(n, dtype=dtype), (m, 1, 1))
    for k in range(n):
        g = rng.standard_normal((m, n))
        if beta == 2:
            g = g + 1j * rng.standard_normal((m, n))
        norm2 = (g.real**2 + g.imag**2).sum(axis=1)
        y = g * np.sqrt(rng.beta(beta * n / 2, (n - k - 1) * beta / 2 + 1, m) / norm2)[:, None]
        x = np.einsum("bi,bji->bj", y, np.linalg.cholesky(M).conj())  # x = y L*
        T[:, k] = x
        M -= x.conj()[:, :, None] * x[:, None, :]
    return T


def rejection_sample_ball(ensemble_name: str, n: int, count: int, seed: int):
    """Yield batches of matrices uniform on the operator-norm unit ball.

    hermitian and symmetric are drawn by _sequential_self_adjoint, full-real
    and full-complex by _sequential_full, in chunks of max(1, 2^16 // n^2)
    matrices, each conjugated by a uniform random permutation.  Every draw is
    accepted.  Yields (batch_array, n_drawn) tuples, n_drawn counting the
    draws so far, until `count` matrices have been drawn.  The name, the
    positional signature and the yields are what perfbench/tracer.py wraps.
    """
    import numpy as np
    kind = ensemble_name.lower()
    if kind not in BALL_ENSEMBLES:
        raise ValueError(f"ball sampler covers {BALL_ENSEMBLES}, got {ensemble_name!r}")
    if n < 1 or count < 1:
        raise ValueError(f"rejection sampling needs n >= 1 and count >= 1, got {n}, {count}")
    draw = _sequential_self_adjoint if kind in ("hermitian", "symmetric") else _sequential_full
    rng = np.random.default_rng(seed)
    chunk = max(1, 2**16 // n**2)
    for start in range(0, count, chunk):
        m = min(chunk, count - start)
        T = draw(kind, n, rng, m)
        perm = rng.permuted(np.tile(np.arange(n), (m, 1)), axis=1)
        yield T[np.arange(m)[:, None, None], perm[:, :, None], perm[:, None, :]], start + m


def ball_second_moments(ensemble_name: str) -> dict:
    """Payloads of the ball second moments Re(T_11 T_22), |T_12|^2 and |T_11|^2.

    Keyed as weingarten.self_adjoint_second_moments keys their exact values:
    |T_12|^2 is absT12sq on the hermitian ball and T12sq on the others.
    """
    off = "absT12sq" if ensemble_name == "hermitian" else "T12sq"
    return {
        "T11T22": lambda T: (T[:, 0, 0] * T[:, 1, 1]).real,
        off: lambda T: abs(T[:, 0, 1]) ** 2,
        "T11sq": lambda T: abs(T[:, 0, 0]) ** 2,
    }


def ball_moment_estimate(ensemble_name: str, n: int, moment_fns: dict, count: int, seed: int) -> dict:
    """SampleEstimates of entry moments over `count` uniform ball draws.

    moment_fns maps names to vectorised callables f(T_batch) -> (B,) floats.
    Each payload streams into its own batch means, so memory does not grow
    with count.  Every draw is kept, so the acceptance_rate diagnostic is 1.
    """
    acc = {name: _BatchMeans(count) for name in moment_fns}
    for T, _ in rejection_sample_ball(ensemble_name, n, count, seed):
        for name, fn in moment_fns.items():
            acc[name].add(fn(T))
    return {name: a.estimate(seed, {"acceptance_rate": 1.0}) for name, a in acc.items()}


# ---------------------------------------------------------------------------
# exact i.i.d. sampler for the eigenvalue log-gas
# ---------------------------------------------------------------------------


LOGGAS_PAYLOADS = {
    "sum_sq": lambda x: (x**2).sum(axis=1),
    "sum_quartic": lambda x: (x**4).sum(axis=1),
    "cross_sq": lambda x: ((x**2).sum(axis=1) ** 2 - (x**4).sum(axis=1)) / 2.0,
}


def _beta_jacobi(rng, m: int, n: int, u: float, w: float, kappa: float) -> np.ndarray:
    """m draws of the n points of the Selberg weight on [0,1]^n, shape (m, n).

    The weight prod t^(u-1) (1-t)^(w-1) |Delta(t)|^(2 kappa) is the beta-Jacobi
    ensemble with beta = 2 kappa, p = u/kappa - 1, q = w/kappa - 1; its points
    are the squared singular values of an upper bidiagonal matrix with
    independent Beta-distributed entries (Edelman and Sutton, FoCM 8 (2008)).
    """
    import numpy as np
    p, q = u / kappa - 1, w / kappa - 1
    i = np.arange(n, 0, -1)
    c = np.sqrt(rng.beta(kappa * (p + i), kappa * (q + i), (m, n)))
    j = np.arange(n - 1, 0, -1)
    cp = np.sqrt(rng.beta(kappa * j, kappa * (p + q + 1 + j), (m, n - 1)))
    s, sp = np.sqrt(1 - c**2), np.sqrt(1 - cp**2)
    diag = c * np.concatenate([np.ones((m, 1)), sp], axis=1)  # c_n, c_{n-1} s'_{n-1}, ...
    sup = -s[:, :-1] * cp  # -s_n c'_{n-1}, ..., -s_2 c'_1
    # B B^t is tridiagonal; eigvalsh reads its lower triangle
    bbt = np.zeros((m, n, n))
    k = np.arange(n)
    bbt[:, k, k] = diag**2
    bbt[:, k[:-1], k[:-1]] += sup**2
    bbt[:, k[1:], k[:-1]] = sup * diag[:, 1:]
    t = np.clip(np.linalg.eigvalsh(bbt), 0.0, 1.0)
    return rng.permuted(t, axis=1)  # exchangeable order, so payloads need no symmetry


def loggas_moment_estimate(
    a: int, b: int, c: int, n: int, payloads: dict, count: int, seed: int
) -> dict:
    """SampleEstimates of E[payload] under the (a, b, c) box log-gas.

    The density prod |x_i^a - x_j^a|^b prod |x_i|^c on [-1,1]^n is drawn
    exactly and i.i.d. from the beta-Jacobi matrix model, so there is no
    burn-in and no chain.  payloads maps names to vectorised callables on a
    (count, n) array of points, or names one of LOGGAS_PAYLOADS.  Draws come
    in chunks of max(1, 2^22 // n^2) matrices, so memory is bounded at any n.
    """
    import numpy as np
    u, w, kappa = (float(x) for x in _loggas_selberg_params(a, b, c))
    if b <= 0 or n < 1:
        raise ValueError(f"log-gas sampler needs b > 0 and n >= 1; got {b}, {n}")
    unknown = {f for f in payloads.values() if isinstance(f, str)} - set(LOGGAS_PAYLOADS)
    if unknown:
        raise ValueError(f"unknown payloads {sorted(unknown)}; known: {sorted(LOGGAS_PAYLOADS)}")
    fns = {name: LOGGAS_PAYLOADS[f] if isinstance(f, str) else f for name, f in payloads.items()}
    acc = {name: _BatchMeans(count) for name in fns}
    rng = np.random.default_rng(seed)
    chunk = max(1, 2**22 // n**2)
    for start in range(0, count, chunk):
        t = _beta_jacobi(rng, min(chunk, count - start), n, u, w, kappa)
        x = 2.0 * t - 1.0 if a == 1 else np.sqrt(t) * rng.choice((-1.0, 1.0), t.shape)
        for name, f in fns.items():
            acc[name].add(f(x))
    return {name: e.estimate(seed, {}) for name, e in acc.items()}


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------


def _haar_chunks(group: str, n: int, seed: int, count: int):
    """Yield `count` Haar matrices in chunks of max(1, 2^22 // n^2).

    Each chunk is one stacked QR of a Gaussian with phase correction, so
    scratch memory is bounded at any n.
    """
    import numpy as np
    if n < 1 or count < 1:
        raise ValueError(f"haar sampling needs n >= 1 and count >= 1, got {n}, {count}")
    if group not in ("unitary", "orthogonal"):
        raise ValueError(f"group must be unitary|orthogonal, got {group!r}")
    rng = np.random.default_rng(seed)
    chunk = max(1, 2**22 // n**2)
    for start in range(0, count, chunk):
        m = min(chunk, count - start)
        z = rng.standard_normal((m, n, n))
        if group == "unitary":
            z = (z + 1j * rng.standard_normal((m, n, n))) / math.sqrt(2)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=1, axis2=2)
        yield q * (d / np.abs(d))[:, None, :]


def haar_sample(group: str, n: int, seed: int, count: int = 1) -> np.ndarray:
    """`count` Haar-distributed matrices, shape (count, n, n)."""
    import numpy as np
    return np.concatenate(list(_haar_chunks(group, n, seed, count)))


def haar_u11_sq(group: str, n: int, seed: int, count: int) -> np.ndarray:
    """|U_11|^2 of the matrices haar_sample draws, without keeping the matrices."""
    import numpy as np
    return np.concatenate([abs(U[:, 0, 0]) ** 2 for U in _haar_chunks(group, n, seed, count)])
