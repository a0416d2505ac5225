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

Every sampler is exact, at any n, and rejects nothing.  The self-adjoint
balls are drawn by the conditional-distribution method (Devroye, Non-Uniform
Random Variate Generation, 1986, ch. II.3): they grow one row and column at a
time from Beta laws.  A full ball is the leading n x n block of a Haar frame
in F^(2n+1) (real) or F^(2n) (complex), one Cholesky factor and one solve per
draw.  The eigenvalue log-gas is drawn from the beta-Jacobi matrix model, and
Haar matrices from a phase-corrected QR.

numpy is imported inside the functions that use it: the CLI imports this
module for every command, and the exact commands never need numpy.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache

from .combinat import partition
from .exact import Value
from .selberg import PAYLOAD_POWERS, SelbergParams, check_aomoto_indices


class UnsupportedDimensionError(ValueError):
    pass


class SampleEstimate(Value):
    """Monte Carlo mean of i.i.d. draws with its standard error; reproducible by seed."""

    __slots__ = _fields = ("mean", "stderr", "n_samples", "seed")

    def __init__(self, mean: float, stderr: float, n_samples: int, seed: int):
        self._set(mean, stderr, n_samples, seed)

    def to_json(self) -> dict:
        return {
            "mean": self.mean, "stderr": self.stderr, "n_samples": self.n_samples, "seed": self.seed
        }


CHUNK_ENTRIES = 2**16  # one sampling chunk holds about this many array entries


def _chunks(draw: Callable, n: int, entries: int, count: int, seed: int):
    """Yield draw(rng, m) for `count` draws in chunks of m = max(1, 2^16 // entries),
    entries what one draw holds: n^2 for a matrix, n for the points of a log-gas.

    One Generator seeded by `seed` feeds every chunk, so memory is bounded at
    any n and count.  n and count are checked at the first draw.
    """
    import numpy as np
    if n < 1 or count < 1:
        raise ValueError(f"sampling needs n >= 1 and count >= 1, got {n}, {count}")
    rng = np.random.default_rng(seed)
    chunk = max(1, CHUNK_ENTRIES // entries)
    for start in range(0, count, chunk):
        yield draw(rng, min(chunk, count - start))


def _estimates(chunks: Callable, fns: dict, count: int, seed: int) -> dict:
    """SampleEstimates of each payload f(chunk) over the `count` i.i.d. draws of chunks().

    Each payload keeps only (draws, mean, sum of squared deviations), and a
    chunk's own three are merged in by the pairwise update of Chan, Golub and
    LeVeque (1983), which a large mean does not spoil, so memory does not grow
    with count.  The stderr is s / sqrt(N), s the sample standard deviation
    (ddof 1).  count is checked before chunks is called.
    """
    if count < 2:
        raise ValueError(f"a Monte Carlo stderr needs count >= 2, got {count}")
    acc = dict.fromkeys(fns, (0, 0.0, 0.0))
    for x in chunks():
        for name, f in fns.items():
            v = f(x)
            n_a, mean_a, ssd_a = acc[name]
            n_b, mean_b = len(v), float(v.mean())
            n, delta = n_a + n_b, mean_b - mean_a
            ssd_b = float(((v - mean_b) ** 2).sum())
            acc[name] = (n, mean_a + delta * n_b / n, ssd_a + ssd_b + delta**2 * n_a * n_b / n)
    return {
        name: SampleEstimate(mean, math.sqrt(ssd / (n - 1) / n), n, seed)
        for name, (n, mean, ssd) in acc.items()
    }


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


def _payload_text(desc) -> str:
    """desc as ``oracle quad --payload`` spells it (a sympoly has no flag: its repr)."""
    if desc[0] == "sympoly":
        return repr(desc)
    return ":".join(",".join(map(str, x)) if isinstance(x, (tuple, list)) else str(x) for x in desc)


def _payload(desc, n: int) -> tuple:
    """(f, symmetric, even) of a payload descriptor on n variables; every check is here.

    f maps points (N, n) to N values.  Descriptors: ("one",), ("monomial", lam),
    ("elementary", m) for e_m, ("sympoly", ((mu, coefficient), ...)); and, not
    symmetric, ("aomoto", (m1, m2, m3)) for prod_{i<=m1} t_i prod_{j=m1+1-m3}^{m1+m2-m3}
    (1 - t_j) and ("shifted", name) for prod_i (t_i - 1/2)^e_i, e = PAYLOAD_POWERS[name].
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
        powers = PAYLOAD_POWERS.get(desc[1])
        if powers is None:
            raise ValueError(f"unknown shifted payload {desc[1]!r}")
        if len(powers) > n:
            raise ValueError(f"payload {_payload_text(desc)} needs n >= {len(powers)}, got n={n}")

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
            raise ValueError(f"payload {_payload_text(desc)} needs m >= 0")
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


class QuadratureSpec(Value):
    """Deterministic tensor-product rule for one integrand.

    kind: "selberg" (params u, w, kappa on [0,1]^n) or "loggas"
    (params a, b, c on [-1,1]^n).  payload is a descriptor tuple, see
    _payload.  The rule has points_per_axis^n nodes, at most
    QUADRATURE_MAX_NODES.  Everything else is resolved and checked once, here,
    before any rule is built: weight is the Selberg weight on [0,1]^n that the
    integrand reduces to (parameters at which the integral diverges raise
    ParamOutOfRangeError); on_t_key, the log-gas map a and the payload, is what
    _on_t depends on besides node_key; scale multiplies the weighed sum.  The
    payload is checked here, but a spec holds no function.  The derived
    weight, on_t_key and scale take no part in equality, hash or repr.
    """

    _fields = ("kind", "n", "payload", "params", "points_per_axis")
    __slots__ = (*_fields, "weight", "on_t_key", "scale")

    def __init__(self, kind: str, n: int, payload: tuple, params: tuple, points_per_axis: int = 40):
        self._set(kind, n, payload, params, points_per_axis)
        put = object.__setattr__
        a = 0  # the log-gas map, none for a Selberg integrand
        if self.kind == "selberg":
            weight = SelbergParams(self.n, *self.params)
        elif self.kind == "loggas":
            a, b, c = (int(x) for x in self.params)
            weight = SelbergParams(self.n, *_loggas_selberg_params(a, b, c))
        else:
            raise ValueError(f"unknown quadrature kind {self.kind!r}")
        put(self, "weight", weight)
        _, _, even = _payload(self.payload, self.n)
        if a == 2 and not even:
            raise ValueError(
                "a=2 log-gas quadrature needs a payload even per variable,"
                f" got {_payload_text(self.payload)}"
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
            scale = scale * 2.0 ** (n + b * n * (n - 1) // 2)
        # a = 2, x = sqrt(t): an even integrand is 2^n times its [0,1]^n part; dx = dt / (2 sqrt t)
        put(self, "on_t_key", (a, repr(self.payload)))
        put(self, "scale", scale)


def _on_t(spec: QuadratureSpec) -> Callable:
    """spec's payload on t in [0,1]^n: log-gas map composed, symmetrised on a sector rule."""
    import numpy as np
    n, _, sector, _ = node_key(spec)
    f, symmetric, _ = _payload(spec.payload, n)
    if spec.on_t_key[0]:  # x = 2t - 1 (a = 1) or x = sqrt(t) (a = 2)
        f = lambda t, on_box=f, a=spec.on_t_key[0]: on_box(2.0 * t - 1.0 if a == 1 else np.sqrt(t))
    return _symmetrized(f, n) if sector and not symmetric else f


def coarse_spec(spec: QuadratureSpec) -> QuadratureSpec:
    """spec on the coarser rule that quadrature's error estimate compares it with."""
    coarse_pts = max(8, spec.points_per_axis - max(4, spec.points_per_axis // 3))
    return QuadratureSpec(spec.kind, spec.n, spec.payload, spec.params, coarse_pts)


def quadrature(spec: QuadratureSpec) -> tuple[float, float]:
    """(value, error_estimate); the estimate compares two resolutions."""
    fine, coarse = quadrature_values([spec, coarse_spec(spec)])
    return fine, abs(fine - coarse)


def quadrature_values(specs) -> list[float]:
    """The value of each spec on its own rule, without an error estimate.

    Specs go by node set, the largest first, so the sets left in the cache are
    small.  Each distinct payload (and log-gas map) is resolved and evaluated
    once per node set, and weighed by every spec there in one fixed order.
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
            vals = _on_t(specs[idx[0]])(nodes[0])
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
    the Cholesky factor of I - A^2, and draws d.  Nothing is rejected.  No
    inverse is kept: p + q = 2|y|^2, and since (I - A)^-1 - (I + A)^-1 =
    2 A (I - A^2)^-1, p - q = 2 b*A z with z = (I - A^2)^-1 b = R*^-1 y, one back
    substitution.  So d = q - 1 + L u = |y|^2 - b*A z - 1 + 2 (1 - |y|^2) u with
    u ~ Beta(s + 1, s + 1).  Every entry is an m-vector.  Each draw is exactly
    uniform, although its last row is drawn last.
    """
    import numpy as np
    beta = 2 if kind == "hermitian" else 1

    def symmetric_beta(s):  # Beta(s + 1, s + 1) draws; uniform at s = 0
        return rng.random(m) if s == 0 else rng.beta(s + 1, s + 1, m)

    a = 2.0 * symmetric_beta((n - 1) * beta / 2) - 1.0
    A = [[a]]  # A[i][j] holds entry (i, j) of every draw
    for k in range(1, n):
        s = (n - k - 1) * beta / 2
        g = rng.standard_normal((k, m))
        if beta == 2:
            g = g + 1j * rng.standard_normal((k, m))
        norm2 = (g.real**2 + g.imag**2).sum(axis=0)
        r2 = rng.beta(beta * k / 2, 2 * s + 2, m)
        y = g * np.sqrt(r2 / norm2)
        # R: lower Cholesky factor of I - A^2
        R = [[None] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1):
                acc = float(i == j) - sum(A[i][l] * A[l][j] for l in range(k))
                acc = acc - sum(R[i][l] * np.conj(R[j][l]) for l in range(j))
                R[i][j] = np.sqrt(acc.real) if i == j else acc / R[j][j]
        b = [sum(R[i][j] * y[j] for j in range(i + 1)) for i in range(k)]
        # z = R*^-1 y = (I - A^2)^-1 b, by back substitution on R*
        z = [None] * k
        for i in reversed(range(k)):
            z[i] = (y[i] - sum(np.conj(R[j][i]) * z[j] for j in range(i + 1, k))) / R[i][i]
        Az = [sum(A[i][j] * z[j] for j in range(k)) for i in range(k)]
        bAz = sum((np.conj(b[i]) * Az[i]).real for i in range(k))  # (p - q) / 2
        d = r2 - bAz - 1.0 + 2.0 * (1.0 - r2) * symmetric_beta(s)
        for i in range(k):
            A[i].append(b[i])
        A.append([np.conj(bi) for bi in b] + [d])
    return np.array(A, dtype=complex if beta == 2 else float).transpose(2, 0, 1)


def _haar_block(kind: str, n: int, rng, m: int) -> np.ndarray:
    """m exactly uniform draws from the full operator-norm ball, shape (m, n, n).

    Let beta = 1 (full-real, F = R) or 2 (full-complex, F = C).  The n x n
    leading block of a Haar frame of n orthonormal rows in F^N has density
    proportional to det(I - T*T)^(beta (N - 2n + 1) / 2 - 1) on the ball
    (Zyczkowski and Sommers, J. Phys. A 33 (2000); Forrester, Log-gases and
    Random Matrices (2010), ch. 3), which is constant at N = 2n + 1 (real) and
    N = 2n (complex).  The frame is L^-1 G, G an n x N standard Gaussian over F
    and L the Cholesky factor of G G*: G = L (L^-1 G) is G's LQ factorisation,
    and since G U has G's law for every unitary U, so has L^-1 G U, which is
    therefore uniform on frames.  For example E|T_11|^2 = 1/N, which is
    1/(2n + 1) for full-real and 1/(2n) for full-complex, as the exact engine
    gives.  Nothing is rejected.
    """
    import numpy as np
    N = 2 * n + 1 if kind == "full-real" else 2 * n
    G = rng.standard_normal((m, n, N))
    if kind == "full-complex":
        G = G + 1j * rng.standard_normal((m, n, N))
    L = np.linalg.cholesky(G @ np.conj(G.transpose(0, 2, 1)))
    return np.linalg.solve(L, G[:, :, :n])


def rejection_sample_ball(ensemble_name: str, n: int, count: int, seed: int):
    """Yield batches of matrices uniform on the operator-norm unit ball.

    hermitian and symmetric are drawn by _sequential_self_adjoint, full-real
    and full-complex by _haar_block, in the chunks of _chunks.  Each draw
    is exactly uniform, hence exchangeable, and is yielded as drawn, in
    (batch_array, n_drawn) tuples, n_drawn counting the draws so far, until
    `count` matrices have been drawn.  The name, the positional signature and
    the yields are what perfbench/tracer.py wraps.
    """
    kind = ensemble_name.lower()
    if kind not in BALL_ENSEMBLES:
        raise ValueError(f"ball sampler covers {BALL_ENSEMBLES}, got {ensemble_name!r}")
    draw = _sequential_self_adjoint if kind in ("hermitian", "symmetric") else _haar_block
    drawn = 0
    for T in _chunks(lambda rng, m: draw(kind, n, rng, m), n, n * n, count, seed):
        drawn += len(T)
        yield T, drawn


def ball_second_moments(ensemble_name: str) -> dict:
    """Payloads of the ball second moments Re(T_11 T_22), |T_12|^2 and |T_11|^2.

    Each is averaged over every position it has in a draw: |T_ii|^2 over the n
    diagonal entries, |T_ij|^2 and Re(T_ii T_jj) over the n(n-1)/2 pairs i < j.
    The ball's law is invariant under conjugation by a permutation, so the
    means are those of the (1, 1) and (1, 2) positions, with a smaller
    variance; each payload is still one i.i.d. value per draw.  T12sq and
    T11T22 need n >= 2.  Keyed as weingarten.self_adjoint_second_moments keys
    their exact values: |T_12|^2 is absT12sq on the hermitian ball and T12sq
    on the others.
    """
    import numpy as np

    def t11t22(T):
        i, j = np.triu_indices(T.shape[1], 1)
        return (T[:, i, i] * T[:, j, j]).real.mean(axis=1)

    def t12sq(T):
        i, j = np.triu_indices(T.shape[1], 1)
        return (abs(T[:, i, j]) ** 2).mean(axis=1)

    off = "absT12sq" if ensemble_name == "hermitian" else "T12sq"
    return {
        "T11T22": t11t22,
        off: t12sq,
        "T11sq": lambda T: (abs(np.diagonal(T, axis1=1, axis2=2)) ** 2).mean(axis=1),
    }


def ball_moment_estimate(ensemble_name: str, n: int, moment_fns: dict, count: int, seed: int) -> dict:
    """SampleEstimates of entry moments over `count` uniform ball draws.

    moment_fns maps names to vectorised callables f(T_batch) -> (B,) floats,
    each streamed through _estimates, so memory does not grow with count.
    """
    def chunks():
        return (T for T, _ in rejection_sample_ball(ensemble_name, n, count, seed))

    return _estimates(chunks, moment_fns, count, seed)


# ---------------------------------------------------------------------------
# exact i.i.d. sampler for the eigenvalue log-gas
# ---------------------------------------------------------------------------


LOGGAS_PAYLOADS = {
    "sum_sq": lambda p2, p4: p2,
    "sum_quartic": lambda p2, p4: p4,
    "cross_sq": lambda p2, p4: (p2**2 - p4) / 2.0,
}


def _beta_jacobi(rng, m: int, n: int, u: float, w: float, kappa: float) -> tuple:
    """(diagonal (m, n), off-diagonal (m, n - 1)) of m draws of a Jacobi matrix J.

    The weight prod t^(u-1) (1-t)^(w-1) |Delta(t)|^(2 kappa) is the beta-Jacobi
    ensemble with beta = 2 kappa, p = u/kappa - 1, q = w/kappa - 1; its points
    are the squared singular values of an upper bidiagonal matrix B with
    independent Beta-distributed entries (Edelman and Sutton, FoCM 8 (2008)),
    so the eigenvalues of J = B B^t.  The off-diagonal is taken >= 0, which
    changes no eigenvalue.
    """
    import numpy as np
    p, q = u / kappa - 1, w / kappa - 1
    i, j = np.arange(n, 0, -1), np.arange(n - 1, 0, -1)
    c2 = rng.beta(kappa * (p + i), kappa * (q + i), (m, n))  # c_n^2, ..., c_1^2
    cp2 = rng.beta(kappa * j, kappa * (p + q + 1 + j), (m, n - 1))  # c'_{n-1}^2, ..., c'_1^2
    diag2 = c2 * np.concatenate([np.ones((m, 1)), 1 - cp2], axis=1)  # B's squared diagonal
    sup2 = (1 - c2[:, :-1]) * cp2  # and superdiagonal
    return diag2 + np.concatenate([sup2, np.zeros((m, 1))], axis=1), np.sqrt(sup2 * diag2[:, 1:])


def _tridiagonal_traces(d, e) -> tuple:
    """(Tr M, Tr M^2, Tr M^4) per draw of the symmetric tridiagonal M = tri(e, d, e).

    Tr M^4 is the sum of the squared entries of M^2, whose diagonals are
    d_i^2 + e_(i-1)^2 + e_i^2, e_i (d_i + d_(i+1)) and e_i e_(i+1), and their mirrors.
    """
    e2 = e**2
    m2 = d**2  # the diagonal of M^2, which sums to Tr M^2
    m2[:, :-1] += e2
    m2[:, 1:] += e2
    first, second = e2 * (d[:, :-1] + d[:, 1:]) ** 2, e2[:, :-1] * e2[:, 1:]
    tr4 = (m2**2).sum(axis=1) + 2.0 * first.sum(axis=1) + 2.0 * second.sum(axis=1)
    return d.sum(axis=1), m2.sum(axis=1), tr4


def loggas_moment_estimate(
    a: int, b: int, c: int, n: int, payloads: dict, count: int, seed: int
) -> dict:
    """SampleEstimates of E[payload] under the (a, b, c) box log-gas.

    The density prod |x_i^a - x_j^a|^b prod |x_i|^c on [-1,1]^n is drawn
    exactly and i.i.d. from the beta-Jacobi matrix model, so there is no
    burn-in and no chain.  payloads maps labels to names in LOGGAS_PAYLOADS,
    read from the power sums p2, p4 of the points as traces of _beta_jacobi's J,
    with no eigensolver: for a = 1, x = 2t - 1, so p_k = Tr X^k with X = 2J - I;
    for a = 2, x^2 = t, so (p2, p4) = (Tr J, Tr J^2).  Draws come in the
    chunks of _chunks, so memory is bounded at any n and count.
    """
    u, w, kappa = (float(x) for x in _loggas_selberg_params(a, b, c))
    if b <= 0:
        raise ValueError(f"log-gas sampler needs b > 0, got {b}")
    unknown = set(payloads.values()) - set(LOGGAS_PAYLOADS)
    if unknown:
        raise ValueError(f"unknown payloads {sorted(unknown)}; known: {sorted(LOGGAS_PAYLOADS)}")
    fns = {label: lambda p, f=LOGGAS_PAYLOADS[name]: f(*p) for label, name in payloads.items()}

    def draw(rng, m):
        d, e = _beta_jacobi(rng, m, n, u, w, kappa)
        return _tridiagonal_traces(2 * d - 1, 2 * e)[1:] if a == 1 else _tridiagonal_traces(d, e)[:2]

    return _estimates(lambda: _chunks(draw, n, n, count, seed), fns, count, seed)


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------


def _haar_chunks(group: str, n: int, seed: int, count: int):
    """The chunks of `count` Haar matrices: one stacked, phase-corrected QR each."""
    import numpy as np
    if group not in ("unitary", "orthogonal"):
        raise ValueError(f"group must be unitary|orthogonal, got {group!r}")

    def draw(rng, m):
        z = rng.standard_normal((m, n, n))
        if group == "unitary":
            z = (z + 1j * rng.standard_normal((m, n, n))) / math.sqrt(2)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=1, axis2=2)
        return q * (d / np.abs(d))[:, None, :]

    return _chunks(draw, n, n * n, count, seed)


def haar_moment_estimate(group: str, n: int, moment_fns: dict, count: int, seed: int) -> dict:
    """SampleEstimates of entry moments over `count` Haar matrices, as ball_moment_estimate."""
    return _estimates(lambda: _haar_chunks(group, n, seed, count), moment_fns, count, seed)
