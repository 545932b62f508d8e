"""Perron root machinery for tilted transition matrices.

For an environment with tilted moments m_ij(theta), let rho(theta) denote the
dominant eigenvalue of the K x K matrix (m_ij(theta)).  Everything downstream
derives from log rho and its derivative d(theta) = rho'(theta)/rho(theta)
(the per-generation mean of log box size under the theta-tilted law):

    psi(theta) = log rho - theta * d          box-count exponent
    phi(theta) = log rho - (theta - 1) * d    size-biased window rate
    f = psi                                   (random-environment analogue)

and the decay constants of the extreme boxes,

    c(theta) = rho / (-rho') = -1 / d,

whose one-sided limits give the smallest-box constant (saturation levels) and
the largest-box constant (heights in the large-threshold regime).

Internally every evaluation is one dense eigen-solve of a rescaled matrix
B = exp(L' - s) and of its transpose, with L' a diagonal similarity of
L = (ln m_ij) that levels the dominant cycles and s = max L', so that
extreme tilts neither overflow nor underflow; log rho = s + log rho(B).
The one-sided limits of c(theta) are exact: extreme mean cycles of the
log-entries, from max-plus matrix powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .envs import DIRICHLET, EnvironmentModel, dlog_moment_matrix, log_moment_matrix
from .errors import (
    ConditionsNotMet,
    DomainTooNarrow,
    NotStrictlyConvex,
    OutsideRegime,
    ThetaOutOfDomain,
    ZOutOfRange,
)

_DOUBLING_KS = range(4, 15)          # theta = +-2^4 .. +-2^14 for rate boundary values
_GRID_POINTS = 512
_ENTRY_CLIP_LOG = math.log(1e12)     # working grids avoid moments above 1e12
_CONVEXITY_EPS = 1e-9
_ROOT_XTOL = 1e-10


@dataclass(frozen=True)
class TiltedMatrix:
    """Entrywise tilted moment matrix; entry (i,j) is 0 exactly off the support."""

    K: int
    theta: float
    entries: np.ndarray


@dataclass(frozen=True)
class PerronTriplet:
    """Dominant eigenvalue with right/left eigenvectors, w.v = 1, ||v||_1 = 1.

    residual is the larger of the two relative eigen-residuals in max norm.
    """

    rho: float
    v: np.ndarray
    w: np.ndarray
    residual: float


@dataclass(frozen=True)
class ShapeValues:
    theta: float
    log_rho: float
    drift: float          # rho'/rho, nats per generation (negative)
    psi: float
    phi: float
    f: float


@dataclass(frozen=True)
class ConstantsReport:
    domain_lo: float
    domain_hi: float
    c_star_lower: float            # smallest-box decay constant (saturation slope)
    c_star_upper: float            # largest-box decay constant (height slope, large j)
    theta_star_lower: float        # left endpoint of {f > 0} (may be -inf)
    theta_star_upper: float        # right endpoint of {f > 0} (may be +inf)
    condition_saturation_ok: bool
    notes: str


@dataclass(frozen=True)
class SpectralProfile:
    thetas: np.ndarray
    shapes: tuple                   # ShapeValues per grid point, ascending theta
    triplets: tuple                 # PerronTriplet per grid point
    constants: ConstantsReport


# --------------------------------------------------------------------------
# eigen-solver
# --------------------------------------------------------------------------

def _perron(B: np.ndarray) -> tuple:
    """(rho, v, w) of a nonnegative primitive matrix B, w.v = 1, ||v||_1 = 1.

    One dense eigen-solve of B and one of B^T; the Perron root is the
    eigenvalue with the largest real part.  Scaling v to sum 1 and w to
    w.v = 1 also fixes their signs.
    """
    vals, vecs = np.linalg.eig(B)
    k = int(np.argmax(vals.real))
    v = vecs[:, k].real
    v = v / v.sum()
    vals_t, vecs_t = np.linalg.eig(B.T)
    w = vecs_t[:, int(np.argmax(vals_t.real))].real
    return float(vals[k].real), v, w / (w @ v)


def _maxplus(P: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Max-plus product: out_il = max_j P_ij + W_jl, in O(K^2) memory."""
    out = np.full(P.shape, -np.inf)
    for j in range(W.shape[0]):
        np.maximum(out, P[:, j, None] + W[j], out=out)
    return out


@lru_cache(maxsize=64)
def _critical(env: EnvironmentModel, sign: int) -> tuple:
    """(lam, u) for the log-entries W that dominate as theta -> sign * inf.

    W is sign * ln p for fixed rows; for mixtures ln max_c p^(c) (sign +1)
    or -ln min_c p^(c) (sign -1); -inf off the support.  lam is the largest
    cycle mean of W: every closed walk splits into simple cycles, of length
    at most K, so lam = max over k <= K of (max-plus trace of W^k) / k.
    u holds potentials with W_ij + u_j - u_i <= lam, with equality along a
    critical cycle: u_i is the heaviest walk of W - lam from i into one
    critical node.
    """
    if env.is_deterministic:
        P = env.rows
    else:
        P = env.comps.max(axis=0) if sign > 0 else env.comps.min(axis=0)
    W = np.where(env.support, sign * np.log(np.where(env.support, P, 1.0)), -np.inf)
    Wk, lam = W, float(np.diag(W).max())
    for k in range(2, env.K + 1):
        Wk = _maxplus(Wk, W)
        lam = max(lam, float(np.diag(Wk).max()) / k)
    A = W - lam
    Ak = plus = A
    for _ in range(env.K - 1):
        Ak = _maxplus(Ak, A)
        plus = np.maximum(plus, Ak)
    return lam, plus[:, int(np.argmax(np.diag(plus)))]


def _eval(env: EnvironmentModel, theta: float) -> tuple:
    """(log rho, drift) at theta; drift = rho'/rho by the perturbation identity.

    The eigen-solve runs on B = exp(L' - max L'), where L'_ij = L_ij +
    |theta| (u_j - u_i) is a diagonal similarity of the log-moment matrix L
    with the potentials of _critical: it levels the arcs of the cycles that
    dominate at large |theta|, so none of them underflows at extreme tilts.
    The eigenvalues and w (D * B) v / (w v) do not depend on the similarity.
    Dirichlet log-moments grow only like ln theta and need no leveling.
    """
    L = log_moment_matrix(env, theta)      # -inf off the support
    if env.kind != DIRICHLET:
        u = abs(theta) * _critical(env, 1 if theta >= 0 else -1)[1]
        L = L + (u[None, :] - u[:, None])
    s = L.max()
    B = np.exp(L - s)
    rho_b, v, w = _perron(B)
    D = dlog_moment_matrix(env, theta)
    drift = float(w @ ((D * B) @ v)) / rho_b
    return s + math.log(rho_b), drift


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------

def tilted_matrix(env: EnvironmentModel, theta: float) -> TiltedMatrix:
    """Entrywise theta-th moments of the transition row law."""
    L = log_moment_matrix(env, theta)      # raises ThetaOutOfDomain
    with np.errstate(over="ignore"):
        entries = np.where(env.support, np.exp(L), 0.0)
    if not np.isfinite(entries[env.support]).all():
        i, j = np.argwhere(~np.isfinite(np.where(env.support, entries, 0.0)))[0]
        raise ThetaOutOfDomain(
            f"tilted entry ({i + 1},{j + 1}) overflows the float range at theta={theta!r}",
            entry=(int(i) + 1, int(j) + 1),
        )
    return TiltedMatrix(K=env.K, theta=theta, entries=entries)


def perron_triplet(matrix: TiltedMatrix) -> PerronTriplet:
    A = matrix.entries
    rho, v, w = _perron(A)
    resid = max(np.abs(A @ v - rho * v).max() / np.abs(v).max(),
                np.abs(A.T @ w - rho * w).max() / np.abs(w).max())
    return PerronTriplet(rho=rho, v=v, w=w, residual=float(resid))


def rho_prime(env: EnvironmentModel, theta: float) -> float:
    """rho'(theta) via the eigenvalue perturbation identity w^T A'(theta) v."""
    log_rho, drift = _eval(env, theta)
    return drift * math.exp(log_rho)


def shape_values(env: EnvironmentModel, theta: float) -> ShapeValues:
    log_rho, drift = _eval(env, theta)
    psi = log_rho - theta * drift
    phi = log_rho - (theta - 1.0) * drift
    return ShapeValues(theta=theta, log_rho=log_rho, drift=drift,
                       psi=psi, phi=phi, f=psi)


def rate_function(env: EnvironmentModel, z: float) -> float:
    """Legendre rate sup_mu (mu z - log rho(mu+1)) for the size-biased log walk.

    z must lie in the closure of attainable drifts; the boundary values are
    handled as one-sided limits.  Vanishes at z = drift(1), the law-of-large-
    numbers slope.  Dirichlet drifts have no lower end: the smallest-alpha
    moment blows up as theta -> domain_lo, so the drift tends to -inf there.
    """
    bounded = math.isfinite(env.domain_lo)
    d_lo = -math.inf if bounded else -1.0 / _c_limit(env, -1)
    d_hi = -1.0 / _c_limit(env, +1)
    tol = 1e-9 * max(1.0, abs(z))
    if abs(d_hi - d_lo) <= 1e-12:
        # affine log rho: single attainable drift, degenerate conjugate
        if abs(z - d_hi) <= max(tol, 1e-9):
            return 0.0
        raise ZOutOfRange(f"z = {z!r} differs from the only attainable drift {d_hi!r}")
    if z < d_lo - tol or z > d_hi + tol:
        raise ZOutOfRange(f"z = {z!r} outside attainable drifts [{d_lo!r}, {d_hi!r}]")
    z = min(max(z, d_lo), d_hi)        # within tol past an end: that end's value

    lo_t, hi_t = (0.5 * env.domain_lo if bounded else -2.0), 2.0
    while _eval(env, lo_t)[1] > z and (bounded or lo_t > -(2.0 ** 14)):
        if not bounded:
            lo_t *= 2.0
        elif env.domain_lo < 0.5 * (lo_t + env.domain_lo) < lo_t:
            lo_t = 0.5 * (lo_t + env.domain_lo)      # halve the distance to domain_lo
        else:
            raise ZOutOfRange(f"z = {z!r} lies below the drifts resolvable in float64")
    while _eval(env, hi_t)[1] < z and hi_t < 2.0 ** 14:
        hi_t *= 2.0
    if _eval(env, lo_t)[1] > z or _eval(env, hi_t)[1] < z:
        # boundary value: evaluate the conjugate along the doubling schedule
        sign = 1.0 if z > (d_lo + d_hi) / 2 else -1.0
        prev = None
        for k in _DOUBLING_KS:
            th = sign * float(2 ** k)
            h = (th - 1.0) * z - _eval(env, th)[0]
            if prev is not None and abs(h - prev) <= 1e-9 * max(1.0, abs(h)):
                return h
            prev = h
        return h
    for _ in range(200):
        mid = 0.5 * (lo_t + hi_t)
        if _eval(env, mid)[1] < z:
            lo_t = mid
        else:
            hi_t = mid
    th = 0.5 * (lo_t + hi_t)
    return (th - 1.0) * z - _eval(env, th)[0]


def _c_limit(env: EnvironmentModel, sign: int) -> float:
    """Exact limit of rho/(-rho') = -1/drift as theta -> sign * inf.

    The drift tends to the largest cycle mean of the log-entries dominating
    at that end (see _critical).  Dirichlet drifts tend to 0 from below as
    theta -> +inf, and theta -> -inf leaves the domain.
    """
    if env.kind == DIRICHLET:
        if sign < 0:
            raise ThetaOutOfDomain(
                f"cannot take the theta -> -inf limit: domain "
                f"({env.domain_lo!r}, {env.domain_hi!r}) is bounded on that side"
            )
        return math.inf
    return -1.0 / (sign * _critical(env, sign)[0])


def _f_of(env: EnvironmentModel) -> Callable[[float], float]:
    def f(theta: float) -> float:
        log_rho, drift = _eval(env, theta)
        return log_rho - theta * drift
    return f


def _refine_zero(f: Callable[[float], float], a: float, b: float) -> float:
    fa = f(a)
    for _ in range(200):
        if b - a <= _ROOT_XTOL:
            break
        mid = 0.5 * (a + b)
        fm = f(mid)
        if (fa > 0) == (fm > 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def _clip_to_entries(env: EnvironmentModel) -> float:
    """Smallest workable theta: moments at most 1e12 (left boundary blow-up)."""
    lo_b = env.domain_lo
    a, b = lo_b, 0.0
    for _ in range(200):
        mid = 0.5 * (a + b)
        if log_moment_matrix(env, mid)[env.support].max() > _ENTRY_CLIP_LOG:
            a = mid
        else:
            b = mid
    if b <= lo_b:
        b = lo_b + 1e-12 * max(1.0, abs(lo_b))
    return b


@lru_cache(maxsize=64)
def asymptotic_constants(env: EnvironmentModel) -> ConstantsReport:
    """Decay constants of the extreme boxes and the f-positivity interval.

    Deterministic environments: both constants are the exact theta -> +-inf
    limits of rho/(-rho'), -1 over the extreme mean cycles of ln p.

    Random environments: condition (strict convexity of log rho) is verified
    on the working grid, the endpoints of {f > 0} are located by sign scan
    plus bisection, and the constants are the one-sided limits of -1/drift at
    those endpoints.
    """
    if env.is_deterministic:
        return ConstantsReport(
            domain_lo=env.domain_lo, domain_hi=env.domain_hi,
            c_star_lower=_c_limit(env, -1), c_star_upper=_c_limit(env, +1),
            theta_star_lower=-math.inf, theta_star_upper=math.inf,
            condition_saturation_ok=True,
            notes="deterministic regime; constants from the extreme mean cycles of ln p",
        )

    f = _f_of(env)
    # working interval: clip the left end to moments <= 1e12, expand the right
    # end (and an unbounded left end) by doubling until f changes sign
    hi = 1.0
    while f(hi) > 0 and hi < 2.0 ** 14:
        hi *= 2.0
    if env.domain_lo == -math.inf:
        lo = -1.0
        while f(lo) > 0 and lo > -(2.0 ** 14):
            lo *= 2.0
    else:
        lo = _clip_to_entries(env)
    grid = np.linspace(lo, hi, _GRID_POINTS)
    pts = [_eval(env, t) for t in grid]
    log_rho_g = np.array([p[0] for p in pts])
    f_g = np.array([p[0] - t * p[1] for p, t in zip(pts, grid)])

    # condition check: log rho convex on the grid, with a genuinely increasing
    # drift (strictness).  The raw second differences underflow far from the
    # origin even for strictly convex spectra, so strictness is measured by
    # the total drift increase instead.
    second = np.diff(log_rho_g, 2)
    if second.min() < -_CONVEXITY_EPS:
        raise NotStrictlyConvex(
            f"log rho shows concavity on the working grid (min second "
            f"difference {second.min()!r})"
        )
    if pts[-1][1] - pts[0][1] <= _CONVEXITY_EPS:
        raise NotStrictlyConvex(
            "drift does not increase across the working grid: log rho is "
            "affine to numerical precision"
        )
    if f_g.max() <= 0:
        raise DomainTooNarrow("f is nonpositive on the entire working grid")

    crossings = []
    for i in range(len(grid) - 1):
        if (f_g[i] > 0 > f_g[i + 1]) or (f_g[i] < 0 < f_g[i + 1]):
            crossings.append(_refine_zero(f, grid[i], grid[i + 1]))
        elif f_g[i] == 0.0 and i > 0 and (f_g[i - 1] > 0 > f_g[i + 1]
                                          or f_g[i - 1] < 0 < f_g[i + 1]):
            crossings.append(float(grid[i]))     # zero landed on a grid point
    left_zeros = [c for c in crossings if c < 0]
    right_zeros = [c for c in crossings if c >= 0]

    notes = []
    if right_zeros:
        theta_hi = float(right_zeros[0])
        zeta_hi = float(-1.0 / _eval(env, theta_hi)[1])
        notes.append(f"upper endpoint located by bisection at {theta_hi!r}")
    else:
        theta_hi = math.inf
        zeta_hi = _c_limit(env, +1)
        notes.append("f stays positive along the doubling schedule; upper endpoint +inf")

    condition_ok = False
    if left_zeros:
        theta_lo = float(left_zeros[0])
        zeta_lo = float(-1.0 / _eval(env, theta_lo)[1])
        condition_ok = theta_lo < 0    # f vanishes there by continuity
        notes.append(f"lower endpoint is an interior zero at {theta_lo!r}; f -> 0 there")
    elif env.domain_lo == -math.inf:
        theta_lo = -math.inf
        zeta_lo = _c_limit(env, -1)
        notes.append("f stays positive toward -inf; saturation conditions fail")
    else:
        theta_lo = env.domain_lo
        # extrapolate f linearly from the innermost 5 grid points to the boundary
        xs, ys = grid[:5], f_g[:5]
        slope, intercept = np.polyfit(xs, ys, 1)
        f_lim = float(slope * env.domain_lo + intercept)
        condition_ok = bool(abs(f_lim) < 1e-6 and env.domain_lo < 0)
        zeta_lo = float(-1.0 / pts[0][1])
        notes.append(
            f"f positive down to the domain boundary; extrapolated limit {f_lim!r}"
        )

    return ConstantsReport(
        domain_lo=env.domain_lo, domain_hi=env.domain_hi,
        c_star_lower=zeta_lo, c_star_upper=zeta_hi,
        theta_star_lower=theta_lo, theta_star_upper=theta_hi,
        condition_saturation_ok=condition_ok, notes="; ".join(notes),
    )


def predicted_height_constant(
    env: EnvironmentModel,
    j: Optional[int] = None,
    power_alpha: Optional[float] = None,
) -> float:
    """Slope of height / ln(m) for threshold j, or for j = ceil(m^alpha).

    Deterministic: j / (-log rho(j)) for fixed j >= 2, (1 - alpha) * c_upper
    for the power regime.  Random environment: j / (-log rho(j)) below the
    upper f endpoint, the largest-box constant at or above it; below the lower
    endpoint no prediction exists.
    """
    if (j is None) == (power_alpha is None):
        raise ValueError("pass exactly one of j or power_alpha")
    if power_alpha is not None:
        if not (0.0 < power_alpha < 1.0):
            raise ValueError(f"power_alpha must lie in (0,1), got {power_alpha!r}")
        if not env.is_deterministic:
            raise OutsideRegime("the power regime is predicted only for deterministic environments")
        return (1.0 - power_alpha) * asymptotic_constants(env).c_star_upper
    if j < 2:
        raise ValueError(f"threshold j must be >= 2, got {j!r}")
    if env.is_deterministic:
        return j / (-_eval(env, float(j))[0])
    report = asymptotic_constants(env)
    if j <= report.theta_star_lower:
        raise OutsideRegime(
            f"j = {j} is at or below the lower f endpoint {report.theta_star_lower!r}; "
            "no height prediction exists there"
        )
    if j >= report.theta_star_upper:
        return report.c_star_upper
    return j / (-_eval(env, float(j))[0])


def predicted_saturation_constant(env: EnvironmentModel) -> float:
    """Slope of saturation level / ln(m); independent of the threshold j."""
    report = asymptotic_constants(env)
    if env.is_deterministic:
        return report.c_star_lower
    if not report.condition_saturation_ok:
        raise ConditionsNotMet(
            f"saturation-regime conditions fail for this environment: {report.notes}"
        )
    return report.c_star_lower


def spectral_profile(env: EnvironmentModel, theta_grid: Sequence[float]) -> SpectralProfile:
    """Tabulated shape values, eigen-triplets, and constants over a theta grid."""
    for idx, theta in enumerate(theta_grid):
        if not (env.domain_lo < theta < env.domain_hi):
            raise ThetaOutOfDomain(
                f"grid point {idx} (theta = {theta!r}) outside the domain "
                f"({env.domain_lo!r}, {env.domain_hi!r})",
                grid_index=idx,
            )
    thetas = np.sort(np.asarray(theta_grid, dtype=float))
    shapes = []
    triplets = []
    for theta in thetas:
        shapes.append(shape_values(env, theta))
        triplets.append(perron_triplet(tilted_matrix(env, theta)))
    return SpectralProfile(
        thetas=thetas,
        shapes=tuple(shapes),
        triplets=tuple(triplets),
        constants=asymptotic_constants(env),
    )
