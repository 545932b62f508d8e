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

Internally every tilt is evaluated on a rescaled matrix B = exp(L' - s),
with L' a diagonal similarity of L = (ln m_ij) that levels the dominant
cycles and s = max L', so that extreme tilts neither overflow nor underflow;
log rho = s + log rho(B).  An evaluation takes a stack of tilts, at most
_TILT_CHUNK of them, and makes one dense eigen-solve call over every B of
the stack and every transpose; a single tilt is the one-point stack.
The one-sided limits of c(theta) are exact: extreme mean cycles of the
log-entries, from max-plus matrix powers.  So are the limits f(+-inf), from
the Perron root of the critical cycles' weights; with them and the convexity
of log rho, each zero of f is one monotone root solve.
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
    NotStrictlyConvex,
    OutsideRegime,
    ThetaOutOfDomain,
    ZOutOfRange,
)

_ROOT_XTOL = 1e-10
_BRACKET_STEPS = 64       # root brackets walk out to |theta| = 2^63
_TIE_TOL = 1e-12          # log-scale ties: cycle means, drift limits, f(+-inf) vs 0
_TILT_CHUNK = 128         # tilts per stacked evaluation: bounds its arrays at any grid length


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
    constants: ConstantsReport


# --------------------------------------------------------------------------
# eigen-solver
# --------------------------------------------------------------------------

def _perron(B: np.ndarray) -> list:
    """(rho, v, w) of each nonnegative primitive matrix of an (n, K, K) stack,
    w.v = 1, ||v||_1 = 1.

    One dense eigen-solve call over the 2n matrices of B and B^T; the Perron
    root is the eigenvalue with the largest real part.  Scaling v to sum 1
    and w to w.v = 1 also fixes their signs.  Each point is normalized on
    its own, so its triplet is the one of its matrix alone, to the last bit.
    """
    n = B.shape[0]
    vals, vecs = np.linalg.eig(np.concatenate([B, B.transpose(0, 2, 1)]))
    ks = vals.real.argmax(axis=1).tolist()
    out = []
    for i in range(n):
        v = vecs[i, :, ks[i]].real
        v = v / v.sum()
        w = vecs[n + i, :, ks[n + i]].real
        out.append((float(vals[i, ks[i]].real), v, w / (w @ v)))
    return out


def _maxplus(P: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Max-plus product: out_il = max_j P_ij + W_jl, in O(K^2) memory."""
    out = np.full(P.shape, -np.inf)
    for j in range(W.shape[0]):
        np.maximum(out, P[:, j, None] + W[j], out=out)
    return out


@lru_cache(maxsize=64)
def _critical(env: EnvironmentModel, sign: int) -> tuple:
    """(lam, u, f_end) for the log-entries W that dominate as theta -> sign * inf.

    W is sign * ln p for fixed rows; for mixtures ln max_c p^(c) (sign +1)
    or -ln min_c p^(c) (sign -1); -inf off the support.  lam is the largest
    cycle mean of W: every closed walk splits into simple cycles, of length
    at most K, so lam = max over k <= K of (max-plus trace of W^k) / k.
    u holds potentials with W_ij + u_j - u_i <= lam, with equality along a
    critical cycle: u_i is the heaviest walk of W - lam from i into one
    critical node.

    f_end = ln rho(C) is the exact limit of f at that end.  The tilted
    moments are e^{|theta| W_ij} (c_ij + o(1)), with c_ij the summed weight
    of the components attaining the extreme (1 for fixed rows), so
    rho(theta) e^{-|theta| lam} -> rho(C), where C keeps c on the arcs of
    critical cycles and is 0 elsewhere (Akian, Bapat & Gaubert 1998).
    """
    if env.is_deterministic:
        P, c = env.rows, env.support.astype(float)
    else:
        P = env.comps.max(axis=0) if sign > 0 else env.comps.min(axis=0)
        c = np.tensordot(env.weights, env.comps == P, axes=1)
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
    # arc (i, j) is critical when the heaviest closed walk through it,
    # A_ij + (heaviest walk j -> i, 0 if j = i), has weight 0
    back = plus.T.copy()
    np.fill_diagonal(back, np.maximum(np.diag(back), 0.0))
    tol = _TIE_TOL * env.K * max(1.0, float(np.abs(W[env.support]).max()))
    C = np.where(A + back >= -tol, c, 0.0)
    f_end = math.log(float(np.linalg.eigvals(C).real.max()))
    return lam, plus[:, int(np.argmax(np.diag(plus)))], f_end


def _eval(env: EnvironmentModel, theta) -> tuple:
    """(log rho, drift) at theta; drift = rho'/rho by the perturbation identity.

    theta is one tilt, or a 1-D array of at most _TILT_CHUNK tilts, which
    gives two arrays, each point equal to the last bit to its tilt alone.
    The eigen-solve runs on B = exp(L' - max L'), where L'_ij = L_ij +
    |theta| (u_j - u_i) is a diagonal similarity of the log-moment matrix L
    with the potentials of _critical: it levels the arcs of the cycles that
    dominate at large |theta|, so none of them underflows at extreme tilts.
    The eigenvalues and w (D * B) v / (w v) do not depend on the similarity.
    Dirichlet log-moments grow only like ln theta and need no leveling.
    """
    theta = np.asarray(theta, dtype=float)
    thetas = theta.reshape(-1)
    L = log_moment_matrix(env, thetas)     # (n, K, K), -inf off the support
    if env.kind != DIRICHLET:
        u = np.abs(thetas)[:, None] * np.array(
            [_critical(env, 1 if t >= 0 else -1)[1] for t in thetas.tolist()])
        L = L + (u[:, None, :] - u[:, :, None])
    s = L.max(axis=(1, 2))
    B = np.exp(L - s[:, None, None])
    DB = dlog_moment_matrix(env, thetas) * B
    log_rho, drift = [], []
    for s_i, DB_i, (rho_b, v, w) in zip(s.tolist(), DB, _perron(B)):
        log_rho.append(s_i + math.log(rho_b))
        drift.append(float(w @ (DB_i @ v)) / rho_b)
    if theta.ndim:
        return np.array(log_rho), np.array(drift)
    return log_rho[0], drift[0]


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
    (rho, v, w), = _perron(A[None])
    resid = max(np.abs(A @ v - rho * v).max() / np.abs(v).max(),
                np.abs(A.T @ w - rho * w).max() / np.abs(w).max())
    return PerronTriplet(rho=rho, v=v, w=w, residual=float(resid))


def _shape(theta: float, log_rho: float, drift: float) -> ShapeValues:
    psi = log_rho - theta * drift
    phi = log_rho - (theta - 1.0) * drift
    return ShapeValues(theta=theta, log_rho=log_rho, drift=drift,
                       psi=psi, phi=phi, f=psi)


def shape_values(env: EnvironmentModel, theta: float) -> ShapeValues:
    return _shape(theta, *_eval(env, theta))


def rate_function(env: EnvironmentModel, z: float) -> float:
    """Legendre rate sup_mu (mu z - log rho(mu+1)) for the size-biased log walk.

    z must lie in the closure of attainable drifts [d-, d+].  Inside, the
    supremum sits at the theta = mu + 1 with drift(theta) = z, found by one
    monotone root solve.  The ends are exact: I(d+-) = -d+- - f(+-inf), with
    f(+-inf) = ln rho(C+-) from _critical.  Vanishes at z = drift(1), the
    law-of-large-numbers slope.  Dirichlet drifts fill (-inf, 0): the
    smallest-alpha moment blows up as theta -> domain_lo, and the rate is
    +inf at z = 0.
    """
    d_lo, d_hi = _drift_end(env, -1), _drift_end(env, +1)
    tol = 1e-9 * max(1.0, abs(z))
    if d_hi - d_lo <= _TIE_TOL:
        # affine log rho: single attainable drift, degenerate conjugate
        if abs(z - d_hi) <= max(tol, 1e-9):
            return 0.0
        raise ZOutOfRange(f"z = {z!r} differs from the only attainable drift {d_hi!r}")
    if z < d_lo - tol or z > d_hi + tol:
        raise ZOutOfRange(f"z = {z!r} outside attainable drifts [{d_lo!r}, {d_hi!r}]")
    z = min(max(z, d_lo), d_hi)        # within tol past an end: that end's value
    if z == d_hi and env.kind == DIRICHLET:
        return math.inf
    if z in (d_lo, d_hi):
        return -z - _critical(env, 1 if z == d_hi else -1)[2]

    def gap(theta: float) -> float:
        return _eval(env, theta)[1] - z

    gap0 = gap(0.0)
    theta = _root(env, gap, gap0, 1 if gap0 < 0 else -1)
    if theta is None:
        raise ZOutOfRange(f"z = {z!r} lies beyond the drifts resolvable in float64")
    return (theta - 1.0) * z - _eval(env, theta)[0]


def _drift_end(env: EnvironmentModel, sign: int) -> float:
    """Exact limit of the drift as theta -> sign * inf (or -> domain_lo).

    The drift tends to the largest cycle mean of the log-entries dominating
    at that end (see _critical).  Dirichlet drifts tend to 0 from below as
    theta -> +inf and to -inf as theta -> domain_lo.
    """
    if env.kind == DIRICHLET:
        return 0.0 if sign > 0 else -math.inf
    return sign * _critical(env, sign)[0]


def _c_limit(env: EnvironmentModel, sign: int) -> float:
    """Exact limit of rho/(-rho') = -1/drift as theta -> sign * inf."""
    if env.kind == DIRICHLET:
        if sign < 0:
            raise ThetaOutOfDomain(
                f"cannot take the theta -> -inf limit: domain "
                f"({env.domain_lo!r}, {env.domain_hi!r}) is bounded on that side"
            )
        return math.inf
    return -1.0 / _drift_end(env, sign)


def _walk(env: EnvironmentModel, sign: int) -> list:
    """Tilts walking out from 0 on one side: sign * 2^k for k < _BRACKET_STEPS,
    or, toward a finite domain_lo, points halving the distance left to it
    until they reach it in float64."""
    lo = env.domain_lo
    if sign < 0 and math.isfinite(lo):
        return [t for t in (lo * (1.0 - 0.5 ** k) for k in range(1, _BRACKET_STEPS))
                if t > lo]
    return [sign * 2.0 ** k for k in range(_BRACKET_STEPS)]


def _root(env: EnvironmentModel, g: Callable[[float], float], g0: float,
          sign: int) -> Optional[float]:
    """The zero of a g monotone on the side sign * theta > 0, given g0 = g(0).

    Walks out along _walk until g changes sign, then solves the bracket;
    None when g keeps the sign of g0 out to the end of the walk.
    """
    if g0 == 0.0:
        return 0.0
    a, ga = 0.0, g0
    for b in _walk(env, sign):
        gb = g(b)
        if gb == 0.0 or (gb > 0) != (ga > 0):
            return _illinois(g, a, ga, b, gb)
        a, ga = b, gb
    return None


def _illinois(g: Callable[[float], float], a: float, ga: float,
              b: float, gb: float) -> float:
    """A zero of g between a and b, where ga = g(a) and gb = g(b) differ in sign.

    Regula falsi with the Illinois rule: the end kept twice in a row has its
    value halved, so both ends close in superlinearly.  A secant point that
    is not strictly inside the bracket, or a bracket that has not halved in
    three steps, falls back to bisection.  Stops once the bracket is narrower
    than _ROOT_XTOL * max(1, |theta|), or the secant step no longer moves
    the newest end.
    """
    widths = [math.inf] * 3
    while gb != 0.0 and abs(b - a) > _ROOT_XTOL * max(1.0, abs(b)):
        c = b - gb * (b - a) / (gb - ga)
        if c == b:                 # the secant step is below b's float spacing
            break
        if not min(a, b) < c < max(a, b) or abs(b - a) > 0.5 * widths[0]:
            c = 0.5 * (a + b)
        widths = widths[1:] + [abs(b - a)]
        gc = g(c)
        if (gc > 0) != (gb > 0):
            a, ga = b, gb
        else:
            ga *= 0.5
        b, gb = c, gc
    return float(b)


@lru_cache(maxsize=64)
def asymptotic_constants(env: EnvironmentModel) -> ConstantsReport:
    """Decay constants of the extreme boxes and the f-positivity interval.

    Deterministic environments: both constants are the exact theta -> +-inf
    limits of rho/(-rho'), -1 over the extreme mean cycles of ln p.

    Random environments: log rho is convex (tilted moments are log-convex,
    Kingman 1961), so f' = -theta d' makes f increase for theta < 0 and
    decrease for theta > 0, from f(0) = ln rho(support) >= ln 2.  Each side
    thus holds at most one zero of f.  It exists iff f(+-inf) < 0: always
    for Dirichlet rows (f -> -inf at both ends), and iff ln rho(C+-) < 0
    otherwise (see _critical).  Each zero is bracketed by _walk and solved
    by _illinois; the constants are -1/drift there, or the exact limits
    _c_limit where f stays positive.  log rho is strictly convex unless it
    is affine, that is unless the two exact drift limits coincide.
    """
    if env.is_deterministic:
        return ConstantsReport(
            domain_lo=env.domain_lo, domain_hi=env.domain_hi,
            c_star_lower=_c_limit(env, -1), c_star_upper=_c_limit(env, +1),
            theta_star_lower=-math.inf, theta_star_upper=math.inf,
            condition_saturation_ok=True,
            notes="deterministic regime; constants from the extreme mean cycles of ln p",
        )
    if _drift_end(env, +1) - _drift_end(env, -1) <= _TIE_TOL:
        raise NotStrictlyConvex(
            f"log rho is affine: both drift limits equal {_drift_end(env, +1)!r}"
        )

    drifts = {}                    # the drift at every tilt f was evaluated at

    def f(theta: float) -> float:
        log_rho, drifts[theta] = _eval(env, theta)
        return log_rho - theta * drifts[theta]

    f0 = f(0.0)
    ends = []
    for sign in (+1, -1):
        side = "upper" if sign > 0 else "lower"
        if env.kind == DIRICHLET:
            zero = _root(env, f, f0, sign)
            why = f"f -> -inf at the {side} end of the domain"
        else:
            f_end = _critical(env, sign)[2]
            zero = _root(env, f, f0, sign) if f_end < -_TIE_TOL else None
            why = f"f({'+' if sign > 0 else '-'}inf) = ln rho(C) = {f_end!r}"
        if zero is None:
            ends.append((sign * math.inf, _c_limit(env, sign),
                         f"{why}: f stays positive, {side} endpoint {sign * math.inf!r}"))
        else:
            ends.append((zero, -1.0 / drifts[zero],
                         f"{why}: {side} endpoint is the zero of f at {zero!r}"))
    (theta_hi, zeta_hi, note_hi), (theta_lo, zeta_lo, note_lo) = ends
    condition_ok = math.isfinite(theta_lo)
    if not condition_ok:
        note_lo += "; saturation conditions fail"
    return ConstantsReport(
        domain_lo=env.domain_lo, domain_hi=env.domain_hi,
        c_star_lower=zeta_lo, c_star_upper=zeta_hi,
        theta_star_lower=theta_lo, theta_star_upper=theta_hi,
        condition_saturation_ok=condition_ok, notes=f"{note_hi}; {note_lo}",
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
    """Tabulated shape values and constants over a theta grid.

    The grid is refused at its first point outside the domain before any
    point is evaluated; then it is evaluated in ascending order, one stacked
    _eval per _TILT_CHUNK points.
    """
    thetas = np.asarray(theta_grid, dtype=float)
    bad = np.flatnonzero(~((env.domain_lo < thetas) & (thetas < env.domain_hi)))
    if bad.size:
        idx = int(bad[0])
        raise ThetaOutOfDomain(
            f"grid point {idx} (theta = {theta_grid[idx]!r}) outside the domain "
            f"({env.domain_lo!r}, {env.domain_hi!r})",
            grid_index=idx,
        )
    thetas = np.sort(thetas)
    shapes = []
    for start in range(0, thetas.size, _TILT_CHUNK):
        chunk = thetas[start:start + _TILT_CHUNK]
        log_rho, drift = _eval(env, chunk)
        shapes += map(_shape, chunk.tolist(), log_rho.tolist(), drift.tolist())
    return SpectralProfile(
        thetas=thetas,
        shapes=tuple(shapes),
        constants=asymptotic_constants(env),
    )
