"""Reference computations for the benchmark's checks, made apart from trielab.

Nothing here imports trielab: the checks compare trielab's reports with
closed forms, cycle means, dense eigenvalues of tilted matrices built from
the moment formulas, log-space matrix powers and the Poissonized coupon
integral, so a fault in trielab cannot hide inside its own check.

An environment is a plain dict: {"kind": "deterministic", "rows": ...},
{"kind": "dirichlet", "alpha": ...} or
{"kind": "mixture", "weights": ..., "comps": ...}.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate, optimize, special, stats

FD_STEP = 1e-5          # central-difference step for the drift d = (ln rho)'


def support(env) -> np.ndarray:
    if env["kind"] == "deterministic":
        return np.asarray(env["rows"], float) > 0
    if env["kind"] == "dirichlet":
        return np.asarray(env["alpha"], float) > 0
    return np.asarray(env["comps"], float)[0] > 0


def domain_lo(env) -> float:
    """Left end of the finite-moment domain: -min alpha for Dirichlet rows."""
    if env["kind"] == "dirichlet":
        a = np.asarray(env["alpha"], float)
        return -float(a[a > 0].min())
    return -math.inf


def tilted(env, theta: float) -> np.ndarray:
    """E[p_ij^theta] from the moment formulas; 0 off the support."""
    sup = support(env)
    K = sup.shape[0]
    out = np.zeros((K, K))
    if env["kind"] == "deterministic":
        P = np.asarray(env["rows"], float)
        out[sup] = P[sup] ** theta
    elif env["kind"] == "dirichlet":
        A = np.asarray(env["alpha"], float)
        for i, j in zip(*np.nonzero(sup)):
            a0 = A[i][sup[i]].sum()
            out[i, j] = math.exp(math.lgamma(a0) + math.lgamma(A[i, j] + theta)
                                 - math.lgamma(a0 + theta) - math.lgamma(A[i, j]))
    else:
        q = np.asarray(env["weights"], float)
        C = np.asarray(env["comps"], float)
        for c in range(len(q)):
            out[sup] += q[c] * C[c][sup] ** theta
    return out


def log_rho(env, theta: float) -> float:
    """ln of the Perron root, as the largest real eigenvalue from eigvals."""
    return math.log(float(np.linalg.eigvals(tilted(env, theta)).real.max()))


def shape(env, theta: float) -> dict:
    """Shape values at theta; the drift is a central difference of ln rho."""
    lr = log_rho(env, theta)
    d = (log_rho(env, theta + FD_STEP) - log_rho(env, theta - FD_STEP)) / (2 * FD_STEP)
    psi = lr - theta * d
    return {"rho": math.exp(lr), "log_rho": lr, "drift": d, "psi": psi,
            "phi": lr - (theta - 1.0) * d, "f": psi}


def cycle_means(P) -> tuple:
    """(min, max) mean of ln p over the simple cycles of P's support digraph."""
    P = np.asarray(P, float)
    K = P.shape[0]
    means = []
    for k in range(1, K + 1):
        for seq in itertools.permutations(range(K), k):
            if seq[0] != min(seq):
                continue                      # one rotation per cycle
            edges = [(seq[i], seq[(i + 1) % k]) for i in range(k)]
            if all(P[a, b] > 0 for a, b in edges):
                means.append(sum(math.log(P[a, b]) for a, b in edges) / k)
    return min(means), max(means)


def f_roots(env, lo: float, hi: float, steps: int = 2001) -> list:
    """Zeros of f = ln rho - theta d on [lo, hi], bracketed on a grid, by brentq."""
    f = lambda t: shape(env, t)["f"]
    grid = np.linspace(lo, hi, steps)
    vals = [f(t) for t in grid]
    return [optimize.brentq(f, a, b, xtol=1e-13)
            for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:]) if fa * fb < 0]


def constants(env) -> dict:
    """Extreme-box constants and the {f > 0} endpoints.

    Deterministic: c = -1 / (extreme cycle mean of ln p), the theta -> -inf
    and +inf limits of -1/d.  Random: c = -1/d at the two zeros of f.
    """
    if env["kind"] == "deterministic":
        lo, hi = cycle_means(env["rows"])
        return {"c_star_lower": -1.0 / lo, "c_star_upper": -1.0 / hi,
                "theta_star_lower": -math.inf, "theta_star_upper": math.inf}
    left = max(domain_lo(env) + 1e-3, -40.0)
    roots = f_roots(env, left, 40.0)
    neg = [r for r in roots if r < 0]
    pos = [r for r in roots if r >= 0]
    t_lo, t_hi = neg[-1], pos[0]
    return {"c_star_lower": -1.0 / shape(env, t_lo)["drift"],
            "c_star_upper": -1.0 / shape(env, t_hi)["drift"],
            "theta_star_lower": t_lo, "theta_star_upper": t_hi}


def predicted(env, j=None, alpha=None) -> float:
    """The slope trielab should predict for a converge command."""
    if alpha is not None:
        return (1.0 - alpha) * constants(env)["c_star_upper"]
    if j == 1:
        return constants(env)["c_star_lower"]
    if env["kind"] != "deterministic" and j >= constants(env)["theta_star_upper"]:
        return constants(env)["c_star_upper"]
    return j / -log_rho(env, float(j))


def log_level_sums(P, theta: float, n: int) -> np.ndarray:
    """ln of row 1 of A^n, A = (p_ij^theta), by a log-sum-exp recursion."""
    P = np.asarray(P, float)
    with np.errstate(divide="ignore"):
        lA = np.where(P > 0, theta * np.log(np.where(P > 0, P, 1.0)), -np.inf)
        ell = np.full(P.shape[0], -np.inf)
    ell[0] = 0.0
    for _ in range(n):
        ell = special.logsumexp(ell[:, None] + lA, axis=0)
    return ell


def extreme_log_masses(P, n: int) -> tuple:
    """(min, max) of ln(box mass) over the generation-n boxes, by max-plus DP."""
    P = np.asarray(P, float)
    with np.errstate(divide="ignore"):
        lp = np.log(P)
    hi = np.full(P.shape[0], -np.inf)
    lo = np.full(P.shape[0], np.inf)
    hi[0] = lo[0] = 0.0
    for _ in range(n):
        hi = np.where(P > 0, hi[:, None] + lp, -np.inf).max(axis=0)
        lo = np.where(P > 0, lo[:, None] + lp, np.inf).min(axis=0)
    return float(lo[np.isfinite(lo)].min()), float(hi[np.isfinite(hi)].max())


def level_masses(P, n: int) -> tuple:
    """Distinct generation-n box masses (to 12 digits) with their multiplicities."""
    P = np.asarray(P, float)
    key = lambda mass: float(f"{mass:.12e}")
    states = {(1.0, 0): 1}                  # (mass, type) -> number of boxes
    for _ in range(n):
        nxt = {}
        for (mass, i), count in states.items():
            for k in np.nonzero(P[i] > 0)[0]:
                child = (key(mass * P[i, k]), int(k))
                nxt[child] = nxt.get(child, 0) + count
        states = nxt
    masses = {}
    for (mass, _), count in states.items():
        masses[mass] = masses.get(mass, 0) + count
    keys = sorted(masses)
    return np.array(keys), np.array([masses[k] for k in keys])


def box_count(env, n: int) -> int:
    """Number of generation-n boxes of positive mass: support paths from type 1."""
    S = support(env).astype(object)
    row = [1] + [0] * (S.shape[0] - 1)
    for _ in range(n):
        row = [sum(row[i] * int(S[i, k]) for i in range(len(row))) for k in range(len(row))]
    return sum(row)


def coupon_moments(masses, counts, j: int):
    """Mean and variance of the throw count T until every box holds j balls.

    Throws arriving as a unit-rate Poisson process make the box counts
    independent Poisson(p_i t), and the completion time S is Gamma(T, 1)
    given T.  With 1 - F(t) = 1 - prod_i P(Pois(p_i t) >= j):
    E[T] = E[S] = int_0^inf 1 - F(t) dt and E[T(T + 1)] = E[S^2] =
    int_0^inf 2t (1 - F(t)) dt.
    """
    masses = np.asarray(masses, float)
    counts = np.asarray(counts, float)

    def gap(t):
        with np.errstate(divide="ignore"):
            return -math.expm1(float(counts @ np.log(special.gammainc(j, masses * t))))

    end = (math.log(counts.sum()) + j + 60.0) / masses.min()
    edges = np.concatenate([[0.0], np.geomspace(1e-3 / masses.max(), end, 400)])
    first = sum(integrate.quad(gap, a, b, epsabs=1e-9, epsrel=1e-10, limit=200)[0]
                for a, b in zip(edges, edges[1:]))
    second = sum(integrate.quad(lambda t: 2.0 * t * gap(t), a, b, epsabs=1e-9 * b,
                                epsrel=1e-10, limit=200)[0]
                 for a, b in zip(edges, edges[1:]))
    return float(first), float(second - first - first * first)


def fit_slope(xs, ys) -> float:
    """Least-squares slope of ys against xs."""
    return float(np.polyfit(np.asarray(xs, float), np.asarray(ys, float), 1)[0])


def slope_stderr(xs, stderrs) -> float:
    """Standard error of the least-squares slope through independent points
    whose ordinates have the given standard errors."""
    x = np.asarray(xs, float)
    w = (x - x.mean()) / np.sum((x - x.mean()) ** 2)
    return float(np.sqrt(np.sum((w * np.asarray(stderrs, float)) ** 2)))


def same_law_p(counts_a: dict, counts_b: dict, least: int = 10) -> float:
    """Chi-squared p-value that two samples of (H, G) pairs share one law.

    Cells are taken in (H, G) order and neighbours are pooled until each
    pooled cell holds at least `least` observations of the two samples
    together (a thin remainder joins the last cell).
    """
    table = []
    cell = [0, 0]
    for key in sorted(set(counts_a) | set(counts_b)):
        cell[0] += counts_a.get(key, 0)
        cell[1] += counts_b.get(key, 0)
        if sum(cell) >= least:
            table.append(cell)
            cell = [0, 0]
    if sum(cell):
        if table:
            table[-1] = [table[-1][0] + cell[0], table[-1][1] + cell[1]]
        else:
            table.append(cell)
    if len(table) < 2:
        return 1.0
    return float(stats.chi2_contingency(np.array(table).T)[1])
