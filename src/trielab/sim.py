"""Nested-box occupancy simulator.

m balls fall through a cascade of boxes: the root (type 1, unit mass) splits
into one sub-box per supported child type, with masses given by the
environment's transition row; random environments draw a fresh row for every
box.  Ball counts split multinomially along the same masses, so tracking the
counts level by level reproduces the trie statistics exactly:

  height      H(m, j): first generation at which every box holds < j balls
  saturation  G(m, j): first generation at which some positive-mass box
                       holds < j balls

Ball counts are nonincreasing along any root-to-box path, so expanding only
boxes holding >= j balls enumerates every generation-n box with >= j balls;
comparing their number R_n with the number P_n of positive-mass boxes
(support-pattern paths, counted exactly) detects G.

Each occupancy level is one step, vectorized over all boxes of the level:
every box takes the split shares of its K-wide row and splits its balls
along them by a chain of conditional binomials over the columns, exact.
Fixed rows (and mixture components, after one uniform per box picks them)
read their shares from a table taken once per environment; Dirichlet boxes
draw their rows (envs.sample_rows) and take the shares of those.  The
children are the columns of the level's split block that hold >= j balls,
found in one pass; an unsupported column never gets a ball.  P_n is read
from the environment's per-generation counts, which end once they pass
int64, and so any m.

Level enumeration keeps generation n as K blocks of ln masses, one per type,
each drawing its rows in one sample_rows call; a size-biased walk takes one
row and one uniform per step.

Every box draws its own row, so a box of type i holding c balls roots an
independent subtree whose height law depends on (i, c) alone (the height
recursion of Szpankowski, 1991).  Once G is decided, the height run freezes
every box holding j <= c <= C0 balls, and at the end of the run draws each
(level, type, count) class maximum from exact subtree-height tail tables,
built by convolving the product-form split laws; only boxes holding more
than C0 balls are split further.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import spectral
from .envs import (DETERMINISTIC, DIRICHLET, EnvironmentModel, _fixed_row_index,
                   _INT64_MAX, _row_shares, sample_rows)
from .errors import CapExceeded, DepthCapExceeded, HeightUndefined, OutsideRegime

DEFAULT_DEPTH_CAP = 10_000
COUPON_BOX_CAP = 1_000_000
C0 = 160                  # largest ball count a height run resolves from tables
_POISSON_LAM_MAX = _INT64_MAX - 10 * math.sqrt(_INT64_MAX)   # numpy's Generator.poisson limit


@dataclass
class TrieObservation:
    """Height/saturation of one simulated occupancy run."""

    m: int
    j: int
    height: Optional[int]          # None when only the saturation level was run
    saturation: int
    expanded_nodes: int            # boxes split explicitly
    max_depth_reached: int         # generation where explicit splitting stopped


@dataclass
class LevelProfile:
    """Exact box statistics of one generation (one realization if random).

    per_type_boxes[i] holds the values -ln(l) for boxes of type i+1, in no
    particular order.
    min_log_size / max_log_size are -ln of the smallest / largest box mass.
    window_counts[(theta, a, b)] counts boxes with ln(l) in
    [n*drift(theta) - a, n*drift(theta) - b].
    martingale[theta] is the eigenvector-weighted, rho^-n normalized
    theta-moment of the level (unit mean over cascade realizations).
    """

    n: int
    per_type_boxes: list
    laplace: dict
    min_log_size: float
    max_log_size: float
    window_counts: dict
    martingale: dict
    truncated: bool


@dataclass
class CouponOutcome:
    """Throws needed until every positive generation-n box holds >= j balls."""

    n: int
    j: int
    throws: int


# --------------------------------------------------------------------------
# level machinery
# --------------------------------------------------------------------------

def _split_counts(counts, shares, rng):
    """Multinomial split of each count along its K-wide row, given the row's
    split shares (envs._row_shares): a chain of K - 1 conditional binomials
    over the columns, the rest to the last column."""
    out = np.empty(shares.shape, dtype=np.int64)
    remaining = counts
    for t in range(shares.shape[1] - 1):
        # a contiguous column: rng.binomial takes a strided one about 2x slower
        drawn = rng.binomial(remaining, np.ascontiguousarray(shares[:, t]))
        out[:, t] = drawn
        remaining = remaining - drawn
    out[:, -1] = remaining
    return out


def _shares(env, types, rng):
    """Split shares of every box of a level, one K-wide row per box: fixed
    rows read them from the environment's table, Dirichlet boxes draw their
    rows and take the shares of those."""
    if env.kind == DIRICHLET:
        return _row_shares(sample_rows(env, types, rng))
    return np.take(env._split_shares, _fixed_row_index(env, types, types.shape[0], rng),
                   axis=0)


def _step(env, types, counts, j, rng):
    """One level of the occupancy cascade: the children holding >= j balls,
    as (types, counts), box by box and column by column.

    An unsupported column gets no ball (its share follows a share of 1), so
    for j >= 1 every child kept is on the support.
    """
    block = _split_counts(counts, _shares(env, types, rng), rng)
    kept = np.flatnonzero(block >= j)
    return kept % env.K, block.ravel().take(kept)


def _split_pmfs(env, i, C):
    """Exact split law of a type-(i+1) box, as chains over its supported children.

    Returns [(weight, steps, last)]: one chain per row component (the mixture
    components, else one).  steps holds (col, u, v, w): child `col` takes x
    of the r balls still unassigned with probability w[r] u[x] v[r - x];
    `last` takes the rest.  Fixed rows give conditional binomials, as
    _split_counts draws them (u = p^x / x!, v = q^y / y!, w = r!), Dirichlet
    rows beta-binomials, by stick-breaking (u, v, 1 / w: the rising factorials
    of a, b, a + b).  Each factor is a running product of its per-step ratios
    under a tilt sigma^k, which cancels as x + (r - x) = r.
    """
    cols = env.supported_cols[i]
    k = np.arange(1.0, C + 1)

    def factors(x, y, r):                            # u, v, w step by x / k, y / k, k / r
        sigma = C / np.max(r)                        # the tilt: w's last step is 1
        return [np.concatenate(([1.0], np.cumprod(f)))
                for f in (x * sigma / k, y * sigma / k, k / (r * sigma))]

    def binomial(row):
        # 1 - p from the tails: never 0 before the last column, even where p rounds to 1
        tails = np.cumsum(row[::-1])[::-1]
        return [(int(col), *factors(row[t] / tails[t], tails[t + 1] / tails[t], 1.0))
                for t, col in enumerate(cols[:-1])], int(cols[-1])

    if env.kind == DIRICHLET:
        a = env.alpha[i, cols]
        tails = np.cumsum(a[::-1])[::-1]            # tails[t] = a[t] + tails[t + 1]
        return [(1.0, [(int(col), *factors(a[t] - 1 + k, tails[t + 1] - 1 + k, tails[t] - 1 + k))
                       for t, col in enumerate(cols[:-1])], int(cols[-1]))]
    if env.kind == DETERMINISTIC:
        return [(1.0, *binomial(env.rows[i, cols]))]
    return [(float(q), *binomial(comp[i, cols])) for q, comp in zip(env.weights, env.comps)]


class _HeightTable:
    """Tail table tail[h, i, c] = P(S > h) for a type-(i+1) box holding c balls.

    S counts the generations below the box until every descendant holds < j
    balls: S = 0 for c < j, else S = 1 + the largest S among its children.
    Rows are added on demand (into a buffer that doubles), each by one pass
    over the exact split law: a chain step, sum_x P(x | r) [T(x) + F(x)
    g(r - x)], is w * (conv(u T, v) + conv(u F, v g)), convolved directly:
    sums of nonnegative terms keep their relative accuracy, which an FFT
    would not.  The tail is carried directly, using
    1 - ab = (1 - a) + a (1 - b), so that 1 - F^N stays accurate for large
    class sizes N.  No random numbers.
    """

    def __init__(self, env, j, C):
        self.j = j
        self.chains = [_split_pmfs(env, i, C) for i in range(env.K)]
        self.tail = np.zeros((1, env.K, C + 1))
        self.tail[0, :, j:] = 1.0
        self.log_f = self._log1m(self.tail)
        self.rows = 1
        self.grow(2)                                 # a frozen box holds >= j, so S >= 1

    @staticmethod
    def _log1m(tail):
        with np.errstate(divide="ignore"):
            return np.log1p(-tail)

    def grow(self, rows):
        """Compute rows up to `rows`: P(S > h+1) from the row for h."""
        if rows > self.tail.shape[0]:
            extra = max(rows, 2 * self.tail.shape[0]) - self.tail.shape[0]
            self.tail = np.concatenate([self.tail, np.zeros((extra,) + self.tail.shape[1:])])
            self.log_f = np.concatenate([self.log_f, np.zeros((extra,) + self.log_f.shape[1:])])
        for h in range(self.rows, rows):
            T = self.tail[h - 1]
            F = 1.0 - T
            nxt = self.tail[h]
            for i, comps in enumerate(self.chains):
                for weight, steps, last in comps:
                    g = T[last]                    # tail of the children from here on
                    for col, u, v, w in reversed(steps):
                        g = w * (np.convolve(u * T[col], v) + np.convolve(u * F[col], v * g))[:v.size]
                    nxt[i] += weight * g
            nxt[:, :self.j] = 0.0
            np.minimum(nxt, T, out=nxt)              # P(S > h+1) <= P(S > h); rounding can pass it
        self.log_f[self.rows:rows] = self._log1m(self.tail[self.rows:rows])
        self.rows = max(self.rows, rows)

    def class_max(self, levels, types, counts, rng, cap):
        """Largest level + S among frozen boxes (levels, types, counts).

        Each (level, type, count) class of N boxes draws its S with one
        uniform U: the smallest h with ln(1 - tail[h]) >= ln(U) / N.  Raises
        DepthCapExceeded when some level + S passes `cap`.
        """
        _, K, width = self.tail.shape
        keys, sizes = np.unique((levels * K + types) * width + counts, return_counts=True)
        lv, rest = np.divmod(keys, K * width)
        ti, ci = np.divmod(rest, width)
        with np.errstate(divide="ignore"):
            bar = np.log(rng.random(keys.shape[0])) / sizes
        while True:
            done = self.log_f[1:self.rows, ti, ci] >= bar
            resolved = done.any(axis=0)
            # an unresolved class has S >= rows, the table's length so far
            top = int((lv + np.where(resolved, done.argmax(axis=0) + 1, self.rows)).max())
            if top > cap:
                raise DepthCapExceeded(f"no termination within {cap} generations")
            if resolved.all():
                return top
            self.grow(min(2 * self.rows, cap - int(lv[~resolved].min()) + 1))


@lru_cache(maxsize=32)
def _height_table(env, j, C):
    return _HeightTable(env, j, C)


def _run_levels(env, m, j, rng, depth_cap, want_height):
    """Shared level loop; returns (height|None, saturation, expanded, depth).

    Before G is decided every box is split.  After it, a height run freezes
    the boxes holding at most C0 balls and, once splitting stops, takes
    their subtree heights from the tables; `expanded` counts the boxes
    split, `depth` the generation where splitting stopped.
    """
    if m < j:
        return (0 if want_height else None), 0, 0, 0
    positive = env._positive_counts               # P_n; past its end, above any m
    last = len(positive) - 1
    types = np.array([0], dtype=np.int64)
    counts = np.array([m], dtype=np.int64)
    sat = None
    expanded = 0
    depth = 0
    frozen = []                                   # (level, types, counts) per level
    while True:
        R = counts.shape[0]                       # boxes holding >= j at this depth
        if sat is None and R < positive[min(depth, last)]:
            sat = depth                           # R <= m, so P_n needs no saturation
        if want_height and sat is not None:
            small = counts <= C0
            if small.any():
                frozen.append((depth, types[small], counts[small]))
                big = ~small
                types, counts = types[big], counts[big]
                R = counts.shape[0]
        if R == 0 or (not want_height and sat is not None):
            break
        if depth >= depth_cap:
            raise DepthCapExceeded(f"no termination within {depth_cap} generations")
        expanded += R
        types, counts = _step(env, types, counts, j, rng)
        depth += 1
    if not want_height:
        return None, sat, expanded, depth
    height = depth
    if frozen:
        at, types, counts = zip(*frozen)
        levels = np.repeat(at, [t.shape[0] for t in types])
        table = _height_table(env, j, min(C0, m))
        height = max(depth, table.class_max(levels, np.concatenate(types),
                                            np.concatenate(counts), rng, depth_cap))
    return height, sat, expanded, depth


# --------------------------------------------------------------------------
# public simulations
# --------------------------------------------------------------------------

def simulate_occupancy(
    env: EnvironmentModel,
    m: int,
    j: int,
    rng: np.random.Generator,
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> TrieObservation:
    """Run one cascade with m balls; record height and saturation for threshold j."""
    if j < 2:
        raise HeightUndefined(
            "height is infinite for j = 1: every generation keeps a box holding a ball"
        )
    if m < 1:
        raise ValueError(f"need at least one ball, got m = {m}")
    height, sat, expanded, depth = _run_levels(env, m, j, rng, depth_cap, want_height=True)
    return TrieObservation(m=m, j=j, height=height, saturation=sat,
                           expanded_nodes=expanded, max_depth_reached=depth)


def simulate_saturation(
    env: EnvironmentModel,
    m: int,
    j: int,
    rng: np.random.Generator,
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> TrieObservation:
    """Stop at the first generation with a positive box holding < j balls (j >= 1)."""
    if j < 1 or m < 1:
        raise ValueError(f"need j >= 1 and m >= 1, got j = {j}, m = {m}")
    height, sat, expanded, depth = _run_levels(env, m, j, rng, depth_cap, want_height=False)
    return TrieObservation(m=m, j=j, height=height, saturation=sat,
                           expanded_nodes=expanded, max_depth_reached=depth)


def simulate_power_regime(
    env: EnvironmentModel,
    m: int,
    alpha: float,
    rng: np.random.Generator,
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> TrieObservation:
    """Occupancy run with the ball-dependent threshold j = max(2, ceil(m^alpha))."""
    if not env.is_deterministic:
        raise OutsideRegime("the power regime is defined for deterministic environments")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0,1), got {alpha!r}")
    j = max(2, math.ceil(m ** alpha))
    return simulate_occupancy(env, m, j, rng, depth_cap=depth_cap)


# --------------------------------------------------------------------------
# level enumeration
# --------------------------------------------------------------------------

def positive_box_count(env: EnvironmentModel, n: int, cap: int) -> int:
    """Number of positive-mass boxes at generation n, saturated at cap + 1.

    Read from the environment's per-generation counts, which end at the
    first count past int64; a cap past int64 counts as int64's largest value.
    """
    counts = env._positive_counts
    return min(counts[min(n, len(counts) - 1)], min(cap, _INT64_MAX) + 1)


def _enumerate_blocks(env, n, rng):
    """All generation-n boxes as K blocks of ln masses, block i holding the
    boxes of type i+1; one realization if random.

    Each level, block i draws its rows in one sample_rows call (a fixed row
    serves the whole block), and each supported column k writes the block's
    ln masses plus the rows' ln entries in column k into the next stretch of
    child block k, allocated once at its exact size.
    """
    blocks = [np.zeros(1)] + [np.empty(0)] * (env.K - 1)
    with np.errstate(divide="ignore"):               # ln 0 off the support, never read
        for _ in range(n):
            sizes = env.support.T @ [b.size for b in blocks]
            children = [np.empty(size) for size in sizes.tolist()]
            used = [0] * env.K
            for i, block in enumerate(blocks):
                if block.size:
                    ln_rows = sample_rows(env, i, rng, count=block.size)
                    np.log(ln_rows, out=ln_rows)
                    for k in env.supported_cols[i]:
                        end = used[k] + block.size
                        np.add(block, ln_rows[:, k], out=children[k][used[k]:end])
                        used[k] = end
            blocks = children
    return blocks


def _extreme_paths(env, n):
    """Min/max ln mass over support paths of length n (deterministic only).

    Max-plus vector steps: hi tracks the heaviest path into each type, and
    -lo the heaviest path under the negated log-masses.
    """
    lnrow = np.log(np.where(env.support, env.rows, 1.0))
    up = np.where(env.support, lnrow, -np.inf)
    down = np.where(env.support, -lnrow, -np.inf)
    hi = np.where(np.arange(env.K) == 0, 0.0, -np.inf)[None, :]
    neg_lo = hi
    for _ in range(n):
        hi = spectral._maxplus(hi, up)
        neg_lo = spectral._maxplus(neg_lo, down)
    return -float(neg_lo.max()), float(hi.max())


def enumerate_level(
    env: EnvironmentModel,
    n: int,
    theta_list: Sequence[float] = (),
    windows: Sequence[tuple] = (),
    cap: int = 1_048_576,
    rng: Optional[np.random.Generator] = None,
) -> LevelProfile:
    """Exact statistics of generation n: per-type neg-log masses, tilted sums
    (Laplace transforms), extremes, window counts and martingale values.

    The boxes come as one block of ln masses per type, and every statistic
    is taken block by block: laplace[theta][i] sums l^theta over block i.

    When the level holds more than `cap` positive boxes, a deterministic
    environment falls back to dynamic-programming extremes plus matrix-power
    tilted sums (truncated=True, no per-box data); a random environment cannot
    be pruned (every box carries an independent row) and raises CapExceeded.
    So does a tilted sum or martingale value that leaves float64's range.
    """
    if rng is None:
        if not env.is_deterministic:
            raise ValueError("random environments need an rng to realize the cascade")
        rng = np.random.default_rng(0)
    truncated = positive_box_count(env, n, cap) > cap
    window_counts = {}
    if truncated:
        if not env.is_deterministic:
            raise CapExceeded(f"more than {cap} boxes at generation {n}; a random "
                              "cascade cannot be pruned")
        lo, hi = _extreme_paths(env, n)
        per_type = [np.array([]) for _ in range(env.K)]
        laplace = {theta: np.linalg.matrix_power(spectral.tilted_matrix(env, theta).entries, n)[0]
                   for theta in theta_list}
    else:
        blocks = _enumerate_blocks(env, n, rng)
        filled = [b for b in blocks if b.size]
        lo, hi = min(b.min() for b in filled), max(b.max() for b in filled)
        buf = np.empty(max(b.size for b in blocks))      # reused: a cold run pays per fresh page
        laplace = {theta: np.array([np.exp(np.multiply(b, theta, out=buf[:b.size]),
                                           out=buf[:b.size]).sum() for b in blocks])
                   for theta in theta_list}
        for theta, a, b in windows:
            drift = spectral.shape_values(env, theta).drift
            lo_edge = n * drift - a
            hi_edge = n * drift - b
            window_counts[(theta, a, b)] = sum(
                int(np.count_nonzero((x >= lo_edge) & (x <= hi_edge))) for x in filled)
        per_type = [np.negative(b, out=b) for b in blocks]
    martingale = {}
    for theta, vec in laplace.items():
        pt = spectral.shape_values(env, theta)
        v = spectral.perron_triplet(spectral.tilted_matrix(env, theta)).v
        try:
            martingale[theta] = float((v / v[0]) @ vec * math.exp(-n * pt.log_rho))
        except OverflowError:                     # rho^-n past float64
            martingale[theta] = math.inf
        if not (np.isfinite(vec).all() and math.isfinite(martingale[theta])):
            raise CapExceeded(f"level sums at generation {n}, theta = {theta!r} leave "
                              "the float64 range")
    return LevelProfile(
        n=n, per_type_boxes=per_type, laplace=laplace,
        min_log_size=float(-lo), max_log_size=float(-hi),
        window_counts=window_counts, martingale=martingale, truncated=truncated,
    )


# --------------------------------------------------------------------------
# walks and coupons
# --------------------------------------------------------------------------

def size_biased_walk(env: EnvironmentModel, n: int, rng: np.random.Generator):
    """Follow one ball for n generations from type 1.

    Returns the visited 1-based types (length n+1) and -ln of the landing
    box's mass; the landing box is distributed by the size-biased law.
    """
    last = [int(cols[-1]) for cols in env.supported_cols]
    path = [1]
    log_mass = 0.0
    for _ in range(n):
        t = path[-1] - 1
        row = sample_rows(env, t, rng, count=1)[0]
        # the rounding tail of the cumulative sum falls to the last supported
        # column, never past it, as in oracle.sample_words
        k = min(int((np.cumsum(row) <= rng.random()).sum()), last[t])
        log_mass += math.log(row[k])
        path.append(k + 1)
    return tuple(path), -log_mass


def _level_logs(env, n, rng):
    """ln masses of every generation-n box, normalised to sum to 1; read-only."""
    logs = np.concatenate(_enumerate_blocks(env, n, rng))
    logs -= np.logaddexp.reduce(logs)
    logs.flags.writeable = False
    return logs


# fixed rows draw nothing: every replicate shares one enumeration per (env, n)
_fixed_level_logs = lru_cache(maxsize=32)(lambda env, n: _level_logs(env, n, None))


def coupon_time(
    env: EnvironmentModel,
    n: int,
    j: int,
    rng: np.random.Generator,
) -> CouponOutcome:
    """Throws needed until every positive generation-n box holds >= j balls.

    Exact in O(boxes), by Poissonization (Flajolet, Gardy & Thimonier, 1992):
    with throws arriving at unit rate, box i gets its j-th ball at tau_i =
    Gamma(j, 1) / p_i, independently.  At T = max tau_i each other box holds
    j + Poisson(p_i (T - tau_i)) balls, as its arrivals after tau_i are fresh.
    """
    if j < 1:
        raise ValueError(f"need j >= 1, got {j}")
    if positive_box_count(env, n, COUPON_BOX_CAP) > COUPON_BOX_CAP:
        raise CapExceeded(f"more than {COUPON_BOX_CAP} boxes at generation {n}")
    logs = _fixed_level_logs(env, n) if env.is_deterministic else _level_logs(env, n, rng)
    log_tau = np.log(rng.standard_gamma(j, size=logs.shape[0])) - logs
    last = int(np.argmax(log_tau))
    log_p, gap = np.delete(logs, last), np.delete(log_tau, last) - log_tau[last]
    lam = np.exp(log_p + log_tau[last] + np.log1p(-np.exp(gap)))   # p_i (T - tau_i)
    drawable = (lam <= _POISSON_LAM_MAX).all()          # False on inf and nan too
    throws = j * logs.shape[0] + sum(rng.poisson(lam).tolist()) if drawable else math.inf
    if throws > _INT64_MAX:
        raise CapExceeded(f"the coupon time at generation {n} passes the int64 range")
    return CouponOutcome(n=n, j=j, throws=throws)
