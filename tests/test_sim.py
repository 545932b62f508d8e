"""Occupancy simulator: heights, saturation, level profiles, walks, coupons."""

import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

import trielab as tl
from trielab import sim
from trielab.envs import DETERMINISTIC, DIRICHLET, EnvironmentModel
from trielab.errors import (
    CapExceeded,
    DepthCapExceeded,
    HeightUndefined,
    OutsideRegime,
)
from trielab.sim import positive_box_count

from conftest import PROPERTY, random_envs

LN2 = math.log(2.0)


def rng_of(seed):
    return np.random.default_rng(seed)


# --------------------------------------------------------------------------
# height / saturation basics
# --------------------------------------------------------------------------

def test_single_ball(env_iid):
    obs = tl.simulate_occupancy(env_iid, 1, 2, rng_of(0))
    assert obs.height == 0 and obs.saturation == 0


def test_below_threshold(env_iid):
    obs = tl.simulate_occupancy(env_iid, 4, 5, rng_of(0))
    assert obs.height == 0 and obs.saturation == 0
    obs = tl.simulate_saturation(env_iid, 4, 5, rng_of(0))
    assert obs.saturation == 0 and obs.height is None


def test_two_balls_separating(env_uniform):
    # find a seed where the two balls part ways at the first split
    for seed in range(50):
        obs = tl.simulate_occupancy(env_uniform, 2, 2, rng_of(seed))
        if obs.height == 1:
            assert obs.saturation == 1
            break
    else:
        pytest.fail("no first-generation separation over 50 seeds")


def test_height_undefined_for_j1(env_iid):
    with pytest.raises(HeightUndefined):
        tl.simulate_occupancy(env_iid, 10, 1, rng_of(0))


def test_depth_cap(env_iid):
    with pytest.raises(DepthCapExceeded):
        tl.simulate_occupancy(env_iid, 2 ** 12, 2, rng_of(0), depth_cap=3)


def test_single_ball_leaves_a_positive_box_empty(env_uniform):
    obs = tl.simulate_saturation(env_uniform, 1, 1, rng_of(3))
    assert obs.saturation == 1


def test_saturation_below_height(env_iid, env_markov, env_dirichlet):
    for env in (env_iid, env_markov, env_dirichlet):
        for seed in range(25):
            obs = tl.simulate_occupancy(env, 256, 2, rng_of(seed))
            assert 0 < obs.saturation <= obs.height
            obs3 = tl.simulate_occupancy(env, 256, 3, rng_of(seed))
            assert obs3.saturation <= obs3.height


def test_saturation_agrees_between_runners(env_iid):
    # the saturation-only runner must see the same level counts in law;
    # with one stream per runner the realized values still agree exactly
    # because both consume the stream identically until the stop level
    a = tl.simulate_occupancy(env_iid, 512, 2, rng_of(11))
    b = tl.simulate_saturation(env_iid, 512, 2, rng_of(11))
    assert b.saturation == a.saturation


def test_power_regime_matches_fixed_j(env_uniform):
    a = tl.simulate_power_regime(env_uniform, 4, 0.5, rng_of(9))
    b = tl.simulate_occupancy(env_uniform, 4, 2, rng_of(9))
    assert a.j == 2
    assert (a.height, a.saturation) == (b.height, b.saturation)


def test_power_regime_requires_deterministic(env_dirichlet):
    with pytest.raises(OutsideRegime):
        tl.simulate_power_regime(env_dirichlet, 100, 0.5, rng_of(0))


def test_power_regime_effective_threshold(env_uniform):
    obs = tl.simulate_power_regime(env_uniform, 2 ** 16, 0.5, rng_of(1))
    assert obs.j == 256


def test_power_regime_skewed_slope(env_iid):
    # (1 - alpha) * largest-box constant = 0.5 / (-ln 0.7) ~ 1.40184
    want = 0.5 * -1 / math.log(0.7)
    m = 2 ** 20
    heights = [
        tl.simulate_power_regime(env_iid, m, 0.5, rng_of((21, s))).height
        for s in range(30)
    ]
    assert abs(np.mean(heights) / math.log(m) - want) <= 0.20 * want


# --------------------------------------------------------------------------
# frozen classes: subtree-height tables
# --------------------------------------------------------------------------

SPARSE_ENVS = {
    "deterministic": lambda: tl.deterministic_env(
        [[0.5, 0.3, 0.2], [0.6, 0.0, 0.4], [0.0, 0.7, 0.3]]),
    "dirichlet": lambda: tl.dirichlet_env(
        [[1.0, 2.0, 0.5], [0.7, 0.0, 1.3], [0.0, 2.0, 1.0]]),
    "mixture": lambda: tl.mixture_env(
        [0.3, 0.7],
        [[[0.5, 0.3, 0.2], [0.6, 0.0, 0.4], [0.0, 0.7, 0.3]],
         [[0.1, 0.1, 0.8], [0.95, 0.0, 0.05], [0.0, 0.2, 0.8]]]),
}


def _compositions(c, s):
    if s == 1:
        yield (c,)
        return
    for x in range(c + 1):
        for rest in _compositions(c - x, s - 1):
            yield (x,) + rest


def _multinomial(comp):
    coef, left = 1, sum(comp)
    for x in comp:
        coef *= math.comb(left, x)
        left -= x
    return coef


def _split_law(env, i, c):
    """(probability, {child type: count}) over every split of c balls."""
    cols = [int(k) for k in env.supported_cols[i]]
    law = []
    for comp in _compositions(c, len(cols)):
        coef = _multinomial(comp)
        if env.kind == "deterministic":
            p = coef * math.prod(env.rows[i, k] ** x for k, x in zip(cols, comp))
        elif env.kind == "dirichlet":
            a = [env.alpha[i, k] for k in cols]
            p = coef * math.exp(math.lgamma(sum(a)) - math.lgamma(c + sum(a)) + sum(
                math.lgamma(x + ak) - math.lgamma(ak) for x, ak in zip(comp, a)))
        else:
            p = sum(q * coef * math.prod(rows[i, k] ** x for k, x in zip(cols, comp))
                    for q, rows in zip(env.weights, env.comps))
        law.append((p, dict(zip(cols, comp))))
    return law


def _enumerated_tails(env, j, C, rows):
    """P(S > h) for h < rows, by summing over every split of every box."""
    laws = {(i, c): _split_law(env, i, c) for i in range(env.K) for c in range(C + 1)}
    F = {(i, c): float(c < j) for i in range(env.K) for c in range(C + 1)}
    tails = [F]
    for _ in range(rows - 1):
        F = {(i, c): 1.0 if c < j else sum(
                 p * math.prod(F[(k, x)] for k, x in split.items()) for p, split in laws[(i, c)])
             for (i, c) in F}
        tails.append(F)
    return [{key: 1.0 - f for key, f in F.items()} for F in tails]


def _chain_matrices(env, i, C):
    """The chains of sim._split_pmfs as (weight, [(col, B)], last), with the
    dense split matrix B[r, x] = w[r] u[x] v[r - x] of every step."""
    r, x = np.arange(C + 1)[:, None], np.arange(C + 1)[None, :]
    dense = lambda u, v, w: np.where(x <= r, w[r] * u[np.minimum(x, r)] * v[np.maximum(r - x, 0)],
                                     0.0)
    return [(weight, [(col, dense(u, v, w)) for col, u, v, w in steps], last)
            for weight, steps, last in sim._split_pmfs(env, i, C)]


SPLIT_ENVS = [
    *(make() for make in SPARSE_ENVS.values()),
    tl.dirichlet_env([[0.01, 0.02, 0.005], [0.003, 0.05, 0.01], [0.02, 0.001, 0.04]]),
]
SPLIT_IDS = [*SPARSE_ENVS, "dirichlet-small-alpha"]


@pytest.mark.parametrize("env", SPLIT_ENVS, ids=SPLIT_IDS)
def test_split_chains_match_scipy_binomials(env):
    # every chain step against scipy.stats: a conditional binomial of the
    # column's share of the row's tail, or the beta-binomial of stick-breaking
    # at C = 64: past 128 balls scipy's betabinom itself errs past the bound,
    # so C = C0 is checked against exact laws below
    C = 64
    r, x = np.arange(C + 1)[:, None], np.arange(C + 1)[None, :]
    for i in range(env.K):
        cols = env.supported_cols[i]
        chains = _chain_matrices(env, i, C)
        steps = range(len(cols) - 1)
        if env.kind == DIRICHLET:
            a = env.alpha[i, cols]
            laws = [(1.0, [stats.betabinom(r, a[t], a[t + 1:].sum()) for t in steps])]
        else:
            comps = [(1.0, env.rows)] if env.kind == DETERMINISTIC else zip(env.weights, env.comps)
            laws = [(q, [stats.binom(r, rows[i, cols[t]] / rows[i, cols[t:]].sum())
                         for t in steps]) for q, rows in comps]
        assert len(chains) == len(laws)
        for (weight, chain, last), (q, want) in zip(chains, laws):
            assert weight == q and last == cols[-1]
            assert [col for col, _ in chain] == list(cols[:-1])
            for (_, B), law in zip(chain, want):
                assert np.abs(B - law.pmf(x)).max() <= 1e-13


def _exact_split_law(env, i, C):
    """Exact chain-step laws of the float parameters, in integers: per
    component, per step, a function of (r, x) giving P(x | r) as (num, den)."""
    cols = env.supported_cols[i]
    if env.kind == DIRICHLET:
        def rising(a):
            out = [Fraction(1)]
            for k in range(1, C + 1):
                out.append(out[-1] * (a + k - 1) / k)
            return out

        def beta_binomial(ra, rb, rab):
            return lambda r, x: (ra[x].numerator * rb[r - x].numerator * rab[r].denominator,
                                 ra[x].denominator * rb[r - x].denominator * rab[r].numerator)

        a = [Fraction(float(v)) for v in env.alpha[i, cols]]
        return [[beta_binomial(rising(a[t]), rising(sum(a[t + 1:])), rising(sum(a[t:])))
                 for t in range(len(cols) - 1)]]

    def binomial(p, q):
        # the float shares sim._split_counts draws with
        pn, pd, qn, qd = ([z ** k for k in range(C + 1)]
                          for z in (*p.as_integer_ratio(), *q.as_integer_ratio()))
        return lambda r, x: (math.comb(r, x) * pn[x] * qn[r - x], pd[x] * qd[r - x])

    laws = []
    for rows in [env.rows] if env.kind == DETERMINISTIC else env.comps:
        row = rows[i, cols]
        tails = np.cumsum(row[::-1])[::-1]
        laws.append([binomial(float(row[t] / tails[t]), float(tails[t + 1] / tails[t]))
                     for t in range(len(cols) - 1)])
    return laws


@pytest.mark.parametrize("env", SPLIT_ENVS, ids=SPLIT_IDS)
def test_split_chains_match_exact_laws_at_the_cutoff(env):
    # at C = C0, on every fourth row from r = C0 down (the running products'
    # rounding grows with r), every entry above 1e-280 within 1e-13 relative
    # of the exact law of its parameters, compared in integers: |b d - n| <=
    # 1e-13 n for the entry b and the exact n / d
    C, floor, bound = sim.C0, 10 ** 280, 10 ** 13
    for i in range(env.K):
        for (_, chain, _), exact in zip(_chain_matrices(env, i, C), _exact_split_law(env, i, C)):
            for (_, B), law in zip(chain, exact):
                for r in range(C, -1, -4):
                    for x in range(r + 1):
                        num, den = law(r, x)
                        if num * floor > den:
                            bn, bd = float(B[r, x]).as_integer_ratio()
                            assert abs(bn * den - num * bd) * bound <= num * bd, (i, r, x)


def _matrix_split_pmfs(env, i, C):
    """sim._split_pmfs as it stood with one dense split matrix per chain step:
    [(weight, [(col, B)], last)], B[r, x] = exp(ln P(x | r)) for x <= r."""
    cols = env.supported_cols[i]
    r = np.arange(C + 1)[:, None]
    x = np.arange(C + 1)[None, :]
    below = x <= r
    xs, rest = np.minimum(x, r), np.maximum(r - x, 0)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, C + 1)))))
    log_comb = log_fact[r] - log_fact[xs] - log_fact[rest]

    def log_rising(a):
        return np.concatenate(([0.0], np.cumsum(np.log1p((a - 1.0) / np.arange(1, C + 1)))))

    def chain(log_pmf_of):
        steps = []
        for t, col in enumerate(cols[:-1]):
            B = np.where(below, np.exp(log_pmf_of(t)), 0.0)
            steps.append((int(col), B))
        return steps, int(cols[-1])

    def binomial(row):
        tails = np.cumsum(row[::-1])[::-1]
        log_p, log_q = np.log(row[:-1] / tails[:-1]), np.log(tails[1:] / tails[:-1])
        return lambda t: log_comb + xs * log_p[t] + rest * log_q[t]

    if env.kind == DIRICHLET:
        a = env.alpha[i, cols]
        tails = np.cumsum(a[::-1])[::-1]
        pmf = lambda t: (log_rising(a[t])[xs] + log_rising(tails[t + 1])[rest]
                         - log_rising(tails[t])[r])
        return [(1.0, *chain(pmf))]
    if env.kind == DETERMINISTIC:
        return [(1.0, *chain(binomial(env.rows[i, cols])))]
    return [(float(q), *chain(binomial(comp[i, cols])))
            for q, comp in zip(env.weights, env.comps)]


def _matrix_tails(env, j, C, rows):
    """tail[h, i, c] for h < rows, as _HeightTable.grow built it from the
    dense split matrices: g = B @ T[col] + (B * g[r - x]) @ F[col]."""
    chains = [_matrix_split_pmfs(env, i, C) for i in range(env.K)]
    r = np.arange(C + 1)[:, None]
    gap = np.maximum(r - r.T, 0)
    tail = np.zeros((rows, env.K, C + 1))
    tail[0, :, j:] = 1.0
    for h in range(1, rows):
        T = tail[h - 1]
        F = 1.0 - T
        for i, comps in enumerate(chains):
            for weight, steps, last in comps:
                g = T[last]
                for col, B in reversed(steps):
                    g = B @ T[col] + (B * g[gap]) @ F[col]
                tail[h, i] += weight * g
        tail[h, :, :j] = 0.0
        np.minimum(tail[h], 1.0, out=tail[h])
    return tail


@pytest.mark.parametrize("kind", sorted(SPARSE_ENVS))
@pytest.mark.parametrize("j", [2, 3])
def test_height_table_matches_enumerated_splits(kind, j):
    env = SPARSE_ENVS[kind]()
    C, rows = 6, 8
    table = sim._HeightTable(env, j, C)
    table.grow(rows)
    want = _enumerated_tails(env, j, C, rows)
    for h in range(rows):
        for (i, c), tail in want[h].items():
            assert table.tail[h, i, c] == pytest.approx(tail, abs=1e-13), (h, i, c)
    assert (np.diff(table.tail[:rows], axis=0) <= 0).all()


def test_class_max_follows_the_enumerated_law():
    # classes of 50 type-1 boxes holding 4 balls and 7 type-2 boxes holding
    # 6: the largest subtree height S has P(S <= h) = F_14(h)^50 F_26(h)^7
    env = SPARSE_ENVS["deterministic"]()
    C, rows, draws = 6, 40, 4000
    tails = _enumerated_tails(env, 2, C, rows)
    cdf = np.array([(1 - t[(0, 4)]) ** 50 * (1 - t[(1, 6)]) ** 7 for t in tails])
    assert cdf[-1] > 1 - 1e-9
    types = np.array([0] * 50 + [1] * 7)
    counts = np.array([4] * 50 + [6] * 7)
    table = sim._HeightTable(env, 2, C)
    rng = rng_of(17)
    levels = np.zeros_like(types)
    got = np.bincount([table.class_max(levels, types, counts, rng, rows - 1)
                       for _ in range(draws)], minlength=rows)
    want = np.diff(cdf, prepend=0.0) * draws
    thick = want >= 10
    f_obs = np.append(got[thick], got[~thick].sum())
    f_exp = np.append(want[thick], want[~thick].sum())
    f_exp *= f_obs.sum() / f_exp.sum()
    assert stats.chisquare(f_obs, f_exp).pvalue > 0.001


# An independent expansion step for _full_expansion: rows restricted to the
# supported columns, drawn and split type by type.

def _draw_rows(env: EnvironmentModel, i: int, n: int, rng: np.random.Generator):
    """n realized rows for type i+1, restricted to its supported columns.

    Returns a (n, s) array, or a (s,) array shared by all boxes when the
    environment is deterministic.
    """
    cols = env.supported_cols[i]
    if env.kind == DETERMINISTIC:
        return env.rows[i, cols]
    if env.kind == DIRICHLET:
        return rng.dirichlet(env.alpha[i, cols], size=n)
    picks = rng.choice(len(env.weights), size=n, p=env.weights)
    return env.comps[picks][:, i][:, cols]


def _split_counts(counts, rows, rng):
    """Multinomial split of each count along its row (conditional binomials)."""
    n = counts.shape[0]
    if rows.ndim == 1:
        s = rows.shape[0]
        out = np.empty((n, s), dtype=np.int64)
        remaining = counts.copy()
        tail = 1.0
        for t in range(s - 1):
            p = min(max(rows[t] / tail, 0.0), 1.0)
            drawn = rng.binomial(remaining, p)
            out[:, t] = drawn
            remaining -= drawn
            tail -= rows[t]
        out[:, s - 1] = remaining
        return out
    s = rows.shape[1]
    out = np.empty((n, s), dtype=np.int64)
    remaining = counts.copy()
    tail = np.ones(n)
    for t in range(s - 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.where(tail > 0.0, rows[:, t] / tail, 0.0)
        np.clip(p, 0.0, 1.0, out=p)
        drawn = rng.binomial(remaining, p)
        out[:, t] = drawn
        remaining -= drawn
        tail = tail - rows[:, t]
    out[:, s - 1] = remaining
    return out


def _expand(env, types, values, rng, split):
    """Children of every box, type by type: (child types, child values).

    The boxes of one type draw their rows in one _draw_rows call, and
    split(values, rows, rng) gives each box one value per supported child,
    in the order of supported_cols.
    """
    child_types = []
    child_values = []
    for i in range(env.K):
        mask = types == i
        ni = int(mask.sum())
        if ni == 0:
            continue
        cols = env.supported_cols[i]
        block = split(values[mask], _draw_rows(env, i, ni, rng), rng)
        child_types.append(np.broadcast_to(cols, (ni, len(cols))).ravel())
        child_values.append(block.ravel())
    return np.concatenate(child_types), np.concatenate(child_values)


def _full_expansion(env, m, j, rng):
    """(H, G) from the level loop that splits every box to the last generation."""
    types = np.array([0], dtype=np.int64)
    counts = np.array([m], dtype=np.int64)
    support = env.support.astype(np.int64)
    per_type = np.eye(env.K, dtype=np.int64)[0]
    sat = None
    depth = 0
    while True:
        R = counts.shape[0]
        P = min(sum(per_type), m + 1)
        if sat is None and R < P:
            sat = depth
        if R == 0:
            return depth, sat
        ctypes, ccounts = _expand(env, types, counts, rng, _split_counts)
        keep = ccounts >= j
        types, counts = ctypes[keep], ccounts[keep]
        per_type = np.minimum(per_type @ support, m + 1)
        depth += 1


def _pooled_table(a, b):
    """2 x cells counts; cells under 10 in both samples together pool into one."""
    table, spill = [[], []], [0, 0]
    for key in sorted(set(a) | set(b)):
        x, y = a.get(key, 0), b.get(key, 0)
        if x + y >= 10:
            table[0].append(x)
            table[1].append(y)
        else:
            spill[0] += x
            spill[1] += y
    if sum(spill):
        table[0].append(spill[0])
        table[1].append(spill[1])
    return np.array(table)


LAW_ENVS = {
    "iid": lambda: tl.deterministic_env([[0.7, 0.3], [0.7, 0.3]]),
    "markov": lambda: tl.deterministic_env([[0.9, 0.1], [0.2, 0.8]]),
    "dirichlet": lambda: tl.dirichlet_env([[1.0, 1.0], [1.0, 1.0]]),
    "mixture": lambda: tl.mixture_env(
        [0.5, 0.5], [[[0.5, 0.5], [0.5, 0.5]], [[0.9, 0.1], [0.9, 0.1]]]),
    # K = 3 on sparse supports: every box draws a K-wide row, and row 2 of
    # the last one ends on an unsupported column
    "sparse-dirichlet": SPARSE_ENVS["dirichlet"],
    "sparse-last-unsupported": lambda: tl.dirichlet_env(
        [[1.0, 2.0, 0.5], [0.7, 1.3, 0.0], [0.0, 2.0, 1.0]]),
}


@pytest.mark.parametrize("name", sorted(LAW_ENVS))
@pytest.mark.parametrize("j", [2, 8])
def test_height_table_matches_the_matrix_table(name, j):
    # the convolution table against the dense-matrix one at C = C0, over
    # every tail that a class draw can read (above 1e-30)
    env = LAW_ENVS[name]()
    C, rows = sim.C0, 48
    want = _matrix_tails(env, j, C, rows)
    table = sim._HeightTable(env, j, C)
    table.grow(rows)
    got = table.tail[:rows]
    read = want > 1e-30
    assert (np.abs(got - want)[read] / want[read]).max() <= 1e-12
    assert (got[~read] <= 1e-29).all()
    assert (np.diff(got, axis=0) <= 0).all()
    # rows do not depend on the order in which they were grown
    stepwise = sim._HeightTable(env, j, C)
    for upto in (3, 4, 11, 30, rows):
        stepwise.grow(upto)
    assert np.array_equal(stepwise.tail[:rows], got)


def _same_joint_law(simulate, env, m, j, seed, runs=300):
    """Chi-squared p of (H, G) from `simulate(rng)` against the full expansion."""
    new, old = {}, {}
    for k in range(runs):
        obs = simulate(rng_of((1, *seed, k)))
        assert obs.saturation <= obs.height
        key = (obs.height, obs.saturation)
        new[key] = new.get(key, 0) + 1
        key = _full_expansion(env, m, j, rng_of((2, *seed, k)))
        old[key] = old.get(key, 0) + 1
    _, p, _, _ = stats.chi2_contingency(_pooled_table(new, old))
    return p


# 300 balls: the root is split, and its children straddle C0
@pytest.mark.parametrize("name", sorted(LAW_ENVS))
@pytest.mark.parametrize("m,j", [(40, 2), (300, 2), (2000, 2), (2000, 8)])
def test_frozen_classes_keep_the_joint_law(name, m, j):
    env = LAW_ENVS[name]()
    seed = (m, j, sorted(LAW_ENVS).index(name))
    assert _same_joint_law(lambda rng: tl.simulate_occupancy(env, m, j, rng), env, m, j,
                           seed) > 0.001


def test_frozen_classes_keep_the_joint_law_in_the_power_regime():
    # j = ceil(3000^0.5) = 55: the frozen boxes hold 55..C0 balls
    env = LAW_ENVS["iid"]()
    m, alpha = 3000, 0.5
    j = math.ceil(m ** alpha)
    assert _same_joint_law(lambda rng: tl.simulate_power_regime(env, m, alpha, rng), env, m, j,
                           (m, j, 99)) > 0.001


def test_frozen_draws_honour_the_depth_cap(env_iid):
    # m = 40 freezes every box once G is decided, a few generations in, so
    # the height comes from the tables alone
    obs = tl.simulate_occupancy(env_iid, 40, 2, rng_of(5))
    assert obs.max_depth_reached < obs.height - 1
    again = tl.simulate_occupancy(env_iid, 40, 2, rng_of(5), depth_cap=obs.height)
    assert (again.height, again.saturation) == (obs.height, obs.saturation)
    with pytest.raises(DepthCapExceeded):
        tl.simulate_occupancy(env_iid, 40, 2, rng_of(5), depth_cap=obs.height - 1)


@pytest.mark.parametrize("name", ["sparse-dirichlet", "sparse-last-unsupported", "mixture"])
def test_split_keeps_every_ball_on_the_support(name):
    # 10^15 balls per box: a share of 1 - 1e-16 at the last supported column
    # would pass about 0.1 ball per box on to the columns beyond it
    env = LAW_ENVS[name]()
    types = np.repeat(np.arange(env.K), 2000)
    counts = np.full(types.shape, 10 ** 15, dtype=np.int64)
    rng = rng_of(3)
    split = sim._split_counts(counts, sim._shares(env, types, rng), rng)
    assert (split[~env.support[types]] == 0).all()
    assert (split.sum(axis=1) == counts).all()
    ctypes, ccounts = sim._step(env, types, counts, 1, rng)
    parents = np.repeat(types, env.support[types].sum(axis=1))
    assert ccounts.sum() == counts.sum() and env.support[parents, ctypes].all()


# A copy of the level loop as it stood before split shares, children and
# positive-box counts were taken from per-environment tables: every box
# splits along its gathered row, the children are filtered by the support,
# and the positive-box counts advance by one matrix step per level.

def _split_gathered_rows(counts, rows, rng):
    tails = rows[:, ::-1].cumsum(axis=1)[:, ::-1]
    p = rows / np.where(tails > 0.0, tails, 1.0)
    out = np.empty(rows.shape, dtype=np.int64)
    remaining = counts.copy()
    for t in range(rows.shape[1] - 1):
        out[:, t] = rng.binomial(remaining, p[:, t])
        remaining -= out[:, t]
    out[:, -1] = remaining
    return out


def _levels_by_support_filter(env, m, j, rng, depth_cap, want_height):
    """(height|None, saturation, expanded, depth), as sim._run_levels returns."""
    if m < j:
        return (0 if want_height else None), 0, 0, 0
    types = np.array([0], dtype=np.int64)
    counts = np.array([m], dtype=np.int64)
    support = env.support.astype(np.int64)
    per_type = np.eye(env.K, dtype=np.int64)[0]
    sat = None
    expanded = 0
    depth = 0
    frozen = []
    while True:
        R = counts.shape[0]
        P = min(int(per_type.sum()), m + 1)
        if sat is None and R < P:
            sat = depth
        if want_height and sat is not None:
            small = counts <= sim.C0
            frozen.append((np.full(int(small.sum()), depth), types[small], counts[small]))
            types, counts = types[~small], counts[~small]
            R = counts.shape[0]
        if R == 0 or (not want_height and sat is not None):
            break
        if depth >= depth_cap:
            raise DepthCapExceeded(f"no termination within {depth_cap} generations")
        expanded += R
        block = _split_gathered_rows(counts, tl.sample_rows(env, types, rng), rng)
        keep = np.take(env.support, types, axis=0).ravel()
        ctypes = np.tile(np.arange(env.K), types.shape[0])[keep]
        ccounts = block.ravel()[keep]
        types, counts = ctypes[ccounts >= j], ccounts[ccounts >= j]
        per_type = np.minimum(per_type @ support, m + 1)
        depth += 1
    if not want_height:
        return None, sat, expanded, depth
    height = depth
    levels, types, counts = (np.concatenate(part) for part in zip(*frozen))
    if levels.size:
        table = sim._height_table(env, j, min(sim.C0, m))
        height = max(depth, table.class_max(levels, types, counts, rng, depth_cap))
    return height, sat, expanded, depth


@settings(PROPERTY, max_examples=80)
@given(env=random_envs(), j=st.sampled_from([1, 2, 8]), m=st.sampled_from([1, None, 40, 5000]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_level_step_keeps_the_stream(env, j, m, seed):
    # the same observation and the same generator state after the run
    m = j - 1 if m is None else m
    assume(m >= 1)
    runs = [(tl.simulate_saturation, False)] + [(tl.simulate_occupancy, True)] * (j >= 2)
    for simulate, want_height in runs:
        rng, again = rng_of(seed), rng_of(seed)
        obs = simulate(env, m, j, rng)
        want = _levels_by_support_filter(env, m, j, again, sim.DEFAULT_DEPTH_CAP, want_height)
        assert (obs.height, obs.saturation, obs.expanded_nodes, obs.max_depth_reached) == want
        assert rng.bit_generator.state == again.bit_generator.state


# --------------------------------------------------------------------------
# level enumeration
# --------------------------------------------------------------------------

def test_partition_of_mass(env_iid, env_markov, env_dirichlet, env_mixture):
    # the boxes of the blocks that a level profile streams through
    for env in (env_iid, env_markov, env_dirichlet, env_mixture):
        for n in (1, 5, 9, 12):
            per_type_boxes = [-b for b in sim._enumerate_blocks(env, n, rng_of(n))]
            total = sum(np.exp(-b).sum() for b in per_type_boxes)
            assert total == pytest.approx(1.0, abs=1e-9)
            assert not tl.enumerate_level(env, n, rng=rng_of(n)).truncated


def test_laplace_matches_matrix_power(env_markov):
    # tilted level sums equal the first row of the tilted matrix power
    for theta in (-1.0, 0.5, 2.0):
        A = tl.tilted_matrix(env_markov, theta).entries
        for n in range(1, 11):
            prof = tl.enumerate_level(env_markov, n, theta_list=[theta])
            want = np.linalg.matrix_power(A, n)[0]
            assert np.allclose(prof.laplace[theta], want, rtol=1e-9)


def test_laplace_at_one_sums_to_one(env_markov, env_dirichlet):
    for env in (env_markov, env_dirichlet):
        prof = tl.enumerate_level(env, 8, theta_list=[1.0], rng=rng_of(4))
        assert prof.laplace[1.0].sum() == pytest.approx(1.0, abs=1e-9)


def test_extremes_iid_exact(env_iid):
    prof = tl.enumerate_level(env_iid, 10)
    assert prof.max_log_size == pytest.approx(-10 * math.log(0.7), abs=1e-12)
    assert prof.min_log_size == pytest.approx(-10 * math.log(0.3), abs=1e-12)


def test_extremes_markov_trend_toward_cycle_bounds():
    env = tl.deterministic_env([[0.6, 0.4], [0.3, 0.7]])
    # cycle-mean limits: largest box decays like the best loop (0.7), the
    # smallest like the alternating 2-cycle sqrt(0.4*0.3)
    best = -math.log(0.7)
    worst = -(math.log(0.4) + math.log(0.3)) / 2
    errs = {}
    for n in (9, 15):
        prof = tl.enumerate_level(env, n)
        errs[n] = (
            abs(prof.max_log_size / n - best),
            abs(prof.min_log_size / n - worst),
        )
    assert errs[15][0] < errs[9][0]
    assert errs[15][1] < errs[9][1]


def test_window_count_matches_hand_enumeration(env_iid):
    # at n = 14 the window [e^(n d - 1), e^(n d)] for theta = 2 catches the
    # boxes with exactly 11 heavy letters: binomial(14, 11) = 364 of them
    prof = tl.enumerate_level(env_iid, 14, windows=[(2.0, 1.0, 0.0)])
    count = prof.window_counts[(2.0, 1.0, 0.0)]
    assert count == 364
    psi2 = tl.shape_values(env_iid, 2.0).psi
    assert abs(math.log(count) / 14 - psi2) < 0.15


def test_truncated_profile_uses_pruned_extremes(env_iid):
    prof = tl.enumerate_level(env_iid, 24, theta_list=[2.0], cap=1000)
    assert prof.truncated
    assert prof.max_log_size == pytest.approx(-24 * math.log(0.7), abs=1e-10)
    assert prof.min_log_size == pytest.approx(-24 * math.log(0.3), abs=1e-10)
    A = tl.tilted_matrix(env_iid, 2.0).entries
    want = np.linalg.matrix_power(A, 24)[0]
    assert np.allclose(prof.laplace[2.0], want, rtol=1e-9)


def test_truncated_profile_refuses_sums_outside_float64(env_markov):
    # theta = -1 at depth 400: level sums near e^844, past float64; theta = 3
    # at depth 3000: sums below float64 and rho^-n above it
    with np.errstate(over="ignore", invalid="ignore"):
        for n, theta in ((400, -1.0), (3000, 3.0)):
            with pytest.raises(CapExceeded, match="float64"):
                tl.enumerate_level(env_markov, n, theta_list=[1.0, theta])
    prof = tl.enumerate_level(env_markov, 400, theta_list=[1.0, 3.0])
    assert prof.truncated
    for theta in (1.0, 3.0):
        assert np.isfinite(prof.laplace[theta]).all()
        assert math.isfinite(prof.martingale[theta])


@settings(PROPERTY, max_examples=120)      # about 40 deterministic draws check the extremes
@given(env=random_envs(), n=st.integers(0, 12), cap=st.integers(1, 10 ** 6))
def test_level_walks_match_exact_support_paths(env, n, cap):
    paths = np.linalg.matrix_power(env.support.astype(object), n)[0].sum()
    assert positive_box_count(env, n, cap) == min(paths, cap + 1)
    assert positive_box_count(env, n, 10 ** 30) == paths
    short = min(n, 7)
    blocks = sim._enumerate_blocks(env, short, rng_of(0))
    # one child per supported column: the boxes are the support paths
    want = np.linalg.matrix_power(env.support.astype(np.int64), short)[0]
    assert [b.size for b in blocks] == want.tolist()
    if env.is_deterministic:
        filled = [b for b in blocks if b.size]
        extremes = (min(b.min() for b in filled), max(b.max() for b in filled))
        assert sim._extreme_paths(env, short) == extremes
    start = time.perf_counter()
    assert positive_box_count(env, 300_000, 2 ** 20) == 2 ** 20 + 1
    assert time.perf_counter() - start < 0.1


# A copy of the level enumeration as it stood before it kept one block per
# type: every box of a level gathers its K-wide row from one sample_rows call
# over the level's type array, and its children are the supported columns,
# box by box.

def _boxes_by_gathered_rows(env, n, rng):
    """All generation-n boxes as (types, ln masses); one realization if random."""
    types = np.array([0], dtype=np.int64)
    logs = np.array([0.0])
    for _ in range(n):
        with np.errstate(divide="ignore"):
            block = np.log(tl.sample_rows(env, types, rng)) + logs[:, None]
        keep = np.take(env.support, types, axis=0).ravel()
        types = np.tile(np.arange(env.K), types.shape[0])[keep]
        logs = block.ravel()[keep]
    return types, logs


def _blocks_as_boxes(blocks):
    """(types, ln masses) of the boxes held in per-type blocks."""
    return np.repeat(np.arange(len(blocks)), [b.size for b in blocks]), np.concatenate(blocks)


def _same_law_p(new, old):
    """p-value of a chi-squared test of two samples over their pooled deciles."""
    edges = np.unique(np.quantile(np.concatenate([new, old]), np.linspace(0, 1, 11)[1:-1]))
    table = np.array([np.bincount(np.searchsorted(edges, x, side="right"),
                                  minlength=len(edges) + 1) for x in (new, old)])
    # a discrete sample can leave the cell below the lowest edge empty
    _, p, _, _ = stats.chi2_contingency(table[:, table.sum(axis=0) > 0])
    return p


@pytest.mark.parametrize("name", ["markov", "sparse3"])
def test_blocks_hold_the_boxes_of_the_gathered_level(name):
    # fixed rows: the same ln masses bit for bit, type by type; the level
    # sums differ from the box-order sums by summation order alone
    env = (tl.deterministic_env([[0.9, 0.1], [0.2, 0.8]]) if name == "markov"
           else SPARSE_ENVS["deterministic"]())
    thetas = [-1.0, 0.5, 2.0]
    for n in range(13):
        types, logs = _boxes_by_gathered_rows(env, n, rng_of(0))
        prof = tl.enumerate_level(env, n, theta_list=thetas)
        for i, block in enumerate(sim._enumerate_blocks(env, n, rng_of(0))):
            boxes = -block
            assert np.array_equal(np.sort(boxes), np.sort(-logs[types == i]))
        assert (prof.min_log_size, prof.max_log_size) == (-logs.min(), -logs.max())
        for theta in thetas:
            want = np.bincount(types, weights=np.exp(theta * logs), minlength=env.K)
            assert np.allclose(prof.laplace[theta], want, rtol=1e-13, atol=0.0)


LEVEL_LAW_ENVS = {
    "dirichlet": lambda: tl.dirichlet_env([[1.0, 1.0], [1.0, 1.0]]),
    "sparse-dirichlet": SPARSE_ENVS["dirichlet"],
    "mixture": lambda: tl.mixture_env(
        [0.5, 0.5], [[[0.5, 0.5], [0.5, 0.5]], [[0.9, 0.1], [0.9, 0.1]]]),
    "sparse-mixture": SPARSE_ENVS["mixture"],
}


@pytest.mark.parametrize("name", sorted(LEVEL_LAW_ENVS))
def test_random_blocks_keep_the_law_of_the_gathered_level(name):
    # the extremes and a per-type tilted sum of one realization, against the
    # enumeration that gathers every box's row from the level's type array;
    # three statistics at a family-wise level of 0.001
    env = LEVEL_LAW_ENVS[name]()
    n, runs = 4, 1000
    seed = sorted(LEVEL_LAW_ENVS).index(name)

    def statistics(types, logs):
        return logs.min(), logs.max(), np.exp(2.0 * logs[types == 0]).sum()

    new = np.array([statistics(*_blocks_as_boxes(sim._enumerate_blocks(env, n, rng)))
                    for rng in (rng_of((1, seed, k)) for k in range(runs))])
    old = np.array([statistics(*_boxes_by_gathered_rows(env, n, rng_of((2, seed, k))))
                    for k in range(runs)])
    for column in range(new.shape[1]):
        assert _same_law_p(new[:, column], old[:, column]) > 0.001 / new.shape[1], column


@PROPERTY
@given(env=random_envs(), n=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_level_sums_on_random_envs(env, n, seed):
    # theta = 1 sums total the unit mass in every realization; fixed rows
    # give the first row of the tilted matrix power at any theta
    prof = tl.enumerate_level(env, n, theta_list=[1.0], rng=rng_of(seed))
    assert prof.laplace[1.0].sum() == pytest.approx(1.0, abs=1e-9)
    if env.is_deterministic:
        for theta in (-1.0, 0.5, 2.0):
            prof = tl.enumerate_level(env, n, theta_list=[theta])
            want = np.linalg.matrix_power(tl.tilted_matrix(env, theta).entries, n)[0]
            assert np.allclose(prof.laplace[theta], want, rtol=1e-9)


@PROPERTY
@given(env=random_envs(), m=st.integers(1, 400), j=st.integers(2, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_saturation_below_height_on_random_envs(env, m, j, seed):
    obs = tl.simulate_occupancy(env, m, j, rng_of(seed))
    assert 0 <= obs.saturation <= obs.height
    assert obs.max_depth_reached <= obs.height


# A copy of enumerate_level as it stood while it held every box of
# generation n: the level as per-type blocks of ln masses, every statistic
# taken block by block, and matrix powers for fixed rows past the cap.

def _enumerate_level_whole(env, n, theta_list=(), windows=(), cap=1_048_576, rng=None):
    if rng is None:
        rng = np.random.default_rng(0)
    truncated = positive_box_count(env, n, cap) > cap
    window_counts = {}
    if truncated:
        if not env.is_deterministic:
            raise CapExceeded(f"more than {cap} boxes at generation {n}")
        lo, hi = sim._extreme_paths(env, n)
        laplace = {theta: np.linalg.matrix_power(tl.tilted_matrix(env, theta).entries, n)[0]
                   for theta in theta_list}
    else:
        blocks = sim._enumerate_blocks(env, n, rng)
        filled = [b for b in blocks if b.size]
        lo, hi = min(b.min() for b in filled), max(b.max() for b in filled)
        laplace = {theta: np.array([np.exp(theta * b).sum() for b in blocks])
                   for theta in theta_list}
        for theta, a, b in windows:
            drift = tl.shape_values(env, theta).drift
            lo_edge, hi_edge = n * drift - a, n * drift - b
            window_counts[(theta, a, b)] = sum(
                int(np.count_nonzero((x >= lo_edge) & (x <= hi_edge))) for x in filled)
    martingale = {}
    for theta, vec in laplace.items():
        pt = tl.shape_values(env, theta)
        v = tl.perron_triplet(tl.tilted_matrix(env, theta)).v
        martingale[theta] = float((v / v[0]) @ vec * math.exp(-n * pt.log_rho))
    return -lo, -hi, laplace, martingale, window_counts


STREAM_ENVS = {
    "markov": lambda: tl.deterministic_env([[0.9, 0.1], [0.2, 0.8]]),
    "sparse3": SPARSE_ENVS["deterministic"],
    "dirichlet-small-alpha": lambda: tl.dirichlet_env([[0.05, 0.02], [0.03, 0.08]]),
    **LEVEL_LAW_ENVS,
}


def _draws_in_block_order(env, n):
    """Whether a random profile of generation n expands breadth-first down
    to generation n - 1, and so draws the rows of one block per call in
    block order, as the whole-level enumeration does; fixed rows draw
    nothing."""
    return (env.is_deterministic or n < 2
            or positive_box_count(env, n - 2, sim.LEVEL_CHUNK) < sim.LEVEL_CHUNK)


# depth 15 on the sparse K = 3 supports: generation 13 holds more than
# LEVEL_CHUNK boxes, so the random ones run depth-first below it, in a new
# order (test_depth_first_pieces_keep_the_law_of_the_whole_level); the fixed
# rows' window counts still cover the level
STREAM_CASES = [(name, n) for name in sorted(STREAM_ENVS) for n in (0, 1, 2, 7, 13, 15)
                if _draws_in_block_order(STREAM_ENVS[name](), n)]


@pytest.mark.parametrize("name,n", STREAM_CASES)
def test_level_statistics_keep_the_stream_of_the_whole_level(name, n):
    # the same extremes bit for bit, the same window counts and generator
    # state after the level; the sums differ by summation order alone
    env = STREAM_ENVS[name]()
    seed = (sorted(STREAM_ENVS).index(name), n)
    thetas, windows = [0.5, 1.0, 2.0], [(1.0, 1.0, 0.0), (2.0, 2.0, -1.0)]
    rng, again = rng_of(seed), rng_of(seed)
    prof = tl.enumerate_level(env, n, theta_list=thetas, windows=windows, rng=rng)
    lo, hi, laplace, martingale, window_counts = _enumerate_level_whole(
        env, n, theta_list=thetas, windows=windows, rng=again)
    assert (prof.min_log_size, prof.max_log_size) == (lo, hi)
    assert prof.window_counts == window_counts
    for theta in thetas:
        assert np.allclose(prof.laplace[theta], laplace[theta], rtol=1e-13, atol=0.0)
        assert prof.martingale[theta] == pytest.approx(martingale[theta], rel=1e-13, abs=0.0)
    assert rng.bit_generator.state == again.bit_generator.state


@pytest.mark.parametrize("name", sorted(LEVEL_LAW_ENVS) + ["dirichlet-small-alpha"])
def test_depth_first_pieces_keep_the_law_of_the_whole_level(name, monkeypatch):
    # 16-box pieces: generation 8 is reached depth-first from generation 4
    # (K = 2) or 3 (sparse K = 3); the extremes, a per-type tilted sum and a
    # window count of one realization against the whole-level enumeration,
    # four statistics at a family-wise level of 0.001
    monkeypatch.setattr(sim, "LEVEL_CHUNK", 16)
    env = STREAM_ENVS[name]()
    n, runs = 8, 600
    assert not _draws_in_block_order(env, n)
    seed = sorted(STREAM_ENVS).index(name)
    window = (1.0, 1.0, -1.0)

    def profiled(rng):
        prof = tl.enumerate_level(env, n, theta_list=[2.0], windows=[window], rng=rng)
        return (prof.min_log_size, prof.max_log_size, prof.laplace[2.0][0],
                prof.window_counts[window])

    def whole(rng):
        lo, hi, laplace, _, counts = _enumerate_level_whole(
            env, n, theta_list=[2.0], windows=[window], rng=rng)
        return lo, hi, laplace[2.0][0], counts[window]

    new = np.array([profiled(rng_of((1, seed, k))) for k in range(runs)])
    old = np.array([whole(rng_of((2, seed, k))) for k in range(runs)])
    for column in range(new.shape[1]):
        # at small alpha some mass underflows to 0 in every run: min is inf on both sides
        pooled = np.unique(np.concatenate([new[:, column], old[:, column]]))
        assert (pooled.size == 1
                or _same_law_p(new[:, column], old[:, column]) > 0.001 / new.shape[1]), column


@pytest.mark.parametrize("chunk", [1, 3, 16])
@pytest.mark.parametrize("name", ["markov", "sparse3"])
def test_fixed_pieces_cover_the_level(name, chunk, monkeypatch):
    # fixed rows, breadth-first and then depth-first: per type, the ln
    # masses of the pieces are those of the enumerated level, bit for bit
    monkeypatch.setattr(sim, "LEVEL_CHUNK", chunk)
    env = STREAM_ENVS[name]()
    for n in range(11):
        pieces = [[] for _ in range(env.K)]
        for cols, logs in sim._level_pieces(env, n, None):
            for k, row in zip(cols, logs):
                pieces[k].append(row)
        for k, block in enumerate(sim._enumerate_blocks(env, n, None)):
            got = np.concatenate(pieces[k]) if pieces[k] else np.empty(0)
            assert np.array_equal(np.sort(got), np.sort(block)), (n, k)


@pytest.mark.parametrize("name", ["markov", "dirichlet", "sparse-mixture"])
def test_profile_holds_no_box_of_its_generation(name, monkeypatch):
    # fixed rows enumerate and draw nothing; a random cascade enumerates no
    # whole level, draws one row per box of generations 0..n-1, and at most
    # LEVEL_CHUNK rows per call
    env, n = STREAM_ENVS[name](), 16
    enumerated, streamed = [], []
    enumerate_blocks, sample_rows = sim._enumerate_blocks, sim.sample_rows

    def blocks(env, depth, rng):
        enumerated.append(depth)
        return enumerate_blocks(env, depth, rng)

    def rows(env, i, rng, count):
        streamed.append(count)
        return sample_rows(env, i, rng, count=count)

    monkeypatch.setattr(sim, "_enumerate_blocks", blocks)
    monkeypatch.setattr(sim, "sample_rows", rows)
    tl.enumerate_level(env, n, theta_list=[0.5, 1.0], rng=rng_of(0))
    assert enumerated == []
    if env.is_deterministic:
        assert streamed == []
    else:
        assert sum(streamed) == sum(positive_box_count(env, d, 2 ** 30) for d in range(n))
        assert max(streamed) <= sim.LEVEL_CHUNK


@pytest.mark.parametrize("n", [20, 22])
def test_random_profile_memory_does_not_grow_with_depth(n):
    # uniform Dirichlet scenery: 2^20 and 2^22 boxes realized, a traced
    # peak under 2 MB at either depth (a whole generation n - 1 is 4 and
    # 16 MB)
    env = STREAM_ENVS["dirichlet"]()
    tl.enumerate_level(env, 4, theta_list=[1.0], rng=rng_of(0))     # warm the caches
    tracemalloc.start()
    try:
        tl.enumerate_level(env, n, theta_list=[-0.5, 1.0, 2.5], cap=2 ** n, rng=rng_of(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, peak


@pytest.mark.parametrize("name", sorted(LEVEL_LAW_ENVS) + ["dirichlet-small-alpha"])
def test_sample_rows_in_two_calls_draw_the_rows_of_one(name):
    # count = a + b rows in one call, and a then b rows in two: the same
    # rows and the same generator state after them
    env = STREAM_ENVS[name]()
    for i in range(env.K):
        for a, b in ((0, 5), (1, 1), (3, 700), (1000, 1)):
            rng, again = rng_of((i, a, b)), rng_of((i, a, b))
            whole = tl.sample_rows(env, i, rng, count=a + b)
            parts = [tl.sample_rows(env, i, again, count=c) for c in (a, b)]
            assert np.array_equal(whole, np.concatenate(parts))
            assert rng.bit_generator.state == again.bit_generator.state


def test_random_env_over_cap_raises(env_dirichlet):
    with pytest.raises(CapExceeded):
        tl.enumerate_level(env_dirichlet, 24, cap=1000, rng=rng_of(0))


def test_martingale_exact_at_theta_one(env_dirichlet):
    # at theta = 1 the weighted sum is the conserved total mass
    for seed in range(5):
        prof = tl.enumerate_level(env_dirichlet, 8, theta_list=[1.0], rng=rng_of(seed))
        assert prof.martingale[1.0] == pytest.approx(1.0, abs=1e-9)


def test_martingale_unit_mean_nondegenerate(env_dirichlet):
    # theta = 2 exercises genuine randomness: unit mean within 4 SE
    vals = []
    for seed in range(400):
        prof = tl.enumerate_level(env_dirichlet, 6, theta_list=[2.0], rng=rng_of(seed))
        vals.append(prof.martingale[2.0])
    vals = np.array(vals)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert vals.std() > 1e-3            # really random
    assert abs(vals.mean() - 1.0) <= 4 * se


# --------------------------------------------------------------------------
# size-biased walk
# --------------------------------------------------------------------------

def test_walk_uniform_constant(env_uniform):
    for seed in range(5):
        path, ls = tl.size_biased_walk(env_uniform, 5, rng_of(seed))
        assert len(path) == 6 and path[0] == 1
        assert ls == pytest.approx(5 * LN2, abs=1e-12)


def test_walk_one_step_law(env_iid):
    rng = rng_of(123)
    n = 100_000
    hits = 0
    for _ in range(n):
        _, ls = tl.size_biased_walk(env_iid, 1, rng)
        hits += abs(ls - (-math.log(0.7))) < 1e-12
    se = math.sqrt(0.7 * 0.3 / n)
    assert abs(hits / n - 0.7) <= 4 * se


def test_walk_lln_slope(env_iid):
    rng = rng_of(7)
    n, walks = 60, 2000
    mean_step = -(0.7 * math.log(0.7) + 0.3 * math.log(0.3))
    samples = np.array([tl.size_biased_walk(env_iid, n, rng)[1] / n for _ in range(walks)])
    se = samples.std(ddof=1) / math.sqrt(walks)
    assert abs(samples.mean() - mean_step) <= 3 * se


def test_walk_respects_support():
    env = tl.dirichlet_env([[1.0, 2.0, 0.0], [1.0, 1.0, 1.0], [0.5, 0.0, 1.5]])
    rng = rng_of(5)
    for _ in range(50):
        path, _ = tl.size_biased_walk(env, 6, rng)
        for a, b in zip(path, path[1:]):
            assert env.support[a - 1, b - 1]


# --------------------------------------------------------------------------
# coupon collection
# --------------------------------------------------------------------------

def test_coupon_root_box(env_iid):
    assert tl.coupon_time(env_iid, 0, 5, rng_of(0)).throws == 5


def test_coupon_two_fair_boxes(env_uniform):
    rng = rng_of(42)
    runs = 10_000
    throws = np.array([tl.coupon_time(env_uniform, 1, 1, rng).throws for _ in range(runs)])
    assert (throws >= 2).all()
    se = throws.std(ddof=1) / math.sqrt(runs)
    assert abs(throws.mean() - 3.0) <= 4 * se


def test_coupon_growth_rate_matches_smallest_box(env_iid):
    rng = rng_of(9)
    n = 8
    rate = -math.log(0.3)          # 1 / (smallest-box constant)
    logs = np.array([
        math.log(tl.coupon_time(env_iid, n, 1, rng).throws) / n for _ in range(100)
    ])
    assert abs(np.median(logs) - rate) <= 0.25 * rate


def test_coupon_minimum_throws(env_markov):
    out = tl.coupon_time(env_markov, 2, 3, rng_of(1))
    assert out.throws >= 3 * positive_box_count(env_markov, 2, sim.COUPON_BOX_CAP)


def _coupon_by_fresh_enumeration(env, n, j, rng):
    """coupon_time as it stood when every replicate enumerated its level and
    the box filled last was deleted from the Poisson means."""
    logs = np.concatenate(sim._enumerate_blocks(env, n, rng))
    logs -= np.logaddexp.reduce(logs)
    log_tau = np.log(rng.standard_gamma(j, size=logs.shape[0])) - logs
    last = int(np.argmax(log_tau))
    log_p, gap = np.delete(logs, last), np.delete(log_tau, last) - log_tau[last]
    lam = np.exp(log_p + log_tau[last] + np.log1p(-np.exp(gap)))
    return j * logs.shape[0] + sum(rng.poisson(lam).tolist())


@pytest.mark.parametrize("name,n,j", [("iid", 8, 1), ("iid", 8, 3), ("markov", 6, 2),
                                      ("sparse", 5, 1), ("sparse", 4, 4)])
def test_fixed_coupon_levels_are_enumerated_once(name, n, j):
    # the cached level gives every replicate the throws and the generator
    # state of one that enumerates its own level
    env = {"iid": LAW_ENVS["iid"], "markov": LAW_ENVS["markov"],
           "sparse": SPARSE_ENVS["deterministic"]}[name]()
    rng, again = rng_of((n, j)), rng_of((n, j))
    for _ in range(20):
        assert tl.coupon_time(env, n, j, rng).throws == _coupon_by_fresh_enumeration(
            env, n, j, again)
        assert rng.bit_generator.state == again.bit_generator.state
    logs = sim._fixed_level_logs(env, n)
    assert not logs.flags.writeable
    assert sim._fixed_level_logs(tl.deterministic_env(env.rows.tolist()), n) is logs


@pytest.mark.parametrize("name,n,j", [("markov", 0, 2), ("dirichlet", 0, 1), ("dirichlet", 6, 2),
                                      ("mixture", 5, 1), ("sparse-dirichlet", 3, 3),
                                      ("sparse-mixture", 4, 1)])
def test_coupon_throws_keep_the_formula_without_the_last_box(name, n, j):
    # the box filled last takes Poisson mean 0, which draws nothing: the
    # throws and the generator state of the formula that deletes that box
    # (fixed levels past n = 0: test_fixed_coupon_levels_are_enumerated_once)
    env = STREAM_ENVS[name]()
    rng, again = rng_of((n, j)), rng_of((n, j))
    for _ in range(20):
        assert tl.coupon_time(env, n, j, rng).throws == _coupon_by_fresh_enumeration(
            env, n, j, again)
        assert rng.bit_generator.state == again.bit_generator.state


def _thrown_coupon_time(logs, j, rng):
    """Reference: throw balls at boxes of these ln masses, in batches of
    2048, until every box holds >= j."""
    cum = np.cumsum(np.exp(logs))
    cum /= cum[-1]
    counts = np.zeros(len(cum), dtype=np.int64)
    thrown = 0
    while True:
        idx = np.searchsorted(cum, rng.random(2048), side="right")
        np.add.at(counts, idx, 1)
        if counts.min() >= j:
            np.subtract.at(counts, idx, 1)
            short = int((counts < j).sum())
            for pos, k in enumerate(idx):
                counts[k] += 1
                if counts[k] == j:
                    short -= 1
                    if short == 0:
                        return thrown + pos + 1
        thrown += 2048


COUPON_ENVS = {
    "deterministic": SPARSE_ENVS["deterministic"],
    "dirichlet": lambda: tl.dirichlet_env(
        [[2.0, 3.0, 1.5], [1.5, 0.0, 2.5], [0.0, 3.0, 2.0]]),
    "mixture": SPARSE_ENVS["mixture"],
}


@pytest.mark.parametrize("kind", sorted(COUPON_ENVS))
@pytest.mark.parametrize("j", [1, 2])
def test_coupon_sampler_matches_the_thrower(kind, j):
    # deciles of the pooled throw counts as cells; the sampler raises no
    # floating-point error: the box that fills last gets Poisson mean 0
    env = COUPON_ENVS[kind]()
    n, runs = 3, 1500
    seed = (j, sorted(COUPON_ENVS).index(kind))
    with np.errstate(divide="raise", invalid="raise"):
        new = np.array([tl.coupon_time(env, n, j, rng_of((1, *seed, k))).throws
                        for k in range(runs)])
    old = []
    for k in range(runs):
        rng = rng_of((2, *seed, k))
        old.append(_thrown_coupon_time(np.concatenate(sim._enumerate_blocks(env, n, rng)), j, rng))
    assert _same_law_p(new, np.array(old)) > 0.001


def test_dirichlet_coupons_keep_the_law_of_the_gathered_level():
    # the thrower over the enumeration that gathers every box's row from the
    # level's type array
    env = COUPON_ENVS["dirichlet"]()
    n, j, runs = 3, 1, 1500
    new = np.array([tl.coupon_time(env, n, j, rng_of((3, j, k))).throws for k in range(runs)])
    old = []
    for k in range(runs):
        rng = rng_of((4, j, k))
        old.append(_thrown_coupon_time(_boxes_by_gathered_rows(env, n, rng)[1], j, rng))
    assert _same_law_p(new, np.array(old)) > 0.001


def _coupon_moments(masses, j):
    """Exact mean and variance of the coupon time over boxes of these masses.

    Poissonized, box counts at time t are independent Poisson(p_i t); with
    F(t) = prod_i P(Poisson(p_i t) >= j), the completion time S has
    E[S] = int 1 - F and E[S^2] = int 2t (1 - F), and given T throws S is
    Gamma(T, 1), so E[T] = E[S] and E[T (T + 1)] = E[S^2].
    """
    def gap(t):
        with np.errstate(divide="ignore"):
            return -math.expm1(np.log(special.gammainc(j, masses * t)).sum())

    end = (math.log(len(masses)) + j + 50.0) / masses.min()
    edges = np.concatenate([[0.0], np.geomspace(0.01 / masses.max(), end, 200)])
    first = sum(integrate.quad(gap, a, b, limit=200)[0] for a, b in zip(edges, edges[1:]))
    second = sum(integrate.quad(lambda t: 2.0 * t * gap(t), a, b, limit=200)[0]
                 for a, b in zip(edges, edges[1:]))
    return first, second - first - first * first


@pytest.mark.parametrize("j", [1, 2, 3])
def test_coupon_mean_matches_the_poissonized_integral(j, env_markov):
    for env, n in ((COUPON_ENVS["deterministic"](), 4), (env_markov, 3)):
        masses = np.exp(np.concatenate(sim._enumerate_blocks(env, n, rng_of(0))))
        want, var = _coupon_moments(masses, j)
        runs = 4000
        rng = rng_of((3, j, n))
        throws = np.array([tl.coupon_time(env, n, j, rng).throws for _ in range(runs)])
        assert abs(throws.mean() - want) <= 5 * math.sqrt(var / runs), (n, j)


def test_coupon_refuses_counts_past_int64(env_dirichlet):
    # uniform Dirichlet scenery at depth 10: the median call needs about
    # 2e9 throws, and is still drawn in O(boxes)
    calls = []
    for seed in range(5):
        start = time.perf_counter()
        assert tl.coupon_time(env_dirichlet, 10, 1, rng_of(seed)).throws >= 1024
        calls.append(time.perf_counter() - start)
    assert np.median(calls) < 0.01
    # depth 19: the smallest box has -ln p near 46, and the sum passes int64
    with pytest.raises(CapExceeded, match="generation 19"):
        tl.coupon_time(env_dirichlet, 19, 1, rng_of(0))
    # a box of mass 1e-21: single Poisson means pass what numpy can draw
    skew = tl.deterministic_env([[0.999, 0.001], [0.999, 0.001]])
    with pytest.raises(CapExceeded, match="generation 7"):
        tl.coupon_time(skew, 7, 1, rng_of(0))
