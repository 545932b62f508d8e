"""Acceptance suite: one test per criterion, printed as one line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the timing
lines).  The Monte Carlo criteria use fixed master seeds and the slope-fit
harness: statistics are gathered over a geometric ball grid m = 2^10..2^20 and
regressed against ln m, which cancels the additive finite-size corrections.
"""

import math
import time

import numpy as np
import pytest
from scipy import optimize, stats

import trielab as tl
from trielab.cli import ExperimentConfig, RowStat, emit_report, run_converge

from conftest import grid_sup, rho_prime

LN2 = math.log(2.0)
GRID = [1024 * 2 ** i for i in range(11)]      # 2^10 .. 2^20


def _stamp(label, t0):
    print(f"[acceptance] {label}: ok ({time.time() - t0:.2f}s)")


def _converge(env, j=None, alpha=None, reps=200, seed=0, grid=GRID):
    cfg = ExperimentConfig(env_path="", mode="converge", j=j, alpha=alpha,
                           m_grid=list(grid), replicates=reps, master_seed=seed)
    return run_converge(cfg, env)


# --------------------------------------------------------------------------
# 1. spectral exactness for i.i.d. letters (0.7, 0.3)
# --------------------------------------------------------------------------

def test_01_spectral_exactness(env_iid):
    t0 = time.time()
    rho2 = tl.perron_triplet(tl.tilted_matrix(env_iid, 2.0)).rho
    assert abs(rho2 - 0.58) <= 1e-12
    assert abs(tl.shape_values(env_iid, 1.0).phi) <= 1e-10
    # closed form: rho'(2) = 0.49 ln 0.7 + 0.09 ln 0.3, psi = ln rho - 2 rho'/rho
    rho_p2 = 0.49 * math.log(0.7) + 0.09 * math.log(0.3)
    psi2_expected = math.log(0.58) - 2.0 * rho_p2 / 0.58          # 0.4315772208...
    assert abs(tl.shape_values(env_iid, 2.0).psi - psi2_expected) <= 1e-6
    rep = tl.asymptotic_constants(env_iid)
    assert abs(rep.c_star_lower - 0.830584) <= 1e-4
    assert abs(rep.c_star_upper - 2.803673) <= 1e-4
    assert time.time() - t0 < 1.0
    _stamp("01 spectral exactness", t0)


# --------------------------------------------------------------------------
# 2. enumerated level sums equal tilted matrix powers
# --------------------------------------------------------------------------

def test_02_level_sums_match_matrix_powers(env_markov):
    t0 = time.time()
    for theta in (-1.0, 0.5, 2.0):
        A = tl.tilted_matrix(env_markov, theta).entries
        power = np.eye(2)
        for n in range(1, 11):
            power = power @ A
            prof = tl.enumerate_level(env_markov, n, theta_list=[theta])
            assert np.allclose(prof.laplace[theta], power[0], rtol=1e-9, atol=0)
    _stamp("02 level sums vs matrix powers", t0)


# --------------------------------------------------------------------------
# 3. eigen-solver invariant sweep
# --------------------------------------------------------------------------

def test_03_eigen_suite():
    t0 = time.time()
    from test_eigen_suite import THETAS, random_envs

    h = 1e-5
    for idx, env in enumerate(random_envs()):
        lr = []
        cs = []
        for theta in THETAS:
            tm = tl.tilted_matrix(env, theta)
            trip = tl.perron_triplet(tm)
            A = tm.entries
            assert np.abs(A @ trip.v - trip.rho * trip.v).max() <= 1e-10 * trip.v.max()
            assert np.abs(trip.w @ A - trip.rho * trip.w).max() <= 1e-10 * trip.w.max()
            assert abs(trip.w @ trip.v - 1.0) <= 1e-12
            lr.append(math.log(trip.rho))
            sv = tl.shape_values(env, theta)
            cs.append(-1.0 / sv.drift)
            fd = (
                tl.perron_triplet(tl.tilted_matrix(env, theta + h)).rho
                - tl.perron_triplet(tl.tilted_matrix(env, theta - h)).rho
            ) / (2 * h)
            assert rho_prime(env, theta) == pytest.approx(fd, rel=1e-6)
        slopes = np.diff(lr) / np.diff(np.array(THETAS))
        assert (np.diff(slopes) >= -1e-9).all()
        assert (np.diff(cs) >= -1e-9 * np.abs(np.array(cs)[1:])).all()
    assert time.time() - t0 < 10.0
    _stamp("03 eigen suite", t0)


# --------------------------------------------------------------------------
# 4. level sums converge to the eigen-projection
# --------------------------------------------------------------------------

def test_04_projection_convergence(env_markov):
    t0 = time.time()
    for theta in (0.5, 2.0):
        tm = tl.tilted_matrix(env_markov, theta)
        trip = tl.perron_triplet(tm)
        vec = np.linalg.matrix_power(tm.entries / trip.rho, 50)[0]
        assert np.abs(vec - trip.v[0] * trip.w).max() <= 1e-6
    assert time.time() - t0 < 1.0
    _stamp("04 projection convergence", t0)


# --------------------------------------------------------------------------
# 5-7. deterministic slope fits
# --------------------------------------------------------------------------

def test_05_height_slope_iid(env_iid):
    t0 = time.time()
    rep = _converge(env_iid, j=2)
    assert abs(rep.fitted_slope - 3.67165) <= 0.15 * 3.67165
    _stamp(f"05 height slope (fit {rep.fitted_slope:.4f}, want 3.67165)", t0)


def test_06_saturation_slope_iid(env_iid):
    t0 = time.time()
    rep = _converge(env_iid, j=1)
    assert abs(rep.fitted_slope - 0.830584) <= 0.20 * 0.830584
    _stamp(f"06 saturation slope (fit {rep.fitted_slope:.4f}, want 0.830584)", t0)


def test_07_power_regime_slope(env_uniform):
    t0 = time.time()
    rep = _converge(env_uniform, alpha=0.5)
    assert abs(rep.fitted_slope - 0.72135) <= 0.20 * 0.72135
    _stamp(f"07 power-regime slope (fit {rep.fitted_slope:.4f}, want 0.72135)", t0)


# --------------------------------------------------------------------------
# 8. uniform-Dirichlet spectral closed form
# --------------------------------------------------------------------------

def test_08_dirichlet_closed_form(env_dirichlet):
    t0 = time.time()
    for theta in (-0.5, 1.0, 3.0):
        rho = math.exp(tl.shape_values(env_dirichlet, theta).log_rho)
        assert abs(rho - 2.0 / (1.0 + theta)) <= 1e-10
    rep = tl.asymptotic_constants(env_dirichlet)
    assert abs(rep.theta_star_upper - 3.3111) <= 1e-3
    assert abs(rep.c_star_upper - (1.0 + rep.theta_star_upper)) <= 1e-6
    assert time.time() - t0 < 1.0
    _stamp("08 dirichlet closed form", t0)


def test_08d_dirichlet_saturation_flag_reported_false(env_dirichlet):
    # The name records the old expectation, which was wrong: that the flag is
    # False for this environment.  With rho(theta) = 2/(1+theta), the exponent
    # f(theta) = ln2 - ln(1+theta) + theta/(1+theta) tends to -infinity at the
    # domain boundary -1 and f(0) = ln2 > 0, so f has an interior zero theta_*
    # in (-1, 0) at which it vanishes by continuity: the conditions hold.
    t0 = time.time()

    def f(t):
        return LN2 - math.log(1.0 + t) + t / (1.0 + t)

    assert f(-0.9) < 0.0 < f(-0.5)
    root = optimize.brentq(f, -0.9, -0.5, xtol=1e-14)
    rep = tl.asymptotic_constants(env_dirichlet)
    assert rep.condition_saturation_ok is True
    assert tl.check_saturation_conditions(env_dirichlet).ok is True
    assert env_dirichlet.domain_lo < rep.theta_star_lower < 0.0
    assert abs(rep.theta_star_lower - root) <= 1e-8
    zeta = tl.predicted_saturation_constant(env_dirichlet)
    assert abs(zeta - (1.0 + root)) <= 1e-8
    _stamp(f"08d dirichlet saturation flag (theta_* = {root:.6f}, zeta = {zeta:.6f})", t0)


# --------------------------------------------------------------------------
# 9. cascade martingale has unit mean and stable dispersion
# --------------------------------------------------------------------------

def test_09_martingale_unit_mean(env_dirichlet):
    t0 = time.time()
    values = {}
    for n in (4, 8, 12):
        vals = []
        for rep in range(1000):
            rng = np.random.default_rng(np.random.SeedSequence(2025, spawn_key=(n, rep)))
            prof = tl.enumerate_level(env_dirichlet, n, theta_list=[1.0], rng=rng)
            vals.append(prof.martingale[1.0])
        values[n] = np.array(vals)
    for n, vals in values.items():
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        # the weighted level sum at theta = 1 is conserved mass, so the spread
        # is pure float roundoff; the absolute guard keeps the 3-SE band
        # meaningful below statistical resolution
        assert abs(vals.mean() - 1.0) <= 3 * se + 1e-9
    var4 = values[4].var(ddof=1)
    var12 = values[12].var(ddof=1)
    assert var12 < 4 * var4 + 1e-18
    assert time.time() - t0 < 30.0
    _stamp("09 martingale unit mean", t0)


# --------------------------------------------------------------------------
# 10. random-environment phase transition
# --------------------------------------------------------------------------

def test_10_phase_transition(env_dirichlet):
    t0 = time.time()
    rep2 = _converge(env_dirichlet, j=2)
    rep8 = _converge(env_dirichlet, j=8)
    assert abs(rep2.fitted_slope - 4.93261) <= 0.20 * 4.93261
    assert abs(rep8.fitted_slope - 4.3111) <= 0.25 * 4.3111
    assert rep8.fitted_slope < rep2.fitted_slope
    _stamp(
        f"10 phase transition (fits {rep2.fitted_slope:.3f} / {rep8.fitted_slope:.3f})",
        t0,
    )


# --------------------------------------------------------------------------
# 11. random-environment saturation
# --------------------------------------------------------------------------

def test_11_mixture_saturation(env_mixture):
    t0 = time.time()
    rep = tl.asymptotic_constants(env_mixture)
    assert rep.condition_saturation_ok

    # closed-form spectrum as the grid oracle for the root and the constant
    def rho(t):
        return 0.5 ** t + 0.5 * (0.9 ** t + 0.1 ** t)

    def rho_p(t):
        return (0.5 ** t * math.log(0.5)
                + 0.5 * (0.9 ** t * math.log(0.9) + 0.1 ** t * math.log(0.1)))

    def f(t):
        return math.log(rho(t)) - t * rho_p(t) / rho(t)

    root, _ = grid_sup(lambda t: -abs(f(t)), -3.0, -0.5, 20_000)
    zeta_oracle = rho(root) / (-rho_p(root))
    zeta = tl.predicted_saturation_constant(env_mixture)
    assert abs(zeta - zeta_oracle) <= 1e-3
    fit = _converge(env_mixture, j=1)
    assert abs(fit.fitted_slope - zeta) <= 0.25 * zeta
    _stamp(f"11 mixture saturation (fit {fit.fitted_slope:.4f}, want {zeta:.4f})", t0)


# --------------------------------------------------------------------------
# 12. simulator law equals the word-trie law
# --------------------------------------------------------------------------

def test_12_oracle_equivalence(env_markov_b):
    t0 = time.time()
    runs = 5000
    sim_counts = {}
    for k in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence(11, spawn_key=(k,)))
        obs = tl.simulate_occupancy(env_markov_b, 12, 2, rng)
        key = (obs.height, obs.saturation)
        sim_counts[key] = sim_counts.get(key, 0) + 1
    oracle_counts = {}
    for k in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence(12, spawn_key=(k,)))
        words = tl.sample_words(env_markov_b, 12, 64, rng)
        key = tl.brute_force_trie(words, 2)
        oracle_counts[key] = oracle_counts.get(key, 0) + 1
    # pool joint (H, G) cells; merge cells too thin for the chi-squared test
    keys = sorted(set(sim_counts) | set(oracle_counts))
    table = [[], []]
    spill = [0, 0]
    for key in keys:
        a, b = sim_counts.get(key, 0), oracle_counts.get(key, 0)
        if a + b >= 10:
            table[0].append(a)
            table[1].append(b)
        else:
            spill[0] += a
            spill[1] += b
    if spill[0] + spill[1] > 0:
        table[0].append(spill[0])
        table[1].append(spill[1])
    _, p, _, _ = stats.chi2_contingency(np.array(table))
    assert p > 0.001
    assert time.time() - t0 < 30.0
    _stamp(f"12 oracle equivalence (chi-squared p = {p:.3f})", t0)


# --------------------------------------------------------------------------
# 13. byte determinism and replicate stability
# --------------------------------------------------------------------------

def test_13_determinism(env_iid, tmp_path):
    t0 = time.time()
    grid = [256 * 2 ** i for i in range(4)]
    reports = []
    for name in ("one.csv", "two.csv"):
        rep = _converge(env_iid, j=2, reps=6, seed=99, grid=grid)
        path = tmp_path / name
        emit_report(rep, str(path), "csv")
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]
    # extending the replicate count leaves the original replicates untouched
    from trielab.cli import _one_run

    base = [_one_run(env_iid, 2, None, 99, 0, 4096, r) for r in range(6)]
    extended = [_one_run(env_iid, 2, None, 99, 0, 4096, r) for r in range(9)]
    assert extended[:6] == base
    assert time.time() - t0 < 60.0
    _stamp("13 determinism", t0)
