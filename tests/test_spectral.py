"""Tilted spectra: Perron triplets, shape functions, rate function, constants."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given

import trielab as tl
from trielab import spectral
from trielab.errors import (
    ConditionsNotMet,
    NotStrictlyConvex,
    OutsideRegime,
    ThetaOutOfDomain,
    ZOutOfRange,
)

from conftest import PROPERTY, grid_sup, random_envs, rho_prime

LN2 = math.log(2.0)


# --------------------------------------------------------------------------
# tilted matrices
# --------------------------------------------------------------------------

def test_tilted_matrix_elementwise(env_iid):
    tm = tl.tilted_matrix(env_iid, 2.0)
    assert np.allclose(tm.entries, [[0.49, 0.09], [0.49, 0.09]], rtol=0, atol=1e-15)


def test_tilted_matrix_dirichlet(env_dirichlet):
    tm = tl.tilted_matrix(env_dirichlet, 1.0)
    assert np.allclose(tm.entries, 0.5, rtol=1e-12)


def test_tilted_matrix_zero_pattern():
    env = tl.dirichlet_env([[1.0, 2.0, 0.0], [1.0, 1.0, 1.0], [0.5, 0.0, 1.5]])
    tm = tl.tilted_matrix(env, -0.25)
    assert ((tm.entries == 0) == ~env.support).all()
    assert (tm.entries[env.support] > 0).all()


def test_tilted_matrix_domain_error(env_dirichlet):
    with pytest.raises(ThetaOutOfDomain):
        tl.tilted_matrix(env_dirichlet, -1.0)


# --------------------------------------------------------------------------
# Perron triplets
# --------------------------------------------------------------------------

def test_perron_stochastic_matrix(env_markov):
    trip = tl.perron_triplet(tl.tilted_matrix(env_markov, 1.0))
    assert trip.rho == pytest.approx(1.0, abs=1e-12)
    # right eigenvector of a stochastic matrix is constant; w is stationary
    assert np.allclose(trip.v, trip.v[0], rtol=1e-10)
    assert trip.w @ trip.v == pytest.approx(1.0, abs=1e-12)
    assert abs(trip.w.sum() * trip.v[0] - 1.0) < 1e-10


def test_perron_markov_closed_form(env_markov):
    # 2x2 characteristic polynomial: lambda = (1.45 + sqrt(0.0305)) / 2
    want = (1.45 + math.sqrt(0.0305)) / 2
    trip = tl.perron_triplet(tl.tilted_matrix(env_markov, 2.0))
    assert trip.rho == pytest.approx(want, rel=1e-12)


def test_perron_uniform_k3():
    env = tl.deterministic_env(np.full((3, 3), 1 / 3))
    trip = tl.perron_triplet(tl.tilted_matrix(env, 2.0))
    assert trip.rho == pytest.approx(1 / 3, rel=1e-12)


def test_perron_residuals(env_markov):
    for theta in (-1.0, 0.5, 2.0, 5.0):
        tm = tl.tilted_matrix(env_markov, theta)
        trip = tl.perron_triplet(tm)
        A = tm.entries
        assert np.abs(A @ trip.v - trip.rho * trip.v).max() <= 1e-10 * np.abs(trip.v).max()
        assert np.abs(trip.w @ A - trip.rho * trip.w).max() <= 1e-10 * np.abs(trip.w).max()
        assert (trip.v > 0).all() and (trip.w > 0).all()


def test_normalization_invariant_products(env_markov):
    # v_1 w_i is pinned by w.v = 1 no matter how the residual freedom is split
    trip = tl.perron_triplet(tl.tilted_matrix(env_markov, 2.0))
    products = trip.v[0] * trip.w
    v2 = trip.v / trip.v.max()              # alternative scaling
    w2 = trip.w * trip.v.max()
    assert np.allclose(v2[0] * w2, products, rtol=0, atol=1e-12)


# --------------------------------------------------------------------------
# derivatives and shape values
# --------------------------------------------------------------------------

def test_rho_prime_iid_closed_form(env_iid):
    want = 0.49 * math.log(0.7) + 0.09 * math.log(0.3)
    assert rho_prime(env_iid, 2.0) == pytest.approx(want, rel=1e-12)


def test_rho_prime_uniform(env_uniform):
    # rho(theta) = 2^(1-theta), so rho'(1) = -ln 2
    assert rho_prime(env_uniform, 1.0) == pytest.approx(-LN2, rel=1e-12)


def test_rho_prime_negative_at_one(env_iid, env_markov, env_dirichlet):
    for env in (env_iid, env_markov, env_dirichlet):
        assert rho_prime(env, 1.0) < 0


def test_rho_prime_matches_finite_difference(env_iid, env_markov, env_dirichlet, env_mixture):
    h = 1e-5
    for env in (env_iid, env_markov, env_dirichlet, env_mixture):
        for theta in (-0.5, 0.5, 1.0, 2.0, 5.0):
            rp = rho_prime(env, theta)
            fd = (
                tl.perron_triplet(tl.tilted_matrix(env, theta + h)).rho
                - tl.perron_triplet(tl.tilted_matrix(env, theta - h)).rho
            ) / (2 * h)
            assert rp == pytest.approx(fd, rel=1e-6)


def test_shape_values_uniform(env_uniform):
    sv = tl.shape_values(env_uniform, 2.0)
    assert sv.psi == pytest.approx(LN2, abs=1e-12)
    assert sv.phi == pytest.approx(0.0, abs=1e-12)


def test_shape_values_phi_at_one(env_iid, env_markov):
    for env in (env_iid, env_markov):
        assert tl.shape_values(env, 1.0).phi == pytest.approx(0.0, abs=1e-10)


def test_shape_values_iid_psi2(env_iid):
    rho2 = 0.58
    drift = (0.49 * math.log(0.7) + 0.09 * math.log(0.3)) / rho2
    want = math.log(rho2) - 2 * drift
    sv = tl.shape_values(env_iid, 2.0)
    assert sv.psi == pytest.approx(want, abs=1e-12)
    assert sv.f == sv.psi


def test_shape_values_recomputable(env_markov):
    for theta in (-1.0, 0.5, 2.0):
        sv = tl.shape_values(env_markov, theta)
        assert sv.psi == pytest.approx(sv.log_rho - theta * sv.drift, abs=1e-12)
        assert sv.phi == pytest.approx(sv.log_rho - (theta - 1) * sv.drift, abs=1e-12)


def test_deterministic_psi_positive_phi_nonpositive(env_iid, env_markov):
    for env in (env_iid, env_markov):
        for theta in (-4.0, -1.0, 0.0, 0.5, 1.0, 2.0, 5.0, 9.0):
            sv = tl.shape_values(env, theta)
            assert sv.psi > 0
            assert sv.phi <= 1e-10


def test_log_rho_convex_and_c_monotone(env_markov, env_mixture):
    grid = np.linspace(-3.0, 6.0, 25)
    for env in (env_markov, env_mixture):
        svs = [tl.shape_values(env, t) for t in grid]
        lr = np.array([s.log_rho for s in svs])
        assert (np.diff(lr, 2) >= -1e-10).all()
        c = np.array([-1.0 / s.drift for s in svs])
        assert (np.diff(c) >= -1e-10).all()


# --------------------------------------------------------------------------
# rate function
# --------------------------------------------------------------------------

def test_rate_vanishes_at_lln_drift(env_iid):
    z = 0.7 * math.log(0.7) + 0.3 * math.log(0.3)
    assert abs(tl.rate_function(env_iid, z)) <= 1e-8


def test_rate_uniform_degenerate(env_uniform):
    assert tl.rate_function(env_uniform, -LN2) == 0.0
    with pytest.raises(ZOutOfRange):
        tl.rate_function(env_uniform, -LN2 + 0.05)


def test_rate_boundary_value_matches_grid_oracle(env_iid):
    # sup over mu of (mu z - ln rho(mu+1)) scanned densely, as an oracle
    z = math.log(0.7)

    def objective(mu):
        return mu * z - math.log(0.7 ** (mu + 1) + 0.3 ** (mu + 1))

    _, oracle = grid_sup(objective, -40.0, 40.0, 10_000)
    got = tl.rate_function(env_iid, z)
    assert got == pytest.approx(oracle, abs=1e-6)
    assert got == pytest.approx(-math.log(0.7), abs=1e-9)


def test_rate_interior_matches_grid_oracle(env_iid):
    for z in (-0.5, -0.75, -1.0):
        def objective(mu, z=z):
            return mu * z - math.log(0.7 ** (mu + 1) + 0.3 ** (mu + 1))

        _, oracle = grid_sup(objective, -60.0, 60.0, 20_000)
        assert tl.rate_function(env_iid, z) == pytest.approx(oracle, abs=1e-6)
        assert tl.rate_function(env_iid, z) >= -1e-12


def test_rate_mixture_range_ends_are_exact(env_mixture):
    # attainable drifts: [ln 0.1, ln 0.9], the extreme mean cycles of
    # ln min_c p^(c) and ln max_c p^(c)
    for end, inward in ((math.log(0.1), 1.0), (math.log(0.9), -1.0)):
        with pytest.raises(ZOutOfRange):
            tl.rate_function(env_mixture, end - inward * 1e-7)
        inside = tl.rate_function(env_mixture, end + inward * 1e-7)
        assert math.isfinite(inside) and inside >= 0
        # within the 1e-9 tolerance past an end, the end's value
        assert tl.rate_function(env_mixture, end - inward * 1e-12) == tl.rate_function(
            env_mixture, end)


def test_rate_dirichlet_matches_closed_form(env_dirichlet):
    # rho(theta) = 2 / (1 + theta) gives drift -1/(1 + theta), unbounded
    # below as theta -> -1, and I(z) = -1 - 2z - ln(-2z) on z < 0
    for z in (-3.0, -1.0, -0.5, -0.2):
        want = -1.0 - 2.0 * z - math.log(-2.0 * z)
        assert tl.rate_function(env_dirichlet, z) == pytest.approx(want, abs=1e-9)
    with pytest.raises(ZOutOfRange):
        tl.rate_function(env_dirichlet, 0.1)


def test_rate_out_of_range(env_iid):
    with pytest.raises(ZOutOfRange):
        tl.rate_function(env_iid, math.log(0.7) + 0.1)
    with pytest.raises(ZOutOfRange):
        tl.rate_function(env_iid, math.log(0.3) - 0.1)


def test_rate_dirichlet_near_zero_drift_matches_closed_form(env_dirichlet):
    # the drift -1/(1 + theta) reaches z only at theta = -1/z - 1, so the
    # bracket has no cap, and the rate is infinite at z = 0 itself.  At
    # z = -1e-9, theta ~ 1e9: the log moment is a difference of lgamma
    # values of ~2e10, whose rounding (~4e-6 absolute, for any ln Gamma in
    # float64) cancels into it, hence rel = 1e-7 (the error is 7e-8).
    for z in (-1e-3, -1e-6, -1e-9):
        want = -1.0 - 2.0 * z - math.log(-2.0 * z)
        assert tl.rate_function(env_dirichlet, z) == pytest.approx(want, rel=1e-7)
    assert tl.rate_function(env_dirichlet, 0.0) == math.inf


def test_rate_ends_are_minus_drift_minus_log_rho_of_the_critical_matrix(env_markov,
                                                                         env_mixture):
    # the conftest mixture has closed-form ends: rho(theta) e^{-theta ln 0.9}
    # -> 1/2 and rho(theta) 10^{-theta} -> 1/2, so I = -d - ln(1/2) there
    assert tl.rate_function(env_mixture, math.log(0.9)) == pytest.approx(
        -math.log(0.9) + LN2, rel=1e-12)
    assert tl.rate_function(env_mixture, math.log(0.1)) == pytest.approx(
        -math.log(0.1) + LN2, rel=1e-12)
    models = [env_markov, env_mixture] + [mix for _, mix in _sparse_envs()]
    for env in models:
        for sign in (-1, +1):
            d, C = _critical_matrix(env, sign)
            want = -d - math.log(max(abs(np.linalg.eigvals(C))))
            assert tl.rate_function(env, d) == pytest.approx(want, rel=1e-12, abs=1e-12)
            # just inside the end, the rate climbs toward the end value
            inside = tl.rate_function(env, d - sign * 1e-7)
            assert want - 1e-3 < inside < want


# --------------------------------------------------------------------------
# asymptotic constants
# --------------------------------------------------------------------------

def test_constants_iid(env_iid):
    rep = tl.asymptotic_constants(env_iid)
    assert rep.c_star_lower == pytest.approx(-1 / math.log(0.3), abs=1e-6)
    assert rep.c_star_upper == pytest.approx(-1 / math.log(0.7), abs=1e-6)
    assert rep.theta_star_lower == -math.inf
    assert rep.theta_star_upper == math.inf
    assert rep.condition_saturation_ok


def test_constants_uniform(env_uniform):
    rep = tl.asymptotic_constants(env_uniform)
    assert rep.c_star_lower == pytest.approx(1 / LN2, rel=1e-9)
    assert rep.c_star_upper == pytest.approx(1 / LN2, rel=1e-9)


def test_constants_markov_cycle_oracle(env_markov):
    # simple cycles of the support digraph give the exact one-sided limits
    rep = tl.asymptotic_constants(env_markov)
    cycle_means = [math.log(0.9), math.log(0.8), (math.log(0.1) + math.log(0.2)) / 2]
    assert rep.c_star_lower == pytest.approx(-1 / min(cycle_means), rel=1e-12)
    assert rep.c_star_upper == pytest.approx(-1 / max(cycle_means), rel=1e-12)
    assert 0 < rep.c_star_lower <= rep.c_star_upper


def _simple_cycles(P):
    """(mean of ln p, arcs) for every simple cycle of P's support, by enumeration."""
    K = len(P)
    cycles = []
    for k in range(1, K + 1):
        for seq in itertools.permutations(range(K), k):
            if seq[0] != min(seq):
                continue                      # one rotation per cycle
            arcs = list(zip(seq, seq[1:] + seq[:1]))
            if all(P[a][b] > 0 for a, b in arcs):
                cycles.append((sum(math.log(P[a][b]) for a, b in arcs) / k, arcs))
    return cycles


def _simple_cycle_means(P):
    """(min, max) mean of ln p over the simple cycles of P's support."""
    means = [mean for mean, _ in _simple_cycles(P)]
    return min(means), max(means)


def _critical_matrix(env, sign):
    """(drift limit, C) at theta -> sign * inf, from the enumerated simple cycles.

    The log-entries are ln max_c p^(c) (sign +1) or ln min_c p^(c) (sign -1);
    C carries, on the arcs of the simple cycles with the extreme mean, the
    summed weight of the components attaining the extreme (1 for fixed rows).
    """
    comps = env.comps if env.comps is not None else env.rows[None]
    weights = env.weights if env.weights is not None else np.ones(1)
    P = comps.max(axis=0) if sign > 0 else comps.min(axis=0)
    cycles = _simple_cycles(P)
    extreme = (max if sign > 0 else min)(mean for mean, _ in cycles)
    C = np.zeros((env.K, env.K))
    for mean, arcs in cycles:
        if abs(mean - extreme) <= 1e-12:
            for a, b in arcs:
                C[a, b] = weights @ (comps[:, a, b] == P[a, b])
    return extreme, C


def _sparse_envs(count=20, seed=20261018):
    """Seeded deterministic environments, K = 2..6, most with zero entries,
    each with a two-component mixture twin on the same support."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        K = int(rng.integers(2, 7))
        rows = np.zeros((K, K))
        while (np.count_nonzero(rows, axis=1) < 2).any():
            rows = rng.dirichlet(np.ones(K), size=K) * (rng.random((K, K)) > 0.35)
        rows /= rows.sum(axis=1, keepdims=True)
        other = rng.dirichlet(np.ones(K), size=K) * (rows > 0)
        other /= other.sum(axis=1, keepdims=True)
        try:
            env = tl.deterministic_env(rows)
        except tl.errors.NotRegular:
            continue
        out.append((env, tl.mixture_env([0.3, 0.7], [rows, other])))
    return out


def test_cycle_limits_match_simple_cycle_enumeration():
    envs = _sparse_envs()
    assert sum((~env.support).any() for env, _ in envs) >= 10
    for env, mix in envs:
        lo, hi = _simple_cycle_means(env.rows)
        rep = tl.asymptotic_constants(env)
        assert rep.c_star_lower == pytest.approx(-1 / lo, rel=1e-12)
        assert rep.c_star_upper == pytest.approx(-1 / hi, rel=1e-12)
        # mixtures: ln max_c p^(c) dominates as theta -> +inf, ln min_c p^(c) as -inf
        _, hi_mix = _simple_cycle_means(mix.comps.max(axis=0))
        lo_mix, _ = _simple_cycle_means(mix.comps.min(axis=0))
        assert spectral._c_limit(mix, -1) == pytest.approx(-1 / lo_mix, rel=1e-12)
        assert spectral._c_limit(mix, +1) == pytest.approx(-1 / hi_mix, rel=1e-12)


def test_extreme_tilts_approach_the_cycle_limits():
    # at |theta| = 2^12 the unleveled rescaled matrix underflows to a
    # nilpotent one whenever the dominant cycle has unequal arcs
    for env, mix in _sparse_envs():
        for model in (env, mix):
            for sign in (-1, +1):
                log_rho, drift = spectral._eval(model, sign * 4096.0)
                assert math.isfinite(log_rho)
                assert -1 / drift == pytest.approx(spectral._c_limit(model, sign), rel=1e-9)


def test_constants_dirichlet(env_dirichlet):
    rep = tl.asymptotic_constants(env_dirichlet)
    # closed form rho = 2/(1+theta): f = ln2 - ln(1+t) + t/(1+t)
    def f(t):
        return LN2 - math.log(1 + t) + t / (1 + t)

    assert abs(f(rep.theta_star_upper)) <= 1e-8
    assert abs(f(rep.theta_star_lower)) <= 1e-8
    assert rep.theta_star_upper == pytest.approx(3.3110704070010053, abs=1e-6)
    assert rep.theta_star_lower == pytest.approx(-0.6266353822983259, abs=1e-6)
    # at an interior zero of f, the decay constant equals -theta/ln rho(theta)
    assert rep.c_star_upper == pytest.approx(
        -rep.theta_star_upper / (LN2 - math.log(1 + rep.theta_star_upper)), abs=1e-6
    )
    assert rep.c_star_upper == pytest.approx(1 + rep.theta_star_upper, abs=1e-6)
    assert rep.c_star_lower == pytest.approx(1 + rep.theta_star_lower, abs=1e-6)
    # the interior zero makes the saturation prediction available
    assert rep.condition_saturation_ok
    assert tl.predicted_saturation_constant(env_dirichlet) == rep.c_star_lower


def test_constants_mixture_bisection_vs_grid_oracle(env_mixture):
    rep = tl.asymptotic_constants(env_mixture)

    # fully independent closed-form oracle for the mixture spectrum
    def rho(t):
        return 0.5 ** t + 0.5 * (0.9 ** t + 0.1 ** t)

    def rho_p(t):
        return (0.5 ** t * math.log(0.5)
                + 0.5 * (0.9 ** t * math.log(0.9) + 0.1 ** t * math.log(0.1)))

    def f(t):
        return math.log(rho(t)) - t * rho_p(t) / rho(t)

    root, neg_abs = grid_sup(lambda t: -abs(f(t)), -3.0, -0.5, 20_000)
    assert abs(neg_abs) <= 1e-6
    assert rep.theta_star_lower == pytest.approx(root, abs=1e-3)
    zeta_oracle = rho(root) / (-rho_p(root))
    assert rep.c_star_lower == pytest.approx(zeta_oracle, abs=1e-3)
    assert rep.condition_saturation_ok


def test_not_strictly_convex_mixture():
    # a single-component mixture has an affine log rho: condition fails
    env = tl.mixture_env([1.0], [[[0.5, 0.5], [0.5, 0.5]]])
    with pytest.raises(NotStrictlyConvex):
        tl.asymptotic_constants(env)


def test_f_limits_match_f_at_extreme_tilts(env_markov, env_mixture):
    # f(+-inf) = ln rho(C+-), exact.  f approaches it like e^{-|theta| gap},
    # gap the distance from the critical cycle mean to the next one; one
    # mixture here has gap ~ 0.004, so f is 4e-8 away at 4096 and 3e-13 at 16384
    models = [env_markov, env_mixture] + [m for pair in _sparse_envs() for m in pair]
    for env in models:
        for sign in (-1, +1):
            f_end = spectral._critical(env, sign)[2]
            _, C = _critical_matrix(env, sign)
            assert f_end == pytest.approx(math.log(max(abs(np.linalg.eigvals(C)))),
                                          rel=1e-12, abs=1e-12)
            assert tl.shape_values(env, sign * 4096.0).f == pytest.approx(f_end, abs=1e-7)
            assert tl.shape_values(env, sign * 16384.0).f == pytest.approx(f_end, abs=1e-10)


def test_f_staying_positive_leaves_an_endpoint_infinite():
    # on the critical self-loop at type 1 both components agree, so
    # f(+inf) = ln 1 = 0 on the upper side (and likewise f(-inf) = 0 for the
    # second environment): f stays positive there and no zero exists
    upper = tl.mixture_env([0.5, 0.5], [[[0.9, 0.1], [0.5, 0.5]], [[0.9, 0.1], [0.3, 0.7]]])
    lower = tl.mixture_env([0.5, 0.5], [[[0.05, 0.95], [0.5, 0.5]],
                                        [[0.05, 0.95], [0.6, 0.4]]])
    rep = tl.asymptotic_constants(upper)
    assert spectral._critical(upper, +1)[2] == 0.0
    assert rep.theta_star_upper == math.inf
    assert rep.c_star_upper == pytest.approx(-1 / math.log(0.9), rel=1e-12)
    assert rep.condition_saturation_ok and rep.theta_star_lower < 0
    rep = tl.asymptotic_constants(lower)
    assert spectral._critical(lower, -1)[2] == 0.0
    assert rep.theta_star_lower == -math.inf
    assert rep.c_star_lower == pytest.approx(-1 / math.log(0.05), rel=1e-12)
    assert not rep.condition_saturation_ok
    with pytest.raises(ConditionsNotMet):
        tl.predicted_saturation_constant(lower)


def test_constants_solve_few_points(env_dirichlet, env_mixture, monkeypatch):
    # one bracket walk and one root solve per side, not a scan of a grid
    calls = []
    inner = spectral._eval
    monkeypatch.setattr(spectral, "_eval", lambda env, t: calls.append(t) or inner(env, t))
    for env in (env_dirichlet, env_mixture, tl.dirichlet_env([[5.0, 5.0], [5.0, 5.0]])):
        spectral.asymptotic_constants.__wrapped__(env)
        assert len(calls) <= 40
        calls.clear()


def test_import_and_constants_leave_scipy_unloaded():
    # scipy is a test-only reference: the package runs on numpy alone
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, trielab as tl\n"
            "tl.asymptotic_constants(tl.dirichlet_env([[1.0, 1.0], [1.0, 1.0]]))\n"
            "tl.asymptotic_constants(tl.mixture_env([0.5, 0.5], [[[0.5, 0.5], [0.5, 0.5]],"
            " [[0.9, 0.1], [0.9, 0.1]]]))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# --------------------------------------------------------------------------
# properties over random environments
# --------------------------------------------------------------------------

@PROPERTY
@given(env=random_envs())
def test_log_rho_is_convex_and_f_is_unimodal(env):
    # Kingman (1961): log rho is convex, so f' = -theta d' >= 0 for theta < 0
    # and <= 0 for theta > 0
    lo = max(-6.0, 0.9 * env.domain_lo)
    thetas = np.concatenate([np.linspace(lo, 0.0, 25), np.linspace(0.0, 8.0, 33)[1:]])
    pts = [spectral._eval(env, t) for t in thetas]
    log_rho = np.array([p[0] for p in pts])
    drift = np.array([p[1] for p in pts])
    f = log_rho - thetas * drift
    slopes = np.diff(log_rho) / np.diff(thetas)
    tol = 1e-9 * max(1.0, np.abs(log_rho).max())
    assert (np.diff(slopes) >= -tol).all()
    assert (np.diff(drift) >= -tol).all()
    assert (drift[:-1] - tol <= slopes).all() and (slopes <= drift[1:] + tol).all()
    left = thetas <= 0.0
    assert (np.diff(f[left]) >= -tol).all()
    assert (np.diff(f[~left][::-1]) >= -tol).all()       # nonincreasing past 0
    assert f[thetas == 0.0][0] >= LN2 - 1e-12


@PROPERTY
@given(env=random_envs())
def test_rho_is_one_at_theta_one_and_envs_round_trip(env):
    # the theta = 1 moment matrix is row-stochastic
    assert abs(spectral._eval(env, 1.0)[0]) <= 1e-12
    assert tl.parse_env_text(tl.serialize_env(env)) == env


# --------------------------------------------------------------------------
# predicted constants
# --------------------------------------------------------------------------

def test_height_constant_iid(env_iid):
    assert tl.predicted_height_constant(env_iid, j=2) == pytest.approx(
        2 / (-math.log(0.58)), rel=1e-10
    )


def test_height_constant_markov(env_markov):
    lam = (1.45 + math.sqrt(0.0305)) / 2
    assert tl.predicted_height_constant(env_markov, j=2) == pytest.approx(
        2 / (-math.log(lam)), rel=1e-9
    )


def test_height_constant_dirichlet_phases(env_dirichlet):
    assert tl.predicted_height_constant(env_dirichlet, j=2) == pytest.approx(
        2 / (-math.log(2 / 3)), rel=1e-9
    )
    rep = tl.asymptotic_constants(env_dirichlet)
    assert tl.predicted_height_constant(env_dirichlet, j=8) == rep.c_star_upper
    assert tl.predicted_height_constant(env_dirichlet, j=4) == rep.c_star_upper
    # j = 3 sits below the upper endpoint ~3.311: fixed-j formula applies
    assert tl.predicted_height_constant(env_dirichlet, j=3) == pytest.approx(
        3 / (-math.log(0.5)), rel=1e-9
    )


def test_power_regime_constant(env_uniform, env_iid, env_dirichlet):
    assert tl.predicted_height_constant(env_uniform, power_alpha=0.5) == pytest.approx(
        0.5 / LN2, rel=1e-9
    )
    assert tl.predicted_height_constant(env_iid, power_alpha=0.5) == pytest.approx(
        0.5 * -1 / math.log(0.7), rel=1e-5
    )
    with pytest.raises(OutsideRegime):
        tl.predicted_height_constant(env_dirichlet, power_alpha=0.5)


def test_saturation_constant(env_iid, env_uniform, env_mixture):
    assert tl.predicted_saturation_constant(env_iid) == pytest.approx(
        -1 / math.log(0.3), abs=1e-6
    )
    assert tl.predicted_saturation_constant(env_uniform) == pytest.approx(1 / LN2, rel=1e-9)
    rep = tl.asymptotic_constants(env_mixture)
    assert tl.predicted_saturation_constant(env_mixture) == rep.c_star_lower


def test_saturation_constant_conditions_not_met():
    # push the domain edge to theta = -1/4: f is still negative approaching it,
    # but an environment whose f stays positive to the boundary must refuse;
    # build one by flattening the row law so log rho loses its interior root
    env = tl.dirichlet_env([[0.25, 8.0], [8.0, 0.25]])
    rep = tl.asymptotic_constants(env)
    if rep.condition_saturation_ok:
        assert tl.predicted_saturation_constant(env) == rep.c_star_lower
    else:
        with pytest.raises(ConditionsNotMet):
            tl.predicted_saturation_constant(env)


# --------------------------------------------------------------------------
# spectral profile
# --------------------------------------------------------------------------

def test_profile_uniform_grid(env_uniform):
    prof = tl.spectral_profile(env_uniform, [0.0, 1.0, 2.0])
    lr = [sv.log_rho for sv in prof.shapes]
    assert lr == pytest.approx([LN2, 0.0, -LN2], abs=1e-12)


def test_profile_rho_one_at_theta_one(env_markov, env_dirichlet):
    for env in (env_markov, env_dirichlet):
        prof = tl.spectral_profile(env, [1.0])
        assert prof.shapes[0].log_rho == pytest.approx(0.0, abs=1e-12)


def test_profile_dirichlet_k3():
    env = tl.dirichlet_env(np.ones((3, 3)))
    prof = tl.spectral_profile(env, [1.0])
    assert math.exp(prof.shapes[0].log_rho) == pytest.approx(1.0, rel=1e-12)


def test_profile_sorts_and_reports_offender(env_dirichlet):
    prof = tl.spectral_profile(env_dirichlet, [2.0, 0.0, 1.0])
    assert list(prof.thetas) == [0.0, 1.0, 2.0]
    with pytest.raises(ThetaOutOfDomain) as exc:
        tl.spectral_profile(env_dirichlet, [0.0, -5.0])
    assert exc.value.grid_index == 1


# --------------------------------------------------------------------------
# stacked evaluation
# --------------------------------------------------------------------------

_K5 = 0.1 + np.random.default_rng(5).dirichlet(np.full(5, 2.0), size=5)
# conftest fixtures by name, then environments built here
EVAL_ENVS = {
    "iid": "env_iid",
    "markov": "env_markov",
    "dirichlet": "env_dirichlet",
    "mixture": "env_mixture",
    "sparse3": lambda: tl.deterministic_env([[0.5, 0.3, 0.2], [0.6, 0, 0.4], [0, 0.7, 0.3]]),
    "sparse-dirichlet": lambda: tl.dirichlet_env([[1.0, 2.0, 0.0], [1.0, 1.0, 1.0],
                                                  [0.5, 0.0, 1.5]]),
    "sparse-mixture3": lambda: tl.mixture_env(
        [0.2, 0.3, 0.5],
        [[[0.5, 0.3, 0.2], [0.6, 0, 0.4], [0, 0.7, 0.3]],
         [[0.1, 0.1, 0.8], [0.3, 0, 0.7], [0, 0.5, 0.5]],
         [[0.6, 0.2, 0.2], [0.9, 0, 0.1], [0, 0.2, 0.8]]]),
    "small-alpha": lambda: tl.dirichlet_env([[0.05, 0.02], [0.03, 0.08]]),
    "markov5": lambda: tl.deterministic_env(_K5 / _K5.sum(axis=1, keepdims=True)),
    "dirichlet5": lambda: tl.dirichlet_env(_K5 * 10.0),
}


def _eval_env(name, request):
    make = EVAL_ENVS[name]
    return request.getfixturevalue(make) if isinstance(make, str) else make()


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _tilts_through_zero(env, n=41):
    """n tilts from near the domain's lower end (or -6) to 8, through 0 exactly,
    then the extreme tilt 4096 and, on an unbounded domain, -4096."""
    lo = -6.0 if math.isinf(env.domain_lo) else env.domain_lo * (1.0 - 2.0 ** -20)
    return np.concatenate([np.linspace(lo, 0.0, n // 2),
                           np.linspace(0.0, 8.0, n - n // 2 + 1)[1:],
                           [4096.0], [-4096.0] if math.isinf(env.domain_lo) else []])


@pytest.mark.parametrize("name", sorted(EVAL_ENVS))
def test_stacked_evaluation_matches_one_tilt_bit_for_bit(name, request):
    env = _eval_env(name, request)
    grid = _tilts_through_zero(env)
    assert 0.0 in grid and grid.size <= spectral._TILT_CHUNK
    log_rho, drift = spectral._eval(env, grid)
    one = [spectral._eval(env, float(t)) for t in grid]
    assert _bits(log_rho) == _bits([p[0] for p in one])
    assert _bits(drift) == _bits([p[1] for p in one])
    for moments in (tl.envs.log_moment_matrix, tl.envs.dlog_moment_matrix):
        stack = moments(env, grid)
        assert stack.shape == (grid.size, env.K, env.K)
        assert _bits(stack) == _bits([moments(env, float(t)) for t in grid])


@pytest.mark.parametrize("name", ["dirichlet", "small-alpha", "sparse-dirichlet", "dirichlet5"])
def test_dirichlet_grid_approaching_domain_lo(name, request):
    # the smallest-alpha moment blows up at domain_lo: the drift falls without
    # bound while log rho stays finite on the way
    env = _eval_env(name, request)
    grid = env.domain_lo * (1.0 - 2.0 ** -np.arange(1.0, 48.0))
    prof = tl.spectral_profile(env, grid.tolist())
    log_rho = np.array([sv.log_rho for sv in prof.shapes])
    drift = np.array([sv.drift for sv in prof.shapes])
    assert np.isfinite(log_rho).all() and np.isfinite(drift).all()
    assert (np.diff(drift) > 0).all() and drift[0] < -20.0
    one = [tl.shape_values(env, t) for t in prof.thetas.tolist()]
    assert _bits(log_rho) == _bits([sv.log_rho for sv in one])
    assert _bits(drift) == _bits([sv.drift for sv in one])


def test_grid_longer_than_one_chunk(env_mixture, monkeypatch):
    sizes = []
    inner = spectral._eval
    monkeypatch.setattr(spectral, "_eval",
                        lambda env, t: sizes.append(np.size(t)) or inner(env, t))
    n = 2 * spectral._TILT_CHUNK + 3
    grid = np.linspace(-3.0, 5.0, n)[::-1]
    prof = tl.spectral_profile(env_mixture, grid.tolist())
    # the grid in chunks, then one-tilt root solves for the constants (unless
    # an earlier test left them in the cache)
    chunk = spectral._TILT_CHUNK
    assert sizes[:3] == [chunk, chunk, 3] and set(sizes[3:]) <= {1}
    assert list(prof.thetas) == sorted(grid)
    monkeypatch.setattr(spectral, "_eval", inner)
    one = [tl.shape_values(env_mixture, t) for t in prof.thetas.tolist()]
    for field in ("log_rho", "drift", "psi", "phi", "f"):
        assert _bits([getattr(sv, field) for sv in prof.shapes]) == \
            _bits([getattr(sv, field) for sv in one]), field


def test_out_of_domain_grid_is_refused_before_anything_is_evaluated(env_dirichlet, env_iid,
                                                                     monkeypatch):
    def evaluated(*_):
        raise AssertionError("a refused grid was evaluated")

    monkeypatch.setattr(spectral, "_eval", evaluated)
    monkeypatch.setattr(spectral, "asymptotic_constants", evaluated)
    for env, grid, idx in ((env_dirichlet, [0.5] * 300 + [-1.0, -2.0], 300),
                           (env_dirichlet, [2.0, math.nan, -3.0], 1),
                           (env_iid, [0.0, 1.0, math.inf], 2)):
        with pytest.raises(ThetaOutOfDomain, match=f"grid point {idx} ") as exc:
            tl.spectral_profile(env, grid)
        assert exc.value.grid_index == idx


def test_long_grid_memory_is_bounded_by_the_chunk():
    # a K = 5 grid of 4096 tilts: one stack of all of them takes about 7 MB of
    # moment, eigenvector and scratch arrays at once, one chunk about 0.25 MB
    env = tl.deterministic_env(_K5 / _K5.sum(axis=1, keepdims=True))
    grid = np.linspace(-2.0, 6.0, 4096).tolist()
    tl.spectral_profile(env, grid[:2])               # constants and caches before tracing
    tracemalloc.start()
    try:
        prof = tl.spectral_profile(env, grid)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(prof.shapes) == 4096
    assert peak - held < 2 ** 20
