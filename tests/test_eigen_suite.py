"""Eigen-solver invariant sweep over randomly generated stochastic matrices.

200 seeded matrices with K in 2..6 and fully positive rows; for every theta in
{-1, 0.5, 1, 2, 5} the triplet must satisfy the residual, normalization,
convexity, monotonicity and derivative-consistency invariants.
"""

import math

import numpy as np
import pytest

import trielab as tl

from conftest import rho_prime

THETAS = (-1.0, 0.5, 1.0, 2.0, 5.0)


def random_envs(count=200, seed=20240913):
    rng = np.random.default_rng(seed)
    envs = []
    while len(envs) < count:
        K = int(rng.integers(2, 7))
        rows = rng.dirichlet(np.ones(K) * rng.uniform(1.0, 3.0), size=K)
        if rows.min() < 1e-4:      # keep transition probabilities realistic
            continue
        envs.append(tl.deterministic_env(rows))
    return envs


@pytest.fixture(scope="module")
def suite():
    envs = random_envs()
    triplets = {}
    for idx, env in enumerate(envs):
        for theta in THETAS:
            tm = tl.tilted_matrix(env, theta)
            triplets[(idx, theta)] = (tm, tl.perron_triplet(tm))
    return envs, triplets


def test_residuals_and_normalization(suite):
    envs, triplets = suite
    for (idx, theta), (tm, trip) in triplets.items():
        A = tm.entries
        assert np.abs(A @ trip.v - trip.rho * trip.v).max() <= 1e-10 * np.abs(trip.v).max()
        assert np.abs(trip.w @ A - trip.rho * trip.w).max() <= 1e-10 * np.abs(trip.w).max()
        assert abs(trip.w @ trip.v - 1.0) <= 1e-12
        assert (trip.v > 0).all() and (trip.w > 0).all()
        rowsums = A.sum(axis=1)
        assert rowsums.min() - 1e-12 <= trip.rho <= rowsums.max() + 1e-12


def test_normalization_invariance(suite):
    envs, triplets = suite
    for (idx, theta), (tm, trip) in triplets.items():
        scale = 1.0 + 0.5 * math.sin(idx + theta)  # arbitrary nonzero rescale
        products = trip.v[0] * trip.w
        assert np.allclose((trip.v * scale)[0] * (trip.w / scale), products,
                           rtol=0, atol=1e-12)


def test_log_rho_convexity_and_c_monotonicity(suite):
    envs, triplets = suite
    for idx, env in enumerate(envs):
        lr = np.array([math.log(triplets[(idx, t)][1].rho) for t in THETAS])
        # uneven grid: compare successive divided differences
        slopes = np.diff(lr) / np.diff(np.array(THETAS))
        assert (np.diff(slopes) >= -1e-9).all()
        c = np.array([-1.0 / tl.shape_values(env, t).drift for t in THETAS])
        assert (np.diff(c) >= -1e-9 * np.abs(c[1:])).all()


def test_derivative_consistency(suite):
    envs, triplets = suite
    h = 1e-5
    for idx, env in enumerate(envs):
        for theta in THETAS:
            rp = rho_prime(env, theta)
            fd = (
                tl.perron_triplet(tl.tilted_matrix(env, theta + h)).rho
                - tl.perron_triplet(tl.tilted_matrix(env, theta - h)).rho
            ) / (2 * h)
            assert rp == pytest.approx(fd, rel=1e-6)


def test_rho_one_at_theta_one(suite):
    envs, triplets = suite
    for idx in range(len(envs)):
        assert triplets[(idx, 1.0)][1].rho == pytest.approx(1.0, abs=1e-12)
