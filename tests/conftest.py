import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, settings
from hypothesis import strategies as st

import trielab as tl
from trielab import envs
from trielab.errors import NotRegular

PROPERTY = settings(max_examples=40, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.filter_too_much])


@pytest.fixture(scope="session")
def env_iid():
    """i.i.d. letters with probabilities (0.7, 0.3)."""
    return tl.deterministic_env([[0.7, 0.3], [0.7, 0.3]])


@pytest.fixture(scope="session")
def env_uniform():
    return tl.deterministic_env([[0.5, 0.5], [0.5, 0.5]])


@pytest.fixture(scope="session")
def env_markov():
    return tl.deterministic_env([[0.9, 0.1], [0.2, 0.8]])


@pytest.fixture(scope="session")
def env_markov_b():
    return tl.deterministic_env([[0.7, 0.3], [0.4, 0.6]])


@pytest.fixture(scope="session")
def env_dirichlet():
    """Uniform-on-the-simplex rows: tilted moments 2/(1+theta)."""
    return tl.dirichlet_env([[1.0, 1.0], [1.0, 1.0]])


@pytest.fixture(scope="session")
def env_mixture():
    return tl.mixture_env(
        [0.5, 0.5],
        [[[0.5, 0.5], [0.5, 0.5]], [[0.9, 0.1], [0.9, 0.1]]],
    )


@st.composite
def random_envs(draw):
    """Deterministic, Dirichlet or mixture environments on random
    positive-regular supports, K <= 4."""
    K = draw(st.integers(2, 4))
    support = np.array(draw(st.lists(st.lists(st.booleans(), min_size=K, max_size=K),
                                     min_size=K, max_size=K)))
    assume((support.sum(axis=1) >= 2).all())

    def matrix(lo, hi):
        vals = draw(st.lists(st.floats(lo, hi), min_size=K * K, max_size=K * K))
        return np.where(support, np.array(vals).reshape(K, K), 0.0)

    def stochastic():
        rows = matrix(0.05, 1.0)
        return rows / rows.sum(axis=1, keepdims=True)

    kind = draw(st.sampled_from(["deterministic", "dirichlet", "mixture"]))
    try:
        if kind == "deterministic":
            return tl.deterministic_env(stochastic())
        if kind == "dirichlet":
            return tl.dirichlet_env(matrix(0.1, 5.0))
        weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=2, max_size=3)))
        return tl.mixture_env(weights / weights.sum(), [stochastic() for _ in weights])
    except NotRegular:
        assume(False)


def grid_sup(objective, lo: float, hi: float, steps: int):
    """Reference optimizer: dense-grid maximum with one golden-section
    refinement pass, independent of the spectral solvers' root brackets."""
    if steps < 2:
        raise ValueError("need at least 2 grid steps")
    xs = np.linspace(lo, hi, steps)
    vals = np.array([objective(x) for x in xs])
    i = int(np.argmax(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, steps - 1)]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(90):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    x_best = 0.5 * (a + b)
    f_best = objective(x_best)
    if f_best >= vals[i]:
        return float(x_best), float(f_best)
    return float(xs[i]), float(vals[i])


def laplace_entry(env, i: int, j: int, theta: float) -> float:
    """Tilted moment m_ij(theta) for 1-based types i, j; 0 off the support."""
    return float(np.exp(envs.log_moment_matrix(env, theta)[i - 1, j - 1]))


def rho_prime(env, theta: float) -> float:
    """rho'(theta) = drift * rho, the eigenvalue perturbation identity w^T A'(theta) v."""
    sv = tl.shape_values(env, theta)
    return sv.drift * math.exp(sv.log_rho)
