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


_DET2 = "[env]\nkind = deterministic\nK = 2\n"
_ROWS2 = "row.1 = 0.5 0.5\nrow.2 = 0.5 0.5\n"
_MIX2 = "[env]\nkind = mixture\nK = 2\nweights = 1\ncomp.1.row.1 = 0.5 0.5\ncomp.1.row.2 = 0.5 0.5\n"

# files the parser refuses: (file text, line the refusal names, message pattern)
MALFORMED_ENVS = [pytest.param(*case, id=name) for name, case in {
    "alpha-in-deterministic": (_DET2 + _ROWS2 + "alpha.1 = 1 1\n", 6,
                               "unknown key 'alpha.1'; a deterministic file"),
    "row-past-K": (_DET2 + _ROWS2 + "row.3 = 0.5 0.5\n", 6, "unknown key 'row.3'"),
    "comp-past-M": (_MIX2 + "comp.2.row.1 = 0.5 0.5\n", 7, "unknown key 'comp.2.row.1'"),
    "repeated-key": (_DET2 + "row.1 = 0.5 0.5\nrow.1 = 0.7 0.3\nrow.2 = 0.5 0.5\n", 5,
                     "repeated key 'row.1', first on line 4"),
    "repeated-section": (_DET2 + "row.1 = 0.5 0.5\n[env]\nrow.2 = 0.5 0.5\n", 5,
                         r"repeated \[env\] section"),
    "negative-K": ("[env]\nkind = deterministic\nK = -1\n" + _ROWS2, 3,
                   "K must be at least 2, got -1"),
    "huge-K": ("[env]\nkind = deterministic\nK = 100000000\n" + _ROWS2, 0, "missing row.3"),
    "short-file": ("[env]\nkind = deterministic\nK = 3\nrow.1 = 0.5 0.25 0.25\n"
                   "row.2 = 0.5 0.25 0.25\n", 0, "missing row.3"),
    "no-weights": ("[env]\nkind = mixture\nK = 2\ncomp.1.row.1 = 0.5 0.5\n", 0, "missing weights"),
    "long-row": (_DET2 + "row.1 = 0.5 0.25 0.25\nrow.2 = 0.5 0.5\n", 4,
                 "row.1 has 3 entries, expected 2"),
    "nan": (_DET2 + "row.1 = nan 0.5\nrow.2 = 0.5 0.5\n", 4, "number 'nan' is not finite"),
    "inf": (_DET2 + "row.1 = 0.5 0.5\nrow.2 = 0.5 -inf\n", 5, "number '-inf' is not finite"),
    "overflow": (_DET2 + "row.1 = 0.5 0.5\nrow.2 = 1e400 0.5\n", 5,
                 "number '1e400' is not finite"),
    # int() and float() take digit-group underscores and any script's digits
    "underscore-number": (_DET2 + "row.1 = 0.6_5 0.35\nrow.2 = 0.5 0.5\n", 4,
                          "number '0.6_5' is not a plain ASCII decimal"),
    "non-ascii-number": (_DET2 + "row.1 = 0.5 0.5\nrow.2 = 0.5 \u0660.5\n", 5,
                         "number '\u0660.5' is not a plain ASCII decimal"),
    "non-ascii-K": ("[env]\nkind = deterministic\nK = \u0662\n" + _ROWS2, 3,
                    "K must be a plain ASCII integer, got '\u0662'"),
    "underscore-K": ("[env]\nkind = deterministic\nK = 0_2\n" + _ROWS2, 3,
                     "K must be a plain ASCII integer, got '0_2'"),
}.items()]


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
def random_envs(draw, max_K=4, comps=(2, 3)):
    """Deterministic, Dirichlet or mixture environments on random
    positive-regular supports, K <= max_K, a mixture's component count in
    the closed range comps."""
    K = draw(st.integers(2, max_K))
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
        weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=comps[0], max_size=comps[1])))
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
