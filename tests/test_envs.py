"""Environment construction, tilted moments, regularity, sampling, file I/O."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import trielab as tl
from trielab import envs
from trielab.errors import (
    BadAlpha,
    BadRows,
    BadSupport,
    EnvParseError,
    NotRegular,
    ThetaOutOfDomain,
)

from conftest import MALFORMED_ENVS, PROPERTY, laplace_entry, random_envs


# --------------------------------------------------------------------------
# construction and validation
# --------------------------------------------------------------------------

def test_make_env_deterministic(env_iid):
    assert env_iid.kind == "deterministic"
    assert env_iid.domain_L == (-math.inf, math.inf)
    assert env_iid.support.all()


def test_make_env_dirichlet_domain(env_dirichlet):
    assert env_dirichlet.domain_L == (-1.0, math.inf)


def test_make_env_mixture(env_mixture):
    assert env_mixture.kind == "mixture"
    assert env_mixture.domain_L == (-math.inf, math.inf)
    assert env_mixture.support.all()


def test_bad_rows_rejected():
    with pytest.raises(BadRows):
        tl.deterministic_env([[0.7, 0.4], [0.5, 0.5]])
    with pytest.raises(BadRows):
        tl.mixture_env([0.6, 0.5], [[[0.5, 0.5], [0.5, 0.5]]] * 2)


def test_bad_alpha_rejected():
    with pytest.raises(BadAlpha):
        tl.dirichlet_env([[1.0, -0.5], [1.0, 1.0]])


@pytest.mark.parametrize("build, error", [
    (lambda: tl.deterministic_env([[math.nan, 0.5, 0.5], [0.2, 0.4, 0.4], [0.3, 0.3, 0.4]]),
     BadRows),
    (lambda: tl.mixture_env([math.nan, 1.0], [[[0.5, 0.5], [0.5, 0.5]]] * 2), BadRows),
    (lambda: tl.dirichlet_env([[math.inf, 1.0], [1.0, 1.0]]), BadAlpha),
    (lambda: tl.dirichlet_env([[1.0, 1.0], [1e308, 1e308]]), BadAlpha),     # the sum overflows
], ids=["nan-row", "nan-weight", "inf-alpha", "overflowing-alpha-sum"])
def test_non_finite_payloads_are_refused(build, error):
    with pytest.raises(error):
        build()


def test_bad_support_rejected():
    with pytest.raises(BadSupport):
        tl.mixture_env(
            [0.5, 0.5],
            [[[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.9, 0.1]]],
        )


def test_two_cycle_not_regular():
    with pytest.raises(NotRegular):
        tl.deterministic_env([[0.0, 1.0], [1.0, 0.0]])


def test_degenerate_row_rejected():
    # a row with a single supported entry cannot split its balls
    with pytest.raises(NotRegular):
        tl.dirichlet_env([[1.0, 1.0], [2.0, 0.0]])


# --------------------------------------------------------------------------
# regularity reports
# --------------------------------------------------------------------------

def test_regularity_full_support(env_iid):
    rep = tl.regularity(env_iid)
    assert rep.irreducible and rep.aperiodic and rep.positive_regular
    assert rep.r == 1


def test_regularity_pure_cycle():
    rep = tl.regularity_from_support(np.array([[False, True], [True, False]]))
    assert rep.irreducible
    assert not rep.aperiodic
    assert not rep.positive_regular


def test_regularity_r2():
    rep = tl.regularity_from_support(np.array([[True, True], [True, False]]))
    assert rep.positive_regular
    assert rep.r == 2


# --------------------------------------------------------------------------
# tilted moments
# --------------------------------------------------------------------------

def test_laplace_deterministic(env_iid):
    assert laplace_entry(env_iid, 1, 1, -1.0) == pytest.approx(1 / 0.7, rel=1e-14)
    assert laplace_entry(env_iid, 1, 2, 3.0) == pytest.approx(0.3 ** 3, rel=1e-14)


def test_laplace_dirichlet_matches_quadrature(env_dirichlet):
    # independent oracle: E p^theta for p ~ Uniform(0,1) by numeric integration
    for theta in (2.0, 0.5, -0.5):
        want, _ = integrate.quad(lambda p: p ** theta, 0.0, 1.0)
        got = laplace_entry(env_dirichlet, 1, 1, theta)
        assert got == pytest.approx(want, rel=1e-9)
    assert laplace_entry(env_dirichlet, 1, 2, 2.0) == pytest.approx(1 / 3, rel=1e-12)


def test_laplace_mixture(env_mixture):
    assert laplace_entry(env_mixture, 1, 1, 2.0) == pytest.approx(
        0.5 * 0.5 ** 2 + 0.5 * 0.9 ** 2, rel=1e-14
    )


def test_lgamma_and_digamma_match_scipy():
    # the Dirichlet log moments take the stdlib lgamma and envs._digamma; scipy
    # is the independent reference (relative error, absolute where |value| < 1)
    x = np.concatenate([np.geomspace(1e-6, 1e20, 60_000), np.linspace(1e-6, 20.0, 20_000)])
    lgamma = np.vectorize(math.lgamma)
    for ours, ref in ((lgamma, special.gammaln), (envs._digamma, special.digamma)):
        want = ref(x)
        err = np.abs(ours(x) - want) / np.maximum(np.abs(want), 1.0)
        assert err.max() <= 4e-15, (ref.__name__, x[np.argmax(err)])


def _dirichlet_moments_reference(env, theta):
    # the per-entry formula: four lgamma and two digamma values per entry,
    # the row sum a0 taken again for every entry of its row
    sup = env.support
    a, a0 = env.alpha[sup], env.alpha.sum(axis=1)[np.nonzero(sup)[0]]
    args = np.concatenate([a0, a + theta, a0 + theta, a]).tolist()
    g0, g_theta, g0_theta, g = np.array([math.lgamma(v) for v in args]).reshape(4, -1)
    log_m = np.full((env.K, env.K), -np.inf)
    log_m[sup] = g0 + g_theta - g0_theta - g
    psi, psi0 = envs._digamma(np.concatenate([a + theta, a0 + theta])).reshape(2, -1)
    dlog_m = np.zeros((env.K, env.K))
    dlog_m[sup] = psi - psi0
    return log_m, dlog_m


@PROPERTY
@given(env=random_envs(), offset=st.floats(1e-6, 1e3), log_scale=st.floats(-3.0, 6.0))
def test_dirichlet_moments_match_the_per_entry_formula_bit_for_bit(env, offset, log_scale):
    # row terms once per row and theta-free terms once per environment: the
    # same values summed in the same order, so equal to the last bit
    assume(env.kind == "dirichlet")
    for theta in (env.domain_lo + offset, 10.0 ** log_scale):
        log_m, dlog_m = _dirichlet_moments_reference(env, theta)
        assert np.array_equal(envs.log_moment_matrix(env, theta), log_m)
        assert np.array_equal(envs.dlog_moment_matrix(env, theta), dlog_m)


@PROPERTY
@given(env=random_envs(), seed=st.integers(0, 2 ** 32 - 1))
def test_moment_stacks_match_each_tilt_bit_for_bit(env, seed):
    lo = max(-6.0, env.domain_lo)
    thetas = np.random.default_rng(seed).uniform(lo, 8.0, size=9)
    thetas = thetas[thetas > env.domain_lo]
    for moments in (envs.log_moment_matrix, envs.dlog_moment_matrix):
        stack = moments(env, thetas)
        assert stack.shape == (thetas.size, env.K, env.K)
        assert stack.tobytes() == np.array([moments(env, t) for t in thetas.tolist()]).tobytes()


def test_moment_stack_refuses_its_first_tilt_outside_the_domain(env_dirichlet):
    with pytest.raises(ThetaOutOfDomain, match=r"theta = -2\.0 outside"):
        envs.log_moment_matrix(env_dirichlet, np.array([0.5, -2.0, -3.0]))
    with pytest.raises(ThetaOutOfDomain, match="theta = nan outside"):
        envs.dlog_moment_matrix(env_dirichlet, np.array([0.5, np.nan]))


def test_equal_payloads_compare_and_hash_equal():
    rows = [[0.9, 0.1], [0.2, 0.8]]
    a, b = tl.deterministic_env(rows), tl.deterministic_env(np.array(rows))
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: "cached"}[b] == "cached"
    assert a._payload is a._payload                  # built once per instance
    assert tl.parse_env_text(tl.serialize_env(a)) == a
    # a different kind, row or mixture weight is a different environment
    assert a != tl.dirichlet_env(rows) and a != tl.deterministic_env([[0.9, 0.1], [0.3, 0.7]])
    comps = [[[0.5, 0.5], [0.5, 0.5]], [[0.9, 0.1], [0.9, 0.1]]]
    assert tl.mixture_env([0.5, 0.5], comps) == tl.mixture_env([0.5, 0.5], comps)
    assert tl.mixture_env([0.5, 0.5], comps) != tl.mixture_env([0.4, 0.6], comps)
    assert a.__eq__("markov") is NotImplemented


def test_laplace_theta_zero_and_support():
    env = tl.dirichlet_env([[1.0, 2.0, 0.0], [1.0, 1.0, 1.0], [0.5, 0.0, 1.5]])
    for i in range(1, 4):
        for j in range(1, 4):
            val = laplace_entry(env, i, j, 0.0)
            assert val == (1.0 if env.support[i - 1, j - 1] else 0.0)


def test_laplace_strictly_decreasing(env_iid, env_dirichlet, env_mixture):
    for env in (env_iid, env_dirichlet, env_mixture):
        for i, j in ((1, 1), (2, 2)):
            vals = [laplace_entry(env, i, j, t) for t in (-0.5, 0.75, 2.0)]
            assert vals[0] > vals[1] > vals[2]


def test_theta_out_of_domain(env_dirichlet):
    with pytest.raises(ThetaOutOfDomain) as exc:
        laplace_entry(env_dirichlet, 1, 1, -1.0)
    assert exc.value.entry is not None


def test_laplace_theta_one_matches_sampling_mean(env_iid, env_dirichlet, env_mixture):
    n = 100_000
    for env in (env_iid, env_dirichlet, env_mixture):
        rng = np.random.default_rng(314)
        draws = tl.sample_rows(env, np.zeros(n, dtype=int), rng)
        for j in range(env.K):
            mean = draws[:, j].mean()
            want = laplace_entry(env, 1, j + 1, 1.0)
            se = draws[:, j].std(ddof=1) / math.sqrt(n)
            assert abs(mean - want) <= 4 * se + 1e-12


# --------------------------------------------------------------------------
# row sampling
# --------------------------------------------------------------------------

def test_sample_row_deterministic(env_iid):
    rng = np.random.default_rng(0)
    assert np.array_equal(tl.sample_rows(env_iid, [0], rng), [[0.7, 0.3]])


def test_sample_row_sums_to_one(env_dirichlet, env_mixture):
    rng = np.random.default_rng(5)
    for env in (env_dirichlet, env_mixture):
        for i in (1, 2):
            for row in tl.sample_rows(env, np.full(100, i - 1), rng):
                assert abs(row.sum() - 1.0) <= 1e-12
                assert ((row > 0) == env.support[i - 1]).all()


def test_sample_row_mixture_weights(env_mixture):
    rng = np.random.default_rng(11)
    n = 100_000
    hits = (tl.sample_rows(env_mixture, np.zeros(n, dtype=int), rng)[:, 0] == 0.9).sum()
    se = math.sqrt(0.25 / n)
    assert abs(hits / n - 0.5) <= 3 * se


@pytest.mark.parametrize("n", [0, 1, 7, 1000])
def test_sample_rows_mixture_picks_are_rng_choice(n):
    # the component picks are the ones rng.choice(M, p=weights) makes, and
    # leave the stream where it leaves it
    env = tl.mixture_env([0.2, 0.3, 0.5], [[[0.5, 0.5], [0.5, 0.5]], [[0.9, 0.1], [0.9, 0.1]],
                                           [[0.3, 0.7], [0.6, 0.4]]])
    types = np.arange(n) % 2
    rng, ref = np.random.default_rng(n), np.random.default_rng(n)
    picks = ref.choice(3, size=n, p=env.weights)
    assert np.array_equal(tl.sample_rows(env, types, rng), env.comps[picks, types])
    assert rng.random() == ref.random()


def test_sample_row_respects_restricted_support():
    env = tl.dirichlet_env([[1.0, 2.0, 0.0], [1.0, 1.0, 1.0], [0.5, 0.0, 1.5]])
    rng = np.random.default_rng(2)
    for row in tl.sample_rows(env, np.zeros(50, dtype=int), rng):
        assert row[2] == 0.0 and row[0] > 0 and row[1] > 0


MOMENT_ENVS = {
    "deterministic": lambda: tl.deterministic_env([[0.9, 0.1], [0.2, 0.8]]),
    "dirichlet": lambda: tl.dirichlet_env([[1.0, 1.0], [1.0, 1.0]]),
    "mixture": lambda: tl.mixture_env(
        [0.5, 0.5], [[[0.5, 0.5], [0.5, 0.5]], [[0.9, 0.1], [0.9, 0.1]]]),
    "sparse-dirichlet": lambda: tl.dirichlet_env(
        [[1.0, 2.0, 0.5], [0.7, 0.0, 1.3], [0.0, 2.0, 1.0]]),
    # every alpha of rows 1 and 2 tiny: numpy draws such rows by stick-breaking;
    # normalised gamma variates would all underflow in about 1% of row-2 draws
    "small-alpha": lambda: tl.dirichlet_env(
        [[0.02, 0.02, 0.02], [0.002, 0.002, 0.002], [0.5, 0.0, 1.5]]),
}


@pytest.mark.parametrize("name", sorted(MOMENT_ENVS))
def test_sample_rows_match_the_tilted_moments(name):
    # one sample_rows call over every type at once: E[p_ij^theta] within 4
    # standard errors of the analytic moments, exact zeros off the support
    env = MOMENT_ENVS[name]()
    n = 40_000
    types = np.repeat(np.arange(env.K), n)
    rows = tl.sample_rows(env, types, np.random.default_rng((21, sorted(MOMENT_ENVS).index(name))))
    assert rows.shape == (env.K * n, env.K)
    assert not np.isnan(rows).any()
    assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-12
    assert (rows[~env.support[types]] == 0.0).all()
    for theta in (0.5, 2.0):
        want = np.exp(tl.envs.log_moment_matrix(env, theta))
        for i in range(env.K):
            powers = rows[types == i] ** theta
            se = powers.std(axis=0, ddof=1) / math.sqrt(n)
            for j in env.supported_cols[i]:
                assert abs(powers[:, j].mean() - want[i, j]) <= 4 * se[j] + 1e-12, (theta, i, j)


@pytest.mark.parametrize("name", sorted(MOMENT_ENVS))
def test_rows_of_one_type_are_the_batch_rows(name):
    # count boxes of type i draw the rows, and leave the stream, as a batch
    # of count type-i boxes does; fixed rows come once, as a new (1, K) array
    env = MOMENT_ENVS[name]()
    for i in range(env.K):
        rng, ref = np.random.default_rng(i), np.random.default_rng(i)
        rows = tl.sample_rows(env, i, rng, count=50)
        want = tl.sample_rows(env, np.full(50, i), ref)
        assert np.array_equal(np.broadcast_to(rows, want.shape), want)
        assert rows.shape[0] == (1 if env.is_deterministic else 50)
        assert rng.random() == ref.random()
        rows[...] = 0.0
        assert (tl.sample_rows(env, i, rng, count=50) != rows).any()


# --------------------------------------------------------------------------
# saturation side conditions
# --------------------------------------------------------------------------

def test_saturation_conditions_deterministic(env_iid):
    check = tl.check_saturation_conditions(env_iid)
    assert check
    assert "deterministic" in check.note


def test_saturation_conditions_mixture(env_mixture):
    # f tends to ln(1/2) < 0 toward -inf and is positive at 0: interior root
    assert tl.check_saturation_conditions(env_mixture)


def test_saturation_conditions_dirichlet(env_dirichlet):
    # f(theta) = ln 2 - ln(1+theta) + theta/(1+theta) crosses zero inside
    # (-1, 0): the -theta drift term dominates the ln blow-up at the boundary,
    # so the interior root makes the side conditions hold
    check = tl.check_saturation_conditions(env_dirichlet)
    assert check.ok


# --------------------------------------------------------------------------
# file format
# --------------------------------------------------------------------------

def test_parse_roundtrip_all_kinds(env_iid, env_dirichlet, env_mixture):
    for env in (env_iid, env_dirichlet, env_mixture):
        text = tl.serialize_env(env)
        again = tl.parse_env_text(text)
        assert again == env
        assert tl.serialize_env(again) == text


def test_parse_roundtrip_awkward_floats():
    env = tl.deterministic_env([[1 / 3, 2 / 3], [0.1 + 0.2, 1 - 0.1 - 0.2]])
    assert tl.parse_env_text(tl.serialize_env(env)) == env


def test_parse_reports_line_numbers():
    text = "[env]\nkind = deterministic\nK = 2\nrow.1 = 0.7 oops\n"
    with pytest.raises(EnvParseError) as exc:
        tl.parse_env_text(text)
    assert exc.value.line_no == 4


def test_parse_rejects_unknown_key():
    with pytest.raises(EnvParseError):
        tl.parse_env_text("[env]\nkind = deterministic\nK = 2\nwat = 3\n")


def test_parse_rejects_too_many_digits():
    text = "[env]\nkind = deterministic\nK = 2\nrow.1 = 0.123456789012345678901 0.5\n"
    with pytest.raises(EnvParseError) as exc:
        tl.parse_env_text(text)
    assert exc.value.line_no == 4


@pytest.mark.parametrize("text, line_no, message", MALFORMED_ENVS)
def test_parse_refuses_malformed_files(text, line_no, message):
    with pytest.raises(EnvParseError, match=message) as exc:
        tl.parse_env_text(text)
    assert exc.value.line_no == line_no


@pytest.mark.parametrize("payload, missing", [
    ("kind = deterministic\nK = 100000000\nrow.1 = 0.5 0.5\n", "row.2"),
    ("kind = mixture\nK = 100000000\nweights = 0.5 0.5\ncomp.1.row.1 = 0.5 0.5\n", "comp.1.row.2"),
])
def test_parse_refuses_a_huge_K_before_building_an_array(payload, missing):
    text = "[env]\n" + payload
    tracemalloc.start()
    try:
        with pytest.raises(EnvParseError, match=f"line 0: missing {missing}$"):
            tl.parse_env_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@settings(PROPERTY, max_examples=150)                 # about 45 of each kind
@given(env=random_envs(max_K=6, comps=(1, 4)))
def test_file_round_trip_is_byte_identical(env):
    text = tl.serialize_env(env)
    again = tl.parse_env_text(text)
    assert tl.serialize_env(again) == text
    assert again == env and again._payload == text


def test_parse_mixture_file():
    text = (
        "[env]\nkind = mixture\nK = 2\nweights = 0.5 0.5\n"
        "comp.1.row.1 = 0.5 0.5\ncomp.1.row.2 = 0.5 0.5\n"
        "comp.2.row.1 = 0.9 0.1\ncomp.2.row.2 = 0.9 0.1\n"
    )
    env = tl.parse_env_text(text)
    assert env.kind == "mixture"
    assert env.comps[1, 0, 0] == 0.9
