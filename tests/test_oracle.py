"""Brute-force trie, grid optimizer, and word sampling references."""

import itertools
import math

import numpy as np
import pytest
from scipy import stats

import trielab as tl
from trielab.errors import LengthTooShort
from trielab.oracle import _walk

from conftest import grid_sup


def full_support(K=2):
    return np.ones((K, K), dtype=bool)


def words_of(rows):
    return tl.WordSet(words=np.array(rows), support=full_support())


# --------------------------------------------------------------------------
# brute-force trie
# --------------------------------------------------------------------------

def test_trie_hand_example():
    # prefixes of length 1 collide; the level-1 box "2" holds zero words
    height, sat = tl.brute_force_trie(words_of([(1, 1), (1, 2)]), 2)
    assert (height, sat) == (2, 1)


def test_trie_single_letters():
    height, sat = tl.brute_force_trie(words_of([(1,), (2,)]), 2)
    assert (height, sat) == (1, 1)


def test_trie_identical_words():
    with pytest.raises(LengthTooShort):
        tl.brute_force_trie(words_of([(1, 2, 1)] * 3, ), 2)


def test_trie_saturation_at_root():
    # fewer words than the threshold: the root box itself is under-filled
    height, sat = tl.brute_force_trie(words_of([(1, 2)]), 2)
    assert (height, sat) == (0, 0)


def test_trie_respects_support_in_level_scan():
    support = np.array([[True, True], [True, False]])
    words = tl.WordSet(words=np.array([(1, 1), (1, 2), (2, 1)]), support=support)
    height, sat = tl.brute_force_trie(words, 2)
    # level-1 sequences are (1) [2 words] and (2) [1 word]: some box < 2
    assert sat == 1
    assert height == 2


def test_wordset_validates_support():
    support = np.array([[True, True], [True, False]])
    with pytest.raises(ValueError):
        tl.WordSet(words=np.array([(2, 2)]), support=support)


def test_wordset_refuses_letter_zero():
    # index -1 would wrap to type K
    with pytest.raises(ValueError, match="1..2"):
        words_of([(1, 0)])


def test_wordset_refuses_letter_past_k():
    with pytest.raises(ValueError, match="1..2"):
        words_of([(1, 3)])


def test_wordset_refuses_first_letter_off_row_one():
    support = np.array([[True, False], [True, True]])
    with pytest.raises(ValueError, match="first letter"):
        tl.WordSet(words=np.array([(2, 1)]), support=support)
    tl.WordSet(words=np.array([(1, 1)]), support=support)


def test_wordset_refuses_no_words():
    with pytest.raises(ValueError, match="m >= 1"):
        tl.WordSet(words=np.empty((0, 3), dtype=np.int64), support=full_support())


def test_sample_words_refuses_no_balls(env_markov_b):
    with pytest.raises(ValueError, match="m must be"):
        tl.sample_words(env_markov_b, 0, 5, np.random.default_rng(0))


# --------------------------------------------------------------------------
# monotonicity through a fixed realized cascade
# --------------------------------------------------------------------------

def test_height_monotone_in_j_and_m(env_markov_b, env_dirichlet):
    for env in (env_markov_b, env_dirichlet):
        words = tl.sample_words(env, 30, 48, np.random.default_rng(17))
        heights_j = []
        for j in (2, 3, 4):
            h, _ = tl.brute_force_trie(words, j)
            heights_j.append(h)
        assert heights_j == sorted(heights_j, reverse=True)
        heights_m = []
        for m in (10, 20, 30):
            sub = tl.WordSet(words=words.words[:m], support=words.support)
            h, _ = tl.brute_force_trie(sub, 2)
            heights_m.append(h)
        assert heights_m == sorted(heights_m)


# --------------------------------------------------------------------------
# grid optimizer
# --------------------------------------------------------------------------

def test_grid_sup_parabola():
    x, v = grid_sup(lambda mu: -(mu - 1.0) ** 2, -5.0, 5.0, 10_000)
    assert abs(x - 1.0) <= 1e-3
    assert v <= 0.0 and v >= -1e-6


def test_grid_sup_degenerate_rate(env_uniform):
    def objective(mu):
        return mu * (-math.log(2.0)) - math.log(2.0 ** (-mu))

    _, v = grid_sup(objective, -5.0, 5.0, 101)
    assert abs(v) <= 1e-6


def test_grid_sup_locates_f_root():
    # closed-form box-count exponent of the uniform-simplex rows
    def f(t):
        return math.log(2.0) - math.log(1.0 + t) + t / (1.0 + t)

    root, neg = grid_sup(lambda t: -abs(f(t)), 0.1, 20.0, 10_000)
    assert abs(root - 3.3110704070010053) <= 1e-3
    assert abs(neg) <= 1e-6


# --------------------------------------------------------------------------
# word sampling
# --------------------------------------------------------------------------

def test_sample_words_first_letter_frequency(env_iid):
    ws = tl.sample_words(env_iid, 100_000, 1, np.random.default_rng(3))
    freq = (ws.words[:, 0] == 1).mean()
    se = math.sqrt(0.7 * 0.3 / 100_000)
    assert abs(freq - 0.7) <= 4 * se


def test_sample_words_path_probability(env_markov):
    ws = tl.sample_words(env_markov, 100_000, 2, np.random.default_rng(4))
    p12 = ((ws.words[:, 0] == 1) & (ws.words[:, 1] == 2)).mean()
    se = math.sqrt(0.09 * 0.91 / 100_000)
    assert abs(p12 - 0.9 * 0.1) <= 4 * se


def test_sample_words_three_letter_law(env_markov):
    # chi-squared fit of the 3-letter prefix frequencies to the exact Markov
    # path probabilities from type 1 (cells indexed by the base-2 word code)
    n = 100_000
    ws = tl.sample_words(env_markov, n, 3, np.random.default_rng(5))
    P = env_markov.rows
    expected = [n * P[0, a] * P[a, b] * P[b, c] for a, b, c in itertools.product(range(2), repeat=3)]
    observed = np.bincount((ws.words - 1) @ np.array([4, 2, 1]), minlength=8)
    _, p = stats.chisquare(observed, expected)
    assert p > 0.001


def test_sample_words_random_env_pair_law(env_dirichlet):
    # two balls share the root row (p, 1 - p) with p ~ Uniform(0, 1): both
    # start with letter 1 with probability E[p^2] = 1/3, and the outcomes
    # (both 1, mixed, both 2) are each 1/3; independent rows would give
    # 1/4, 1/2, 1/4
    runs = 6000
    rng = np.random.default_rng(9)
    ones = np.array([
        (tl.sample_words(env_dirichlet, 2, 1, rng).words == 1).sum() for _ in range(runs)
    ])
    observed = np.bincount(2 - ones, minlength=3)
    _, p = stats.chisquare(observed, np.full(3, runs / 3))
    assert p > 0.001
    _, p_independent = stats.chisquare(observed, runs * np.array([0.25, 0.5, 0.25]))
    assert p_independent < 0.001


def test_sample_words_random_env_shares_cascade(env_dirichlet):
    # all balls traverse one realization, so the first-letter frequency of
    # 4000 balls tracks that realization's root probability p ~ Uniform(0, 1):
    # across cascades its variance is Var(p) + E[p(1 - p)]/4000 = 1/12 + 1/24000,
    # far above the binomial 1/16000 of rows drawn afresh per ball
    runs, m = 1000, 4000
    rng = np.random.default_rng(8)
    freq = np.array([
        (tl.sample_words(env_dirichlet, m, 1, rng).words[:, 0] == 1).mean() for _ in range(runs)
    ])
    dev2 = (freq - freq.mean()) ** 2
    var = dev2.sum() / (runs - 1)
    se = dev2.std(ddof=1) / math.sqrt(runs)
    assert abs(var - (1 / 12 + 1 / 24000)) <= 4 * se
    assert var > 100 / 16000


def _row_pair_moments(env):
    # (shared, fresh) for a row law that is the same for every type: two balls
    # that draw from one row agree with probability E[sum_k p_k^2]; drawing
    # from two independent rows, sum_k E[p_k]^2
    if env.kind == "dirichlet":
        assert (env.alpha == env.alpha[0]).all()
        a = env.alpha[0]
        a0 = a.sum()
        return (a * (a + 1)).sum() / (a0 * (a0 + 1)), ((a / a0) ** 2).sum()
    assert (env.comps == env.comps[:, :1]).all()
    rows, q = env.comps[:, 0], env.weights
    return q @ (rows ** 2).sum(axis=1), ((q @ rows) ** 2).sum()


@pytest.mark.parametrize("name", ["env_dirichlet", "env_mixture"])
def test_sample_words_random_env_law_past_the_first_letter(name, request):
    # two balls, three letters.  Balls that took the same first letter sit in
    # one node and share its row, so they agree at length 2 with probability
    # shared^2 (4/9 for uniform rows; a row drawn afresh per ball at step 2
    # gives shared * fresh = 1/3).  Balls whose first letters differ and
    # whose second letters agree sit in two nodes of one type with a row each:
    # their third letters agree with probability fresh (1/2; a row wrongly
    # shared by the two nodes gives shared = 2/3)
    env = request.getfixturevalue(name)
    shared, fresh = _row_pair_moments(env)
    runs = 8000
    rng = np.random.default_rng(23)
    w = np.array([tl.sample_words(env, 2, 3, rng).words for _ in range(runs)])
    same = w[:, 0, :] == w[:, 1, :]                     # (runs, letter)
    agree2 = int((same[:, 0] & same[:, 1]).sum())
    assert stats.binomtest(agree2, runs, shared ** 2).pvalue > 0.001
    assert stats.binomtest(agree2, runs, shared * fresh).pvalue < 0.001
    apart = ~same[:, 0] & same[:, 1]
    agree3 = int(same[apart, 2].sum())
    assert stats.binomtest(agree3, int(apart.sum()), fresh).pvalue > 0.001
    assert stats.binomtest(agree3, int(apart.sum()), shared).pvalue < 0.001


def _reference_fixed_words(env, m, length, rng):
    # the per-step loop: one rng.random(m) per step, each ball inverting the
    # cumulative row of its current type
    K = env.K
    last = np.array([cols[-1] for cols in env.supported_cols])
    beyond = np.arange(K)[None, :] >= last[:, None]
    fixed = np.where(beyond, np.inf, np.cumsum(env.rows, axis=1))
    words = np.empty((m, length), dtype=np.int64)
    state = np.zeros(m, dtype=np.int64)
    for step in range(length):
        state = (fixed[state] <= rng.random(m)[:, None]).sum(axis=1)
        words[:, step] = state + 1
    return words


@pytest.mark.parametrize("name", ["env_iid", "env_markov_b", "sparse"])
@pytest.mark.parametrize("m,length,seed", [(1, 1, 0), (12, 64, 1), (40, 7, 2), (500, 30, 3),
                                           (12, 65, 4), (7, 2, 5)])
def test_sample_words_fixed_rows_keep_their_stream(name, m, length, seed, request):
    # row 2 of the sparse environment ends on an unsupported column, and its
    # cumulative sum stops below 1 (0.7 + 0.29999999999999993 = 0.9999999999999999)
    env = (tl.deterministic_env([[0.7, 0.2, 0.1], [0.7, 0.29999999999999993, 0.0],
                                 [0.0, 0.7, 0.3]])
           if name == "sparse" else request.getfixturevalue(name))
    want = _reference_fixed_words(env, m, length, np.random.default_rng(seed))
    got = tl.sample_words(env, m, length, np.random.default_rng(seed))
    assert np.array_equal(got.words, want)


def _loop_walk(nxt, state):
    out = np.empty((nxt.shape[1], nxt.shape[0]), dtype=np.int64)
    balls = np.arange(nxt.shape[1])
    for step in range(nxt.shape[0]):
        state = nxt[step, balls, state]
        out[:, step] = state
    return out


@pytest.mark.parametrize("K", [2, 3, 5])
@pytest.mark.parametrize("steps", [1, 2, 3, 63, 64, 65])
def test_walk_composes_maps_as_a_plain_loop(steps, K):
    rng = np.random.default_rng((steps, K))
    nxt = rng.integers(0, K, size=(steps, 9, K))
    state = rng.integers(0, K, size=9)
    want = _loop_walk(nxt, state)
    kept = nxt.copy()
    assert np.array_equal(_walk(nxt, state), want)
    assert np.array_equal(nxt, kept)
    # a table that is a transposed view walks the same
    assert np.array_equal(_walk(np.moveaxis(np.moveaxis(nxt, 2, 0).copy(), 0, 2), state), want)


def _reference_random_words(env, m, length, rng):
    # the per-step loop: every (type, step, node slot) row drawn up front,
    # then at each step the nodes the balls occupy get ids 0..n-1 in key
    # order, and each ball inverts the cumulative row of its node's slot
    K = env.K
    last = np.array([cols[-1] for cols in env.supported_cols])
    beyond = np.arange(K)[None, :] >= last[:, None]
    types = np.repeat(np.arange(K), length * m)
    rows = tl.sample_rows(env, types, rng)
    cum = np.where(beyond[types], np.inf, np.cumsum(rows, axis=1)).reshape(K, length, m, K)
    u = rng.random((length, m))[:, :, None]
    words = np.empty((m, length), dtype=np.int64)
    state = np.zeros(m, dtype=np.int64)
    node = np.zeros(m, dtype=np.int64)
    present = np.zeros(m * K, dtype=bool)
    for step in range(length):
        key = node * K + state
        present[:] = False
        present[key] = True
        node = (np.cumsum(present) - 1)[key]
        state = (cum[state, step, node] <= u[step]).sum(axis=1)
        words[:, step] = state + 1
    return words


def _sparse_dirichlet():
    # row 2 ends on the unsupported column 3
    return tl.dirichlet_env([[1.0, 1.0, 0.5], [0.3, 2.0, 0.0], [0.0, 1.0, 1.0]])


@pytest.mark.parametrize("name", ["env_dirichlet", "env_mixture", "sparse"])
@pytest.mark.parametrize("m", [1, 2, 12, 40, 500])
@pytest.mark.parametrize("length", [1, 2, 3, 64, 65])
def test_sample_words_random_rows_keep_their_stream(name, m, length, request):
    env = _sparse_dirichlet() if name == "sparse" else request.getfixturevalue(name)
    seed = (m, length)
    want = _reference_random_words(env, m, length, np.random.default_rng(seed))
    got = tl.sample_words(env, m, length, np.random.default_rng(seed))
    assert np.array_equal(got.words, want)


def _parting_length(words):
    # least n at which the balls' n-letter prefixes are all distinct
    m, length = words.shape
    for n in range(length + 1):
        if len({tuple(row[:n]) for row in words.tolist()}) == m:
            return n
    return length + 1


@pytest.mark.parametrize("name", ["env_dirichlet", "env_mixture", "sparse"])
def test_sample_words_random_rows_part_at_the_walk_end(name, request):
    # seeds whose balls part at the last step's node compaction (prefixes of
    # length - 1 distinct), after the last letter, or never
    env = _sparse_dirichlet() if name == "sparse" else request.getfixturevalue(name)
    m, length = 12, 10
    seen = set()
    for seed in range(400):
        want = _reference_random_words(env, m, length, np.random.default_rng(seed))
        part = _parting_length(want)
        if part < length - 1 or part in seen:
            continue
        seen.add(part)
        got = tl.sample_words(env, m, length, np.random.default_rng(seed))
        assert np.array_equal(got.words, want)
    assert seen == {length - 1, length, length + 1}


def test_simulator_law_matches_word_oracle_smoke(env_markov_b):
    # small-sample agreement of height frequencies (full test in acceptance)
    runs = 400
    sim_h = []
    for seed in range(runs):
        obs = tl.simulate_occupancy(env_markov_b, 8, 2, np.random.default_rng((1, seed)))
        sim_h.append(obs.height)
    oracle_h = []
    for seed in range(runs):
        ws = tl.sample_words(env_markov_b, 8, 48, np.random.default_rng((2, seed)))
        h, _ = tl.brute_force_trie(ws, 2)
        oracle_h.append(h)
    assert abs(np.mean(sim_h) - np.mean(oracle_h)) <= 4 * (
        np.std(sim_h) / math.sqrt(runs) + np.std(oracle_h) / math.sqrt(runs)
    )
