"""Brute-force references, kept deliberately naive and auditable.

These routines re-derive height/saturation from explicit word lists; tests
compare them against the vectorized simulator.  Desk scale only: the word
oracle is O(m * n) per level, the level scan O(K^n).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .envs import DETERMINISTIC, EnvironmentModel, sample_rows
from .errors import CapExceeded, LengthTooShort

_LEVEL_SCAN_CAP = 100_000


@dataclass(frozen=True)
class WordSet:
    """Equal-length 1-based type sequences plus the generating support pattern."""

    words: np.ndarray        # (m, length) int
    support: np.ndarray      # (K, K) bool

    def __post_init__(self):
        w = self.words
        if w.ndim != 2:
            raise ValueError("words must be a 2-D array (m, length)")
        if w.shape[1] > 1 and not self.support[w[:, :-1] - 1, w[:, 1:] - 1].all():
            raise ValueError("words contain an unsupported adjacent pair")


def brute_force_trie(words: WordSet, j: int):
    """(height, saturation) of the generalized trie holding the given words.

    height: least prefix length at which every prefix occurs < j times.
    saturation: least length at which some supported sequence (reachable from
    type 1) occurs < j times, found by scanning whole levels.
    """
    length = words.words.shape[1]
    w = words.words.tolist()            # rows of ints: numpy rows would slice to numpy scalars
    support = words.support.tolist()
    height = None
    for n in range(length + 1):
        multiplicities = Counter(tuple(row[:n]) for row in w)
        if max(multiplicities.values()) < j:
            height = n
            break
    if height is None:
        raise LengthTooShort(
            f"words of length {length} still collide {j} deep; height undetermined"
        )
    saturation = None
    level = [()]
    for n in range(height + 1):
        if n > 0:
            nxt = []
            for seq in level:
                prev = seq[-1] if seq else 1
                for k, supported in enumerate(support[prev - 1]):
                    if supported:
                        nxt.append(seq + (k + 1,))
            level = nxt
            if len(level) > _LEVEL_SCAN_CAP:
                raise CapExceeded(f"level scan exceeds {_LEVEL_SCAN_CAP} sequences")
        counts = Counter(tuple(row[:n]) for row in w)
        if any(counts[seq] < j for seq in level):
            saturation = n
            break
    # saturation <= height always: at n = height every prefix count is < j
    assert saturation is not None
    return height, saturation


def sample_words(env: EnvironmentModel, m: int, length: int, rng: np.random.Generator) -> WordSet:
    """m chain trajectories of `length` steps from type 1.

    Deterministic environments give independent Markov chains.  Random
    environments realize one shared cascade: each visited node samples its
    row once and every ball passing through reuses it.

    All randomness is drawn up front, and each step only indexes arrays.  One
    (length, m) uniform block serves every step: ball b's letter at a step
    inverts the cumulative row of its node at the uniform [step, b].
    Deterministic rows turn the block into a table of the next type from every
    type, (length, m, K), and give the words of `length` rng.random(m) calls.
    Random environments draw, in one sample_rows call, a row for every (type,
    step, node slot), K * length * m rows, and each step hands the nodes it
    visits distinct slots, so every node's row is a fresh draw.  That is K^2
    floats per word letter: 3072 for K = 2, m = 12 and length 64.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    K = env.K
    last = np.array([cols[-1] for cols in env.supported_cols])
    beyond = np.arange(K)[None, :] >= last[:, None]    # (K, K): at/after last supported
    words = np.empty((m, length), dtype=np.int64)
    state = np.zeros(m, dtype=np.int64)                # 0-based current type

    def cdf(rows, types):
        # +inf from the last supported column on: the rounding tail of the
        # cumulative sum falls to that column, never past it
        return np.where(beyond[types], np.inf, np.cumsum(rows, axis=1))

    if env.kind == DETERMINISTIC:
        u = rng.random((length, m))
        nxt = (cdf(env.rows, np.arange(K)) <= u[:, :, None, None]).sum(axis=3)
        balls = np.arange(m)
        for step in range(length):
            state = nxt[step, balls, state]
            words[:, step] = state + 1
        return WordSet(words=words, support=env.support)

    types = np.repeat(np.arange(K), length * m)
    cum = cdf(sample_rows(env, types, rng), types).reshape(K, length, m, K)
    u = rng.random((length, m))[:, :, None]
    node = np.zeros(m, dtype=np.int64)                 # parent node id
    present = np.zeros(m * K, dtype=bool)
    for step in range(length):
        # a ball's node is (parent node, last letter); compact the keys to
        # ids 0..n-1 in key order, and give each node the row of its slot
        key = node * K + state
        present[:] = False
        present[key] = True
        node = (np.cumsum(present) - 1)[key]
        state = (cum[state, step, node] <= u[step]).sum(axis=1)
        words[:, step] = state + 1
    return WordSet(words=words, support=env.support)
