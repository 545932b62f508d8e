"""Brute-force references, kept deliberately naive and auditable.

These routines re-derive height/saturation from explicit word lists; tests
compare them against the vectorized simulator.  Desk scale only: the word
oracle is O(m * n) per level, the level scan O(K^n).

sample_words draws the words by table walks: every step's next type is a
fixed map of the current type, composed by doubling in ceil(log2 length)
numpy rounds.  On random environments the balls go step by step until each
is alone in its node, after about the trie height, and walk the rest as one
table.  The words are those of a walk taking one step per letter.
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
        if w.ndim != 2 or w.shape[0] == 0:
            raise ValueError("words must be a 2-D array (m, length) with m >= 1")
        if w.shape[1] == 0:
            return
        K = self.support.shape[0]
        if w.min() < 1 or w.max() > K:
            raise ValueError(f"letters must lie in 1..{K}")
        # support[a - 1, b - 1] sits at flat a * K + b - (K + 1); row 1 first
        flat = self.support.reshape(-1)
        if not flat.take(w[:, 0] - 1).all():
            raise ValueError("a first letter is unsupported from type 1")
        if not flat.take(w[:, :-1] * K + w[:, 1:] - (K + 1)).all():
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


def _walk(nxt: np.ndarray, state: np.ndarray) -> np.ndarray:
    """(m, steps) types of m balls whose step s sends ball b from type t to
    nxt[s, b, t], from the 0-based types `state`.

    The steps' maps are composed by doubling (Hillis & Steele 1986): after
    the round of offset d, row s holds the map of steps s - 2d + 1..s (from
    step 0 on when s < 2d), so ceil(log2 steps) rounds of one flat take each
    leave in row s the map from the start to step s.  Each entry is kept as
    its flat position in its own step's map, so a round reads the later maps
    straight through a view that starts `off` steps on.
    """
    steps, m, K = nxt.shape
    base = np.arange(0, steps * m * K, K).reshape(steps, m, 1)   # (step, ball) row starts
    pos = np.add(nxt, base, order="C")
    flat = pos.reshape(-1)                             # a view of pos
    off = 1
    while off < steps:
        pos[off:] = flat[off * m * K:].take(pos[:-off])
        off *= 2
    base = base[:, :, 0]
    return (flat.take(base + state) - base).T


def sample_words(env: EnvironmentModel, m: int, length: int, rng: np.random.Generator) -> WordSet:
    """m chain trajectories of `length` steps from type 1.

    Deterministic environments give independent Markov chains.  Random
    environments realize one shared cascade: each visited node samples its
    row once and every ball passing through reuses it.

    All randomness is drawn up front.  One (length, m) uniform block serves
    every step: ball b's letter at a step inverts the cumulative row of its
    node at the uniform [step, b].  A step's letter is then a fixed map of the
    ball's type, so the block makes a table of the next type from every type,
    (length, m, K), and _walk composes the maps in ceil(log2 length) rounds.
    Deterministic rows give the whole table at once, and the words of
    `length` rng.random(m) calls.  Random environments draw, in one
    sample_rows call, a row for every (type, step, node slot), K * length * m
    rows, and each step hands the nodes it visits distinct slots in key order,
    so every node's row is a fresh draw.  The balls walk step by step only
    until each is alone in its node, after about the trie height (log m over
    the entropy); from then on every node keeps its slot, and the rest of the
    walk is one table.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if length < 1:
        raise ValueError("length must be >= 1")
    K = env.K
    # a cumulative row is +inf from its last supported column on: the
    # rounding tail of the sum falls to that column, never past it.  Column
    # K is always +inf, so a letter counts the first K - 1 entries <= u
    last = np.array([cols[-1] for cols in env.supported_cols])
    beyond = np.arange(K - 1)[None, :] >= last[:, None]    # (K, K - 1)
    words = np.empty((m, length), dtype=np.int64)
    state = np.zeros(m, dtype=np.int64)                # 0-based current type

    if env.kind == DETERMINISTIC:
        u = rng.random((length, m))
        cdf = np.where(beyond, np.inf, np.cumsum(env.rows[:, :-1], axis=1))
        nxt = np.empty((length, m, K), dtype=np.int64)
        for t in range(K):
            nxt[:, :, t] = cdf[t].searchsorted(u, side="right")
        words[:] = _walk(nxt, state) + 1
        return WordSet(words=words, support=env.support)

    rows = sample_rows(env, np.repeat(np.arange(K), length * m), rng).reshape(K, length * m, K)
    cum = np.cumsum(rows[:, :, :-1], axis=2)
    np.copyto(cum, np.inf, where=beyond[:, None, :])
    cum = cum.reshape(K, length, m, K - 1)
    u = rng.random((length, m))[:, :, None]
    node = np.zeros(m, dtype=np.int64)                 # parent node id
    present = np.zeros(m * K, dtype=bool)
    for step in range(length):
        # a ball's node is (parent node, last letter); compact the keys to
        # ids 0..n-1 in key order, and give each node the row of its slot
        key = node * K + state
        present[:] = False
        present[key] = True
        ids = np.cumsum(present)
        node = ids[key] - 1
        if ids[-1] == m:
            # every ball alone in its node: the keys keep the order of the
            # ids, so no id changes again, and the rest is one table
            nxt = np.moveaxis((cum[:, step:, node] <= u[step:]).sum(axis=3), 0, 2)
            words[:, step:] = _walk(nxt, state) + 1
            break
        state = (cum[state, step, node] <= u[step]).sum(axis=1)
        words[:, step] = state + 1
    return WordSet(words=words, support=env.support)
