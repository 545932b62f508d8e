"""Transition-probability environments and their tilted moments.

Three row-law families are supported, all with analytic tilted moments
m_ij(theta) = E[p_ij^theta]:

  deterministic  fixed row-stochastic matrix P;     m_ij(theta) = p_ij^theta
  dirichlet      each row i drawn Dirichlet(alpha_i (supported entries));
                 m_ij(theta) = Gamma(a0) Gamma(a_ij+theta) /
                               (Gamma(a0+theta) Gamma(a_ij)),  a0 = sum_k a_ik
  mixture        row i of component c with probability q_c;
                 m_ij(theta) = sum_c q_c (p_ij^(c))^theta

Entries with p_ij = 0 stay 0 under tilting for every theta (including
theta <= 0); the support pattern is a structural, non-random object shared by
every sampled matrix.  Boxes/chains always start from type 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Optional

import numpy as np

from .errors import (
    BadAlpha,
    BadRows,
    BadSupport,
    EnvParseError,
    NotRegular,
    ThetaOutOfDomain,
)

_SUM_TOL = 1e-12
_MAX_SIG_DIGITS = 17
_INT64_MAX = int(np.iinfo(np.int64).max)

DETERMINISTIC = "deterministic"
DIRICHLET = "dirichlet"
MIXTURE = "mixture"


@dataclass(frozen=True, eq=False)
class EnvironmentModel:
    """Validated environment: kind, alphabet size, support, payload, moment domain.

    The moment domain L is the open interval on which every supported tilted
    moment m_ij(theta) is finite: all of R for deterministic and mixture
    environments, (-min alpha_ij, +inf) for Dirichlet rows.
    """

    kind: str
    K: int
    support: np.ndarray                      # (K, K) bool
    rows: Optional[np.ndarray] = None        # deterministic payload
    alpha: Optional[np.ndarray] = None       # dirichlet payload
    weights: Optional[np.ndarray] = None     # mixture payload
    comps: Optional[np.ndarray] = None       # (M, K, K) mixture payload
    domain_lo: float = -math.inf
    domain_hi: float = math.inf
    # per-type supported column indices, precomputed for the simulator
    supported_cols: tuple = field(default=(), repr=False)

    @property
    def domain_L(self) -> tuple:
        return (self.domain_lo, self.domain_hi)

    @property
    def is_deterministic(self) -> bool:
        return self.kind == DETERMINISTIC

    @cached_property
    def _payload(self) -> str:
        """The key of equality and hashing, built once: the serialized file,
        so two environments are equal exactly when their files are."""
        return serialize_env(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EnvironmentModel):
            return NotImplemented
        return self._payload == other._payload

    def __hash__(self) -> int:
        return hash(self._payload)

    @cached_property
    def _dirichlet_terms(self) -> tuple:
        """The theta-free parts of Dirichlet log moments, taken once: the
        Gamma arguments at theta = 0 (the alpha of each supported entry,
        row-major, then the row sums a0), the index of each entry's row sum
        among them, and lgamma(a0) per entry and lgamma(alpha)."""
        rows = np.nonzero(self.support)[0]
        a, a0 = self.alpha[self.support], self.alpha.sum(axis=1)
        return np.concatenate([a, a0]), a.size + rows, _lgamma(a0)[rows], _lgamma(a)

    @cached_property
    def _log_rows(self) -> np.ndarray:
        """ln of the fixed rows (deterministic) or of the mixture components,
        taken once; 0 off the support, so a tilt times it stays finite."""
        rows = self.rows if self.kind == DETERMINISTIC else self.comps
        return np.log(np.where(rows > 0, rows, 1.0))

    @cached_property
    def _mixture_cdf(self) -> np.ndarray:
        """The mixture weights' cumulative sums, normalized to end at 1."""
        cdf = np.cumsum(self.weights)
        return cdf / cdf[-1]

    @cached_property
    def _fixed_rows(self) -> np.ndarray:
        """Every fixed row, one per line (fixed rows only): env.rows, or the
        mixture components stacked, component c's row i at line c K + i."""
        return self.rows if self.kind == DETERMINISTIC else self.comps.reshape(-1, self.K)

    @cached_property
    def _split_shares(self) -> np.ndarray:
        """_row_shares of _fixed_rows, line by line (fixed rows only)."""
        return _row_shares(self._fixed_rows)

    @cached_property
    def _positive_counts(self) -> tuple:
        """Positive-mass boxes per generation from type 1, as exact ints, up
        to and including the first count past int64.  Every row supports at
        least two types, so the count at least doubles each generation and
        the tuple holds at most 65 entries."""
        support = self.support.T.tolist()
        per_type = [1] + [0] * (self.K - 1)
        counts = [1]
        while counts[-1] <= _INT64_MAX:
            per_type = [sum(p for p, s in zip(per_type, col) if s) for col in support]
            counts.append(sum(per_type))
        return tuple(counts)


@dataclass(frozen=True)
class RegularityReport:
    irreducible: bool
    aperiodic: bool
    positive_regular: bool
    r: Optional[int]                         # smallest power with all-positive entries


@dataclass(frozen=True)
class SaturationCheck:
    """Outcome of the saturation-regime side conditions; truthiness = ok."""

    ok: bool
    note: str

    def __bool__(self) -> bool:
        return self.ok


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------

def _row_sums(arr: np.ndarray) -> np.ndarray:
    """Sums along the last axis; a NaN or infinite entry, or a sum past the
    float range, comes out non-finite without a warning, for callers to refuse."""
    with np.errstate(over="ignore", invalid="ignore"):
        return arr.sum(axis=-1)


def _check_stochastic(rows: np.ndarray, what: str) -> None:
    sums = _row_sums(rows)
    bad = np.nonzero(~(np.abs(sums - 1.0) <= _SUM_TOL))[0]     # NaN sums too
    if bad.size:
        i = int(bad[0])
        raise BadRows(f"{what} row {i + 1} sums to {sums[i]!r}, expected 1 within {_SUM_TOL}")
    if (rows < 0).any():
        raise BadRows(f"{what} contains a negative entry")


def _finalize(kind, K, support, domain_lo=-math.inf, **payload) -> EnvironmentModel:
    per_row = support.sum(axis=1)
    if (per_row < 2).any():
        i = int(np.argmin(per_row))
        raise NotRegular(
            f"row {i + 1} has {per_row[i]} supported entries; splitting is degenerate"
        )
    rep = regularity_from_support(support)
    if not rep.positive_regular:
        raise NotRegular("support pattern is not positive regular")
    support = support.copy()
    support.setflags(write=False)
    for arr in payload.values():
        if arr is not None:
            arr.setflags(write=False)
    cols = tuple(np.nonzero(support[i])[0] for i in range(K))
    return EnvironmentModel(kind=kind, K=K, support=support, supported_cols=cols,
                            domain_lo=domain_lo, **payload)


def deterministic_env(rows) -> EnvironmentModel:
    """Environment with a fixed row-stochastic transition matrix."""
    rows = np.array(rows, dtype=float)
    K = rows.shape[0]
    if rows.shape != (K, K) or K < 2:
        raise BadRows(f"transition matrix must be KxK with K >= 2, got shape {rows.shape}")
    _check_stochastic(rows, "transition")
    support = rows > 0.0
    return _finalize(DETERMINISTIC, K, support, rows=rows)


def dirichlet_env(alpha) -> EnvironmentModel:
    """Environment with independent Dirichlet rows; alpha entry 0 marks no support."""
    alpha = np.array(alpha, dtype=float)
    K = alpha.shape[0]
    if alpha.shape != (K, K) or K < 2:
        raise BadAlpha(f"alpha must be KxK with K >= 2, got shape {alpha.shape}")
    finite = np.isfinite(_row_sums(alpha))
    if not finite.all():
        raise BadAlpha(f"alpha row {np.argmin(finite) + 1} has an entry or a sum that is not finite")
    if (alpha < 0).any():
        i, j = np.argwhere(alpha < 0)[0]
        raise BadAlpha(f"alpha[{i + 1},{j + 1}] = {alpha[i, j]!r} is negative")
    support = alpha > 0.0
    # an empty support takes initial, and _finalize refuses it as NotRegular
    lo = -float(alpha[support].min(initial=math.inf))
    return _finalize(DIRICHLET, K, support, domain_lo=lo, alpha=alpha)


def mixture_env(weights, comps) -> EnvironmentModel:
    """Environment drawing each row from one of M row-stochastic matrices."""
    weights = np.array(weights, dtype=float)
    comps = np.array(comps, dtype=float)
    M = weights.shape[0]
    if comps.ndim != 3 or comps.shape[0] != M:
        raise BadSupport(f"need one component matrix per weight, got {comps.shape}")
    K = comps.shape[1]
    if comps.shape[1:] != (K, K) or K < 2:
        raise BadRows(f"component matrices must be KxK with K >= 2, got {comps.shape}")
    total = _row_sums(weights)
    if not abs(total - 1.0) <= _SUM_TOL:
        raise BadRows(f"mixture weights sum to {total!r}, expected 1")
    if (weights <= 0).any():
        raise BadRows("mixture weights must be strictly positive")
    for c in range(M):
        _check_stochastic(comps[c], f"component {c + 1}")
    support = comps[0] > 0.0
    for c in range(1, M):
        if not np.array_equal(comps[c] > 0.0, support):
            raise BadSupport(f"component {c + 1} support pattern differs from component 1")
    return _finalize(MIXTURE, K, support, weights=weights, comps=comps)


# --------------------------------------------------------------------------
# regularity
# --------------------------------------------------------------------------

def regularity_from_support(support: np.ndarray) -> RegularityReport:
    """Irreducibility, aperiodicity and positive regularity of a support pattern.

    Positive regularity is decided by boolean powers up to K^2 + 1 (the
    primitivity index of a K-state pattern is at most (K-1)^2 + 1).
    Aperiodicity is measured through cycles at state 1, which equals the
    chain period for irreducible patterns; chains here always start at 1.
    """
    S = np.array(support, dtype=bool)
    Si = S.astype(np.int64)
    K = S.shape[0]
    reach = S.copy()
    power = S.copy()
    r = 1 if power.all() else None
    lengths_through_1 = [1] if S[0, 0] else []
    for n in range(2, K * K + 2):
        power = (power.astype(np.int64) @ Si) > 0   # binarize: no count overflow
        reach |= power
        if r is None and power.all():
            r = n
        if power[0, 0]:
            lengths_through_1.append(n)
    irreducible = bool(reach.all())
    g = 0
    for n in lengths_through_1:
        g = math.gcd(g, n)
    aperiodic = g == 1
    return RegularityReport(
        irreducible=irreducible,
        aperiodic=aperiodic,
        positive_regular=r is not None,
        r=r,
    )


def regularity(env: EnvironmentModel) -> RegularityReport:
    return regularity_from_support(env.support)


def check_saturation_conditions(env: EnvironmentModel) -> SaturationCheck:
    """Whether the saturation-level constant is predicted for this environment.

    Deterministic environments need no side condition.  Random environments
    need the lower endpoint of the positivity interval of the box-count
    exponent f to be finite, negative, interior to the moment domain, and to
    carry f -> 0 (automatic at an interior root of f).
    """
    if env.is_deterministic:
        return SaturationCheck(True, "deterministic regime")
    from . import spectral  # deferred: spectral imports this module

    report = spectral.asymptotic_constants(env)
    return SaturationCheck(report.condition_saturation_ok, report.notes)


# --------------------------------------------------------------------------
# tilted moments
# --------------------------------------------------------------------------

def _tilts(env: EnvironmentModel, theta: np.ndarray) -> np.ndarray:
    """theta, a 0-d or 1-D float array, as a 1-D array of tilts; refuses the
    first tilt outside the finite-moment domain."""
    thetas = theta.reshape(-1)
    for t in thetas.tolist():
        if not (env.domain_lo < t < env.domain_hi):
            entry = None
            if env.kind == DIRICHLET:
                a = np.where(env.support, env.alpha, np.inf)
                i, j = np.unravel_index(int(np.argmin(a)), a.shape)
                entry = (int(i) + 1, int(j) + 1)
            raise ThetaOutOfDomain(
                f"theta = {t!r} outside the finite-moment domain "
                f"({env.domain_lo!r}, {env.domain_hi!r})"
                + (f"; entry {entry} diverges first" if entry else ""),
                entry=entry,
            )
    return thetas


# B_2k / (2k) for k = 1..7: psi's asymptotic series in 1/y^2k
_PSI_SERIES = np.array([1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12])


def _digamma(x: np.ndarray) -> np.ndarray:
    """psi(x) for x > 0: psi(x) = psi(x + 10) - sum_{i<10} 1/(x + i), then at
    y = x + 10 >= 10 the series ln y - 1/(2y) - sum_k B_2k / (2k y^2k), whose
    first omitted term is below 5e-17 there.  Vectorized over x."""
    y = x + 10.0
    series = ((1.0 / (y * y))[..., None] ** np.arange(1, 8)) @ _PSI_SERIES
    steps = (1.0 / (x[..., None] + np.arange(10))).sum(axis=-1)
    return np.log(y) - 0.5 / y - series - steps


def _lgamma(x: np.ndarray) -> np.ndarray:
    return np.array([math.lgamma(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _mixture_terms(env: EnvironmentModel, thetas: np.ndarray) -> tuple:
    """Per tilt, the terms theta ln p^(c) + ln q_c of the components, shifted
    by the largest: (shift, scaled), scaled = exp(terms - shift) of shape
    (n, M, K, K)."""
    expo = thetas[:, None, None, None] * env._log_rows + np.log(env.weights)[:, None, None]
    shift = expo.max(axis=1)
    return shift, np.exp(expo - shift[:, None])


def log_moment_matrix(env: EnvironmentModel, theta) -> np.ndarray:
    """ln m_ij(theta) on supported entries, -inf elsewhere: a K x K matrix, or
    for a 1-D array of n tilts an (n, K, K) stack, each matrix equal to the
    last bit to the one its tilt alone gives."""
    theta = np.asarray(theta, dtype=float)
    thetas = _tilts(env, theta)
    sup = env.support
    if env.kind == DETERMINISTIC:
        out = np.where(sup, thetas[:, None, None] * env._log_rows, -np.inf)
    elif env.kind == DIRICHLET:
        args, row_sum, g0, g = env._dirichlet_terms
        lg = _lgamma(args + thetas[:, None])
        out = np.full((thetas.size, env.K, env.K), -np.inf)
        out[:, sup] = g0 + lg[:, :g.size] - lg[:, row_sum] - g
    else:
        shift, scaled = _mixture_terms(env, thetas)
        out = np.where(sup, shift + np.log(scaled.sum(axis=1)), -np.inf)
    return out if theta.ndim else out[0]


def dlog_moment_matrix(env: EnvironmentModel, theta) -> np.ndarray:
    """d/dtheta of ln m_ij(theta) on supported entries, 0 elsewhere; stacked
    over a 1-D array of tilts as log_moment_matrix is."""
    theta = np.asarray(theta, dtype=float)
    thetas = _tilts(env, theta)
    if env.kind == DETERMINISTIC:
        out = np.repeat(env._log_rows[None], thetas.size, axis=0)
    elif env.kind == DIRICHLET:
        args, row_sum, _, g = env._dirichlet_terms
        psi = _digamma(args + thetas[:, None])
        out = np.zeros((thetas.size, env.K, env.K))
        out[:, env.support] = psi[:, :g.size] - psi[:, row_sum]
    else:
        # ln p is 0 off the support, and so is the weighted mean of it there
        _, scaled = _mixture_terms(env, thetas)
        out = (scaled * env._log_rows).sum(axis=1) / scaled.sum(axis=1)
    return out if theta.ndim else out[0]


# --------------------------------------------------------------------------
# row sampling
# --------------------------------------------------------------------------

def _row_shares(rows: np.ndarray) -> np.ndarray:
    """Conditional-binomial split shares of K-wide rows (along the last axis).

    Each column's share is its entry over the tail sum of the row from that
    column on.  At the last column of positive mass that tail is the entry
    itself, so the share is 1 exactly there: no ball passes it, and none
    reaches a column off the support.
    """
    tails = rows[..., ::-1].cumsum(axis=-1)[..., ::-1]
    return rows / np.where(tails > 0.0, tails, 1.0)      # a zero tail has a zero entry


def _fixed_row_index(env: EnvironmentModel, types, count: int,
                     rng: np.random.Generator):
    """Line in env._fixed_rows of the rows of `count` boxes of 0-based `types`
    (an array of count types, or one type for all): the type, or for a
    mixture its type in the component each box picks, by one uniform per box
    (the inversion rng.choice(p=weights) makes, so the same picks, without
    its per-call argument checks)."""
    if env.kind != MIXTURE:
        return types
    picks = env._mixture_cdf.searchsorted(rng.random(count), side="right")
    return picks * env.K + types


def sample_rows(env: EnvironmentModel, types, rng: np.random.Generator,
                count: Optional[int] = None) -> np.ndarray:
    """Realized transition rows for 0-based box types: a new (n, K) array.

    Each row sums to 1 and is exactly 0 off its type's support.  Random
    environments draw a fresh row per entry of `types`: one Dirichlet batch
    per type (numpy's stick-breaking keeps rows with tiny alpha finite), or
    one mixture component per row.

    With `count`, `types` is one type i and the rows are `count` boxes of
    type i: one Dirichlet batch, or one uniform per box picking its mixture
    component.  A deterministic environment then gives type i's fixed row
    alone, a new (1, K) array that broadcasts over the boxes.
    """
    if count is None:
        types = np.asarray(types, dtype=np.int64)
        count = types.shape[0]
    elif env.kind == DETERMINISTIC:
        return env.rows[types:types + 1].copy()
    elif env.kind == DIRICHLET:
        return rng.dirichlet(env.alpha[types], size=count)
    if env.kind != DIRICHLET:
        # take: far faster than fancy indexing
        return np.take(env._fixed_rows, _fixed_row_index(env, types, count, rng), axis=0)
    rows = np.zeros((types.shape[0], env.K))
    for i in range(env.K):
        mask = types == i
        n_i = int(mask.sum())
        if n_i:
            rows[mask] = sample_rows(env, i, rng, count=n_i)
    return rows


# --------------------------------------------------------------------------
# file format
# --------------------------------------------------------------------------
# [env]
# kind = deterministic | dirichlet | mixture
# K = <int >= 2>
# deterministic: row.<i>   = p1 ... pK          i = 1..K
# dirichlet:     alpha.<i> = a1 ... aK          (0 marks an unsupported entry)
# mixture:       weights   = q1 ... qM
#                comp.<c>.row.<i> = p1 ... pK   c = 1..M, i = 1..K
# Indices are plain decimals from 1.  Each key appears once, under one [env]
# line; a key of another kind, or an index past K or M, is refused at its
# line.  Blank lines and '#' comments are ignored.  Numbers are plain ASCII
# decimals with at most 17 significant digits; digit-group underscores,
# non-ASCII digits, nan and inf are refused.
# _row_keys lists a kind's keys in file order, for both directions.

_ROW_KEY = {DETERMINISTIC: "row.{i}", DIRICHLET: "alpha.{i}", MIXTURE: "comp.{c}.row.{i}"}


def _row_keys(kind: str, K: int, M: int):
    """The payload keys of a file in file order: row.<i>, alpha.<i>, or
    weights and then comp.<c>.row.<i>.  A generator, so a K far past the
    file's length costs nothing until its keys are asked for."""
    if kind == MIXTURE:
        yield "weights"
    for c in range(1, M + 1):
        for i in range(1, K + 1):
            yield _ROW_KEY[kind].format(c=c, i=i)


def _is_plain(tok: str) -> bool:
    """False for what int() and float() take beyond plain ASCII decimals:
    digit-group underscores and non-ASCII digits."""
    return tok.isascii() and "_" not in tok


def _parse_number(tok: str, line_no: int) -> float:
    if not _is_plain(tok):
        raise EnvParseError(line_no, f"number {tok!r} is not a plain ASCII decimal")
    digits = tok.lower().split("e")[0].replace("-", "").replace("+", "").replace(".", "")
    digits = digits.lstrip("0")
    if len(digits) > _MAX_SIG_DIGITS:
        raise EnvParseError(line_no, f"number {tok!r} carries more than {_MAX_SIG_DIGITS} significant digits")
    try:
        value = float(tok)
    except ValueError:
        raise EnvParseError(line_no, f"cannot parse number {tok!r}") from None
    if not math.isfinite(value):
        raise EnvParseError(line_no, f"number {tok!r} is not finite")
    return value


def _vector(value: str, line_no: int) -> np.ndarray:
    toks = value.split()
    if not toks:
        raise EnvParseError(line_no, "empty numeric list")
    return np.array([_parse_number(t, line_no) for t in toks])


def parse_env_text(text: str) -> EnvironmentModel:
    entries: dict = {}                           # key -> (line number, value)
    in_env = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line != "[env]":
                raise EnvParseError(line_no, f"unknown section {line!r}")
            if in_env:
                raise EnvParseError(line_no, "repeated [env] section")
            in_env = True
            continue
        if not in_env:
            raise EnvParseError(line_no, "content before [env] section")
        if "=" not in line:
            raise EnvParseError(line_no, "expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise EnvParseError(line_no, f"repeated key {key!r}, first on line {entries[key][0]}")
        entries[key] = (line_no, value)
    if "kind" not in entries or "K" not in entries:
        raise EnvParseError(0, "missing 'kind' or 'K'")
    (kind_line, kind), (K_line, K) = entries.pop("kind"), entries.pop("K")
    kind = kind.lower()
    if kind not in _ROW_KEY:
        raise EnvParseError(kind_line, f"unknown kind {kind!r}")
    try:
        if not _is_plain(K):
            raise ValueError
        K = int(K)
    except ValueError:
        raise EnvParseError(K_line, f"K must be a plain ASCII integer, got {K!r}") from None
    if K < 2:
        raise EnvParseError(K_line, f"K must be at least 2, got {K}")
    numbers = {key: (line_no, _vector(value, line_no)) for key, (line_no, value) in entries.items()}
    M = len(numbers["weights"][1]) if kind == MIXTURE and "weights" in numbers else 1
    # a table longer than the file lacks one of its first len(numbers) + 1 keys
    table = list(islice(_row_keys(kind, K, M), len(numbers) + 1))
    for key in table:
        if key not in numbers:
            raise EnvParseError(0, f"missing {key}")
    keys = set(table)                            # no key is missing: the whole table
    for key, (line_no, vec) in numbers.items():
        if key not in keys:
            raise EnvParseError(line_no, f"unknown key {key!r}; a {kind} file with K = {K} "
                                         f"has the keys {table[0]} .. {table[-1]}")
        if key != "weights" and len(vec) != K:
            raise EnvParseError(line_no, f"{key} has {len(vec)} entries, expected {K}")
    payload = [numbers[key][1] for key in table]
    if kind == MIXTURE:
        return mixture_env(payload[0], np.reshape(payload[1:], (M, K, K)))
    return (deterministic_env if kind == DETERMINISTIC else dirichlet_env)(np.array(payload))


def load_env(path) -> EnvironmentModel:
    """parse_env_text of a UTF-8 file; a file that cannot be read or decoded
    is an EnvParseError too."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise EnvParseError(0, f"cannot read {str(path)!r}: {exc.strerror}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise EnvParseError(line_no, f"byte {exc.start} is not UTF-8: {exc.reason}") from None
    return parse_env_text(text)


def serialize_env(env: EnvironmentModel) -> str:
    """Round-trippable text form (repr keeps each float bit-identical)."""
    arrays = [a for a in (env.rows, env.alpha, env.weights, env.comps) if a is not None]
    payload = [line for a in arrays for line in a.reshape(-1, a.shape[-1])]   # _row_keys order
    M = 1 if env.weights is None else env.weights.size
    lines = ["[env]", f"kind = {env.kind}", f"K = {env.K}"]
    for key, values in zip(_row_keys(env.kind, env.K, M), payload):
        lines.append(f"{key} = " + " ".join(map(repr, values.tolist())))
    return "\n".join(lines) + "\n"
