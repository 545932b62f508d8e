"""Config-driven experiment front end.

    trielab <mode> --env FILE [--j J | --alpha A] [--m-grid START:FACTOR:COUNT]
            [--reps R] [--seed S] [--theta-grid LO:HI:STEPS] [--depth N]
            [--cap C] [--workers W] --out PATH [--format csv|json]

Modes
-----
spectral   tabulate shape values and constants over a theta grid
simulate   per-replicate height/saturation observations over the m grid
converge   Monte Carlo slope fit of height (or saturation) against ln m,
           compared with the predicted constant
profile    exact box statistics of one generation
coupon     throw counts until every generation-`depth` box holds >= j balls

Exit codes: 0 success; 2 configuration error; 3 invalid environment;
4 regime without a prediction (the report is still written); 5 runtime cap
exceeded.  Every failure prints one line: ``error: <Code>: <detail>``.

Replicate (m_index, replicate_index) owns the random stream derived from the
master seed, so reports are byte-identical across runs and across worker
counts, and extending the replicate count leaves earlier replicates unchanged.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import sim, spectral
from .envs import EnvironmentModel, load_env
from .errors import (
    BadAlpha,
    BadRows,
    BadSupport,
    CapExceeded,
    ConditionsNotMet,
    ConfigError,
    DegenerateX,
    DepthCapExceeded,
    EnvParseError,
    IoError,
    NotRegular,
    NotStrictlyConvex,
    OutsideRegime,
    PredictionUnavailable,
    ThetaOutOfDomain,
    TrielabError,
)

_ENV_SEED_VAR = "TRIELAB_SEED"
# memory budget of one simulated level: a generation holds at most m/j boxes
# with >= j balls, and their children take up to m/j x K int64 counts
LEVEL_BYTES = 2 ** 26
# a replicate's task and result records, as _collect_runs keeps them (about
# 430 bytes under tracemalloc; a coupon outcome takes less)
RUN_BYTES = 512


@dataclass
class ExperimentConfig:
    env_path: str
    mode: str
    j: Optional[int] = None
    alpha: Optional[float] = None
    m_grid: list = field(default_factory=list)
    replicates: int = 200
    master_seed: int = 0
    theta_grid: list = field(default_factory=list)
    depth: int = 8
    cap: int = 1_048_576
    workers: int = 1
    out_path: str = ""
    out_format: str = "csv"

    def validate(self, K: Optional[int] = None) -> None:
        """Refuse invalid settings (ConfigError).  Given the alphabet size K,
        also refuse m grid points whose levels could pass LEVEL_BYTES
        (CapExceeded), before anything is simulated."""
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.j is not None and self.alpha is not None:
            raise ConfigError("pass only one of --j and --alpha")
        if self.j is not None and self.j < 1:
            raise ConfigError(f"--j must be >= 1, got {self.j}")
        if self.alpha is not None and not (0.0 < self.alpha < 1.0):
            raise ConfigError(f"--alpha must lie in (0,1), got {self.alpha!r}")
        if self.master_seed < 0:
            raise ConfigError(f"the seed (--seed or {_ENV_SEED_VAR}) must be >= 0, "
                              f"got {self.master_seed}")
        if self.replicates < 1:
            raise ConfigError(f"--reps must be >= 1, got {self.replicates}")
        if not 0 <= self.depth <= sim.DEFAULT_DEPTH_CAP:
            raise ConfigError(f"--depth must lie in 0..{sim.DEFAULT_DEPTH_CAP} (the simulator's "
                              f"generation cap), got {self.depth}")
        if self.cap < 1:
            raise ConfigError(f"--cap must be >= 1, got {self.cap}")
        if self.cap * 8 > LEVEL_BYTES:
            raise CapExceeded(f"--cap {self.cap} admits a random profile that realizes that "
                              f"many boxes, past the limit of {LEVEL_BYTES // 8}")
        runs = self.replicates * (len(self.m_grid) if self.mode in ("simulate", "converge") else 1)
        if runs * RUN_BYTES > LEVEL_BYTES:
            raise CapExceeded(f"--reps {self.replicates} makes {runs} runs of {RUN_BYTES} bytes "
                              f"each, past the {LEVEL_BYTES} byte budget")
        if self.m_grid:
            if any(b <= a for a, b in zip(self.m_grid, self.m_grid[1:])):
                raise ConfigError("m grid must be strictly increasing (factor > 1)")
        if self.mode == "converge" and len(self.m_grid) < 3:
            raise ConfigError(f"converge fits a slope and needs at least 3 m grid points, "
                              f"got {len(self.m_grid)}")
        cpus = os.cpu_count() or 1
        if not 1 <= self.workers <= cpus:
            raise ConfigError(f"--workers must lie in 1..{cpus} (the CPU count), "
                              f"got {self.workers}")
        if self.out_format not in ("csv", "json"):
            raise ConfigError(f"--format must be csv or json, got {self.out_format!r}")
        if K is not None and self.mode in ("simulate", "converge"):
            for m in self.m_grid:
                j = (self.j or 1) if self.alpha is None else max(2, math.ceil(m ** self.alpha))
                boxes = -(-m // j)
                if boxes * K * 8 > LEVEL_BYTES:
                    raise CapExceeded(
                        f"m = {m} with j = {j} and K = {K}: a level could hold {boxes} x {K} "
                        f"int64 child counts, past the {LEVEL_BYTES} byte budget"
                    )


@dataclass
class RowStat:
    m: int
    stat: str
    mean: float
    median: float
    stderr: float
    count: int


@dataclass
class ConvergenceReport:
    rows: list
    fitted_slope: float
    fit_r2: float
    predicted: float
    relative_gap: float
    prediction_note: str = ""


# the converge report's table, which emit_report and parse_report share: its
# row columns with their parsers, and its footer keys with their report fields
_ROW_COLUMNS = {"m": int, "stat": str, "mean": float, "median": float, "stderr": float,
                "count": int}
_FIT_FOOTER = {"slope": "fitted_slope", "r2": "fit_r2", "predicted": "predicted",
               "relative_gap": "relative_gap"}


# --------------------------------------------------------------------------
# fitting
# --------------------------------------------------------------------------

def fit_slope(points):
    """Ordinary least squares (slope, intercept, r2); exact on affine input."""
    pts = list(points)
    if len(pts) < 3:
        raise DegenerateX(f"need at least 3 points, got {len(pts)}")
    x = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts], dtype=float)
    sxx = ((x - x.mean()) ** 2).sum()
    if sxx == 0.0:
        raise DegenerateX("abscissae carry no variance")
    slope = ((x - x.mean()) * (y - y.mean())).sum() / sxx
    intercept = y.mean() - slope * x.mean()
    ss_res = ((y - slope * x - intercept) ** 2).sum()
    ss_tot = ((y - y.mean()) ** 2).sum()
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r2)


def _median(values) -> float:
    """The median as np.median takes it: the middle value, or the mean of
    the middle pair, (a + b) / 2.  np.median checks float input for NaN
    through numpy.ma, whose import every converge run would pay."""
    ordered = sorted(float(v) for v in values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


# --------------------------------------------------------------------------
# experiment runners
# --------------------------------------------------------------------------

def _stream(master_seed: int, m_idx: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(m_idx, rep)))


def _one_run(env, mode_j, mode_alpha, master_seed, m_idx, m, rep):
    rng = _stream(master_seed, m_idx, rep)
    if mode_alpha is not None:
        obs = sim.simulate_power_regime(env, m, mode_alpha, rng)
    elif mode_j is not None and mode_j >= 2:
        obs = sim.simulate_occupancy(env, m, mode_j, rng)
    else:
        obs = sim.simulate_saturation(env, m, mode_j if mode_j else 1, rng)
    return m_idx, rep, obs.j, obs.height, obs.saturation, obs.expanded_nodes, obs.max_depth_reached


def _collect_runs(config: ExperimentConfig, env: EnvironmentModel):
    tasks = [
        (env, config.j, config.alpha, config.master_seed, m_idx, m, rep)
        for m_idx, m in enumerate(config.m_grid)
        for rep in range(config.replicates)
    ]
    if config.workers > 1:
        # largest m first (longest processing time first), so the short
        # tasks fill the gaps at the end; four chunks per worker keep the
        # per-task hand-off cost small next to millisecond replicates
        tasks.sort(key=lambda t: -t[5])
        chunk = max(1, len(tasks) // (4 * config.workers))
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_one_run_star, tasks, chunksize=chunk))
    else:
        results = [_one_run(*t) for t in tasks]
    results.sort(key=lambda r: (r[0], r[1]))      # deterministic fold order
    return results


def _one_run_star(args):
    return _one_run(*args)


def run_converge(config: ExperimentConfig, env: EnvironmentModel) -> ConvergenceReport:
    """Slope of the chosen statistic against ln m over the geometric grid.

    Heights are concentrated, so the fit uses per-m means; saturation levels
    (j = 1) have heavy upper tails, so the fit uses per-m medians.  A regime
    without a predicted constant leaves `predicted` NaN and says why in
    `prediction_note`.
    """
    results = _collect_runs(config, env)
    height_mode = config.alpha is not None or (config.j is not None and config.j >= 2)
    rows = []
    fit_points = []
    for m_idx, m in enumerate(config.m_grid):
        cell = [r for r in results if r[0] == m_idx]
        heights = np.array([r[3] for r in cell], dtype=float) if height_mode else None
        sats = np.array([r[4] for r in cell], dtype=float)
        for stat, data in (("height", heights), ("saturation", sats)):
            if data is None:
                continue
            stderr = float(data.std(ddof=1) / math.sqrt(len(data))) if len(data) > 1 else 0.0
            rows.append(RowStat(m=m, stat=stat, mean=float(data.mean()),
                                median=_median(data), stderr=stderr,
                                count=len(data)))
        chosen = heights if height_mode else sats
        fit_points.append(
            (math.log(m), float(chosen.mean()) if height_mode else _median(chosen))
        )
    slope, _, r2 = fit_slope(fit_points)
    note = ""
    try:
        if config.alpha is not None:
            predicted = spectral.predicted_height_constant(env, power_alpha=config.alpha)
        elif height_mode:
            predicted = spectral.predicted_height_constant(env, j=config.j)
        else:
            predicted = spectral.predicted_saturation_constant(env)
    except (OutsideRegime, ConditionsNotMet) as exc:
        predicted = math.nan
        note = f"{type(exc).__name__}: {exc}"
    gap = abs(slope - predicted) / predicted if (math.isfinite(predicted) and predicted) else math.nan
    return ConvergenceReport(rows=rows, fitted_slope=slope, fit_r2=r2, predicted=predicted,
                             relative_gap=gap, prediction_note=note)


def run_spectral(config: ExperimentConfig, env: EnvironmentModel):
    if not config.theta_grid:
        raise ConfigError("spectral mode needs --theta-grid")
    return spectral.spectral_profile(env, config.theta_grid)


def run_profile(config: ExperimentConfig, env: EnvironmentModel):
    if env.is_deterministic:
        # refuse sums outside float64 before the level is profiled; fixed
        # rows draw nothing, so no generator is built
        sim.level_sums(env, config.depth, config.theta_grid)
        rng = None
    else:
        rng = _stream(config.master_seed, 0, 0)
    return sim.enumerate_level(env, config.depth, theta_list=config.theta_grid,
                               cap=config.cap, rng=rng)


def run_coupon(config: ExperimentConfig, env: EnvironmentModel) -> list:
    j = config.j if config.j is not None else 1
    outcomes = []
    for rep in range(config.replicates):
        rng = _stream(config.master_seed, 0, rep)
        outcomes.append(sim.coupon_time(env, config.depth, j, rng))
    return outcomes


MODES = {
    "spectral": run_spectral,
    "simulate": _collect_runs,
    "converge": run_converge,
    "profile": run_profile,
    "coupon": run_coupon,
}


# --------------------------------------------------------------------------
# report emission
# --------------------------------------------------------------------------

def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write report to {path!r}: {exc}") from exc


def _json_safe(x):
    """x as strict JSON: NaN and infinities as the strings "nan", "inf" and
    "-inf", which float() reads back."""
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return _json_safe(float(x))
    if isinstance(x, np.ndarray):
        return [_json_safe(v) for v in x.tolist()]
    if isinstance(x, dict):
        return {str(k): _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    return x


def _layout(payload):
    """The one description of each report kind: (CSV columns, CSV rows, CSV
    footer pairs, JSON document).  JSON rows mirror the CSV column names."""
    if isinstance(payload, ConvergenceReport):
        columns = tuple(_ROW_COLUMNS)
        rows = [tuple(getattr(r, c) for c in columns) for r in payload.rows]
        footer = [(key, getattr(payload, name)) for key, name in _FIT_FOOTER.items()]
        if payload.prediction_note:                  # one CSV-quoted field, quotes doubled
            footer.append(("note", '"' + payload.prediction_note.replace('"', '""') + '"'))
        doc = {**vars(payload), "rows": [dict(zip(columns, row)) for row in rows]}
    elif isinstance(payload, spectral.SpectralProfile):
        columns = ("theta", "rho", "log_rho", "drift", "psi", "phi", "f")
        rows = [(sv.theta, math.exp(sv.log_rho), sv.log_rho, sv.drift, sv.psi, sv.phi, sv.f)
                for sv in payload.shapes]
        c = payload.constants
        keys = ("c_star_lower", "c_star_upper", "theta_star_lower", "theta_star_upper",
                "condition_saturation_ok")
        footer = [(key, getattr(c, key)) for key in keys]
        doc = {"rows": [dict(zip(columns, row)) for row in rows],
               "constants": {**dict(footer), "notes": c.notes}}
    elif isinstance(payload, sim.LevelProfile):
        K = len(payload.per_type_boxes)
        columns = ("theta", "martingale", *(f"laplace_{i + 1}" for i in range(K)))
        rows = [(theta, payload.martingale.get(theta), *payload.laplace[theta])
                for theta in sorted(payload.laplace)]
        footer = [(key, getattr(payload, key))
                  for key in ("n", "truncated", "min_log_size", "max_log_size")]
        doc = {**dict(footer), "laplace": payload.laplace, "martingale": payload.martingale}
    elif payload and isinstance(payload[0], sim.CouponOutcome):
        throws = [o.throws for o in payload]
        columns, rows = ("rep", "throws"), list(enumerate(throws))
        footer = [("n", payload[0].n), ("j", payload[0].j),
                  ("mean", float(np.mean(throws))), ("median", _median(throws))]
        doc = {**dict(footer[:2]), "throws": throws}
    else:  # simulate runs
        columns = ("m_index", "rep", "j", "height", "saturation", "expanded_nodes",
                   "max_depth_reached")
        rows, footer = payload, []
        doc = {"runs": [dict(zip(columns, row)) for row in rows]}
    return columns, rows, footer, doc


def emit_report(payload, path, fmt: str = "csv") -> None:
    """Write a report in its _layout: the columns, rows and footer pairs as
    CSV, or the document as JSON."""
    columns, rows, footer, doc = _layout(payload)
    if fmt == "json":
        text = json.dumps(_json_safe(doc), sort_keys=True, separators=(",", ":"))
    else:
        text = "\n".join([",".join(columns),
                          *(",".join(_fmt(v) for v in row) for row in rows),
                          *(f"{key},{_fmt(value)}" for key, value in footer)])
    _write(path, text + "\n")


def parse_report(path, fmt: str = "csv") -> ConvergenceReport:
    """Read back a converge report (round-trip partner of emit_report)."""
    with open(path, encoding="utf-8", newline="") as fh:
        if fmt == "json":
            doc = json.load(fh)
            rows = [RowStat(**{k: _ROW_COLUMNS[k](v) for k, v in r.items()})
                    for r in doc.pop("rows")]
            fit = {name: float(doc.pop(name)) for name in _FIT_FOOTER.values()}
            return ConvergenceReport(rows=rows, **fit, **doc)
        lines = list(csv.reader(fh))
    rows, fit = [], {}
    for parts in lines[1:]:
        key = parts[0]
        if key == "note":
            fit["prediction_note"] = parts[1]
        elif key in _FIT_FOOTER:
            fit[_FIT_FOOTER[key]] = float(parts[1])
        else:
            rows.append(RowStat(*(parse(v) for parse, v in zip(_ROW_COLUMNS.values(), parts))))
    return ConvergenceReport(rows=rows, **fit)


# --------------------------------------------------------------------------
# argument parsing / entry point
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: ConfigError: {message}", file=sys.stderr)
        raise SystemExit(2)


def _parse_m_grid(text: str) -> list:
    try:
        start_s, factor_s, count_s = text.split(":")
        start, factor, count = int(start_s), float(factor_s), int(count_s)
    except ValueError:
        raise ConfigError(f"--m-grid must be START:FACTOR:COUNT, got {text!r}") from None
    if start < 1 or count < 1 or factor <= 1.0:
        raise ConfigError(f"--m-grid needs start >= 1, count >= 1, factor > 1, got {text!r}")
    # checked from its ends before the list is built: its length is count
    try:
        log_last = math.log(start) + (count - 1) * math.log(factor)
    except OverflowError:                           # count past the float range
        log_last = math.inf
    top = sim._INT64_MAX
    if log_last > math.log(top) or round(start * factor ** (count - 1)) > top:
        raise CapExceeded(f"--m-grid {text!r} passes the int64 range")
    if count * 8 > LEVEL_BYTES:
        raise CapExceeded(f"--m-grid {text!r} holds {count} int64 points, past the "
                          f"{LEVEL_BYTES} byte budget")
    if math.log(count - 0.5) > log_last:
        raise ConfigError(f"--m-grid {text!r} cannot be strictly increasing: its last point "
                          f"{math.exp(log_last):.6g} rounds below its count {count}")
    return [int(round(start * factor ** i)) for i in range(count)]


def _parse_theta_grid(text: str) -> list:
    try:
        lo_s, hi_s, steps_s = text.split(":")
        lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
    except ValueError:
        raise ConfigError(f"--theta-grid must be LO:HI:STEPS, got {text!r}") from None
    if steps < 1:
        raise ConfigError("--theta-grid needs at least one step")
    if steps * 8 > LEVEL_BYTES:
        raise CapExceeded(f"--theta-grid {text!r} holds {steps} float64 points, past the "
                          f"{LEVEL_BYTES} byte budget")
    return [float(t) for t in np.linspace(lo, hi, steps)]


def build_config(argv) -> ExperimentConfig:
    parser = _Parser(prog="trielab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--env", required=True, help="environment file")
    parser.add_argument("--j", type=int, default=None)
    parser.add_argument("--alpha", type=float, default=None)
    parser.add_argument("--m-grid", default="1024:2:11")
    parser.add_argument("--reps", type=int, default=200)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--theta-grid", default=None)
    parser.add_argument("--depth", type=int, default=8)
    parser.add_argument("--cap", type=int, default=1_048_576)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", required=True)
    parser.add_argument("--format", default="csv", choices=("csv", "json"))
    args = parser.parse_args(argv)
    if args.seed is not None:
        seed = args.seed
    else:
        try:
            seed = int(os.environ.get(_ENV_SEED_VAR, "0"))
        except ValueError:
            raise ConfigError(f"{_ENV_SEED_VAR} must be an integer") from None
    config = ExperimentConfig(
        env_path=args.env, mode=args.mode, j=args.j, alpha=args.alpha,
        m_grid=_parse_m_grid(args.m_grid), replicates=args.reps, master_seed=seed,
        theta_grid=_parse_theta_grid(args.theta_grid) if args.theta_grid else [],
        depth=args.depth, cap=args.cap, workers=args.workers,
        out_path=args.out, out_format=args.format,
    )
    config.validate()
    return config


_EXIT_CODES = (
    (( ConfigError, DegenerateX, IoError, ThetaOutOfDomain ), 2),
    (( BadRows, BadSupport, BadAlpha, NotRegular, EnvParseError, NotStrictlyConvex,
       FileNotFoundError ), 3),
    (( OutsideRegime, ConditionsNotMet, PredictionUnavailable ), 4),
    (( DepthCapExceeded, CapExceeded ), 5),
)


def _exit_code(exc) -> int:
    for types, code in _EXIT_CODES:
        if isinstance(exc, types):
            return code
    return 1


def main(argv=None) -> int:
    try:
        config = build_config(argv if argv is not None else sys.argv[1:])
    except SystemExit as exc:
        return int(exc.code or 0)
    except TrielabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _exit_code(exc)
    try:
        env = load_env(config.env_path)
        config.validate(env.K)
        payload = MODES[config.mode](config, env)
        emit_report(payload, config.out_path, config.out_format)
        if isinstance(payload, ConvergenceReport) and payload.prediction_note:
            raise PredictionUnavailable(payload.prediction_note)
        return 0
    except (TrielabError, FileNotFoundError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    raise SystemExit(main())
