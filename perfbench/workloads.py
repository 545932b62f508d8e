"""The three workloads: environments, operations and their sizes.

Every workload runs every command kind, so that it reports every end-to-end
metric; the sizes put each workload's work on different layers:

  height      converge at j >= 2 over m up to 2^18..2^20: the sim level loop
  saturation  converge at j = 1 (a few levels per run) and spectral tables:
              cold asymptotic constants and spectral points
  exact       profile near the 2^20-box cap, coupon throws and the word
              oracle's law check: enumeration, coupons and the oracle

An operation is one trielab command (an argv for trielab.cli.main) or one
law check; each round runs the workload's operations once, in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

K5_SEED = 5             # the K = 5 environment is drawn once, from this seed


def _k5_rows():
    rng = np.random.default_rng(K5_SEED)
    rows = 0.1 + rng.dirichlet(np.full(5, 2.0), size=5)
    return (rows / rows.sum(axis=1, keepdims=True)).tolist()


ENVS = {
    "iid": {"kind": "deterministic", "rows": [[0.7, 0.3], [0.7, 0.3]]},
    "uniform": {"kind": "deterministic", "rows": [[0.5, 0.5], [0.5, 0.5]]},
    "markov": {"kind": "deterministic", "rows": [[0.9, 0.1], [0.2, 0.8]]},
    "markov_b": {"kind": "deterministic", "rows": [[0.7, 0.3], [0.4, 0.6]]},
    "markov5": {"kind": "deterministic", "rows": _k5_rows()},
    "dirichlet": {"kind": "dirichlet", "alpha": [[1.0, 1.0], [1.0, 1.0]]},
    "dirichlet5": {"kind": "dirichlet", "alpha": [[5.0, 5.0], [5.0, 5.0]]},
    "mixture": {"kind": "mixture", "weights": [0.5, 0.5],
                "comps": [[[0.5, 0.5], [0.5, 0.5]], [[0.9, 0.1], [0.9, 0.1]]]},
}


def env_text(env) -> str:
    """The environment in trielab's file format (repr keeps floats exact)."""
    num = lambda row: " ".join(repr(float(x)) for x in row)
    K = len(env.get("rows") or env.get("alpha") or env["comps"][0])
    lines = ["[env]", f"kind = {env['kind']}", f"K = {K}"]
    if env["kind"] == "deterministic":
        lines += [f"row.{i + 1} = {num(r)}" for i, r in enumerate(env["rows"])]
    elif env["kind"] == "dirichlet":
        lines += [f"alpha.{i + 1} = {num(r)}" for i, r in enumerate(env["alpha"])]
    else:
        lines.append(f"weights = {num(env['weights'])}")
        for c, comp in enumerate(env["comps"]):
            lines += [f"comp.{c + 1}.row.{i + 1} = {num(r)}" for i, r in enumerate(comp)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Op:
    """One operation of a round.

    kind names the end-to-end metric its time counts toward.  CLI operations
    carry `args` (trielab arguments after --env/--out/--seed); law checks
    carry `runs` and the fixed `stream` of their random draws.
    """

    kind: str
    label: str
    env: str
    args: tuple = ()
    j: Optional[int] = None
    alpha: Optional[float] = None
    grid: tuple = ()
    reps: int = 0
    depth: int = 0
    thetas: tuple = ()
    runs: int = 0
    length: int = 0
    stream: int = 0
    fault: bool = False        # known to fail until the program is mended


def _grid(start, factor, count):
    return tuple(int(round(start * factor ** i)) for i in range(count))


def converge(label, env, grid, reps, j=None, alpha=None, twin=False):
    """A converge command with --workers 1; with `twin`, again with --workers 2."""
    args = ("converge", f"--m-grid={grid[0]}:{grid[1]}:{grid[2]}", f"--reps={reps}",
            f"--j={j}" if j is not None else f"--alpha={alpha}")
    common = dict(env=env, j=j, alpha=alpha, grid=_grid(*grid), reps=reps)
    ops = [Op("converge", label, args=args + ("--workers=1",), **common)]
    if twin:
        ops.append(Op("converge_2w", label, args=args + ("--workers=2",), **common))
    return ops


def spectral(label, env, lo, hi, steps):
    thetas = tuple(float(t) for t in np.linspace(lo, hi, steps))
    return [Op("spectral", label, env, thetas=thetas,
               args=("spectral", f"--theta-grid={lo}:{hi}:{steps}"))]


def profile(label, env, depth, lo, hi, steps, fault=False):
    thetas = tuple(float(t) for t in np.linspace(lo, hi, steps))
    return [Op("profile", label, env, depth=depth, thetas=thetas, fault=fault,
               args=("profile", f"--depth={depth}", f"--theta-grid={lo}:{hi}:{steps}"))]


def coupon(label, env, depth, j, reps):
    return [Op("coupon", label, env, depth=depth, j=j, reps=reps,
               args=("coupon", f"--depth={depth}", f"--j={j}", f"--reps={reps}"))]


def law_check(label, env, runs, length, stream):
    return [Op("oracle", label, env, runs=runs, length=length, stream=stream, j=2)]


# operations that height and saturation share: one of each kind that their
# own operations leave out, sized to stay a small share of the round
LIGHT = (
    profile("markov.d16", "markov", 16, -1, 3, 3)
    + coupon("iid.d6.j1", "iid", 6, 1, 100)
    + law_check("markov_b.m12", "markov_b", 100, 64, 101)
    + law_check("dirichlet.m12", "dirichlet", 25, 64, 102)
)

WORKLOADS = {
    "height": (
        converge("iid.j2", "iid", (1024, 4, 5), 6, j=2, twin=True)
        + converge("dirichlet.j2", "dirichlet", (1024, 4, 5), 6, j=2)
        + converge("dirichlet.j8", "dirichlet", (1024, 4, 5), 6, j=8)
        + converge("uniform.a0.5", "uniform", (1024, 4, 6), 6, alpha=0.5)
        + spectral("iid", "iid", 1, 9, 17)
        + LIGHT
    ),
    "saturation": (
        converge("iid.j1", "iid", (1024, 4, 6), 30, j=1, twin=True)
        + converge("markov.j1", "markov", (1024, 4, 6), 30, j=1)
        + converge("dirichlet.j1", "dirichlet", (1024, 4, 6), 30, j=1)
        + converge("mixture.j1", "mixture", (1024, 4, 6), 30, j=1)
        + spectral("iid", "iid", -2, 6, 33)
        + spectral("markov", "markov", -2, 6, 33)
        + spectral("dirichlet", "dirichlet", -0.5, 6, 33)
        + spectral("mixture", "mixture", -2, 6, 33)
        + spectral("markov5", "markov5", -2, 6, 33)
        + LIGHT
    ),
    "exact": (
        profile("markov.d20", "markov", 20, -1, 2, 3)
        + profile("dirichlet.d20", "dirichlet", 20, -0.5, 2.5, 3)
        + coupon("iid.d8.j1", "iid", 8, 1, 100)
        + coupon("iid.d8.j3", "iid", 8, 3, 50)
        + coupon("dirichlet5.d10.j1", "dirichlet5", 10, 1, 20)
        + law_check("markov_b.m12", "markov_b", 250, 64, 11)
        + law_check("dirichlet.m12", "dirichlet", 60, 64, 12)
        + profile("markov.d400", "markov", 400, -1, -1, 1, fault=True)
        + converge("markov_b.j2", "markov_b", (256, 4, 5), 8, j=2, twin=True)
        + spectral("markov_b", "markov_b", -2, 6, 9)
        + spectral("dirichlet5", "dirichlet5", -2, 6, 9)
    ),
}
