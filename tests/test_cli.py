"""Experiment front end: fitting, reports, CLI behavior, determinism."""

import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import trielab as tl
from trielab.cli import (
    ConvergenceReport,
    ExperimentConfig,
    RowStat,
    build_config,
    emit_report,
    fit_slope,
    main,
    parse_report,
    run_converge,
)
from trielab.cli import _median
from trielab.errors import CapExceeded, ConfigError, DegenerateX

from conftest import PROPERTY

IID_ENV = "[env]\nkind = deterministic\nK = 2\nrow.1 = 0.7 0.3\nrow.2 = 0.7 0.3\n"
DIRICHLET_ENV = "[env]\nkind = dirichlet\nK = 2\nalpha.1 = 1 1\nalpha.2 = 1 1\n"


@pytest.fixture
def iid_env_file(tmp_path):
    path = tmp_path / "iid.env"
    path.write_text(IID_ENV)
    return str(path)


# --------------------------------------------------------------------------
# fitting
# --------------------------------------------------------------------------

def test_fit_exact_line():
    slope, intercept, r2 = fit_slope([(1, 2), (2, 4), (3, 6)])
    assert (slope, intercept, r2) == (2.0, 0.0, 1.0)


def test_fit_constant():
    slope, intercept, r2 = fit_slope([(0, 1), (1, 1), (2, 1)])
    assert slope == 0.0 and intercept == 1.0 and r2 == 1.0


def test_fit_tent():
    slope, intercept, _ = fit_slope([(0, 0), (1, 1), (2, 0)])
    assert slope == pytest.approx(0.0, abs=1e-15)
    assert intercept == pytest.approx(1 / 3, rel=1e-12)


def test_fit_degenerate():
    with pytest.raises(DegenerateX):
        fit_slope([(1, 2), (2, 3)])
    with pytest.raises(DegenerateX):
        fit_slope([(1, 2), (1, 3), (1, 4)])


@PROPERTY
@given(values=st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
    st.lists(st.integers(0, 2 ** 62), min_size=1, max_size=40)))
def test_median_is_np_median(values):
    assert _median(values) == np.median(values)
    assert _median(np.array(values)) == np.median(values)


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------

def sample_report():
    rows = [
        RowStat(m=1024, stat="height", mean=25.3, median=25.0, stderr=0.11, count=200),
        RowStat(m=2048, stat="height", mean=27.9, median=28.0, stderr=0.12, count=200),
    ]
    return ConvergenceReport(rows=rows, fitted_slope=3.71, fit_r2=0.998,
                             predicted=3.6715627385000076, relative_gap=0.0105)


def test_emit_csv_schema(tmp_path):
    path = tmp_path / "r.csv"
    emit_report(sample_report(), str(path), "csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "m,stat,mean,median,stderr,count"
    assert lines[1].startswith("1024,height,")
    assert lines[-4].startswith("slope,")
    assert lines[-3].startswith("r2,")
    assert lines[-2].startswith("predicted,3.6715627385000076")
    assert lines[-1].startswith("relative_gap,")
    assert path.read_bytes().endswith(b"\n")
    assert b"\r" not in path.read_bytes()


def test_emit_csv_empty_rows(tmp_path):
    path = tmp_path / "r.csv"
    rep = ConvergenceReport(rows=[], fitted_slope=3.0, fit_r2=1.0,
                            predicted=3.0, relative_gap=0.0)
    emit_report(rep, str(path), "csv")
    assert len(path.read_text().splitlines()) == 5     # header + 4 footer lines


def test_report_roundtrip_csv(tmp_path):
    path = tmp_path / "r.csv"
    rep = sample_report()
    emit_report(rep, str(path), "csv")
    back = parse_report(str(path), "csv")
    assert back.rows == rep.rows
    assert back.fitted_slope == rep.fitted_slope
    assert back.predicted == rep.predicted
    assert back.relative_gap == rep.relative_gap


def test_report_roundtrip_json(tmp_path):
    path = tmp_path / "r.json"
    rep = sample_report()
    emit_report(rep, str(path), "json")
    back = parse_report(str(path), "json")
    assert back.rows == rep.rows and back.fit_r2 == rep.fit_r2
    json.loads(path.read_text())       # valid strict JSON


def test_spectral_csv_header(tmp_path, iid_env_file):
    out = tmp_path / "s.csv"
    code = main(["spectral", "--env", iid_env_file, "--theta-grid", "0:2:3",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,rho,log_rho,drift,psi,phi,f"
    assert len([l for l in lines if l.startswith("c_star_")]) == 2


def test_readme_spectral_example_runs(tmp_path, monkeypatch):
    # a grid starting with "-" must be passed as --theta-grid=LO:HI:STEPS,
    # or argparse reads it as an option
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    line = next(l for l in readme.splitlines() if l.startswith("trielab spectral "))
    (tmp_path / "iid.env").write_text(IID_ENV)
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:]) == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert float(lines[1].split(",")[0]) == -2.0 and len(lines) == 1 + 33 + 5


# --------------------------------------------------------------------------
# CLI end-to-end
# --------------------------------------------------------------------------

def converge_args(env_file, out, extra=()):
    return ["converge", "--env", env_file, "--j", "2", "--m-grid", "64:2:4",
            "--reps", "8", "--seed", "7", "--out", out, *extra]


def test_converge_leaves_numpy_ma_unloaded(tmp_path, iid_env_file):
    # np.median's NaN check imports numpy.ma; a converge run needs none of it
    src = str(Path(tl.__file__).resolve().parents[1])
    args = converge_args(iid_env_file, str(tmp_path / "c.csv"))
    code = ("import sys\nfrom trielab.cli import main\n"
            f"assert main({args!r}) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_cli_converge_runs(tmp_path, iid_env_file):
    out = tmp_path / "c.csv"
    assert main(converge_args(iid_env_file, str(out))) == 0
    rep = parse_report(str(out))
    assert {r.stat for r in rep.rows} == {"height", "saturation"}
    assert rep.fitted_slope > 0


def test_cli_determinism_and_worker_independence(tmp_path, iid_env_file):
    outs = []
    for name, extra in (("a.csv", ()), ("b.csv", ()), ("w.csv", ("--workers", "2"))):
        out = tmp_path / name
        assert main(converge_args(iid_env_file, str(out), extra)) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_cli_seed_isolation(tmp_path, iid_env_file):
    # extending the replicate count must not disturb earlier replicates
    out8 = tmp_path / "r8.json"
    out12 = tmp_path / "r12.json"
    base = ["simulate", "--env", iid_env_file, "--j", "2", "--m-grid", "64:2:2",
            "--seed", "5", "--format", "json"]
    assert main(base + ["--reps", "8", "--out", str(out8)]) == 0
    assert main(base + ["--reps", "12", "--out", str(out12)]) == 0
    runs8 = json.loads(out8.read_text())["runs"]
    runs12 = json.loads(out12.read_text())["runs"]
    first = [r for r in runs12 if r["rep"] < 8]
    assert first == runs8


def test_cli_env_seed_variable(tmp_path, iid_env_file, monkeypatch):
    out1 = tmp_path / "e1.csv"
    out2 = tmp_path / "e2.csv"
    args = ["converge", "--env", iid_env_file, "--j", "2", "--m-grid", "64:2:4",
            "--reps", "4"]
    monkeypatch.setenv("TRIELAB_SEED", "7")
    assert main(args + ["--out", str(out1)]) == 0
    monkeypatch.delenv("TRIELAB_SEED")
    assert main(args + ["--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_profile_and_coupon(tmp_path, iid_env_file):
    prof = tmp_path / "p.csv"
    code = main(["profile", "--env", iid_env_file, "--theta-grid", "1:2:2",
                 "--depth", "6", "--seed", "1", "--out", str(prof)])
    assert code == 0
    assert prof.read_text().splitlines()[0] == "theta,martingale,laplace_1,laplace_2"
    coup = tmp_path / "k.csv"
    code = main(["coupon", "--env", iid_env_file, "--j", "1", "--depth", "2",
                 "--reps", "5", "--seed", "1", "--out", str(coup)])
    assert code == 0
    assert coup.read_text().splitlines()[0] == "rep,throws"


# --------------------------------------------------------------------------
# exit codes and error lines
# --------------------------------------------------------------------------

def run_cli(args):
    # the subprocess imports the same trielab as this test, whatever its PYTHONPATH
    src = str(Path(tl.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "trielab.cli", *args],
        capture_output=True, text=True, env=env,
    )
    return proc.returncode, proc.stderr.strip()


def test_exit_code_config_error(tmp_path, iid_env_file):
    code, err = run_cli(["converge", "--env", iid_env_file, "--j", "2",
                         "--m-grid", "junk", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert err.splitlines()[-1].startswith("error: ConfigError:")


def test_workers_above_cpu_count_are_refused(tmp_path, iid_env_file, monkeypatch, capsys):
    def pool(*_, **__):
        raise AssertionError("a refused --workers value started a pool")

    monkeypatch.setattr(tl.cli, "ProcessPoolExecutor", pool)
    out = tmp_path / "w.csv"
    workers = str(os.cpu_count() + 1)
    assert main(converge_args(iid_env_file, str(out), ("--workers", workers))) == 2
    assert capsys.readouterr().err.startswith("error: ConfigError: --workers must lie in")
    assert not out.exists()


def test_m_grid_past_the_level_budget_is_refused(tmp_path, iid_env_file, monkeypatch,
                                                 capsys):
    def levels(*_, **__):
        raise AssertionError("a refused m grid reached the simulator")

    monkeypatch.setattr(tl.sim, "_run_levels", levels)
    for mode, grid, j in (("converge", "1024:1e20:3", "2"), ("converge", "1024:1e200:3", "2"),
                          ("simulate", f"{2 ** 23}:2:2", "1"),
                          ("simulate", f"{10 ** 19}:2:1", f"{10 ** 19}")):   # m past int64
        out = tmp_path / "m.csv"
        assert main([mode, "--env", iid_env_file, "--j", j, "--m-grid", grid, "--reps", "2",
                     "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: CapExceeded:") and err.count("\n") == 1
        assert not out.exists()
    # the budget admits m up to 2^20 with K = 5 at j = 1, and j divides the
    # level (a converge grid takes at least 3 points)
    ExperimentConfig(env_path="", mode="converge", j=1,
                     m_grid=[2 ** 18, 2 ** 19, 2 ** 20]).validate(5)
    ExperimentConfig(env_path="", mode="converge", j=8,
                     m_grid=[2 ** 21, 2 ** 22, 2 ** 23]).validate(2)
    ExperimentConfig(env_path="", mode="converge", alpha=0.5,
                     m_grid=[2 ** 18, 2 ** 19, 2 ** 20]).validate(5)


def test_short_converge_grid_is_refused_before_simulating(tmp_path, iid_env_file,
                                                         monkeypatch, capsys):
    def levels(*_, **__):
        raise AssertionError("a refused m grid reached the simulator")

    monkeypatch.setattr(tl.sim, "_run_levels", levels)
    for grid, count in (("64:2:2", 2), ("64:2:1", 1)):
        out = tmp_path / "c.csv"
        assert main(converge_args(iid_env_file, str(out), ("--m-grid", grid))) == 2
        err = capsys.readouterr().err
        assert err == (f"error: ConfigError: converge fits a slope and needs at least 3 m grid "
                       f"points, got {count}\n")
        assert not out.exists()


def seed_args(mode, env_file, out):
    return [mode, "--env", env_file, "--j", "2", "--m-grid", "64:2:3", "--reps", "2",
            "--depth", "2", "--out", out]


@pytest.mark.parametrize("mode", ["converge", "simulate", "coupon"])
def test_negative_seed_flag_is_refused(tmp_path, iid_env_file, capsys, mode):
    out = tmp_path / "s.csv"
    assert main(seed_args(mode, iid_env_file, str(out)) + ["--seed", "-3"]) == 2
    assert capsys.readouterr().err == ("error: ConfigError: the seed (--seed or TRIELAB_SEED) "
                                       "must be >= 0, got -3\n")
    assert not out.exists()


@pytest.mark.parametrize("mode", ["converge", "simulate", "coupon"])
def test_negative_seed_variable_is_refused(tmp_path, iid_env_file, monkeypatch, capsys, mode):
    out = tmp_path / "s.csv"
    monkeypatch.setenv("TRIELAB_SEED", "-1")
    assert main(seed_args(mode, iid_env_file, str(out))) == 2
    assert capsys.readouterr().err == ("error: ConfigError: the seed (--seed or TRIELAB_SEED) "
                                       "must be >= 0, got -1\n")
    assert not out.exists()
    # the flag overrides the variable
    assert main(seed_args(mode, iid_env_file, str(out)) + ["--seed", "0"]) == 0


def test_theta_grid_past_the_byte_budget_is_refused(tmp_path, iid_env_file, monkeypatch,
                                                    capsys):
    def linspace(*_, **__):
        raise AssertionError("a refused theta grid was built")

    monkeypatch.setattr(tl.cli.np, "linspace", linspace)
    steps = tl.cli.LEVEL_BYTES // 8 + 1
    with pytest.raises(CapExceeded, match=f"holds {steps} float64 points, past the"):
        build_config(["spectral", f"--env={iid_env_file}", f"--theta-grid=0:1:{steps}",
                      "--out=x.csv"])
    out = tmp_path / "t.csv"
    assert main(["spectral", f"--env={iid_env_file}", "--theta-grid=0:1:" + "9" * 30,
                 f"--out={out}"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: CapExceeded: --theta-grid") and err.count("\n") == 1
    assert not out.exists()
    # the budget's last point is admitted; the stand-in builds no grid
    calls = []
    monkeypatch.setattr(tl.cli.np, "linspace", lambda lo, hi, n: calls.append(n) or [])
    build_config(["spectral", f"--env={iid_env_file}", f"--theta-grid=0:1:{steps - 1}",
                  "--out=x.csv"])
    assert calls == [steps - 1]


@pytest.mark.parametrize("args,message", [
    (("profile", "--depth=-3"), "--depth must lie in 0..10000"),
    (("profile", "--depth=10001"), "--depth must lie in 0..10000"),
    (("coupon", "--depth=-2"), "--depth must lie in 0..10000"),
    (("coupon", "--cap=-1"), "--cap must be >= 1"),
    (("profile", "--cap=0"), "--cap must be >= 1"),
])
def test_out_of_range_depth_and_cap_are_refused(tmp_path, iid_env_file, capsys, args, message):
    out = tmp_path / "r.csv"
    assert main([*args, f"--env={iid_env_file}", f"--out={out}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: ConfigError: {message}") and err.count("\n") == 1
    assert not out.exists()


def test_depth_and_cap_ends_are_accepted(iid_env_file):
    for depth, cap in ((0, 1), (tl.sim.DEFAULT_DEPTH_CAP, 1)):
        config = build_config(["profile", f"--env={iid_env_file}", f"--depth={depth}",
                               f"--cap={cap}", "--out=x.csv"])
        assert (config.depth, config.cap) == (depth, cap)


def test_m_grid_refusals_are_bounded_in_memory(iid_env_file):
    # 3 million points cannot rise strictly from 1024 to 1055; the refusal
    # comes from the ends in logs, before any list of points is built
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="cannot be strictly increasing"):
            build_config(["converge", f"--env={iid_env_file}", "--m-grid=1024:1.00000001:3000000",
                          "--out=x.csv"])
        with pytest.raises(CapExceeded, match="passes the int64 range"):
            build_config(["converge", f"--env={iid_env_file}", "--m-grid=2:2:" + "9" * 400,
                          "--out=x.csv"])
        # 3.6e9 points rising to about 4.4e18: inside int64 and above the
        # count, so the byte budget of the points themselves refuses it
        with pytest.raises(CapExceeded, match="3600000000 int64 points, past the"):
            build_config(["converge", f"--env={iid_env_file}",
                          "--m-grid=1024:1.00000001:3600000000", "--out=x.csv"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    # the smallest strictly increasing grids still pass: 1, 2 from 1 x 1.6
    # (in simulate: a converge grid takes at least 3 points)
    assert build_config(["simulate", f"--env={iid_env_file}", "--m-grid=1:1.6:2",
                         "--out=x.csv"]).m_grid == [1, 2]


def test_cap_and_reps_past_the_byte_budget_are_refused(tmp_path, iid_env_file, monkeypatch,
                                                       capsys):
    # stand-ins for the enumeration and the run loops: a refused run reaches neither
    def refused(*_, **__):
        raise AssertionError("a refused command started work")

    for name in ("enumerate_level", "coupon_time", "simulate_occupancy", "simulate_saturation"):
        monkeypatch.setattr(tl.cli.sim, name, refused)
    cap = tl.cli.LEVEL_BYTES // 8 + 1
    runs = tl.cli.LEVEL_BYTES // tl.cli.RUN_BYTES + 1
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match=f"--cap {cap} admits"):
            build_config(["profile", f"--env={iid_env_file}", f"--cap={cap}", "--out=x.csv"])
        with pytest.raises(CapExceeded, match="--cap 10000000000000 admits"):
            build_config(["profile", f"--env={iid_env_file}", "--cap=10000000000000",
                          "--depth=40", "--out=x.csv"])
        with pytest.raises(CapExceeded, match=f"makes {runs} runs"):
            build_config(["coupon", f"--env={iid_env_file}", f"--reps={runs}", "--out=x.csv"])
        # 4 grid points: a quarter of the replicates is already too many
        with pytest.raises(CapExceeded, match=f"makes {4 * (runs // 4 + 1)} runs"):
            build_config(["converge", f"--env={iid_env_file}", "--j=2", "--m-grid=64:2:4",
                          f"--reps={runs // 4 + 1}", "--out=x.csv"])
        with pytest.raises(CapExceeded, match="--reps 1" + "0" * 30):
            build_config(["simulate", f"--env={iid_env_file}", "--j=2", "--m-grid=64:2:4",
                          "--reps=1" + "0" * 30, "--out=x.csv"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    out = tmp_path / "c.csv"
    assert main(["coupon", f"--env={iid_env_file}", f"--reps={runs}", f"--out={out}"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: CapExceeded: --reps") and err.count("\n") == 1
    assert not out.exists()
    # the budget's last values and the default --cap are admitted
    assert build_config(["profile", f"--env={iid_env_file}", f"--cap={cap - 1}",
                         "--out=x.csv"]).cap == cap - 1
    assert build_config(["profile", f"--env={iid_env_file}", "--out=x.csv"]).cap == 2 ** 20
    assert build_config(["coupon", f"--env={iid_env_file}", f"--reps={runs - 1}",
                         "--out=x.csv"]).replicates == runs - 1
    assert build_config(["converge", f"--env={iid_env_file}", "--j=2", "--m-grid=64:2:4",
                         f"--reps={(runs - 1) // 4}", "--out=x.csv"]).replicates == (runs - 1) // 4


def test_exit_code_coupon_past_int64(tmp_path):
    # a box of mass 1e-21 at depth 7: the other boxes' Poisson means pass
    # what numpy can draw, so the count is refused, not wrapped or crashed
    env = tmp_path / "skew.env"
    env.write_text("[env]\nkind = deterministic\nK = 2\nrow.1 = 0.999 0.001\n"
                   "row.2 = 0.999 0.001\n")
    code, err = run_cli(["coupon", "--env", str(env), "--depth", "7", "--reps", "2",
                         "--out", str(tmp_path / "c.csv")])
    assert code == 5
    assert err.splitlines()[-1].startswith("error: CapExceeded: the coupon time at generation 7")


def test_exit_code_bad_env(tmp_path):
    bad = tmp_path / "bad.env"
    bad.write_text("[env]\nkind = deterministic\nK = 2\nrow.1 = 0.7 0.4\nrow.2 = 0.5 0.5\n")
    code, err = run_cli(["converge", "--env", str(bad), "--j", "2",
                         "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert err.splitlines()[-1].startswith("error: BadRows:")


def test_exit_code_missing_env(tmp_path):
    code, err = run_cli(["converge", "--env", str(tmp_path / "nope.env"), "--j", "2",
                         "--out", str(tmp_path / "x.csv")])
    assert code == 3


def test_exit_code_unavailable_regime_still_writes(tmp_path):
    env = tmp_path / "dir.env"
    env.write_text(DIRICHLET_ENV)
    out = tmp_path / "p.csv"
    code, err = run_cli(["converge", "--env", str(env), "--alpha", "0.5",
                         "--m-grid", "64:2:3", "--reps", "2", "--seed", "3",
                         "--out", str(out)])
    assert code == 4
    assert err.splitlines()[-1].startswith("error: OutsideRegime:")
    assert not out.exists()     # the failing run happened before any report


def test_exit_code_prediction_gap_writes_report(tmp_path, iid_env_file):
    # saturation-regime conditions fail for the crossed mixture: the run
    # completes, the report is written, and the exit code flags the miss
    env = tmp_path / "crossed.env"
    env.write_text(
        "[env]\nkind = mixture\nK = 2\nweights = 0.5 0.5\n"
        "comp.1.row.1 = 0.2 0.8\ncomp.1.row.2 = 0.8 0.2\n"
        "comp.2.row.1 = 0.8 0.2\ncomp.2.row.2 = 0.2 0.8\n"
    )
    out = tmp_path / "g.csv"
    code, err = run_cli(["converge", "--env", str(env), "--j", "1",
                         "--m-grid", "64:2:3", "--reps", "4", "--seed", "2",
                         "--out", str(out)])
    assert code == 4
    assert err.splitlines()[-1].startswith("error: PredictionUnavailable:")
    rep = parse_report(str(out))
    assert math.isnan(rep.predicted)
    assert rep.fitted_slope > 0


def test_exit_code_cap_exceeded(tmp_path, iid_env_file):
    code, err = run_cli(["profile", "--env", iid_env_file, "--depth", "40",
                         "--cap", "100", "--theta-grid", "1:1:1",
                         "--out", str(tmp_path / "x.csv")])
    # deterministic env prunes instead; force the cap error with dirichlet
    env = tmp_path / "dir.env"
    env.write_text(DIRICHLET_ENV)
    code, err = run_cli(["profile", "--env", str(env), "--depth", "40",
                         "--cap", "100", "--out", str(tmp_path / "y.csv")])
    assert code == 5
    assert err.splitlines()[-1].startswith("error: CapExceeded:")


def test_profile_refuses_overflowing_level_sums(tmp_path, monkeypatch, capsys):
    # theta = -1 at depth 400 on Markov [[.9,.1],[.2,.8]]: level sums near
    # e^844, past float64; refused before any level is enumerated
    env = tmp_path / "markov.env"
    env.write_text("[env]\nkind = deterministic\nK = 2\nrow.1 = 0.9 0.1\nrow.2 = 0.2 0.8\n")
    args = ["profile", f"--env={env}", "--depth=400", f"--out={tmp_path / 'p.csv'}"]

    def enumerated(*_, **__):
        raise AssertionError("the refused profile reached enumerate_level")

    monkeypatch.setattr(tl.sim, "enumerate_level", enumerated)
    assert main(args + ["--theta-grid=-1:-1:1"]) == 5
    assert capsys.readouterr().err.startswith("error: CapExceeded: level sums at depth 400")
    assert not (tmp_path / "p.csv").exists()
    monkeypatch.undo()
    assert main(args + ["--theta-grid=1:3:2"]) == 0
    rows = (tmp_path / "p.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:3]] == ["1", "3"]
    assert all(math.isfinite(float(x)) for r in rows[1:3] for x in r.split(","))


def test_build_config_validation(iid_env_file):
    with pytest.raises(ConfigError):
        build_config(["converge", "--env", iid_env_file, "--j", "2",
                      "--m-grid", "8:1:4", "--out", "x.csv"])
    with pytest.raises(SystemExit):
        build_config(["converge", "--env", iid_env_file, "--format", "xml",
                      "--out", "x.csv"])


# --------------------------------------------------------------------------
# crossed mixture: the refusal case for saturation predictions
# --------------------------------------------------------------------------

def test_crossed_mixture_has_no_saturation_prediction():
    env = tl.mixture_env(
        [0.5, 0.5],
        [[[0.2, 0.8], [0.8, 0.2]], [[0.8, 0.2], [0.2, 0.8]]],
    )
    rep = tl.asymptotic_constants(env)
    # the box-count exponent stays positive all the way down: no lower
    # endpoint, so the saturation-regime side conditions fail
    assert rep.theta_star_lower == -math.inf
    assert not rep.condition_saturation_ok
    with pytest.raises(tl.errors.ConditionsNotMet):
        tl.predicted_saturation_constant(env)
