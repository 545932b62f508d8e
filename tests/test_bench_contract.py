"""The traced benchmark run (perfbench/run.py --trace 1) against the library.

perfbench/spans.py swaps each (module, attribute) of its TRACED table for a
wrapper and reads fields of the results (residual, throws, expanded_nodes,
per_type_boxes, truncated).  A rename or a changed result type in trielab
makes the traced run exit non-zero while the untraced run still passes, so
this test installs the tracer, runs one small command of each traced kind,
and checks that every per-layer metric comes out.

A traced function that raises leaves a span whose attributes are None, and
per_layer cannot read it; the second test runs the exact workload's refused
depth-400 profile and a converge with frozen classes under the tracer.
"""

import importlib.util
import json
import time
from pathlib import Path

import numpy as np

import trielab as tl
from trielab import cli, oracle

ROOT = Path(__file__).resolve().parent.parent
MARKOV = "[env]\nkind = deterministic\nK = 2\nrow.1 = 0.9 0.1\nrow.2 = 0.2 0.8\n"
# run.py computes these from untraced rounds and the set-up runs, not from spans
NOT_FROM_SPANS = {"cli.workers2_speedup", "envs.import_s", "envs.load_s", "trace.overhead_pct"}


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_finds_every_name_and_metric(tmp_path):
    t0 = time.time()
    spans = _load_spans()
    for module, attr, *_ in spans.TRACED:
        assert hasattr(module, attr), f"{module.__name__}.{attr} is traced but missing"

    env_file = tmp_path / "markov.env"
    env_file.write_text(MARKOV, encoding="utf-8")
    dirichlet_file = tmp_path / "dirichlet.env"
    dirichlet_file.write_text("[env]\nkind = dirichlet\nK = 2\n"
                              "alpha.1 = 1 1\nalpha.2 = 1 1\n", encoding="utf-8")
    commands = [
        ("spectral", str(dirichlet_file), "--theta-grid=-0.5:2:3"),
        ("converge", str(env_file), "--m-grid=64:2:3", "--reps=2", "--j=2"),
        ("profile", str(env_file), "--depth=4", "--theta-grid=1:2:2"),
        ("coupon", str(env_file), "--depth=3", "--j=1", "--reps=2"),
    ]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mode, env_path, *rest in commands:
            argv = [mode, f"--env={env_path}", f"--out={tmp_path / mode}.csv", "--seed=1", *rest]
            assert tracer.span("cli.main", cli.main, argv) == 0, mode
        env = tl.load_env(str(env_file))
        words = oracle.sample_words(env, 12, 64, np.random.default_rng(1))
        oracle.brute_force_trie(words, 2)
    finally:
        tracer.uninstall()

    metrics = spans.per_layer(tracer.spans)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert declared - NOT_FROM_SPANS <= set(metrics)
    assert metrics["spectral.points"][0] > 0
    assert metrics["spectral.constants_random_s"][0] > 0
    assert metrics["sim.replicates"][0] == 6
    assert metrics["oracle.words"][0] == 12
    assert metrics["spectral.max_residual"][0] <= 1e-10
    assert time.time() - t0 < 3.0


def test_traced_refusals_leave_no_empty_spans(tmp_path):
    spans = _load_spans()
    env_file = tmp_path / "markov.env"
    env_file.write_text(MARKOV, encoding="utf-8")
    commands = [
        (("profile", "--depth=400", "--theta-grid=-1:-1:1"), 5),
        (("profile", "--depth=8", "--theta-grid=-1:2:3"), 0),
        (("converge", "--m-grid=256:4:3", "--reps=4", "--j=2"), 0),
    ]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (mode, *rest), code in commands:
            argv = [mode, f"--env={env_file}", f"--out={tmp_path / mode}.csv", "--seed=1", *rest]
            assert tracer.span("cli.main", cli.main, argv) == code, rest
    finally:
        tracer.uninstall()

    annotated = {name for _, _, name, attrs in spans.TRACED if attrs}
    for name, _, _, _, attrs in tracer.spans:
        assert name not in annotated or attrs is not None, f"{name} span without attributes"
    metrics = spans.per_layer(tracer.spans)
    assert metrics["sim.replicates"][0] == 12
    assert metrics["sim.enumerate_boxes"][0] == 2 ** 8
