"""trielab benchmark: end-to-end metrics per command, per-layer metrics traced.

    python3 perfbench/run.py --workload height|saturation|exact
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a trielab checkout; it imports trielab from the
checkout's src/ and needs nothing built.  Each round runs the workload's
operations once, in order (see workloads.py); rounds repeat until --seconds
have passed.  Every operation runs in a child forked from this process,
which has imported trielab but never called it: each command therefore
starts as one `trielab` invocation does, with an empty asymptotic_constants
cache and networkx not yet imported, without paying the interpreter start
and imports again (set-up time is its own metric).

--trace 0 prints the end-to-end metrics, each a median over rounds.
--trace 1 alternates untraced and traced rounds and prints the per-layer
metrics of the traced ones (spans.py).  Both end with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  A result file, and with
--trace 1 a span file, are written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import select
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(RESULTS, "work")
DEFAULT_SEED = 20161017
SETUP_RUNS = 9
OP_TIMEOUT_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "converge_s": "s",
    "spectral_s": "s",
    "profile_s": "s",
    "coupon_s": "s",
    "oracle_s": "s",
    "peak_rss_mb": "MB",
}
KINDS = ("converge", "spectral", "profile", "coupon", "oracle")

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import trielab
t1 = time.perf_counter()
for path in sys.argv[2:]:
    trielab.load_env(path)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))
"""


def measure_setup(env_paths):
    """Import trielab and load the workload's environments in fresh interpreters."""
    runs = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, *env_paths],
                             capture_output=True, text=True, timeout=OP_TIMEOUT_S, check=True)
        runs.append(json.loads(out.stdout.splitlines()[-1]))
    return {key: statistics.median(r[key] for r in runs) for key in ("import_s", "load_s")}


def in_child(fn):
    """Run fn() in a forked child: (state, seconds, result, spans, peak RSS in kB).

    The child runs in its own process group, so a hung operation is killed
    together with any pool processes it started.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:                                        # child
        os.close(read_fd)
        code = 0
        try:
            os.setpgid(0, 0)
            t0 = time.perf_counter()
            result = fn()
            message = ("ok", time.perf_counter() - t0, result)
        except BaseException as exc:                    # reported to the parent
            message = ("error", 0.0, f"{type(exc).__name__}: {exc}")
            code = 1
        try:
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(message + (TRACER.spans if TRACER else [],), fh)
        finally:
            os._exit(code)
    os.close(write_fd)
    chunks = []
    deadline = time.monotonic() + OP_TIMEOUT_S
    with os.fdopen(read_fd, "rb") as fh:
        while True:
            left = deadline - time.monotonic()
            ready = select.select([fh], [], [], max(left, 0.0))[0] if left > 0 else []
            if not ready:
                os.killpg(pid, signal.SIGKILL)
                break
            chunk = os.read(fh.fileno(), 1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    _, status, usage = os.wait4(pid, 0)
    if not chunks:
        return "error", 0.0, f"no result (wait status {status})", [], usage.ru_maxrss
    state, seconds, result, spans = pickle.loads(b"".join(chunks))
    return state, seconds, result, spans, usage.ru_maxrss


TRACER = None           # the Tracer of a --trace 1 run, shared with forked children


def run_cli(op, seed, env_path, out_path):
    from trielab import cli

    argv = [*op.args, f"--env={env_path}", f"--out={out_path}", f"--seed={seed}"]
    if TRACER:
        return TRACER.span("cli.main", cli.main, argv)
    return cli.main(argv)


def run_law_check(op, env_path):
    """Joint (H, G) law at m = 12: simulator against sampled words."""
    import numpy as np
    from trielab import cli, oracle, sim

    env = cli.load_env(env_path)
    counts = {"sim": {}, "words": {}}
    for k in range(op.runs):
        rng = np.random.default_rng(np.random.SeedSequence(op.stream, spawn_key=(0, k)))
        obs = sim.simulate_occupancy(env, 12, op.j, rng)
        key = (obs.height, obs.saturation)
        counts["sim"][key] = counts["sim"].get(key, 0) + 1
        rng = np.random.default_rng(np.random.SeedSequence(op.stream, spawn_key=(1, k)))
        key = oracle.brute_force_trie(oracle.sample_words(env, 12, op.length, rng), op.j)
        counts["words"][key] = counts["words"].get(key, 0) + 1
    return counts


def run_round(ops, seed, env_files, env_json):
    import checks

    records = []
    converged = {}                      # --workers 1 converge reports, by label
    for idx, op in enumerate(ops):
        out_path = os.path.join(WORK, f"{idx:02d}-{op.kind}-{op.label}.csv")
        if op.kind == "oracle":
            fn = lambda: run_law_check(op, env_files[op.env])
        else:
            fn = lambda: run_cli(op, seed, env_files[op.env], out_path)
        if TRACER:
            inner = fn
            fn = lambda: TRACER.span(f"op.{op.kind}", inner)
        state, seconds, result, spans, rss_kb = in_child(fn)
        rec = {"kind": op.kind, "label": op.label, "seconds": seconds, "rss_kb": rss_kb,
               "spans": spans}
        if state != "ok":
            rec.update(failed=True, errors=[result])
        elif op.kind == "oracle":
            rec["failed"], rec["errors"] = checks.check(op, env_json[op.env], 0, payload=result)
        else:
            text = None
            if result == 0:
                with open(out_path, encoding="utf-8") as fh:
                    text = fh.read()
            if op.kind == "converge":
                converged[op.label] = text
            twin = converged.get(op.label) if op.kind == "converge_2w" else None
            rec["failed"], rec["errors"] = checks.check(
                op, env_json[op.env], result, text=text, twin_text=twin)
        records.append(rec)
    return records


def kind_seconds(records):
    return {k: sum(r["seconds"] for r in records if r["kind"] == k) for k in KINDS}


def workers2_speedup(records):
    """--workers 1 time over --workers 2 time of the converge commands run both ways."""
    twins = {r["label"] for r in records if r["kind"] == "converge_2w"}
    pick = lambda kind: sum(r["seconds"] for r in records
                            if r["kind"] == kind and r["label"] in twins)
    return pick("converge") / pick("converge_2w")


def round_spans(records):
    """All spans of one round, with parent indices made global."""
    out = []
    for rec in records:
        base = len(out)
        out += [(n, t0, t1, None if p is None else p + base, a) for n, t0, t1, p, a in rec["spans"]]
    return out


def end_to_end(rounds, setup):
    per_kind = [kind_seconds(r) for r in rounds]
    metrics = {"setup_s": setup["import_s"] + setup["load_s"]}
    for kind in KINDS:
        metrics[f"{kind}_s"] = statistics.median(k[kind] for k in per_kind)
    metrics["peak_rss_mb"] = statistics.median(
        max(rec["rss_kb"] for rec in r) for r in rounds) / 1024.0
    return metrics


def per_layer(rounds, traced, setup):
    import spans

    layers = [spans.per_layer(round_spans(r)) for r, t in zip(rounds, traced) if t]
    metrics = {name: statistics.median(m[name][0] for m in layers) for name in layers[0]}
    units = {name: unit for name, (_, unit) in layers[0].items()}
    metrics["cli.workers2_speedup"] = statistics.median(
        workers2_speedup(r) for r, t in zip(rounds, traced) if not t)
    metrics["envs.import_s"] = setup["import_s"]
    metrics["envs.load_s"] = setup["load_s"]
    total = lambda r: sum(rec["seconds"] for rec in r)
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(total(r) for r, t in zip(rounds, traced) if t)
        / statistics.median(total(r) for r, t in zip(rounds, traced) if not t) - 1.0)
    units.update({"cli.workers2_speedup": "1", "envs.import_s": "s", "envs.load_s": "s",
                  "trace.overhead_pct": "%"})
    return metrics, units


def main(argv=None) -> int:
    global TRACER
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "trielab", "cli.py")):
        print(f"error: no trielab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import trielab

    if not os.path.abspath(trielab.__file__).startswith(SRC + os.sep):
        print(f"error: imported trielab from {trielab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks  # noqa: F401  (loads the reference code before any fork)
    import spans

    ops = workloads.WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    env_files, env_json = {}, {}
    for name in sorted({op.env for op in ops}):
        env_files[name] = os.path.join(WORK, f"{name}.env")
        env_json[name] = json.dumps(workloads.ENVS[name], sort_keys=True)
        with open(env_files[name], "w", encoding="utf-8") as fh:
            fh.write(workloads.env_text(workloads.ENVS[name]))
    setup = measure_setup([env_files[n] for n in sorted(env_files)])

    tracer = spans.Tracer() if args.trace else None
    rounds, traced = [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds
           or len(rounds) < (2 if args.trace else 1)):
        on = bool(tracer) and len(rounds) % 2 == 1
        if on:
            tracer.install()
        TRACER = tracer if on else None
        try:
            rounds.append(run_round(ops, args.seed, env_files, env_json))
        finally:
            TRACER = None
            if on:
                tracer.uninstall()
        traced.append(on)

    records = [rec for r in rounds for rec in r]
    errors = [f"{rec['kind']} {rec['label']}: {e}"
              for rec in records if not rec["failed"] for e in rec["errors"]]
    if args.trace:
        for r, t in zip(rounds, traced):
            for name, *_, attrs in (round_spans(r) if t else []):
                if name == "sim.simulate" and attrs and attrs["height"] is not None \
                        and attrs["saturation"] > attrs["height"]:
                    errors.append(f"traced replicate m={attrs['m']}: saturation above height")
        metrics, units = per_layer(rounds, traced, setup)
    else:
        metrics, units = end_to_end(rounds, setup), END_TO_END

    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds), "metrics": metrics, "setup": setup,
        "errors": sorted(set(errors)),
        "ops": [[{k: v for k, v in rec.items() if k != "spans"} for rec in r] for r in rounds],
    }
    if args.trace:
        last = [r for r, t in zip(rounds, traced) if t][-1]
        summary["layer_shares"] = spans.layer_shares(round_spans(last))
        with open(os.path.join(RESULTS, f"spans-{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump([{"round": i, "spans": [dict(zip(("name", "start", "end", "parent",
                                                         "attrs"), s)) for s in round_spans(r)]}
                       for i, (r, t) in enumerate(zip(rounds, traced)) if t], fh)
    with open(os.path.join(RESULTS, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)

    for error in sorted(set(errors)):
        print(f"check failed: {error}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {len(rounds)} rounds of {len(ops)} "
          f"operations")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(records),
        "failed": sum(rec["failed"] for rec in records),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
