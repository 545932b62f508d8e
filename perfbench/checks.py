"""Checks of each operation's output against the reference computations.

check(op, env, result) returns (failed, errors).  `failed` marks an
operation that produced no usable result: a non-zero exit, or non-finite
numbers in its report.  `errors` lists every way a usable result disagrees
with a reference or with a property the method must have; the run is
correct when no operation that did not fail has an error.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

import reference as ref

TOL = 1e-6               # predicted constants and spectral rows
EXACT_TOL = 1e-9         # level sums, fits and mass conservation
# Monte Carlo band on |fitted - predicted| / predicted for heights, whose
# slope is fitted on per-m means.  Over 300 seeds at the workloads' sizes
# (6 or 8 replicates per point) the gap's standard deviation was at most
# 0.067 and its largest value 0.23, so 0.3 is 4.4 deviations or more.
HEIGHT_BAND = 0.3
# Saturation levels (j = 1) are fitted on per-m medians of small integers,
# which jump by a whole level between seeds: on uniform-Dirichlet scenery
# the gap of that slope had deviation 0.14 over 300 seeds, and reached 0.71
# on seed 2010927056.  The band is therefore set on the least-squares slope
# of the per-m means, whose standard error the rows give: within
# SATURATION_BIAS x predicted plus SLOPE_Z standard errors.  The bias
# allowance covers the finite-m excess of that slope: its mean gap over 300
# seeds was 0.165 on uniform-Dirichlet scenery at m <= 2^20 and at most
# 0.052 elsewhere, and the largest gap used 0.62 of the limit.  Each median
# is then tied to its mean: |median - mean| <= standard deviation holds for
# every sample, which bounds the fitted slope in turn.
SATURATION_BIAS = 0.2
SLOPE_Z = 6
COUPON_SE = 5            # coupon means within this many exact standard errors
LAW_P = 0.001            # chi-squared law check: p must exceed this
REFUSED = (2, 3, 4, 5)   # documented exit codes of a refused command


def _close(a, b, tol):
    if math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(b))


def parse_report(text):
    """(rows, footer): rows are lists of fields, footer maps name -> field."""
    rows, footer = [], {}
    for line in text.splitlines()[1:]:
        fields = line.split(",")
        try:
            float(fields[0])
            rows.append(fields)
        except ValueError:
            footer[fields[0]] = fields[1]
    return rows, footer


def _finite(values):
    return all(math.isfinite(float(v)) for v in values if v != "")


@functools.lru_cache(maxsize=None)
def _predicted(env_json, j, alpha):
    return ref.predicted(_env(env_json), j=j, alpha=alpha)


@functools.lru_cache(maxsize=None)
def _shape(env_json, theta):
    return ref.shape(_env(env_json), theta)


@functools.lru_cache(maxsize=None)
def _constants(env_json):
    return ref.constants(_env(env_json))


@functools.lru_cache(maxsize=None)
def _coupon_moments(env_json, depth, j):
    masses, counts = ref.level_masses(_env(env_json)["rows"], depth)
    return ref.coupon_moments(masses, counts, j)


def _env(env_json):
    return json.loads(env_json)


def check_converge(op, env_json, text, twin_text):
    errors = []
    rows, footer = parse_report(text)
    if not _finite(footer[k] for k in ("slope", "r2", "predicted")):
        return True, ["non-finite slope or prediction"]
    height_mode = op.alpha is not None or op.j >= 2
    stat = "height" if height_mode else "saturation"
    table = {(int(r[0]), r[1]): r for r in rows}
    for m in op.grid:
        if int(table[(m, stat)][5]) != op.reps:
            errors.append(f"m={m}: {table[(m, stat)][5]} replicates, expected {op.reps}")
        if height_mode and float(table[(m, "saturation")][2]) > float(table[(m, "height")][2]):
            errors.append(f"m={m}: mean saturation above mean height")
    pred = float(footer["predicted"])
    want = _predicted(env_json, op.j, op.alpha)
    if not _close(pred, want, TOL):
        errors.append(f"predicted {pred!r}, reference {want!r}")
    column = 2 if height_mode else 3        # heights by means, saturation by medians
    slope = float(footer["slope"])
    refit = ref.fit_slope([math.log(m) for m in op.grid],
                          [float(table[(m, stat)][column]) for m in op.grid])
    if not _close(slope, refit, EXACT_TOL):
        errors.append(f"slope {slope!r}, least squares on the rows gives {refit!r}")
    if height_mode:
        if abs(slope - want) > HEIGHT_BAND * want:
            errors.append(f"slope {slope:.4f} outside {want:.4f} +- {HEIGHT_BAND:.0%}")
    else:
        xs = [math.log(m) for m in op.grid]
        rows_m = [table[(m, stat)] for m in op.grid]
        for m, r in zip(op.grid, rows_m):
            mean, median, sd = float(r[2]), float(r[3]), float(r[4]) * math.sqrt(int(r[5]))
            if abs(median - mean) > sd * (1 + EXACT_TOL) + EXACT_TOL:
                errors.append(f"m={m}: median {median} further than a deviation from mean {mean}")
        mean_slope = ref.fit_slope(xs, [float(r[2]) for r in rows_m])
        limit = SATURATION_BIAS * want + SLOPE_Z * ref.slope_stderr(
            xs, [float(r[4]) for r in rows_m])
        if abs(mean_slope - want) > limit:
            errors.append(f"slope of the means {mean_slope:.4f} outside {want:.4f} +- {limit:.4f}")
    if twin_text is not None and text != twin_text:
        errors.append("--workers 2 report differs from the --workers 1 report")
    return False, errors


def check_spectral(op, env_json, text):
    errors = []
    rows, footer = parse_report(text)
    if not all(_finite(r) for r in rows):
        return True, ["non-finite spectral row"]
    if [float(r[0]) for r in rows] != sorted(op.thetas):
        errors.append("theta column differs from the requested grid")
    for r in rows:
        theta = float(r[0])
        want = _shape(env_json, theta)
        got = dict(zip(("rho", "log_rho", "drift", "psi", "phi", "f"), map(float, r[1:])))
        for key, tol in (("rho", EXACT_TOL), ("log_rho", EXACT_TOL), ("drift", TOL),
                         ("psi", TOL), ("phi", TOL), ("f", TOL)):
            if not _close(got[key], want[key], tol):
                errors.append(f"theta={theta}: {key} {got[key]!r}, reference {want[key]!r}")
    want = _constants(env_json)
    for key, value in want.items():
        if not _close(float(footer[key]), value, TOL):
            errors.append(f"{key} {footer[key]}, reference {value!r}")
    if footer["condition_saturation_ok"] != "true":
        errors.append("saturation conditions reported unmet")
    return False, errors


def check_profile(op, env_json, text):
    env = _env(env_json)
    rows, footer = parse_report(text)
    if not all(_finite(r) for r in rows):
        return True, ["non-finite laplace or martingale"]
    errors = []
    if op.fault:
        # the depth-400 profile passes once it reports a finite martingale
        # equal to 1, whatever the scale of its level sums
        mart = float(rows[0][1])
        return False, ([] if abs(mart - 1.0) <= TOL else [f"martingale {mart!r}, expected 1"])
    if int(footer["n"]) != op.depth:
        errors.append(f"n = {footer['n']}, expected {op.depth}")
    if [float(r[0]) for r in rows] != list(op.thetas):
        errors.append("theta column differs from the requested grid")
    if env["kind"] == "deterministic":
        for r in rows:
            theta, mart, lap = float(r[0]), float(r[1]), np.array(r[2:], float)
            want = ref.log_level_sums(env["rows"], theta, op.depth)
            if np.abs(np.log(lap) - want).max() > EXACT_TOL * max(1.0, np.abs(want).max()):
                errors.append(f"theta={theta}: laplace differs from log-space matrix powers")
            if abs(mart - 1.0) > TOL:
                errors.append(f"theta={theta}: martingale {mart!r}, expected 1")
        lo, hi = ref.extreme_log_masses(env["rows"], op.depth)
        # min_log_size is -ln of the smallest box, max_log_size of the largest
        if not (_close(float(footer["min_log_size"]), -lo, EXACT_TOL)
                and _close(float(footer["max_log_size"]), -hi, EXACT_TOL)):
            errors.append("extreme box sizes differ from the max-plus recursion")
    else:
        one = [r for r in rows if float(r[0]) == 1.0]
        if not one:
            errors.append("random-scenery profile lacks theta = 1")
        for r in one:
            total = float(np.sum(np.array(r[2:], float)))
            if abs(total - 1.0) > EXACT_TOL or abs(float(r[1]) - 1.0) > EXACT_TOL:
                errors.append(f"theta=1 level sum {total!r}, martingale {r[1]}; expected 1")
    return False, errors


def check_coupon(op, env_json, text):
    env = _env(env_json)
    rows, footer = parse_report(text)
    throws = np.array([int(r[1]) for r in rows])
    errors = []
    if len(throws) != op.reps or int(footer["n"]) != op.depth or int(footer["j"]) != op.j:
        errors.append("coupon report does not match its request")
    boxes = ref.box_count(env, op.depth)
    if throws.min() < op.j * boxes:
        errors.append(f"a throw count {throws.min()} is below j x boxes = {op.j * boxes}")
    if not _close(float(footer["mean"]), float(throws.mean()), EXACT_TOL):
        errors.append("reported mean differs from the mean of the rows")
    if env["kind"] == "deterministic":
        want, var = _coupon_moments(env_json, op.depth, op.j)
        se = math.sqrt(var / len(throws))
        if abs(throws.mean() - want) > COUPON_SE * se:
            errors.append(f"mean {throws.mean():.1f} throws, Poissonized integral "
                          f"{want:.1f} (standard error {se:.1f})")
    return False, errors


def check_law(op, payload):
    errors = []
    for side in ("sim", "words"):
        if any(g > h for h, g in payload[side]):
            errors.append(f"{side}: a saturation level above its height")
    p = ref.same_law_p(payload["sim"], payload["words"])
    if not p > LAW_P:
        errors.append(f"chi-squared p = {p:.2g} for the joint (H, G) law")
    return False, errors


def check(op, env_json, exit_code, text=None, twin_text=None, payload=None):
    if op.kind == "oracle":
        return check_law(op, payload)
    if exit_code != 0:
        refused = op.fault and exit_code in REFUSED
        return (not refused), ([] if refused else [f"exit code {exit_code}"])
    if op.kind in ("converge", "converge_2w"):
        return check_converge(op, env_json, text, twin_text)
    if op.kind == "spectral":
        return check_spectral(op, env_json, text)
    if op.kind == "profile":
        return check_profile(op, env_json, text)
    return check_coupon(op, env_json, text)
