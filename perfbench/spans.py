"""Spans around the calls into trielab's modules, recorded from outside.

Tracer.install() swaps each traced function for a wrapper in its module's
namespace (and in trielab.cli's, which imported load_env by name), so calls
between modules and inside a module both go through it.  A span is
(name, start, end, parent index, attributes); spans stay in memory until the
run writes them out.  per_layer() turns one round's spans into the per-layer
metrics.
"""

from __future__ import annotations

import statistics
import time

from trielab import cli, oracle, sim, spectral


def _obs(args, kwargs, out):
    return {"m": out.m, "boxes": out.expanded_nodes, "depth": out.max_depth_reached,
            "height": out.height, "saturation": out.saturation}


def _random_env(args, kwargs, out):
    return {"random": not args[0].is_deterministic}


def _level(args, kwargs, out):
    return {"boxes": int(sum(len(b) for b in out.per_type_boxes)),
            "truncated": bool(out.truncated)}


TRACED = (
    # (module, attribute, span name, attributes from (args, kwargs, result))
    (cli, "load_env", "envs.load_env", None),
    (cli, "fit_slope", "cli.fit_slope", None),
    (cli, "emit_report", "cli.emit_report", None),
    (sim, "simulate_occupancy", "sim.simulate", _obs),
    (sim, "simulate_saturation", "sim.simulate", _obs),
    (sim, "enumerate_level", "sim.enumerate_level", _level),
    (sim, "coupon_time", "sim.coupon_time", lambda a, k, out: {"throws": out.throws}),
    (spectral, "asymptotic_constants", "spectral.asymptotic_constants", _random_env),
    (spectral, "shape_values", "spectral.shape_values", None),
    (spectral, "perron_triplet", "spectral.perron_triplet",
     lambda a, k, out: {"residual": out.residual}),
    (spectral, "_eval", "spectral._eval", None),
    (oracle, "sample_words", "oracle.sample_words",
     lambda a, k, out: {"random": not a[0].is_deterministic, "words": len(out.words)}),
    (oracle, "brute_force_trie", "oracle.brute_force_trie", None),
)
SMALL_M = 2 ** 12          # sim.boxes_per_s.small_m: runs with m <= 4096
LARGE_M = 2 ** 16          # sim.boxes_per_s.large_m: runs with m >= 65536


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def span(self, name, fn, *args, attrs=None, **kwargs):
        """Call fn inside a span; attrs(args, kwargs, result) annotates it."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        out = None
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            extra = attrs(args, kwargs, out) if (attrs and out is not None) else None
            self.spans[idx] = (name, t0, t1, parent, extra)

    def install(self):
        for module, attr, name, attrs in TRACED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))

            def wrapper(*args, _fn=original, _name=name, _attrs=attrs, **kwargs):
                return self.span(_name, _fn, *args, attrs=_attrs, **kwargs)

            setattr(module, attr, wrapper)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _self_times(spans):
    """Each span's duration minus the part its child spans cover."""
    own = [s[2] - s[1] for s in spans]
    for name, t0, t1, parent, _ in spans:
        if parent is not None:
            own[parent] -= t1 - t0
    return own


def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else 0.0


def _in_process(spans) -> list:
    """Indices of the spans outside --workers 2 operations.

    Those operations run their simulations in pool processes that the tracer
    does not see, so their time would land on cli.main.
    """
    keep = []
    for i, span in enumerate(spans):
        top, parent = i, span[3]
        while parent is not None:
            top, parent = parent, spans[parent][3]
        if spans[top][0] != "op.converge_2w":
            keep.append(i)
    return keep


def per_layer(spans) -> dict:
    """Per-layer metrics of one traced round (spans of all of its operations)."""
    keep = _in_process(spans)
    own = _self_times(spans)
    by = {}
    for i in keep:
        by.setdefault(spans[i][0], []).append(i)

    def dur(name, pick=lambda s: True):
        return sum(spans[i][2] - spans[i][1] for i in by.get(name, []) if pick(spans[i]))

    def durs(name, pick=lambda s: True):
        return [spans[i][2] - spans[i][1] for i in by.get(name, []) if pick(spans[i])]

    def attr_sum(name, key, pick=lambda s: True):
        return sum(spans[i][4][key] for i in by.get(name, []) if pick(spans[i]))

    sims = [spans[i] for i in by.get("sim.simulate", [])]
    levels_s = sum(s[2] - s[1] for s in sims)
    boxes = sum(s[4]["boxes"] for s in sims)

    def rate(pick):
        chosen = [s for s in sims if pick(s[4]["m"])]
        t = sum(s[2] - s[1] for s in chosen)
        return sum(s[4]["boxes"] for s in chosen) / t if t else 0.0

    enum_s = dur("sim.enumerate_level")
    enum_boxes = attr_sum("sim.enumerate_level", "boxes")
    coupon_s = dur("sim.coupon_time")
    throws = attr_sum("sim.coupon_time", "throws")
    det = lambda s: not s[4]["random"]
    rnd = lambda s: s[4]["random"]
    residuals = [spans[i][4]["residual"] for i in by.get("spectral.perron_triplet", [])]
    unattributed = sum(own[i] for i in by.get("cli.main", []))
    return {
        "cli.emit_s": (dur("cli.emit_report"), "s"),
        "cli.fit_s": (dur("cli.fit_slope"), "s"),
        "cli.unattributed_s": (unattributed, "s"),
        "sim.levels_s": (levels_s, "s"),
        "sim.replicates": (len(sims), "count"),
        "sim.boxes_expanded": (boxes, "count"),
        "sim.generations": (sum(s[4]["depth"] for s in sims), "count"),
        "sim.boxes_per_s": (boxes / levels_s if levels_s else 0.0, "1/s"),
        "sim.boxes_per_s.small_m": (rate(lambda m: m <= SMALL_M), "1/s"),
        "sim.boxes_per_s.large_m": (rate(lambda m: m >= LARGE_M), "1/s"),
        "sim.enumerate_s": (enum_s, "s"),
        "sim.enumerate_boxes": (enum_boxes, "count"),
        "sim.enumerate_boxes_per_s": (enum_boxes / enum_s if enum_s else 0.0, "1/s"),
        "sim.coupon_s": (coupon_s, "s"),
        "sim.coupon_throws": (throws, "count"),
        "sim.coupon_throws_per_s": (throws / coupon_s if coupon_s else 0.0, "1/s"),
        "spectral.constants_det_s": (dur("spectral.asymptotic_constants", det), "s"),
        "spectral.constants_random_s": (dur("spectral.asymptotic_constants", rnd), "s"),
        "spectral.point_us": (_median(durs("spectral.shape_values"), 1e6), "us"),
        "spectral.triplet_us": (_median(durs("spectral.perron_triplet"), 1e6), "us"),
        "spectral.points": (len(by.get("spectral._eval", [])), "count"),
        "spectral.max_residual": (max(residuals, default=0.0), "1"),
        "oracle.sample_words_ms": (_median(durs("oracle.sample_words", det), 1e3), "ms"),
        "oracle.sample_words_random_ms": (_median(durs("oracle.sample_words", rnd), 1e3), "ms"),
        "oracle.brute_force_ms": (_median(durs("oracle.brute_force_trie"), 1e3), "ms"),
        "oracle.words": (attr_sum("oracle.sample_words", "words"), "count"),
    }


def layer_shares(spans) -> dict:
    """Share of the round's in-process operation time spent in each layer's own code."""
    own = _self_times(spans)
    keep = _in_process(spans)
    total = sum(spans[i][2] - spans[i][1] for i in keep if spans[i][3] is None)
    shares = {}
    for i in keep:
        layer = spans[i][0].split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + own[i]
    return {k: v / total for k, v in sorted(shares.items())} if total else {}
