"""Spans around calls into sedslam's public functions, recorded from outside.

Each target function is wrapped once, and the wrapper replaces the function
at every ``sedslam`` module namespace that holds it, since callers look names
up in their own module (``solve_two_view`` sits in ``twoview``, ``sim3``,
``cli``, ``synth`` and the package). A target whose module or name no longer
exists is reported absent instead of failing the run.

Spans are ``[name, start, end, parent, op]`` rows kept in memory; the parent
is the index of the enclosing span and ``op`` the operation id. A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict


# (span name, module, function, observer or None). An observer maps
# (args, kwargs, result) to {count name: value}; each value is summed per
# operation, and counts a refactor breaks are reported absent.
TARGETS = (
    ("twoview.solve", "sedslam.twoview", "solve_two_view",
     lambda a, k, r: {"twoview.converged": float(r.converged),
                      "twoview.n_degenerate": r.n_degenerate}),
    ("twoview.eight_point", "sedslam.twoview", "weighted_eight_point", None),
    ("twoview.chirality", "sedslam.twoview", "select_by_chirality", None),
    ("twoview.refine", "sedslam.twoview", "lm_refine_sed",
     lambda a, k, r: {"twoview.refine.iters": r.iterations}),
    ("twoview.clamp", "sedslam.twoview", "clamp_to_epipolar", None),
    ("geom.triangulate", "sedslam.geom", "triangulate_batch", None),
    ("ba.solve", "sedslam.ba", "ba_solve",
     lambda a, k, r: {"ba.iters": r.iterations, "ba.accepted": len(r.cost_trace) - 1,
                      "ba.n_behind": r.n_behind, "ba.edges": len(a[0].edges),
                      "ba.anchors": a[0].n_anchors}),
    ("sim3.join", "sedslam.sim3", "estimate_join", None),
    ("sim3.triangulate_depths", "sedslam.sim3", "triangulated_depths",
     lambda a, k, r: {"sim3.dropped_depths": r.n_dropped}),
    ("sim3.scale_vote", "sedslam.sim3", "estimate_scale",
     lambda a, k, r: {"sim3.scale_vote.n": len(a[0]),
                      "sim3.inlier_frac": r.inlier_fraction}),
    ("sim3.merge", "sedslam.sim3", "merge_trajectories", None),
    ("metrics.ate", "sedslam.metrics", "ate_rmse", None),
    ("metrics.associate", "sedslam.metrics", "associate_timestamps",
     lambda a, k, r: {"metrics.associated": len(r),
                      "metrics.associable": min(len(a[0]), len(a[1]))}),
    ("metrics.umeyama", "sedslam.metrics", "umeyama_alignment", None),
    ("files.read_match_file", "sedslam.files", "read_match_file",
     lambda a, k, r: {"files.rows_read": r.n_total}),
    ("files.read_trajectory", "sedslam.files", "read_trajectory",
     lambda a, k, r: {"files.rows_read": len(r)}),
    ("files.read_depth_sidecar", "sedslam.files", "read_depth_sidecar",
     lambda a, k, r: {"files.rows_read": sum(len(d) for d in r.values())}),
    ("files.write_trajectory", "sedslam.files", "write_trajectory",
     lambda a, k, r: {"files.bytes_written": os.path.getsize(a[0])}),
    ("cli.join", "sedslam.cli", "cmd_join", None),
    ("cli.ate", "sedslam.cli", "cmd_ate", None),
)

# Failures an observer may meet when a refactor reshapes a signature or a
# report; they make the count absent, never the run fail.
_REFACTOR_ERRORS = (AttributeError, TypeError, IndexError, KeyError)


class Tracer:
    """In-memory span recorder; records only while an operation is open."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.absent: set[str] = set()
        self.sites: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._op: int | None = None

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def op(self, op_id: int, fn, *args):
        """Run ``fn(*args)`` as operation ``op_id`` under an "op" root span."""
        self._op = op_id
        idx = self.begin("op")
        try:
            return fn(*args)
        finally:
            self.end(idx)
            self._op = None

    def wrap(self, name, fn, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if observe is not None:
                try:
                    values = observe(args, kwargs, result)
                except _REFACTOR_ERRORS:
                    self.absent.add(name + " counts")
                else:
                    op_counts = self.counts[self._op]
                    for key, value in values.items():
                        op_counts[key] += float(value)
            return result
        return traced

    def install(self):
        """Wrap every target at every lookup site; returns an undo function."""
        replaced = []
        for name, module, attr, observe in TARGETS:
            try:
                fn = getattr(importlib.import_module(module), attr)
            except (ImportError, AttributeError):
                self.absent.add(name)
                continue
            wrapper = self.wrap(name, fn, observe)
            sites = []
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "sedslam" and not mod_name.startswith("sedslam."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        replaced.append((mod, key, fn))
                        sites.append(mod_name)
            self.sites[name] = sorted(sites)

        def undo():
            for mod, key, fn in replaced:
                setattr(mod, key, fn)
        return undo


def summarize(spans, scale):
    """Per-name totals [ms, self_ms, calls] over the spans of the operations
    in ``scale``, each span's time multiplied by ``scale[op]``."""
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total = defaultdict(lambda: [0.0, 0.0, 0])
    for idx, (name, start, end, _, op) in enumerate(spans):
        if op not in scale:
            continue
        entry = total[name]
        entry[0] += (end - start) * scale[op] * 1e3
        entry[1] += (end - start - child_time[idx]) * scale[op] * 1e3
        entry[2] += 1
    return dict(total)


def layer_shares(spans):
    """Share of operation time covered by each layer (the name's first part).

    Nested spans of the same layer are counted once, at the outermost one.
    """
    layer = [s[0].split(".")[0] for s in spans]
    covered = defaultdict(float)
    op_time = 0.0
    for idx, (name, start, end, parent, _) in enumerate(spans):
        if name == "op":
            op_time += end - start
            continue
        p = parent
        while p >= 0 and layer[p] != layer[idx]:
            p = spans[p][3]
        if p < 0:
            covered[layer[idx]] += end - start
    return {k: v / op_time for k, v in sorted(covered.items())} if op_time > 0 else {}


# Per-layer metrics of the traced run: (name, unit, better). Times and
# counts are per operation unless the name says per call or per iteration.
PER_LAYER = tuple((f"{t[0]}.ms", "ms", "lower") for t in TARGETS) + (
    ("twoview.solve.self_ms", "ms", "lower"),
    ("twoview.refine.iters", "count", "lower"),
    ("twoview.refine.ms_per_iter", "ms", "lower"),
    ("twoview.converged_frac", "1", "higher"),
    ("twoview.n_degenerate", "count", "lower"),
    ("ba.iters", "count", "lower"),
    ("ba.ms_per_iter", "ms", "lower"),
    ("ba.accept_frac", "1", "higher"),
    ("ba.n_behind", "count", "lower"),
    ("ba.edges", "count", "lower"),
    ("ba.anchors", "count", "lower"),
    ("sim3.join.self_ms", "ms", "lower"),
    ("sim3.scale_vote.n", "count", "lower"),
    ("sim3.inlier_frac", "1", "higher"),
    ("sim3.dropped_depths", "count", "lower"),
    ("metrics.associated_frac", "1", "higher"),
    ("files.rows_read", "count", "lower"),
    ("files.bytes_written", "count", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("trace.op.ms", "ms", "lower"),
    ("trace.overhead", "1", "lower"),
)


def layer_metrics(tracer: Tracer, scale: dict, overhead: float):
    """Per-layer metrics as {name: (value, unit)} over the operations in
    ``scale`` (op id to time scale factor); a layer that never ran, or is
    absent, reads 0."""
    n_ops = len(scale)
    spans = summarize(tracer.spans, scale)
    counts = defaultdict(float)
    for op in scale:
        for key, value in tracer.counts.get(op, {}).items():
            counts[key] += value

    def ratio(num, den):
        return num / den if den else 0.0

    def ms(name):
        return spans.get(name, (0.0, 0.0, 0))[0]

    def self_ms(name):
        return spans.get(name, (0.0, 0.0, 0))[1]

    def calls(name):
        return spans.get(name, (0.0, 0.0, 0))[2]

    values = {f"{t[0]}.ms": ratio(ms(t[0]), n_ops) for t in TARGETS}
    values.update({
        "twoview.solve.self_ms": ratio(self_ms("twoview.solve"), n_ops),
        "twoview.refine.iters": ratio(counts["twoview.refine.iters"], calls("twoview.refine")),
        "twoview.refine.ms_per_iter": ratio(ms("twoview.refine"), counts["twoview.refine.iters"]),
        "twoview.converged_frac": ratio(counts["twoview.converged"], calls("twoview.solve")),
        "twoview.n_degenerate": ratio(counts["twoview.n_degenerate"], n_ops),
        "ba.iters": ratio(counts["ba.iters"], calls("ba.solve")),
        "ba.ms_per_iter": ratio(ms("ba.solve"), counts["ba.iters"]),
        "ba.accept_frac": ratio(counts["ba.accepted"], counts["ba.iters"]),
        "ba.n_behind": ratio(counts["ba.n_behind"], n_ops),
        "ba.edges": ratio(counts["ba.edges"], calls("ba.solve")),
        "ba.anchors": ratio(counts["ba.anchors"], calls("ba.solve")),
        "sim3.join.self_ms": ratio(self_ms("sim3.join"), n_ops),
        "sim3.scale_vote.n": ratio(counts["sim3.scale_vote.n"], calls("sim3.scale_vote")),
        "sim3.inlier_frac": ratio(counts["sim3.inlier_frac"], calls("sim3.scale_vote")),
        "sim3.dropped_depths": ratio(counts["sim3.dropped_depths"], n_ops),
        "metrics.associated_frac": ratio(counts["metrics.associated"],
                                         counts["metrics.associable"]),
        "files.rows_read": ratio(counts["files.rows_read"], n_ops),
        "files.bytes_written": ratio(counts["files.bytes_written"], n_ops),
        "cli.self_ms": ratio(self_ms("cli.join") + self_ms("cli.ate"), n_ops),
        "trace.op.ms": ratio(ms("op"), n_ops),
        "trace.overhead": overhead,
    })
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}
