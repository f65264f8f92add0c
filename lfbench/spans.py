"""Span recording for the traced benchmark run.

The tracer wraps named public functions of the ``lanefuse`` modules from the
outside: every module-level binding of the original function (including the
names other modules imported with ``from .x import f``) is replaced by a
wrapper that records one span per call, and restored on ``uninstall``. No
program file changes.

A span is ``(name, start_ns, end_ns, parent, op, info)``: ``parent`` is the
index of the enclosing span (-1 for none), ``op`` the operation id the
harness set, and ``info`` an optional dict of counts taken from the call's
arguments or result.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from pathlib import Path

import numpy as np

# (module, function, unit of the self-time metric); one span name each.
SPAN_TABLE: tuple[tuple[str, str, str], ...] = (
    ("scene_synth", "generate_scene", "ms"),
    ("scene_synth", "render_lidar", "ms"),
    ("scene_synth", "synth_view_features", "ms"),
    ("pillar", "voxelize", "ms"),
    ("pillar", "pillarize", "ms"),
    ("pillar", "lane_sample", "ms"),
    ("pillar", "encode_pillars", "ms"),
    ("fusion", "positional_encode", "ms"),
    ("fusion", "coarse_lane_detect", "ms"),
    ("fusion", "image_transformer", "ms"),
    ("fusion", "init_lidar_queries", "ms"),
    ("fusion", "integrate_queries", "ms"),
    ("fusion", "lidar_transformer", "ms"),
    ("fusion", "enhance_features", "ms"),
    ("heads_losses", "heads_forward", "ms"),
    ("heads_losses", "predictions_to_double_edge", "ms"),
    ("double_edge", "interpret_path", "ms"),
    ("pipeline", "run_pipeline", "ms"),
    ("pipeline", "scene_feature_counts", "ms"),
    ("pipeline", "planner", "us"),
    ("sim_eval", "run_closed_loop", "ms"),
    ("sim_eval", "follow_path", "us"),
    ("sim_eval", "step_ego", "us"),
    ("sim_eval", "route_completion", "ms"),
    ("geometry", "project_point_to_polyline", "us"),
    ("cli", "cmd_eval", "ms"),
)

# The first call of these in a process is recorded under "<name>.cold".
COLD_SPANS = ("pipeline.run_pipeline", "fusion.image_transformer")

# The planner is a closure this factory returns; its calls become the
# "pipeline.planner" span.
PLANNER_FACTORY = "make_gt_planner"

OP_SPAN = "op"

_UNIT_NS = {"ms": 1e6, "us": 1e3}


def _count_info(name: str, out) -> dict | None:
    """Work counts read from a call's result, at the layer boundary."""
    if name == "scene_synth.render_lidar":
        return {"points": len(out)}
    if name == "pillar.pillarize":
        return {"points_binned": int(sum(len(m) for m in out.cells.values())),
                "pillars": len(out)}
    if name == "pillar.lane_sample":
        filled = ~out.empty
        cells = out.source_cells[filled]
        return {"slots": int(out.empty.size), "filled": int(filled.sum()),
                "distinct_cells": int(len(np.unique(cells, axis=0))) if len(cells) else 0}
    if name == "pillar.voxelize":
        return {"voxels": int(out[0])}
    if name == "double_edge.interpret_path":
        return {"waypoints": len(out.waypoints)}
    if name == "pipeline.planner":
        return {"plan": out}  # the reference keeps id() unique for the run
    if name == "sim_eval.run_closed_loop":
        return {"terminated": out.terminated}
    return None


class Tracer:
    """In-memory span store plus the function patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op = -1
        self.counting = False  # read work counts from results (costs time)
        self._stack: list[int] = []
        self._cold = set(COLD_SPANS)
        self._patches: list[tuple[object, str, object]] = []
        self.count_errors: set[str] = set()

    # -- recording ---------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, name: str, t0: int, parent: int) -> None:
        self._stack.pop()
        self.spans[idx] = (name, t0, time.perf_counter_ns(), parent, self.op, None)

    def span(self, name: str, fn):
        """Wrap ``fn`` so each call records a span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, parent = self._open()
            label = name
            if name in self._cold:
                self._cold.discard(name)
                label = name + ".cold"
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx, label, t0, parent)
            if not self.counting:
                return out
            try:
                info = _count_info(name, out)
            except (AttributeError, TypeError, IndexError) as exc:
                # a result whose shape changed loses its counts, not the call
                if name not in self.count_errors:
                    print(f"lfbench: no counts for {name}: {exc!r}", file=sys.stderr)
                self.count_errors.add(name)
                info = None
            if info is not None:
                self.spans[idx] = self.spans[idx][:5] + (info,)
            return out

        return wrapper

    def run_op(self, op: int, fn, *args):
        """Call ``fn`` as operation ``op`` under a root span; returns
        (result, wall seconds)."""
        self.op = op
        idx, parent = self._open()
        t0 = time.perf_counter_ns()
        try:
            out = fn(*args)
        finally:
            self._close(idx, OP_SPAN, t0, parent)
        t1 = self.spans[idx][2]
        return out, (t1 - t0) / 1e9

    # -- patching ------------------------------------------------------------

    def install(self) -> list[str]:
        """Patch every binding of the span functions in the loaded
        ``lanefuse`` modules; returns the span names that were not found."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "lanefuse" or k.startswith("lanefuse."))]
        missing = []
        for mod_name, fn_name, _ in SPAN_TABLE:
            if fn_name == "planner":
                continue
            home = sys.modules.get(f"lanefuse.{mod_name}")
            orig = getattr(home, fn_name, None)
            if orig is None:
                missing.append(f"{mod_name}.{fn_name}")
                continue
            self._rebind(modules, orig, self.span(f"{mod_name}.{fn_name}", orig))
        factory = getattr(sys.modules.get("lanefuse.pipeline"), PLANNER_FACTORY, None)
        if factory is None:
            missing.append(f"pipeline.{PLANNER_FACTORY}")
        else:
            @functools.wraps(factory)
            def traced_factory(*args, **kwargs):
                return self.span("pipeline.planner", factory(*args, **kwargs))

            self._rebind(modules, factory, traced_factory)
        return missing

    def _rebind(self, modules, orig, replacement) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, replacement)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def dump(self, path: Path) -> None:
        """Write all spans as gzipped JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for name, t0, t1, parent, op, info in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": t0, "end_ns": t1,
                                     "parent": parent, "op": op, "info": info},
                                    default=id) + "\n")


def self_times_ns(spans: list[tuple]) -> list[int]:
    """Each span's duration minus the part of its interval that its child
    spans cover (children may overlap each other)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, t0, t1, parent, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((t0, t1))
    out = []
    for idx, (name, t0, t1, *_) in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for c0, c1 in sorted(children.get(idx, ())):
            c0, c1 = max(c0, t0), min(c1, t1)
            if c1 <= c0:
                continue
            if cur_hi is None or c0 > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = c0, c1
            else:
                cur_hi = max(cur_hi, c1)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((t1 - t0) - covered)
    return out


def layer_metrics(spans: list[tuple], suite_ops: list[list[int]],
                  count_ops: list[int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of traced operations.

    ``suite_ops`` lists the timed suite passes, each as the op ids it is
    made of; calls and self time per suite are averaged over them, so they
    do not depend on how many operations fit in the window. Self-time
    medians use every span of those passes. Work counts come from the one
    pass ``count_ops``, traced with counting on and left out of all timing.
    Spans named ``<name>.cold`` feed the cold metrics.
    """
    selfs = self_times_ns(spans)
    op_to_pass = {op: k for k, ops in enumerate(suite_ops) for op in ops}
    count_set = set(count_ops)
    n_pass = max(1, len(suite_ops))
    by_name: dict[str, list[int]] = {}
    per_pass_self: dict[str, float] = {}
    per_pass_calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    plans: set[int] = set()
    op_total_ns = 0.0
    for (name, t0, t1, parent, op, info), st in zip(spans, selfs):
        if name.endswith(".cold"):
            counts[name] = (t1 - t0) / 1e6
        elif op in op_to_pass:
            by_name.setdefault(name, []).append(st)
            per_pass_self[name] = per_pass_self.get(name, 0.0) + st
            per_pass_calls[name] = per_pass_calls.get(name, 0) + 1
            if name == OP_SPAN:
                op_total_ns += t1 - t0
        elif op in count_set and info:
            if name == "pipeline.planner":
                plans.add(id(info["plan"]))
            elif name == "sim_eval.run_closed_loop":
                key = f"episodes.{info['terminated']}"
                counts[key] = counts.get(key, 0) + 1
            else:
                for k, v in info.items():
                    counts[f"{name}.{k}"] = counts.get(f"{name}.{k}", 0) + v

    m: dict[str, tuple[float, str]] = {}
    for mod, fn, unit in SPAN_TABLE:
        name = f"{mod}.{fn}"
        samples = by_name.get(name)
        m[f"{name}.calls"] = (per_pass_calls.get(name, 0) / n_pass, "count")
        m[f"{name}.self_{unit}_p50"] = (
            float(np.median(samples)) / _UNIT_NS[unit] if samples else 0.0, unit)
        m[f"{name}.self_ms_per_suite"] = (per_pass_self.get(name, 0.0) / n_pass / 1e6, "ms")
    for name in COLD_SPANS:
        m[f"{name}.cold_ms"] = (counts.get(name + ".cold", 0.0), "ms")

    def per_pass(key: str) -> float:
        return counts.get(key, 0)

    slots = counts.get("pillar.lane_sample.slots", 0)
    filled = counts.get("pillar.lane_sample.filled", 0)
    binned = counts.get("pillar.pillarize.points_binned", 0)
    m["scene_synth.render_lidar.points_out"] = (per_pass("scene_synth.render_lidar.points"), "count")
    m["pillar.pillarize.points_binned"] = (per_pass("pillar.pillarize.points_binned"), "count")
    m["pillar.pillarize.pillars_out"] = (per_pass("pillar.pillarize.pillars"), "count")
    m["pillar.voxelize.voxels_out"] = (per_pass("pillar.voxelize.voxels"), "count")
    m["pillar.lane_sample.filled_fraction"] = (filled / slots if slots else 0.0, "ratio")
    m["pillar.lane_sample.distinct_cell_fraction"] = (
        counts.get("pillar.lane_sample.distinct_cells", 0) / slots if slots else 0.0, "ratio")
    m["pillar.points_binned_per_filled_slot"] = (binned / filled if filled else 0.0, "ratio")
    m["double_edge.interpret_path.waypoints"] = (per_pass("double_edge.interpret_path.waypoints"), "count")
    m["pipeline.planner.distinct_plans"] = (len(plans), "count")
    for reason in ("completed", "horizon", "deviation", "failure"):
        m[f"sim_eval.episodes.{reason}"] = (per_pass(f"episodes.{reason}"), "count")
    steps = per_pass_calls.get("sim_eval.step_ego", 0)
    m["geometry.projections_per_step"] = (
        per_pass_calls.get("geometry.project_point_to_polyline", 0) / steps if steps else 0.0,
        "ratio")
    ops = by_name.get(OP_SPAN, [])
    m["op.uncovered_ms_p50"] = (float(np.median(ops)) / 1e6 if ops else 0.0, "ms")
    m["op.uncovered_share"] = (
        per_pass_self.get(OP_SPAN, 0.0) / op_total_ns if op_total_ns else 0.0, "ratio")
    return m
