"""In-memory span tracing of carnot's public functions, from outside the package.

``Tracer.install`` wraps every public plain function defined in the traced
modules and replaces *every* module attribute bound to it, in every carnot
module, so calls through imported names (``heat`` calling
``multiply_batch``, ``inequalities`` calling ``evaluate_batch``) are seen
too. Private functions are never wrapped, so their cost lands in the self
time of the public function that called them: per-path RNG shows up as
``heat.sample`` self time. ``uninstall`` restores the original attributes.

A span is ``(span_id, parent_id, name, thread, start, end, counts)``. Spans of
one traced ``cli.run`` share a run id. The span stack is per thread; the first
span of a worker thread (the check pool) gets the run's root span as parent.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time

# Layers that get their own metrics; every other function of a module falls in
# the layer named after the module.
LAYER_OF = {
    "heat.sample": "heat.sample",
    "heat.empirical_check_inverse_symmetry": "heat.checks",
    "heat.empirical_check_scaling": "heat.checks",
    "heat.empirical_tail_profile": "heat.checks",
    "group.multiply_batch": "group.multiply_batch",
    "group.multiply_jets": "group.multiply_jets",
    "group.dilate": "group.dilate_norm",
    "group.dilate_batch": "group.dilate_norm",
    "group.homogeneous_norm": "group.dilate_norm",
    "group.homogeneous_norm_batch": "group.dilate_norm",
    "lsh.check_lsh": "lsh.check_lsh",
}

# Root children that prepare the run (before the check phase) in cli.run.
PREP_CALLS = {"cli.validate_config", "algebra.resolve", "lsh.library_field",
              "calculus.parse_field", "heat.sample"}


def layer_of(name: str) -> str:
    return LAYER_OF.get(name, name.split(".", 1)[0])


def _rows(coords) -> int:
    """Number of points in an (n, dim) coordinate array; 1 for one point."""
    return coords.shape[0] if coords.ndim == 2 else 1


def _count_sample(args, result):
    n, steps = args["n_samples"], args["n_steps"]
    counts = {"paths": n, "path_steps": n * steps,
              "normals": n * steps * args["algebra"].dim_v1}
    if result.is_tilted:
        w = result.weights
        counts["ess_ratio"] = float(w.sum() ** 2 / (w.size * (w * w).sum()))
    return counts


def _count_calculus(args, result):
    if "coords" in args:
        return {"samples": _rows(args["coords"])}
    return {"samples": 1 if "point" in args else 0}


COUNTERS = {
    "heat.sample": _count_sample,
    "group.multiply_batch": lambda args, result: {"rows": _rows(args["X"])},
    "lsh.check_lsh": lambda args, result: {"points": _rows(args["points"])},
    "calculus": _count_calculus,
}


_RAISED = object()  # result of a call that raised; its span has no counts


class Tracer:
    """Collects the spans of one traced run in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._root = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    # -- wrapping ---------------------------------------------------------------

    def install(self, traced_modules, all_modules):
        wrappers = {}
        for mod in traced_modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        for mod in all_modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name) or COUNTERS.get(layer_of(name))
        signature = inspect.signature(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            span_id = next(tracer._ids)
            if tracer._root is None:
                tracer._root = span_id
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                result = _RAISED
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if tracer._root == span_id:
                    tracer._root = None
                counts = None
                if counter is not None and result is not _RAISED:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counts = counter(bound.arguments, result)
                tracer.spans.append((span_id, parent, name, threading.get_ident(),
                                     start, end, counts))
            return result

        return traced

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def write(self, fh, run_id):
        """Writes the spans to an open file as JSON lines, each tagged with
        run_id."""
        for span_id, parent, name, thread, start, end, counts in self.spans:
            fh.write(json.dumps({
                "run": run_id, "span": span_id, "parent": parent,
                "name": name, "thread": thread, "start": start,
                "end": end, "counts": counts,
            }) + "\n")


# -- per-layer metrics ------------------------------------------------------------


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced ``cli.run`` from its spans.

    busy_s sums the durations of a layer's outermost spans (thread-seconds, so
    it can exceed wall time on the check pool); self_s sums each span's
    duration minus the part its child spans cover; calls counts outermost
    spans. Work counts are computed from call arguments, not measured.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)
    root = next(s for s in spans if s[1] is None)

    def outermost(s):
        layer, parent = layer_of(s[2]), s[1]
        while parent is not None:
            if layer_of(by_id[parent][2]) == layer:
                return False
            parent = by_id[parent][1]
        return True

    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    ess = []
    for s in spans:
        span_id, _, name, _, start, end, span_counts = s
        layer = layer_of(name)
        kids = [(k[4], k[5]) for k in children.get(span_id, ())]
        self_s[layer] = self_s.get(layer, 0.0) + (end - start) - _covered(kids, start, end)
        if not outermost(s):
            continue
        calls[layer] = calls.get(layer, 0) + 1
        busy[layer] = busy.get(layer, 0.0) + (end - start)
        for key, value in (span_counts or {}).items():
            if key == "ess_ratio":
                ess.append(value)
            else:
                counts[f"{layer}.{key}"] = counts.get(f"{layer}.{key}", 0) + value

    run_s = root[5] - root[4]
    checks = [s for s in children.get(root[0], ()) if s[2] not in PREP_CALLS]
    checks_wall = (max(s[5] for s in checks) - min(s[4] for s in checks)) if checks else 0.0
    samples = [s for s in children.get(root[0], ()) if s[2] == "heat.sample"]
    main_sample = (samples[0][5] - samples[0][4]) if samples else 0.0

    def per(num, den, scale=1e9):
        return num / den * scale if den else 0.0

    normals = counts.get("heat.sample.normals", 0)
    rows = counts.get("group.multiply_batch.rows", 0)
    n_calc = counts.get("calculus.samples", 0)
    return {
        "cli.self_s": self_s.get("cli", 0.0),
        # share of cli.run not timed by its own "timings" block, which covers
        # only the main sampling call and the checks
        "cli.unattributed_share": (run_s - main_sample - checks_wall) / run_s,
        "cli.checks.busy_s": sum(s[5] - s[4] for s in checks),
        "cli.checks.wall_s": checks_wall,
        "heat.sample.calls": calls.get("heat.sample", 0),
        "heat.sample.busy_s": busy.get("heat.sample", 0.0),
        "heat.sample.self_s": self_s.get("heat.sample", 0.0),
        "heat.sample.paths": counts.get("heat.sample.paths", 0),
        "heat.sample.path_steps": counts.get("heat.sample.path_steps", 0),
        "heat.sample.normals": normals,
        "heat.sample.self_ns_per_normal": per(self_s.get("heat.sample", 0.0), normals),
        # untilted batches carry unit weights, whose ratio is exactly 1
        "heat.sample.ess_ratio": min(ess) if ess else 1.0,
        "heat.checks.busy_s": busy.get("heat.checks", 0.0),
        "heat.checks.calls": calls.get("heat.checks", 0),
        "group.multiply_batch.calls": calls.get("group.multiply_batch", 0),
        "group.multiply_batch.rows": rows,
        "group.multiply_batch.busy_s": busy.get("group.multiply_batch", 0.0),
        "group.multiply_batch.ns_per_row": per(busy.get("group.multiply_batch", 0.0), rows),
        "group.multiply_jets.calls": calls.get("group.multiply_jets", 0),
        "group.multiply_jets.busy_s": busy.get("group.multiply_jets", 0.0),
        "group.dilate_norm.busy_s": busy.get("group.dilate_norm", 0.0),
        "calculus.busy_s": busy.get("calculus", 0.0),
        "calculus.self_s": self_s.get("calculus", 0.0),
        "calculus.samples": n_calc,
        "calculus.self_ns_per_sample": per(self_s.get("calculus", 0.0), n_calc),
        "lsh.check_lsh.calls": calls.get("lsh.check_lsh", 0),
        "lsh.check_lsh.points": counts.get("lsh.check_lsh.points", 0),
        "lsh.check_lsh.busy_s": busy.get("lsh.check_lsh", 0.0),
        "lsh.check_lsh.self_s": self_s.get("lsh.check_lsh", 0.0),
        "inequalities.calls": calls.get("inequalities", 0),
        "inequalities.busy_s": busy.get("inequalities", 0.0),
        "inequalities.self_s": self_s.get("inequalities", 0.0),
        "algebra.busy_s": busy.get("algebra", 0.0),
    }
