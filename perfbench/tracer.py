"""Layer tracing from the benchmark's side of the toolkit's public API.

The tracer replaces the module attributes through which callers look up
the toolkit's public functions (for example ``vlp.harness.sweep.
add_capture_noise``) with thin wrappers that record spans and counts.
Nothing in the toolkit changes: leaving the ``with`` block restores every
original attribute. Spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter, defaultdict

from vlp.errors import VlpError


class Tracer:
    """Spans (name, start, end, parent, request) plus named counters.

    Recording happens only while ``active`` is true, so the benchmark's
    own output checks, which also call the toolkit, stay out of the
    trace. Single-threaded: a span's parent is the innermost open span.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request: str | None = None
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def run(self, name: str, request: str, fn, *args, **kwargs):
        """Call fn as the root span of one request."""
        self.request = request
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)
            self.request = None

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds, where self
        time is the span's duration minus its direct children's."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for k, (name, start, end, _, _) in enumerate(self.spans):
            t = out[name]
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += end - start - child_s[k]
        return dict(out)

    def write(self, path: str) -> None:
        """Dump spans (times relative to the first span) and counters."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "request"],
            "spans": [[n, s - t0, e - t0, p, r] for n, s, e, p, r in self.spans],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr: str, name, *, on_result=None, span: bool = True):
        """Replace owner.attr with a recording wrapper.

        name is a span name or a callable (args, kwargs) -> name. on_result
        gets (tracer, name, args, result) after a successful call. A call
        that raises a VlpError counts as ``<name>.fail``. span=False records
        no span, only ``<name>.calls``, for functions too small to time.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            if span:
                idx = tracer._open(label)
            else:
                tracer.counts[f"{label}.calls"] += 1
            try:
                result = original(*args, **kwargs)
            except VlpError:
                tracer.counts[f"{label}.fail"] += 1
                raise
            finally:
                if span:
                    tracer._close(idx)
            if on_result is not None:
                on_result(tracer, label, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def __enter__(self) -> "Tracer":
        for module, attr, name, on_result, span in HOOKS:
            owner = _resolve(module)
            self.wrap(owner, attr, name, on_result=on_result, span=span)
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _resolve(path: str):
    """Module, or class inside a module, named by a dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


# -- per-function recorders -------------------------------------------------

def _corners_name(args, kwargs) -> str:
    merged = kwargs.get("merge_radius", 0) > 0
    return "vision.extract_corners." + ("merged" if merged else "plain")


def _fit_name(args, kwargs) -> str:
    kind = args[2] if len(args) > 2 else kwargs.get("kind", "gbt")
    return f"learn.fit.{kind}"


def _fov(tracer, label, args, result):
    if not result:
        tracer.counts[f"{label}.rejects"] += 1


def _capture_rows(tracer, label, args, result):
    tracer.counts["harness.generate_capture_set.rows"] += len(result)
    tracer.counts["harness.generate_capture_set.dropped"] += result.dropped


def _sweep_rows(tracer, label, args, result):
    tracer.counts["harness.generate_sweep.rows"] += len(result)


def _report_bytes(tracer, label, args, result):
    tracer.counts["harness.report.bytes"] += os.path.getsize(args[0])


def _fit_nodes(tracer, label, args, result):
    trees = [t for sub in result.submodels for t in getattr(sub, "trees", [])]
    tracer.counts[f"{label}.nodes"] += sum(t.n_nodes for t in trees)


def _predict_rows(tracer, label, args, result):
    tracer.counts["learn.predict.rows"] += len(result)


# (module or class path, attribute, span name, on_result, span?)
# One line per binding a caller looks up: the harness imports names into
# its own namespace, so both that binding and the defining module's are
# wrapped; they never call each other, so no call is counted twice.
HOOKS = [
    ("vlp.harness.sweep", "rasterize_panel", "render.rasterize_panel", None, True),
    ("vlp.render", "rasterize_panel", "render.rasterize_panel", None, True),
    ("vlp.harness.sweep", "add_capture_noise", "render.add_capture_noise", None, True),
    ("vlp.render", "add_capture_noise", "render.add_capture_noise", None, True),
    ("vlp.render", "apply_rolling_shutter", "render.apply_rolling_shutter", None, True),
    ("vlp.harness.sweep", "extract_corners", _corners_name, None, True),
    ("vlp.vision", "extract_corners", _corners_name, None, True),
    ("vlp.codec", "extract_row_profile", "codec.extract_row_profile", None, True),
    ("vlp.codec", "dm_decode", "codec.dm_decode", None, True),
    ("vlp.codec", "match_id", "codec.match_id", None, True),
    # the capture loop makes one projection per attempted pose and one
    # field-of-view test per projection that succeeded
    ("vlp.harness.sweep", "project_panel_corners", "harness.capture.attempt", None, False),
    ("vlp.harness.sweep", "in_fov", "harness.capture.in_fov", _fov, False),
    ("vlp.render", "project_panel_corners", "geometry.project_panel_corners", None, False),
    ("vlp.geometry", "project_panel_corners", "geometry.project_panel_corners", None, False),
    ("vlp.geometry", "in_fov", "geometry.in_fov", _fov, False),
    ("vlp.harness.studies", "generate_capture_set", "harness.generate_capture_set",
     _capture_rows, True),
    ("vlp.harness.studies", "generate_sweep", "harness.generate_sweep", _sweep_rows, True),
    ("vlp.harness.sweep", "generate_sweep", "harness.generate_sweep", _sweep_rows, True),
    ("vlp.harness.studies", "split", "harness.split", None, True),
    ("vlp.harness.studies", "evaluate", "harness.evaluate", None, True),
    ("vlp.harness.studies", "write_report", "harness.report", _report_bytes, True),
    ("vlp.harness.studies", "write_cdf_csv", "harness.report", _report_bytes, True),
    ("vlp.harness.studies", "write_grid_csv", "harness.report", _report_bytes, True),
    ("vlp.harness.studies", "write_grid_svg", "harness.report", _report_bytes, True),
    ("vlp.harness.studies", "fit_position_model", _fit_name, _fit_nodes, True),
    ("vlp.learn.model", "fit_position_model", _fit_name, _fit_nodes, True),
    ("vlp.learn.model.PositionModel", "predict", "learn.predict", _predict_rows, True),
]
