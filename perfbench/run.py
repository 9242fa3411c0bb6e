"""vlp benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload {study,fix,train} --seed N \\
        --seconds S --trace {0,1}

Run from a checkout of the repository; the toolkit is imported from its
``src`` directory. With --trace 0 the run times untraced requests and
reports the end-to-end metrics; with --trace 1 it times the same
requests untraced and then traced, and reports the per-layer metrics.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Scratch files, spans and a result record go under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

# BLAS is pinned before numpy loads; one caller, one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "request_ms_p50": "ms",
    "request_ms_p90": "ms",
    "requests_per_s": "1/s",
}

TIMED_FUNCTIONS = [
    "render.rasterize_panel",
    "render.add_capture_noise",
    "render.apply_rolling_shutter",
    "vision.extract_corners.plain",
    "vision.extract_corners.merged",
    "codec.extract_row_profile",
    "codec.dm_decode",
    "codec.match_id",
    "harness.generate_capture_set",
    "harness.generate_sweep",
    "harness.split",
    "harness.evaluate",
    "harness.report",
    "learn.fit.gbt",
    "learn.fit.forest",
    "learn.fit.mlp",
    "learn.predict",
    "bench.setup",
    "bench.request",
]

PER_LAYER_EXTRA = {
    "vision.extract_corners.fail": "count",
    "codec.extract_row_profile.fail": "count",
    "codec.dm_decode.fail": "count",
    "codec.match_id.fail": "count",
    "geometry.project_panel_corners.calls": "count",
    "geometry.in_fov.rejects": "count",
    "harness.capture.attempts_per_row": "ratio",
    "harness.generate_capture_set.rows": "count",
    "harness.generate_capture_set.dropped": "count",
    "harness.generate_capture_set.yield": "ratio",
    "harness.generate_sweep.rows": "count",
    "harness.report.bytes": "B",
    "learn.fit.gbt.nodes": "count",
    "learn.fit.forest.nodes": "count",
    "learn.predict.rows": "count",
    "learn.predict.rows_per_s": "1/s",
    "learn.predict.mean_3d_cm": "cm",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for fn in TIMED_FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.s"] = "s"
        units[f"{fn}.self_s"] = "s"
    units.update(PER_LAYER_EXTRA)
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, mean_3d_cm: float, untraced: list[float],
                  traced: list[float]) -> dict[str, float]:
    """Per-layer values from a finished trace."""
    totals = tracer.totals()
    c = tracer.counts
    out: dict[str, float] = {}
    for fn in TIMED_FUNCTIONS:
        t = totals.get(fn, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for stat in ("calls", "s", "self_s"):
            out[f"{fn}.{stat}"] = t[stat]
    rows = c["harness.generate_capture_set.rows"]
    dropped = c["harness.generate_capture_set.dropped"]
    predict_s = out["learn.predict.s"]
    out.update({
        "vision.extract_corners.fail": (c["vision.extract_corners.plain.fail"]
                                        + c["vision.extract_corners.merged.fail"]),
        "codec.extract_row_profile.fail": c["codec.extract_row_profile.fail"],
        "codec.dm_decode.fail": c["codec.dm_decode.fail"],
        "codec.match_id.fail": c["codec.match_id.fail"],
        "geometry.project_panel_corners.calls": (c["geometry.project_panel_corners.calls"]
                                                 + c["harness.capture.attempt.calls"]),
        "geometry.in_fov.rejects": (c["geometry.in_fov.rejects"]
                                    + c["harness.capture.in_fov.rejects"]),
        "harness.capture.attempts_per_row": _ratio(c["harness.capture.attempt.calls"], rows),
        "harness.generate_capture_set.rows": rows,
        "harness.generate_capture_set.dropped": dropped,
        "harness.generate_capture_set.yield": _ratio(rows, rows + dropped),
        "harness.generate_sweep.rows": c["harness.generate_sweep.rows"],
        "harness.report.bytes": c["harness.report.bytes"],
        "learn.fit.gbt.nodes": c["learn.fit.gbt.nodes"],
        "learn.fit.forest.nodes": c["learn.fit.forest.nodes"],
        "learn.predict.rows": c["learn.predict.rows"],
        "learn.predict.rows_per_s": _ratio(c["learn.predict.rows"], predict_s),
        "learn.predict.mean_3d_cm": mean_3d_cm,
        "trace.overhead_s": (sum(traced) - sum(untraced)) / len(traced),
        "trace.overhead_pct": 100.0 * _ratio(sum(traced) - sum(untraced), sum(untraced)),
    })
    return out


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }
    env.update({var: os.environ[var] for var in THREAD_VARS})
    return env


def timed(w, call, i: int, times: list, outputs: list) -> None:
    """Time one request; summarize its result outside the timed region."""
    t0 = time.perf_counter()
    raw = call(i)
    times.append(time.perf_counter() - t0)
    outputs.append(w.summarize(i, raw))


def run_requests(w, seconds: float):
    """Closed loop: issue request i only after request i-1 returned.

    Keep going, at least w.min_requests times, until the next request,
    estimated at the median so far, would end past the time budget.
    Returns the request times and the summarized outputs.
    """
    times, outputs = [], []
    start = time.perf_counter()
    while len(times) < w.min_requests or (
            time.perf_counter() - start + statistics.median(times) <= seconds):
        timed(w, w.request, len(times), times, outputs)
    return times, outputs


def measure_untraced(w, seconds: float):
    """Set up w.setups times, then run requests for the time budget.
    Returns (end-to-end metrics, sample counts, outputs, request times)."""
    import numpy as np

    setup_times = []
    for k in range(w.setups):
        t0 = time.perf_counter()
        w.setup(k)
        setup_times.append(time.perf_counter() - t0)
    times, outputs = run_requests(w, seconds)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "request_ms_p50": 1e3 * statistics.median(times),
        "request_ms_p90": 1e3 * float(np.percentile(times, 90, method="inverted_cdf")),
        "requests_per_s": len(times) / sum(times),
    }
    samples = {"setup_s": (len(setup_times), "set-ups")}
    for name in ("request_ms_p50", "request_ms_p90", "requests_per_s"):
        samples[name] = (len(times), w.request_unit)
    return metrics, samples, outputs, times


def measure_traced(w, tracer):
    """Set up under the tracer, then run w.traced_requests requests
    untraced and as many traced, alternating so that drift in machine
    speed hits both alike: the difference is the tracing overhead. The
    untraced side runs request i + half, so that on fix the two sides of
    a step read different frame pairs and neither finds its pair still
    in cache from the other; over the loop both sides run every request,
    and their outputs must agree. Returns (untraced times, traced times,
    untraced outputs, traced outputs)."""
    tracer.active = True
    for k in range(w.setups):
        tracer.run("bench.setup", f"setup-{k}", w.setup, k)
    tracer.active = False

    def traced_request(i):
        tracer.active = True
        try:
            return tracer.run("bench.request", f"{w.name}-{i}", w.request, i)
        finally:
            tracer.active = False

    n = w.traced_requests
    untraced, traced, outputs, traced_outputs = [], [], [], []
    for i in range(n):
        timed(w, w.request, (i + n // 2) % n, untraced, outputs)
        timed(w, traced_request, i, traced, traced_outputs)
    return untraced, traced, outputs, traced_outputs


def run(workload: str, seed: int, seconds: float, trace: bool):
    """One benchmark run; returns (result line dict, detail dict)."""
    import workloads
    from tracer import Tracer

    out_root = os.path.join(ROOT, ".perfbench_out")
    work = os.path.join(out_root, f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    detail: dict = {}
    try:
        w = workloads.WORKLOADS[workload](seed, ROOT, work)
        if not trace:
            metrics, detail["samples"], outputs, detail["request_s"] = \
                measure_untraced(w, seconds)
            units = END_TO_END
        else:
            with Tracer() as tracer:
                untraced, traced, outputs, traced_outputs = measure_traced(w, tracer)
            outputs += traced_outputs
            metrics = layer_metrics(tracer, w.mean_3d_cm(outputs), untraced, traced)
            units = per_layer_units()
            detail["samples"] = {"traced requests": (len(traced), w.request_unit)}
            detail["request_s"] = {"untraced": untraced, "traced": traced}
            detail["spans"] = os.path.join(out_root, f"spans-{workload}-seed{seed}.json")
            tracer.write(detail["spans"])
        detail["problems"] = w.verify(outputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not detail["problems"],
        "attempted": sum(o["attempted"] for o in outputs),
        "failed": sum(o["failed"] for o in outputs),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("study", "fix", "train"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vlp", "__init__.py")):
        print(f"error: no toolkit source at {SRC}/vlp; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)

    env = environment(args.workload, args.seed, args.seconds, args.trace)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in detail["problems"]:
        print(f"check failed: {problem}")
    for name, m in result["metrics"].items():
        n = detail["samples"].get(name)
        note = f"  (n={n[0]} {n[1]})" if n else ""
        print(f"{name:42s} {m['value']:>16.6g} {m['unit']}{note}")
    for label, (n, unit) in detail["samples"].items():
        if label not in result["metrics"]:
            print(f"{label}: {n} {unit}")
    record = dict(result, env=env, **detail)
    path = os.path.join(ROOT, ".perfbench_out",
                        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
