"""The benchmark's own tests, at tiny scale.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = {
    "study": workloads.StudyScale(
        heights=(1.3,), per_location=2, forest_trees=2, gbt_rounds=2, gbt_depth=3,
        mlp_epochs=1, setups=1),
    "fix": workloads.FixScale(pairs_per_setup=2, model_rounds=2, model_depth=3,
                              setups=2, min_requests=4),
    "train": workloads.TrainScale(
        heights=(1.3,), grid_extent_m=0.4, grid_spacing_m=0.2, gbt_rounds=2,
        gbt_depth=3, forest_trees=2, mlp_epochs=1, predict_repeats=2, setups=2),
}


def tiny(name, tmp_path, seed=3):
    return workloads.WORKLOADS[name](seed, ROOT, str(tmp_path), TINY[name])


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Per workload: (workload, tracer, untraced outputs, traced outputs)."""
    out = {}
    for name in TINY:
        w = tiny(name, tmp_path_factory.mktemp(name))
        with Tracer() as tracer:
            _, _, plain, traced = run.measure_traced(w, tracer)
        out[name] = (w, tracer, plain, traced)
    return out


def layer(traced_runs, name):
    w, tracer, plain, traced = traced_runs[name]
    return w, run.layer_metrics(tracer, w.mean_3d_cm(plain), [1.0], [1.0]), tracer.counts


def test_study_counts(traced_runs):
    w, m, c = layer(traced_runs, "study")
    rows = m["harness.generate_capture_set.rows"]
    dropped = m["harness.generate_capture_set.dropped"]
    accepted = c["harness.capture.in_fov.calls"] - c["harness.capture.in_fov.rejects"]
    assert rows > 0
    assert rows + dropped == accepted
    assert m["render.add_capture_noise.calls"] == accepted
    # clean_reference: a noisy and a clean extraction per accepted pose
    assert 2 * rows <= m["vision.extract_corners.plain.calls"] <= 2 * accepted
    studies = w.traced_requests
    assert m["harness.generate_capture_set.calls"] == studies
    for kind in ("gbt", "forest", "mlp"):
        assert m[f"learn.fit.{kind}.calls"] == studies
    # each model scores the clean and the noisy test set
    assert m["harness.evaluate.calls"] == m["learn.predict.calls"] == 6 * studies
    assert m["harness.report.bytes"] > 0
    assert m["codec.dm_decode.calls"] == 0


def test_fix_counts(traced_runs):
    w, m, c = layer(traced_runs, "fix")
    fixes = w.traced_requests
    pool = len(w.pool)
    assert fixes == pool == 4
    assert m["bench.request.calls"] == fixes
    # two extract_corners calls per fix: plain frame, then striped frame
    assert m["vision.extract_corners.plain.calls"] == fixes
    assert m["vision.extract_corners.merged.calls"] == fixes
    for fn in ("codec.extract_row_profile", "codec.dm_decode", "codec.match_id",
               "learn.predict"):
        assert m[f"{fn}.calls"] == fixes
    # set-up renders each pair once: two noisy frames, one striped
    assert m["render.apply_rolling_shutter.calls"] == pool
    assert m["render.add_capture_noise.calls"] == 2 * pool
    assert m["learn.fit.gbt.calls"] == w.setups
    assert m["harness.generate_sweep.calls"] == w.setups
    assert m["learn.fit.gbt.nodes"] > 0


def test_train_counts(traced_runs):
    w, m, c = layer(traced_runs, "train")
    passes = w.traced_requests
    for kind in ("gbt", "forest", "mlp"):
        assert m[f"learn.fit.{kind}.calls"] == passes
    predicts = 3 * w.scale.predict_repeats * passes
    assert m["learn.predict.calls"] == predicts
    assert m["learn.predict.rows"] == predicts * len(w.data)
    assert m["harness.generate_sweep.calls"] == w.setups
    assert m["harness.generate_sweep.rows"] == w.setups * len(w.data)
    assert m["learn.fit.forest.nodes"] > 0
    assert m["render.rasterize_panel.calls"] == 0


def test_self_time_excludes_children(traced_runs):
    _, tracer, _, _ = traced_runs["study"]
    t = tracer.totals()
    capture = t["harness.generate_capture_set"]
    children = (t["render.rasterize_panel"]["s"] + t["render.add_capture_noise"]["s"]
                + t["vision.extract_corners.plain"]["s"])
    assert capture["self_s"] == pytest.approx(capture["s"] - children, abs=1e-9)
    assert all(span[4] is not None for span in tracer.spans)


@pytest.mark.parametrize("name", list(TINY))
def test_tracing_leaves_outputs_unchanged(traced_runs, name):
    w, _, plain, traced = traced_runs[name]
    assert w.verify(plain + traced) == []
    key = {"study": "digest", "fix": "key", "train": "key"}[name]
    # the two sides run the requests in different orders; fix pairs them by frame pair
    def by_request(outputs):
        return [o[key] for o in sorted(outputs, key=lambda o: o.get("pair", 0))]
    assert by_request(plain) == by_request(traced)


def test_traced_fix_reads_a_different_pair_each_side(traced_runs):
    _, _, plain, traced = traced_runs["fix"]
    assert all(u["pair"] != t["pair"] for u, t in zip(plain, traced))
    assert sorted(o["pair"] for o in plain) == sorted(o["pair"] for o in traced)


def test_tracer_restores_the_toolkit():
    import vlp.harness.sweep
    import vlp.learn.model
    before = (vlp.harness.sweep.add_capture_noise, vlp.learn.model.PositionModel.predict)
    with Tracer():
        assert vlp.harness.sweep.add_capture_noise is not before[0]
    after = (vlp.harness.sweep.add_capture_noise, vlp.learn.model.PositionModel.predict)
    assert after == before


def test_checks_catch_wrong_outputs(traced_runs):
    w, _, plain, _ = traced_runs["fix"]
    bad = dict(plain[0], failed=1, id=plain[0]["want"] ^ 1)
    assert any("decoded id" in p for p in w.verify([bad]))
    far = dict(plain[0], plain_err_px=workloads.PLAIN_CORNER_BOUND_PX + 1)
    assert any("plain corner error" in p for p in w.verify([far]))
    w, _, plain, _ = traced_runs["study"]
    assert w.verify([plain[0], dict(plain[0], digest="0")])
    w, _, plain, _ = traced_runs["train"]
    assert w.verify([plain[0], dict(plain[0], reloaded_ok={"gbt": False})])


def test_reload_check_sees_one_ulp(traced_runs, monkeypatch):
    w = traced_runs["train"][0]
    load = workloads.learn_model.load_model

    class Drifted:
        def __init__(self, model):
            self.model = model

        def predict(self, x):
            return np.nextafter(self.model.predict(x), np.inf)

    monkeypatch.setattr(workloads.learn_model, "load_model", lambda path: Drifted(load(path)))
    out = w.summarize(0, w.request(0))
    assert not any(out["reloaded_ok"].values())


def test_untraced_metrics(tmp_path):
    w = tiny("train", tmp_path)
    metrics, samples, outputs, _ = run.measure_untraced(w, 0.0)
    assert set(metrics) == set(run.END_TO_END)
    assert all(v > 0 for v in metrics.values())
    assert samples["request_ms_p50"][0] == w.min_requests
    assert w.verify(outputs) == []


def test_benchmark_json_matches_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_toolkit_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
