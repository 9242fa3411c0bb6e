"""Acceptance gates for the toolkit, one test per criterion. Each prints a
single pass/fail verdict line straight to the terminal (bypassing pytest's
capture) before asserting, so a full run always shows all nine verdicts.

Gates 1, 5, 6, 7 and 9 take minutes each and carry the `slow` marker, so
`pytest -m "not slow"` runs everything else; the full run includes them.

Criterion 6 measures extrapolation across a height gap wider than the
feature scale of the training sweep; its mean-error clause is not reachable
by piecewise-constant models and the test reports that honestly. The
README's accuracy section walks through the numbers.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import rng
from helpers import (
    exhaustive_tree_sse,
    finite_difference_worst_rel,
    gbt_leaf_identity_errors,
    tree_sse,
)
from vlp.codec import (
    LedDatabase,
    LedRecord,
    dm_decode,
    dm_encode,
    extract_row_profile,
    match_id,
    stripe_merge_radius,
)
from vlp.errors import BehindCamera, VlpError
from vlp.geometry import Attitude, Pose, Vec3, in_fov, project_panel_corners
from vlp.harness import GridSpec, StudyConfig, SweepSpec, generate_sweep, run_experiment
from vlp.learn import fit_gbt, fit_tree
from vlp.render import apply_rolling_shutter, base_brightness, rasterize_panel
from vlp.vision import extract_corners

DECODE_HEIGHTS = (1.23, 1.3, 1.6, 1.66)


def _verdict(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def model_selection(tmp_path_factory):
    """The full-scale capture study shared by criteria 5 and 7."""
    out = tmp_path_factory.mktemp("model_selection")
    t0 = time.monotonic()
    reports = run_experiment(StudyConfig(study="model-selection", seed=0), str(out))
    return reports, time.monotonic() - t0


@pytest.mark.slow
def test_criterion_1_codec_round_trip(capsys, intr, panel):
    """All 256 ids survive encode -> shutter render -> extract -> decode ->
    match at every grid pose that keeps the panel in frame at the four
    heights. Corners come from the first striped frame of each pose; the
    stripes move with the id but the geometry does not."""
    t0 = time.monotonic()
    grid = GridSpec(1.2, 0.2)
    merge = stripe_merge_radius(intr)
    waveforms = [dm_encode(i) for i in range(256)]
    databases = [LedDatabase([LedRecord(i, Vec3(0.0, 0.0, 2.56))])
                 for i in range(256)]
    poses = checks = failures = 0
    for h in DECODE_HEIGHTS:
        for x in grid.coordinates():
            for y in grid.coordinates():
                pose = Pose(Vec3(float(x), float(y), h), Attitude())
                try:
                    want = project_panel_corners(intr, pose, panel)
                except BehindCamera:
                    continue
                if not in_fov(want, intr):
                    continue
                poses += 1
                base = rasterize_panel(intr, pose, panel,
                                       base_brightness(pose, panel, intr))
                corners = None
                for led_id in range(256):
                    striped = apply_rolling_shutter(base, base.quad,
                                                    waveforms[led_id],
                                                    phase_us=0.0)
                    if corners is None:
                        corners = extract_corners(striped, merge_radius=merge)
                    checks += 1
                    try:
                        profile = extract_row_profile(striped, corners)
                        candidates = dm_decode(profile, intr.row_readout_us,
                                               intr.exposure_us)
                        rec = match_id(candidates, databases[led_id])
                        if rec.id != led_id:
                            failures += 1
                    except VlpError:
                        failures += 1
    elapsed = time.monotonic() - t0
    ok = poses > 0 and failures == 0 and elapsed < 300.0
    _verdict(capsys, 1, ok,
             f"{checks} id round trips over {poses} in-frame poses at "
             f"heights {DECODE_HEIGHTS}, {failures} failures, "
             f"{elapsed:.1f}s (limit 300s)")
    assert ok


def test_criterion_2_tree_oracle_equivalence(capsys):
    """Greedy tree SSE equals a from-scratch exhaustive split enumeration on
    200 random datasets, half continuous, half rounded to force duplicate
    feature values."""
    t0 = time.monotonic()
    g = rng(202)
    worst = 0.0
    for k in range(200):
        n = int(g.integers(2, 21))
        f = int(g.integers(1, 7))
        if k % 2:
            x = np.round(g.uniform(0.0, 4.0, size=(n, f)), 1)
            y = np.round(g.normal(size=n), 2)
        else:
            x = g.normal(size=(n, f))
            y = g.normal(size=n)
        depth = int(g.integers(1, 4))
        tree = fit_tree(x, y, max_depth=depth)
        worst = max(worst, abs(tree_sse(tree, x, y)
                               - exhaustive_tree_sse(x, y, depth)))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-9 and elapsed < 60.0
    _verdict(capsys, 2, ok,
             f"200 datasets (N <= 20, depth <= 3), worst |SSE - oracle| "
             f"{worst:.3e} (limit 1e-9), {elapsed:.1f}s (limit 60s)")
    assert ok


def test_criterion_3_gbt_leaf_identity(capsys):
    """100 randomly sampled leaves satisfy w = -G/(H + lambda) against
    gradients replayed independently of the training code."""
    g = rng(303)
    x = g.uniform(-3.0, 3.0, size=(240, 6))
    y = (np.sin(x[:, 0]) + 0.5 * x[:, 1] - 0.25 * x[:, 2] * x[:, 3]
         + 0.1 * g.normal(size=240))
    model = fit_gbt(x, y, rounds=20, learning_rate=0.3, max_depth=3,
                    reg_lambda=1.0)
    errors = gbt_leaf_identity_errors(model, x, y, reg_lambda=1.0)
    picked = g.choice(len(errors), size=100, replace=False)
    worst = max(errors[int(i)][0] for i in picked)
    ok = len(errors) >= 100 and worst < 1e-10
    _verdict(capsys, 3, ok,
             f"100 of {len(errors)} leaves sampled, worst relative error "
             f"{worst:.3e} (limit 1e-10)")
    assert ok


def test_criterion_4_mlp_gradient_check(capsys):
    worst = max(finite_difference_worst_rel([3, 5, 1], n=7, seed=31),
                finite_difference_worst_rel([2, 4, 3, 1], n=5, seed=32),
                finite_difference_worst_rel([8, 6, 1], n=9, seed=33))
    ok = worst < 1e-4
    _verdict(capsys, 4, ok,
             f"3 micro-nets, worst relative gradient disagreement "
             f"{worst:.3e} (limit 1e-4)")
    assert ok


@pytest.mark.slow
def test_criterion_5_in_distribution_fit(capsys, model_selection):
    """GBT trained on 8 noisy captures per location, tested on the held-out
    2: clean test features under 1 cm mean, default-noise test features
    under 5 cm mean."""
    reports, elapsed = model_selection
    clean = reports["gbt/test-clean"].mean_3d_error_cm
    noisy = reports["gbt/test-noisy"].mean_3d_error_cm
    ok = clean < 1.0 and noisy < 5.0 and elapsed < 600.0
    _verdict(capsys, 5, ok,
             f"gbt mean 3D error {clean:.3f} cm clean (limit 1), "
             f"{noisy:.3f} cm noisy (limit 5), study took {elapsed:.1f}s "
             f"(limit 600s)")
    assert ok


@pytest.mark.slow
def test_criterion_6_height_generalization(capsys, tmp_path_factory):
    """Train on a clean pose sweep at 1.56/1.76 m, test on noisy captures at
    1.23/1.6 m. Tree ensembles predict constants per leaf, so height
    extrapolation bottoms out at the 33 cm gap between the nearest training
    height and 1.23 m; the mean clause fails honestly. The z-axis clause
    (smallest p90 of the three axes at 1.23 m) does hold."""
    out = tmp_path_factory.mktemp("height_gen")
    reports = run_experiment(StudyConfig(study="height-generalization", seed=0),
                             str(out))
    mean = reports["gbt/test"].mean_3d_error_cm
    p90 = reports["gbt/test-h1.23"].axis_p90_cm
    mean_ok = mean < 10.0
    z_ok = p90["z"] < p90["x"] and p90["z"] < p90["y"]
    ok = mean_ok and z_ok
    _verdict(capsys, 6, ok,
             f"mean {mean:.2f} cm (limit 10: {'met' if mean_ok else 'NOT met'}); "
             f"z p90 at 1.23 m {p90['z']:.2f} cm vs x {p90['x']:.2f} / "
             f"y {p90['y']:.2f} (smallest: {'yes' if z_ok else 'no'})")
    assert ok, ("piecewise-constant models cannot close a 33 cm height "
                "gap; see the README accuracy notes")


@pytest.mark.slow
def test_criterion_7_model_ranking(capsys, model_selection):
    """On the clean held-out captures: p90 gbt <= forest < mlp, and the gbt
    error CDF dominates the forest CDF at the forest's p90."""
    reports, _ = model_selection
    p90 = {k: reports[f"{k}/test-clean"].p90_error_cm
           for k in ("forest", "gbt", "mlp")}
    gbt_cdf = np.asarray(reports["gbt/test-clean"].cdf_3d_cm)
    forest_cdf = np.asarray(reports["forest/test-clean"].cdf_3d_cm)
    t = p90["forest"]
    frac_gbt = float((gbt_cdf <= t).mean())
    frac_forest = float((forest_cdf <= t).mean())
    ok = p90["gbt"] <= p90["forest"] < p90["mlp"] and frac_gbt >= frac_forest
    _verdict(capsys, 7, ok,
             f"p90 gbt {p90['gbt']:.3f} <= forest {p90['forest']:.3f} "
             f"< mlp {p90['mlp']:.3f} cm; CDF at forest p90: gbt "
             f"{frac_gbt:.3f} >= forest {frac_forest:.3f}")
    assert ok


def test_criterion_8_sweep_retention_ordering(capsys, intr, panel):
    ds = generate_sweep(SweepSpec((1.3, 1.66)), intr, panel)
    n_low = int((ds.height_m == 1.3).sum())
    n_high = int((ds.height_m == 1.66).sum())
    ok = n_low < n_high
    _verdict(capsys, 8, ok,
             f"45-degree sweep retains {n_low} poses at 1.3 m < {n_high} "
             f"at 1.66 m")
    assert ok


@pytest.mark.slow
def test_criterion_9_thread_count_determinism(capsys, tmp_path):
    """Each study rerun with the same seed emits byte-identical report
    trees when the BLAS/OpenMP thread counts differ. Studies run at a
    reduced scale through the installed CLI so the thread environment is
    inherited by a fresh interpreter."""
    t0 = time.monotonic()
    common = (
        "seed = 3\n"
        "grid.extent_m = 0.8\n"
        "grid.spacing_m = 0.4\n"
        "capture.per_location = 4\n"
        "models.forest_trees = 30\n"
        "models.gbt_rounds = 40\n"
        "models.mlp_epochs = 10\n"
    )
    studies = ("model-selection", "sim-vs-capture", "height-generalization")
    total_files = 0
    all_same = True
    for study in studies:
        cfg = tmp_path / f"{study}.cfg"
        cfg.write_text(f"study = {study}\n{common}")
        trees = []
        for threads in ("1", "4"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            out = tmp_path / f"{study}_threads{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "vlp.cli", "report",
                 "--out", str(out), "--config", str(cfg)],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            trees.append({p.name: p.read_bytes()
                          for p in sorted(out.iterdir())})
        total_files += len(trees[0])
        if trees[0] != trees[1]:
            all_same = False
    elapsed = time.monotonic() - t0
    ok = all_same and total_files > 0
    _verdict(capsys, 9, ok,
             f"{len(studies)} studies x 2 thread counts, {total_files} "
             f"report files byte-identical, {elapsed:.1f}s")
    assert ok
