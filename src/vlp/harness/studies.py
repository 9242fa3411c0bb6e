"""Canned experiment studies over the sweep/capture/train/evaluate chain.

Every random choice in a study derives from the single config seed, and
every emitted file is byte-stable across reruns of the same config.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass

import numpy as np

from ..geometry import CameraIntrinsics, LedPanel
from ..learn import fit_position_model
from .evaluate import EvalReport, evaluate
from .report import write_cdf_csv, write_grid_csv, write_grid_svg, write_report
from .sweep import (CLEAN_TAG, CaptureSpec, Dataset, GridSpec, SweepSpec,
                    generate_capture_set, generate_sweep, split)

__all__ = ["StudyConfig", "run_experiment", "STUDIES"]

STUDIES = ("model-selection", "sim-vs-capture", "height-generalization")


@dataclass(frozen=True)
class StudyConfig:
    """Parameters for one study run; defaults mirror the experiment scale
    of the measurement campaign the harness models."""

    study: str
    seed: int = 0
    grid_extent_m: float = 1.2
    grid_spacing_m: float = 0.2
    angle_step_deg: int = 45
    per_location: int = 10
    test_per_location: int = 2
    corner_jitter_px: float = 1.0
    pixel_sigma: float = 0.02
    yaw_limit_deg: float = 0.05
    tilt_max_deg: float = 0.05
    heights_capture: tuple[float, ...] = (1.3, 1.66)
    heights_sweep_train: tuple[float, ...] = (1.56, 1.76)
    heights_test: tuple[float, ...] = (1.23, 1.6)
    model_kinds: tuple[str, ...] = ("forest", "gbt", "mlp")
    forest_trees: int = 150
    gbt_rounds: int = 150
    gbt_depth: int = 10
    gbt_lr: float = 0.1
    mlp_epochs: int = 80
    mlp_batch: int = 64

    def __post_init__(self):
        if self.study not in STUDIES:
            raise ValueError(f"unknown study {self.study!r}; pick one of {STUDIES}")
        # build every spec a study can run on, so their checks fire here,
        # before run_experiment creates the output directory
        self.sweep_spec(self.heights_sweep_train)
        self.capture_spec(self.heights_capture, 0)
        self.capture_spec(self.heights_test, 0)

    def grid(self) -> GridSpec:
        return GridSpec(self.grid_extent_m, self.grid_spacing_m)

    def sweep_spec(self, heights: tuple[float, ...]) -> SweepSpec:
        return SweepSpec(heights, self.angle_step_deg, self.grid())

    def capture_spec(self, heights: tuple[float, ...], seed: int) -> CaptureSpec:
        return CaptureSpec(heights, self.grid(), self.per_location,
                           self.yaw_limit_deg, self.tilt_max_deg, seed)

    def echo(self) -> dict:
        d = asdict(self)
        for k, v in d.items():
            if isinstance(v, tuple):
                d[k] = list(v)
        return d


_KIND_SEED_SLOT = {"forest": 2, "gbt": 3, "mlp": 4, "tree": 6}


def _fit(cfg: StudyConfig, kind: str, train: Dataset, seeds):
    params = {}
    if kind == "forest":
        params["n_trees"] = cfg.forest_trees
    elif kind == "gbt":
        params["rounds"] = cfg.gbt_rounds
        params["max_depth"] = cfg.gbt_depth
        params["learning_rate"] = cfg.gbt_lr
    elif kind == "mlp":
        params["epochs"] = cfg.mlp_epochs
        params["batch_size"] = cfg.mlp_batch
    return fit_position_model(train.features, train.targets, kind,
                              seed=int(seeds[_KIND_SEED_SLOT[kind]]), **params)


def _emit(out_dir: str, slug: str, report: EvalReport) -> None:
    write_report(os.path.join(out_dir, f"report_{slug}.json"), report)
    write_cdf_csv(os.path.join(out_dir, f"cdf3d_{slug}.csv"), report.cdf_3d_cm)
    write_grid_csv(os.path.join(out_dir, f"grid_{slug}.csv"), report.per_grid)
    for h in sorted({g["height_m"] for g in report.per_grid}):
        write_grid_svg(os.path.join(out_dir, f"heat_{slug}_h{h!r}.svg"),
                       report.per_grid, h)


def run_experiment(cfg: StudyConfig, out_dir: str,
                   intr: CameraIntrinsics | None = None,
                   panel: LedPanel | None = None) -> dict[str, EvalReport]:
    """Run one canned study and write its reports under out_dir.

    Returns the reports keyed "kind/variant". Variants: test-clean and
    test-noisy for model-selection (held-out captures with and without
    noise on the evaluated features), test-capture for the train-on-sim
    studies, plus per-height slices for height-generalization.
    """
    intr = intr or CameraIntrinsics()
    panel = panel or LedPanel()
    os.makedirs(out_dir, exist_ok=True)
    seeds = np.random.SeedSequence(cfg.seed).generate_state(8, np.uint64)
    echo = cfg.echo()
    reports: dict[str, EvalReport] = {}

    def emit(kind: str, variant: str, report: EvalReport) -> None:
        reports[f"{kind}/{variant}"] = report
        _emit(out_dir, f"{cfg.study}_{kind}_{variant}", report)

    if cfg.study == "model-selection":
        caps = generate_capture_set(
            cfg.capture_spec(cfg.heights_capture, int(seeds[0])), intr, panel,
            corner_jitter_px=cfg.corner_jitter_px, pixel_sigma=cfg.pixel_sigma,
            clean_reference=True)
        train, test_noisy = split(caps, cfg.test_per_location, int(seeds[1]))
        test_clean = test_noisy.with_features(test_noisy.clean_features, CLEAN_TAG)
        base = dict(echo, train_rows=len(train), capture_dropped=caps.dropped)
        for kind in cfg.model_kinds:
            model = _fit(cfg, kind, train, seeds)
            emit(kind, "test-clean",
                 evaluate(model, test_clean, config=dict(base, variant="test-clean")))
            emit(kind, "test-noisy",
                 evaluate(model, test_noisy, config=dict(base, variant="test-noisy")))
        return reports

    if cfg.study == "sim-vs-capture":
        sweep = generate_sweep(cfg.sweep_spec(cfg.heights_capture), intr, panel)
        caps = generate_capture_set(
            cfg.capture_spec(cfg.heights_capture, int(seeds[5])), intr, panel,
            corner_jitter_px=cfg.corner_jitter_px, pixel_sigma=cfg.pixel_sigma)
        base = dict(echo, train_rows=len(sweep), capture_dropped=caps.dropped)
        for kind in [k for k in cfg.model_kinds if k in ("forest", "gbt")]:
            model = _fit(cfg, kind, sweep, seeds)
            emit(kind, "test-capture",
                 evaluate(model, caps, config=dict(base, variant="test-capture")))
        return reports

    # height-generalization: train heights disjoint from test heights
    sweep = generate_sweep(cfg.sweep_spec(cfg.heights_sweep_train), intr, panel)
    caps = generate_capture_set(
        cfg.capture_spec(cfg.heights_test, int(seeds[5])), intr, panel,
        corner_jitter_px=cfg.corner_jitter_px, pixel_sigma=cfg.pixel_sigma)
    base = dict(echo, train_rows=len(sweep), capture_dropped=caps.dropped)
    model = _fit(cfg, "gbt", sweep, seeds)
    emit("gbt", "test", evaluate(model, caps, config=dict(base, variant="test")))
    for h in cfg.heights_test:
        sub = caps.subset(caps.height_m == float(h))
        emit("gbt", f"test-h{h!r}",
             evaluate(model, sub, config=dict(base, variant=f"test-h{h!r}")))
    return reports
