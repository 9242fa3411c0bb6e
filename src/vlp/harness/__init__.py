"""Experiment harness: pose sweeps, synthetic capture sets, dataset
splits, error evaluation, deterministic reports, and the canned studies."""

from .sweep import (
    GridSpec,
    SweepSpec,
    CaptureSpec,
    Dataset,
    generate_sweep,
    generate_capture_set,
    split,
)
from .evaluate import EvalReport, evaluate
from .report import render_report_json, write_report, write_cdf_csv, write_grid_csv, write_grid_svg
from .studies import StudyConfig, run_experiment

__all__ = [
    "GridSpec",
    "SweepSpec",
    "CaptureSpec",
    "Dataset",
    "generate_sweep",
    "generate_capture_set",
    "split",
    "EvalReport",
    "evaluate",
    "render_report_json",
    "write_report",
    "write_cdf_csv",
    "write_grid_csv",
    "write_grid_svg",
    "StudyConfig",
    "run_experiment",
]
