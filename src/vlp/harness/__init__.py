"""Experiment harness: pose sweeps, synthetic capture sets, dataset
splits, error evaluation, deterministic reports, and the canned studies
with their config files."""

from .sweep import (
    GridSpec,
    SweepSpec,
    CaptureSpec,
    Dataset,
    generate_sweep,
    generate_capture_set,
    split,
)
from .report import (EvalReport, evaluate, render_report_json, write_report,
                     write_cdf_csv, write_grid_csv, write_grid_svg)
from .studies import (STUDIES, StudyConfig, build_study_config, parse_config_file,
                      run_experiment)

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
    "STUDIES",
    "StudyConfig",
    "run_experiment",
    "parse_config_file",
    "build_study_config",
]
