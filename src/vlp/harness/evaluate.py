"""Positioning error metrics: Euclidean 3D error in centimeters, CDFs,
percentiles, and per-grid-location aggregation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import EmptyTestSet
from ..learn.model import AXES
from .sweep import Dataset

__all__ = ["EvalReport", "evaluate"]


@dataclass
class EvalReport:
    """Evaluation summary over a test set.

    CDF arrays are the sorted error samples; the empirical CDF is the step
    function through (value[k], (k+1)/n). p90 uses the inverted-CDF
    percentile (a sample value, not an interpolation).
    """

    n_rows: int
    mean_3d_error_cm: float
    p90_error_cm: float
    max_error_cm: float
    axis_mean_cm: dict
    axis_p90_cm: dict
    cdf_3d_cm: np.ndarray
    cdf_axis_cm: dict
    per_grid: list
    dropped_rows: int = 0
    config: dict = field(default_factory=dict)


def evaluate(model, test: Dataset, *, config: dict | None = None) -> EvalReport:
    """Predict every test row and summarize the error distribution."""
    if len(test) == 0:
        raise EmptyTestSet("evaluation needs at least one test row")
    preds = model.predict(test.features)
    diff = preds - test.targets
    e3 = 100.0 * np.linalg.norm(diff, axis=1)
    eaxis = 100.0 * np.abs(diff)

    per_grid = []
    for (h, i, j), rows in test.locations():
        per_grid.append({
            "height_m": h,
            "grid_i": i,
            "grid_j": j,
            "mean_error_cm": float(e3[rows].mean()),
            "count": int(rows.size),
        })

    p90 = float(np.percentile(e3, 90, method="inverted_cdf"))
    return EvalReport(
        n_rows=len(test),
        mean_3d_error_cm=float(e3.mean()),
        p90_error_cm=p90,
        max_error_cm=float(e3.max()),
        axis_mean_cm={a: float(eaxis[:, k].mean()) for k, a in enumerate(AXES)},
        axis_p90_cm={a: float(np.percentile(eaxis[:, k], 90, method="inverted_cdf"))
                     for k, a in enumerate(AXES)},
        cdf_3d_cm=np.sort(e3),
        cdf_axis_cm={a: np.sort(eaxis[:, k]) for k, a in enumerate(AXES)},
        per_grid=per_grid,
        dropped_rows=test.dropped,
        config=dict(config or {}),
    )
