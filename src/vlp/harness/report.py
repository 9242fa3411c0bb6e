"""Evaluation reports: positioning error metrics (Euclidean 3D error in
centimeters, CDFs, percentiles and per-grid-location aggregation) and
their deterministic emission as canonical JSON, CDF and per-grid CSV, and
a dependency-free SVG heat map.

Everything written here must be byte-stable for identical inputs: keys are
sorted, floats serialize through repr, and nothing stamps times or
hostnames.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from ..errors import EmptyTestSet
from ..learn.model import AXES
from .sweep import Dataset

__all__ = ["EvalReport", "evaluate", "render_report_json", "write_report",
           "write_cdf_csv", "write_grid_csv", "write_grid_svg"]


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


def render_report_json(report: EvalReport) -> str:
    """The report's fields by name, arrays as lists."""
    return json.dumps(asdict(report), sort_keys=True,
                      separators=(",", ":"), default=np.ndarray.tolist) + "\n"


def write_report(path, report: EvalReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_report_json(report))


def write_cdf_csv(path, errors_cm: np.ndarray) -> None:
    """Empirical CDF samples: sorted error values against cumulative
    fraction (k+1)/n."""
    vals = np.sort(np.asarray(errors_cm, dtype=np.float64))
    n = vals.size
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("error_cm,fraction\n")
        for k, v in enumerate(vals):
            fh.write(f"{float(v)!r},{repr((k + 1) / n)}\n")


def write_grid_csv(path, per_grid: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("height_m,grid_i,grid_j,mean_error_cm,count\n")
        for g in per_grid:
            fh.write(f"{float(g['height_m'])!r},{g['grid_i']},{g['grid_j']},"
                     f"{float(g['mean_error_cm'])!r},{g['count']}\n")


def _heat_color(frac: float) -> str:
    """White through amber to crimson."""
    frac = min(1.0, max(0.0, frac))
    if frac < 0.5:
        t = frac / 0.5
        r, g, b = 255, int(round(255 - 90 * t)), int(round(255 - 200 * t))
    else:
        t = (frac - 0.5) / 0.5
        r, g, b = int(round(255 - 75 * t)), int(round(165 - 130 * t)), int(round(55 - 15 * t))
    return f"#{r:02x}{g:02x}{b:02x}"


def write_grid_svg(path, per_grid: list, height_m: float) -> None:
    """Mean-error heat map over the measurement grid at one height."""
    cells = [g for g in per_grid if g["height_m"] == height_m]
    if not cells:
        raise ValueError(f"no per-grid entries at height {height_m}")
    n_i = max(g["grid_i"] for g in cells) + 1
    n_j = max(g["grid_j"] for g in cells) + 1
    vals = [g["mean_error_cm"] for g in cells]
    lo, hi = min(vals), max(vals)
    span = (hi - lo) or 1.0
    cell = 64
    pad = 28
    w = n_j * cell + 2 * pad
    h = n_i * cell + 2 * pad + 22
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{pad}" y="18" font-family="monospace" font-size="13">'
        f'mean 3D error (cm) at {height_m!r} m</text>',
    ]
    for g in cells:
        x = pad + g["grid_j"] * cell
        y = 22 + pad + g["grid_i"] * cell
        color = _heat_color((g["mean_error_cm"] - lo) / span)
        parts.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                     f'fill="{color}" stroke="#555"/>')
        parts.append(f'<text x="{x + cell // 2}" y="{y + cell // 2 + 4}" '
                     f'font-family="monospace" font-size="11" '
                     f'text-anchor="middle">{g["mean_error_cm"]:.2f}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
