"""Key=value study configuration files.

Format: one `dotted.key = value` per line, `#` comments, blank lines
ignored. Lists are comma separated. Every diagnostic names the offending
key so a bad config is fixable from the error alone.
"""

from __future__ import annotations

from .errors import ConfigError
from .harness.studies import STUDIES, StudyConfig

__all__ = ["parse_config_file", "build_study_config"]


def parse_config_file(path) -> dict[str, str]:
    """Flat key -> raw string mapping; duplicate keys are an error."""
    out: dict[str, str] = {}
    # undecodable bytes become U+FFFD and fail the key or value check
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(stripped, f"line {lineno} is not key=value")
            key, value = stripped.split("=", 1)
            key = key.strip()
            if not key:
                raise ConfigError("", f"line {lineno} has an empty key")
            if key in out:
                raise ConfigError(key, "duplicate key")
            out[key] = value.strip()
    return out


def _as_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(key, f"expected an integer, got {raw!r}") from None


def _as_float(key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(key, f"expected a number, got {raw!r}") from None


def _as_floats(key, raw):
    try:
        vals = tuple(float(p) for p in raw.split(",") if p.strip())
    except ValueError:
        raise ConfigError(key, f"expected comma-separated numbers, got {raw!r}") from None
    if not vals:
        raise ConfigError(key, "empty list")
    return vals


def _as_kinds(key, raw):
    kinds = tuple(p.strip() for p in raw.split(",") if p.strip())
    allowed = {"tree", "forest", "gbt", "mlp"}
    for k in kinds:
        if k not in allowed:
            raise ConfigError(key, f"unknown model kind {k!r}")
    if not kinds:
        raise ConfigError(key, "empty list")
    return kinds


def _as_study(key, raw):
    if raw not in STUDIES:
        raise ConfigError(key, f"unknown study {raw!r}; pick one of {STUDIES}")
    return raw


# config key -> (StudyConfig field, parser)
_KEYS = {
    "study": ("study", _as_study),
    "seed": ("seed", _as_int),
    "grid.extent_m": ("grid_extent_m", _as_float),
    "grid.spacing_m": ("grid_spacing_m", _as_float),
    "sweep.angle_step_deg": ("angle_step_deg", _as_int),
    "capture.per_location": ("per_location", _as_int),
    "capture.test_per_location": ("test_per_location", _as_int),
    "capture.yaw_limit_deg": ("yaw_limit_deg", _as_float),
    "capture.tilt_max_deg": ("tilt_max_deg", _as_float),
    "noise.corner_jitter_px": ("corner_jitter_px", _as_float),
    "noise.pixel_sigma": ("pixel_sigma", _as_float),
    "heights.capture": ("heights_capture", _as_floats),
    "heights.sweep_train": ("heights_sweep_train", _as_floats),
    "heights.test": ("heights_test", _as_floats),
    "models.kinds": ("model_kinds", _as_kinds),
    "models.forest_trees": ("forest_trees", _as_int),
    "models.gbt_rounds": ("gbt_rounds", _as_int),
    "models.gbt_depth": ("gbt_depth", _as_int),
    "models.gbt_lr": ("gbt_lr", _as_float),
    "models.mlp_epochs": ("mlp_epochs", _as_int),
    "models.mlp_batch": ("mlp_batch", _as_int),
}


def build_study_config(raw: dict[str, str], **overrides) -> StudyConfig:
    """Typed StudyConfig from raw string pairs plus keyword overrides.

    Unknown keys and unparseable values raise ConfigError naming the key.
    Overrides (already typed, e.g. from CLI flags) win over the file.
    """
    fields: dict = {}
    for key, rawval in raw.items():
        spec = _KEYS.get(key)
        if spec is None:
            raise ConfigError(key, "unknown configuration key")
        name, parse = spec
        fields[name] = parse(key, rawval)
    fields.update(overrides)
    if "study" not in fields:
        raise ConfigError("study", "missing (set study=... or pass --study)")
    try:
        return StudyConfig(**fields)
    except (ValueError, TypeError) as exc:
        raise ConfigError("study", str(exc)) from None
