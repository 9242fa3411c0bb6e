"""Canned experiment studies over the sweep/capture/train/evaluate chain,
and the key=value files that configure them.

Every random choice in a study derives from the single config seed, and
every emitted file is byte-stable across reruns of the same config.

Config file format: one `dotted.key = value` per line, `#` comments, blank
lines ignored. Lists are comma separated. Every diagnostic names the
offending key so a bad config is fixable from the error alone.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass

import numpy as np

from ..errors import ConfigError
from ..learn import MODEL_KINDS, fit_forest, fit_gbt, fit_mlp, fit_position_model
from .report import (EvalReport, evaluate, write_cdf_csv, write_grid_csv,
                     write_grid_svg, write_report)
from .sweep import (CLEAN_TAG, CaptureSpec, GridSpec, SweepSpec,
                    generate_capture_set, generate_sweep, split)

__all__ = ["StudyConfig", "run_experiment", "STUDIES", "parse_config_file",
           "build_study_config"]

# study -> (the model kinds it fits by default, every kind it can fit);
# model-selection fits the single tree only when model_kinds lists it
_STUDY_KINDS = {
    "model-selection": (("forest", "gbt", "mlp"), MODEL_KINDS),
    "sim-vs-capture": (("forest", "gbt"), ("forest", "gbt")),
    "height-generalization": (("gbt",), ("gbt",)),
}
STUDIES = tuple(_STUDY_KINDS)
# what draws from which of a study's eight seeds: model-selection's
# captures, its split, each model kind's fit, and the captures of the two
# sweep-trained studies
_SEED_SLOT = {"selection-capture": 0, "split": 1, "forest": 2, "gbt": 3, "mlp": 4,
              "sweep-trained-capture": 5, "tree": 6}


@dataclass(frozen=True)
class StudyConfig:
    """Parameters for one study run. The grid, sweep, capture and fitter
    defaults are the specs' and fitters' own; the heights, the split, the
    kinds and the gbt depth and learning rate are the study's scale.
    model_kinds defaults to the study's own kinds."""

    study: str
    seed: int = 0
    grid_extent_m: float = GridSpec.extent_m
    grid_spacing_m: float = GridSpec.spacing_m
    angle_step_deg: int = SweepSpec.angle_step_deg
    per_location: int = CaptureSpec.per_location
    test_per_location: int = 2
    corner_jitter_px: float = CaptureSpec.corner_jitter_px
    pixel_sigma: float = CaptureSpec.pixel_sigma
    yaw_limit_deg: float = CaptureSpec.yaw_limit_deg
    tilt_max_deg: float = CaptureSpec.tilt_max_deg
    heights_capture: tuple[float, ...] = (1.3, 1.66)
    heights_sweep_train: tuple[float, ...] = (1.56, 1.76)
    heights_test: tuple[float, ...] = (1.23, 1.6)
    model_kinds: tuple[str, ...] | None = None
    forest_trees: int = fit_forest.__kwdefaults__["n_trees"]
    gbt_rounds: int = fit_gbt.__kwdefaults__["rounds"]
    gbt_depth: int = 10
    gbt_lr: float = 0.1
    mlp_epochs: int = fit_mlp.__kwdefaults__["epochs"]
    mlp_batch: int = fit_mlp.__kwdefaults__["batch_size"]

    def __post_init__(self):
        if self.study not in STUDIES:
            raise ValueError(f"unknown study {self.study!r}; pick one of {STUDIES}")
        default_kinds, fittable = _STUDY_KINDS[self.study]
        if self.model_kinds is None:
            object.__setattr__(self, "model_kinds", default_kinds)
        # check here what the split and the fitters would reject, and build
        # every spec a study can run on so their checks fire too, all before
        # run_experiment creates the output directory
        if (self.study == "model-selection"
                and not 1 <= self.test_per_location < self.per_location):
            raise ValueError(
                f"test_per_location must be in [1, per_location), got "
                f"{self.test_per_location} of {self.per_location}")
        if not self.model_kinds:
            raise ValueError("model_kinds is empty")
        for kind in self.model_kinds:
            if kind not in MODEL_KINDS:
                raise ValueError(f"unknown model kind {kind!r}")
        if len(set(self.model_kinds)) < len(self.model_kinds):
            raise ValueError(f"model_kinds {list(self.model_kinds)} repeats a kind")
        unfit = [kind for kind in self.model_kinds if kind not in fittable]
        if unfit:
            raise ValueError(f"{self.study} cannot fit {unfit}; it fits {list(fittable)}")
        if self.forest_trees < 1:
            raise ValueError("forest_trees must be >= 1")
        if self.gbt_rounds < 0 or self.gbt_depth < 0 or self.mlp_epochs < 0:
            raise ValueError("gbt_rounds, gbt_depth and mlp_epochs must be >= 0")
        if not self.gbt_lr > 0:
            raise ValueError("gbt_lr must be > 0")
        if self.mlp_batch < 1:
            raise ValueError("mlp_batch must be >= 1")
        self.sweep_spec(self.heights_sweep_train)
        self.capture_spec(self.heights_capture, 0)
        self.capture_spec(self.heights_test, 0)

    def grid(self) -> GridSpec:
        return GridSpec(self.grid_extent_m, self.grid_spacing_m)

    def sweep_spec(self, heights: tuple[float, ...]) -> SweepSpec:
        return SweepSpec(heights, angle_step_deg=self.angle_step_deg, grid=self.grid())

    def capture_spec(self, heights: tuple[float, ...], seed: int) -> CaptureSpec:
        return CaptureSpec(heights, grid=self.grid(), per_location=self.per_location,
                           yaw_limit_deg=self.yaw_limit_deg,
                           tilt_max_deg=self.tilt_max_deg, seed=seed,
                           corner_jitter_px=self.corner_jitter_px,
                           pixel_sigma=self.pixel_sigma)

    def echo(self) -> dict:
        d = asdict(self)
        for k, v in d.items():
            if isinstance(v, tuple):
                d[k] = list(v)
        return d


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


def _as_words(key, raw):
    return tuple(p.strip() for p in raw.split(",") if p.strip())


# config key -> (StudyConfig field, parser)
_KEYS = {
    "study": ("study", lambda key, raw: raw),
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
    "models.kinds": ("model_kinds", _as_words),
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



def run_experiment(cfg: StudyConfig, out_dir: str) -> dict[str, EvalReport]:
    """Run one canned study and write its reports under out_dir.

    Returns the reports keyed "kind/variant". Variants: test-clean and
    test-noisy for model-selection (held-out captures with and without
    noise on the evaluated features), test-capture for sim-vs-capture,
    and test plus its test-h<height> slices for height-generalization.
    """
    os.makedirs(out_dir, exist_ok=True)
    seeds = np.random.SeedSequence(cfg.seed).generate_state(8, np.uint64)
    seed_for = {use: int(seeds[slot]) for use, slot in _SEED_SLOT.items()}
    # each study builds its training set, its test sets keyed by variant,
    # and the capture set whose dropped rows the reports count
    if cfg.study == "model-selection":
        caps = generate_capture_set(
            cfg.capture_spec(cfg.heights_capture, seed_for["selection-capture"]),
            clean_reference=True)
        train, noisy = split(caps, cfg.test_per_location, seed_for["split"])
        tests = {"test-clean": noisy.with_features(noisy.clean_features, CLEAN_TAG),
                 "test-noisy": noisy}
    elif cfg.study == "sim-vs-capture":
        train = generate_sweep(cfg.sweep_spec(cfg.heights_capture))
        caps = generate_capture_set(
            cfg.capture_spec(cfg.heights_capture, seed_for["sweep-trained-capture"]))
        tests = {"test-capture": caps}
    else:  # height-generalization: train heights disjoint from test heights
        train = generate_sweep(cfg.sweep_spec(cfg.heights_sweep_train))
        caps = generate_capture_set(
            cfg.capture_spec(cfg.heights_test, seed_for["sweep-trained-capture"]))
        tests = {"test": caps}
        for h in cfg.heights_test:
            tests[f"test-h{h!r}"] = caps.subset(caps.height_m == float(h))
    base = dict(cfg.echo(), train_rows=len(train), capture_dropped=caps.dropped)
    params = {"tree": {}, "forest": {"n_trees": cfg.forest_trees},
              "gbt": {"rounds": cfg.gbt_rounds, "max_depth": cfg.gbt_depth,
                      "learning_rate": cfg.gbt_lr},
              "mlp": {"epochs": cfg.mlp_epochs, "batch_size": cfg.mlp_batch}}
    reports: dict[str, EvalReport] = {}
    for kind in cfg.model_kinds:
        model = fit_position_model(train.features, train.targets, kind,
                                   seed=seed_for[kind], **params[kind])
        for variant, test in tests.items():
            report = evaluate(model, test, config=dict(base, variant=variant))
            reports[f"{kind}/{variant}"] = report
            name = f"{cfg.study}_{kind}_{variant}"
            write_report(os.path.join(out_dir, f"report_{name}.json"), report)
            write_cdf_csv(os.path.join(out_dir, f"cdf3d_{name}.csv"), report.cdf_3d_cm)
            write_grid_csv(os.path.join(out_dir, f"grid_{name}.csv"), report.per_grid)
            for h in sorted({g["height_m"] for g in report.per_grid}):
                write_grid_svg(os.path.join(out_dir, f"heat_{name}_h{h!r}.svg"),
                               report.per_grid, h)
    return reports
