"""Native frame synthesis: Lambertian brightness, scanline rasterization of
the projected panel quad, per-row rolling-shutter modulation, and capture
noise. Frames persist as binary PGM with a metadata comment line.

The brightness model is deliberately minimal: the panel is the only radiance
source, everything else is black at the short exposures this camera runs, so
a frame is a filled quad whose value comes from a Lambertian inverse-square
term, optionally striped by the shutter.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

import numpy as np

from .errors import MalformedFrame
from .geometry import (
    CameraIntrinsics,
    CornerSet,
    LedPanel,
    Pose,
    canonical_order,
    project_panel_corners,
)

# Calibration anchor: the default camera at 1.3 m nadir under the default
# panel lands this factor above saturation, so one exposure halving keeps it
# saturated and a second drops it below 1.0.
SATURATION_MARGIN = 2.5
_ANCHOR_D_M = 1.3
_ANCHOR_I0_CD = 3600.0 / math.pi
_ANCHOR_ISO = 100.0
_ANCHOR_EXPOSURE_US = 68.0
BRIGHTNESS_K = SATURATION_MARGIN * _ANCHOR_D_M**2 / (
    _ANCHOR_I0_CD * _ANCHOR_ISO * _ANCHOR_EXPOSURE_US
)


@dataclass(frozen=True)
class FrameMeta:
    """Capture settings a frame was generated with, each finite and positive."""

    exposure_us: float = 68.0
    row_readout_us: float = 2.5
    iso_gain: float = 100.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class Waveform:
    """Binary OOK level sequence, repeating in both directions.
    level_duration_us is the dwell per level."""

    levels: tuple
    level_duration_us: float

    def __post_init__(self):
        if len(self.levels) == 0:
            raise ValueError("waveform needs at least one level")
        if any(lv not in (0, 1) for lv in self.levels):
            raise ValueError("levels must be 0 or 1")
        if not (self.level_duration_us > 0):
            raise ValueError("level duration must be positive")
        object.__setattr__(self, "levels", tuple(int(lv) for lv in self.levels))

    @property
    def period_us(self) -> float:
        return len(self.levels) * self.level_duration_us

    @property
    def duty(self) -> float:
        return sum(self.levels) / len(self.levels)


class Frame:
    """A grayscale capture: (height, width) uint8 pixels plus capture meta.

    Frames synthesized in-process also carry their generation provenance
    (projected quad, fill value, per-row shutter factors) so capture noise
    can re-rasterize a perturbed quad; frames loaded from disk have none.
    """

    __slots__ = ("pixels", "meta", "quad", "fill", "row_factors")

    def __init__(self, pixels, meta: FrameMeta, quad: CornerSet | None = None,
                 fill: int | None = None, row_factors=None):
        px = np.asarray(pixels, dtype=np.uint8)
        if px.ndim != 2:
            raise ValueError(f"pixels must be 2-D, got shape {px.shape}")
        if px.flags.writeable:  # already-frozen arrays are shared, not copied
            px = px.copy()
            px.flags.writeable = False
        self.pixels = px
        self.meta = meta
        self.quad = quad
        self.fill = fill
        if row_factors is not None:
            row_factors = np.asarray(row_factors, dtype=np.float64).copy()
            row_factors.flags.writeable = False
        self.row_factors = row_factors

    @property
    def width_px(self) -> int:
        return self.pixels.shape[1]

    @property
    def height_px(self) -> int:
        return self.pixels.shape[0]


def write_pgm(frame: Frame, path) -> None:
    """Binary PGM (P5), with capture meta on a comment line. Bit-exact
    round-trip with read_pgm."""
    m = frame.meta
    header = (
        f"P5\n"
        f"# exposure_us={m.exposure_us!r} row_readout_us={m.row_readout_us!r} "
        f"iso_gain={m.iso_gain!r}\n"
        f"{frame.width_px} {frame.height_px}\n255\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(frame.pixels.tobytes())


def read_pgm(path) -> Frame:
    """Read a binary PGM written by write_pgm (or any 8-bit P5 file).

    Meta comes from the comment line when present, else defaults. Raises
    MalformedFrame on a bad header, raster or meta value.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise MalformedFrame(f"{path}: not a binary PGM (P5) file")
    meta_kv = {}
    pos = 2
    tokens = []
    while len(tokens) < 3:
        # token scanner that understands '#' comments
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos >= len(data):
            raise MalformedFrame(f"{path}: truncated PGM header")
        if data[pos : pos + 1] == b"#":
            end = data.find(b"\n", pos)
            end = len(data) if end < 0 else end
            comment = data[pos + 1 : end].decode("ascii", "replace")
            for key, val in re.findall(r"(\w+)=([-+0-9.eE]+)", comment):
                meta_kv[key] = val
            pos = end + 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    if not all(t.isdigit() for t in tokens):
        raise MalformedFrame(f"{path}: non-numeric PGM header field")
    width, height, maxval = (int(t) for t in tokens)
    if maxval != 255:
        raise MalformedFrame(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    pos += 1  # single whitespace byte after maxval
    raster = data[pos : pos + width * height]
    if len(raster) != width * height:
        raise MalformedFrame(f"{path}: raster size mismatch")
    try:
        meta = FrameMeta(**{f.name: float(meta_kv[f.name])
                            for f in fields(FrameMeta) if f.name in meta_kv})
    except ValueError as exc:
        raise MalformedFrame(f"{path}: bad capture meta: {exc}") from None
    px = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    return Frame(px, meta)


def base_brightness(pose: Pose, panel: LedPanel, intr: CameraIntrinsics) -> float:
    """Normalized panel pixel brightness in [0, 1] before shutter modulation.

    clamp(k * I / d^2 * iso_gain * exposure_us, 0, 1) with the Lambertian
    intensity I = (flux / pi) * cos(theta) toward the receiver, cos(theta)
    = z / d, and k calibrated so the defaults saturate at 1.3 m nadir.
    Background radiance is below quantization at these exposures, so
    non-panel pixels are 0.
    """
    d = pose.position.norm()
    intensity = panel.flux_lm / math.pi * (pose.position.z / d)
    raw = BRIGHTNESS_K * intensity * intr.iso_gain * intr.exposure_us / (d * d)
    return float(min(1.0, max(0.0, raw)))


def _quad_row_spans(points: np.ndarray, width: int, height: int):
    """Pixel-center column spans of a quad, per image row.

    Returns (row_lo, row_hi, col_lo, col_hi) where rows row_lo..row_hi-1
    intersect the quad and col_lo/col_hi give the inclusive column range of
    pixels whose centers fall inside on each of those rows. Rows with no
    covered pixel centers get col_lo > col_hi. Pixel (r, c) covers the unit
    square with center (c + 0.5, r + 0.5).
    """
    pts = np.asarray(points, dtype=np.float64)
    pts = pts[canonical_order(pts)]
    vmin, vmax = pts[:, 1].min(), pts[:, 1].max()
    row_lo = max(0, int(math.ceil(vmin - 0.5)))
    row_hi = min(height, int(math.floor(vmax - 0.5)) + 1)
    if row_hi <= row_lo:
        return row_lo, row_lo, np.zeros(0, np.int64), np.zeros(0, np.int64)
    y = np.arange(row_lo, row_hi, dtype=np.float64) + 0.5
    lo = np.full(y.shape, np.inf)
    hi = np.full(y.shape, -np.inf)
    for i in range(4):
        p, q = pts[i], pts[(i + 1) % 4]
        y0, y1 = p[1], q[1]
        if y0 == y1:
            continue
        # half-open row interval per edge so shared vertices count once
        inside = (y >= min(y0, y1)) & (y < max(y0, y1))
        if not inside.any():
            continue
        x = p[0] + (y[inside] - y0) * (q[0] - p[0]) / (y1 - y0)
        lo[inside] = np.minimum(lo[inside], x)
        hi[inside] = np.maximum(hi[inside], x)
    col_lo = np.where(np.isfinite(lo), np.ceil(lo - 0.5), 1).astype(np.int64)
    col_hi = np.where(np.isfinite(hi), np.floor(hi - 0.5), 0).astype(np.int64)
    col_lo = np.clip(col_lo, 0, width)
    col_hi = np.clip(col_hi, -1, width - 1)
    return row_lo, row_hi, col_lo, col_hi


def _fill_quad(shape: tuple[int, int], points: np.ndarray, fill: int) -> np.ndarray:
    """A zero uint8 raster of shape (height, width) with the quad's covered
    pixel centers set to fill."""
    px = np.zeros(shape, dtype=np.uint8)
    row_lo, row_hi, col_lo, col_hi = _quad_row_spans(points, shape[1], shape[0])
    for idx, r in enumerate(range(row_lo, row_hi)):
        if col_hi[idx] >= col_lo[idx]:
            px[r, col_lo[idx] : col_hi[idx] + 1] = fill
    return px


def _scale_rows(px: np.ndarray, points: np.ndarray, factors: np.ndarray) -> None:
    """Multiply, in place, the rows of px that the quad covers by their
    factors, rounding to the nearest level. Only the quad's rows and column
    band are touched."""
    row_lo, row_hi, col_lo, col_hi = _quad_row_spans(points, px.shape[1], px.shape[0])
    c0, c1 = col_lo.min(initial=px.shape[1]), col_hi.max(initial=-1)
    # In bands of 128 rows: a float64 copy of the whole panel (about 5 MB)
    # is a fresh mapping whose pages fault in on every call.
    for r in range(row_lo, row_hi, 128):
        rows = slice(r, min(r + 128, row_hi))
        block = px[rows, c0 : c1 + 1].astype(np.float64)
        block *= factors[rows, None]
        px[rows, c0 : c1 + 1] = np.rint(block, out=block)


def rasterize_panel(intr: CameraIntrinsics, pose: Pose, panel: LedPanel,
                    brightness: float) -> Frame:
    """Scanline-fill the projected panel quad at round(255 * brightness).

    Corners landing off-sensor clip the fill; whether a partially visible
    panel should be used at all is the sweep filter's decision, not this
    function's.
    """
    quad = project_panel_corners(intr, pose, panel)
    fill = int(round(255.0 * brightness))
    px = _fill_quad((intr.height_px, intr.width_px), quad.points, fill)
    px.flags.writeable = False
    meta = FrameMeta(intr.exposure_us, intr.row_readout_us, intr.iso_gain)
    return Frame(px, meta, quad=quad, fill=fill)


def _on_time_us(w: Waveform, t_us: np.ndarray) -> np.ndarray:
    """Cumulative on-time of the periodic waveform over [0, t) for each t
    (t may be negative)."""
    t = np.asarray(t_us, dtype=np.float64)
    dur = w.level_duration_us
    levels = np.asarray(w.levels, dtype=np.float64)
    prefix = np.concatenate([[0.0], np.cumsum(levels * dur)])
    cycles = np.floor(t / w.period_us)
    tau = t - cycles * w.period_us  # in [0, period]
    # on-time within [0, tau): whole levels before level j, then part of j
    j = np.minimum(np.floor(tau / dur).astype(np.int64), len(levels) - 1)
    return cycles * prefix[-1] + (prefix[j] + levels[j] * (tau - j * dur))


def row_exposure_fractions(w: Waveform, row_starts_us: np.ndarray, exposure_us: float) -> np.ndarray:
    """Fraction of [start, start + exposure] during which the waveform is
    on, for each row start time. Exact piecewise integration."""
    if not (exposure_us > 0):
        raise ValueError("exposure must be positive")
    starts = np.asarray(row_starts_us, dtype=np.float64)
    return (_on_time_us(w, starts + exposure_us) - _on_time_us(w, starts)) / exposure_us


def apply_rolling_shutter(frame: Frame, quad: CornerSet, w: Waveform, *,
                          phase_us: float = 0.0) -> Frame:
    """Scale each panel pixel of row r by the row's waveform exposure fraction.

    Row r starts exposing at t = r * row_readout_us + phase_us. Captures are
    unsynchronized, so callers draw the phase over one waveform period.
    Background pixels stay 0.
    """
    meta = frame.meta
    starts = np.arange(frame.height_px, dtype=np.float64) * meta.row_readout_us + phase_us
    factors = row_exposure_fractions(w, starts, meta.exposure_us)
    px = frame.pixels.copy()
    _scale_rows(px, quad.points, factors)
    px.flags.writeable = False
    return Frame(px, meta, quad=frame.quad, fill=frame.fill, row_factors=factors)


def add_capture_noise(frame: Frame, corner_jitter_px: float, pixel_sigma: float,
                      seed) -> Frame:
    """Capture imperfection model: quad corners jittered by an isotropic
    Gaussian (re-rasterized from provenance), then a black-level pedestal of
    3 * pixel_sigma plus Gaussian pixel noise, clipped to [0, 255].

    The pedestal keeps the background noise two-sided, so its sample std
    matches pixel_sigma instead of the half-clipped value. Zero sigma and
    zero jitter return the input frame bit-identically. Deterministic for a
    fixed seed; the jitter draw happens before the pixel-noise draw.
    """
    if corner_jitter_px < 0 or pixel_sigma < 0:
        raise ValueError("noise magnitudes must be non-negative")
    if corner_jitter_px == 0 and pixel_sigma == 0:
        return frame
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    quad = frame.quad
    if corner_jitter_px > 0:
        if frame.quad is None or frame.fill is None:
            raise ValueError("corner jitter requires a frame with generation provenance")
        jittered = frame.quad.points + rng.normal(0.0, corner_jitter_px, size=(4, 2))
        px = _fill_quad(frame.pixels.shape, jittered, frame.fill)
        if frame.row_factors is not None:
            _scale_rows(px, jittered, frame.row_factors)
        quad = CornerSet(jittered[canonical_order(jittered)])
    else:
        px = frame.pixels.copy()
    if pixel_sigma > 0:
        buf = px.astype(np.float64)
        buf += 3.0 * pixel_sigma
        buf += rng.normal(0.0, pixel_sigma, size=buf.shape)
        px = np.clip(np.rint(buf), 0.0, 255.0).astype(np.uint8)
    return Frame(px, frame.meta, quad=quad, fill=frame.fill,
                 row_factors=frame.row_factors)
