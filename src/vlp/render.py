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
# Capture noise covers the quad's pixel box grown by this margin; beyond it
# a rendered frame is black, and gets the bare noise pedestal.
NOISE_MARGIN_PX = 16
# Window rows drawn and applied at a time: a block's float temporaries stay
# a few hundred KB (under 0.5 MB at full sensor width), not frame-sized.
NOISE_BLOCK_ROWS = 32

# Runs of pixels, a quad's or a blob's: (row, start, end) int arrays, one
# entry per maximal span of pixels along a row, in row-major order, with
# end one past the span's last column; all in frame coordinates.
Runs = tuple[np.ndarray, np.ndarray, np.ndarray]


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


class Frame:
    """A grayscale capture: (height, width) uint8 pixels plus capture meta.

    Frames synthesized in-process also carry their generation provenance:
    the projected quad, the fill value and the per-row shutter factors.
    Every synthesis step renders from it through one quad renderer: the
    shutter renders a quad at the fill with its row factors, and capture
    noise renders the (jittered) quad with the stored factors and draws
    pixel noise only in a window around it, since a rendered frame is black
    outside it. Neither step reads the input's pixels, so noising a noisy
    frame again replaces its noise rather than adding to it. Frames loaded
    from disk have no provenance: they take neither the shutter nor capture
    noise.
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
    meta = " ".join(f"{f.name}={getattr(frame.meta, f.name)!r}"
                    for f in fields(FrameMeta))
    header = f"P5\n# {meta}\n{frame.width_px} {frame.height_px}\n255\n"
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
    if width == 0 or height == 0:
        raise MalformedFrame(f"{path}: empty {width}x{height} raster")
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


def _quad_runs(quad: CornerSet, shape: tuple[int, int]) -> Runs:
    """The quad's runs on a (height, width) sensor: on each row with a
    covered pixel center, the columns whose centers fall inside the quad,
    clipped to the sensor. Rows with no covered center have no run. Pixel
    (r, c) covers the unit square with center (c + 0.5, r + 0.5).
    """
    pts = quad.points
    vmin, vmax = pts[:, 1].min(), pts[:, 1].max()
    row_lo = max(0, int(math.ceil(vmin - 0.5)))
    row_hi = min(shape[0], int(math.floor(vmax - 0.5)) + 1)
    row = np.arange(row_lo, row_hi)  # empty when no row is in range
    y = row + 0.5
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
    # a row no edge crosses keeps lo = inf and hi = -inf: an empty run
    start = np.clip(np.ceil(lo - 0.5), 0, shape[1]).astype(np.int64)
    end = np.clip(np.floor(hi - 0.5) + 1, 0, shape[1]).astype(np.int64)
    keep = end > start
    return row[keep], start[keep], end[keep]


def _render_quad(shape: tuple[int, int], quad: CornerSet, fill: int,
                 row_factors: np.ndarray | None = None,
                 window: tuple[slice, slice] | None = None) -> np.ndarray:
    """A zero uint8 raster of shape (height, width) with the quad's runs on
    row r set to fill, or to rint(fill * row_factors[r]) when per-row
    factors are given.

    With a window (rows, cols) of that frame, only the window is rendered:
    the runs are taken in frame coordinates, as without one, and cut to
    the window, so every window pixel is the full render's bit for bit."""
    rows, cols = window or (slice(0, shape[0]), slice(0, shape[1]))
    px = np.zeros((rows.stop - rows.start, cols.stop - cols.start), dtype=np.uint8)
    row, start, end = _quad_runs(quad, shape)
    levels = np.full(row.size, fill, dtype=np.float64)
    if row_factors is not None:
        levels = np.rint(levels * row_factors[row])
    keep = (row >= rows.start) & (row < rows.stop)
    start, end = (np.clip(a[keep], cols.start, cols.stop) - cols.start for a in (start, end))
    for r, a, b, level in zip((row[keep] - rows.start).tolist(), start.tolist(),
                              end.tolist(), levels[keep].tolist()):
        px[r, a:b] = level
    return px


def rasterize_panel(intr: CameraIntrinsics, pose: Pose, panel: LedPanel,
                    brightness: float) -> Frame:
    """Scanline-fill the projected panel quad at round(255 * brightness).

    Corners landing off-sensor clip the fill; whether a partially visible
    panel should be used at all is the sweep filter's decision, not this
    function's.
    """
    quad = project_panel_corners(intr, pose, panel)
    fill = int(round(255.0 * brightness))
    px = _render_quad((intr.height_px, intr.width_px), quad, fill)
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
    """Render quad at the frame's fill with each row r scaled by the row's
    waveform exposure fraction, rounded to the nearest level.

    Row r starts exposing at t = r * row_readout_us + phase_us. Captures are
    unsynchronized, so callers draw the phase over one waveform period.
    Background pixels are 0. The frame gives the fill, the meta and the
    shape; its pixels are not read. A frame without generation provenance
    (read from disk) raises ValueError.
    """
    if frame.fill is None:
        raise ValueError("the rolling shutter requires a frame with generation provenance")
    meta = frame.meta
    starts = np.arange(frame.height_px, dtype=np.float64) * meta.row_readout_us + phase_us
    factors = row_exposure_fractions(w, starts, meta.exposure_us)
    px = _render_quad(frame.pixels.shape, quad, frame.fill, factors)
    px.flags.writeable = False
    return Frame(px, meta, quad=quad, fill=frame.fill, row_factors=factors)


def _noise_window(quad: CornerSet, shape: tuple[int, int]) -> tuple[slice, slice]:
    """Rows and columns that get pixel noise: the quad's pixel bounding box
    grown by NOISE_MARGIN_PX and clipped to the frame."""
    size = shape[::-1]  # (width, height), in the points' (u, v) order
    lo = np.clip(np.floor(quad.points.min(axis=0)) - NOISE_MARGIN_PX, 0, size)
    hi = np.clip(np.ceil(quad.points.max(axis=0)) + NOISE_MARGIN_PX, lo, size)
    (c0, r0), (c1, r1) = lo.astype(int).tolist(), hi.astype(int).tolist()
    return slice(r0, r1), slice(c0, c1)


def add_capture_noise(frame: Frame, corner_jitter_px: float, pixel_sigma: float,
                      seed) -> Frame:
    """Capture imperfection model: quad corners jittered by an isotropic
    Gaussian, the (jittered) quad rendered at the frame's fill and row
    factors, then a black-level pedestal of 3 * pixel_sigma plus Gaussian
    pixel noise, clipped to [0, 255]. Any non-zero noise renders from the
    frame's generation provenance and never reads its pixels, so noise
    does not compound: a frame noised twice with zero jitter is the frame
    the second call alone gives. Any non-zero noise on a frame without
    generation provenance (read from disk) raises ValueError.

    The pedestal keeps the background noise two-sided, so its sample std
    matches pixel_sigma instead of the half-clipped value. Pixel noise is
    drawn only inside the window around the (jittered) quad that
    _noise_window gives; every pixel outside it, black in a rendered frame,
    gets the bare pedestal round(3 * pixel_sigma), so the quad is rendered
    into that window alone (into the whole frame when pixel_sigma is 0).
    The window is drawn and applied NOISE_BLOCK_ROWS rows at a time, so no
    float temporary is frame-sized; the generator draws in sequence, so the
    blocks' draws are one window-sized draw bit for bit. At the default
    0.02 of full scale that background sits about 22 sigma below the
    binarization threshold, so no stage can tell it from a noisy one; a
    sigma large enough to cross the threshold would show false blobs only
    inside the window.

    Zero sigma and zero jitter return the input frame bit-identically.
    seed is anything np.random.default_rng takes; a Generator is used as
    is, so an int seed and default_rng of that int give the same frame.
    Deterministic for a fixed seed: the jitter is drawn from the generator
    first, and the pixel noise from a child generator spawned from it, so
    the jittered quad does not depend on the window's size or on sigma.
    """
    if corner_jitter_px < 0 or pixel_sigma < 0:
        raise ValueError("noise magnitudes must be non-negative")
    if corner_jitter_px == 0 and pixel_sigma == 0:
        return frame
    if frame.quad is None or frame.fill is None:
        raise ValueError("capture noise requires a frame with generation provenance")
    rng = np.random.default_rng(seed)
    quad = frame.quad
    if corner_jitter_px > 0:
        quad = CornerSet(quad.points + rng.normal(0.0, corner_jitter_px, size=(4, 2)))
    shape = (frame.height_px, frame.width_px)
    window = _noise_window(quad, shape) if pixel_sigma > 0 else None
    win = _render_quad(shape, quad, frame.fill, frame.row_factors, window)
    if pixel_sigma == 0:
        px = win
    else:
        child = rng.spawn(1)[0]
        px = np.full(shape, np.clip(np.rint(3.0 * pixel_sigma), 0.0, 255.0), np.uint8)
        out = px[window]  # a view of the window
        for r in range(0, win.shape[0], NOISE_BLOCK_ROWS):
            buf = win[r : r + NOISE_BLOCK_ROWS].astype(np.float64)
            buf += 3.0 * pixel_sigma
            buf += child.normal(0.0, pixel_sigma, size=buf.shape)
            np.rint(buf, out=buf)
            out[r : r + NOISE_BLOCK_ROWS] = np.clip(buf, 0.0, 255.0, out=buf)
    px.flags.writeable = False
    return Frame(px, frame.meta, quad=quad, fill=frame.fill,
                 row_factors=frame.row_factors)
