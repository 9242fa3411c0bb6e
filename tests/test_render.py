"""Brightness, rasterization, rolling shutter and noise model tests.

Fill areas are checked against hand-derived pixel counts and a
half-plane point-in-quad oracle, not against the rasterizer itself.
"""

import numpy as np
import pytest

from conftest import nadir_pose, rng
from helpers import distance_to_quad_edges, point_in_convex_quad, reference_refill
from vlp.codec import dm_encode
from vlp.errors import MalformedFrame
from vlp.geometry import Attitude, CameraIntrinsics, Pose, Vec3, canonical_order
from vlp.render import (
    Frame,
    FrameMeta,
    Waveform,
    add_capture_noise,
    apply_rolling_shutter,
    base_brightness,
    rasterize_panel,
    read_pgm,
    row_exposure_fractions,
    write_pgm,
)


def test_frame_meta_defaults():
    m = FrameMeta()
    assert (m.exposure_us, m.row_readout_us, m.iso_gain) == (68.0, 2.5, 100.0)


@pytest.mark.parametrize("field, value", [
    ("exposure_us", 0.0), ("row_readout_us", -2.5), ("iso_gain", float("nan")),
    ("row_readout_us", float("inf")),
])
def test_frame_meta_rejects_non_finite_and_non_positive(field, value):
    with pytest.raises(ValueError, match=field):
        FrameMeta(**{field: value})


def test_waveform_validation_and_properties():
    w = Waveform((1, 0, 1, 1), 50.0)
    assert w.period_us == 200.0
    assert w.duty == pytest.approx(0.75)
    assert Waveform((1,), 50.0).duty == 1.0
    with pytest.raises(ValueError):
        Waveform((), 50.0)
    with pytest.raises(ValueError):
        Waveform((1, 2), 50.0)
    with pytest.raises(ValueError):
        Waveform((1, 0), 0.0)


def test_base_brightness_lambert_cosine(intr, panel):
    # at equal distance (2.6 m, below saturation) the off-axis brightness is
    # the on-axis one times cos(theta) = z / d
    on_axis = base_brightness(nadir_pose(0.0, 0.0, 2.6), panel, intr)
    assert on_axis == pytest.approx(2.5 * (1.3 / 2.6) ** 2, rel=1e-12)
    for x, y, z in ((1.0, 0.0, 2.4), (0.0, -1.56, 2.08), (0.6, 0.8, 2.4)):
        off_axis = base_brightness(nadir_pose(x, y, z), panel, intr)
        assert off_axis == pytest.approx(on_axis * z / 2.6, rel=1e-12)


def test_base_brightness_saturates_at_anchor(intr, panel):
    # calibration: defaults at 1.3 m nadir sit at 2.5x the clamp
    assert base_brightness(nadir_pose(0.0, 0.0, 1.3), panel, intr) == 1.0


def test_base_brightness_inverse_square(intr, panel):
    # past the saturation knee the raw value scales as 1/d^2
    b = base_brightness(nadir_pose(0.0, 0.0, 2.2), panel, intr)
    assert b == pytest.approx(2.5 * (1.3 / 2.2) ** 2, rel=1e-12)


def test_base_brightness_scales_with_gain_and_exposure(panel):
    dim = CameraIntrinsics(exposure_us=34.0, iso_gain=50.0)
    b = base_brightness(nadir_pose(0.0, 0.0, 2.2), panel, dim)
    assert b == pytest.approx(2.5 * (1.3 / 2.2) ** 2 / 4.0, rel=1e-12)


def test_rasterize_fill_count_exact(intr, panel):
    # at 1.19 m the half-side projects to exactly 400 px: the lit square is
    # centers in (464, 1264) x (752, 1552), 800 x 800 pixels
    frame = rasterize_panel(intr, nadir_pose(0.0, 0.0, 1.19), panel, 1.0)
    assert frame.fill == 255
    assert int(np.count_nonzero(frame.pixels)) == 800 * 800
    assert int(np.count_nonzero(frame.pixels == 255)) == 800 * 800
    rows = np.flatnonzero(frame.pixels.any(axis=1))
    cols = np.flatnonzero(frame.pixels.any(axis=0))
    assert rows.min() == 752 and rows.max() == 1551
    assert cols.min() == 464 and cols.max() == 1263


def test_rasterize_quantizes_brightness(intr, panel):
    frame = rasterize_panel(intr, nadir_pose(0.0, 0.0, 1.19), panel, 0.4)
    assert frame.fill == 102
    assert int(frame.pixels.max()) == 102


def test_rasterize_clips_offscreen_quad(panel):
    # camera far off-axis: the quad crosses the u = 0 sensor edge, so the
    # fill is clipped against the left border instead of wrapping
    intr = CameraIntrinsics()
    frame = rasterize_panel(intr, nadir_pose(0.55, 0.0, 1.2), panel, 1.0)
    assert frame.pixels.shape == (2304, 1728)
    lit = int(np.count_nonzero(frame.pixels))
    full_square = (2 * 1600 * 0.2975 / 1.2) ** 2
    assert 0 < lit < 0.8 * full_square
    assert frame.pixels[:, 0].any()


def test_rasterize_matches_point_in_quad_oracle(intr, panel):
    pose = Pose(Vec3(0.1, -0.05, 1.4), Attitude(4.0, -6.0, 25.0))
    frame = rasterize_panel(intr, pose, panel, 1.0)
    quad = frame.quad.points
    g = rng(17)
    us = g.uniform(quad[:, 0].min() - 5, quad[:, 0].max() + 5, 4000)
    vs = g.uniform(quad[:, 1].min() - 5, quad[:, 1].max() + 5, 4000)
    centers = np.column_stack([us, vs])
    cols = np.clip(np.floor(centers[:, 0] - 0.5).astype(int), 0, 1727)
    rows = np.clip(np.floor(centers[:, 1] - 0.5).astype(int), 0, 2303)
    centers = np.column_stack([cols + 0.5, rows + 0.5])
    inside = point_in_convex_quad(centers, quad)
    lit = frame.pixels[rows, cols] > 0
    near_edge = distance_to_quad_edges(centers, quad) < 0.75
    disagree = (inside != lit) & ~near_edge
    assert not disagree.any()


def test_row_exposure_fraction_constant_on():
    w = Waveform((1,), 50.0)
    got = row_exposure_fractions(w, np.array([0.0, 13.7, 9999.0]), 68.0)
    np.testing.assert_allclose(got, 1.0)


def test_row_exposure_fraction_square_wave():
    w = Waveform((1, 0), 50.0)  # ON [0, 50), OFF [50, 100)
    assert row_exposure_fractions(w, np.array([0.0]), 25.0)[0] == pytest.approx(1.0)
    assert row_exposure_fractions(w, np.array([55.0]), 20.0)[0] == pytest.approx(0.0)
    assert row_exposure_fractions(w, np.array([40.0]), 20.0)[0] == pytest.approx(0.5)
    # exposure of one full period integrates the duty cycle at any phase
    got = row_exposure_fractions(w, np.array([0.0, 12.3, 50.0, 77.7]), 100.0)
    np.testing.assert_allclose(got, 0.5)


def test_row_exposure_fractions_match_sampled_integral():
    w = Waveform((1, 1, 0, 1, 0, 0), 50.0)
    starts = np.linspace(-150.0, 900.0, 211)
    got = row_exposure_fractions(w, starts, 68.0)
    # midpoint rule at 0.01 us: exact except in the sample that straddles
    # a level change, at most 2 of them in a 68 us window
    dt = 0.01
    t = starts[:, None] + (np.arange(6800) + 0.5) * dt
    level = np.asarray(w.levels)[(np.floor(t / 50.0) % 6).astype(int)]
    np.testing.assert_allclose(got, level.mean(axis=1), rtol=0, atol=2 * dt / 68.0)
    assert got.min() >= 0.0 and got.max() <= 1.0


def test_constant_waveform_leaves_frame_unchanged(intr, panel):
    base = rasterize_panel(intr, nadir_pose(0.0, 0.0, 1.3), panel, 1.0)
    striped = apply_rolling_shutter(base, base.quad, Waveform((1,), 50.0), phase_us=0.0)
    np.testing.assert_array_equal(striped.pixels, base.pixels)


def test_shutter_rows_follow_exposure_fractions(intr, panel):
    base = rasterize_panel(intr, nadir_pose(0.0, 0.0, 1.19), panel, 1.0)
    w = Waveform((1, 0), 50.0)
    striped = apply_rolling_shutter(base, base.quad, w, phase_us=13.0)
    starts = np.arange(2304) * 2.5 + 13.0
    factors = row_exposure_fractions(w, starts, 68.0)
    inner = striped.pixels[:, 864]  # column through the panel center
    want = np.zeros(2304)
    want[752:1552] = np.rint(255.0 * factors[752:1552])
    np.testing.assert_array_equal(inner, want.astype(np.uint8))
    # background stays black
    assert striped.pixels[:, 100].max() == 0
    # stripe pattern repeats every period / row_readout = 40 rows
    np.testing.assert_array_equal(inner[800:1200], inner[840:1240])


def test_zero_noise_returns_input_frame(intr, panel):
    frame = rasterize_panel(intr, nadir_pose(0.0, 0.0, 1.3), panel, 1.0)
    assert add_capture_noise(frame, 0.0, 0.0, 1) is frame


def test_corner_jitter_moves_quad_and_refills(intr, panel):
    frame = rasterize_panel(intr, nadir_pose(0.0, 0.0, 1.3), panel, 1.0)
    noisy = add_capture_noise(frame, 2.0, 0.0, 42)
    assert noisy.quad != frame.quad
    shift = np.abs(noisy.quad.points - frame.quad.points)
    assert shift.max() < 12.0  # 2 px sigma, not a teleport
    area = int(np.count_nonzero(frame.pixels))
    area_noisy = int(np.count_nonzero(noisy.pixels))
    assert abs(area_noisy - area) / area < 0.05
    assert noisy.fill == frame.fill


def test_corner_jitter_matches_reference_refill(intr, panel):
    """Jittered plain and striped frames equal the one-piece re-rasterization
    of the jittered quad, pixel for pixel and quad for quad."""
    g = rng(23)
    for k in range(4):
        pose = Pose(Vec3(*g.uniform(-0.5, 0.5, 2), float(g.uniform(1.2, 1.8))),
                    Attitude(*g.normal(0.0, 2.0, 3)))
        base = rasterize_panel(intr, pose, panel, base_brightness(pose, panel, intr))
        wave = dm_encode(int(g.integers(256)))
        striped = apply_rolling_shutter(base, base.quad, wave,
                                        phase_us=float(g.uniform(0.0, wave.period_us)))
        for frame in (base, striped):
            seed = 1000 + k
            jittered = frame.quad.points + rng(seed).normal(0.0, 1.5, size=(4, 2))
            noisy = add_capture_noise(frame, 1.5, 0.0, seed)
            np.testing.assert_array_equal(noisy.pixels, reference_refill(frame, jittered))
            np.testing.assert_array_equal(noisy.quad.points,
                                          jittered[canonical_order(jittered)])


def test_pixel_noise_pedestal_and_sigma(intr, panel):
    frame = rasterize_panel(intr, nadir_pose(0.0, 0.0, 1.3), panel, 1.0)
    noisy = add_capture_noise(frame, 0.0, 5.0, 7)
    backdrop = noisy.pixels[:500, :500].astype(np.float64)
    # pedestal of 3 sigma keeps the background two-sided around 15
    assert backdrop.mean() == pytest.approx(15.0, abs=0.15)
    assert backdrop.std() == pytest.approx(5.0, rel=0.03)
    # the saturated interior cannot exceed full scale
    assert noisy.pixels.max() == 255


def test_capture_noise_is_deterministic(intr, panel):
    frame = rasterize_panel(intr, nadir_pose(0.0, 0.0, 1.3), panel, 1.0)
    a = add_capture_noise(frame, 1.0, 5.0, 99)
    b = add_capture_noise(frame, 1.0, 5.0, 99)
    c = add_capture_noise(frame, 1.0, 5.0, 100)
    np.testing.assert_array_equal(a.pixels, b.pixels)
    assert not np.array_equal(a.pixels, c.pixels)


def test_capture_noise_rejects_negative_magnitudes(intr, panel):
    frame = rasterize_panel(intr, nadir_pose(0.0, 0.0, 1.3), panel, 1.0)
    with pytest.raises(ValueError):
        add_capture_noise(frame, -1.0, 0.0, 1)
    with pytest.raises(ValueError):
        add_capture_noise(frame, 0.0, -0.5, 1)


def test_pgm_round_trip(tmp_path, intr, panel):
    pose = nadir_pose(0.0, 0.0, 1.3)
    base = rasterize_panel(intr, pose, panel, base_brightness(pose, panel, intr))
    frame = apply_rolling_shutter(base, base.quad, Waveform((1, 0), 50.0), phase_us=11.0)
    path = tmp_path / "cap.pgm"
    write_pgm(frame, path)
    back = read_pgm(path)
    np.testing.assert_array_equal(back.pixels, frame.pixels)
    assert back.meta == frame.meta
    assert back.quad is None


def test_read_pgm_rejects_garbage(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P2\n2 2\n255\n")
    with pytest.raises(MalformedFrame, match="P5"):
        read_pgm(p)
    p.write_bytes(b"P5\n2 2\n255\n\x00")
    with pytest.raises(MalformedFrame, match="raster"):
        read_pgm(p)
    p.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
    with pytest.raises(MalformedFrame, match="maxval"):
        read_pgm(p)
    p.write_bytes(b"P5\n2 x\n255\n" + b"\x00" * 4)
    with pytest.raises(MalformedFrame, match="non-numeric"):
        read_pgm(p)
    p.write_bytes(b"P5\n2")
    with pytest.raises(MalformedFrame, match="truncated"):
        read_pgm(p)
