"""Brightness, rasterization, rolling shutter and noise model tests.

Fill areas are checked against hand-derived pixel counts and a
half-plane point-in-quad oracle, not against the rasterizer itself.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import nadir_pose, rng
from helpers import (
    distance_to_quad_edges,
    point_in_convex_quad,
    reference_pixel_noise,
    reference_refill,
    reference_row_spans,
)
from vlp.codec import dm_encode
from vlp.errors import MalformedFrame
from vlp.geometry import (Attitude, CameraIntrinsics, CornerSet, Pose, Vec3,
                          project_panel_corners)
from vlp.render import (
    NOISE_BLOCK_ROWS,
    NOISE_MARGIN_PX,
    FrameMeta,
    Waveform,
    _quad_runs,
    add_capture_noise,
    apply_rolling_shutter,
    base_brightness,
    rasterize_panel,
    read_pgm,
    row_exposure_fractions,
    write_pgm,
)
from vlp.vision import extract_corners


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


def _span_cases(intr, panel):
    """(name, quad) cases for a quad's runs: seeded yawed and tilted
    panels, panels cut by each sensor edge, panels wholly off the sensor,
    and hand-made quads: sub-pixel slivers (some with rows that miss
    every pixel center), horizontal edges, and vertices on pixel centers."""
    g = rng(43)
    for k in range(8):
        pose = Pose(Vec3(*g.uniform(-0.6, 0.6, 2), float(g.uniform(1.2, 2.2))),
                    Attitude(*g.normal(0.0, 8.0, 2), float(g.uniform(-180.0, 180.0))))
        yield f"yawed and tilted {k}", project_panel_corners(intr, pose, panel)
    for x, y in ((0.55, 0.0), (-0.55, 0.0), (0.0, 0.75), (0.0, -0.75)):
        yield f"clipped at ({x}, {y})", project_panel_corners(
            intr, nadir_pose(x, y, 1.2), panel)
    nadir = project_panel_corners(intr, nadir_pose(0.0, 0.0, 1.3), panel)
    yield "above and left of the sensor", CornerSet(nadir.points - 5000.0)
    yield "below and right of the sensor", CornerSet(nadir.points + 5000.0)
    yield "slanted sliver", CornerSet([[10.2, 10.0], [300.7, 90.3], [300.9, 90.3],
                                       [10.4, 10.0]])
    yield "steep sliver", CornerSet([[10.2, 10.0], [14.7, 90.3], [14.9, 90.3],
                                     [10.4, 10.0]])
    yield "flat sliver on a row of centers", CornerSet([[50.0, 20.3], [400.0, 20.3],
                                                       [400.0, 20.6], [50.0, 20.6]])
    yield "flat sliver between rows of centers", CornerSet(
        [[50.0, 20.6], [400.0, 20.6], [400.0, 21.4], [50.0, 21.4]])
    yield "rectangle on pixel centers", CornerSet([[100.5, 200.5], [300.5, 200.5],
                                                  [300.5, 400.5], [100.5, 400.5]])
    yield "trapezoid on pixel centers", CornerSet([[500.5, 300.5], [520.5, 300.5],
                                                  [800.5, 900.5], [200.5, 900.5]])
    for k in range(6):
        yield f"random pixel centers {k}", CornerSet(g.integers(-20, 60, size=(4, 2)) + 0.5)


def test_quad_runs_are_the_covered_row_spans(intr, panel):
    """A quad's runs are the rows of the independent per-row spans that
    cover a pixel center, each with end one past its last column, clipped
    to the sensor, on every _span_cases quad; the cases hold empty quads,
    quads cut by each sensor edge, and quads whose covered rows have gaps."""
    shape = (intr.height_px, intr.width_px)
    seen = set()
    for name, quad in _span_cases(intr, panel):
        row, start, end = _quad_runs(quad, shape)
        row_lo, _, col_lo, col_hi = reference_row_spans(quad, shape[1], shape[0])
        covered = np.flatnonzero(col_hi >= col_lo)
        np.testing.assert_array_equal(row, row_lo + covered, err_msg=name)
        np.testing.assert_array_equal(start, col_lo[covered], err_msg=name)
        np.testing.assert_array_equal(end, col_hi[covered] + 1, err_msg=name)
        if row.size == 0:
            seen.add("empty")
            continue
        assert (start < end).all() and start.min() >= 0 and end.max() <= shape[1], name
        seen.update(edge for edge, hit in (
            ("left", start.min() == 0), ("right", end.max() == shape[1]),
            ("top", row[0] == 0), ("bottom", row[-1] == shape[0] - 1),
            ("gap", row[-1] - row[0] + 1 > row.size)) if hit)
    assert seen == {"empty", "left", "right", "top", "bottom", "gap"}


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


def test_shutter_matches_reference_refill(intr, panel):
    """The striped frame is its quad rendered in one piece at the frame's
    fill with the row factors it carries, over seeded poses and phases."""
    g = rng(31)
    for dither in (0.0, 2.0, 6.0):
        for _ in range(3):
            pose = Pose(Vec3(*g.uniform(-0.5, 0.5, 2), float(g.uniform(1.2, 2.2))),
                        Attitude(*g.normal(0.0, dither, 3)))
            base = rasterize_panel(intr, pose, panel, base_brightness(pose, panel, intr))
            wave = dm_encode(int(g.integers(256)))
            phase = float(g.uniform(0.0, wave.period_us))
            striped = apply_rolling_shutter(base, base.quad, wave, phase_us=phase)
            assert striped.quad is base.quad and striped.fill == base.fill
            starts = np.arange(base.height_px) * intr.row_readout_us + phase
            np.testing.assert_array_equal(
                striped.row_factors, row_exposure_fractions(wave, starts, intr.exposure_us))
            np.testing.assert_array_equal(striped.pixels,
                                          reference_refill(striped, striped.quad))


def test_shutter_needs_generation_provenance(tmp_path, intr, panel):
    base = rasterize_panel(intr, nadir_pose(0.0, 0.0, 1.3), panel, 1.0)
    path = tmp_path / "plain.pgm"
    write_pgm(base, path)
    with pytest.raises(ValueError, match="provenance"):
        apply_rolling_shutter(read_pgm(path), base.quad, Waveform((1, 0), 50.0))


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
            jittered = CornerSet(frame.quad.points + rng(seed).normal(0.0, 1.5, size=(4, 2)))
            noisy = add_capture_noise(frame, 1.5, 0.0, seed)
            np.testing.assert_array_equal(noisy.pixels, reference_refill(frame, jittered))
            assert noisy.quad == jittered


def _window_mask(quad, shape) -> np.ndarray:
    """Pixels within NOISE_MARGIN_PX of the quad's pixel bounding box."""
    (u0, v0), (u1, v1) = quad.points.min(axis=0), quad.points.max(axis=0)
    rows = np.arange(shape[0])[:, None]
    cols = np.arange(shape[1])[None, :]
    return ((rows >= np.floor(v0) - NOISE_MARGIN_PX) & (rows < np.ceil(v1) + NOISE_MARGIN_PX)
            & (cols >= np.floor(u0) - NOISE_MARGIN_PX) & (cols < np.ceil(u1) + NOISE_MARGIN_PX))


def test_pixel_noise_pedestal_and_sigma(intr, panel):
    frame = rasterize_panel(intr, nadir_pose(0.0, 0.0, 1.3), panel, 1.0)
    noisy = add_capture_noise(frame, 0.0, 5.0, 7)
    # background noise is drawn in the window's margin: in it, off the quad
    margin = _window_mask(frame.quad, frame.pixels.shape) & (frame.pixels == 0)
    backdrop = noisy.pixels[margin].astype(np.float64)
    # pedestal of 3 sigma keeps the background two-sided around 15
    assert backdrop.mean() == pytest.approx(15.0, abs=0.15)
    assert backdrop.std() == pytest.approx(5.0, rel=0.03)
    # the far background is the bare pedestal
    assert (noisy.pixels[:500, :500] == 15).all()
    # the saturated interior cannot exceed full scale
    assert noisy.pixels.max() == 255


def test_pixel_noise_stays_in_the_window(intr, panel):
    """Outside the jittered quad's window every pixel is the pedestal, for
    plain, striped and sensor-clipped panels; inside, it is noisy."""
    g = rng(29)
    pose_edge = nadir_pose(0.5, 0.0, 1.3)  # panel cut by the sensor edge
    for pose in (nadir_pose(0.1, -0.2, 1.6), pose_edge):
        base = rasterize_panel(intr, pose, panel, base_brightness(pose, panel, intr))
        wave = dm_encode(int(g.integers(256)))
        striped = apply_rolling_shutter(base, base.quad, wave,
                                        phase_us=float(g.uniform(0.0, wave.period_us)))
        for frame in (base, striped):
            noisy = add_capture_noise(frame, 1.0, 5.1, g)
            inside = _window_mask(noisy.quad, frame.pixels.shape)
            assert (noisy.pixels[~inside] == 15).all()
            assert noisy.pixels[inside & (frame.pixels == 0)].std() > 4.0
        if pose is pose_edge:  # its window really meets the sensor edge
            assert inside[:, 0].any()


def test_window_noise_matches_oracle_and_disk_frame_raises(tmp_path, intr, panel):
    """With no jitter the noise window's pixels equal the written-out draw
    over the same window of the input, from the generator's first child,
    bit for bit, and every pixel outside it is the bare pedestal. A frame
    read from disk has no provenance: any non-zero noise on it raises."""
    for pose in (nadir_pose(0.2, 0.1, 1.3), nadir_pose(0.5, 0.0, 1.3)):
        base = rasterize_panel(intr, pose, panel, base_brightness(pose, panel, intr))
        inside = _window_mask(base.quad, base.pixels.shape)
        for sigma, seed in ((5.1, 3), (2.0, 8)):
            want = reference_pixel_noise(base.pixels[inside], sigma,
                                         rng(seed).spawn(1)[0])
            for given in (seed, rng(seed)):
                noisy = add_capture_noise(base, 0.0, sigma, given)
                assert noisy.quad is base.quad
                np.testing.assert_array_equal(noisy.pixels[inside], want)
                assert (noisy.pixels[~inside] == round(3 * sigma)).all()
    path = tmp_path / "plain.pgm"
    write_pgm(base, path)
    frame = read_pgm(path)
    assert add_capture_noise(frame, 0.0, 0.0, 3) is frame
    for jitter, sigma in ((0.0, 2.0), (1.0, 0.0), (1.0, 2.0)):
        with pytest.raises(ValueError, match="provenance"):
            add_capture_noise(frame, jitter, sigma, 3)


def test_block_noise_matches_one_window_draw(intr, panel):
    """Jitter plus pixel noise, drawn a block of rows at a time, equals one
    draw over the whole window of the one-piece re-rasterization, from the
    generator's first child after the jitter, bit for bit: on plain,
    striped and sensor-edge frames whose windows end in a part block."""
    g = rng(37)
    for pose in (nadir_pose(0.1, -0.2, 1.35), nadir_pose(-0.3, 0.2, 1.66),
                 nadir_pose(0.5, 0.0, 1.3)):
        base = rasterize_panel(intr, pose, panel, base_brightness(pose, panel, intr))
        wave = dm_encode(int(g.integers(256)))
        striped = apply_rolling_shutter(base, base.quad, wave,
                                        phase_us=float(g.uniform(0.0, wave.period_us)))
        for frame in (base, striped):
            seed = int(g.integers(1 << 30))
            draws = rng(seed)
            jittered = CornerSet(frame.quad.points + draws.normal(0.0, 1.0, size=(4, 2)))
            inside = _window_mask(jittered, frame.pixels.shape)
            assert inside.any(axis=1).sum() % NOISE_BLOCK_ROWS != 0
            want = reference_pixel_noise(reference_refill(frame, jittered)[inside], 5.1,
                                         draws.spawn(1)[0])
            noisy = add_capture_noise(frame, 1.0, 5.1, seed)
            assert noisy.quad == jittered
            np.testing.assert_array_equal(noisy.pixels[inside], want)
            assert (noisy.pixels[~inside] == 15).all()
    assert inside[:, 0].any()  # the last window meets the sensor edge


def test_pixel_noise_working_set(intr, panel):
    """One jitter-plus-noise call on a 1.3 m nadir frame allocates at most
    1.6 frames: the noisy frame and the jittered quad's render over the
    noise window alone, plus one block's float temporaries, not
    window-sized ones."""
    frame = rasterize_panel(intr, nadir_pose(0.0, 0.0, 1.3), panel, 1.0)
    tracemalloc.start()
    try:
        add_capture_noise(frame, 1.0, 5.1, 11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * frame.pixels.nbytes


def test_pixel_noise_never_moves_saturated_corners(intr, panel):
    """On a saturated panel pixel noise cannot flip the mask, and it draws
    from a child stream: jitter plus noise gives the same quad and corners
    as jitter alone with the same seed, bit for bit, and leaves the
    caller's generator where jitter alone leaves it. At the capture default
    of 0.02 of full scale (5.1 gray) the background sits about 22 sigma
    below the binarization threshold and the panel's whole pixels, clipped
    at 255 at the study heights, about 25 sigma above it: so it holds for
    capture frames nadir and 0.6 m off axis at 1.23 and 1.76 m."""
    poses = [nadir_pose(0.1, 0.2, 1.3)] + [nadir_pose(x, x, h) for h in (1.23, 1.76)
                                           for x in (0.0, 0.6)]
    for pose in poses:
        frame = rasterize_panel(intr, pose, panel, base_brightness(pose, panel, intr))
        for seed in range(5):
            g_noisy, g_plain = rng(seed), rng(seed)
            noisy = add_capture_noise(frame, 1.0, 0.02 * 255, g_noisy)
            plain = add_capture_noise(frame, 1.0, 0.0, g_plain)
            np.testing.assert_array_equal(noisy.quad.points, plain.quad.points)
            np.testing.assert_array_equal(extract_corners(noisy).points,
                                          extract_corners(plain).points)
            assert g_noisy.normal() == g_plain.normal()


def test_capture_noise_does_not_compound(intr, panel):
    """Capture noise renders from the frame's provenance and never reads
    its pixels: noising a noisy frame again with zero jitter gives what the
    second call alone gives on the first call's quad, on plain and striped
    frames, so the first call's pixel noise is gone."""
    pose = nadir_pose(0.15, -0.1, 1.4, yaw=17.0)
    base = rasterize_panel(intr, pose, panel, base_brightness(pose, panel, intr))
    striped = apply_rolling_shutter(base, base.quad, dm_encode(0x6C), phase_us=37.0)
    for frame in (base, striped):
        twice = add_capture_noise(add_capture_noise(frame, 0.0, 5.1, 4), 0.0, 5.1, 9)
        np.testing.assert_array_equal(twice.pixels,
                                      add_capture_noise(frame, 0.0, 5.1, 9).pixels)
        assert twice.quad is frame.quad
        jittered = add_capture_noise(frame, 1.0, 5.1, 4)
        moved = add_capture_noise(frame, 1.0, 0.0, 4)
        np.testing.assert_array_equal(add_capture_noise(jittered, 0.0, 5.1, 9).pixels,
                                      add_capture_noise(moved, 0.0, 5.1, 9).pixels)


def test_capture_noise_is_deterministic(intr, panel):
    frame = rasterize_panel(intr, nadir_pose(0.0, 0.0, 1.3), panel, 1.0)
    a = add_capture_noise(frame, 1.0, 5.0, 99)
    b = add_capture_noise(frame, 1.0, 5.0, 99)
    c = add_capture_noise(frame, 1.0, 5.0, 100)
    np.testing.assert_array_equal(a.pixels, b.pixels)
    assert not np.array_equal(a.pixels, c.pixels)


def test_int_seed_and_its_generator_give_the_same_frame(intr, panel):
    pose = nadir_pose(0.2, -0.1, 1.5)
    base = rasterize_panel(intr, pose, panel, base_brightness(pose, panel, intr))
    striped = apply_rolling_shutter(base, base.quad, dm_encode(0xB6), phase_us=21.0)
    for frame in (base, striped):
        a = add_capture_noise(frame, 1.0, 5.1, 12)
        b = add_capture_noise(frame, 1.0, 5.1, rng(12))
        np.testing.assert_array_equal(a.pixels, b.pixels)
        np.testing.assert_array_equal(a.quad.points, b.quad.points)


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
