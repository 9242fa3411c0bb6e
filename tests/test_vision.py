"""Mask morphology and corner extraction tests.

Accuracy oracles come from the projection module and the renderer: the
detector must land where the geometry says the corners are, to within a
tenth of a pixel on unmodulated frames.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from conftest import nadir_pose, rng
from vlp.codec import dm_encode, stripe_merge_radius
from vlp.errors import EmptyMask, SaturatedFrame, TooFewCorners, VisionFailure
from vlp.geometry import (
    Attitude,
    CornerSet,
    Pose,
    Vec3,
    in_fov,
    order_corners,
    project_panel_corners,
)
from vlp.harness.sweep import _draw_attitude
from vlp.render import (
    Frame,
    FrameMeta,
    add_capture_noise,
    apply_rolling_shutter,
    base_brightness,
    rasterize_panel,
)
from vlp.vision import (
    THRESHOLD,
    _check_quad,
    _detect_corners,
    _padded_bbox,
    binarize,
    close_mask,
    detect_corners,
    dilate,
    erode,
    extract_corners,
    largest_component,
)


def _frame_from(mask: np.ndarray) -> Frame:
    return Frame((mask.astype(np.uint8) * 255), FrameMeta())


def test_binarize_threshold_semantics(intr, panel):
    assert THRESHOLD == 128
    frame = rasterize_panel(intr, nadir_pose(0.0, 0.0, 1.19), panel, 0.5)
    assert frame.fill == 128
    assert binarize(frame).sum() == 800 * 800
    frame = rasterize_panel(intr, nadir_pose(0.0, 0.0, 1.19), panel, 127 / 255)
    assert frame.fill == 127
    assert binarize(frame).sum() == 0


def test_dilate_erode_square_element():
    mask = np.zeros((9, 9), dtype=bool)
    mask[4, 4] = True
    grown = dilate(mask, 1)
    assert grown.sum() == 9
    assert grown[3:6, 3:6].all()
    assert erode(grown, 1).sum() == 1
    np.testing.assert_array_equal(dilate(mask, 0), mask)
    with pytest.raises(ValueError):
        dilate(mask, -1)
    with pytest.raises(ValueError):
        erode(mask, -1)


def test_close_bridges_stripe_gaps_without_growing():
    mask = np.zeros((100, 60), dtype=bool)
    mask[10:40, 10:50] = True
    mask[50:90, 10:50] = True  # 10-row dark gap, like an OFF stripe
    closed = close_mask(mask, 5)
    assert closed[40:50, 15:45].all()  # gap interior filled
    assert closed[10:90, 10:50].sum() == closed.sum()  # no outward growth
    assert not closed[9, :].any() and not closed[:, 9].any()


def test_largest_component_size_and_tie_break():
    mask = np.zeros((30, 30), dtype=bool)
    mask[2:5, 2:5] = True       # 9 px
    mask[20:24, 20:24] = True   # 16 px
    blob, origin, count = largest_component(mask)
    assert count == 16 and origin == (20, 20)
    assert blob.shape == (4, 4) and blob.all()
    tie = np.zeros((30, 30), dtype=bool)
    tie[1, 1] = True
    tie[9, 9] = True
    assert largest_component(tie)[1:] == ((1, 1), 1)
    # the first pixel in (row, col) order wins, not the leftmost column
    tie = np.zeros((30, 30), dtype=bool)
    tie[5:8, 2] = True          # starts at (5, 2)
    tie[4, 20:23] = True        # starts at (4, 20)
    blob, origin, count = largest_component(tie)
    assert origin == (4, 20) and blob.shape == (1, 3) and count == 3
    with pytest.raises(EmptyMask):
        largest_component(np.zeros((5, 5), dtype=bool))


def test_largest_component_matches_sorted_tie_oracle():
    g = np.random.default_rng(12)
    for _ in range(300):
        mask = g.random((12, 15)) < 0.3
        if not mask.any():
            continue
        labels, _ = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
        sizes = np.bincount(labels.ravel())[1:]
        tied = np.flatnonzero(sizes == sizes.max()) + 1
        first = min(tied, key=lambda lab: int(np.flatnonzero(labels.ravel() == lab)[0]))
        want = labels == first
        blob, (r, c), count = largest_component(mask)
        got = np.zeros_like(mask)
        got[r:r + blob.shape[0], c:c + blob.shape[1]] = blob
        np.testing.assert_array_equal(got, want)
        assert count == int(want.sum())


def test_detect_corners_subpixel_on_ideal_square(intr, panel):
    # the 1.19 m nadir view projects to the square [464, 1264] x [752, 1552]
    frame = rasterize_panel(intr, nadir_pose(0.0, 0.0, 1.19), panel, 1.0)
    pts = detect_corners(binarize(frame))
    want = {(464.0, 752.0), (1264.0, 752.0), (1264.0, 1552.0), (464.0, 1552.0)}
    for w in want:
        d = np.hypot(pts[:, 0] - w[0], pts[:, 1] - w[1]).min()
        assert d < 1.0


def test_detect_corners_window_validation():
    with pytest.raises(EmptyMask):
        detect_corners(np.zeros((50, 50), dtype=bool))


def test_tiny_blob_has_too_few_separated_corners():
    mask = np.zeros((60, 60), dtype=bool)
    mask[25:35, 25:35] = True  # no side keeps a point past the corner margins
    with pytest.raises(TooFewCorners):
        detect_corners(mask)


def test_detect_corners_moves_with_the_blob(intr, panel):
    """The fit sees only frame coordinates: a crop placed at its origin
    gives the full mask's corners bit for bit, and shifting the blob by
    whole pixels shifts its corners by exactly that much, up to rounding."""
    g = rng(57)
    pos = Vec3(0.1, -0.05, 1.5)
    frame = rasterize_panel(intr, Pose(pos, _draw_attitude(g, pos, 20.0, 12.0)),
                            panel, 1.0)
    full = binarize(frame)
    blob = full[_padded_bbox(full, 0)]
    corners = []
    for dr, dc in ((3, 5), (1203, 1871)):
        mask = np.zeros((blob.shape[0] + 1300, blob.shape[1] + 1900), dtype=bool)
        mask[dr : dr + blob.shape[0], dc : dc + blob.shape[1]] = blob
        corners.append(detect_corners(mask))
        crop = _detect_corners(mask[dr - 2 :, dc - 1 :], (dr - 2, dc - 1))
        np.testing.assert_array_equal(crop, corners[-1])
    np.testing.assert_allclose(corners[1] - corners[0], [[1866, 1200]] * 4,
                               rtol=0, atol=1e-9)


@settings(max_examples=200)
@given(st.data())
def test_detect_corners_fails_typed_on_any_blob(data):
    """Any mask gives four finite corners or a VisionFailure: degenerate
    blobs never surface a QhullError, a LinAlgError or a warning."""
    h, w = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
    mask = np.zeros((h, w), dtype=bool)
    for _ in range(data.draw(st.integers(1, 3))):
        r0, c0 = data.draw(st.integers(0, h - 1)), data.draw(st.integers(0, w - 1))
        r1, c1 = data.draw(st.integers(r0, h - 1)), data.draw(st.integers(c0, w - 1))
        mask[r0 : r1 + 1, c0 : c1 + 1] = True
    holes = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mask &= holes.random(mask.shape) < data.draw(st.sampled_from([1.0, 0.8]))
    try:
        pts = detect_corners(mask)
    except VisionFailure:
        return
    assert pts.shape == (4, 2) and np.isfinite(pts).all()


def test_extract_corners_matches_projection(intr, panel):
    g = rng(13)
    worst = 0.0
    for _ in range(8):
        pose = Pose(
            Vec3(float(g.uniform(-0.2, 0.2)), float(g.uniform(-0.2, 0.2)),
                 float(g.uniform(1.25, 1.7))),
            Attitude(0.0, 0.0, float(g.uniform(0.0, 360.0))),
        )
        frame = rasterize_panel(intr, pose, panel,
                                base_brightness(pose, panel, intr))
        got = extract_corners(frame)
        want = project_panel_corners(intr, pose, panel)
        worst = max(worst, float(np.abs(got.points - want.points).max()))
    assert worst < 2.0


def test_extract_corners_through_stripes(intr, panel):
    """Closing at the stripe merge radius recovers interior stripes exactly,
    so u stays tight. The vertical extent can only shrink: an off-stripe
    crossing the panel's top or bottom edge leaves those rows dark, and no
    morphology can restore an edge past the last lit pixel. The worst case
    is the longest off run, 2 levels of 50 us = 40 rows at 2.5 us readout."""
    g = rng(41)
    for _ in range(4):
        pose = nadir_pose(float(g.uniform(-0.15, 0.15)),
                          float(g.uniform(-0.15, 0.15)),
                          float(g.uniform(1.25, 1.7)))
        base = rasterize_panel(intr, pose, panel,
                               base_brightness(pose, panel, intr))
        striped = apply_rolling_shutter(base, base.quad, dm_encode(0xB6),
                                        phase_us=float(g.uniform(0.0, 800.0)))
        got = extract_corners(striped, merge_radius=stripe_merge_radius(intr))
        want = project_panel_corners(intr, pose, panel)
        du = np.abs(got.points[:, 0] - want.points[:, 0])
        assert float(du.max()) < 2.0
        vmin_w, vmax_w = want.points[:, 1].min(), want.points[:, 1].max()
        assert got.points[:, 1].min() >= vmin_w - 2.0  # never grows outward
        assert got.points[:, 1].max() <= vmax_w + 2.0
        assert got.points[:, 1].min() <= vmin_w + 42.0
        assert got.points[:, 1].max() >= vmax_w - 42.0


def test_extract_corners_empty_frame_raises(intr, panel):
    dark = Frame(np.zeros((2304, 1728), dtype=np.uint8), FrameMeta())
    with pytest.raises(EmptyMask):
        extract_corners(dark)


def test_disc_is_rejected_as_non_quad():
    yy, xx = np.mgrid[0:300, 0:300]
    disc = (yy - 150) ** 2 + (xx - 150) ** 2 <= 60 ** 2
    with pytest.raises(VisionFailure, match="curved outline"):
        extract_corners(_frame_from(disc))


def test_check_quad_rejects_reflex_corner():
    # (5, 4) sits inside the triangle of the other three: angular ordering
    # around the centroid keeps it, producing a reflex vertex
    pts = np.array([[10.0, 10.0], [5.0, 4.0], [0.0, 0.0], [10.0, 0.0]])
    with pytest.raises(VisionFailure, match="non-convex"):
        _check_quad(CornerSet(pts), np.ones((5, 5), dtype=bool))


@settings(max_examples=300)
@given(st.data())
def test_closing_padded_bbox_crop_matches_full_mask(data):
    """extract_corners closes a crop of the set pixels' bounding box padded
    by r + 1; pasted back, it must equal the closing of the whole mask,
    also where blobs touch the mask's border."""
    h, w = data.draw(st.integers(1, 64)), data.draw(st.integers(1, 64))
    radius = data.draw(st.integers(0, 6))
    mask = np.zeros((h, w), dtype=bool)
    for _ in range(data.draw(st.integers(1, 4))):
        r0, c0 = data.draw(st.integers(0, h - 1)), data.draw(st.integers(0, w - 1))
        r1, c1 = data.draw(st.integers(r0, h - 1)), data.draw(st.integers(c0, w - 1))
        mask[r0 : r1 + 1, c0 : c1 + 1] = True
    border = data.draw(st.sampled_from([None, 0, -1]))
    if border is not None:
        mask[border, :] |= data.draw(st.booleans())
        mask[:, border] |= data.draw(st.booleans())
    holes = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mask &= holes.random(mask.shape) < data.draw(st.sampled_from([1.0, 0.9, 0.6]))
    assume(mask.any())
    box = _padded_bbox(mask, radius + 1)
    pasted = np.zeros_like(mask)
    pasted[box] = close_mask(mask[box], radius)
    np.testing.assert_array_equal(pasted, close_mask(mask, radius))


def test_closing_crop_pad_of_r_grows_the_blob():
    """r + 1 is the least pad that keeps the closing exact: with a pad of
    r, erosion reads the crop's outside as set right next to the blob."""
    mask = np.zeros((30, 30), dtype=bool)
    mask[10:20, 10:20] = True
    box = _padded_bbox(mask, 2)
    assert close_mask(mask[box], 2).sum() > close_mask(mask, 2).sum() == 100


def _oracle_frames(intr, panel):
    """(name, frame, merge_radius) cases: nadir and dithered poses, clean,
    noisy and striped; panels clipped by each sensor edge; failing frames.
    Each pose draws from its own seed, so adding a case moves no other."""
    merge = stripe_merge_radius(intr)
    poses = [("nadir", nadir_pose(0.0, 0.0, 1.23), rng(401)),
             ("nadir", nadir_pose(0.15, -0.1, 1.66, yaw=20.0), rng(402))]
    for seed in (410, 415, 467, 471):
        g = rng(seed)
        pos = Vec3(float(g.uniform(-0.6, 0.6)), float(g.uniform(-0.6, 0.6)),
                   float(g.uniform(1.2, 1.8)))
        poses.append(("dithered", Pose(pos, _draw_attitude(g, pos, 20.0, 12.0)), g))
    for k, (side, (x, y)) in enumerate({"left": (0.5, 0.0), "right": (-0.5, 0.0),
                                        "top": (0.0, -0.75),
                                        "bottom": (0.0, 0.68)}.items()):
        pose = nadir_pose(x, y, 1.3)
        assert not in_fov(project_panel_corners(intr, pose, panel), intr)
        poses.append((f"clipped-{side}", pose, rng(403 + k)))
    for name, pose, g in poses:
        base = rasterize_panel(intr, pose, panel, base_brightness(pose, panel, intr))
        striped = apply_rolling_shutter(base, base.quad, dm_encode(0xB6),
                                        phase_us=float(g.uniform(0.0, 800.0)))
        yield f"{name} clean", base, 0
        noisy = add_capture_noise(base, 1.0, 5.1, g)
        if not name.startswith("clipped"):
            yield f"{name} noisy", noisy, 0
        yield f"{name} striped", add_capture_noise(striped, 1.0, 5.1, g), merge
    dark = np.zeros((intr.height_px, intr.width_px), dtype=np.uint8)
    line, dot = dark.copy(), dark.copy()
    line[900, 300:1400] = 255
    dot[900, 700] = 255
    for name, px in (("dark", dark), ("one-row line", line), ("single pixel", dot)):
        yield name, Frame(px, FrameMeta()), 0
        yield f"{name} merged", Frame(px, FrameMeta()), merge


def test_extract_corners_matches_rendered_quad(intr, panel):
    """Corners against each frame's rendered quad, jitter included. The
    clipped panels are axis-aligned, so clamping their quad onto the sensor
    gives the corners of the part in view.

    Clean and noisy frames: within 0.1 px on average. Striped frames: u
    within 2 px, and the vertical extent can only shrink, by at most the
    longest off run (40 rows) that a stripe crossing the panel's top or
    bottom edge leaves dark. Failing frames raise typed errors."""
    h, w = intr.height_px, intr.width_px
    errors, failures = [], []
    for name, frame, merge_radius in _oracle_frames(intr, panel):
        try:
            got = extract_corners(frame, merge_radius=merge_radius).points
        except VisionFailure as exc:
            failures.append((name, type(exc)))
            continue
        want = order_corners(np.clip(frame.quad.points, 0.0, [w, h])).points
        if name.endswith("striped"):
            assert np.abs(got[:, 0] - want[:, 0]).max() < 2.0, name
            v, v_want = got[:, 1], want[:, 1]
            assert v_want.min() - 1.0 <= v.min() <= v_want.min() + 42.0, name
            assert v_want.max() - 42.0 <= v.max() <= v_want.max() + 1.0, name
        else:
            errors.append(np.hypot(*(got - want).T))
    errors = np.concatenate(errors)
    assert len(errors) == 4 * 16
    assert errors.mean() < 0.1 and errors.max() < 1.0
    typed = {"dark": EmptyMask, "one-row line": TooFewCorners,
             "single pixel": TooFewCorners}
    assert failures == [(case + merged, kind) for case, kind in typed.items()
                        for merged in ("", " merged")]


@pytest.mark.parametrize("band", ["all", "rows", "cols"])
def test_saturated_frame_raises(intr, band):
    px = np.zeros((intr.height_px, intr.width_px), dtype=np.uint8)
    if band == "all":
        px[:] = 255
    elif band == "rows":
        px[:, 500:900] = 255  # full-height band
    else:
        px[1000:1400, :] = 255  # full-width band
    with pytest.raises(SaturatedFrame, match="full height or width"):
        extract_corners(Frame(px, FrameMeta()))


def test_panel_clipped_at_one_corner_is_not_saturated(intr, panel):
    """A blob touching two adjacent sensor edges does not span the sensor."""
    pose = nadir_pose(0.5, -0.75, 1.3)
    assert not in_fov(project_panel_corners(intr, pose, panel), intr)
    frame = rasterize_panel(intr, pose, panel, base_brightness(pose, panel, intr))
    mask = binarize(frame)
    assert mask[0].any() and mask[:, 0].any()
    assert np.isfinite(extract_corners(frame).points).all()
