"""Mask morphology and corner extraction tests.

Accuracy oracles come from the projection module and the renderer: the
detector must land where the geometry says the corners are, to within a
tenth of a pixel on unmodulated frames.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import ndimage, spatial

from conftest import nadir_pose, rng
from helpers import (
    point_in_convex_quad,
    reference_boundary_points,
    reference_extract_corners,
    reference_fit_sides,
    reference_largest_component,
    reference_widest_subset,
)
from vlp.codec import dm_encode, stripe_merge_radius
from vlp.errors import EmptyMask, SaturatedFrame, TooFewCorners, VisionFailure
from vlp.geometry import (
    Attitude,
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
    _bbox,
    _boundary_points,
    _fit_quad,
    _fit_sides,
    _hull,
    _largest,
    _runs,
    _widest_subset,
    close_mask,
    extract_corners,
)


def _frame_from(mask: np.ndarray) -> Frame:
    return Frame((mask.astype(np.uint8) * 255), FrameMeta())


def _corners(mask: np.ndarray) -> np.ndarray:
    """The unordered corners that extract_corners fits to every blob of a
    mask, through the run core."""
    return _fit_quad(_boundary_points(*_runs(mask)))


def _as_lists(runs) -> tuple[list, ...]:
    return tuple(a.tolist() for a in runs)


def test_binarize_threshold_semantics(intr, panel):
    assert THRESHOLD == 128
    frame = rasterize_panel(intr, nadir_pose(0.0, 0.0, 1.19), panel, 0.5)
    assert frame.fill == 128
    box = _bbox(frame.pixels, THRESHOLD)
    assert (frame.pixels[box] >= THRESHOLD).sum() == 800 * 800
    frame = rasterize_panel(intr, nadir_pose(0.0, 0.0, 1.19), panel, 127 / 255)
    assert frame.fill == 127
    with pytest.raises(EmptyMask):
        _bbox(frame.pixels, THRESHOLD)


def test_close_mask_square_element():
    mask = np.zeros((9, 9), dtype=bool)
    mask[4, 4] = True
    # a lone pixel grows to its 3 x 3 square and shrinks back
    np.testing.assert_array_equal(close_mask(mask, 1), mask)
    # a gap of up to 2 * radius rows is bridged, a wider one is not
    bars = np.zeros((12, 12), dtype=bool)
    bars[3:5, 3:8] = True
    bars[7:9, 3:8] = True
    closed = close_mask(bars, 1)
    assert closed[5:7, 3:8].all() and closed.sum() == bars.sum() + 10
    bars[5:11] = np.roll(bars[5:11], 1, axis=0)
    np.testing.assert_array_equal(close_mask(bars, 1), bars)
    # a pixel at the mask's corner is neither grown past nor eroded by the edge
    corner = np.zeros((9, 9), dtype=bool)
    corner[0, 0] = True
    np.testing.assert_array_equal(close_mask(corner, 2), corner)
    full = np.ones((5, 7), dtype=bool)
    np.testing.assert_array_equal(close_mask(full, 3), full)
    # a gap between a blob and the edge stays open: the outside is unset
    near = np.zeros((9, 9), dtype=bool)
    near[2:7, 3:7] = True
    np.testing.assert_array_equal(close_mask(near, 3), near)
    # radius 0 is a copy, not the same array
    same = close_mask(mask, 0)
    assert same is not mask
    np.testing.assert_array_equal(same, mask)
    assert close_mask(mask, 1).dtype == bool
    with pytest.raises(ValueError):
        close_mask(mask, -1)


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
    *runs, count = _largest(*_runs(mask))
    assert count == 16
    assert _as_lists(runs) == ([20, 21, 22, 23], [20] * 4, [24] * 4)
    tie = np.zeros((30, 30), dtype=bool)
    tie[1, 1] = True
    tie[9, 9] = True
    *runs, count = _largest(*_runs(tie))
    assert _as_lists(runs) == ([1], [1], [2]) and count == 1
    # the first pixel in (row, col) order wins, not the leftmost column
    tie = np.zeros((30, 30), dtype=bool)
    tie[5:8, 2] = True          # starts at (5, 2)
    tie[4, 20:23] = True        # starts at (4, 20)
    *runs, count = _largest(*_runs(tie))
    assert _as_lists(runs) == ([4], [20], [23]) and count == 3
    with pytest.raises(EmptyMask):
        _runs(np.zeros((5, 5), dtype=bool))


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
        *runs, count = _largest(*_runs(mask))
        assert _as_lists(runs) == _as_lists(_runs(want))
        assert count == int(want.sum())


@settings(max_examples=300)
@given(st.data())
def test_run_core_matches_pixel_oracle(data):
    """The run core against pixel labelling and pixel differences: the same
    largest component, origin and count, and boundary points equal in
    order and bits, for the largest blob and for the whole mask. Masks mix
    random pixels (several runs per row, diagonal-only contact, blobs on
    the array's edge) with copies of one small shape, whose sizes tie."""
    h, w = data.draw(st.integers(1, 24)), data.draw(st.integers(1, 24))
    g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mask = g.random((h, w)) < data.draw(st.sampled_from([0.0, 0.15, 0.35, 0.6]))
    if data.draw(st.booleans()):  # a diagonal line: 8-connected only
        k = np.arange(min(h, w))
        mask[k, k if data.draw(st.booleans()) else w - 1 - k] = True
    if data.draw(st.booleans()):  # copies of one shape, three apart: ties
        shape = g.random((3, 3)) < 0.6
        for r in range(data.draw(st.integers(0, 3)), h - 2, 6):
            for c in range(data.draw(st.integers(0, 3)), w - 2, 6):
                mask[r : r + 3, c : c + 3] = shape
    assume(mask.any())
    origin = (data.draw(st.integers(0, 50)), data.draw(st.integers(0, 50)))
    whole = _boundary_points(*_runs(mask, origin))
    assert whole.tobytes() == reference_boundary_points(mask, origin).tobytes()
    want_blob, (want_r, want_c), want_count = reference_largest_component(mask)
    want_origin = (want_r + origin[0], want_c + origin[1])
    row, start, end, count = _largest(*_runs(mask, origin))
    assert count == want_count
    assert (int(row[0]), int(start.min())) == want_origin
    assert _as_lists((row, start, end)) == _as_lists(_runs(want_blob, want_origin))
    got = _boundary_points(row, start, end)
    want = reference_boundary_points(want_blob, want_origin)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_largest_component_of_a_serpentine():
    """One blob that winds back and forth: 41 bars, each joined to the
    next at alternate ends, so the first run's label has to travel the
    whole path."""
    mask = np.zeros((60, 81), dtype=bool)
    mask[1:59, 0::2] = True
    for k in range(40):
        mask[59 if k % 2 == 0 else 0, 2 * k : 2 * k + 3] = True
    *runs, count = _largest(*_runs(mask))
    want_blob, want_origin, want_count = reference_largest_component(mask)
    assert want_origin == (0, 0) and count == want_count == mask.sum()
    assert _as_lists(runs) == _as_lists(_runs(want_blob, want_origin))


def test_detect_corners_subpixel_on_ideal_square(intr, panel):
    # the 1.19 m nadir view projects to the square [464, 1264] x [752, 1552]
    frame = rasterize_panel(intr, nadir_pose(0.0, 0.0, 1.19), panel, 1.0)
    pts = _corners(frame.pixels >= THRESHOLD)
    want = {(464.0, 752.0), (1264.0, 752.0), (1264.0, 1552.0), (464.0, 1552.0)}
    for w in want:
        d = np.hypot(pts[:, 0] - w[0], pts[:, 1] - w[1]).min()
        assert d < 1.0


def test_detect_corners_window_validation():
    with pytest.raises(EmptyMask):
        _corners(np.zeros((50, 50), dtype=bool))


def test_tiny_blob_has_too_few_separated_corners():
    mask = np.zeros((60, 60), dtype=bool)
    mask[25:35, 25:35] = True  # no side keeps a point past the corner margins
    with pytest.raises(TooFewCorners):
        _corners(mask)


def test_detect_corners_moves_with_the_blob(intr, panel):
    """The fit sees only frame coordinates: a crop placed at its origin
    gives the full mask's corners bit for bit, and shifting the blob by
    whole pixels shifts its corners by exactly that much, up to rounding."""
    g = rng(57)
    pos = Vec3(0.1, -0.05, 1.5)
    frame = rasterize_panel(intr, Pose(pos, _draw_attitude(g, pos, 20.0, 12.0)),
                            panel, 1.0)
    full = frame.pixels >= THRESHOLD
    blob = full[_bbox(full, True)]
    corners = []
    for dr, dc in ((3, 5), (1203, 1871)):
        mask = np.zeros((blob.shape[0] + 1300, blob.shape[1] + 1900), dtype=bool)
        mask[dr : dr + blob.shape[0], dc : dc + blob.shape[1]] = blob
        corners.append(_corners(mask))
        crop = _fit_quad(_boundary_points(*_runs(mask[dr - 2 :, dc - 1 :],
                                                 (dr - 2, dc - 1))))
        np.testing.assert_array_equal(crop, corners[-1])
    np.testing.assert_allclose(corners[1] - corners[0], [[1866, 1200]] * 4,
                               rtol=0, atol=1e-9)


@settings(max_examples=200)
@given(st.data())
def test_detect_corners_fails_typed_on_any_blob(data):
    """Any mask gives four finite corners or a VisionFailure: degenerate
    blobs never surface an IndexError, a LinAlgError or a warning."""
    h, w = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
    mask = np.zeros((h, w), dtype=bool)
    for _ in range(data.draw(st.integers(1, 3))):
        r0, c0 = data.draw(st.integers(0, h - 1)), data.draw(st.integers(0, w - 1))
        r1, c1 = data.draw(st.integers(r0, h - 1)), data.draw(st.integers(c0, w - 1))
        mask[r0 : r1 + 1, c0 : c1 + 1] = True
    holes = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mask &= holes.random(mask.shape) < data.draw(st.sampled_from([1.0, 0.8]))
    try:
        pts = _corners(mask)
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
    for radius in (0, stripe_merge_radius(intr)):
        with pytest.raises(EmptyMask):
            extract_corners(dark, merge_radius=radius)


@st.composite
def _half_integer_points(draw) -> np.ndarray:
    """1-3 free points, then copies of them and collinear runs, all on the
    half-integer lattice that boundary points live on."""
    coord = st.integers(-40, 40).map(lambda k: k / 2.0)
    pts = [(draw(coord), draw(coord)) for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 3))):
        u, v = draw(st.sampled_from(pts))
        du, dv = draw(st.sampled_from([(0.5, 0.0), (0.0, 0.5), (0.5, 0.5),
                                       (0.5, -1.0), (1.5, 1.0)]))
        pts += [(u + k * du, v + k * dv) for k in range(1, draw(st.integers(1, 6)))]
    pts += draw(st.lists(st.sampled_from(pts), max_size=4))
    return np.array(pts)


@settings(max_examples=500)
@given(_half_integer_points(), st.data())
def test_hull_matches_qhull(pts, data):
    """The hull's vertices are Qhull's, in Qhull's counterclockwise order,
    from the lowest-u, then lowest-v point; a row permutation of the input
    gives the same coordinates. Where Qhull finds no hull (one distinct
    point, or all on a line), the hull is that point, or the line's two
    ends."""
    got = pts[_hull(pts)]
    perm = np.array(data.draw(st.permutations(range(len(pts)))))
    np.testing.assert_array_equal(pts[perm][_hull(pts[perm])], got)
    ends = pts[np.lexsort((pts[:, 1], pts[:, 0]))[[0, -1]]]
    np.testing.assert_array_equal(got[0], ends[0])
    try:
        want = pts[spatial.ConvexHull(pts).vertices]
    except spatial.QhullError:
        distinct = len(np.unique(pts, axis=0))
        np.testing.assert_array_equal(got, ends[: min(distinct, 2)])
        return
    start = np.flatnonzero((want == got[0]).all(axis=1))
    assert start.size == 1 and len(got) == len(want)
    np.testing.assert_array_equal(np.roll(want, -start[0], axis=0), got)


@settings(max_examples=300)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=4, max_size=30))
@example([(2, 0), (4, 0), (6, 2), (6, 4), (4, 6), (2, 6), (0, 4), (0, 2)])  # octagon
def test_widest_subset_matches_loop_oracle(cells):
    """The widest quad's four hull vertices, ties included, are the loop's:
    on a small half-integer lattice equal spans are common."""
    pts = np.array(cells, dtype=np.float64) / 2.0
    hull = pts[_hull(pts)]
    assume(len(hull) >= 4)
    assert _widest_subset(hull) == reference_widest_subset(hull)


@pytest.mark.parametrize("pts", [[[1.5, 2.0]] * 3, [[1.5, 2.0], [3.0, 2.5], [1.5, 2.0]],
                                 [[0.0, 0.0], [1.0, 0.5], [2.0, 1.0], [4.0, 2.0]]],
                         ids=["one-point", "two-points", "one-line"])
def test_fit_quad_on_a_degenerate_boundary(pts):
    with pytest.raises(TooFewCorners, match="hull has [12] vertices"):
        _fit_quad(np.array(pts))


def test_disc_is_rejected_as_non_quad():
    yy, xx = np.mgrid[0:300, 0:300]
    disc = (yy - 150) ** 2 + (xx - 150) ** 2 <= 60 ** 2
    with pytest.raises(VisionFailure, match="curved outline"):
        extract_corners(_frame_from(disc))


def test_quad_cutting_across_the_blob_is_rejected():
    """A square with a 10 px bar jutting up and right from its top edge at
    60 degrees: the side lines fitted near the bar's tip cut across the
    square, and the quad covers about 70% of the blob's pixels."""
    yy, xx = np.mgrid[0:480, 0:640]
    square = (abs(xx - 320) < 60) & (abs(yy - 240) < 60)
    u, v = xx - 370, yy - 181
    s, c = np.sin(np.radians(60)), np.cos(np.radians(60))
    along, across = u * s - v * c, abs(u * c + v * s)
    bar = (along >= 0) & (along < 35) & (across < 5.01)
    with pytest.raises(VisionFailure, match="covers under 80% of the blob"):
        extract_corners(_frame_from(square | bar))


@settings(max_examples=300)
@given(st.data())
def test_closing_padded_bbox_crop_matches_full_mask(data):
    """extract_corners closes the crop of the set pixels' bounding box, or
    any crop holding it; pasted back, it must equal the closing of the
    whole mask, also where blobs touch or come near the mask's border:
    crop and mask both read past their edges as unset."""
    h, w = data.draw(st.integers(1, 64)), data.draw(st.integers(1, 64))
    radius = data.draw(st.integers(0, 6))
    mask = np.zeros((h, w), dtype=bool)
    for _ in range(data.draw(st.integers(1, 4))):
        r0, c0 = data.draw(st.integers(0, h - 1)), data.draw(st.integers(0, w - 1))
        r1, c1 = data.draw(st.integers(r0, h - 1)), data.draw(st.integers(c0, w - 1))
        mask[r0 : r1 + 1, c0 : c1 + 1] = True
    border = data.draw(st.sampled_from([None, 0, 1, -1, -2]))
    if border is not None and -min(h, w) <= border < min(h, w):
        mask[border, :] |= data.draw(st.booleans())
        mask[:, border] |= data.draw(st.booleans())
    holes = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mask &= holes.random(mask.shape) < data.draw(st.sampled_from([1.0, 0.9, 0.6]))
    assume(mask.any())
    rows, cols = _bbox(mask, True)
    pad = data.draw(st.integers(0, radius + 1))
    box = (slice(max(0, rows.start - pad), rows.stop + pad),
           slice(max(0, cols.start - pad), cols.stop + pad))
    pasted = np.zeros_like(mask)
    pasted[box] = close_mask(mask[box], radius)
    np.testing.assert_array_equal(pasted, close_mask(mask, radius))


@settings(max_examples=200)
@given(st.data())
def test_close_mask_matches_ndimage_closing(data):
    """The one-axis-at-a-time closing against scipy's grey closing of the
    mask inside a border of unset pixels wider than the element: past its
    edges the mask goes on unset."""
    h, w = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
    radius = data.draw(st.integers(1, 9))
    g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mask = g.random((h, w)) < data.draw(st.sampled_from([0.05, 0.3, 0.7, 0.95]))
    size = 2 * radius + 1
    want = ndimage.grey_closing(np.pad(mask, size), size=(size, size))
    got = close_mask(mask, radius)
    assert got.dtype == bool
    np.testing.assert_array_equal(got, want[size : size + h, size : size + w])


def test_closing_stays_inside_the_bounding_box():
    """The crop needs no pad: every square window through a pixel outside
    the set pixels' bounding box can lie wholly outside it, so the closing
    sets no such pixel, and the crop's outside reads unset as the mask's
    does."""
    mask = np.zeros((30, 30), dtype=bool)
    mask[10:14, 10:20] = True
    mask[16:20, 10:20] = True  # a 2-row gap
    closed = close_mask(mask, 2)
    assert closed[10:20, 10:20].all() and closed.sum() == 100
    box = _bbox(mask, True)
    np.testing.assert_array_equal(close_mask(mask[box], 2), closed[box])


def test_merged_corners_near_a_sensor_edge(intr, panel):
    """A steady panel in view within the merge radius of a sensor edge:
    closing keeps the strip between panel and edge open, so merged corners
    stay within 1 px of plain ones instead of snapping onto the edge. The
    sweep runs the panel's bottom edge from 47 to 4 px above the sensor's,
    and its top, left and right edges as near to theirs."""
    merge = stripe_merge_radius(intr)
    near = 0
    poses = ([(0.0, y) for y in np.linspace(0.600, 0.635, 8)]
             + [(0.0, -0.62), (0.0, -0.63), (0.38, 0.0), (0.4, 0.0), (-0.4, 0.0)])
    for x, y in poses:
        pose = nadir_pose(x, y, 1.3)
        quad = project_panel_corners(intr, pose, panel)
        assert in_fov(quad, intr)
        gap = min(quad.points.min(), intr.width_px - quad.points[:, 0].max(),
                  intr.height_px - quad.points[:, 1].max())
        near += gap < merge
        frame = rasterize_panel(intr, pose, panel, base_brightness(pose, panel, intr))
        plain = extract_corners(frame).points
        merged = extract_corners(frame, merge_radius=merge).points
        assert np.abs(merged - plain).max() < 1.0, (x, y, gap)
    assert near == 6


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


def test_extract_corners_matches_pixel_oracle_bit_for_bit(intr, panel):
    """Runs against whole-frame pixel masks, through the same quad fit:
    plain and striped noisy frames at the decode heights give the same
    corner bits, or the same typed failure."""
    merge = stripe_merge_radius(intr)
    g = rng(77)
    checked = 0
    for height in (1.23, 1.3, 1.6, 1.66):
        for _ in range(2):
            pose = nadir_pose(float(g.uniform(-0.15, 0.15)),
                              float(g.uniform(-0.15, 0.15)), height,
                              yaw=float(g.uniform(0.0, 360.0)))
            base = rasterize_panel(intr, pose, panel,
                                   base_brightness(pose, panel, intr))
            striped = apply_rolling_shutter(base, base.quad, dm_encode(0x5A),
                                            phase_us=float(g.uniform(0.0, 800.0)))
            for frame, radius in ((add_capture_noise(base, 1.0, 5.1, g), 0),
                                  (add_capture_noise(striped, 1.0, 5.1, g), merge)):
                try:
                    want = reference_extract_corners(frame, radius).points
                except VisionFailure as exc:
                    with pytest.raises(type(exc)):
                        extract_corners(frame, merge_radius=radius)
                    continue
                got = extract_corners(frame, merge_radius=radius).points
                assert got.tobytes() == want.tobytes(), (height, radius)
                checked += 1
    assert checked == 16


def _same_fit(pts: np.ndarray) -> bool:
    """_fit_sides and reference_fit_sides on pts, its hull and the hull's
    widest quad: the same corner bits, or the same TooFewCorners message.
    False when the hull has under four vertices, so there is no quad."""
    hull = pts[_hull(pts)]
    if len(hull) < 4:
        return False
    quad = hull[_widest_subset(hull)]
    try:
        want = reference_fit_sides(pts, hull, quad)
    except TooFewCorners as exc:
        with pytest.raises(TooFewCorners) as got:
            _fit_sides(pts, hull, quad)
        assert str(got.value) == str(exc)
        return True
    assert _fit_sides(pts, hull, quad).tobytes() == want.tobytes()
    return True


def test_fit_sides_matches_per_side_oracle_on_frames(intr, panel):
    """The one-pass side fit gives reference_fit_sides' corners bit for bit
    on every _oracle_frames blob with a quad: clean, noisy and striped,
    nadir, dithered and clipped."""
    fitted = 0
    for name, frame, merge_radius in _oracle_frames(intr, panel):
        try:
            box = _bbox(frame.pixels, THRESHOLD)
        except EmptyMask:
            continue
        crop = frame.pixels[box] >= THRESHOLD
        if merge_radius:
            crop = close_mask(crop, merge_radius)
        runs = _largest(*_runs(crop, (box[0].start, box[1].start)))[:3]
        fitted += _same_fit(_boundary_points(*runs))
    assert fitted == 30


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["cloud", "kite", "blob"]))
def test_fit_sides_matches_per_side_oracle_on_point_sets(seed, kind):
    """The same on random half-integer point sets: a cloud of lattice
    points; every lattice point of a thin kite, shuffled, mirror-symmetric
    about its long axis, so points on the axis lie exactly as near one
    side as the other and the tie rule decides their side; or the
    boundary of a notched quad's pixels. Small sets often leave a side too
    short or with too few points, and must raise the oracle's
    TooFewCorners message."""
    g = np.random.default_rng(seed)
    if kind == "cloud":
        pts = g.integers(0, 121, size=(int(g.integers(4, 200)), 2)) / 2.0
    elif kind == "kite":
        a, half = float(g.integers(20, 100)), float(g.integers(3, 13)) / 2.0
        b = a + float(g.integers(8, 31))
        grid = np.indices((int(2 * b) + 1, int(4 * half) + 1)).reshape(2, -1).T / 2.0
        grid[:, 1] -= half
        kite = [[0.0, 0.0], [a, -half], [b, 0.0], [a, half]]
        pts = g.permutation(grid[point_in_convex_quad(grid, kite)])
    else:
        quad = g.uniform(0.0, 60.0, size=(4, 2))
        quad = quad[np.argsort(np.arctan2(*(quad - quad.mean(axis=0)).T))]
        rows, cols = np.indices((60, 60)) + 0.5
        centres = np.column_stack([cols.ravel(), rows.ravel()])
        inside = point_in_convex_quad(centres, quad).reshape(60, 60)
        inside ^= g.random(inside.shape) < 0.01
        assume(inside.any())
        pts = _boundary_points(*_largest(*_runs(inside))[:3])
    _same_fit(pts)


@pytest.mark.parametrize("band", ["all", "rows", "cols"])
def test_saturated_frame_raises(intr, band):
    px = np.zeros((intr.height_px, intr.width_px), dtype=np.uint8)
    if band == "all":
        px[:] = 255
    elif band == "rows":
        px[:, 500:900] = 255  # full-height band
    else:
        px[1000:1400, :] = 255  # full-width band
    for radius in (0, stripe_merge_radius(intr)):
        with pytest.raises(SaturatedFrame, match="full height or width"):
            extract_corners(Frame(px, FrameMeta()), merge_radius=radius)


def test_panel_clipped_at_one_corner_is_not_saturated(intr, panel):
    """A blob touching two adjacent sensor edges does not span the sensor."""
    pose = nadir_pose(0.5, -0.75, 1.3)
    assert not in_fov(project_panel_corners(intr, pose, panel), intr)
    frame = rasterize_panel(intr, pose, panel, base_brightness(pose, panel, intr))
    mask = frame.pixels >= THRESHOLD
    assert mask[0].any() and mask[:, 0].any()
    assert np.isfinite(extract_corners(frame).points).all()
