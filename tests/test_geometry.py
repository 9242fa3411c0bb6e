"""Projection, attitude and corner-ordering tests.

The pinhole numbers are checked against hand arithmetic (similar
triangles), not against the implementation's own output.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import nadir_pose, rng
from helpers import project_point
from vlp.errors import BehindCamera, DegenerateQuad
from vlp.geometry import (
    BASE_ALIGNMENT,
    Attitude,
    CameraIntrinsics,
    CornerSet,
    LedPanel,
    Pose,
    Vec3,
    attitude_matrices,
    batch_project_points,
    camera_rotations,
    canonical_order,
    in_fov,
    matrix_to_attitude,
    on_sensor,
    order_corners,
    project_panel_corners,
    rotation_about_axis,
)


def test_vec3_arithmetic():
    a = Vec3(1.0, 2.0, 3.0)
    assert Vec3(3.0, 4.0, 0.0).norm() == pytest.approx(5.0)
    assert Vec3(*a.as_array()) == a


def test_vec3_rejects_non_finite():
    with pytest.raises(ValueError):
        Vec3(1.0, float("nan"), 0.0)
    with pytest.raises(ValueError):
        Vec3(float("inf"), 0.0, 0.0)


def test_attitude_normalizes_to_0_360():
    att = Attitude(-10.0, 370.0, 720.0)
    assert att.roll == pytest.approx(350.0)
    assert att.pitch == pytest.approx(10.0)
    assert att.yaw == pytest.approx(0.0)
    # 360 - a tiny angle rounds to 360 itself, which is 0; -0.0 is 0.0
    for tiny in (-1e-20, -1e-14, -5e-324, -0.0):
        att = Attitude(tiny, tiny, tiny)
        for v in (att.roll, att.pitch, att.yaw):
            assert 0.0 <= v < 360.0 and math.copysign(1.0, v) == 1.0, tiny
    assert Attitude(-1e-12).roll == 360.0 - 1e-12


def test_pose_requires_receiver_below_panel():
    with pytest.raises(ValueError):
        Pose(Vec3(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        Pose(Vec3(0.0, 0.0, -1.3))


def test_intrinsics_defaults_and_validation():
    intr = CameraIntrinsics()
    assert (intr.width_px, intr.height_px) == (1728, 2304)
    assert intr.fx_px == intr.fy_px == 1600.0
    assert (intr.cx_px, intr.cy_px) == (864.0, 1152.0)
    assert intr.exposure_us == 68.0
    assert intr.row_readout_us == 2.5
    assert intr.iso_gain == 100.0
    with pytest.raises(ValueError):
        CameraIntrinsics(width_px=0)
    with pytest.raises(ValueError):
        CameraIntrinsics(fx_px=-1.0)
    with pytest.raises(ValueError):
        CameraIntrinsics(cx_px=5000.0)
    with pytest.raises(ValueError):
        CameraIntrinsics(exposure_us=0.0)


def test_panel_corners_lcs():
    panel = LedPanel()
    assert panel.side_m == 0.595
    h = 0.2975
    want = np.array([[h, h, 0], [-h, h, 0], [-h, -h, 0], [h, -h, 0]])
    np.testing.assert_allclose(panel.corners_lcs(), want)
    with pytest.raises(ValueError):
        LedPanel(side_m=0.0)


def test_panel_is_a_hashable_value():
    assert LedPanel() == LedPanel()
    assert hash(LedPanel()) == hash(LedPanel())
    assert LedPanel(flux_lm=1800.0) != LedPanel()


def _rotation(att: Attitude) -> np.ndarray:
    return attitude_matrices(np.array([[att.roll, att.pitch, att.yaw]]))[0]


def test_attitude_matrices_are_rotations():
    g = rng(7)
    for _ in range(200):
        att = Attitude(*(g.uniform(0.0, 360.0, size=3)))
        r = _rotation(att)
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_batched_attitudes_equal_single_poses():
    """A batch row rounds exactly like the same attitude built alone, so
    the sweep's batch and a single pose's projection see the same camera
    rotation bits."""
    g = rng(13)
    angles = np.vstack([g.uniform(0.0, 360.0, size=(500, 3)),
                        list(itertools.product(range(0, 360, 30), repeat=3)),
                        list(itertools.product(range(0, 360, 45), repeat=3))])
    for build in (attitude_matrices, camera_rotations):
        batch = build(angles)
        assert batch.shape == (angles.shape[0], 3, 3)
        single = np.concatenate([build(a[None, :]) for a in angles])
        assert batch.tobytes() == single.tobytes()


def test_yaw_only_matches_plane_rotation():
    r = _rotation(Attitude(0.0, 0.0, 90.0))
    want = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(r, want, atol=1e-15)


def test_matrix_attitude_round_trip():
    g = rng(11)
    for _ in range(300):
        att = Attitude(*(g.uniform(0.0, 360.0, size=3)))
        r = _rotation(att)
        back = _rotation(matrix_to_attitude(r))
        np.testing.assert_allclose(back, r, atol=1e-9)


def test_rotation_about_axis_properties():
    np.testing.assert_allclose(rotation_about_axis(np.array([0.0, 0.0, 1.0]), 90.0),
                               _rotation(Attitude(0.0, 0.0, 90.0)), atol=1e-15)
    g = rng(3)
    for _ in range(50):
        axis = g.normal(size=3)
        ang = float(g.uniform(-180.0, 180.0))
        r = rotation_about_axis(axis, ang)
        np.testing.assert_allclose(r @ axis, axis, atol=1e-12)
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)


def test_camera_rotation_identity_attitude_is_base_alignment():
    np.testing.assert_allclose(camera_rotations(np.zeros((1, 3)))[0], BASE_ALIGNMENT)


def test_nadir_projection_offset_magnitude(intr, panel):
    # similar triangles: a corner 0.2975 m off-axis seen from 1.3 m lands
    # 1600 * 0.2975 / 1.3 = 366.1538... px from the principal point
    pose = nadir_pose(0.0, 0.0, 1.3)
    offs = 1600.0 * 0.2975 / 1.3
    for corner in panel.corners_lcs():
        u, v = project_point(intr, pose, Vec3(*corner))
        assert abs(u - 864.0) == pytest.approx(offs, abs=1e-9)
        assert abs(v - 1152.0) == pytest.approx(offs, abs=1e-9)


def test_projection_scales_inversely_with_distance(intr, panel):
    u1, _ = project_point(intr, nadir_pose(0.0, 0.0, 1.3), Vec3(0.2975, 0.2975, 0.0))
    u2, _ = project_point(intr, nadir_pose(0.0, 0.0, 2.6), Vec3(0.2975, 0.2975, 0.0))
    assert abs(u2 - 864.0) == pytest.approx(abs(u1 - 864.0) / 2.0, abs=1e-9)


def test_translated_camera_shifts_center(intr):
    # camera 0.1 m east of the panel center: the center pixel moves by
    # -1600 * 0.1 / 1.3 along u and stays on v
    u, v = project_point(intr, nadir_pose(0.1, 0.0, 1.3), Vec3(0.0, 0.0, 0.0))
    assert u == pytest.approx(864.0 - 1600.0 * 0.1 / 1.3, abs=1e-9)
    assert v == pytest.approx(1152.0, abs=1e-9)


def test_point_behind_camera_raises(intr):
    pose = nadir_pose(0.0, 0.0, 1.3)
    with pytest.raises(BehindCamera):
        project_point(intr, pose, Vec3(0.0, 0.0, 2.0))
    with pytest.raises(BehindCamera):
        project_point(intr, pose, Vec3(0.0, 0.0, 1.3))


def test_project_panel_corners_matches_pointwise(intr, panel):
    g = rng(19)
    for _ in range(25):
        pose = Pose(
            Vec3(float(g.uniform(-0.3, 0.3)), float(g.uniform(-0.3, 0.3)),
                 float(g.uniform(1.2, 2.0))),
            Attitude(float(g.uniform(-3, 3)), float(g.uniform(-3, 3)),
                     float(g.uniform(0, 360))),
        )
        got = project_panel_corners(intr, pose, panel)
        single = {project_point(intr, pose, Vec3(*c))
                  for c in panel.corners_lcs()}
        assert {(round(u, 9), round(v, 9)) for u, v in got.points} == \
               {(round(u, 9), round(v, 9)) for u, v in single}


def test_batch_project_matches_single(intr, panel):
    g = rng(23)
    m = 40
    positions = np.column_stack([g.uniform(-0.4, 0.4, m), g.uniform(-0.4, 0.4, m),
                                 g.uniform(1.1, 2.2, m)])
    angles = g.uniform(0.0, 360.0, size=(m, 3))
    atts = [Attitude(*a) for a in angles]
    rots = camera_rotations(angles)
    uv, valid = batch_project_points(intr, positions, rots, panel.corners_lcs())
    assert uv.shape == (m, 4, 2) and valid.shape == (m,)
    for i in range(m):
        pose = Pose(Vec3(*positions[i]), atts[i])
        try:
            want = [project_point(intr, pose, Vec3(*c))
                    for c in panel.corners_lcs()]
        except BehindCamera:
            assert not valid[i]
            continue
        assert valid[i]
        np.testing.assert_allclose(uv[i], want, atol=1e-9)


def test_in_fov_bounds_are_half_open(intr):
    inside = np.array([[0.0, 0.0], [1727.9, 0.0], [1727.9, 2303.9], [0.0, 2303.9]])
    assert in_fov(CornerSet(inside), intr)
    on_edge = inside.copy()
    on_edge[1] = [1728.0, 0.0]
    assert not in_fov(CornerSet(on_edge), intr)
    negative = inside.copy()
    negative[0] = [-0.001, 0.0]
    assert not in_fov(CornerSet(negative), intr)


def test_on_sensor_is_in_fov_per_quad(intr):
    g = rng(17)
    quads = g.uniform(-200.0, 2500.0, size=(3, 200, 4, 2))
    got = on_sensor(quads, intr)
    assert got.shape == (3, 200) and got.any() and not got.all()
    want = [[in_fov(CornerSet(q), intr) for q in batch] for batch in quads]
    np.testing.assert_array_equal(got, want)


@given(st.permutations(range(4)))
def test_canonical_order_is_permutation_invariant(perm):
    pts = np.array([[10.0, 2.0], [3.0, 8.0], [-5.0, 1.0], [2.0, -6.0]])
    base = pts[canonical_order(pts)]
    shuffled = pts[list(perm)]
    np.testing.assert_array_equal(shuffled[canonical_order(shuffled)], base)


def test_canonical_order_starts_at_smallest_angle():
    # points at 10, 100, 190, 280 degrees about the centroid
    angles = np.radians([100.0, 190.0, 10.0, 280.0])
    pts = np.column_stack([np.cos(angles), np.sin(angles)]) + 5.0
    idx = canonical_order(pts)
    assert list(idx) == [2, 0, 1, 3]


def test_canonical_order_batched_matches_flat():
    g = rng(5)
    batch = g.uniform(-10.0, 10.0, size=(30, 4, 2))
    batched = canonical_order(batch)
    for k in range(30):
        np.testing.assert_array_equal(batched[k], canonical_order(batch[k]))


def test_order_corners_rejects_degenerate_input():
    with pytest.raises(DegenerateQuad):
        order_corners([[0, 0], [0, 0], [1, 1], [2, 0]])
    with pytest.raises(DegenerateQuad):
        order_corners([[0, 0], [1, 1], [2, 2], [0, 5]])


def _triple_loop_verdict(pts: np.ndarray) -> str:
    """What a loop over the point triples says of four points: "collinear"
    when a triple's cross product is below the order_corners bound,
    "non-convex" when a point lies inside the other three's triangle, or
    "" for a convex quad."""
    def cross(i, j, k):
        (ax, ay), (bx, by), (cx, cy) = pts[i], pts[j], pts[k]
        return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)

    scale = max(1.0, max(float(((pts[i] - pts[j]) ** 2).sum())
                         for i, j in itertools.combinations(range(4), 2)))
    if any(abs(cross(*t)) < 1e-9 * scale for t in itertools.combinations(range(4), 3)):
        return "collinear"
    for m in range(4):
        i, j, k = (n for n in range(4) if n != m)
        sides = [cross(i, j, m) > 0, cross(j, k, m) > 0, cross(k, i, m) > 0]
        if all(sides) or not any(sides):
            return "non-convex"
    return ""


def test_order_corners_matches_a_triple_loop():
    g = rng(41)
    sets = g.uniform(0.0, 100.0, size=(1500, 4, 2))
    sets[:100, 2] = (sets[:100, 0] + sets[:100, 1]) / 2.0  # a collinear triple
    sets[100:200, 3] = sets[100:200, 1]                      # a duplicate point
    verdicts = {"collinear": 0, "non-convex": 0, "": 0}
    for pts in sets:
        verdict = _triple_loop_verdict(pts)
        verdicts[verdict] += 1
        if verdict:
            with pytest.raises(DegenerateQuad, match=verdict):
                order_corners(pts)
        else:
            assert order_corners(pts) == CornerSet(pts)
    assert verdicts["collinear"] == 200 and min(verdicts["non-convex"], verdicts[""]) > 300


def test_order_corners_rejects_reflex_corner():
    # (5, 4) sits inside the triangle of the other three: angular ordering
    # around the centroid keeps it, producing a reflex vertex
    with pytest.raises(DegenerateQuad, match="non-convex"):
        order_corners([[10.0, 10.0], [5.0, 4.0], [0.0, 0.0], [10.0, 0.0]])


def test_corner_set_validation_and_equality():
    pts = [[1, 2], [3, 4], [5, 6], [7, 8]]
    cs = CornerSet(pts)
    assert cs == CornerSet(pts)
    assert cs != CornerSet([[0, 2], [3, 4], [5, 6], [7, 8]])
    assert "CornerSet[" in repr(cs)
    with pytest.raises(ValueError):
        CornerSet([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        CornerSet([[np.nan, 2], [3, 4], [5, 6], [7, 8]])


def test_quarter_turn_yaw_cycles_canonical_corners(intr, panel):
    """Rotating the camera 90 degrees about the boresight relabels the
    canonically ordered corners by a cyclic shift; the ordered point set
    itself is indistinguishable up to that shift. This is the symmetry that
    caps what any regressor can recover from full-circle yaw data."""
    base = project_panel_corners(intr, nadir_pose(0.0, 0.0, 1.3, yaw=0.0), panel)
    turned = project_panel_corners(intr, nadir_pose(0.0, 0.0, 1.3, yaw=90.0), panel)
    np.testing.assert_allclose(turned.points, base.points, atol=1e-9)


def test_corner_set_orders_any_permutation_to_the_same_bytes(intr, panel):
    corners = project_panel_corners(intr, nadir_pose(0.05, -0.1, 1.5, yaw=33.0), panel)
    for perm in itertools.permutations(range(4)):
        got = CornerSet(corners.points[list(perm)]).points
        assert got.tobytes() == corners.points.tobytes()
        assert not got.flags.writeable


def test_all_24_orderings_collapse_to_one(intr, panel):
    corners = project_panel_corners(intr, nadir_pose(0.05, -0.1, 1.5), panel)
    for perm in itertools.permutations(range(4)):
        reordered = order_corners(corners.points[list(perm)])
        assert reordered == corners
