"""Panel/camera geometry: frames, attitude, pinhole projection, field of view.

Coordinate conventions used throughout the toolkit:

- Light coordinate system (LCS): origin at the LED panel center, the panel
  lies in the z = 0 plane, +z points down toward the floor. A receiver
  below the panel therefore has position.z > 0.
- Camera frame: +z along the boresight, +x right and +y down in the image.
  At identity attitude the boresight points straight up at the panel
  (along -z of the LCS) and image +x coincides with LCS +x; this base
  alignment is the fixed rotation ``BASE_ALIGNMENT`` (a half turn about x),
  so image +y runs along LCS -y.
- Attitude (roll, pitch, yaw) in degrees composes intrinsically as
  R = Rz(yaw) @ Ry(pitch) @ Rx(roll) and is applied on top of the base
  alignment: camera-to-LCS orientation = R @ BASE_ALIGNMENT.
- Pixels: u along sensor width, v along height, origin at the top-left
  pixel center's corner; the principal point defaults to the sensor center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BehindCamera, DegenerateQuad

# Camera axes vs LCS axes at identity attitude: x -> x, y -> -y, z -> -z.
BASE_ALIGNMENT = np.diag([1.0, -1.0, -1.0])


@dataclass(frozen=True)
class Vec3:
    """A 3-vector in meters. Components must be finite."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError(f"non-finite vector ({self.x}, {self.y}, {self.z})")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)


@dataclass(frozen=True)
class Attitude:
    """Receiver attitude in degrees, normalized to [0, 360)."""

    roll: float = 0.0
    pitch: float = 0.0
    yaw: float = 0.0

    def __post_init__(self):
        for name in ("roll", "pitch", "yaw"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"non-finite {name}")
            v %= 360.0
            # v % 360 of a negative v within half an ULP of 360 rounds to 360
            object.__setattr__(self, name, 0.0 if v == 360.0 else v)


@dataclass(frozen=True)
class Pose:
    """Receiver position (LCS, meters) and attitude. The receiver sits below
    the panel plane, so position.z must be positive."""

    position: Vec3
    attitude: Attitude = field(default_factory=Attitude)

    def __post_init__(self):
        if self.position.z <= 0:
            raise ValueError(f"receiver must be below the panel plane (z > 0), got z={self.position.z}")


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole camera with a rolling shutter.

    The sensor is portrait 3:4 by default. Focal lengths are in pixels.
    exposure_us is the per-row exposure time; row_readout_us is the time
    between the starts of consecutive rows. iso_gain is a dimensionless
    sensitivity scale with 100 as the reference.
    """

    width_px: int = 1728
    height_px: int = 2304
    fx_px: float = 1600.0
    fy_px: float = 1600.0
    cx_px: float = 864.0
    cy_px: float = 1152.0
    exposure_us: float = 68.0
    iso_gain: float = 100.0
    row_readout_us: float = 2.5

    def __post_init__(self):
        if self.width_px <= 0 or self.height_px <= 0:
            raise ValueError("sensor dimensions must be positive")
        if self.fx_px <= 0 or self.fy_px <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx_px < self.width_px and 0 <= self.cy_px < self.height_px):
            raise ValueError("principal point must lie on the sensor")
        if self.exposure_us <= 0 or self.row_readout_us <= 0 or self.iso_gain <= 0:
            raise ValueError("exposure, readout and gain must be positive")


@dataclass(frozen=True)
class LedPanel:
    """Square ceiling LED panel, centered at the LCS origin, facing +z (down).

    The panel emits as a Lambertian source carrying flux_lm lumens.
    """

    side_m: float = 0.595
    flux_lm: float = 3600.0

    def __post_init__(self):
        if self.side_m <= 0 or self.flux_lm <= 0:
            raise ValueError("panel side and flux must be positive")

    def corners_lcs(self) -> np.ndarray:
        """The four panel corners in the LCS, shape (4, 3)."""
        h = self.side_m / 2.0
        return np.array(
            [[h, h, 0.0], [-h, h, 0.0], [-h, -h, 0.0], [h, -h, 0.0]],
            dtype=np.float64,
        )


class CornerSet:
    """Four ordered pixel-space corners, shape (4, 2), canonically ordered."""

    __slots__ = ("points",)

    def __init__(self, points):
        pts = np.asarray(points, dtype=np.float64)
        if pts.shape != (4, 2):
            raise ValueError(f"corner set must be 4x2, got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("corner coordinates must be finite")
        pts = pts.copy()
        pts.flags.writeable = False
        self.points = pts

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def __eq__(self, other):
        return isinstance(other, CornerSet) and np.array_equal(self.points, other.points)

    def __repr__(self):
        rounded = [f"({u:.2f}, {v:.2f})" for u, v in self.points]
        return f"CornerSet[{', '.join(rounded)}]"


def canonical_order(points: np.ndarray) -> np.ndarray:
    """Indices ordering points by angle about their centroid, ascending.

    Angles are measured from the +u axis in [0, 2*pi); exact angle ties fall
    back to radius. Works on a (4, 2) array or a batch (..., 4, 2).
    """
    pts = np.asarray(points, dtype=np.float64)
    centroid = pts.mean(axis=-2, keepdims=True)
    d = pts - centroid
    ang = np.mod(np.arctan2(d[..., 1], d[..., 0]), 2.0 * np.pi)
    radius = np.hypot(d[..., 0], d[..., 1])
    # angle dominates, radius breaks ties
    return np.lexsort(np.stack([radius, ang]), axis=-1)


def order_corners(points) -> CornerSet:
    """Canonical corner ordering: ascending angle about the centroid,
    starting from the smallest angle measured from +u.

    Raises DegenerateQuad for duplicate points or any collinear triple.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(4, 2)
    scale = 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            d2 = float(np.sum((pts[i] - pts[j]) ** 2))
            scale = max(scale, d2)
            if d2 < 1e-18:
                raise DegenerateQuad(f"duplicate corner points at index {i} and {j}")
    for i in range(4):
        for j in range(i + 1, 4):
            for k in range(j + 1, 4):
                cross = (pts[j, 0] - pts[i, 0]) * (pts[k, 1] - pts[i, 1]) - (
                    pts[j, 1] - pts[i, 1]
                ) * (pts[k, 0] - pts[i, 0])
                if abs(cross) < 1e-9 * max(scale, 1.0):
                    raise DegenerateQuad(f"collinear corner points {i}, {j}, {k}")
    return CornerSet(pts[canonical_order(pts)])


def attitude_matrices(angles_deg: np.ndarray) -> np.ndarray:
    """Rotation matrices Rz(yaw) @ Ry(pitch) @ Rx(roll) for an (M, 3) array
    of roll, pitch, yaw in degrees, shape (M, 3, 3).

    Each row of the stacked ``@`` chain rounds like the 3x3 product of that
    pose alone, so a batch row equals a one-row batch of the same angles
    bit for bit; a three-operand einsum rounds differently.
    """
    r = np.radians(np.asarray(angles_deg, dtype=np.float64))
    c, s = np.cos(r), np.sin(r)
    rx, ry, rz = np.zeros((3, r.shape[0], 3, 3))
    for k, m in enumerate((rx, ry, rz)):
        i, j = (k + 1) % 3, (k + 2) % 3  # the plane that turns about axis k
        m[:, k, k] = 1
        m[:, i, i] = m[:, j, j] = c[:, k]
        m[:, j, i], m[:, i, j] = s[:, k], -s[:, k]
    return rz @ ry @ rx


def camera_rotations(angles_deg: np.ndarray) -> np.ndarray:
    """Camera-to-LCS orientations, shape (M, 3, 3), for an (M, 3) array of
    roll, pitch, yaw in degrees: each attitude on top of the fixed base
    alignment."""
    return attitude_matrices(angles_deg) @ BASE_ALIGNMENT


def rotation_about_axis(axis: np.ndarray, angle_deg: float) -> np.ndarray:
    """Rodrigues rotation about a unit axis."""
    u = np.asarray(axis, dtype=np.float64)
    n = float(np.linalg.norm(u))
    if not (n > 0):
        raise ValueError("axis must be nonzero")
    u = u / n
    c = math.cos(math.radians(angle_deg))
    s = math.sin(math.radians(angle_deg))
    k = np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]])
    return c * np.eye(3) + s * k + (1 - c) * np.outer(u, u)


def matrix_to_attitude(r: np.ndarray) -> Attitude:
    """Recover (roll, pitch, yaw) from a Rz@Ry@Rx rotation matrix.

    Valid away from pitch = +/-90 degrees, which the capture attitudes
    never reach.
    """
    pitch = math.degrees(math.asin(-max(-1.0, min(1.0, float(r[2, 0])))))
    roll = math.degrees(math.atan2(float(r[2, 1]), float(r[2, 2])))
    yaw = math.degrees(math.atan2(float(r[1, 0]), float(r[0, 0])))
    return Attitude(roll, pitch, yaw)


def project_panel_corners(intr: CameraIntrinsics, pose: Pose, panel: LedPanel) -> CornerSet:
    """Project the panel's four corners and return them canonically ordered.

    Raises BehindCamera if any corner has non-positive camera depth.
    """
    att = pose.attitude
    uv, valid = batch_project_points(
        intr, pose.position.as_array()[None, :],
        camera_rotations(np.array([[att.roll, att.pitch, att.yaw]])), panel.corners_lcs(),
    )
    if not valid[0]:
        raise BehindCamera("panel corner behind the camera")
    return order_corners(uv[0])


def batch_project_points(
    intr: CameraIntrinsics,
    positions: np.ndarray,
    rotations: np.ndarray,
    points_lcs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized projection of K LCS points for M camera poses.

    positions: (M, 3); rotations: (M, 3, 3) camera-to-LCS; points: (K, 3).
    Returns (uv (M, K, 2), valid (M,)) where valid means every point has
    positive camera depth; uv rows of invalid poses contain junk.
    """
    d = points_lcs[None, :, :] - positions[:, None, :]  # (M, K, 3)
    p_cam = np.einsum("mki,mij->mkj", d, rotations)  # row-vector form of R^T d
    z = p_cam[..., 2]
    valid = np.all(z > 1e-12, axis=1)
    zsafe = np.where(z > 1e-12, z, 1.0)
    u = intr.fx_px * p_cam[..., 0] / zsafe + intr.cx_px
    v = intr.fy_px * p_cam[..., 1] / zsafe + intr.cy_px
    return np.stack([u, v], axis=-1), valid


def on_sensor(points: np.ndarray, intr: CameraIntrinsics) -> np.ndarray:
    """Per quad of a (..., 4, 2) pixel array: True when all four points lie
    inside [0, width) x [0, height)."""
    return ((points >= 0) & (points < (intr.width_px, intr.height_px))).all(axis=(-2, -1))


def in_fov(corners: CornerSet, intr: CameraIntrinsics) -> bool:
    """True when all four corners lie inside [0, width) x [0, height)."""
    return bool(on_sensor(corners.points, intr))
