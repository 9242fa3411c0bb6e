"""Dataset generation: exhaustive attitude sweeps with FoV filtering, and
randomized synthetic capture sets run through the full render + vision
pipeline.

Positions are LCS meters (panel center origin, +z toward the floor);
features are the 8 canonical corner coordinates in pixels. Heights are
camera-to-panel distances, so a camera at grid point (gx, gy) and height h
sits at LCS (gx, gy, h).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from ..errors import InsufficientRows, MalformedCsv, VisionFailure, VlpError
from ..geometry import (
    Attitude,
    CameraIntrinsics,
    LedPanel,
    Pose,
    Vec3,
    batch_project_points,
    camera_rotations,
    canonical_order,
    in_fov,
    matrix_to_attitude,
    on_sensor,
    project_panel_corners,
    rotation_about_axis,
)
from ..render import add_capture_noise, base_brightness, rasterize_panel
from ..vision import extract_corners

__all__ = ["GridSpec", "SweepSpec", "CaptureSpec", "Dataset",
           "generate_sweep", "generate_capture_set", "split"]

CLEAN_TAG = "clean-sim"
NOISY_TAG = "noisy-sim"
# Attitude draws allowed per requested row before a location gives up.
MAX_ATTEMPTS_FACTOR = 400


@dataclass(frozen=True)
class GridSpec:
    """Square measurement grid centered on the panel axis."""

    extent_m: float = 1.2
    spacing_m: float = 0.2

    def __post_init__(self):
        if self.extent_m <= 0 or self.spacing_m <= 0:
            raise ValueError("grid extent and spacing must be positive")
        ratio = self.extent_m / self.spacing_m
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("extent must be an integer multiple of spacing")

    @property
    def side_count(self) -> int:
        return int(round(self.extent_m / self.spacing_m)) + 1

    def coordinates(self) -> np.ndarray:
        """Axis coordinates, symmetric about 0 (default: -0.6 .. 0.6)."""
        n = self.side_count
        return (np.arange(n) - (n - 1) / 2.0) * self.spacing_m


@dataclass(frozen=True)
class SweepSpec:
    """Exhaustive grid x height x attitude enumeration."""

    heights_m: tuple[float, ...]
    angle_step_deg: int = 45
    grid: GridSpec = field(default_factory=GridSpec)

    def __post_init__(self):
        if not self.heights_m or any(h <= 0 for h in self.heights_m):
            raise ValueError("heights must be positive")
        if self.angle_step_deg <= 0 or 360 % self.angle_step_deg != 0:
            raise ValueError("angle step must divide 360")


@dataclass(frozen=True)
class CaptureSpec:
    """Tripod-style capture protocol: per shot the boresight is aimed at the
    panel center, then dithered by a random yaw about the boresight and a
    random small wobble about a random axis.

    Aiming is not optional at the outer grid locations: a camera held flat
    there cannot fit all four panel corners on the sensor at any height, so
    every usable capture points roughly at the panel. The dither defaults are
    deliberately tight. Per-location feature scatter grows by roughly 10 px
    per degree of attitude spread, while grid neighbors sit only ~250 px
    apart in feature space; axis-aligned split learners stop resolving
    locations well before one degree.

    Each frame gets corner jitter of corner_jitter_px (px, isotropic) and
    pixel noise of pixel_sigma, a fraction of full scale (0.02 -> sigma of
    5.1 gray levels).
    """

    heights_m: tuple[float, ...]
    grid: GridSpec = field(default_factory=GridSpec)
    per_location: int = 10
    yaw_limit_deg: float = 0.05
    tilt_max_deg: float = 0.05
    seed: int = 0
    corner_jitter_px: float = 1.0
    pixel_sigma: float = 0.02

    def __post_init__(self):
        if not self.heights_m or any(h <= 0 for h in self.heights_m):
            raise ValueError("heights must be positive")
        if self.per_location < 1:
            raise ValueError("per_location must be >= 1")
        if not (0 <= self.yaw_limit_deg <= 45):
            raise ValueError("yaw limit must be in [0, 45] degrees")
        if not (0 <= self.tilt_max_deg < 90):
            raise ValueError("tilt magnitude must be in [0, 90) degrees")
        if self.corner_jitter_px < 0 or not (0 <= self.pixel_sigma <= 1):
            raise ValueError("corner_jitter_px must be >= 0 and pixel_sigma in [0, 1]")


class Dataset:
    """Column-array dataset of (features, target, pose) rows, plus the one
    source tag (e.g. clean-sim, noisy-sim) that every row shares."""

    __slots__ = ("features", "targets", "grid_i", "grid_j", "height_m",
                 "attitude", "source", "dropped", "clean_features")

    def __init__(self, features, targets, grid_i, grid_j, height_m, attitude,
                 source: str, dropped: int = 0, clean_features=None):
        self.features = np.asarray(features, dtype=np.float64).reshape(-1, 8)
        n = self.features.shape[0]
        self.targets = np.asarray(targets, dtype=np.float64).reshape(n, 3)
        self.grid_i = np.asarray(grid_i, dtype=np.int64).reshape(n)
        self.grid_j = np.asarray(grid_j, dtype=np.int64).reshape(n)
        self.height_m = np.asarray(height_m, dtype=np.float64).reshape(n)
        self.attitude = np.asarray(attitude, dtype=np.float64).reshape(n, 3)
        self.source = source
        self.dropped = int(dropped)
        if clean_features is None:
            self.clean_features = None
        else:
            self.clean_features = np.asarray(clean_features, dtype=np.float64).reshape(n, 8)
        if n and not (np.isfinite(self.features).all()
                      and np.isfinite(self.targets).all()):
            raise ValueError("non-finite dataset entries")

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, mask) -> "Dataset":
        mask = np.asarray(mask)
        return Dataset(
            self.features[mask], self.targets[mask], self.grid_i[mask],
            self.grid_j[mask], self.height_m[mask], self.attitude[mask],
            self.source, 0,
            None if self.clean_features is None else self.clean_features[mask],
        )

    def with_features(self, features, source_tag: str) -> "Dataset":
        """Same rows, different feature matrix (e.g. the clean reference)."""
        return Dataset(features, self.targets, self.grid_i, self.grid_j,
                       self.height_m, self.attitude, source_tag, self.dropped, None)

    def locations(self) -> Iterator[tuple[tuple[float, int, int], np.ndarray]]:
        """Yield ((height, grid_i, grid_j), rows) per distinct location, in
        sorted key order, rows being the indices of the location's rows."""
        keys = {(float(h), int(i), int(j))
                for h, i, j in zip(self.height_m, self.grid_i, self.grid_j)}
        for h, i, j in sorted(keys):
            yield (h, i, j), np.flatnonzero((self.height_m == h) & (self.grid_i == i)
                                            & (self.grid_j == j))

    CSV_HEADER = ("x,y,z,roll,pitch,yaw,grid_i,grid_j,height,"
                  "u1,v1,u2,v2,u3,v3,u4,v4")

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# source={self.source}\n")
            fh.write(self.CSV_HEADER + "\n")
            for k in range(len(self)):
                t = self.targets[k]
                a = self.attitude[k]
                f = self.features[k]
                cells = [repr(float(v)) for v in t] + [repr(float(v)) for v in a]
                cells += [str(int(self.grid_i[k])), str(int(self.grid_j[k])),
                          repr(float(self.height_m[k]))]
                cells += [repr(float(v)) for v in f]
                fh.write(",".join(cells) + "\n")

    @staticmethod
    def from_csv(path) -> "Dataset":
        tag = CLEAN_TAG
        rows = []
        with open(path, encoding="utf-8", errors="replace") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    if "source=" in line:
                        tag = line.split("source=", 1)[1].strip()
                    continue
                if line.startswith("x,"):
                    continue
                try:
                    rows.append([float(c) for c in line.split(",")])
                except ValueError as exc:
                    raise MalformedCsv(f"{path}:{lineno}: {exc}") from None
                if len(rows[-1]) != 17:
                    raise MalformedCsv(f"{path}:{lineno}: expected 17 columns")
        if not rows:
            raise MalformedCsv(f"no data rows in {path}")
        arr = np.asarray(rows, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise MalformedCsv(f"{path}: non-finite entries")
        grid = arr[:, 6:8]
        bad = grid[(grid < 0) | (grid >= 2.0**63) | (grid != np.floor(grid))]
        if bad.size:
            raise MalformedCsv(f"{path}: grid index {float(bad[0])!r} is not an "
                               f"int64 >= 0")
        return Dataset(arr[:, 9:17], arr[:, 0:3], grid[:, 0], grid[:, 1],
                       arr[:, 8], arr[:, 3:6], tag)


def generate_sweep(spec: SweepSpec, intr: CameraIntrinsics | None = None,
                   panel: LedPanel | None = None) -> Dataset:
    """Enumerate grid x height x (roll, pitch, yaw) poses and keep those
    with all four projected panel corners on-sensor.

    Features come straight from the projector (no rendering): this is the
    clean label path. Row order is heights, then grid row-major, then roll,
    pitch, yaw ascending.
    """
    intr = intr or CameraIntrinsics()
    panel = panel or LedPanel()
    coords = spec.grid.coordinates()
    n_side = spec.grid.side_count
    angles = np.arange(0, 360, spec.angle_step_deg, dtype=np.float64)
    att_list = np.array(list(itertools.product(angles, angles, angles)))
    rotations = camera_rotations(att_list)
    n_att = att_list.shape[0]
    corners = panel.corners_lcs()
    gx, gy = np.meshgrid(coords, coords, indexing="ij")
    grid_pts = np.column_stack([gx.ravel(), gy.ravel()])
    n_grid = grid_pts.shape[0]
    gi = np.repeat(np.repeat(np.arange(n_side), n_side), n_att)
    gj = np.repeat(np.tile(np.arange(n_side), n_side), n_att)
    rot_all = np.tile(rotations, (n_grid, 1, 1))

    # per height: features, targets, grid_i, grid_j, height, attitude
    columns = []
    for h in spec.heights_m:
        positions = np.concatenate(
            [np.repeat(grid_pts, n_att, axis=0),
             np.full((n_grid * n_att, 1), float(h))], axis=1)
        uv, valid = batch_project_points(intr, positions, rot_all, corners)
        keep = np.flatnonzero(valid & on_sensor(uv, intr))
        uvk = uv[keep]
        order = canonical_order(uvk)
        ordered = np.take_along_axis(uvk, order[..., None], axis=1)
        columns.append((ordered.reshape(-1, 8), positions[keep], gi[keep], gj[keep],
                        np.full(keep.size, float(h)), att_list[keep % n_att]))
    return Dataset(*(np.concatenate(c) for c in zip(*columns)), CLEAN_TAG)


def _draw_attitude(rng: np.random.Generator, position: Vec3,
                   yaw_limit_deg: float, tilt_max_deg: float) -> Attitude:
    """Aim the boresight at the panel center, then dither: uniform yaw about
    the boresight within the limit, uniform wobble magnitude about a random
    axis. Draw order is fixed so one rng yields identical poses per call."""
    yaw = rng.uniform(-yaw_limit_deg, yaw_limit_deg)
    wobble_axis = rng.normal(size=3)
    wobble_mag = rng.uniform(0.0, tilt_max_deg)

    p = position.as_array()
    bore = -p / np.linalg.norm(p)     # camera sits below the panel: aim up at it
    nadir = np.array([0.0, 0.0, -1.0])
    axis = np.cross(nadir, bore)
    nrm = float(np.linalg.norm(axis))
    if nrm < 1e-12:
        aim = np.eye(3)
    else:
        ang = math.degrees(math.atan2(nrm, float(nadir @ bore)))
        aim = rotation_about_axis(axis, ang)
    yaw_m = rotation_about_axis(bore, yaw)
    if wobble_mag > 0.0 and float(np.linalg.norm(wobble_axis)) > 1e-12:
        wob = rotation_about_axis(wobble_axis, wobble_mag)
    else:
        wob = np.eye(3)
    return matrix_to_attitude(wob @ yaw_m @ aim)


def generate_capture_set(spec: CaptureSpec, intr: CameraIntrinsics | None = None,
                         panel: LedPanel | None = None, *,
                         clean_reference: bool = False) -> Dataset:
    """Render per_location random retained poses per grid location and
    height, and extract features with the vision pipeline.

    Attitude draws and noise draws come from separate seed streams, so a
    zero-noise rerun with the same spec visits identical poses. Poses
    behind the camera or degenerate on the sensor are redrawn. Rows whose
    extraction raises VisionFailure are dropped and counted in
    Dataset.dropped. clean_reference additionally extracts each pose's
    noise-free features into Dataset.clean_features.
    """
    intr = intr or CameraIntrinsics()
    panel = panel or LedPanel()
    coords = spec.grid.coordinates()
    n_side = spec.grid.side_count
    locations = [(h, i, j) for h in spec.heights_m
                 for i in range(n_side) for j in range(n_side)]
    root = np.random.SeedSequence(spec.seed)
    att_root, noise_root = root.spawn(2)
    att_children = att_root.spawn(len(locations))
    noise_children = noise_root.spawn(len(locations))

    sigma_gray = spec.pixel_sigma * 255.0
    feats, cleans, targets, gis, gjs, heights, atts = [], [], [], [], [], [], []
    dropped = 0
    for loc_idx, (h, i, j) in enumerate(locations):
        rng_att = np.random.default_rng(att_children[loc_idx])
        rng_noise = np.random.default_rng(noise_children[loc_idx])
        position = Vec3(float(coords[i]), float(coords[j]), float(h))
        accepted = 0
        attempts = 0
        budget = spec.per_location * MAX_ATTEMPTS_FACTOR
        while accepted < spec.per_location and attempts < budget:
            attempts += 1
            att = _draw_attitude(rng_att, position, spec.yaw_limit_deg,
                                 spec.tilt_max_deg)
            pose = Pose(position, att)
            try:
                label = project_panel_corners(intr, pose, panel)
            except VlpError:  # BehindCamera, DegenerateQuad
                continue
            if not in_fov(label, intr):
                continue
            accepted += 1
            frame = rasterize_panel(intr, pose, panel,
                                    base_brightness(pose, panel, intr))
            noisy = add_capture_noise(frame, spec.corner_jitter_px, sigma_gray,
                                      rng_noise)
            try:
                got = extract_corners(noisy)
                clean_got = extract_corners(frame) if clean_reference else None
            except VisionFailure:
                dropped += 1
                continue
            feats.append(got.points.reshape(8))
            if clean_reference:
                cleans.append(clean_got.points.reshape(8))
            targets.append(position.as_array())
            gis.append(i)
            gjs.append(j)
            heights.append(float(h))
            atts.append([att.roll, att.pitch, att.yaw])
    n = len(feats)
    return Dataset(
        np.array(feats).reshape(n, 8), np.array(targets).reshape(n, 3),
        gis, gjs, heights, np.array(atts).reshape(n, 3),
        NOISY_TAG, dropped,
        np.array(cleans).reshape(n, 8) if clean_reference else None,
    )


def split(ds: Dataset, test_per_location: int, seed=None) -> tuple[Dataset, Dataset]:
    """Partition rows into train and test, sampling test_per_location rows
    uniformly per (grid point, height). Raises InsufficientRows when a
    location has fewer rows than requested."""
    if test_per_location < 0:
        raise ValueError("test_per_location must be >= 0")
    rng = np.random.default_rng(seed)
    test_mask = np.zeros(len(ds), dtype=bool)
    for (h, i, j), rows in ds.locations():
        if rows.size < test_per_location:
            raise InsufficientRows(
                f"location (h={h}, i={i}, j={j}) has {rows.size} rows, "
                f"needs {test_per_location}")
        if test_per_location:
            picked = rng.choice(rows.size, size=test_per_location, replace=False)
            test_mask[rows[picked]] = True
    return ds.subset(~test_mask), ds.subset(test_mask)
