"""Frame-to-features pipeline: threshold, morphology, connected components,
an edge-line corner fit, and the canonical corner ordering that turns four
pixel points into the 8-float feature vector.

Masks are plain boolean arrays. The public stages take and return masks of
any shape; extract_corners binarizes the whole frame once and runs the rest
on one crop around the set pixels (see _padded_bbox). The corner fit works
on the blob's boundary points, which move to frame coordinates while still
integer indices, so the crop gives the full frame's corners bit for bit.
Corner coordinates use the same continuous pixel convention as the
projector: pixel (r, c) covers the unit square centered at (c + 0.5,
r + 0.5).
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage, spatial

from .errors import EmptyMask, SaturatedFrame, TooFewCorners, VisionFailure
from .geometry import CornerSet, order_corners
from .render import Frame

# re-exported: ordering is defined once, next to the projector that feeds it
__all__ = [
    "binarize",
    "close_mask",
    "largest_component",
    "detect_corners",
    "order_corners",
    "extract_corners",
]

_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)
THRESHOLD = 128          # binarization level, gray
EDGE_TRIM_PX = 6.0       # side fits leave out boundary points this near a corner
SEED_PX = 1.0            # a hull edge's support: side points this near it
OUTLIER_PX = 2.0         # a side's fit keeps points this near its seed edge


def binarize(frame: Frame) -> np.ndarray:
    """Boolean mask of pixels >= THRESHOLD."""
    return frame.pixels >= THRESHOLD


def close_mask(mask: np.ndarray, radius_px: int) -> np.ndarray:
    """Morphological closing with a square element of half-width radius:
    merges the shutter's stripe bars into one solid blob without growing
    its outline (interior gaps close, edges stay).

    Edge replication adds no value to a max or min window, since the edge
    pixel is always in its own window, so this is dilation reading the
    outside as False followed by erosion reading it as True.
    """
    if radius_px < 0:
        raise ValueError("radius must be >= 0")
    if radius_px == 0:
        return mask.copy()
    size = 2 * radius_px + 1
    return ndimage.grey_closing(mask, size=(size, size), mode="nearest")


def _padded_bbox(mask: np.ndarray, pad: int) -> tuple[slice, slice]:
    """Row and column slices of the set pixels' bounding box, grown by pad
    on every side and clipped at the mask's edge. Raises EmptyMask when no
    pixel is set."""
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        raise EmptyMask("no set pixels")
    cols = np.flatnonzero(mask.any(axis=0))
    h, w = mask.shape
    return (slice(max(0, rows[0] - pad), min(h, rows[-1] + pad + 1)),
            slice(max(0, cols[0] - pad), min(w, cols[-1] + pad + 1)))


def largest_component(mask: np.ndarray) -> tuple[np.ndarray, tuple[int, int], int]:
    """The 8-connected component with the most pixels, as (blob, (row,
    col), count): the component cropped to its own bounding box, the box's
    top-left position in mask, and the component's pixel count.

    Ties break toward the component whose topmost-leftmost pixel comes
    first in (row, col) order: labels number components in that order, so
    the first maximum of the counts is that component.
    """
    box = _padded_bbox(mask, 0)
    labels, _ = ndimage.label(mask[box], structure=_EIGHT_CONNECTED)
    counts = np.bincount(labels.ravel())
    counts[0] = 0
    best = int(counts.argmax())
    component = labels == best
    rs, cs = _padded_bbox(component, 0)
    return (component[rs, cs], (box[0].start + rs.start, box[1].start + cs.start),
            int(counts[best]))


def _boundary_points(mask: np.ndarray, origin: tuple[int, int]) -> np.ndarray:
    """(n, 2) frame (u, v) of the midpoints between set and unset
    4-neighbours of a mask whose top-left pixel sits at origin (row, col).

    The mask is zero-padded by one pixel, so the outside, and past a sensor
    edge the sensor's outside, counts as unset. Indices move to the frame
    while still integers; the 0.5 steps are then exact, so a crop yields the
    full frame's points, in the same row-major order, bit for bit.
    """
    m = np.pad(mask, 1)
    r0, c0 = origin[0] - 1, origin[1] - 1  # frame index of padded (0, 0)
    r, c = np.nonzero(m[:, 1:] != m[:, :-1])  # (r, c) | (r, c + 1)
    across = np.column_stack([c + (c0 + 1), r + r0 + 0.5])
    r, c = np.nonzero(m[1:, :] != m[:-1, :])  # (r, c) over (r + 1, c)
    down = np.column_stack([c + c0 + 0.5, r + (r0 + 1)])
    return np.concatenate([across, down])


def _widest_subset(pts: np.ndarray) -> list[int]:
    """Sorted indices of the four hull vertices (pts, in hull order) that
    span the largest quad: over every diagonal (i, j), the best apex on
    each side is the vertex farthest from it."""
    best, picks = -1.0, None
    for i in range(len(pts)):
        d = pts - pts[i]
        # cross[j, k]: twice the signed area of triangle (i, j, k)
        cross = d[:, None, 0] * d[None, :, 1] - d[:, None, 1] * d[None, :, 0]
        span = cross.max(axis=1) - cross.min(axis=1)
        j = int(span.argmax())
        if span[j] > best:
            best = float(span[j])
            picks = [i, j, int(cross[j].argmax()), int(cross[j].argmin())]
    return sorted(picks)


def _fit_line(pts: np.ndarray) -> tuple[np.ndarray, float]:
    """Total-least-squares line through pts as (unit normal n, offset c)
    with n . x = c."""
    if len(pts) < 2:
        raise TooFewCorners(f"{len(pts)} boundary points on a quad side, need 2")
    mean = pts.mean(axis=0)
    du, dv = (pts - mean).T
    # plain sums, not BLAS dot products, so no thread count moves a bit
    theta = 0.5 * np.arctan2(2.0 * (du * dv).sum(), (du * du).sum() - (dv * dv).sum())
    n = np.array([-np.sin(theta), np.cos(theta)])  # theta: direction of most spread
    return n, float(n[0] * mean[0] + n[1] * mean[1])


def _fit_sides(pts: np.ndarray, hull: np.ndarray, quad: np.ndarray) -> np.ndarray:
    """Corners fitted to the boundary points pts. Each point joins its
    nearest side of the rough quad, except within EDGE_TRIM_PX of a corner.
    A side's line starts as the hull edge within SEED_PX of most of its
    points, then is refitted to its points within OUTLIER_PX of that edge:
    stripe merging cuts rows off a panel's top and bottom and notches its
    slanted sides, always inward, so the hull edge lies on the panel's edge.
    Adjacent lines intersect in the corners."""
    ends = np.roll(quad, -1, axis=0) - quad
    length = np.hypot(ends[:, 0], ends[:, 1])
    if not (length > 2 * EDGE_TRIM_PX).all():
        raise TooFewCorners(f"quad side of {length.min():.1f} px is too short to fit")
    unit = ends / length[:, None]
    rel = pts[None, :, :] - quad[:, None, :]                    # (4, n, 2)
    along = rel[..., 0] * unit[:, None, 0] + rel[..., 1] * unit[:, None, 1]
    off = np.abs(rel[..., 1] * unit[:, None, 0] - rel[..., 0] * unit[:, None, 1])
    off[(along < 0) | (along > length[:, None])] = np.inf
    side = off.argmin(axis=0)
    step = np.roll(hull, -1, axis=0) - hull
    normal = np.column_stack([-step[:, 1], step[:, 0]])
    normal /= np.hypot(step[:, 0], step[:, 1])[:, None]
    offset = normal[:, 0] * hull[:, 0] + normal[:, 1] * hull[:, 1]
    lines = []
    for k in range(4):
        mine = pts[(side == k) & (along[k] >= EDGE_TRIM_PX)
                   & (along[k] <= length[k] - EDGE_TRIM_PX)]
        dist = np.abs(mine[:, None, 0] * normal[:, 0] + mine[:, None, 1] * normal[:, 1]
                      - offset)                                 # (points, hull edges)
        seed = int((dist <= SEED_PX).sum(axis=0).argmax())
        lines.append(_fit_line(mine[dist[:, seed] <= OUTLIER_PX]))
    n, c = (np.array(x) for x in zip(*lines))
    n0, c0 = np.roll(n, 1, axis=0), np.roll(c, 1)  # side k - 1 meets side k
    det = n0[:, 0] * n[:, 1] - n0[:, 1] * n[:, 0]
    if not (np.abs(det) >= 1e-9).all():
        raise TooFewCorners("adjacent quad sides are parallel")
    return np.column_stack([c0 * n[:, 1] - c * n0[:, 1],
                            n0[:, 0] * c - n[:, 0] * c0]) / det[:, None]


def detect_corners(mask: np.ndarray) -> np.ndarray:
    """The four corners of a quad-shaped blob, unordered, as a (4, 2) array
    of sub-pixel (u, v): the widest quad on the hull of the blob's boundary
    sorts it into four sides, and adjacent fitted side lines intersect in
    the corners (the quad fit of fiducial detectors: Olson, ICRA 2011).
    Raises TooFewCorners for blobs too small or thin for four sides."""
    return _detect_corners(mask, (0, 0))


def _detect_corners(mask: np.ndarray, origin: tuple[int, int]) -> np.ndarray:
    """detect_corners on a crop whose top-left pixel sits at origin (row,
    col) in the frame. The fit sees only frame coordinates, so corners come
    out bit for bit as on the full mask."""
    rs, cs = _padded_bbox(mask, 0)
    pts = _boundary_points(mask[rs, cs], (rs.start + origin[0], cs.start + origin[1]))
    try:
        hull = pts[spatial.ConvexHull(pts).vertices]
    except spatial.QhullError:
        raise TooFewCorners("blob boundary is collinear") from None
    if len(hull) < 4:
        raise TooFewCorners(f"blob hull has {len(hull)} vertices, need 4")
    return _fit_sides(pts, hull, hull[_widest_subset(hull)])


def _check_quad(corners: CornerSet, count: int) -> None:
    """Reject non-quad blobs: the ordered corners must form a convex
    quadrilateral covering at least 80% and at most 110% of the blob's
    pixel count. Lines fitted around a curved outline enclose 22-26% more
    than its pixels on discs of radius 15-200 px; a panel's lines enclose
    at most the few percent that stripe merging notches and cuts off it."""
    pts = corners.points
    area2 = 0.0
    for i in range(4):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % 4]
        area2 += ax * by - bx * ay
    area = abs(area2) / 2.0
    scale = max(1.0, float(np.abs(pts).max()))
    for i in range(4):
        a, b, c = pts[i], pts[(i + 1) % 4], pts[(i + 2) % 4]
        cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if cross * np.sign(area2) < -1e-9 * scale * scale:
            raise VisionFailure("detected corners form a non-convex quad")
    if area < 0.8 * count:
        raise VisionFailure(
            f"quad area {area:.0f} px^2 covers under 80% of the blob "
            f"({count} px); not a quadrilateral light"
        )
    if area > 1.1 * count:
        raise VisionFailure(
            f"quad area {area:.0f} px^2 exceeds the blob ({count} px) by over "
            f"10%; a curved outline, not a quadrilateral light"
        )


def extract_corners(frame: Frame, *, merge_radius: int = 0) -> CornerSet:
    """Full pipeline from a frame to the ordered panel corner set.

    merge_radius closes stripe gaps first (use stripe_merge_radius when the
    frame was captured with a modulated LED; leave 0 for a steady render).
    Every stage after binarization runs on one crop of the mask around the
    set pixels, and the corners equal the full-frame pipeline's bit for
    bit. Raises VisionFailure (or a subclass) when no plausible quad is
    found; SaturatedFrame when the blob spans the sensor's full height or
    width, whose outline is then the frame's edge.
    """
    mask = binarize(frame)
    # A pad of r + 1 keeps the closing exact on the crop: dilation reads only
    # set pixels, all inside, and an erosion window that reaches past a crop
    # edge also covers the crop's outermost line, more than r from every set
    # pixel and so False after dilation. Closing grows nothing past the box
    # except toward a sensor edge, where crop and frame share the edge.
    box = _padded_bbox(mask, merge_radius + 1)
    crop = mask[box]
    if merge_radius > 0:
        crop = close_mask(crop, merge_radius)
    blob, (r, c), count = largest_component(crop)
    h, w = mask.shape
    if blob.shape[0] == h or blob.shape[1] == w:
        raise SaturatedFrame(f"blob spans the full height or width of the "
                             f"{w}x{h} sensor")
    corners = order_corners(_detect_corners(blob, (box[0].start + r, box[1].start + c)))
    _check_quad(corners, count)
    return corners
