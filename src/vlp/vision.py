"""Frame-to-features pipeline: threshold, morphology, connected components,
an edge-line corner fit, and the canonical corner ordering that turns four
pixel points into the 8-float feature vector.

A blob is held as its runs: the maximal spans of set pixels along each
row, in row-major order. extract_corners finds the set pixels' bounding
box from the frame's row and column maxima, thresholds (and closes) only
that crop, reads its runs off one pass over the crop's rows, labels the
8-connected runs of adjacent rows, and takes the largest blob's boundary
points straight from its runs. No stage builds a whole-frame mask or labels
a pixel. Runs and boundary points carry frame coordinates as integers until
the exact 0.5 steps, so a crop gives the full frame's corners bit for bit.
Corner coordinates use the same continuous pixel convention as the
projector: pixel (r, c) covers the unit square centered at (c + 0.5,
r + 0.5).
"""

from __future__ import annotations

import numpy as np
from scipy import spatial

from .errors import EmptyMask, SaturatedFrame, TooFewCorners, VisionFailure
from .geometry import CornerSet, order_corners
from .render import Frame

__all__ = ["close_mask", "extract_corners"]

THRESHOLD = 128          # binarization level, gray
EDGE_TRIM_PX = 6.0       # side fits leave out boundary points this near a corner
SEED_PX = 1.0            # a hull edge's support: side points this near it
OUTLIER_PX = 2.0         # a side's fit keeps points this near its seed edge

# A blob's runs: (row, start, end) int arrays, one entry per maximal span of
# set pixels along a row, in row-major order, with end one past the span's
# last column; all in frame coordinates.
Runs = tuple[np.ndarray, np.ndarray, np.ndarray]


def close_mask(mask: np.ndarray, radius_px: int) -> np.ndarray:
    """Morphological closing with a square element of half-width radius:
    merges the shutter's stripe bars into one solid blob without growing
    its outline (interior gaps close, edges stay).

    The mask closes as if it went on unset past its edges, as the scene
    goes on dark past a sensor's: a gap between a blob and the edge stays
    open, and a crop that holds every set pixel closes as the whole mask
    does.
    """
    if radius_px < 0:
        raise ValueError("radius must be >= 0")
    if radius_px == 0:
        return mask.copy()
    # the dilation reaches radius past the edges, and the erosion reads it there
    size = 2 * radius_px + 1
    grown = _square_window(np.pad(mask, 2 * radius_px), size, np.logical_or)
    return _square_window(grown, size, np.logical_and)


def _square_window(a: np.ndarray, size: int, op) -> np.ndarray:
    """op (logical or / and) over every size x size window of a that lies
    inside it, so each side shrinks by size - 1: a dilation or erosion by a
    square, done one axis at a time."""
    return _row_window(_row_window(a, size, op).T, size, op).T


def _row_window(a: np.ndarray, size: int, op) -> np.ndarray:
    """op over every size consecutive rows of a; row i of the result
    covers rows i to i + size - 1. Windows of 1, 2, 4, ... rows double up
    to the largest power of two within size, and two of those, which
    overlap, cover a window; an idempotent op allows the overlap."""
    have = 1
    while 2 * have <= size:
        a = op(a[:-have], a[have:])
        have *= 2
    return op(a[: len(a) - size + have], a[size - have :])


def _bbox(image: np.ndarray, level: int) -> tuple[slice, slice]:
    """Row and column slices of the bounding box of the pixels >= level.
    Reads the rows' maxima, then the columns' maxima within the set rows,
    so no mask of the whole image is built. Raises EmptyMask when no pixel
    is set."""
    rows = np.flatnonzero(image.max(axis=1) >= level)
    if rows.size == 0:
        raise EmptyMask("no set pixels")
    cols = np.flatnonzero(image[rows[0] : rows[-1] + 1].max(axis=0) >= level)
    return slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)


def _runs(mask: np.ndarray, origin: tuple[int, int] = (0, 0)) -> Runs:
    """The runs of a mask whose top-left pixel sits at origin (row, col),
    from one pass over its rows laid end to end, each followed by an unset
    column. Raises EmptyMask when no pixel is set."""
    h, w = mask.shape
    flat = np.zeros(h * (w + 1) + 1, dtype=bool)  # flat[0]: unset, before row 0
    flat[1:].reshape(h, w + 1)[:, :w] = mask
    # each run's first set pixel, then its first unset one, in row-major order
    edge = np.flatnonzero(flat[1:] != flat[:-1])
    if edge.size == 0:
        raise EmptyMask("no set pixels")
    row, start = np.divmod(edge[0::2], w + 1)
    end = edge[1::2] - row * (w + 1)
    return row + origin[0], start + origin[1], end + origin[1]


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """arange(lo[i], hi[i]) for every i, concatenated."""
    n = hi - lo
    return np.arange(n.sum()) + np.repeat(lo - (np.cumsum(n) - n), n)


def _label_runs(row: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each run's component, as the index of the component's first run.

    A run touches the runs of the row above whose spans, grown by one
    column each way, overlap its own: 8-connectivity. A row's runs are
    sorted and disjoint, so those runs are one contiguous index range,
    found by binary search on row-major keys. Every run starts as its own
    root; each link hooks the higher of its two ends' roots onto the
    lower, and pointer jumping points every run at its root again, until
    no link joins two roots (the run graph of He, Chao and Suzuki, IEEE
    TIP 2008, labelled by min-root hooking in place of their union-find).
    Hooking roots, not runs, takes a few rounds even on a spiral."""
    span = int(end.max()) + 1
    key = row * span
    above = key - span
    lo = np.searchsorted(key + end, above + start, "left")
    hi = np.searchsorted(key + start, above + end, "right")
    a = np.repeat(np.arange(row.size), hi - lo)
    b = _ranges(lo, hi)
    label = np.arange(row.size)
    while True:
        la, lb = label[a], label[b]
        if np.array_equal(la, lb):
            return label
        low = np.minimum(la, lb)
        np.minimum.at(label, la, low)
        np.minimum.at(label, lb, low)
        while not np.array_equal(jump := label[label], label):
            label = jump


def _largest(row: np.ndarray, start: np.ndarray,
             end: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The runs of the 8-connected component with the most pixels, and its
    pixel count. Ties go to the component whose first run comes first in
    row-major order, which holds its topmost-leftmost pixel."""
    label = _label_runs(row, start, end)
    size = np.bincount(label, weights=end - start)  # sums of ints: exact
    best = int(size.argmax())  # the first maximum: the lowest first run
    keep = label == best
    return row[keep], start[keep], end[keep], int(size[best])


def _boundary_points(row: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """(n, 2) frame (u, v) of the midpoints between set and unset
    4-neighbours of the pixels the runs cover; outside them, and past a
    sensor edge the sensor's outside, counts as unset.

    First each run's two ends, (start, row + 0.5) and (end, row + 0.5), in
    run order. Then each row line v (the top edge of row v), top to
    bottom, at u = col + 0.5 for each column, left to right, where the
    pixels above and below differ: the exclusive or of the two rows'
    spans, whose edges are their sorted run ends taken in pairs. This is
    the row-major order of the pixel differences along and across rows.
    Coordinates stay integers until the exact 0.5 steps, so the points are
    the same bits whatever crop the runs came from."""
    across = np.column_stack([np.column_stack([start, end]).ravel(),
                              np.repeat(row, 2) + 0.5])
    # each run's ends bound its columns on the line above it and the one below
    span = int(end.max()) + 1
    line = row * span
    ends = np.sort(np.concatenate([line + start, line + end,
                                   line + span + start, line + span + end]))
    v, col = np.divmod(_ranges(ends[0::2], ends[1::2]), span)
    down = np.column_stack([col + 0.5, v])
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


def _fit_quad(pts: np.ndarray) -> np.ndarray:
    """The four corners fitted to boundary points pts, unordered, as a
    (4, 2) array of sub-pixel (u, v): the widest quad on their hull sorts
    them into four sides, and adjacent fitted side lines intersect in the
    corners (the quad fit of fiducial detectors: Olson, ICRA 2011). Raises
    TooFewCorners for blobs too small or thin for four sides."""
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
    Only a crop around the set pixels is thresholded; the largest blob is
    found among its runs, and its runs give the boundary points and the
    pixel count. The corners equal the full-frame pipeline's bit for bit.
    Raises VisionFailure (or a subclass) when no plausible quad is found;
    SaturatedFrame when the blob spans the sensor's full height or width,
    whose outline is then the frame's edge.
    """
    pixels = frame.pixels
    # The crop closes as the whole frame does: a closing sets no pixel
    # outside the set pixels' box, and reads past the crop's edge as unset,
    # as past the sensor's.
    box = _bbox(pixels, THRESHOLD)
    crop = pixels[box] >= THRESHOLD
    if merge_radius > 0:
        crop = close_mask(crop, merge_radius)
    row, start, end, count = _largest(*_runs(crop, (box[0].start, box[1].start)))
    h, w = pixels.shape
    if row[-1] - row[0] + 1 == h or end.max() - start.min() == w:
        raise SaturatedFrame(f"blob spans the full height or width of the "
                             f"{w}x{h} sensor")
    corners = order_corners(_fit_quad(_boundary_points(row, start, end)))
    _check_quad(corners, count)
    return corners
