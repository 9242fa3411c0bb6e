"""Frame-to-features pipeline: threshold, morphology, connected components,
minimum-eigenvalue corner detection, and the canonical corner ordering that
turns four pixel points into the 8-float feature vector.

Masks are plain boolean arrays. The public stages take and return masks of
any shape; extract_corners binarizes the whole frame once and runs the rest
on one crop around the set pixels (see _padded_bbox), adding the crop's
origin back only in the final corner sum. Corner coordinates use the same
continuous pixel convention as the projector: pixel (r, c) covers the unit
square centered at (c + 0.5, r + 0.5).
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy import ndimage, spatial

from .errors import EmptyMask, SaturatedFrame, TooFewCorners, VisionFailure
from .geometry import CornerSet, order_corners
from .render import Frame

# re-exported: ordering is defined once, next to the projector that feeds it
__all__ = [
    "binarize",
    "dilate",
    "erode",
    "close_mask",
    "largest_component",
    "detect_corners",
    "order_corners",
    "features",
    "extract_corners",
    "extract_features",
]

_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)


def binarize(frame: Frame, threshold: int = 128) -> np.ndarray:
    """Boolean mask of pixels >= threshold."""
    if not (0 <= threshold <= 255):
        raise ValueError(f"threshold must be in 0..255, got {threshold}")
    return frame.pixels >= threshold


def dilate(mask: np.ndarray, radius_px: int) -> np.ndarray:
    """Morphological dilation with a square element of half-width radius."""
    if radius_px < 0:
        raise ValueError("radius must be >= 0")
    if radius_px == 0:
        return mask.copy()
    return ndimage.maximum_filter(mask, size=2 * radius_px + 1, mode="constant", cval=False)


def erode(mask: np.ndarray, radius_px: int) -> np.ndarray:
    """Morphological erosion with a square element of half-width radius."""
    if radius_px < 0:
        raise ValueError("radius must be >= 0")
    if radius_px == 0:
        return mask.copy()
    return ndimage.minimum_filter(mask, size=2 * radius_px + 1, mode="constant", cval=True)


def close_mask(mask: np.ndarray, radius_px: int) -> np.ndarray:
    """Dilate then erode: merges the shutter's stripe bars into one solid
    blob without growing its outline (interior gaps close, edges stay)."""
    return erode(dilate(mask, radius_px), radius_px)


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


def largest_component(mask: np.ndarray) -> np.ndarray:
    """The 8-connected component with the most pixels.

    Ties break toward the component whose topmost-leftmost pixel comes
    first in (row, col) order.
    """
    box = _padded_bbox(mask, 0)
    labels, n = ndimage.label(mask[box], structure=_EIGHT_CONNECTED)
    counts = np.bincount(labels.ravel())
    counts[0] = 0
    best = int(counts.max())
    tied = np.flatnonzero(counts == best)
    if len(tied) > 1:
        # (row, col) order is preserved inside a rectangular crop
        flat = labels.ravel()
        tied = sorted(tied, key=lambda lab: int(np.flatnonzero(flat == lab)[0]))
    out = np.zeros(mask.shape, dtype=bool)
    out[box] = labels == tied[0]
    return out


def _min_eigenvalue_scores(gx: np.ndarray, gy: np.ndarray, window: int) -> np.ndarray:
    """Smaller structure-tensor eigenvalue per pixel (corner strength)."""
    w = window
    ixx = ndimage.uniform_filter(gx * gx, size=w, mode="constant")
    ixy = ndimage.uniform_filter(gx * gy, size=w, mode="constant")
    iyy = ndimage.uniform_filter(gy * gy, size=w, mode="constant")
    half_tr = (ixx + iyy) / 2.0
    return half_tr - np.sqrt(((ixx - iyy) / 2.0) ** 2 + ixy * ixy)


def _widest_subset(rows: np.ndarray, cols: np.ndarray, count: int) -> list[int]:
    """Indices of the `count` candidate peaks enclosing the largest area.

    Stripe-merged masks sprout strong spurious corners where bright bars
    step along a slanted edge; the true panel corners are the extremes, so
    keep the subset spanning the widest convex polygon instead of trusting
    score order alone.
    """
    n = len(rows)
    if n == count:
        return list(range(count))
    pts = np.column_stack([cols, rows])
    try:
        hull = spatial.ConvexHull(pts)
        hull_idx = np.asarray(hull.vertices)
    except (spatial.QhullError, ValueError):
        return list(range(count))
    if len(hull_idx) < count:
        return list(range(count))
    combos = np.array(list(itertools.combinations(range(len(hull_idx)), count)))
    hx, hy = pts[hull_idx, 0], pts[hull_idx, 1]
    x, y = hx[combos], hy[combos]
    xn, yn = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
    areas = np.abs((x * yn - xn * y).sum(axis=1))
    best = combos[int(areas.argmax())]
    return [int(hull_idx[j]) for j in best]


def _refine_corner(gx: np.ndarray, gy: np.ndarray, r: int, c: int,
                   half: int, iters: int = 10) -> tuple[float, float]:
    """Sub-pixel corner as the least-squares intersection of the edge lines
    through each window pixel (normal = that pixel's gradient). Re-centers
    the window on the running estimate until it stops moving."""
    h, w = gx.shape
    pr, pc = float(r), float(c)
    for _ in range(iters):
        rc, cc = int(round(pr)), int(round(pc))
        rs = slice(max(0, rc - half), min(h, rc + half + 1))
        cs = slice(max(0, cc - half), min(w, cc + half + 1))
        px = gx[rs, cs].astype(np.float64)
        py = gy[rs, cs].astype(np.float64)
        yy, xx = np.mgrid[rs, cs]
        a = float((px * px).sum())
        b = float((px * py).sum())
        d = float((py * py).sum())
        det = a * d - b * b
        if det < 1e-12:
            break
        bx = float((px * px * xx + px * py * yy).sum())
        by = float((px * py * xx + py * py * yy).sum())
        nc = (d * bx - b * by) / det
        nr = (a * by - b * bx) / det
        # diverging estimate: fall back to the integer peak
        if abs(nr - r) > 2 * half or abs(nc - c) > 2 * half:
            return float(r), float(c)
        moved = abs(nr - pr) + abs(nc - pc)
        pr, pc = nr, nc
        if moved < 1e-4:
            break
    return pr, pc


def detect_corners(mask: np.ndarray, count: int = 4, window: int = 5,
                   min_distance_px: int = 20) -> np.ndarray:
    """Top `count` corner points of a blob mask, unordered, sub-pixel.

    Minimum-eigenvalue corner scores over the structure tensor pick the
    integer peaks (greedy non-maximum suppression at min_distance), then an
    edge-line intersection solve over each winner's neighborhood refines to
    sub-pixel. Returns a (count, 2) array of (u, v).
    """
    return _detect_corners(mask, (0, 0), count, window, min_distance_px)


def _detect_corners(mask: np.ndarray, origin: tuple[int, int], count: int,
                    window: int, min_distance_px: int) -> np.ndarray:
    """detect_corners on a crop whose top-left pixel sits at origin (row,
    col) in the frame. The origin joins the region offset before the
    sub-pixel estimate is added, so corners come out bit for bit as on the
    full mask."""
    if window < 3 or window % 2 == 0:
        raise ValueError("window must be an odd size >= 3")
    rs, cs = _padded_bbox(mask, window + 4)
    r0, c0 = rs.start, cs.start
    region = mask[rs, cs].astype(np.float32)
    smooth = ndimage.gaussian_filter(region, sigma=1.0, mode="constant")
    gy, gx = np.gradient(smooth)
    score = _min_eigenvalue_scores(gx, gy, window)

    floor = float(score.max()) * 0.05
    if not (floor > 0):
        raise TooFewCorners("mask has no corner response")
    flat = np.flatnonzero(score.ravel() > floor)
    order = np.argsort(score.ravel()[flat])[::-1]
    rows, cols = np.unravel_index(flat[order], score.shape)
    keep_r, keep_c = [], []
    min_d2 = float(min_distance_px) ** 2
    for r, c in zip(rows, cols):
        if any((r - kr) ** 2 + (c - kc) ** 2 < min_d2 for kr, kc in zip(keep_r, keep_c)):
            continue
        keep_r.append(int(r))
        keep_c.append(int(c))
        if len(keep_r) == 48:
            break
    if len(keep_r) < count:
        raise TooFewCorners(f"found {len(keep_r)} corners, need {count}")
    picks = _widest_subset(np.array(keep_r, float), np.array(keep_c, float), count)

    half = window // 2 + 2
    out = np.empty((count, 2), dtype=np.float64)
    for i in range(count):
        r, c = keep_r[picks[i]], keep_c[picks[i]]
        rr, cc = _refine_corner(gx, gy, r, c, half)
        out[i] = (cc + (c0 + origin[1]) + 0.5, rr + (r0 + origin[0]) + 0.5)
    return out


def features(corners: CornerSet) -> np.ndarray:
    """Flatten a canonical corner set to (u1, v1, ..., u4, v4)."""
    return corners.points.reshape(-1).copy()


def _check_quad(corners: CornerSet, component: np.ndarray) -> None:
    """Reject non-quad blobs: the ordered corners must form a convex
    quadrilateral covering at least 80% of the component's pixel count."""
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
    count = int(component.sum())
    if area < 0.8 * count:
        raise VisionFailure(
            f"quad area {area:.0f} px^2 covers under 80% of the blob "
            f"({count} px); not a quadrilateral light"
        )


def extract_corners(frame: Frame, *, threshold: int = 128, merge_radius: int = 0,
                    window: int = 5, min_distance_px: int = 20) -> CornerSet:
    """Full pipeline from a frame to the ordered panel corner set.

    merge_radius closes stripe gaps first (use stripe_merge_radius when the
    frame was captured with a modulated LED; leave 0 for a steady render).
    Every stage after binarization runs on one crop of the mask around the
    set pixels, and the corners equal the full-frame pipeline's bit for
    bit. Raises VisionFailure (or a subclass) when no plausible quad is
    found; SaturatedFrame when the blob spans the sensor's full height or
    width, whose outline is then the frame's edge.
    """
    mask = binarize(frame, threshold)
    # A pad of r + 1 keeps the closing exact on the crop: dilation reads only
    # set pixels, all inside, and an erosion window that reaches past a crop
    # edge also covers the crop's outermost line, more than r from every set
    # pixel and so False after dilation. Closing grows nothing past the box
    # except toward a sensor edge, where crop and frame share the edge, so a
    # pad of window + 4 holds detect_corners' whole region too.
    box = _padded_bbox(mask, max(merge_radius + 1, window + 4))
    crop = mask[box]
    if merge_radius > 0:
        crop = close_mask(crop, merge_radius)
    component = largest_component(crop)
    # the blob is connected, so touching two opposite sensor edges spans them
    h, w = mask.shape
    if ((component.shape[0] == h and component[0].any() and component[-1].any())
            or (component.shape[1] == w and component[:, 0].any()
                and component[:, -1].any())):
        raise SaturatedFrame(f"blob spans the full height or width of the "
                             f"{w}x{h} sensor")
    pts = _detect_corners(component, (box[0].start, box[1].start), 4,
                          window, min_distance_px)
    corners = order_corners(pts)
    _check_quad(corners, component)
    return corners


def extract_features(frame: Frame, **kwargs) -> np.ndarray:
    """extract_corners flattened to the 8-float feature vector."""
    return features(extract_corners(frame, **kwargs))
