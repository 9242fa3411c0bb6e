"""Independent oracles used by both the unit tests and the acceptance
suite. Everything here is written the slow, obvious way on purpose: these
functions must be trivially auditable, not fast."""

import math

import numpy as np

from vlp.codec import DEFAULT_BIT_RATE_HZ, rotation_class
from vlp.errors import NoTransitions, ProfileTooShort


def exhaustive_tree_sse(x: np.ndarray, y: np.ndarray, depth: int) -> float:
    """SSE of the greedy tree found by brute force: at every node, enumerate
    every (feature, midpoint-between-distinct-values) split, score it by
    recomputing both child means and squared errors from scratch, commit the
    winner, and recurse. Ties resolve to the lowest feature index, then the
    lowest threshold, which ascending scan order with strict improvement
    gives for free. Greedy, not globally optimal: the learner under test is
    greedy too, and a global optimum would diverge on interaction patterns
    no greedy sequence can reach.
    """
    sse_leaf = float(np.sum((y - y.mean()) ** 2)) if y.size else 0.0
    if depth == 0 or y.size < 2 or y.min() == y.max():
        return sse_leaf
    best = None  # (child sse total, mask)
    for f in range(x.shape[1]):
        vals = np.unique(x[:, f])
        for lo, hi in zip(vals, vals[1:]):
            t = (lo + hi) / 2.0
            mask = x[:, f] <= t
            yl, yr = y[mask], y[~mask]
            total = (float(np.sum((yl - yl.mean()) ** 2))
                     + float(np.sum((yr - yr.mean()) ** 2)))
            if best is None or total < best[0]:
                best = (total, mask)
    if best is None:
        return sse_leaf
    mask = best[1]
    return (exhaustive_tree_sse(x[mask], y[mask], depth - 1)
            + exhaustive_tree_sse(x[~mask], y[~mask], depth - 1))


def reference_grow_tree(x: np.ndarray, g: np.ndarray, *, max_depth, reg_lambda: float):
    """The exact grower one feature at a time, as vlp.learn.tree.grow_tree
    documents it: per feature, sort the node's rows stably, take prefix
    sums of g, score every cut between distinct values by the
    second-order gain, and keep a candidate only on strict improvement, so
    ties go to the lowest feature, then the lowest threshold. A split's
    threshold is the midpoint of the values it cuts between, or the lower
    value where the midpoint rounds onto the upper one. The arithmetic
    matches grow_tree element by element, so the trees must be byte-equal.
    """
    from vlp.learn import Tree

    nodes = []  # [feature, threshold, left, right, value] per node, preorder
    stack = [(np.arange(x.shape[0]), 0, None)]
    while stack:
        idx, depth, right_of = stack.pop()
        node = len(nodes)
        if right_of is not None:
            nodes[right_of][3] = node
        n = idx.size
        gi = g[idx]
        gsum = float(gi.sum())
        nodes.append([-1, 0.0, -1, -1, -gsum / (n + reg_lambda)])
        if (n < 2 or (max_depth is not None and depth >= max_depth)
                or gi.min() == gi.max()):
            continue
        gain_base = 0.5 * gsum * gsum / (n + reg_lambda)
        sizes = np.arange(1, n)
        best = None  # (gain, feature, threshold, order, left_count)
        for f in range(x.shape[1]):
            order = np.argsort(x[idx, f], kind="stable")
            xs = x[idx[order], f]
            cg = np.cumsum(gi[order])
            ok = sizes[xs[sizes - 1] < xs[sizes]]
            if ok.size == 0:
                continue
            gl = cg[ok - 1]
            gr = cg[-1] - gl
            gain = 0.5 * (gl * gl / (ok + reg_lambda)
                          + gr * gr / ((n - ok) + reg_lambda)) - gain_base
            j = int(np.argmax(gain))
            if best is None or gain[j] > best[0]:
                i = int(ok[j])
                lo, hi = xs[i - 1], xs[i]
                # a midpoint that rounds onto hi would send hi's rows left
                t = (lo + hi) / 2.0
                best = (float(gain[j]), f, t if t < hi else lo, order, i)
        if best is None or best[0] <= 0.0:
            continue
        _, f, thr, order, i = best
        nodes[node][:3] = f, thr, node + 1
        stack.append((idx[order[i:]], depth + 1, node))
        stack.append((idx[order[:i]], depth + 1, None))
    return Tree(*zip(*nodes))


def tree_bytes(tree) -> tuple:
    """A tree's node arrays as bytes: equal only if every array is, down to
    the sign of a zero, which np.array_equal does not see."""
    return tuple(getattr(tree, name).tobytes() for name in tree.__slots__)


def tree_sse(tree, x: np.ndarray, y: np.ndarray) -> float:
    pred = tree.predict(x)
    return float(np.sum((pred - y) ** 2))


def walk_leaves(tree, x: np.ndarray):
    """Yield (node_index, row_indices) for every leaf that receives at least
    one row of x, routing rows by the tree's own split rules."""
    stack = [(0, np.arange(x.shape[0]))]
    while stack:
        node, idx = stack.pop()
        f = int(tree.feature[node])
        if f < 0:
            yield node, idx
            continue
        goes_left = x[idx, f] <= tree.threshold[node]
        stack.append((int(tree.left[node]), idx[goes_left]))
        stack.append((int(tree.right[node]), idx[~goes_left]))


def reference_tree_predict(tree, x: np.ndarray) -> np.ndarray:
    """One tree's predictions, walked the per-tree way: every row starts at
    the root, and the rows still on a split step down one level at a time
    until every row sits on a leaf."""
    x = np.asarray(x, dtype=np.float64)
    node = np.zeros(x.shape[0], dtype=np.int64)
    while True:
        live = np.flatnonzero(tree.feature[node] >= 0)
        if live.size == 0:
            return tree.value[node]
        cur = node[live]
        goes_left = x[live, tree.feature[cur]] <= tree.threshold[cur]
        node[live] = np.where(goes_left, tree.left[cur], tree.right[cur])


def reference_predict(model, x: np.ndarray) -> np.ndarray:
    """A Tree's, Forest's or GbtModel's predictions from one
    reference_tree_predict per tree, summed tree by tree: a forest adds its
    trees' values to zeros and divides by their number, a gbt adds each
    tree's value times the learning rate to the base score."""
    from vlp.learn import Forest, GbtModel

    x = np.asarray(x, dtype=np.float64)
    if isinstance(model, Forest):
        acc = np.zeros(x.shape[0], dtype=np.float64)
        for t in model.trees:
            acc += reference_tree_predict(t, x)
        return acc / len(model.trees)
    if isinstance(model, GbtModel):
        acc = np.full(x.shape[0], model.base_score, dtype=np.float64)
        for t in model.trees:
            acc += model.learning_rate * reference_tree_predict(t, x)
        return acc
    return reference_tree_predict(model, x)


def gbt_leaf_identity_errors(model, x: np.ndarray, y: np.ndarray,
                             reg_lambda: float = 1.0) -> list:
    """Relative error |w - (-G/(H+lambda))| / max(|w|, 1e-12) for every
    populated leaf of every round, recomputing gradients independently.

    Squared loss: g_i = pred_before(x_i) - y_i, h_i = 1. reg_lambda must
    repeat whatever the model was fit with; it is not stored on the model.
    """
    lam = reg_lambda
    pred = np.full(x.shape[0], model.base_score, dtype=np.float64)
    errors = []
    for tree in model.trees:
        g = pred - y
        for node, idx in walk_leaves(tree, x):
            w = float(tree.value[node])
            want = -float(g[idx].sum()) / (idx.size + lam)
            errors.append((abs(w - want) / max(abs(w), 1e-12), w, want))
        pred = pred + model.learning_rate * tree.predict(x)
    return errors


def finite_difference_worst_rel(widths, n: int, seed: int) -> float:
    """Worst relative disagreement between analytic MLP gradients and central
    finite differences over every weight and bias of a random micro-net."""
    from vlp.learn import loss_and_grads

    g = np.random.default_rng(seed)
    weights = [g.normal(0.0, 0.5, size=(a, b))
               for a, b in zip(widths[:-1], widths[1:])]
    biases = [g.normal(0.0, 0.1, size=b) for b in widths[1:]]
    x = g.normal(size=(n, widths[0]))
    y = g.normal(size=n)
    _, gw, gb = loss_and_grads(weights, biases, x, y)
    eps = 1e-6
    worst = 0.0
    for params, grads in ((weights, gw), (biases, gb)):
        for p, grad in zip(params, grads):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                keep = p[i]
                p[i] = keep + eps
                up, _, _ = loss_and_grads(weights, biases, x, y)
                p[i] = keep - eps
                down, _, _ = loss_and_grads(weights, biases, x, y)
                p[i] = keep
                fd = (up - down) / (2.0 * eps)
                denom = max(abs(fd), abs(float(grad[i])), 1e-8)
                worst = max(worst, abs(fd - float(grad[i])) / denom)
    return worst


def project_point(intr, pose, point) -> tuple[float, float]:
    """Pinhole projection of one LCS point: take it into the camera frame,
    divide by its depth, and scale by the focal lengths about the principal
    point. Returns pixel (u, v), possibly off the sensor. Raises
    BehindCamera when the point is on or behind the camera plane."""
    from vlp.errors import BehindCamera
    from vlp.geometry import camera_rotations

    att = pose.attitude
    c = camera_rotations(np.array([[att.roll, att.pitch, att.yaw]]))[0]
    p_cam = c.T @ (point.as_array() - pose.position.as_array())
    z = p_cam[2]
    if z <= 0:
        raise BehindCamera(f"point {point} has camera depth {z:.6g}")
    u = intr.fx_px * p_cam[0] / z + intr.cx_px
    v = intr.fy_px * p_cam[1] / z + intr.cy_px
    return float(u), float(v)


def point_in_convex_quad(pts: np.ndarray, quad: np.ndarray) -> np.ndarray:
    """Half-plane test against a convex quad in vertex order; points exactly
    on an edge count as inside."""
    quad = np.asarray(quad, dtype=np.float64)
    signs = []
    for i in range(4):
        a, b = quad[i], quad[(i + 1) % 4]
        cross = (b[0] - a[0]) * (pts[:, 1] - a[1]) - (b[1] - a[1]) * (pts[:, 0] - a[0])
        signs.append(cross)
    signs = np.stack(signs)
    return np.all(signs >= 0, axis=0) | np.all(signs <= 0, axis=0)


def distance_to_quad_edges(pts: np.ndarray, quad: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest quad edge segment."""
    quad = np.asarray(quad, dtype=np.float64)
    d = np.full(pts.shape[0], np.inf)
    for i in range(4):
        a, b = quad[i], quad[(i + 1) % 4]
        ab = b - a
        t = np.clip(((pts - a) @ ab) / (ab @ ab), 0.0, 1.0)
        proj = a + t[:, None] * ab
        d = np.minimum(d, np.hypot(*(pts - proj).T))
    return d


def reference_row_spans(quad, width: int, height: int):
    """Pixel-center column spans of a quad, per image row, one row range
    for all its edges: (row_lo, row_hi, col_lo, col_hi), where rows
    row_lo..row_hi-1 meet the quad's vertical extent and col_lo/col_hi give
    the inclusive column range, clipped to the sensor, of the pixels whose
    centers fall inside on each of those rows. Rows with no covered pixel
    center get col_lo > col_hi. Pixel (r, c) covers the unit square with
    center (c + 0.5, r + 0.5). Each edge covers a half-open row interval,
    so a shared vertex counts once. Independent of vlp.render._quad_runs,
    which must give the covered rows of these spans."""
    pts = quad.points
    vmin, vmax = pts[:, 1].min(), pts[:, 1].max()
    row_lo = max(0, int(math.ceil(vmin - 0.5)))
    row_hi = min(height, int(math.floor(vmax - 0.5)) + 1)
    if row_hi <= row_lo:
        return row_lo, row_lo, np.zeros(0, np.int64), np.zeros(0, np.int64)
    y = np.arange(row_lo, row_hi, dtype=np.float64) + 0.5
    lo = np.full(y.shape, np.inf)
    hi = np.full(y.shape, -np.inf)
    for i in range(4):
        p, q = pts[i], pts[(i + 1) % 4]
        y0, y1 = p[1], q[1]
        if y0 == y1:
            continue
        inside = (y >= min(y0, y1)) & (y < max(y0, y1))
        if not inside.any():
            continue
        x = p[0] + (y[inside] - y0) * (q[0] - p[0]) / (y1 - y0)
        lo[inside] = np.minimum(lo[inside], x)
        hi[inside] = np.maximum(hi[inside], x)
    col_lo = np.where(np.isfinite(lo), np.ceil(lo - 0.5), 1).astype(np.int64)
    col_hi = np.where(np.isfinite(hi), np.floor(hi - 0.5), 0).astype(np.int64)
    col_lo = np.clip(col_lo, 0, width)
    col_hi = np.clip(col_hi, -1, width - 1)
    return row_lo, row_hi, col_lo, col_hi


def reference_refill(frame, quad) -> np.ndarray:
    """Re-rasterize a frame's quad at new corner positions, reapplying its
    stored shutter factors if any: one fill loop over the quad's row spans,
    then one full-height float scale of the covered rows. This is the
    jitter step of vlp.render.add_capture_noise written out in one piece,
    so the jittered frames must equal it pixel for pixel."""
    px = np.zeros_like(frame.pixels)
    row_lo, row_hi, col_lo, col_hi = reference_row_spans(quad, frame.width_px,
                                                         frame.height_px)
    for idx, r in enumerate(range(row_lo, row_hi)):
        if col_hi[idx] >= col_lo[idx]:
            px[r, col_lo[idx] : col_hi[idx] + 1] = frame.fill
    if frame.row_factors is not None and row_hi > row_lo:
        block = px[row_lo:row_hi].astype(np.float64)
        block *= frame.row_factors[row_lo:row_hi, None]
        px[row_lo:row_hi] = np.rint(block).astype(np.uint8)
    return px


def reference_pixel_noise(pixels: np.ndarray, sigma: float,
                          rng: np.random.Generator) -> np.ndarray:
    """The pixel-noise step of vlp.render.add_capture_noise over the pixels
    of its noise window, written out: every pixel plus a 3-sigma pedestal
    plus one Gaussian draw from rng, rounded and clipped to [0, 255]."""
    noisy = pixels.astype(np.float64) + 3.0 * sigma
    noisy += rng.normal(0.0, sigma, size=pixels.shape)
    return np.clip(np.rint(noisy), 0.0, 255.0).astype(np.uint8)


def reference_widest_subset(pts: np.ndarray) -> list[int]:
    """vlp.vision._widest_subset written as a loop over the diagonal's first
    vertex i: the widest diagonal from i is the first maximum over j, and
    only a strictly wider one from a later i replaces it."""
    best, picks = -1.0, None
    for i in range(len(pts)):
        d = pts - pts[i]
        cross = d[:, None, 0] * d[None, :, 1] - d[:, None, 1] * d[None, :, 0]
        span = cross.max(axis=1) - cross.min(axis=1)
        j = int(span.argmax())
        if span[j] > best:
            best = float(span[j])
            picks = [i, j, int(cross[j].argmax()), int(cross[j].argmin())]
    return sorted(picks)


def reference_largest_component(mask: np.ndarray):
    """The 8-connected component with the most pixels, by labelling every
    pixel (scipy.ndimage.label): (blob cropped to its bounding box, (row,
    col) of the box in mask, pixel count). Labels number components in
    row-major order of their first pixel, so the first maximum of the
    counts breaks ties toward the component whose first pixel comes first.
    Raises EmptyMask when no pixel is set."""
    from scipy import ndimage

    from vlp.errors import EmptyMask

    if not mask.any():
        raise EmptyMask("no set pixels")
    labels, _ = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
    counts = np.bincount(labels.ravel())
    counts[0] = 0
    best = int(counts.argmax())
    component = labels == best
    rows = np.flatnonzero(component.any(axis=1))
    cols = np.flatnonzero(component.any(axis=0))
    return (component[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1],
            (int(rows[0]), int(cols[0])), int(counts[best]))


def reference_boundary_points(mask: np.ndarray, origin: tuple[int, int]) -> np.ndarray:
    """(n, 2) frame (u, v) of the midpoints between set and unset
    4-neighbours of a mask whose top-left pixel sits at origin (row, col),
    from pixel differences of the mask zero-padded by one: first along
    rows, then across them, each in row-major order. Indices move to the
    frame while still integers, so the 0.5 steps are exact."""
    m = np.pad(mask, 1)
    r0, c0 = origin[0] - 1, origin[1] - 1  # frame index of padded (0, 0)
    r, c = np.nonzero(m[:, 1:] != m[:, :-1])  # (r, c) | (r, c + 1)
    across = np.column_stack([c + (c0 + 1), r + r0 + 0.5])
    r, c = np.nonzero(m[1:, :] != m[:-1, :])  # (r, c) over (r + 1, c)
    down = np.column_stack([c + c0 + 0.5, r + (r0 + 1)])
    return np.concatenate([across, down])


def reference_extract_corners(frame, merge_radius: int = 0):
    """vlp.vision.extract_corners on whole-frame pixel masks: threshold the
    whole frame, close the whole mask, label every pixel, and take the
    boundary points from pixel differences; then the same quad fit and
    checks."""
    from vlp.errors import SaturatedFrame
    from vlp.geometry import order_corners
    from vlp.vision import THRESHOLD, _check_quad, _fit_quad, close_mask

    mask = frame.pixels >= THRESHOLD
    if merge_radius > 0:
        mask = close_mask(mask, merge_radius)
    blob, origin, count = reference_largest_component(mask)
    h, w = mask.shape
    if blob.shape[0] == h or blob.shape[1] == w:
        raise SaturatedFrame("blob spans the full height or width of the sensor")
    corners = order_corners(_fit_quad(reference_boundary_points(blob, origin)))
    _check_quad(corners, count)
    return corners


def reference_row_profile(frame, quad) -> tuple[np.ndarray, int]:
    """vlp.codec.extract_row_profile's (values, row_start) from a masked
    sum: each covered row's in-span pixels of the quad's bounding crop,
    summed in int64 under a (rows, columns) mask, over the span's pixel
    count, over 255."""
    row_lo, _, col_lo, col_hi = reference_row_spans(quad, frame.width_px, frame.height_px)
    covered = np.flatnonzero(col_hi >= col_lo)
    first, last = int(covered[0]), int(covered[-1]) + 1
    col_lo, col_hi = col_lo[first:last], col_hi[first:last]
    c0 = int(col_lo.min())
    block = frame.pixels[row_lo + first : row_lo + last, c0 : int(col_hi.max()) + 1]
    cols = np.arange(c0, c0 + block.shape[1])
    inside = (cols >= col_lo[:, None]) & (cols <= col_hi[:, None])
    sums = block.sum(axis=1, dtype=np.int64, where=inside)
    counts = (col_hi - col_lo + 1).astype(np.float64)
    return sums / counts / 255.0, row_lo + first


def _rle(binary: np.ndarray):
    """Run-length encode a boolean sequence into (boundaries, levels):
    run i is binary[boundaries[i] : boundaries[i+1]] with value levels[i]."""
    change = np.nonzero(np.diff(binary.astype(np.int8)))[0] + 1
    boundaries = [0, *change.tolist(), len(binary)]
    levels = [bool(binary[b]) for b in boundaries[:-1]]
    return boundaries, levels


def _absorb_short_runs(boundaries, levels, floor_rows: float):
    """Clean sub-floor runs (noise flecks near a stripe edge): interior ones
    flip and merge into their neighbors; a too-short first or last run folds
    into its neighbor so it cannot donate a bogus anchor boundary. Shortest
    first, deterministic."""
    while len(levels) > 2:
        lengths = [boundaries[i + 1] - boundaries[i] for i in range(len(levels))]
        pick, best = None, floor_rows
        for i in range(len(levels)):
            if lengths[i] < best:
                pick, best = i, lengths[i]
        if pick is None:
            break
        if pick == 0:
            # extend the second run to the profile start
            del boundaries[1]
            del levels[0]
        elif pick == len(levels) - 1:
            del boundaries[-2]
            del levels[-1]
        else:
            del boundaries[pick : pick + 2]
            del levels[pick : pick + 2]
    return boundaries, levels


def reference_dm_decode(profile, row_readout_us: float, exposure_us: float,
                        bit_rate_hz: float = DEFAULT_BIT_RATE_HZ) -> tuple:
    """The run-grammar decoder vlp.codec.dm_decode replaced, as it was:
    binarize at (max+min)/2, run-length encode, absorb sub-quarter-unit
    runs, snap the interior run boundaries to the half-bit grid anchored at
    the first one, and read bits for both half-bit alignments, ranked by
    boundary-rule violations inside the 8-bit window."""
    if not (row_readout_us > 0 and exposure_us > 0 and bit_rate_hz > 0):
        raise ValueError("timing parameters must be positive")
    level_duration_us = 1e6 / (2.0 * bit_rate_hz)
    if exposure_us >= 2.0 * level_duration_us:
        raise NoTransitions(
            "exposure covers a full bit period; stripes wash out "
            f"(exposure {exposure_us} us, bit {2 * level_duration_us} us)"
        )
    unit_rows = level_duration_us / row_readout_us
    values = profile.values
    if values.size < 16.0 * unit_rows:
        raise ProfileTooShort(
            f"{values.size} rows < one code repetition ({16 * unit_rows:.0f} rows)"
        )
    vmin, vmax = float(values.min()), float(values.max())
    if vmax - vmin < 1e-6:
        raise NoTransitions("constant profile; the LED is not modulated")
    binary = values >= (vmax + vmin) / 2.0
    boundaries, levels = _rle(binary)
    boundaries, levels = _absorb_short_runs(boundaries, levels, unit_rows / 4.0)
    if len(levels) < 3:
        raise NoTransitions("profile has no interior stripe transitions")

    # drop the first and last runs (truncated by the quad edges); snap the
    # remaining boundaries to the half-bit grid anchored at the first one
    interior = boundaries[1:-1]
    units = [round((b - interior[0]) / unit_rows) for b in interior]
    total = units[-1]
    if any(u1 <= u0 for u0, u1 in zip(units, units[1:])):
        raise ProfileTooShort("stripe runs too garbled to place on the half-bit grid")
    transition_at = set(units)

    candidates = []
    for align in (0, 1):
        n_units = total - align
        if n_units < 16:
            continue
        bits = []
        violations = 0 if align == 0 else (0 if align in transition_at else 1)
        for k in range(8):
            start = align + 2 * k
            bits.append(0 if (start + 1) in transition_at else 1)
            if k > 0 and start not in transition_at:
                violations += 1
        # rotation is unobservable without framing: report the class
        canonical = rotation_class(bits)
        if all(c[2] != canonical for c in candidates):
            candidates.append((violations, align, canonical))
    if not candidates:
        raise ProfileTooShort(
            f"only {total} clean half-bit units; need 16 to read 8 bits"
        )
    candidates.sort(key=lambda t: (t[0], t[1]))
    return tuple(c[2] for c in candidates)


def reference_fit_sides(pts: np.ndarray, hull: np.ndarray, quad: np.ndarray) -> np.ndarray:
    """vlp.vision._fit_sides one side at a time: a (4, n, 2) offset of
    every point from every quad corner gives each point's nearest side;
    then each side takes its own trimmed points, their (points, hull
    edges) distances, its seed edge and its line fit."""
    from vlp.errors import TooFewCorners
    from vlp.vision import EDGE_TRIM_PX, OUTLIER_PX, SEED_PX, _fit_line

    ends = np.roll(quad, -1, axis=0) - quad
    length = np.hypot(ends[:, 0], ends[:, 1])
    if not (length > 2 * EDGE_TRIM_PX).all():
        raise TooFewCorners(f"quad side of {length.min():.1f} px is too short to fit")
    unit = ends / length[:, None]
    rel = pts[None, :, :] - quad[:, None, :]
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
                      - offset)
        seed = int((dist <= SEED_PX).sum(axis=0).argmax())
        lines.append(_fit_line(mine[dist[:, seed] <= OUTLIER_PX]))
    n, c = (np.array(x) for x in zip(*lines))
    n0, c0 = np.roll(n, 1, axis=0), np.roll(c, 1)
    det = n0[:, 0] * n[:, 1] - n0[:, 1] * n[:, 0]
    if not (np.abs(det) >= 1e-9).all():
        raise TooFewCorners("adjacent quad sides are parallel")
    return np.column_stack([c0 * n[:, 1] - c * n0[:, 1],
                            n0[:, 0] * c - n[:, 0] * c0]) / det[:, None]
