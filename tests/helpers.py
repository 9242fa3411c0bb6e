"""Independent oracles used by both the unit tests and the acceptance
suite. Everything here is written the slow, obvious way on purpose: these
functions must be trivially auditable, not fast."""

import numpy as np


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
    ties go to the lowest feature, then the lowest threshold. The arithmetic
    matches grow_tree element by element, so the trees must be equal.
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
                best = (float(gain[j]), f, (xs[i - 1] + xs[i]) / 2.0, order, i)
        if best is None or best[0] <= 0.0:
            continue
        _, f, thr, order, i = best
        nodes[node][:3] = f, thr, node + 1
        stack.append((idx[order[i:]], depth + 1, node))
        stack.append((idx[order[:i]], depth + 1, None))
    return Tree(*zip(*nodes))


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


def reference_refill(frame, quad_points: np.ndarray) -> np.ndarray:
    """Re-rasterize a frame's quad at new corner positions, reapplying its
    stored shutter factors if any: one fill loop over the quad's row spans,
    then one full-height float scale of the covered rows. This is the
    jitter step of vlp.render.add_capture_noise written out in one piece,
    so the jittered frames must equal it pixel for pixel."""
    from vlp.render import _quad_row_spans

    px = np.zeros_like(frame.pixels)
    row_lo, row_hi, col_lo, col_hi = _quad_row_spans(
        quad_points, frame.width_px, frame.height_px
    )
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
    """The pixel-noise step of vlp.render.add_capture_noise over a whole
    frame, written out: every pixel plus a 3-sigma pedestal plus one
    Gaussian draw from rng, rounded and clipped to [0, 255]."""
    noisy = pixels.astype(np.float64) + 3.0 * sigma
    noisy += rng.normal(0.0, sigma, size=pixels.shape)
    return np.clip(np.rint(noisy), 0.0, 255.0).astype(np.uint8)


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
