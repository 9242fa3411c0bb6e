"""Regression trees and the one exact greedy grower behind CART trees,
bagged forests and gradient-boosted trees.

Trees are stored as flat parallel node arrays rather than linked node
objects: node i is a split when feature[i] >= 0 (rows with
x[feature] <= threshold descend left), otherwise a leaf predicting
value[i]. Flat arrays keep batch prediction vectorizable and make the
JSON model format a direct dump.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tree", "fit_tree", "grow_tree"]


class Tree:
    """Binary regression tree over flat node arrays. Root is node 0."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=np.float64)
        n = self.feature.size
        if not (self.threshold.size == self.left.size == self.right.size
                == self.value.size == n) or n == 0:
            raise ValueError("node arrays must be nonempty and equal length")

    @property
    def n_nodes(self) -> int:
        return int(self.feature.size)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted value for each row of an (N, n_features) matrix."""
        x = np.asarray(features, dtype=np.float64)
        node = np.zeros(x.shape[0], dtype=np.int64)
        while True:
            live = np.flatnonzero(self.feature[node] >= 0)
            if live.size == 0:
                return self.value[node]
            cur = node[live]
            goes_left = x[live, self.feature[cur]] <= self.threshold[cur]
            node[live] = np.where(goes_left, self.left[cur], self.right[cur])

    def __eq__(self, other):
        if not isinstance(other, Tree):
            return NotImplemented
        return (np.array_equal(self.feature, other.feature)
                and np.array_equal(self.threshold, other.threshold)
                and np.array_equal(self.left, other.left)
                and np.array_equal(self.right, other.right)
                and np.array_equal(self.value, other.value))

    __hash__ = None


def _validate_xy(features, targets):
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    if y.ndim != 1 or y.size != x.shape[0]:
        raise ValueError("targets must be 1-D with one entry per feature row")
    if x.shape[0] == 0:
        raise ValueError("empty training set")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("non-finite training values")
    return x, y


def _check_depth(max_depth):
    if max_depth is not None and max_depth < 0:
        raise ValueError("max_depth must be >= 0 or None")


def grow_tree(x, g, *, max_depth: int | None, reg_lambda: float) -> Tree:
    """Grow one tree on per-row gradients g with unit hessians.

    Every node scores all features at once, at cuts between consecutive
    distinct sorted values, and takes the split of highest second-order
    gain

        gain = 1/2 * [G_L^2/(n_L + lambda) + G_R^2/(n_R + lambda)
                      - G^2/(n + lambda)],

    splitting only when gain > 0. Ties resolve to the lowest feature index,
    then the lowest threshold. A split stores the midpoint of the two values
    it cuts between, or the lower value where the midpoint rounds onto the
    upper, so x <= threshold sends exactly the lower rows left. A node holds
    -G/(n + lambda). Growth stops at max_depth (None = unlimited), at a
    single row, or at a constant gradient.

    With lambda = 0 and g = -y (the squared-loss gradient at prediction 0)
    the gain is half the SSE reduction and the node value is the mean
    target: this is CART.
    """
    nodes = []  # [feature, threshold, left, right, value] per node, preorder
    # explicit stack, preorder: deep trees must not hit the recursion limit;
    # the left child is popped right after its parent, so it is node + 1
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
        # no split of a constant gradient has positive exact gain; rounding
        # in the prefix sums must not split one
        if (n < 2 or (max_depth is not None and depth >= max_depth)
                or gi.min() == gi.max()):
            continue
        # column f of order/xs/cg is feature f sorted on its own; row k of
        # the gain matrix puts the first k + 1 sorted rows left
        xi = x[idx]
        order = np.argsort(xi, axis=0, kind="stable")
        xs = np.take_along_axis(xi, order, axis=0)
        cg = np.cumsum(gi[order], axis=0)
        sizes = np.arange(1, n)[:, None]
        gl = cg[:-1]
        gr = cg[-1] - gl
        gain = 0.5 * (gl * gl / (sizes + reg_lambda)
                      + gr * gr / ((n - sizes) + reg_lambda))
        gain -= 0.5 * gsum * gsum / (n + reg_lambda)
        # no cut between equal values
        gain[xs[:-1] == xs[1:]] = -np.inf
        # features as the outer axis: the first maximum is the lowest
        # feature, then the lowest threshold
        f, k = divmod(int(np.argmax(gain.T)), gain.shape[0])
        if not gain[k, f] > 0.0:
            continue
        i = k + 1
        lo, hi = xs[i - 1, f], xs[i, f]
        # the midpoint of two values one ULP apart rounds onto hi, and
        # x <= hi would then send every row left
        t = (lo + hi) / 2.0
        nodes[node][:3] = f, (t if t < hi else lo), node + 1
        stack.append((idx[order[i:, f]], depth + 1, node))
        stack.append((idx[order[:i, f]], depth + 1, None))
    return Tree(*zip(*nodes))


def fit_tree(features, targets, *, max_depth: int | None = None) -> Tree:
    """Grow a CART regression tree by exact greedy recursive partitioning.

    Each split minimizes the summed squared error of the child means.
    Growth stops at max_depth (None = unlimited), at a single row, or at
    zero variance.
    """
    x, y = _validate_xy(features, targets)
    _check_depth(max_depth)
    return grow_tree(x, -y, max_depth=max_depth, reg_lambda=0.0)
