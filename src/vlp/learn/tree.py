"""Regression trees, the one exact greedy grower behind them, and the
three tree learners built on it: CART trees, bagged forests of CART trees
averaged for prediction, and gradient-boosted trees.

Trees are stored as flat parallel node arrays rather than linked node
objects: node i is a split when feature[i] >= 0 (rows with
x[feature] <= threshold descend left), otherwise a leaf predicting
value[i]. Flat arrays make the JSON model format a direct dump, and let
one lockstep walk (_walk) predict every tree of a model at once: the
trees' arrays laid end to end form one forest of node arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tree", "fit_tree", "grow_tree", "Forest", "fit_forest",
           "GbtModel", "fit_gbt"]


class Tree:
    """Binary regression tree over flat node arrays. Root is node 0."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature, threshold, left, right, value):
        self.feature = _numbers(feature, np.int64)
        self.threshold = _numbers(threshold, np.float64)
        self.left = _numbers(left, np.int64)
        self.right = _numbers(right, np.int64)
        self.value = _numbers(value, np.float64)
        n = self.feature.size
        if n == 0 or any(a.shape != (n,) for a in (self.feature, self.threshold,
                                                  self.left, self.right, self.value)):
            raise ValueError("node arrays must be nonempty, one-dimensional "
                             "and of equal length")

    @property
    def n_nodes(self) -> int:
        return int(self.feature.size)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted value for each row of an (N, n_features) matrix."""
        return _walk([self], features)[0]


# A walk's (trees x rows) temporaries stay within about this many bytes.
WALK_BLOCK_BYTES = 1 << 20


def _walk(trees, features) -> np.ndarray:
    """(T, N) leaf values: row t holds trees[t]'s prediction for each row
    of an (N, n_features) matrix.

    The trees' node arrays are laid end to end, each tree's children
    offset by the nodes before it, and every leaf made a split that sends
    both ways to itself. Then every (tree, row) pair steps down at once,
    one level per step, until none sits on a split. Rows go in blocks of
    at most WALK_BLOCK_BYTES / (8 T), so the walk's temporaries stay
    small whatever the ensemble and the batch."""
    x = np.asarray(features, dtype=np.float64)
    out = np.empty((len(trees), x.shape[0]), dtype=np.float64)
    if not trees:
        return out
    sizes = [t.n_nodes for t in trees]
    roots = np.cumsum(sizes) - sizes
    shift = np.repeat(roots, sizes)
    feature = np.concatenate([t.feature for t in trees])
    threshold = np.concatenate([t.threshold for t in trees])
    value = np.concatenate([t.value for t in trees])
    split = feature >= 0
    # children[2 i + 1] is node i's left child, children[2 i] its right one
    children = np.empty((feature.size, 2), dtype=np.int64)
    children[:, 0] = np.concatenate([t.right for t in trees]) + shift
    children[:, 1] = np.concatenate([t.left for t in trees]) + shift
    leaf = np.flatnonzero(~split)
    children[leaf] = leaf[:, None]  # a leaf steps to itself, on feature 0
    feature[leaf] = 0
    children = children.ravel()
    block = max(1, WALK_BLOCK_BYTES // (8 * len(trees)))
    for lo in range(0, x.shape[0], block):
        xb = x[lo : lo + block]
        rows = np.arange(xb.shape[0])
        node = np.repeat(roots[:, None], xb.shape[0], axis=1)
        while split[node].any():
            goes_left = xb[rows, feature[node]] <= threshold[node]
            node = children[2 * node + goes_left]
        out[:, lo : lo + block] = value[node]
    return out


def _numbers(raw, dtype) -> np.ndarray:
    """raw as a dtype array; ValueError unless numpy reads it as finite
    numbers or booleans (which read as 0 and 1) that dtype holds: whole
    numbers for an integer dtype (1.0 reads as 1), values within a float
    dtype's range. np.asarray(raw, dtype) would parse numeric strings, read
    null as NaN, truncate 0.5 to 0 and overflow 1e39 to float32 inf. raw is
    read once, and the array is cast only if its dtype differs, so a dtype
    array comes back as is."""
    a = np.asarray(raw)
    dtype = np.dtype(dtype)
    if a.dtype.kind not in "biuf":
        raise ValueError(f"could not convert {a.dtype} values to {dtype}: "
                         "not all 64-bit numbers")
    if a.dtype.kind == "f":
        if not np.isfinite(a).all():
            raise ValueError(f"non-finite values where {dtype} numbers belong")
        if dtype.kind == "i" and not ((np.trunc(a) == a) & (np.abs(a) < 2.0**63)).all():
            raise ValueError(f"values that are not {dtype} numbers: fractional or too large")
        narrower = dtype.kind == "f" and dtype.itemsize < a.itemsize
        if narrower and (np.abs(a) > np.finfo(dtype).max).any():
            raise ValueError(f"values beyond the range of {dtype}")
    return a.astype(dtype, copy=False)


def _number(raw) -> float:
    """raw as a float; ValueError unless it is one finite number (or a
    boolean), read by _numbers' rules."""
    a = _numbers(raw, np.float64)
    if a.ndim:
        raise ValueError(f"a {a.shape} array where one number belongs")
    return float(a)


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


def _ranks(x) -> np.ndarray:
    """(n_features, N) dense int ranks of an (N, n_features) matrix's
    columns: equal values (-0.0 and 0.0 among them) share a rank, and a
    larger value has a larger rank."""
    return np.stack([np.unique(col, return_inverse=True)[1] for col in x.T])


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

    The columns are ranked once (SLIQ's presort, Mehta et al., EDBT 1996),
    and every node sorts its rows by integer keys made from those ranks
    (see _grow); the tree is the one a stable float sort at every node
    gives, bit for bit.
    """
    return _grow(_ranks(x), x, g, max_depth, reg_lambda)[0]


def _grow(ranks, x, g, max_depth, reg_lambda):
    """grow_tree on the columns' ranks; also returns, for each row of x,
    the node index of the leaf it was partitioned into.

    ranks is (n_features, N): ints that order each column as its values do
    and tie exactly where they tie, such as _ranks gives or a gather of
    its columns. A node of n rows sorts, per feature, the keys
    rank * 2**b + position with 2**b > n, in one default (unstable) sort:
    the keys are unique, so the order is the stable argsort of the node's
    values, and splits, thresholds and the children's row order are the
    float sort's bit for bit. Masks and shifts take the order and the
    ranks back out of the sorted keys.

    A row's leaf is the one Tree.predict walks it to, since a threshold
    sends exactly the lower rows left.
    """
    nodes = []  # [feature, threshold, left, right, value] per node, preorder
    leaf = np.empty(g.size, dtype=np.int64)
    # den[k - 1] = k + lambda: per cut, den[: n - 1] is n_L + lambda and
    # den[n - 2 :: -1] is n_R + lambda
    den = np.arange(1, g.size) + reg_lambda
    # explicit stack, preorder: deep trees must not hit the recursion limit;
    # the left child is popped right after its parent, so it is node + 1
    stack = [(np.arange(g.size), 0, None)]
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
            leaf[idx] = node
            continue
        # row f of order/rank/cg is feature f sorted on its own; column k
        # of the gain matrix puts the first k + 1 sorted rows left
        bits = n.bit_length()
        keys = ranks.take(idx, axis=1) << bits
        keys |= np.arange(n)
        keys.sort(axis=1)
        order = keys & ((1 << bits) - 1)
        rank = keys >> bits
        cg = gi[order].cumsum(axis=1)
        gl = cg[:, :-1]
        gr = cg[:, -1:] - gl
        gain = 0.5 * (gl * gl / den[: n - 1] + gr * gr / den[n - 2 :: -1])
        gain -= 0.5 * gsum * gsum / (n + reg_lambda)
        # no cut between equal values
        gain[rank[:, :-1] == rank[:, 1:]] = -np.inf
        # the first maximum is the lowest feature, then the lowest threshold
        f, k = divmod(int(gain.argmax()), n - 1)
        if not gain[f, k] > 0.0:
            leaf[idx] = node
            continue
        i = k + 1
        lo, hi = x[idx[order[f, k]], f], x[idx[order[f, i]], f]
        # the midpoint of two values one ULP apart rounds onto hi, and
        # x <= hi would then send every row left
        t = (lo + hi) / 2.0
        nodes[node][:3] = f, (t if t < hi else lo), node + 1
        stack.append((idx[order[f, i:]], depth + 1, node))
        stack.append((idx[order[f, :i]], depth + 1, None))
    return Tree(*zip(*nodes)), leaf


def fit_tree(features, targets, *, max_depth: int | None = None) -> Tree:
    """Grow a CART regression tree by exact greedy recursive partitioning.

    Each split minimizes the summed squared error of the child means.
    Growth stops at max_depth (None = unlimited), at a single row, or at
    zero variance.
    """
    x, y = _validate_xy(features, targets)
    _check_depth(max_depth)
    return grow_tree(x, -y, max_depth=max_depth, reg_lambda=0.0)


class Forest:
    """Mean of n independently grown trees."""

    __slots__ = ("trees",)

    def __init__(self, trees):
        self.trees = list(trees)
        if not self.trees:
            raise ValueError("forest needs at least one tree")

    def predict(self, features: np.ndarray) -> np.ndarray:
        """The trees' mean prediction for each row of an (N, n_features)
        matrix."""
        values = _walk(self.trees, features)
        acc = np.zeros(values.shape[1], dtype=np.float64)
        for v in values:  # tree by tree, so every sum rounds in tree order
            acc += v
        return acc / len(self.trees)


def fit_forest(features, targets, *, n_trees: int = 150, seed=None) -> Forest:
    """Grow n_trees CART trees on bootstrap resamples (N draws with
    replacement).

    Each tree gets its own child seed spawned from `seed`, so the model is
    reproducible for a fixed seed no matter how trees might be scheduled.
    Trees follow common regression practice: unlimited depth, leaves of
    one, every feature considered at every split. Each tree is fit_tree on
    its resample; the columns are ranked once per fit, and each resample
    takes its rows' ranks from them.
    """
    x, y = _validate_xy(features, targets)
    if x.shape[0] < 2:
        raise ValueError("forest training needs at least 2 rows")
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    n = x.shape[0]
    ranks = _ranks(x)
    trees: list[Tree] = []
    for child in np.random.SeedSequence(seed).spawn(n_trees):
        rows = np.random.default_rng(child).integers(0, n, size=n)
        trees.append(_grow(ranks.take(rows, axis=1), x[rows], -y[rows], None, 0.0)[0])
    return Forest(trees)


class GbtModel:
    """Stagewise additive tree model under shrinkage."""

    __slots__ = ("base_score", "learning_rate", "trees")

    def __init__(self, base_score: float, learning_rate: float, trees):
        self.base_score = _number(base_score)
        self.learning_rate = _number(learning_rate)
        self.trees = list(trees)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted value for each row of an (N, n_features) matrix."""
        values = _walk(self.trees, features)
        acc = np.full(values.shape[1], self.base_score, dtype=np.float64)
        for v in values:  # tree by tree, so every sum rounds in tree order
            acc += self.learning_rate * v
        return acc


def fit_gbt(features, targets, *, rounds: int = 150, learning_rate: float = 0.3,
            max_depth: int | None = 6, reg_lambda: float = 1.0) -> GbtModel:
    """Boost `rounds` trees on squared loss with second-order split gains.

    Each round grows one tree with grow_tree on the per-row gradients
    g_i = pred_i - y_i with unit hessians, so splits are scored by the
    second-order gain and leaves hold -G/(H + lambda). The ensemble
    prediction is base_score + learning_rate * sum of tree outputs; the
    base score is the target mean. Growth has no random choices, so the
    fit takes no seed.

    The columns are ranked once per fit. After each round every training
    row's prediction moves by the value of the leaf the grower partitioned
    it into, which is the leaf tree.predict walks it to, so no round walks
    its tree.
    """
    x, y = _validate_xy(features, targets)
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    if learning_rate <= 0:
        raise ValueError("learning_rate must be > 0")
    _check_depth(max_depth)
    if reg_lambda < 0:
        raise ValueError("reg_lambda must be >= 0")
    base = float(y.mean())
    pred = np.full(x.shape[0], base, dtype=np.float64)
    ranks = _ranks(x)
    trees: list[Tree] = []
    for _ in range(rounds):
        tree, leaf = _grow(ranks, x, pred - y, max_depth, reg_lambda)
        pred += learning_rate * tree.value[leaf]
        trees.append(tree)
    return GbtModel(base, learning_rate, trees)
