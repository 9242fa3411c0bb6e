"""Gradient-boosted trees with second-order split gains on squared loss.

Each round grows one tree with the shared exact grower (tree.grow_tree) on
the per-row gradients g_i = pred_i - y_i with unit hessians, so splits are
scored by the second-order gain and leaves hold -G/(H + lambda). The
ensemble prediction is base_score + learning_rate * sum of tree outputs;
the base score is the target mean.
"""

from __future__ import annotations

import numpy as np

from .tree import Tree, _check_depth, _validate_xy, grow_tree

__all__ = ["GbtModel", "fit_gbt"]


class GbtModel:
    """Stagewise additive tree model under shrinkage."""

    __slots__ = ("base_score", "learning_rate", "trees")

    def __init__(self, base_score: float, learning_rate: float, trees):
        self.base_score = float(base_score)
        self.learning_rate = float(learning_rate)
        self.trees = list(trees)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted value for each row of an (N, n_features) matrix."""
        x = np.asarray(features, dtype=np.float64)
        acc = np.full(x.shape[0], self.base_score, dtype=np.float64)
        for t in self.trees:
            acc += self.learning_rate * t.predict(x)
        return acc


def fit_gbt(features, targets, *, rounds: int = 150, learning_rate: float = 0.3,
            max_depth: int | None = 6, reg_lambda: float = 1.0) -> GbtModel:
    """Boost `rounds` trees on squared loss. Growth has no random choices,
    so the fit takes no seed."""
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
    trees: list[Tree] = []
    for _ in range(rounds):
        tree = grow_tree(x, pred - y, max_depth=max_depth, reg_lambda=reg_lambda)
        pred += learning_rate * tree.predict(x)
        trees.append(tree)
    return GbtModel(base, learning_rate, trees)
