"""Bagged forests of CART trees, averaged for prediction."""

from __future__ import annotations

import numpy as np

from .tree import Tree, fit_tree, _validate_xy

__all__ = ["Forest", "fit_forest"]


class Forest:
    """Mean of n independently grown trees."""

    __slots__ = ("trees",)

    def __init__(self, trees):
        self.trees = list(trees)
        if not self.trees:
            raise ValueError("forest needs at least one tree")

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def predict(self, features: np.ndarray) -> np.ndarray:
        x = np.asarray(features, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        acc = np.zeros(x.shape[0], dtype=np.float64)
        for t in self.trees:
            acc += t.predict(x)
        return acc / len(self.trees)


def fit_forest(features, targets, *, n_trees: int = 150, seed=None) -> Forest:
    """Grow n_trees CART trees on bootstrap resamples (N draws with
    replacement).

    Each tree gets its own child seed spawned from `seed`, so the model is
    reproducible for a fixed seed no matter how trees might be scheduled.
    Trees follow common regression practice: unlimited depth, leaves of
    one, every feature considered at every split.
    """
    x, y = _validate_xy(features, targets)
    if x.shape[0] < 2:
        raise ValueError("forest training needs at least 2 rows")
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    n = x.shape[0]
    trees: list[Tree] = []
    for child in np.random.SeedSequence(seed).spawn(n_trees):
        rows = np.random.default_rng(child).integers(0, n, size=n)
        trees.append(fit_tree(x[rows], y[rows]))
    return Forest(trees)
