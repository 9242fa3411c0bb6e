"""Per-axis model bundle: one scalar regressor per target axis, assembled
into a 3D position predictor, with versioned JSON persistence.

The JSON layout ("vlp-model/1") stores trees as flat node arrays and MLP
layers as nested lists. Floats serialize through repr, so a save/load
round trip reproduces predictions bit-exactly.
"""

from __future__ import annotations

import json
import numpy as np

from ..errors import BadFeatures, MalformedModel
from .tree import Tree, fit_tree
from .forest import Forest, fit_forest
from .gbt import GbtModel, fit_gbt
from .mlp import Mlp, fit_mlp

__all__ = ["PositionModel", "fit_position_model", "save_model", "load_model"]

FORMAT_TAG = "vlp-model/1"
AXES = ("x", "y", "z")
N_FEATURES = 8  # (u, v) pixel coordinates of the four panel corners

_FITTERS = {
    "tree": fit_tree,
    "forest": fit_forest,
    "gbt": fit_gbt,
    "mlp": fit_mlp,
}
_SEEDED = ("forest", "mlp")  # the fitters that draw random numbers


class PositionModel:
    """Three scalar submodels, one per LCS axis, queried together."""

    __slots__ = ("kind", "submodels", "seed", "hyperparameters")

    def __init__(self, kind: str, submodels, seed, hyperparameters: dict):
        if kind not in _FITTERS:
            raise ValueError(f"unknown model kind {kind!r}")
        if len(submodels) != 3:
            raise ValueError("need exactly 3 submodels (x, y, z)")
        self.kind = kind
        self.submodels = list(submodels)
        self.seed = seed
        self.hyperparameters = dict(hyperparameters)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """(N, 3) predictions for an (N, 8) feature matrix or one 8-vector.
        Raises BadFeatures on any other shape or a non-finite entry."""
        x = np.asarray(features, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        _check_features(x)
        return np.stack([m.predict(x) for m in self.submodels], axis=1)


def _check_features(x: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[1] != N_FEATURES:
        raise BadFeatures(f"features must be (N, {N_FEATURES}), got shape {x.shape}")
    if not np.isfinite(x).all():
        raise BadFeatures("features contain a non-finite value")


def fit_position_model(features, targets, kind: str = "gbt", *, seed=None,
                       **params) -> PositionModel:
    """Train one submodel per target column with seeds derived per axis.

    features: a finite (N, 8) matrix, else BadFeatures; targets: (N, 3).
    Extra keyword params pass through to the underlying fitter. seed=None
    draws a fresh root seed, which is recorded on the model so the fit
    stays reproducible after the fact.
    """
    fitter = _FITTERS.get(kind)
    if fitter is None:
        raise ValueError(f"unknown model kind {kind!r}")
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    _check_features(x)
    if y.shape != (x.shape[0], 3):
        raise ValueError("targets must be (N, 3)")
    if seed is None:
        seed = int(np.random.SeedSequence().entropy % (2**63))
    axis_seeds = np.random.SeedSequence(seed).generate_state(3, np.uint64)
    submodels = []
    for axis in range(3):
        seeded = {"seed": int(axis_seeds[axis])} if kind in _SEEDED else {}
        submodels.append(fitter(x, y[:, axis], **seeded, **params))
    return PositionModel(kind, submodels, seed, params)


def _tree_doc(tree: Tree) -> dict:
    return {
        "feature": tree.feature.tolist(),
        "threshold": tree.threshold.tolist(),
        "left": tree.left.tolist(),
        "right": tree.right.tolist(),
        "value": tree.value.tolist(),
    }


def _tree_from_doc(doc: dict) -> Tree:
    return Tree(doc["feature"], doc["threshold"], doc["left"], doc["right"],
                doc["value"])


def _axis_doc(kind: str, sub) -> dict:
    if kind == "tree":
        return _tree_doc(sub)
    if kind == "forest":
        return {"trees": [_tree_doc(t) for t in sub.trees]}
    if kind == "gbt":
        return {
            "base_score": sub.base_score,
            "learning_rate": sub.learning_rate,
            "trees": [_tree_doc(t) for t in sub.trees],
        }
    return {
        "weights": [w.tolist() for w in sub.weights],
        "biases": [b.tolist() for b in sub.biases],
        "x_mean": sub.x_mean.tolist(),
        "x_std": sub.x_std.tolist(),
        "y_mean": sub.y_mean,
        "y_std": sub.y_std,
    }


def _axis_from_doc(kind: str, doc: dict):
    if kind == "tree":
        return _tree_from_doc(doc)
    if kind == "forest":
        return Forest([_tree_from_doc(t) for t in doc["trees"]])
    if kind == "gbt":
        return GbtModel(doc["base_score"], doc["learning_rate"],
                        [_tree_from_doc(t) for t in doc["trees"]])
    return Mlp(doc["weights"], doc["biases"], doc["x_mean"], doc["x_std"],
               doc["y_mean"], doc["y_std"])


def save_model(model: PositionModel, path) -> None:
    doc = {
        "format": FORMAT_TAG,
        "kind": model.kind,
        "seed": model.seed,
        "hyperparameters": model.hyperparameters,
        "axes": {AXES[i]: _axis_doc(model.kind, model.submodels[i])
                 for i in range(3)},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_model(path) -> PositionModel:
    """Read a model written by save_model. Raises MalformedModel on invalid
    JSON, a wrong format tag, an unknown kind or a missing field."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise MalformedModel(f"{path}: not JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_TAG:
        raise MalformedModel(f"{path}: not a {FORMAT_TAG} document")
    kind = doc.get("kind")
    if kind not in _FITTERS:
        raise MalformedModel(f"{path}: unknown model kind {kind!r}")
    try:
        subs = [_axis_from_doc(kind, doc["axes"][a]) for a in AXES]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedModel(f"{path}: bad {kind} model: {exc!r}") from exc
    return PositionModel(kind, subs, doc.get("seed"), doc.get("hyperparameters", {}))
