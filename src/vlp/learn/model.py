"""Per-axis model bundle: one scalar regressor per target axis, assembled
into a 3D position predictor, with versioned JSON persistence.

In the JSON layout ("vlp-model/1") each submodel is its class's fields
by __slots__ name: trees as flat node arrays, MLP layers as nested lists.
Floats serialize through repr, so a save/load round trip reproduces
predictions bit-exactly. No whole-document tree of Python floats is built:
save_model encodes one axis at a time through json's C encoder, making an
array's lists only while it writes them, and load_model builds each
learner as the decoder closes its object.
"""

from __future__ import annotations

import json
from inspect import signature

import numpy as np

from ..errors import BadFeatures, MalformedModel
from .tree import Forest, GbtModel, Tree, fit_forest, fit_gbt, fit_tree
from .mlp import Mlp, fit_mlp

__all__ = ["MODEL_KINDS", "PositionModel", "fit_position_model", "save_model",
           "load_model"]

FORMAT_TAG = "vlp-model/1"
AXES = ("x", "y", "z")
N_FEATURES = 8  # (u, v) pixel coordinates of the four panel corners

# kind -> (submodel class, fitter)
_KINDS = {
    "tree": (Tree, fit_tree),
    "forest": (Forest, fit_forest),
    "gbt": (GbtModel, fit_gbt),
    "mlp": (Mlp, fit_mlp),
}
MODEL_KINDS = tuple(_KINDS)
_LEARNERS = tuple(cls for cls, _ in _KINDS.values())
# a JSON object with exactly these keys is this learner's document
_BY_FIELDS = {frozenset(cls.__slots__): cls for cls in _LEARNERS}


class PositionModel:
    """Three scalar submodels, one per LCS axis, queried together."""

    __slots__ = ("kind", "submodels", "seed", "hyperparameters")

    def __init__(self, kind: str, submodels, seed, hyperparameters: dict):
        if kind not in _KINDS:
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
    Extra keyword params pass through to the kind's fitter, which must take
    them (else ValueError), and are recorded as the model's hyperparameters.
    seed=None draws a fresh root seed, which is recorded on the model so the
    fit stays reproducible after the fact.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    _, fitter = _KINDS[kind]
    takes = signature(fitter).parameters
    unknown = [name for name in params if name not in takes]
    if unknown:
        raise ValueError(f"model kind {kind!r} takes no {', '.join(unknown)}")
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
        axis_seed = {"seed": int(axis_seeds[axis])} if "seed" in takes else {}
        submodels.append(fitter(x, y[:, axis], **axis_seed, **params))
    return PositionModel(kind, submodels, seed, params)


def _fields(obj):
    """json.dumps default hook: a learner as its fields by __slots__ name,
    an array as nested lists, built only while the encoder writes it."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, _LEARNERS):
        return {name: getattr(obj, name) for name in obj.__slots__}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


class _Unread:
    """A learner-shaped JSON object its class refused, with the refusal."""

    __slots__ = ("doc", "error")

    def __init__(self, doc: dict, error: Exception):
        self.doc = doc
        self.error = error


def _learner(doc: dict):
    """json object_hook: an object whose keys are a learner class's
    __slots__ becomes that learner as soon as the decoder closes it, so no
    more than one learner's lists are alive at once. A trees field must
    hold trees. A refused object becomes _Unread; any other stays a dict."""
    cls = _BY_FIELDS.get(frozenset(doc))
    if cls is None:
        return doc
    try:
        fields = [doc[name] for name in cls.__slots__]
        if "trees" in doc:
            fields[cls.__slots__.index("trees")] = [_tree(t) for t in doc["trees"]]
        sub = cls(*fields)
        if cls is Tree:
            _check_tree(sub)
    except (TypeError, ValueError, OverflowError) as exc:
        return _Unread(doc, exc)
    return sub


def _tree(t) -> Tree:
    if isinstance(t, _Unread):
        raise t.error
    if not isinstance(t, Tree):
        raise TypeError(f"a trees entry is {type(t).__name__}, not a tree document")
    return t


def _plain(value):
    """A decoded value with every learner back as the fields save_model
    writes for it and every _Unread back as its dict."""
    if isinstance(value, _Unread):
        value = value.doc
    elif isinstance(value, (np.ndarray, *_LEARNERS)):
        value = _fields(value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


def _check_tree(tree: Tree) -> None:
    """Raise ValueError unless every node is a leaf (feature -1) or a split
    i on one of the N_FEATURES features whose children lie past it,
    i < left[i], right[i] < n: then predict reads a feature that exists and
    reaches a leaf. grow_tree writes nodes in preorder, so its trees pass."""
    n = tree.n_nodes
    i = np.arange(n)
    f, left, right = tree.feature, tree.left, tree.right
    split_ok = ((f < N_FEATURES) & (i < left) & (left < n)
                & (i < right) & (right < n))
    bad = np.flatnonzero(np.where(f >= 0, ~split_ok, f != -1))
    if bad.size:
        k = int(bad[0])
        raise ValueError(
            f"tree node {k} of {n} has feature {f[k]} and children {left[k]}, "
            f"{right[k]}; a split needs a feature in [0, {N_FEATURES}) and "
            f"children in ({k}, {n}), a leaf feature -1")


def save_model(model: PositionModel, path) -> None:
    """Write a vlp-model/1 document: sorted keys, compact separators, one
    trailing newline. Each axis goes through the C encoder on its own, so
    only one array's lists exist at a time."""
    compact = {"sort_keys": True, "separators": (",", ":")}
    rest = json.dumps({"format": FORMAT_TAG, "kind": model.kind, "seed": model.seed,
                       "hyperparameters": model.hyperparameters}, **compact)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"axes":{')  # "axes" sorts before every key of rest
        for k, (axis, sub) in enumerate(zip(AXES, model.submodels)):
            fh.write(f'{"," if k else ""}"{axis}":')
            fh.write(json.dumps(sub, default=_fields, **compact))
        fh.write("}," + rest[1:] + "\n")


def load_model(path) -> PositionModel:
    """Read a model written by save_model. Raises MalformedModel on invalid
    JSON, a wrong format tag, an unknown kind, a missing field, an axis that
    is not the kind's learner, a tree whose nodes predict cannot walk (see
    _check_tree) or hyperparameters that are not a mapping. Each learner is
    built as the decoder closes it."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_hook=_learner)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise MalformedModel(f"{path}: not JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_TAG:
        raise MalformedModel(f"{path}: not a {FORMAT_TAG} document")
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise MalformedModel(f"{path}: unknown model kind {kind!r}")
    cls = _KINDS[kind][0]
    try:
        subs = [doc["axes"][a] for a in AXES]
    except (KeyError, TypeError) as exc:
        raise MalformedModel(f"{path}: bad {kind} model: {exc!r}") from exc
    for axis, sub in zip(AXES, subs):
        if isinstance(sub, _Unread):
            raise MalformedModel(f"{path}: bad {kind} model: {sub.error!r}") from sub.error
        if not isinstance(sub, cls):
            raise MalformedModel(f"{path}: bad {kind} model: axis {axis} is not a "
                                 f"{cls.__name__} document")
    hyperparameters = _plain(doc.get("hyperparameters", {}))
    if not isinstance(hyperparameters, dict):
        raise MalformedModel(f"{path}: hyperparameters is not a mapping")
    return PositionModel(kind, subs, _plain(doc.get("seed")), hyperparameters)
