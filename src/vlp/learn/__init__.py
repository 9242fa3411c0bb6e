"""From-scratch regression learners: CART trees, bagged forests,
second-order gradient-boosted trees, and a small MLP baseline, wrapped
per axis into a 3D position model."""

from .tree import Forest, GbtModel, Tree, fit_forest, fit_gbt, fit_tree
from .mlp import Mlp, fit_mlp, loss_and_grads
from .model import (
    MODEL_KINDS,
    PositionModel,
    fit_position_model,
    save_model,
    load_model,
)

__all__ = [
    "Tree",
    "fit_tree",
    "Forest",
    "fit_forest",
    "GbtModel",
    "fit_gbt",
    "Mlp",
    "fit_mlp",
    "loss_and_grads",
    "MODEL_KINDS",
    "PositionModel",
    "fit_position_model",
    "save_model",
    "load_model",
]
