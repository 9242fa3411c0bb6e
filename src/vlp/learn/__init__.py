"""From-scratch regression learners: CART trees, bagged forests,
second-order gradient-boosted trees, and a small MLP baseline, wrapped
per axis into a 3D position model."""

from . import tree, mlp, model
from .tree import *
from .mlp import *
from .model import *

__all__ = [*tree.__all__, *mlp.__all__, *model.__all__]
