"""Experiment harness: pose sweeps, synthetic capture sets, dataset
splits, error evaluation, deterministic reports, and the canned studies
with their config files."""

from . import sweep, report, studies
from .sweep import *
from .report import *
from .studies import *

__all__ = [*sweep.__all__, *report.__all__, *studies.__all__]
