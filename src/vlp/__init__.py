"""Single-luminaire visible-light positioning toolkit.

Simulates rolling-shutter captures of a modulated square LED panel,
extracts the panel's corner features, trains tree-based regressors to
recover 3D camera position, and decodes the panel's blinking ID against a
luminaire database to anchor positions in world coordinates.
"""

__version__ = "0.1.0"

from . import codec, errors, geometry, harness, learn, photometry, render, vision

__all__ = ["codec", "errors", "geometry", "harness", "learn", "photometry",
           "render", "vision", "__version__"]
