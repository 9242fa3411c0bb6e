"""Package metadata agrees with the installed-project description."""

import pathlib

import pytest

import vlp

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11


def test_version_matches_pyproject():
    path = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with path.open("rb") as fh:
        project = tomllib.load(fh)["project"]
    assert vlp.__version__ == project["version"]
