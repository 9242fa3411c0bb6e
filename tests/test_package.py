"""Package metadata agrees with the installed-project description, and
each subpackage exports its modules' public names."""

import importlib
import pathlib

import pytest

import vlp

# every name the two subpackages exported while each kept its own copy of
# its modules' name lists
_EXPORTED = {
    "vlp.learn": ("Tree", "fit_tree", "Forest", "fit_forest", "GbtModel", "fit_gbt",
                  "Mlp", "fit_mlp", "loss_and_grads", "MODEL_KINDS", "PositionModel",
                  "fit_position_model", "save_model", "load_model"),
    "vlp.harness": ("GridSpec", "SweepSpec", "CaptureSpec", "Dataset", "generate_sweep",
                    "generate_capture_set", "split", "EvalReport", "evaluate",
                    "render_report_json", "write_report", "write_cdf_csv",
                    "write_grid_csv", "write_grid_svg", "STUDIES", "StudyConfig",
                    "run_experiment", "parse_config_file", "build_study_config"),
}


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    path = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with path.open("rb") as fh:
        project = tomllib.load(fh)["project"]
    assert vlp.__version__ == project["version"]


@pytest.mark.parametrize("package, modules", [
    ("vlp.learn", ("tree", "mlp", "model")),
    ("vlp.harness", ("sweep", "report", "studies")),
])
def test_package_exports_its_modules_all(package, modules):
    """A package's __all__ is its modules' __all__ laid end to end, each
    name declared once, and each name is the defining module's object."""
    pkg = importlib.import_module(package)
    mods = [importlib.import_module(f"{package}.{m}") for m in modules]
    assert pkg.__all__ == [name for mod in mods for name in mod.__all__]
    assert len(set(pkg.__all__)) == len(pkg.__all__)
    assert set(_EXPORTED[package]) <= set(pkg.__all__)
    for mod in mods:
        for name in mod.__all__:
            obj = getattr(mod, name)
            assert getattr(pkg, name) is obj, (package, name)
            assert getattr(obj, "__module__", mod.__name__) == mod.__name__, name
