"""The suite's own warning filters."""

import subprocess
import sys

import pytest


def test_failure_report_imports_under_the_suite_filters(request):
    """A failing hypothesis test is reported through
    hypothesis.extra._patching, which imports libcst; libcst's import
    warns through mypy_extensions. Under the suite's filters that import
    must not raise, or the run ends in INTERNALERROR instead of printing
    the falsifying example. A fresh interpreter imports it, so no earlier
    import in this process hides the warning."""
    pytest.importorskip("libcst")
    flags = [f"-W{f}" for f in request.config.getini("filterwarnings")]
    done = subprocess.run([sys.executable, *flags, "-c", "import hypothesis.extra._patching"],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
