"""The suite's pytest configuration, run on a test that is meant to fail."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_property_test_reports_its_example(tmp_path):
    # a failing @given test must end in an ordinary failure that prints its
    # example, not in INTERNALERROR; Hypothesis writes the patch that pins
    # the example only where it can import libcst, which `.[test]` lacks
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n")
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("HYPOTHESIS")}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_fails.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    patches = list((tmp_path / ".hypothesis" / "patches").glob("*.patch"))
    assert bool(patches) == (importlib.util.find_spec("libcst") is not None)
