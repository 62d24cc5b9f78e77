"""The package and its command line load with numpy alone: scipy is a test
dependency, not a runtime one."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("module", ["rrcusum", "rrcusum.cli"])
def test_import_loads_no_scipy(module):
    code = (
        f"import sys, {module}\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "print(sys.modules['rrcusum'].__file__)\n"
    )
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    loaded, origin = done.stdout.splitlines()
    assert pathlib.Path(origin).is_relative_to(SRC)
    assert loaded == "[]"
