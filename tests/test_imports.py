"""The package and its command line load with numpy alone: scipy is a test
dependency, not a runtime one. Running an estimator loads nothing more than
``import rrcusum`` did."""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _run(code: str) -> list[str]:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return done.stdout.splitlines()


@pytest.mark.parametrize("module", ["rrcusum", "rrcusum.cli"])
def test_import_loads_no_scipy(module):
    code = (
        f"import sys, {module}\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "print(sys.modules['rrcusum'].__file__)\n"
    )
    loaded, origin = _run(code)
    assert pathlib.Path(origin).is_relative_to(SRC)
    assert loaded == "[]"


_ESTIMATORS = """
import sys
import rrcusum
from rrcusum import RunSpec, bounds_report, estimate_arl, estimate_delay, validate_model
from rrcusum.scenarios import build_preset

before = set(sys.modules)
for name, params, nu in (
    ("corr-pairs", {"m": 2, "s": 4}, 0),
    ("corr-pairs", {"m": 3, "s": 4}, 0),
    ("mean-change", {"K": 4, "s": 2}, 3),
    ("signed-pairs", {}, 0),
):
    model, hyp = build_preset(name, **params)
    estimate_delay(model, hyp, RunSpec(gamma=20.0, replications=200, nu=nu))
    estimate_arl(model, RunSpec(gamma=20.0, replications=200), cap=2000)
    bounds_report(model, hyp, 20.0, reps=10_000, ladder_reps=10_000)
    validate_model(model, hyp, mc_budget=10_000)
print(sys.modules["rrcusum"].__file__)
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_estimators_load_no_module_beyond_the_import():
    # np.unique, for one, imports numpy.ma on its first call
    origin, *loaded = _run(_ESTIMATORS)
    assert pathlib.Path(origin).is_relative_to(SRC)
    assert loaded == [""], f"modules loaded by the estimators: {loaded[0]}"


def test_engine_imports_no_preset_or_study():
    # the presets and the studies import the engine, not the other way round
    tree = ast.parse((SRC / "rrcusum" / "montecarlo.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)  # from . import scenarios
    assert not {name.rsplit(".", 1)[-1] for name in names} & {"scenarios", "studies"}, sorted(names)
