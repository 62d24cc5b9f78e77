"""The experiment scripts run end to end at tiny sizes."""

from __future__ import annotations

import importlib.util
import pathlib
import warnings

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(out: str) -> list[list[str]]:
    """Table rows: the lines whose first field is a number."""
    rows = []
    for line in out.splitlines():
        fields = line.split()
        try:
            float(fields[0])
        except (IndexError, ValueError):
            continue
        rows.append(fields)
    return rows


def test_arl_calibration(capsys):
    # the calibration verdict (the exit code) is not meaningful at this size
    code = _load("arl_calibration").main(["--gammas", "20", "50", "--replications", "100"])
    assert code in (0, 1)
    rows = _rows(capsys.readouterr().out)
    assert [row[0] for row in rows] == ["20", "50"]
    assert all(float(row[1]) > 0.0 for row in rows)


def test_delay_vs_bounds(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a high standard error at 100 replications
        code = _load("delay_vs_bounds").main(
            ["--gammas", "1e2", "--replications", "100", "--stats-reps", "10000"]
        )
    assert code == 0
    rows = _rows(capsys.readouterr().out)
    assert [row[0] for row in rows] == ["100"]
    lower, delay = float(rows[0][1]), float(rows[0][2])
    assert delay == pytest.approx(lower, rel=0.5)


def test_delay_vs_bounds_prints_inf_for_a_degenerate_bound(capsys):
    # at m = 3, s = 4 some affected unit has a negative post-change drift
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = _load("delay_vs_bounds").main(
            ["--m", "3", "--s", "4", "--gammas", "1e2", "--replications", "100", "--stats-reps", "10000"]
        )
    assert code == 0
    rows = _rows(capsys.readouterr().out)
    assert [row[0] for row in rows] == ["100"]
    assert rows[0][4] == "inf"
