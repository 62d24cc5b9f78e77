"""Command line interface.

Subcommands:

  bounds    detection delay bounds and optimality classification for a preset
  simulate  delay or average run length estimates for a preset or a study
  study     one of the three standard delay studies, written as CSV
  validate  Monte Carlo checks of the drift assumptions for a preset

Numeric output uses 6 significant digits. CSV is UTF-8 with a header row.
Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import math
import sys

from . import montecarlo, scenarios
from .bounds import DegenerateBoundError, bounds_report
from .model import validate_model
from .montecarlo import StudyConfig, StudyRow, estimate_arl, estimate_delay, run_study

#: Fixed schema (version 1) of the study CSV; consumers rely on these names.
STUDY_CSV_HEADER = [
    "study",
    "K",
    "m",
    "rho",
    "gamma",
    "s",
    "num_correlated_pairs",
    "mean_delay",
    "stderr",
    "truncations",
    "lower_bound",
    "upper_bound_prop4",
    "upper_bound_remark2",
]

ARL_CSV_HEADER = [
    "K",
    "m",
    "gamma",
    "threshold",
    "cap",
    "replications",
    "arl",
    "stderr",
    "truncations",
]

CSV_SCHEMA_VERSION = 1


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return format(x, ".6g")
    return str(x)


def _write_rows(header: list[str], rows: list[list], out: str | None) -> None:
    def emit(stream) -> None:
        w = csv.writer(stream, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])

    if out is None:
        emit(sys.stdout)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            emit(fh)


def _study_rows_to_csv(rows: list[StudyRow]) -> list[list]:
    return [
        [
            r.study,
            r.K,
            r.m,
            r.rho,
            r.gamma,
            r.s,
            r.num_correlated_pairs,
            r.mean_delay,
            r.stderr,
            r.truncations,
            r.lower_bound,
            r.upper_bound,
            r.upper_bound_coarse,
        ]
        for r in rows
    ]


# ---------------------------------------------------------------------------
# Configuration files: INI with [scenario] and [run] sections, flat key = value.

_SCENARIO_KEYS = ("preset", "K", "m", "rho", "s", "mu")
_RUN_KEYS = ("gamma", "reps", "seed", "nu", "threads", "cap", "constant")


def _load_config(path: str) -> dict[str, str]:
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys like K are case sensitive
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    flat: dict[str, str] = {}
    for section, keys in (("scenario", _SCENARIO_KEYS), ("run", _RUN_KEYS)):
        if parser.has_section(section):
            for key, value in parser.items(section):
                if key not in keys:
                    raise ValueError(f"unknown key {key!r} in [{section}] of {path}")
                flat[key] = value
    return flat


def _dump_config(args: argparse.Namespace) -> str:
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser["scenario"] = {}
    parser["run"] = {}
    for key in _SCENARIO_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            parser["scenario"][key] = _fmt(value)
    for key in _RUN_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            parser["run"][key] = _fmt(value)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


# reps stays None here: each subcommand picks its own default budget.
_DEFAULTS = {
    "K": 10,
    "m": 2,
    "rho": 0.7,
    "s": 2,
    "mu": 1.0,
    "gamma": 100.0,
    "seed": 0,
    "nu": 0,
    "threads": 1,
    "constant": 0.0,
}

_TYPES = {
    "preset": str,
    "K": int,
    "m": int,
    "rho": float,
    "s": int,
    "mu": float,
    "gamma": float,
    "reps": int,
    "seed": int,
    "nu": int,
    "threads": int,
    "cap": int,
    "constant": float,
}


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset options from the config file, then from built-in defaults."""
    fromfile = _load_config(args.config) if getattr(args, "config", None) else {}
    for key, caster in _TYPES.items():
        if not hasattr(args, key):
            continue
        if getattr(args, key) is None:
            if key in fromfile:
                try:
                    setattr(args, key, caster(fromfile[key]))
                except ValueError:
                    raise ValueError(f"config key {key} = {fromfile[key]!r} is not a valid {caster.__name__}")
            elif key in _DEFAULTS:
                setattr(args, key, _DEFAULTS[key])
    return args


def _add_common(p: argparse.ArgumentParser, preset_positional: bool = True) -> None:
    if preset_positional:
        p.add_argument("preset", nargs="?", choices=scenarios.PRESETS, help="scenario preset")
    p.add_argument("--K", type=int, default=None, help="number of sources")
    p.add_argument("--m", type=int, default=None, help="units sampled per step")
    p.add_argument("--rho", type=float, default=None, help="post-change correlation")
    p.add_argument("--s", type=int, default=None, help="size of the affected block")
    p.add_argument("--mu", type=float, default=None, help="mean shift for the mean-change preset")
    p.add_argument("--gamma", type=float, default=None, help="false alarm budget")
    p.add_argument("--reps", type=int, default=None, help="Monte Carlo replications")
    p.add_argument("--seed", type=int, default=None, help="root seed")
    p.add_argument("--nu", type=int, default=None, help="change time")
    p.add_argument("--threads", type=int, default=None, help="worker processes for replications (default 1)")
    p.add_argument("--config", default=None, help="INI file with [scenario] and [run] sections")
    p.add_argument("--dump-config", action="store_true", help="print the effective configuration and exit")
    p.add_argument("--out", default=None, help="output file (default stdout)")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="rrcusum", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="delay bounds and optimality classification")
    _add_common(b)
    b.add_argument("--constant", type=float, default=None, help="additive constant of the explicit bound")

    s = sub.add_parser("simulate", help="delay or run length estimate")
    _add_common(s)
    s.add_argument("--study", type=int, default=None, help="run a standard study instead of a preset")
    s.add_argument("--arl", action="store_true", help="estimate the pre-change average run length")
    s.add_argument("--cap", type=int, default=None, help="truncation cap for --arl runs")

    st = sub.add_parser("study", help="standard delay study as CSV")
    st.add_argument("study", type=int, choices=sorted(montecarlo.STUDIES))
    st.add_argument("--reps", type=int, default=None, help="replications per point (default 4000)")
    st.add_argument("--seed", type=int, default=None)
    st.add_argument("--nu", type=int, default=None)
    st.add_argument("--threads", type=int, default=None)
    st.add_argument("--config", default=None)
    st.add_argument("--dump-config", action="store_true")
    st.add_argument("--out", default=None)

    v = sub.add_parser("validate", help="Monte Carlo checks of the drift assumptions")
    _add_common(v)
    return top


def _require_preset(args: argparse.Namespace) -> str:
    preset = getattr(args, "preset", None)
    if preset is None:
        raise ValueError(f"a scenario preset is required: one of {', '.join(scenarios.PRESETS)}")
    return preset


def _build_scenario(args: argparse.Namespace):
    return scenarios.build_preset(
        _require_preset(args), K=args.K, m=args.m, rho=args.rho, s=args.s, mu=args.mu
    )


def _emit_text(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_bounds(args: argparse.Namespace) -> int:
    model, hypothesis = _build_scenario(args)
    reps = 100_000 if args.reps is None else max(args.reps, 10_000)
    report = bounds_report(
        model,
        hypothesis,
        gamma=args.gamma,
        reps=reps,
        ladder_reps=max(reps // 5, 10_000),
        seed=args.seed,
        additive_constant=args.constant,
    )
    lines = [f"{key} = {_fmt(value)}" for key, value in report.to_flat_dict().items()]
    _emit_text(lines, args.out)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.study is not None:
        rows = run_study(args.study, replications=args.reps, seed=args.seed, nu=args.nu, threads=args.threads)
        _write_rows(STUDY_CSV_HEADER, _study_rows_to_csv(rows), args.out)
        return 0
    if args.arl:
        model, _ = _build_scenario(args)
        config = StudyConfig(
            K=args.K,
            m=model.m,
            rho=args.rho if args.rho else 0.7,
            gamma=args.gamma,
            s_values=(2,),
            replications=args.reps if args.reps is not None else 2000,
            seed=args.seed,
        )
        cap = args.cap if args.cap is not None else int(100 * args.gamma)
        est = estimate_arl(model, config, cap=cap, threads=args.threads)
        row = [
            args.K,
            model.m,
            args.gamma,
            math.log(args.gamma),
            cap,
            est.replications,
            est.mean,
            est.stderr,
            est.truncations,
        ]
        _write_rows(ARL_CSV_HEADER, [row], args.out)
        return 0
    model, hypothesis = _build_scenario(args)
    config = StudyConfig(
        K=args.K,
        m=model.m,
        rho=args.rho,
        gamma=args.gamma,
        s_values=(min(max(args.s, 2), args.K),),
        replications=args.reps if args.reps is not None else 4000,
        seed=args.seed,
        nu=args.nu,
    )
    est = estimate_delay(model, hypothesis, config, threads=args.threads)
    header = [
        "preset",
        "K",
        "m",
        "gamma",
        "s",
        "nu",
        "replications",
        "mean_delay",
        "stderr",
        "truncations",
        "discarded",
    ]
    row = [
        args.preset,
        args.K,
        model.m,
        args.gamma,
        args.s,
        args.nu,
        est.replications,
        est.mean,
        est.stderr,
        est.truncations,
        est.discarded,
    ]
    _write_rows(header, [row], args.out)
    return 0


def cmd_study(args: argparse.Namespace) -> int:
    rows = run_study(args.study, replications=args.reps, seed=args.seed, nu=args.nu, threads=args.threads)
    _write_rows(STUDY_CSV_HEADER, _study_rows_to_csv(rows), args.out)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    model, hypothesis = _build_scenario(args)
    budget = 10_000 if args.reps is None else max(args.reps, 1000)
    report = validate_model(model, hypothesis, mc_budget=budget, seed=args.seed)
    _emit_text(report.lines(), args.out)
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args = _resolve(args)
        if getattr(args, "dump_config", False):
            sys.stdout.write(_dump_config(args))
            return 0
        if args.command == "bounds":
            return cmd_bounds(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "study":
            return cmd_study(args)
        if args.command == "validate":
            return cmd_validate(args)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
