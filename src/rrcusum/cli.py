"""Command line interface.

Subcommands:

  bounds    detection delay bounds and optimality classification for a preset
  simulate  delay or average run length estimates for a preset
  study     one of the three standard delay studies, written as CSV
  validate  Monte Carlo checks of the drift assumptions for a preset

Numeric output uses 6 significant digits. CSV is UTF-8 with a header row.
Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import io
import math
import sys

from . import montecarlo, scenarios
from .bounds import bounds_report, validate_model
from .montecarlo import RunSpec, estimate_arl, estimate_delay, run_study

#: Fixed schema (version 1) of the study CSV; consumers rely on these names.
#: They name the fields of ``StudyRow`` in order.
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

CSV_SCHEMA_VERSION = 2


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


# ---------------------------------------------------------------------------
# Configuration files: INI with [scenario] and [run] sections, flat key = value.

#: key -> (section, type, default). A default of None leaves the key unset:
#: each subcommand picks its own replication budget and cap.
_KEYS: dict[str, tuple[str, type, object]] = {
    "preset": ("scenario", str, None),
    "K": ("scenario", int, 10),
    "m": ("scenario", int, 2),
    "rho": ("scenario", float, 0.7),
    "s": ("scenario", int, 2),
    "mu": ("scenario", float, 1.0),
    "gamma": ("run", float, 100.0),
    "reps": ("run", int, None),
    "seed": ("run", int, 0),
    "nu": ("run", int, 0),
    "threads": ("run", int, 1),
    "cap": ("run", int, None),
    "constant": ("run", float, 0.0),
}


def _load_config(path: str) -> dict[str, str]:
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys like K are case sensitive
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    flat: dict[str, str] = {}
    for section in ("scenario", "run"):
        if parser.has_section(section):
            for key, value in parser.items(section):
                if key not in _KEYS or _KEYS[key][0] != section:
                    raise ValueError(f"unknown key {key!r} in [{section}] of {path}")
                flat[key] = value
    return flat


def _dump_config(args: argparse.Namespace) -> str:
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser["scenario"] = {}
    parser["run"] = {}
    for key, (section, _, _) in _KEYS.items():
        value = getattr(args, key, None)
        if value is not None:
            parser[section][key] = _fmt(value)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset options from the config file, then from built-in defaults."""
    fromfile = _load_config(args.config) if args.config else {}
    for key, (_, caster, default) in _KEYS.items():
        if not hasattr(args, key) or getattr(args, key) is not None:
            continue
        if key in fromfile:
            try:
                setattr(args, key, caster(fromfile[key]))
            except ValueError:
                raise ValueError(f"config key {key} = {fromfile[key]!r} is not a valid {caster.__name__}")
        else:
            setattr(args, key, default)
    return args


def _add_scenario(p: argparse.ArgumentParser) -> None:
    """The preset, its parameters and the false alarm budget; a study fixes all three."""
    p.add_argument("preset", nargs="?", choices=scenarios.PRESETS, help="scenario preset")
    p.add_argument("--K", type=int, default=None, help="number of sources")
    p.add_argument("--m", type=int, default=None, help="units sampled per step")
    p.add_argument("--rho", type=float, default=None, help="post-change correlation")
    p.add_argument("--s", type=int, default=None, help="size of the affected block")
    p.add_argument("--mu", type=float, default=None, help="mean shift for the mean-change preset")
    p.add_argument("--gamma", type=float, default=None, help="false alarm budget")


def _add_run_options(p: argparse.ArgumentParser) -> None:
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
    _add_scenario(b)
    _add_run_options(b)
    b.add_argument("--constant", type=float, default=None, help="additive constant of the explicit bound")

    s = sub.add_parser("simulate", help="delay or run length estimate")
    _add_scenario(s)
    _add_run_options(s)
    s.add_argument("--arl", action="store_true", help="estimate the pre-change average run length")
    s.add_argument("--cap", type=int, default=None, help="step budget of every --arl excursion (default 100 * gamma)")

    st = sub.add_parser("study", help="standard delay study as CSV")
    st.add_argument("study", type=int, choices=sorted(montecarlo.STUDIES))
    _add_run_options(st)

    v = sub.add_parser("validate", help="Monte Carlo checks of the drift assumptions")
    _add_scenario(v)
    _add_run_options(v)
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


def _reps(args: argparse.Namespace, default: int, minimum: int) -> int:
    """--reps, or the command's default when it is unset."""
    if args.reps is None:
        return default
    if args.reps < minimum:
        raise ValueError(f"{args.command} needs --reps of at least {minimum}, got {args.reps}")
    return args.reps


def cmd_bounds(args: argparse.Namespace) -> int:
    reps = _reps(args, 100_000, 10_000)
    model, hypothesis = _build_scenario(args)
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
    model, hypothesis = _build_scenario(args)
    if args.arl:
        spec = RunSpec(gamma=args.gamma, replications=2000 if args.reps is None else args.reps, seed=args.seed)
        cap = int(100 * args.gamma) if args.cap is None else args.cap
        est = estimate_arl(model, spec, cap=cap, threads=args.threads)
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
    spec = RunSpec(
        gamma=args.gamma,
        replications=4000 if args.reps is None else args.reps,
        seed=args.seed,
        nu=args.nu,
    )
    est = estimate_delay(model, hypothesis, spec, threads=args.threads)
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
    _write_rows(STUDY_CSV_HEADER, [dataclasses.astuple(r) for r in rows], args.out)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    budget = _reps(args, 10_000, 10_000)
    model, hypothesis = _build_scenario(args)
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
