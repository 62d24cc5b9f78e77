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
import contextlib
import csv
import dataclasses
import math
import os
import sys

from . import scenarios
from .bounds import bounds_report, validate_model
from .montecarlo import RunSpec, estimate_arl, estimate_delay
from .studies import STUDIES, run_study

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


@contextlib.contextmanager
def _output(out: str | None):
    """The file ``out`` opened for writing, or stdout when it is None."""
    if out is None:
        yield sys.stdout
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _write_rows(header: list[str], rows: list[list], out: str | None) -> None:
    with _output(out) as stream:
        w = csv.writer(stream, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


# ---------------------------------------------------------------------------
# Options: each is declared once, here, and read by the subcommands that list it.
# Configuration files are INI with [scenario] and [run] sections, flat key = value.

#: key -> (section, type, default, help). A default of None leaves the key
#: unset: each subcommand picks its own replication budget.
_OPTIONS: dict[str, tuple[str, type, object, str]] = {
    "preset": ("scenario", str, None, "scenario preset"),
    "K": ("scenario", int, 10, "number of sources"),
    "m": ("scenario", int, 2, "units sampled per step"),
    "rho": ("scenario", float, 0.7, "post-change correlation"),
    "s": ("scenario", int, 2, "size of the affected block"),
    "mu": ("scenario", float, 1.0, "mean shift for the mean-change preset"),
    "gamma": ("run", float, 100.0, "false alarm budget"),
    "reps": ("run", int, None, "Monte Carlo replications"),
    "seed": ("run", int, 0, "root seed"),
    "nu": ("run", int, 0, "change time"),
}

_SCENARIO = ("preset", "K", "m", "rho", "s", "mu")

#: The options each subcommand reads, besides --config, --dump-config and --out.
_COMMAND_KEYS: dict[str, tuple[str, ...]] = {
    "bounds": (*_SCENARIO, "gamma", "reps", "seed"),
    "simulate": (*_SCENARIO, "gamma", "reps", "seed", "nu"),
    "study": ("reps", "seed", "nu"),
    "validate": (*_SCENARIO, "reps", "seed"),
}


def _load_config(path: str) -> dict[str, str]:
    """The file's keys, flat. A key is valid when some subcommand reads it."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys like K are case sensitive
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    flat: dict[str, str] = {}
    for section in ("scenario", "run"):
        if parser.has_section(section):
            for key, value in parser.items(section):
                if key not in _OPTIONS or _OPTIONS[key][0] != section:
                    raise ValueError(f"unknown key {key!r} in [{section}] of {path}")
                flat[key] = value
    return flat


def _dump_config(args: argparse.Namespace) -> int:
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser["scenario"] = {}
    parser["run"] = {}
    for key in _COMMAND_KEYS[args.command]:
        value = getattr(args, key)
        if value is not None:
            parser[_OPTIONS[key][0]][key] = _fmt(value)
    with _output(args.out) as stream:
        parser.write(stream)
    return 0


def _resolve(args: argparse.Namespace) -> set[str]:
    """Fill the subcommand's unset options from the config file, then from the defaults.

    Returns the options that were set: by a flag, or by the file to a value
    other than the default. A dumped configuration lists every scenario key,
    so a default read from a file sets nothing.
    """
    fromfile = _load_config(args.config) if args.config else {}
    given = set()
    for key in _COMMAND_KEYS[args.command]:
        _, caster, default, _ = _OPTIONS[key]
        if getattr(args, key) is not None:
            given.add(key)
            continue
        if key in fromfile:
            try:
                value = caster(fromfile[key])
            except ValueError:
                raise ValueError(f"config key {key} = {fromfile[key]!r} is not a valid {caster.__name__}")
            setattr(args, key, value)
            if value != default:
                given.add(key)
        else:
            setattr(args, key, default)
    return given


def _add_command(sub, name: str, run, summary: str) -> argparse.ArgumentParser:
    """A subcommand with its options, then the configuration and output flags every subcommand has."""
    p = sub.add_parser(name, help=summary)
    p.set_defaults(run=run, parser=p)
    for key in _COMMAND_KEYS[name]:
        _, caster, default, text = _OPTIONS[key]
        if default is not None:
            text = f"{text} (default {_fmt(default)})"
        if key == "preset":
            p.add_argument(key, nargs="?", choices=scenarios.PRESETS, help=text)
        else:
            p.add_argument(f"--{key}", type=caster, default=None, help=text)
    p.add_argument("--config", default=None, help="INI file with [scenario] and [run] sections")
    p.add_argument("--dump-config", action="store_true", help="write the effective configuration and exit")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    return p


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="rrcusum", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)
    _add_command(sub, "bounds", cmd_bounds, "delay bounds and optimality classification")
    s = _add_command(sub, "simulate", cmd_simulate, "delay or run length estimate")
    s.add_argument("--arl", action="store_true", help="estimate the pre-change average run length")
    st = _add_command(sub, "study", cmd_study, "standard delay study as CSV")
    st.add_argument("study", type=int, choices=sorted(STUDIES))
    _add_command(sub, "validate", cmd_validate, "Monte Carlo checks of the drift assumptions")
    return top


def _check_run(args: argparse.Namespace, given: set[str]) -> None:
    """Reject a run that has a negative seed, lacks its preset or would ignore
    a setting. --nu applies only to delay runs; a preset parameter applies
    only to the presets that read it, and s never to --arl, which builds no
    hypothesis."""
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    if args.command == "simulate" and args.arl and args.nu != 0:
        raise ValueError(f"--nu {args.nu} has no meaning with --arl, which runs before any change")
    if "preset" not in _COMMAND_KEYS[args.command]:
        return
    if args.preset is None:
        raise ValueError(f"a scenario preset is required: one of {', '.join(scenarios.PRESETS)}")
    run = args.preset
    reads = scenarios.PRESET_PARAMETERS[run]
    if args.command == "simulate" and args.arl:
        run, reads = f"{run} --arl", tuple(k for k in reads if k != "s")
    ignored = [key for key in _SCENARIO if key in given and key != "preset" and key not in reads]
    if ignored:
        flags = ", ".join(f"--{key} {_fmt(getattr(args, key))}" for key in ignored)
        verb = "is" if len(ignored) == 1 else "are"
        raise ValueError(f"{flags} {verb} not read by {run}, which reads only {' '.join('--' + k for k in reads)}")


def _build_scenario(args: argparse.Namespace):
    return scenarios.build_preset(args.preset, K=args.K, m=args.m, rho=args.rho, s=args.s, mu=args.mu)


def _emit_text(lines: list[str], out: str | None) -> None:
    with _output(out) as stream:
        stream.write("\n".join(lines) + "\n")


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
    )
    lines = [f"{key} = {_fmt(value)}" for key, value in report.to_flat_dict().items()]
    _emit_text(lines, args.out)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.arl:
        model = scenarios.preset_model(args.preset, K=args.K, m=args.m, rho=args.rho, mu=args.mu)
        spec = RunSpec(gamma=args.gamma, replications=_reps(args, 2000, 2), seed=args.seed)
        cap = int(100 * args.gamma)
        est = estimate_arl(model, spec, cap=cap)
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
    spec = RunSpec(
        gamma=args.gamma,
        replications=_reps(args, 4000, 2),
        seed=args.seed,
        nu=args.nu,
    )
    est = estimate_delay(model, hypothesis, spec)
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
    rows = run_study(args.study, replications=_reps(args, 4000, 2), seed=args.seed, nu=args.nu)
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
    args, extra = parser.parse_known_args(argv)
    if extra:
        # the subcommand's usage shows the options it takes
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        given = _resolve(args)
        if args.dump_config:
            code = _dump_config(args)
        else:
            _check_run(args, given)
            code = args.run(args)
        sys.stdout.flush()  # a reader that closed stdout is met here, not at exit
        return code
    except BrokenPipeError:
        # Python flushes stdout again at exit; devnull takes what is left
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
