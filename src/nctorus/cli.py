"""Command-line entry point.

Subcommands: suite (property checks), scan (Schatten-norm grid), decay
(potential spectra), factor (factorization identity), schwartz
(coefficient bound).  Each takes --config, --out, --format and a flag per
config field it reads (_SUBCOMMANDS): --seed for all but decay, --alpha for
decay alone.  The JSON config file, the one input file, sets any field,
theta included; flags override it, and every command validates all of it,
decay's alpha too.  --out and --format say only where and how the output
goes.  A JSON document opens with its command and resolved config, which
reruns it as --config.  This module alone reads and writes files.  Exit
status is 0 exactly when every assertion passed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields

from .experiments import (
    FACTOR_TOLERANCE,
    DecayRecord,
    ExperimentConfig,
    FactorizationRecord,
    ScanRecord,
    max_factor_error,
    run_factorization_check,
    run_potential_decay,
    run_property_suite,
    run_schwartz_bound,
    run_theorem_scan,
)
from .kernels import SchwartzReport
from .records import json_fields, to_csv, to_json

__all__ = ["main"]


def _number(text: str) -> int | float:
    """One numeral: an integer literal as an exact int, any other as a float.

    The flag's value then meets the rules its field meets in a config file.
    """
    try:
        return int(text) if text.strip().lstrip("+-").isdigit() else float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")


def _numbers(text: str) -> tuple:
    """Comma-separated numerals, each read by _number."""
    return tuple(_number(part) for part in text.split(","))


# Each numeric flag once: its type and help.  A flag's destination is the lower-case
# name of the config field it sets; --n is schwartz's one-entry grid.
_NUMERIC_FLAGS = {
    "--d": (_number, "lattice dimension (default 2)"),
    "--alpha": (_number, "decay's potential order (default 2)"),
    "--alpha1": (_number, "first smoothness order"),
    "--alpha2": (_number, "second smoothness order"),
    "--n": (_number, "box radius (default: largest grid entry)"),
    "--n-grid": (_numbers, "comma-separated box radii"),
    "--r-grid": (_numbers, "comma-separated Schatten exponents"),
    "--s0": (_number, "decay margin, must exceed d (default d+1)"),
    "--s-margin": (_number, "envelope margin above alpha_i + d/2"),
    "--seed": (_number, "PRNG seed (default 42)"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process.

    Parsing leaves it as it was, so every main call shares it.
    """
    parser = argparse.ArgumentParser(
        prog="nctorus",
        description="Twisted-torus kernel experiments: property suite, "
        "Schatten scans, decay fits, factorization and coefficient bounds.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (summary, flags, _) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=summary)
        sub.add_argument("--config", help="JSON config file, theta included; flags override it")
        sub.add_argument("--out", help="output path (default stdout)")
        sub.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="output format (default csv)")
        for flag in flags:
            kind, text = _NUMERIC_FLAGS[flag]
            sub.add_argument(flag, type=kind, help=text)
    return parser


# decay's own grid, laid under the config file and the flags
_DECAY_GRID = (10, 20)


def _read_json(path: str):
    """The JSON document in a file; every error json.load raises names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # bad syntax, bytes not UTF-8, an int too long to read
            raise ValueError(f"{path}: {exc}") from None


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's object with the flags laid over it, built once."""
    doc = _read_json(args.config) if args.config else {}
    if args.command == "decay" and isinstance(doc, dict):
        doc = {"N_grid": _DECAY_GRID, **doc}
    flags = {f.name: getattr(args, f.name.lower(), None) for f in fields(ExperimentConfig)}
    if getattr(args, "n", None) is not None:
        flags["N_grid"] = (args.n,)
    return ExperimentConfig.from_json(doc, **{k: v for k, v in flags.items() if v is not None})


# Each command takes the config alone: (CSV or text table, JSON body under the header, failure).


def _cmd_suite(config: ExperimentConfig) -> tuple:
    report = run_property_suite(config.seed, config.theta)
    failed = ", ".join(report.failures)
    lines = [check.line() for check in report.checks]
    lines.append("all checks passed" if report.passed else "FAILED checks: " + failed)
    failure = None if report.passed else "failing checks: " + failed
    return "\n".join(lines) + "\n", json_fields(report), failure


def _cmd_scan(config: ExperimentConfig) -> tuple:
    records = run_theorem_scan(config)
    for rec in records:
        if rec.r == rec.r_star:
            note = f"note: N={rec.N} r={rec.r:.17g} sits at the critical exponent"
            print(note + "; recorded, not asserted", file=sys.stderr)
    return to_csv(ScanRecord, records), {"records": records}, None


def _cmd_decay(config: ExperimentConfig) -> tuple:
    records = run_potential_decay(config.d, config.alpha, config.N_grid)
    return to_csv(DecayRecord, records), {"records": records}, None


def _cmd_factor(config: ExperimentConfig) -> tuple:
    records = run_factorization_check(config)
    worst = max_factor_error(records)
    passed = worst <= FACTOR_TOLERANCE
    body = {"records": records, "max_error": worst, "tolerance": FACTOR_TOLERANCE, "passed": passed}
    failure = None if passed else (
        f"factorization gap {worst:.3e} exceeds tolerance {FACTOR_TOLERANCE:.1e}"
    )
    return to_csv(FactorizationRecord, records), body, failure


def _cmd_schwartz(config: ExperimentConfig) -> tuple:
    report = run_schwartz_bound(config)
    failure = None if report.passed else (
        f"worst ratio {report.worst_ratio:.12f} exceeds 1 + {report.tolerance:.1e} "
        f"at index {report.worst_index}"
    )
    return to_csv(SchwartzReport, [report]), json_fields(report), failure


_DENSE = ("--d", "--alpha1", "--alpha2")  # the kernel's dimension and smoothness orders
_SUBCOMMANDS = {  # name: (help, the flags of the fields it reads, in help order, command)
    "suite": ("run every module invariant on seeded data", ("--seed",), _cmd_suite),
    "scan": ("Schatten norms of random smooth kernels over an N grid",
             (*_DENSE, "--n-grid", "--r-grid", "--s-margin", "--seed"), _cmd_scan),
    "decay": ("weak norms and decay slopes of potential spectra",
              ("--d", "--alpha", "--n-grid"), _cmd_decay),
    "factor": ("factorization and adjoint identity gaps",
               (*_DENSE, "--n-grid", "--s-margin", "--seed"), _cmd_factor),
    "schwartz": ("coefficient bound against the decay envelope",
                 (*_DENSE, "--n", "--s0", "--s-margin", "--seed"), _cmd_schwartz),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        table, body, failure = _SUBCOMMANDS[args.command][2](config)
        header = {"command": args.command, "config": config.to_json()}
        text = to_json({**header, **body}) if args.format == "json" else table
        if args.out in (None, "-"):
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if failure is not None:
        print(failure, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
