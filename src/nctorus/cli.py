"""Command-line entry point.

Subcommands: suite (property checks), scan (Schatten-norm grid), decay
(potential spectra), factor (factorization identity), schwartz
(coefficient bound).  Every subcommand accepts --theta-file, --seed,
--out and --format; a JSON config file supplies defaults that explicit
flags override.  A JSON document opens with its command and resolved
config, which reruns it as --config.  Exit status is 0 exactly when every
assertion passed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields

from .cocycle import _read_json, load_theta
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


# Each numeric flag once: its type and help.  A flag's destination is the
# lower-case name of the config field it sets; --alpha is decay's own
# order and --n is schwartz's one-entry grid.
_NUMERIC_FLAGS = {
    "--d": (_number, "lattice dimension (default 2)"),
    "--alpha": (_number, "potential order (default 2)"),
    "--alpha1": (_number, "first smoothness order"),
    "--alpha2": (_number, "second smoothness order"),
    "--n": (_number, "box radius (default: largest grid entry)"),
    "--n-grid": (_numbers, "comma-separated box radii"),
    "--r-grid": (_numbers, "comma-separated Schatten exponents"),
    "--s0": (_number, "decay margin, must exceed d (default d+1)"),
    "--s-margin": (_number, "envelope margin above alpha_i + d/2"),
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
        sub.add_argument("--config", help="JSON config file; flags override its values")
        sub.add_argument("--theta-file", help="JSON file with the full skew matrix")
        sub.add_argument("--seed", type=_number, help="PRNG seed (default 42)")
        sub.add_argument("--out", help="output path (default stdout)")
        sub.add_argument("--format", choices=("csv", "json"), help="output format")
        for flag in flags:
            kind, text = _NUMERIC_FLAGS[flag]
            sub.add_argument(flag, type=kind, help=text)
    subs.choices["decay"].set_defaults(alpha=2.0)
    return parser


# decay's own grid, laid under the config file and the flags
_DECAY_GRID = (10, 20)


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's object with the flags laid over it, built once."""
    doc = _read_json(args.config) if args.config else {}
    if args.command == "decay" and isinstance(doc, dict):
        doc = {"N_grid": _DECAY_GRID, **doc}
    flags: dict = {}
    if args.theta_file:
        theta = load_theta(args.theta_file)
        flags.update(theta=theta, d=theta.d)
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name.lower(), None)
        if value is not None:
            flags[f.name] = value
    if getattr(args, "n", None) is not None:
        flags["N_grid"] = (args.n,)
    return ExperimentConfig.from_json(doc, **flags)


# Each command returns (CSV or text table, JSON body under main's header, failure note or None).


def _cmd_suite(args: argparse.Namespace, config: ExperimentConfig) -> tuple:
    report = run_property_suite(config.seed, config.theta)
    failed = ", ".join(report.failures)
    lines = [check.line() for check in report.checks]
    lines.append("all checks passed" if report.passed else "FAILED checks: " + failed)
    failure = None if report.passed else "failing checks: " + failed
    return "\n".join(lines) + "\n", json_fields(report), failure


def _cmd_scan(args: argparse.Namespace, config: ExperimentConfig) -> tuple:
    records = run_theorem_scan(config)
    for rec in records:
        if rec.r == rec.r_star:
            note = f"note: N={rec.N} r={rec.r:.17g} sits at the critical exponent"
            print(note + "; recorded, not asserted", file=sys.stderr)
    return to_csv(ScanRecord, records), {"records": records}, None


def _cmd_decay(args: argparse.Namespace, config: ExperimentConfig) -> tuple:
    records = run_potential_decay(config.d, args.alpha, config.N_grid)
    # run_potential_decay has refused an alpha that is not a finite number
    return to_csv(DecayRecord, records), {"alpha": float(args.alpha), "records": records}, None


def _cmd_factor(args: argparse.Namespace, config: ExperimentConfig) -> tuple:
    records = run_factorization_check(config)
    worst = max_factor_error(records)
    passed = worst <= FACTOR_TOLERANCE
    body = {"records": records, "max_error": worst, "tolerance": FACTOR_TOLERANCE, "passed": passed}
    failure = None if passed else (
        f"factorization gap {worst:.3e} exceeds tolerance {FACTOR_TOLERANCE:.1e}"
    )
    return to_csv(FactorizationRecord, records), body, failure


def _cmd_schwartz(args: argparse.Namespace, config: ExperimentConfig) -> tuple:
    report = run_schwartz_bound(config)
    failure = None if report.passed else (
        f"worst ratio {report.worst_ratio:.12f} exceeds 1 + {report.tolerance:.1e} "
        f"at index {report.worst_index}"
    )
    return to_csv(SchwartzReport, [report]), json_fields(report), failure


_SUBCOMMANDS = {  # name: (help, its numeric flags in help order, command)
    "suite": ("run every module invariant on seeded data", (), _cmd_suite),
    "scan": ("Schatten norms of random smooth kernels over an N grid",
             ("--d", "--alpha1", "--alpha2", "--n-grid", "--r-grid", "--s-margin"), _cmd_scan),
    "decay": ("weak norms and decay slopes of potential spectra",
              ("--d", "--alpha", "--n-grid"), _cmd_decay),
    "factor": ("factorization and adjoint identity gaps",
               ("--d", "--alpha1", "--alpha2", "--n-grid", "--s-margin"), _cmd_factor),
    "schwartz": ("coefficient bound against the decay envelope",
                 ("--d", "--alpha1", "--alpha2", "--n", "--s0", "--s-margin"), _cmd_schwartz),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        table, body, failure = _SUBCOMMANDS[args.command][2](args, config)
        header = {"command": args.command, "config": config.to_json()}
        text = to_json({**header, **body}) if config.format == "json" else table
        if config.out in (None, "-"):
            sys.stdout.write(text)
        else:
            with open(config.out, "w", encoding="utf-8") as fh:
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
