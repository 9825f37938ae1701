"""Command-line front end emitting plot-ready data, no plotting.

Subcommands:

  sweep      sensitivity versus sensing fraction, one row per grid point
  optimize   best sensitivity over the sensing fraction per twist value
  threshold  break-even twist strength against the separable benchmark
  oracle     the analytic infinite-N closed forms, pointwise or optimized
  validate   run the library invariant battery

Curves default to CSV with the fixed header
scheme,n_spins,twist_times_tau,t_over_tau,sensitivity,method,engine;
scalar results are JSON with keys matching the record field names. Every
printed field goes through ``_cell``, so every float of every command, CSV
or JSON, carries 12 significant digits. There is no randomness anywhere,
so identical invocations produce byte-identical output. Exit codes: 0 on
success, 1 on computation errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import fields

from .bosonic_limit import closed_form, closed_form_optimum
from .errors import TwistsenseError
from .protocols import SCHEMES
from .sweep_optimize import (
    ENGINES,
    OptimumResult,
    SweepSpec,
    find_threshold,
    optimize_sweep,
    sweep_curve,
)

CSV_HEADER = "scheme,n_spins,twist_times_tau,t_over_tau,sensitivity,method,engine"


def _spin_count(text: str) -> int | None:
    """Parse the --n flag: a positive integer or 'inf' for the bosonic limit."""
    if text.strip().lower() == "inf":
        return None
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'inf', got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"n must be >= 1 or 'inf', got {value}")
    return value


def _cell(value) -> str:
    """One printed field: a float to 12 significant digits, a missing spin
    count as inf, anything else as str."""
    if isinstance(value, float):
        return format(value, ".12g")
    return "inf" if value is None else str(value)


def _head(args: argparse.Namespace) -> dict:
    """The scheme, spin count and engine a result is for: --engine, else
    spin for a finite --n and closed_form for inf."""
    engine = args.engine or ("spin" if args.n is not None else "closed_form")
    return {"scheme": args.scheme, "n_spins": args.n, "engine": engine}


def _emit(args: argparse.Namespace, payload: dict, header=(), rows=()) -> int:
    """Write a command's result to --out: the (header, rows) table of
    ``_cell`` fields as CSV for --format csv, otherwise the payload as JSON,
    records field by field and each float read back from its ``_cell``."""
    if getattr(args, "format", "json") == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buffer.getvalue()
    else:
        exact = json.dumps(payload, default=vars)
        printed = json.loads(exact, parse_float=lambda s: float(_cell(float(s))))
        text = json.dumps(printed, indent=2) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", newline="") as handle:
            handle.write(text)
    return 0


def _spec(args: argparse.Namespace, engine: str) -> SweepSpec:
    """The twists and grid of a sweep or optimize command."""
    return SweepSpec(
        scheme=args.scheme,
        n_spins=args.n,
        twist_values=tuple(args.twist),
        t_grid=args.t_points,
        engine=engine,
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    head = _head(args)
    records = sweep_curve(_spec(args, head["engine"]))
    # The record's fields in order are the CSV columns but the last.
    rows = ([*map(_cell, vars(rec).values()), head["engine"]] for rec in records)
    return _emit(args, {**head, "records": records}, CSV_HEADER.split(","), rows)


def _cmd_optimize(args: argparse.Namespace) -> int:
    head = _head(args)
    results = optimize_sweep(_spec(args, head["engine"]))
    header = [field.name for field in fields(OptimumResult)]
    rows = (map(_cell, vars(result).values()) for result in results)
    return _emit(args, {**head, "results": results}, header, rows)


def _cmd_threshold(args: argparse.Namespace) -> int:
    head = _head(args)
    value = find_threshold(args.scheme, args.n, head["engine"], args.interval)
    return _emit(args, {**head, "search_interval": args.interval, "threshold": value})


def _cmd_oracle(args: argparse.Namespace) -> int:
    payload = {"scheme": args.scheme, "twist_times_tau": args.twist}
    if args.optimum:
        payload.update(closed_form_optimum(args.scheme, args.twist)._asdict())
    else:
        payload["sensing_fraction"] = args.t
        payload["value"] = closed_form(args.scheme, args.twist, args.t)
    return _emit(args, payload)


def _cmd_validate(args: argparse.Namespace) -> int:
    from .validate import run_validation

    return run_validation(args.only)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistsense",
        description=(
            "Time-budgeted magnetometry with twisted collective spin states: "
            "curves, optima, break-even thresholds, analytic oracles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_n: bool = True) -> None:
        p.add_argument("--scheme", required=True, choices=SCHEMES)
        if with_n:
            p.add_argument(
                "--n",
                type=_spin_count,
                default=None,
                help="spin count, or 'inf' for the bosonic limit (default: inf)",
            )
            p.add_argument(
                "--engine",
                choices=ENGINES,
                default=None,
                help="default: spin for finite --n, closed_form for inf",
            )
        p.add_argument("--out", default="-", help="output path, '-' for stdout")

    p_sweep = sub.add_parser(
        "sweep", help="sensitivity versus sensing fraction for each twist value"
    )
    add_common(p_sweep)
    p_sweep.add_argument("--twist", type=float, nargs="+", required=True)
    p_sweep.add_argument("--t-points", type=int, default=201)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_opt = sub.add_parser(
        "optimize", help="best sensitivity over the sensing fraction"
    )
    add_common(p_opt)
    p_opt.add_argument("--twist", type=float, nargs="+", required=True)
    p_opt.add_argument("--t-points", type=int, default=201)
    p_opt.add_argument("--format", choices=("csv", "json"), default="json")
    p_opt.set_defaults(func=_cmd_optimize)

    p_thr = sub.add_parser(
        "threshold", help="break-even twist strength against the benchmark"
    )
    add_common(p_thr)
    p_thr.add_argument(
        "--interval",
        type=float,
        nargs=2,
        metavar=("LO", "HI"),
        required=True,
        help="twist interval bracketing the break-even point",
    )
    p_thr.set_defaults(func=_cmd_threshold)

    p_oracle = sub.add_parser(
        "oracle", help="analytic infinite-N value at a point or its optimum"
    )
    add_common(p_oracle, with_n=False)
    p_oracle.add_argument("--twist", type=float, required=True)
    which = p_oracle.add_mutually_exclusive_group(required=True)
    which.add_argument("--t", type=float, help="sensing fraction to evaluate at")
    which.add_argument(
        "--optimum",
        action="store_true",
        help="report the optimum over the sensing fraction instead",
    )
    p_oracle.set_defaults(func=_cmd_oracle)

    p_val = sub.add_parser("validate", help="run the library invariant battery")
    p_val.add_argument(
        "--only", default=None, help="run only checks whose name contains this"
    )
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TwistsenseError, OSError, MemoryError) as exc:
        # A refused allocation may carry no message of its own.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
