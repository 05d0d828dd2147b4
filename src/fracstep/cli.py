"""Command-line interface.

Subcommands: pade-info, scalar-sweep, table-1d, table-2d, spatial-refine.
``COMMANDS`` lists, per subcommand, every setting it reads; each one is a
flag and can also come from a flat ``key = value`` config file (--config),
and nothing else is accepted.  Explicit flags win over the file.  Only the
settings given reach the one library call behind the command, which holds
every default and every check on the values; ``_spec_from`` only refuses a
given setting that the study would ignore.  CSV goes to --out or stdout.  Exit status
is 0 on success and 2 when a solve or configuration fails.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    SPATIAL_REFINE,
    TABLE_2D,
    ExperimentSpec,
    run_pade_info,
    run_scalar_diagnostics,
    run_spatial_refinement,
    run_table,
    write_csv,
)
from .solvers import SOLVERS, SolveError


def _list_of(kind):
    return lambda text: tuple(kind(v) for v in text.replace(";", ",").split(",") if v)


_CONVERTERS = {
    "cases": lambda s: tuple(t.strip() for t in s.split(",") if t.strip()),
    "alphas": _list_of(float),
    "ms": _list_of(int),
    "Ns": _list_of(int),
    "scheme": str,
    "h": float,
    "n_per_side": int,
    "L_policy": str,
    "L": int,
    "delta": float,
    "delta_fraction": float,
    "solver": str,
    "seed": int,
    "um_steps": int,
    "out": str,
    "lambda_lo": float,
    "lambda_hi": float,
    "points": int,
    "alpha": float,
}


def read_config(path: str) -> dict:
    """Flat key = value lines; '#' starts a comment; keys match flag names."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _CONVERTERS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _CONVERTERS[key](val.strip())
    return values


_CHOICES = {"scheme": ("grm", "um", "both"), "L_policy": ("theorem", "experiment", "fixed"),
            "solver": SOLVERS}

_HELP = {
    "cases": "comma-separated data cases, e.g. a,b,c,d",
    "alphas": "comma-separated exponents in (0,1)",
    "ms": "comma-separated orders, e.g. 1,2",
    "Ns": "per-interval step counts, e.g. 8,16",
    "L": "refinement depth for --L-policy fixed",
    "delta": "explicit shift (stepping studies default to delta-fraction * lambda_min)",
    "h": "uniform mesh size",
    "seed": "recorded in the CSV; no result depends on it",
}

# shift, depth and seed: read by every stepping study; only the 2D table
# offers a solver choice, since 1D solves are always direct
_RUN_KEYS = ("delta", "delta_fraction", "L_policy", "L", "seed")
_TABLE_KEYS = ("cases", "alphas", "ms", "scheme", "Ns", *_RUN_KEYS)

COMMANDS = {
    "pade-info": ("coefficients, poles, residues, bounds", ("ms", "alphas")),
    "scalar-sweep": ("scalar sup-error sweeps and slopes",
                     ("ms", "alphas", "Ns", "lambda_lo", "lambda_hi", "points", "delta")),
    "table-1d": ("1D convergence-order table", (*_TABLE_KEYS, "h")),
    "table-2d": ("2D convergence-order table",
                 (*_TABLE_KEYS, "n_per_side", "solver")),
    "spatial-refine": ("graded-mesh step-count study",
                       ("ms", "Ns", "alpha", "um_steps", *_RUN_KEYS)),
}

# CLI keys that name an ExperimentSpec field differently
_SPEC_FIELD = {"cases": "data_cases", "L": "L_fixed"}


def _given(args: argparse.Namespace) -> dict:
    """The settings the user gave: the config file, then explicit flags.

    A config key the command does not read is rejected like an unknown one.
    """
    given = {}
    if getattr(args, "config", None):
        given = read_config(args.config)
        unread = sorted(set(given) - {*COMMANDS[args.command][1], "out"})
        if unread:
            raise ValueError(f"{args.config}: {args.command} does not read {unread}")
    given.update({k: v for k, v in vars(args).items() if k not in ("config", "command")})
    return given


def _spec_from(given: dict, published: dict) -> ExperimentSpec:
    """The published settings of a study, overridden by those given.

    A given setting that the study would then ignore is refused: L outside
    L-policy fixed, and delta next to delta-fraction (delta wins).  The spec
    alone cannot tell, since a published L (TABLE_2D's) is not a given one.
    """
    if "delta" in given and "delta_fraction" in given:
        raise ValueError("give delta or delta-fraction, not both: an explicit delta "
                         "ignores delta-fraction")
    spec = ExperimentSpec(**{**published, **{_SPEC_FIELD.get(k, k): v for k, v in given.items()}})
    if "L" in given and spec.L_policy != "fixed":
        raise ValueError(f"L is read only under L-policy fixed, not {spec.L_policy!r}")
    return spec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracstep",
        description="Rational time-stepping solvers for fractional powers of "
                    "elliptic FEM operators: diagnostics and table reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, keys) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text, argument_default=argparse.SUPPRESS,
                           allow_abbrev=False)
        p.add_argument("--config", help="flat key=value config file (flags win)")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=_CONVERTERS[key],
                           choices=_CHOICES.get(key), help=_HELP.get(key))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        given = _given(args)
        out = given.pop("out", None)
        if args.command == "pade-info":
            rows = run_pade_info(**given)
        elif args.command == "scalar-sweep":
            rows = run_scalar_diagnostics(**given)
        elif args.command == "spatial-refine":
            alpha = {"alpha": given.pop("alpha")} if "alpha" in given else {}
            rows = run_spatial_refinement(_spec_from(given, SPATIAL_REFINE), **alpha)
        else:
            rows = run_table(_spec_from(given, TABLE_2D if args.command == "table-2d" else {}))
        write_csv(rows, out or sys.stdout)
    except (SolveError, ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"fracstep: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
