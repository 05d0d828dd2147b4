"""Command-line interface.

Subcommands: pade-info, scalar-sweep, table-1d, table-2d, spatial-refine.
``COMMANDS`` lists, per subcommand, every setting it reads with its default;
each one is a flag and can also come from a flat ``key = value`` config
file (--config), and nothing else is accepted.  Explicit flags win over the
file.  CSV goes to --out or stdout.  Exit status is 0 on success and 2 when
a solve or configuration fails.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    ExperimentSpec,
    run_scalar_diagnostics,
    run_spatial_refinement,
    run_table_1d,
    run_table_2d,
    write_csv,
)
from .pade import pade_coefficients
from .solvers import SolveError, SolverPolicy


def _floats(text: str):
    return tuple(float(v) for v in text.replace(";", ",").split(",") if v)


def _ints(text: str):
    return tuple(int(v) for v in text.replace(";", ",").split(",") if v)


_CONVERTERS = {
    "cases": lambda s: tuple(t.strip() for t in s.split(",") if t.strip()),
    "alphas": _floats,
    "ms": _ints,
    "Ns": _ints,
    "scheme": str,
    "h": float,
    "n_per_side": int,
    "L_policy": str,
    "L": int,
    "delta": float,
    "delta_fraction": float,
    "solver": str,
    "solver_rtol": float,
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
            "solver": ("direct", "cg")}

_HELP = {
    "cases": "comma-separated data cases, e.g. a,b,c,d",
    "alphas": "comma-separated exponents in (0,1)",
    "ms": "comma-separated orders, e.g. 1,2",
    "Ns": "per-interval step counts, e.g. 8,16",
    "L": "refinement depth for --L-policy fixed",
    "delta": "explicit shift (default: delta-fraction * lambda_min)",
    "h": "uniform mesh size",
}

# shift, solver and seed: read by every stepping study
_RUN = {"delta_fraction": 0.5, "solver": "direct", "solver_rtol": 1e-12, "seed": 0}
_TABLE = {"cases": ("a", "b", "c", "d"), "alphas": (0.1, 0.5, 0.9), "ms": (1, 2),
          "scheme": "both", "Ns": (8, 16), "L_policy": "experiment", "L": None,
          "delta": None, **_RUN}

COMMANDS = {
    "pade-info": ("coefficients, poles, residues, bounds",
                  {"ms": (1, 2), "alphas": (0.1, 0.3, 0.5, 0.7, 0.9)}),
    "scalar-sweep": ("scalar sup-error sweeps and slopes",
                     {"ms": (1, 2), "alphas": (0.1, 0.5, 0.9), "Ns": (8, 16, 32, 64),
                      "lambda_lo": 1.0, "lambda_hi": 1e6, "points": 1000, "delta": 0.5}),
    "table-1d": ("1D convergence-order table", {**_TABLE, "h": 1e-3}),
    "table-2d": ("2D convergence-order table",
                 {**_TABLE, "cases": ("e", "f"), "alphas": (0.1, 0.3, 0.5, 0.7, 0.9),
                  "ms": (2,), "Ns": (1, 2, 4, 8, 16, 32), "L_policy": "fixed", "L": 14,
                  "n_per_side": 100}),
    "spatial-refine": ("graded-mesh step-count study",
                       {"ms": (1, 2), "Ns": (4, 8, 16), "alpha": 0.5, "um_steps": 100_000,
                        **_RUN}),
}

# CLI keys that name an ExperimentSpec field differently
_SPEC_FIELD = {"cases": "data_cases", "L": "L_fixed"}


def _merge(args: argparse.Namespace, defaults: dict) -> dict:
    """Defaults, then the config file, then explicit flags.

    A config key outside ``defaults`` is rejected like an unknown one.
    """
    merged = {**defaults, "out": None}
    if getattr(args, "config", None):
        cfg = read_config(args.config)
        unread = sorted(set(cfg) - set(merged))
        if unread:
            raise ValueError(f"{args.config}: {args.command} does not read {unread}")
        merged.update(cfg)
    merged.update({k: v for k, v in vars(args).items() if k not in ("config", "command")})
    return merged


def _spec_from(merged: dict, dimension: int) -> ExperimentSpec:
    fields = {_SPEC_FIELD.get(k, k): v for k, v in merged.items()
              if k not in ("solver", "solver_rtol", "alpha", "out")}
    policy = SolverPolicy(method=merged["solver"], rtol=merged["solver_rtol"])
    return ExperimentSpec(dimension=dimension, solver=policy, **fields)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracstep",
        description="Rational time-stepping solvers for fractional powers of "
                    "elliptic FEM operators: diagnostics and table reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, defaults) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text, argument_default=argparse.SUPPRESS,
                           allow_abbrev=False)
        p.add_argument("--config", help="flat key=value config file (flags win)")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        for key in defaults:
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=_CONVERTERS[key],
                           choices=_CHOICES.get(key), help=_HELP.get(key))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        merged = _merge(args, COMMANDS[args.command][1])
        if args.command == "pade-info":
            rows = []
            for m in merged["ms"]:
                for alpha in merged["alphas"]:
                    r = pade_coefficients(m, alpha)
                    rows.append({
                        "m": m, "alpha": alpha,
                        "limit_at_infinity": r.limit_at_infinity,
                        "rho_m": r.rho_m,
                        "poles": ";".join(f"{x:.12e}" for x in r.poles),
                        "residues": ";".join(f"{x:.12e}" for x in r.residues),
                        "p_coeffs": ";".join(f"{x:.12e}" for x in r.p_coeffs),
                        "q_coeffs": ";".join(f"{x:.12e}" for x in r.q_coeffs),
                    })
        elif args.command == "scalar-sweep":
            rows = run_scalar_diagnostics(
                alphas=merged["alphas"], ms=merged["ms"], Ns=merged["Ns"],
                lambda_range=(merged["lambda_lo"], merged["lambda_hi"]),
                delta=merged["delta"], points=merged["points"])
        elif args.command == "table-1d":
            rows = run_table_1d(_spec_from(merged, dimension=1))
        elif args.command == "table-2d":
            rows = run_table_2d(_spec_from(merged, dimension=2))
        else:
            rows = run_spatial_refinement(_spec_from(merged, dimension=1),
                                          alpha=merged["alpha"])
        write_csv(rows, merged["out"] or sys.stdout)
    except (SolveError, ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"fracstep: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
