"""Command-line interface exposing norms and seeded experiment sweeps.

Each subcommand is declared once, in ``_COMMANDS``, and fronts one
``experiments`` function, its engine.  An engine option's destination is
the engine's parameter name and its default is read from the engine's
signature, so ``--help`` shows the default the engine runs with.

Exit codes: 0 on success, 1 on bad input, 2 on solver failures,
consistency violations, or discovered conjecture counterexamples.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import os
import sys

from . import __version__, experiments
from .norms import SolverOptions, WeightTriple
from .overlap import (
    from_text,
    from_unitary,
    identity_overlap,
    mub_overlap,
    rotation_overlap_2d,
)
from .qmath import LogBase, haar_random_unitary

_BASES = {"2": LogBase.TWO, "e": LogBase.NATURAL}
# The solver options that --restarts, --max-iterations and --tolerance
# override, for engines whose default is not SolverOptions().
_PRESETS = {"run_compare_random": experiments.COMPARE_RANDOM_OPTS,
            "run_conjecture_fuzz": experiments.FUZZ_OPTS}


class _Parser(argparse.ArgumentParser):
    """Parser that reports bad command lines with exit status 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_ints(text: str) -> list:
    vals = [int(x) for x in text.split(",") if x.strip()]
    if not vals:
        raise argparse.ArgumentTypeError("expected a comma-separated integer list")
    return vals


def _parse_floats(text: str) -> list:
    vals = [float(x) for x in text.split(",") if x.strip()]
    if not vals:
        raise argparse.ArgumentTypeError("expected a comma-separated number list")
    return vals


def _seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    return int(os.environ.get("ENTROBOUND_SEED", "0"))


def _solver_opts(args, default: SolverOptions | None = None) -> SolverOptions | None:
    overrides = {name: value for name in ("restarts", "max_iterations", "tolerance")
                 if (value := getattr(args, name)) is not None}
    return dataclasses.replace(default or SolverOptions(), **overrides) if overrides else default


def _typed(value) -> str:
    """``value`` as it is typed on the command line."""
    if isinstance(value, LogBase):
        return next(name for name, base in _BASES.items() if base is value)
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _option(p, engine: str, flag: str, name: str, type, help: str, **kw) -> None:
    """Add ``flag`` for parameter ``name`` of ``experiments.<engine>``, with the engine's default.

    The default is given as it is typed, so the option's type parses it
    and ``--help`` shows the text the engine's value is parsed from.
    """
    default = inspect.signature(getattr(experiments, engine)).parameters[name].default
    if default is not None:
        default = _typed(default)
        help = f"{help} (default {default})"
    kw.setdefault("metavar", flag[2:].upper().replace("-", "_"))
    p.add_argument(flag, dest=name, type=type, default=default, help=help, **kw)


def _add_matrix_args(p) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--mub", type=int, metavar="D",
                   help="constant overlap matrix with entries 1/D")
    g.add_argument("--identity", type=int, metavar="D",
                   help="identity overlap matrix of size D")
    g.add_argument("--rotation", type=float, metavar="THETA",
                   help="2x2 rotated-basis overlap matrix, THETA in radians")
    g.add_argument("--haar", type=int, metavar="D",
                   help="unistochastic matrix from a seeded Haar-random unitary")
    g.add_argument("--file", metavar="PATH",
                   help="load a matrix from a whitespace-separated text file")


def _matrix(args):
    if args.mub is not None:
        return mub_overlap(args.mub)
    if args.identity is not None:
        return identity_overlap(args.identity)
    if args.rotation is not None:
        return rotation_overlap_2d(args.rotation)
    if args.haar is not None:
        return from_unitary(haar_random_unitary(args.haar, _seed(args)))
    with open(args.file, "r", encoding="utf-8") as f:
        return from_text(f.read())


def _write_output(args, render) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as f:
            render(f)
    else:
        render(sys.stdout)


def _run(args, engine: str):
    """Run ``experiments.<engine>`` on the parsed arguments its signature names; write its table.

    The engine also gets ``base`` from ``--base`` and, where its signature
    has them, ``c`` from the matrix options, ``seed`` from ``_seed`` and
    ``opts`` from the solver options over its preset, evaluated in that
    order.  The table goes as CSV to ``--out`` or stdout and is returned.
    """
    fn = getattr(experiments, engine)  # per call, so bench/tracer.py's rebinding is seen
    params = inspect.signature(fn).parameters
    kw = {name: value for name, value in vars(args).items() if name in params}
    kw["base"] = _BASES[args.base]
    if "c" in params:
        kw["c"] = _matrix(args)
    if "seed" in params:
        kw["seed"] = _seed(args)
    if "opts" in params:
        kw["opts"] = _solver_opts(args, _PRESETS.get(engine))
    table = fn(**kw)
    _write_output(args, lambda f: experiments.write_table(table, f))
    return table


def _cmd_table(args) -> int:
    _run(args, args.engine)
    return 0


def _cmd_norm(args) -> int:
    c = _matrix(args)
    have_rs = args.r is not None or args.s is not None
    have_w = args.mu is not None or args.lam is not None
    if have_rs and (have_w or args.alpha is not None):
        raise ValueError("give either --r/--s or --mu/--lambda/--alpha, not both")
    if have_rs:
        if args.r is None or args.s is None:
            raise ValueError("--r and --s must be given together")
        point = {"r": args.r, "s": args.s}  # solved and reported as given
    elif have_w:
        if args.mu is None or args.lam is None:
            raise ValueError("--mu and --lambda must be given together")
        alpha = 1.0 if args.alpha is None else args.alpha
        point = {"w": WeightTriple(alpha, args.lam, args.mu)}
    else:
        raise ValueError("specify exponents via --r/--s or weights via --mu/--lambda")
    payload = experiments.norm_report(c, opts=_solver_opts(args),
                                      base=_BASES[args.base], **point)
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    _write_output(args, lambda f: f.write(text))
    return 0


def _cmd_conjecture_fuzz(args) -> int:
    stats = _run(args, args.engine).stats
    points = "; ".join(f"d={d}: {n} proven, {stats['solved'][d]} solved"
                       for d, n in stats["proven"].items())
    if stats["violations"]:
        print(
            f"conjecture-fuzz: {stats['violations']} counterexample(s) found, "
            f"max excess {stats['max_excess']:.3e}; "
            "violation rows carry the full-precision matrix and witness; "
            f"lattice points {points}",
            file=sys.stderr)
        return 2
    print(f"conjecture-fuzz: no counterexamples found; lattice points {points}",
          file=sys.stderr)
    return 0


def _norm_options(p, engine: str) -> None:
    _add_matrix_args(p)
    p.add_argument("--r", type=float, help="input exponent (accepts inf)")
    p.add_argument("--s", type=float, help="output exponent (accepts inf)")
    p.add_argument("--mu", type=float, help="weight mu (with --lambda)")
    p.add_argument("--lambda", type=float, dest="lam", help="weight lambda (with --mu)")
    p.add_argument("--alpha", type=float, help="entropy weight alpha (default 1)")


def _fig_region_options(p, engine: str) -> None:
    _option(p, engine, "--d", "d", int, "dimension")
    _option(p, engine, "--theta", "theta", float, "rotation angle in radians for d=2 (default "
            f"{math.degrees(experiments._REGION_THETA_DEFAULT):g} degrees; omit for d>2)")
    _option(p, engine, "--samples", "samples", int, "number of random states")
    _option(p, engine, "--envelope-points", "n_env", int, "entropy grid points for the bound lines")


def _fig_norm_profile_options(p, engine: str) -> None:
    _option(p, engine, "--theta", "theta", float, "rotation angle in radians")
    _option(p, engine, "--grid", "grid", int, "number of weights in [1/2, 1]")


def _fig_compare_options(p, engine: str) -> None:
    _option(p, engine, "--sweep", "n_theta", int,
            "rotation-angle sweep with N points, the mode without --random", metavar="N")
    p.add_argument("--random", action="store_const", const="run_compare_random", dest="engine",
                   help="random-matrix mode: percentage where ours is best, per d")
    _option(p, "run_compare_random", "--dims", "dims", _parse_ints, "dimensions for --random")
    _option(p, "run_compare_random", "--samples", "samples", int, "random matrices per dimension")


def _werner_options(p, engine: str) -> None:
    _option(p, engine, "--phi", "phis", _parse_floats,
            "comma-separated Werner parameters, given as --phi=-1,-0.5")
    _option(p, engine, "--grid", "grid", int, "angles per axis over [0, pi/4]")


def _fuzz_options(p, engine: str) -> None:
    _option(p, engine, "--dims", "dims", _parse_ints, "dimensions to fuzz")
    _option(p, engine, "--samples", "samples", int, "random matrices per dimension")
    _option(p, engine, "--grid", "grid", int, "weight lattice points per axis")


def _randomness_options(p, engine: str) -> None:
    _add_matrix_args(p)
    _option(p, engine, "--points", "points", int, "entropy lattice points per axis")
    _option(p, engine, "--weight-grid", "weight_grid_n", int, "weight lattice points per axis")


# name: (help, engine, adds the engine's options, handler, takes the solver options, takes --seed)
_COMMANDS = {
    "norm": ("evaluate one r->s norm and print JSON",
             "norm_report", _norm_options, _cmd_norm, True, True),
    "fig-region": ("sample the (S, H_X+H_Y) region against the envelope",
                   "run_fig_region", _fig_region_options, _cmd_table, True, True),
    "fig-norm-profile": ("equal-weight norm profile of a rotated-basis matrix",
                         "run_norm_profile", _fig_norm_profile_options, _cmd_table, True, False),
    "fig-compare": ("compare state-independent constants of three bounds",
                    "run_compare_sweep", _fig_compare_options, _cmd_table, True, True),
    "werner": ("detection masks of the two-qubit Werner-state witness",
               "run_werner_masks", _werner_options, _cmd_table, False, False),
    "conjecture-fuzz": ("fuzz the extended equality regime on random matrices",
                        "run_conjecture_fuzz", _fuzz_options, _cmd_conjecture_fuzz, True, True),
    "randomness": ("tabulate numeric vs analytic randomness bounds",
                   "run_randomness_sweep", _randomness_options, _cmd_table, True, True),
}


def _build_parser(chosen: str | None) -> _Parser:
    """The full command tree, with arguments only on the ``chosen`` subcommand.

    Every subcommand is registered, so the top-level help and the error for
    a missing or unknown command stay the same; building all 78 arguments
    would cost milliseconds per call for parsers that are never used.
    """
    parser = _Parser(
        prog="entrobound",
        description="Weighted entropic uncertainty bounds: overlap-matrix norms, "
                    "bound comparisons, and seeded experiment sweeps with CSV output.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help, engine, add_options, handler, solver, seeded) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        if name != chosen:
            continue
        add_options(p, engine)
        p.add_argument("--out", metavar="PATH",
                       help="write output to PATH instead of stdout")
        _option(p, engine, "--base", "base", None, "logarithm base for entropies and log-norms",
                choices=sorted(_BASES), metavar=None)
        if solver:
            p.add_argument("--restarts", type=int, help="multistart restarts override")
            p.add_argument("--max-iterations", type=int, dest="max_iterations",
                           help="power-iteration cap override")
            p.add_argument("--tolerance", type=float, help="solver tolerance override")
        if seeded:
            p.add_argument("--seed", type=int, default=None,
                           help="RNG seed (default: $ENTROBOUND_SEED, else 0)")
        p.set_defaults(func=handler, engine=engine)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top level takes no option with a value, so its first non-option
    # token names the subcommand.
    chosen = next((a for a in argv if not a.startswith("-")), None)
    args = _build_parser(chosen).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"entrobound: error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"entrobound: error: {exc}", file=sys.stderr)
        return 2
