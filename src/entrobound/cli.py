"""Command-line interface exposing norms and seeded experiment sweeps.

Each subcommand is declared once, in ``_COMMANDS``, and fronts one
``experiments`` function, its engine.  An engine option's destination is
the engine's parameter name, and ``--help`` shows the default read from
the engine's signature.  Only the options typed reach the engine, so the
engine's own defaults, its seed and solver preset included, fill in the
rest; a typed option that the chosen engine does not take is refused.

Exit codes: 0 on success, 1 on bad input, 2 on solver failures,
consistency violations, or discovered conjecture counterexamples.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
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


class _Parser(argparse.ArgumentParser):
    """Parser that reports bad command lines with exit status 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _list_of(cast, noun: str):
    """A parser of comma-separated ``cast`` values that refuses an empty list."""
    def parse(text: str) -> list:
        vals = [cast(x) for x in text.split(",") if x.strip()]
        if not vals:
            raise argparse.ArgumentTypeError(f"expected a comma-separated {noun} list")
        return vals
    parse.__name__ = f"{noun} list"  # argparse names the type in "invalid ... value"
    return parse


def _typed(value) -> str:
    """``value`` as it is typed on the command line."""
    if isinstance(value, LogBase):
        return next(name for name, base in _BASES.items() if base is value)
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _option(p, engine: str, flag: str, name: str, type, help: str, **kw) -> None:
    """Add ``flag`` for parameter ``name`` of ``experiments.<engine>``; ``--help`` shows its default.

    The option has no default of its own, so it reaches the engine only
    when typed; ``args.flags`` maps ``name`` back to ``flag``.
    """
    default = inspect.signature(getattr(experiments, engine)).parameters[name].default
    if default is not None:
        help = f"{help} (default {_typed(default)})"
    kw.setdefault("metavar", flag[2:].upper().replace("-", "_"))
    p.add_argument(flag, dest=name, type=type, default=argparse.SUPPRESS, help=help, **kw)
    p.get_default("flags")[name] = flag


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
    p.add_argument("--seed", type=int, help="seed of the --haar unitary (default 0)")


def _matrix(args):
    if args.seed is not None and args.haar is None:
        raise ValueError(f"{args.command} takes --seed only with --haar, whose unitary it seeds")
    if args.mub is not None:
        return mub_overlap(args.mub)
    if args.identity is not None:
        return identity_overlap(args.identity)
    if args.rotation is not None:
        return rotation_overlap_2d(args.rotation)
    if args.haar is not None:
        return from_unitary(haar_random_unitary(args.haar, args.seed or 0))
    with open(args.file, "r", encoding="utf-8") as f:
        return from_text(f.read())


def _write_output(args, render) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as f:
            render(f)
    else:
        render(sys.stdout)


def _run(args, **kw):
    """Call ``experiments.<args.engine>`` with ``kw`` and the engine options typed.

    A typed option whose parameter the engine's signature does not name is
    refused.  ``--base`` is read as a ``LogBase``; where the engine has
    them, ``c`` comes from the matrix options unless ``kw`` holds it, and
    the solver options replace fields of the engine's ``opts`` default
    (``SolverOptions()`` for None), evaluated in that order.
    """
    fn = getattr(experiments, args.engine)  # per call, so bench/tracer.py's rebinding is seen
    params = inspect.signature(fn).parameters
    typed = {name: value for name, value in vars(args).items() if name in args.flags}
    refused = [args.flags[name] for name in typed if name not in params]
    if refused:
        raise ValueError(f"{args.command} runs {args.engine}, which takes no {', '.join(refused)}")
    if "base" in typed:
        typed["base"] = _BASES[typed["base"]]
    if "c" in params and "c" not in kw:
        kw["c"] = _matrix(args)
    overrides = {name: value for name in ("restarts", "max_iterations", "tolerance")
                 if (value := getattr(args, name, None)) is not None}
    if overrides:
        kw["opts"] = dataclasses.replace(params["opts"].default or SolverOptions(), **overrides)
    return fn(**typed, **kw)


def _table(args):
    """Run the engine and write its table as CSV to ``--out`` or stdout; return the table."""
    table = _run(args)
    _write_output(args, lambda f: experiments.write_table(table, f))
    return table


def _cmd_table(args) -> int:
    _table(args)
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
    text = json.dumps(_run(args, c=c, **point), indent=2, sort_keys=True, allow_nan=False) + "\n"
    _write_output(args, lambda f: f.write(text))
    return 0


def _cmd_conjecture_fuzz(args) -> int:
    stats = _table(args).stats
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
    _option(p, engine, "--seed", "seed", int, "RNG seed")


def _fig_norm_profile_options(p, engine: str) -> None:
    _option(p, engine, "--theta", "theta", float, "rotation angle in radians")
    _option(p, engine, "--grid", "grid", int, "number of weights in [1/2, 1]")


def _fig_compare_options(p, engine: str) -> None:
    _option(p, engine, "--sweep", "n_theta", int,
            "rotation-angle sweep with N points, the mode without --random", metavar="N")
    p.add_argument("--random", action="store_const", const="run_compare_random", dest="engine",
                   help="random-matrix mode: percentage where ours is best, per d")
    _option(p, "run_compare_random", "--dims", "dims", _list_of(int, "integer"),
            "dimensions for --random")
    _option(p, "run_compare_random", "--samples", "samples", int, "random matrices per dimension")
    _option(p, "run_compare_random", "--seed", "seed", int, "RNG seed for --random")


def _werner_options(p, engine: str) -> None:
    _option(p, engine, "--phi", "phis", _list_of(float, "number"),
            "comma-separated Werner parameters, given as --phi=-1,-0.5")
    _option(p, engine, "--grid", "grid", int, "angles per axis over [0, pi/4]")


def _fuzz_options(p, engine: str) -> None:
    _option(p, engine, "--dims", "dims", _list_of(int, "integer"), "dimensions to fuzz")
    _option(p, engine, "--samples", "samples", int, "random matrices per dimension")
    _option(p, engine, "--grid", "grid", int, "weight lattice points per axis")
    _option(p, engine, "--seed", "seed", int, "RNG seed")


def _randomness_options(p, engine: str) -> None:
    _add_matrix_args(p)
    _option(p, engine, "--points", "points", int, "entropy lattice points per axis")
    _option(p, engine, "--weight-grid", "weight_grid_n", int, "weight lattice points per axis")


# name: (help, engine, adds the engine's options, handler)
_COMMANDS = {
    "norm": ("evaluate one r->s norm and print JSON", "norm_report", _norm_options, _cmd_norm),
    "fig-region": ("sample the (S, H_X+H_Y) region against the envelope",
                   "run_fig_region", _fig_region_options, _cmd_table),
    "fig-norm-profile": ("equal-weight norm profile of a rotated-basis matrix",
                         "run_norm_profile", _fig_norm_profile_options, _cmd_table),
    "fig-compare": ("compare state-independent constants of three bounds",
                    "run_compare_sweep", _fig_compare_options, _cmd_table),
    "werner": ("detection masks of the two-qubit Werner-state witness",
               "run_werner_masks", _werner_options, _cmd_table),
    "conjecture-fuzz": ("fuzz the extended equality regime on random matrices",
                        "run_conjecture_fuzz", _fuzz_options, _cmd_conjecture_fuzz),
    "randomness": ("tabulate numeric vs analytic randomness bounds",
                   "run_randomness_sweep", _randomness_options, _cmd_table),
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
    for name, (help, engine, add_options, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        if name != chosen:
            continue
        p.set_defaults(func=handler, engine=engine, flags={})
        add_options(p, engine)
        p.add_argument("--out", metavar="PATH",
                       help="write output to PATH instead of stdout")
        _option(p, engine, "--base", "base", None, "logarithm base for entropies and log-norms",
                choices=sorted(_BASES), metavar=None)
        if "opts" in inspect.signature(getattr(experiments, engine)).parameters:
            p.add_argument("--restarts", type=int, help="multistart restarts override")
            p.add_argument("--max-iterations", type=int, dest="max_iterations",
                           help="power-iteration cap override")
            p.add_argument("--tolerance", type=float, help="solver tolerance override")
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
