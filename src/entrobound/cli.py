"""Command-line interface exposing norms and seeded experiment sweeps.

Exit codes: 0 on success, 1 on bad input, 2 on solver failures,
consistency violations, or discovered conjecture counterexamples.
"""

from __future__ import annotations

import argparse
import dataclasses
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


def _add_common(p) -> None:
    p.add_argument("--out", metavar="PATH",
                   help="write output to PATH instead of stdout")
    p.add_argument("--base", choices=sorted(_BASES), default="2",
                   help="logarithm base for entropies and log-norms (default 2)")


def _add_solver(p, seeded: bool = False) -> None:
    _add_common(p)
    p.add_argument("--restarts", type=int, help="multistart restarts override")
    p.add_argument("--max-iterations", type=int, dest="max_iterations",
                   help="power-iteration cap override")
    p.add_argument("--tolerance", type=float, help="solver tolerance override")
    if seeded:
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: $ENTROBOUND_SEED, else 0)")


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


def _write_table(args, table) -> int:
    """Write an engine's table as CSV to ``--out`` or stdout; the command's exit status, 0."""
    _write_output(args, lambda f: experiments.write_table(table, f))
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


def _cmd_fig_region(args) -> int:
    return _write_table(args, experiments.run_fig_region(
        d=args.d, theta=args.theta, samples=args.samples, seed=_seed(args),
        n_env=args.envelope_points, opts=_solver_opts(args), base=_BASES[args.base]))


def _cmd_fig_norm_profile(args) -> int:
    return _write_table(args, experiments.run_norm_profile(
        theta=args.theta, grid=args.grid, opts=_solver_opts(args), base=_BASES[args.base]))


def _cmd_fig_compare(args) -> int:
    base = _BASES[args.base]
    if args.random:
        return _write_table(args, experiments.run_compare_random(
            dims=args.dims, samples=args.samples, seed=_seed(args),
            opts=_solver_opts(args, experiments.COMPARE_RANDOM_OPTS), base=base))
    return _write_table(args, experiments.run_compare_sweep(
        n_theta=args.sweep, opts=_solver_opts(args), base=base))


def _cmd_werner(args) -> int:
    return _write_table(args, experiments.run_werner_masks(
        phis=args.phi, grid=args.grid, base=_BASES[args.base]))


def _cmd_conjecture_fuzz(args) -> int:
    table = experiments.run_conjecture_fuzz(
        dims=args.dims, samples=args.samples, grid=args.grid, seed=_seed(args),
        opts=_solver_opts(args, experiments.FUZZ_OPTS), base=_BASES[args.base])
    _write_table(args, table)
    stats = table.stats
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


def _cmd_randomness(args) -> int:
    return _write_table(args, experiments.run_randomness_sweep(
        _matrix(args), points=args.points, weight_grid_n=args.weight_grid,
        opts=_solver_opts(args), base=_BASES[args.base]))


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

    p = sub.add_parser("norm", help="evaluate one r->s norm and print JSON")
    if chosen == "norm":
        _add_matrix_args(p)
        p.add_argument("--r", type=float, help="input exponent (accepts inf)")
        p.add_argument("--s", type=float, help="output exponent (accepts inf)")
        p.add_argument("--mu", type=float, help="weight mu (with --lambda)")
        p.add_argument("--lambda", type=float, dest="lam", help="weight lambda (with --mu)")
        p.add_argument("--alpha", type=float, help="entropy weight alpha (default 1)")
        _add_solver(p, seeded=True)
        p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("fig-region",
                       help="sample the (S, H_X+H_Y) region against the envelope")
    if chosen == "fig-region":
        p.add_argument("--d", type=int, default=2, help="dimension (default 2)")
        p.add_argument("--theta", type=float, default=None,
                       help="rotation angle in radians for d=2 "
                            "(default 17 degrees; omit for d>2)")
        p.add_argument("--samples", type=int, default=10_000,
                       help="number of random states (default 10000)")
        p.add_argument("--envelope-points", type=int, default=101, dest="envelope_points",
                       help="entropy grid points for the bound lines (default 101)")
        _add_solver(p, seeded=True)
        p.set_defaults(func=_cmd_fig_region)

    p = sub.add_parser("fig-norm-profile",
                       help="equal-weight norm profile of a rotated-basis matrix")
    if chosen == "fig-norm-profile":
        p.add_argument("--theta", type=float, default=math.pi / 6,
                       help="rotation angle in radians (default pi/6)")
        p.add_argument("--grid", type=int, default=200,
                       help="number of weights in [1/2, 1] (default 200)")
        _add_solver(p)
        p.set_defaults(func=_cmd_fig_norm_profile)

    p = sub.add_parser("fig-compare",
                       help="compare state-independent constants of three bounds")
    if chosen == "fig-compare":
        p.add_argument("--sweep", type=int, default=101, metavar="N",
                       help="rotation-angle sweep with N points (default mode)")
        p.add_argument("--random", action="store_true",
                       help="random-matrix mode: percentage where ours is best, per d")
        p.add_argument("--dims", type=_parse_ints, default=list(range(2, 13)),
                       help="dimensions for --random (default 2..12)")
        p.add_argument("--samples", type=int, default=1000,
                       help="random matrices per dimension (default 1000)")
        _add_solver(p, seeded=True)
        p.set_defaults(func=_cmd_fig_compare)

    p = sub.add_parser("werner",
                       help="detection masks of the two-qubit Werner-state witness")
    if chosen == "werner":
        p.add_argument("--phi", type=_parse_floats, default=[-1.0, -0.5, -0.1],
                       help="comma-separated Werner parameters (use --phi=-1,-0.5,-0.1)")
        p.add_argument("--grid", type=int, default=50,
                       help="angles per axis over [0, pi/4] (default 50)")
        _add_common(p)
        p.set_defaults(func=_cmd_werner)

    p = sub.add_parser("conjecture-fuzz",
                       help="fuzz the extended equality regime on random matrices")
    if chosen == "conjecture-fuzz":
        p.add_argument("--dims", type=_parse_ints, default=[2, 3, 4],
                       help="dimensions to fuzz (default 2,3,4)")
        p.add_argument("--samples", type=int, default=1000,
                       help="random matrices per dimension (default 1000)")
        p.add_argument("--grid", type=int, default=11,
                       help="weight lattice points per axis (default 11)")
        _add_solver(p, seeded=True)
        p.set_defaults(func=_cmd_conjecture_fuzz)

    p = sub.add_parser("randomness",
                       help="tabulate numeric vs analytic randomness bounds")
    if chosen == "randomness":
        _add_matrix_args(p)
        p.add_argument("--points", type=int, default=11,
                       help="entropy lattice points per axis (default 11)")
        p.add_argument("--weight-grid", type=int, default=21, dest="weight_grid",
                       help="weight lattice points per axis (default 21)")
        _add_solver(p, seeded=True)
        p.set_defaults(func=_cmd_randomness)

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
