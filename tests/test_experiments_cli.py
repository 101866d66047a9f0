"""Tests for the experiment engines and the command-line interface."""

import dataclasses
import inspect
import io
import json
import math
import multiprocessing
import os
import re
import runpy
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from entrobound import (
    COMPARE_RANDOM_OPTS,
    FUZZ_OPTS,
    DensityMatrix,
    InvalidStateError,
    NormConsistencyError,
    OverlapMatrix,
    SolverFailureError,
    SolverOptions,
    Table,
    WeightTriple,
    basis_measurement,
    bounds,
    certify,
    cli,
    compare_state_independent,
    config_hash,
    conjecture_region_contains,
    experiments,
    fourier_measurement,
    from_unitary,
    haar_random_unitary,
    identity_overlap,
    measurement_distribution,
    mub_overlap,
    norm,
    norms,
    qmath,
    random_density_matrix,
    randomness_bound_numeric,
    rotated_measurement_2d,
    rotation_overlap_2d,
    run_compare_random,
    run_compare_sweep,
    run_conjecture_fuzz,
    run_fig_region,
    run_norm_profile,
    run_randomness_sweep,
    run_werner_masks,
    shannon_entropy,
    von_neumann_entropy,
    werner_detection_scan,
    write_table,
)

FAST = SolverOptions(restarts=4)
REPO = Path(__file__).resolve().parents[1]
CENSUS_ARTIFACT = REPO / "tests" / "artifacts" / "equality_regime_counterexamples.csv"
PROVENANCE = re.compile(r"^# entrobound 0\.1\.0 seed=(\d+|-) config=[0-9a-f]{12}$")


def _fig_args(seed=None):
    args = ["fig-region", "--samples", "30", "--envelope-points", "11", "--restarts", "4"]
    if seed is not None:
        args += ["--seed", str(seed)]
    return args


# ---------------------------------------------------------------------------
# determinism and provenance


def test_fig_region_rerun_is_byte_identical(tmp_path):
    p1, p2, p3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert cli.main(_fig_args(3) + ["--out", str(p1)]) == 0
    assert cli.main(_fig_args(3) + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert cli.main(_fig_args(4) + ["--out", str(p3)]) == 0
    assert p1.read_bytes() != p3.read_bytes()

    lines = p1.read_text().splitlines()
    assert PROVENANCE.match(lines[0])
    assert "seed=3" in lines[0]
    assert lines[1] == "kind,s_rho,h_sum"


@pytest.mark.parametrize("argv, engine", [
    (_fig_args(), lambda: run_fig_region(samples=30, n_env=11, opts=FAST)),
    (["conjecture-fuzz", "--dims", "2", "--samples", "2", "--grid", "3"],
     lambda: run_conjecture_fuzz(dims=(2,), samples=2, grid=3)),
    (["fig-compare", "--random", "--dims", "2,3", "--samples", "2"],
     lambda: run_compare_random(dims=(2, 3), samples=2)),
], ids=["fig-region", "conjecture-fuzz", "fig-compare-random"])
def test_a_seeded_command_without_seed_runs_its_engines_default_seed(tmp_path, argv, engine):
    out, want = tmp_path / "out.csv", _written(engine()).encode()
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == want
    assert cli.main([*argv, "--seed", "0", "--out", str(out)]) == 0
    assert out.read_bytes() == want


def test_config_hash_is_order_independent():
    assert config_hash({"a": 1, "b": [1, 2]}) == config_hash({"b": [1, 2], "a": 1})
    assert re.fullmatch(r"[0-9a-f]{12}", config_hash({"a": 1}))
    assert config_hash({"a": 1}) != config_hash({"a": 2})


def test_write_table_cell_formats():
    t = Table(("a", "b", "c", "d"), ((True, False, 1.5, 42),), {"seed": 9}, {})
    buf = io.StringIO()
    write_table(t, buf)
    lines = buf.getvalue().splitlines()
    assert PROVENANCE.match(lines[0]) and "seed=9" in lines[0]
    assert lines[1] == "a,b,c,d"
    assert lines[2] == "1,0,1.5,42"

    unseeded = Table(("x",), ((0.1,),), {}, {})
    buf = io.StringIO()
    write_table(unseeded, buf)
    assert "seed=-" in buf.getvalue().splitlines()[0]


# ---------------------------------------------------------------------------
# norm subcommand JSON contract


def test_norm_json_for_unbiased_pair(capsys):
    assert cli.main(["norm", "--mub", "4", "--r", "1", "--s", "inf"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 0.25
    assert payload["log_value"] == pytest.approx(-2.0, abs=1e-12)
    assert payload["r"] == 1.0 and payload["s"] == "inf"
    assert payload["method"] == "closed_kmu"
    assert payload["certified_bounds"] == [0.25, 1.0]
    assert len(payload["witness"]) == 4
    assert payload["log_base"] == "TWO"


def test_norm_json_weight_route_and_base(capsys):
    assert cli.main(["norm", "--rotation", str(math.pi / 6),
                     "--mu", "1", "--lambda", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(0.75, abs=1e-12)
    assert payload["log_value"] == pytest.approx(math.log2(0.75), abs=1e-12)

    assert cli.main(["norm", "--mub", "2", "--r", "1", "--s", "inf", "--base", "e"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["log_base"] == "NATURAL"
    assert payload["log_value"] == pytest.approx(math.log(0.5), abs=1e-12)


def test_norm_argument_conflicts_exit_one(capsys):
    bad = [
        ["norm", "--mub", "3", "--r", "2"],
        ["norm", "--mub", "3", "--mu", "0.5"],
        ["norm", "--mub", "3"],
        ["norm", "--mub", "3", "--r", "0.5", "--s", "2"],
        ["norm", "--mub", "3", "--r", "2", "--s", "2", "--mu", "0.5", "--lambda", "0.5"],
    ]
    for argv in bad:
        assert cli.main(argv) == 1
        assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("matrix", [["--mub", "3"], ["--rotation", "0.5235987755982988"]])
def test_norm_solves_and_reports_the_exponents_as_given(capsys, matrix):
    # --r/--s are not turned into weights and back: 1 / (1 - (1 - 1/3)) is
    # 3.000000000000001.
    assert cli.main(["norm", *matrix, "--r", "1.5", "--s", "3"]) == 0
    out = capsys.readouterr().out
    assert '"r": 1.5,' in out and '"s": 3.0,' in out
    payload = json.loads(out)
    c = mub_overlap(3) if matrix[0] == "--mub" else rotation_overlap_2d(0.5235987755982988)
    want = norm(c, r=1.5, s=3.0)
    assert payload["value"] == want.value
    assert payload["witness"] == want.witness.tolist()


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_norm_json_is_strict_for_a_zero_norm(tmp_path, capsys):
    # log 0 = -inf is written as the string "-inf", as "inf" is elsewhere.
    mat = tmp_path / "zero.txt"
    mat.write_text("0 0\n0 0\n")
    assert cli.main(["norm", "--file", str(mat), "--r", "2", "--s", "3"]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert payload["value"] == 0.0
    assert payload["log_value"] == "-inf"
    assert payload["certified_bounds"] == [0.0, "inf"]


@pytest.mark.parametrize("r, s", [("nan", "2"), ("2", "nan")])
def test_norm_nan_exponent_exits_one_naming_the_exponents(capsys, r, s):
    assert cli.main(["norm", "--mub", "3", "--r", r, "--s", s]) == 1
    assert "exponents must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("d", ["1", "0", "-1"])
def test_fig_region_dimension_below_two_exits_one_naming_it(capsys, d):
    # d = 1 wrote a figure of one-outcome measurements whose entropies all read -0.
    assert cli.main(["fig-region", f"--d={d}", "--samples", "3"]) == 1
    assert f"entrobound: error: d must be >= 2, got {d}\n" == capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([sys.executable, "-m", "entrobound", "--version"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "entrobound 0.1.0"


def test_python_dash_m_writes_the_bytes_of_main(tmp_path, monkeypatch):
    # In process, so the statements of __main__.py count as run.
    via_main, via_m = tmp_path / "main.json", tmp_path / "m.json"
    argv = ["norm", "--mub", "3", "--r", "1.5", "--s", "3", "--out"]
    assert cli.main([*argv, str(via_main)]) == 0
    monkeypatch.setattr(sys, "argv", ["entrobound", *argv, str(via_m)])
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_module("entrobound", run_name="__main__")
    assert excinfo.value.code == 0
    assert via_m.read_bytes() == via_main.read_bytes()


def _top_level_imports(statement: str) -> set:
    """Top-level names of the modules a fresh interpreter has imported after ``statement``.

    Cython's runtime registers modules without an import spec; they are not imports.
    """
    code = (f"import sys; {statement}; print(*{{name.partition('.')[0] for name, m in "
            "sys.modules.items() if getattr(m, '__spec__', None) is not None})")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_the_cli_imports_nothing_but_numpy_and_the_standard_library():
    # scipy, mpmath and sympy may be installed, but the package must not load
    # them.  What a bare interpreter loads (site may load certifi) is not the
    # package's doing.
    extra = _top_level_imports("import entrobound.cli") - _top_level_imports("pass")
    assert extra - set(sys.stdlib_module_names) == {"entrobound", "numpy"}


def test_argparse_failures_exit_one():
    for argv in [["norm", "--r", "2", "--s", "2"], ["frobnicate"], []]:
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 1


@pytest.mark.parametrize("argv, message", [
    (["fig-compare", "--random", "--dims", ","], "argument --dims: expected a comma-separated "
                                                  "integer list"),
    (["werner", "--phi=,"], "argument --phi: expected a comma-separated number list"),
])
def test_an_empty_list_exits_one_naming_the_option(capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 1
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


# werner solves no norm, so it takes no solver options.
SOLVER_OPTIONS = ["--restarts", "--max-iterations", "--tolerance"]
SUBCOMMAND_OPTIONS = {
    "norm": ["--mub", "--identity", "--rotation", "--haar", "--file", "--r", "--s",
             "--mu", "--lambda", "--alpha", "--seed", *SOLVER_OPTIONS],
    "fig-region": ["--d", "--theta", "--samples", "--envelope-points", "--seed",
                   *SOLVER_OPTIONS],
    "fig-norm-profile": ["--theta", "--grid", *SOLVER_OPTIONS],
    "fig-compare": ["--sweep", "--random", "--dims", "--samples", "--seed", *SOLVER_OPTIONS],
    "werner": ["--phi", "--grid"],
    "conjecture-fuzz": ["--dims", "--samples", "--grid", "--seed", *SOLVER_OPTIONS],
    "randomness": ["--mub", "--identity", "--rotation", "--haar", "--file", "--points",
                   "--weight-grid", "--seed", *SOLVER_OPTIONS],
}
COMMON_OPTIONS = ["--help", "--out", "--base"]


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_OPTIONS))
def test_every_subcommand_help_lists_its_options(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    with pytest.raises(SystemExit) as excinfo:
        cli.main([command, "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: entrobound {command} ")
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out))
    assert listed == set(SUBCOMMAND_OPTIONS[command] + COMMON_OPTIONS)


def test_top_level_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for command in SUBCOMMAND_OPTIONS:
        assert re.search(rf"^    {command} ", out, re.MULTILINE), command


@pytest.mark.parametrize("argv, engine, engine_args", [
    (["werner"], run_werner_masks, ()),
    (["fig-norm-profile"], run_norm_profile, ()),
    (["fig-compare"], run_compare_sweep, ()),
    (["randomness", "--mub", "2"], run_randomness_sweep, (mub_overlap(2),)),
], ids=["werner", "fig-norm-profile", "fig-compare", "randomness"])
def test_a_command_without_size_options_writes_its_engines_default_table(
        argv, engine, engine_args, tmp_path):
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    expected = io.StringIO()
    write_table(engine(*engine_args), expected)
    # Lines, not one string: a failing diff of two long strings takes minutes.
    assert out.read_text(encoding="utf-8").splitlines() == expected.getvalue().splitlines()


# flag -> (engine, parameter) for the options of the commands too costly to run at their defaults
_SHOWN_DEFAULTS = {
    "fig-region": {"--d": (run_fig_region, "d"), "--samples": (run_fig_region, "samples"),
                   "--envelope-points": (run_fig_region, "n_env"),
                   "--base": (run_fig_region, "base")},
    "fig-compare": {"--dims": (run_compare_random, "dims"),
                    "--samples": (run_compare_random, "samples"),
                    "--base": (run_compare_random, "base")},
    "conjecture-fuzz": {"--dims": (run_conjecture_fuzz, "dims"),
                        "--samples": (run_conjecture_fuzz, "samples"),
                        "--grid": (run_conjecture_fuzz, "grid"),
                        "--base": (run_conjecture_fuzz, "base")},
}


def _typed_value(text, like):
    """The command-line ``text`` read as a value of the type of ``like``."""
    if isinstance(like, tuple):
        return tuple(type(like[0])(x) for x in text.split(","))
    if isinstance(like, qmath.LogBase):
        return {"2": qmath.LogBase.TWO, "e": qmath.LogBase.NATURAL}[text]
    return type(like)(text)


@pytest.mark.parametrize("command", sorted(_SHOWN_DEFAULTS))
def test_help_shows_the_engines_own_defaults(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # no help text wraps
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    lines, flag = {}, None
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("  -"):
            flag = line.split()[0]
        if flag:  # a long option's help starts on the next line
            lines[flag] = f"{lines.get(flag, '')} {line.strip()}".strip()
    for flag, (engine, name) in _SHOWN_DEFAULTS[command].items():
        shown = re.search(r"\(default ([^)]*)\)$", lines[flag])
        assert shown, lines[flag]
        default = inspect.signature(engine).parameters[name].default
        assert _typed_value(shown.group(1), default) == default, flag
    if command == "fig-region":  # the engine's default theta is None: 17 degrees at d = 2
        assert math.degrees(experiments._REGION_THETA_DEFAULT) == 17.0
        assert lines["--theta"].endswith("(default 17 degrees; omit for d>2)")


def test_a_numpy_bool_cell_writes_as_one_or_zero():
    assert experiments._fmt(np.bool_(True)) == "1"
    assert experiments._fmt(np.bool_(False)) == "0"
    buf = io.StringIO()
    write_table(Table(("a", "b"), ((np.bool_(True), np.bool_(False)),), {}), buf)
    assert buf.getvalue().splitlines()[1:] == ["a,b", "1,0"]


def test_solver_failure_exits_two(tmp_path, capsys):
    mat = tmp_path / "m.txt"
    mat.write_text("1.0 2.0\n3.0 4.0\n")
    code = cli.main(["norm", "--file", str(mat), "--r", "1.7", "--s", "2.3",
                     "--max-iterations", "1", "--tolerance", "1e-18"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("option, value, message", [
    ("--restarts", "-3", "restarts must be >= 0"),
    ("--max-iterations", "0", "max_iterations must be >= 1"),
    ("--max-iterations", "-5", "max_iterations must be >= 1"),
    ("--tolerance", "nan", "tolerance must be finite and > 0"),
    ("--tolerance", "-1", "tolerance must be finite and > 0"),
    ("--tolerance", "inf", "tolerance must be finite and > 0"),
])
def test_bad_solver_options_exit_one(capsys, option, value, message):
    code = cli.main(["norm", "--haar", "3", "--r", "1.3", "--s", "2.9", option, value])
    assert code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["inf", "nan"])
def test_non_finite_matrix_entry_exits_one(tmp_path, capsys, entry):
    mat = tmp_path / "m.txt"
    mat.write_text(f"{entry} 0\n0 1\n")
    assert cli.main(["norm", "--file", str(mat), "--r", "2", "--s", "3"]) == 1
    assert "finite" in capsys.readouterr().err
    with pytest.raises(InvalidStateError):
        OverlapMatrix([[float(entry), 0.0], [0.0, 1.0]])


def test_fuzz_counterexample_exits_two_with_artifact(tmp_path, capsys):
    out = tmp_path / "fuzz.csv"
    code = cli.main(["conjecture-fuzz", "--dims", "3", "--samples", "3",
                     "--grid", "11", "--seed", "0", "--out", str(out)])
    assert code == 2
    assert "counterexample" in capsys.readouterr().err
    lines = out.read_text().splitlines()
    assert lines[1].startswith("kind,d,sample,")
    violations = [l.split(",") for l in lines[2:] if l.startswith("violation,")]
    assert violations
    for cells in violations:
        assert len(cells) == 14
        assert float(cells[9]) > float(cells[10])  # numeric beats conjectured
        assert ";" in cells[12]  # full-precision matrix payload
    assert any(l.startswith("summary,3,") for l in lines[2:])


def test_fuzz_clean_run_exits_zero(tmp_path, capsys):
    out = tmp_path / "fuzz2.csv"
    code = cli.main(["conjecture-fuzz", "--dims", "2", "--samples", "3",
                     "--grid", "5", "--seed", "0", "--out", str(out)])
    assert code == 0
    assert "no counterexamples" in capsys.readouterr().err
    lines = out.read_text().splitlines()
    assert len([l for l in lines[2:] if l.startswith("violation,")]) == 0


def _violation_lines(text, samples):
    return [line for line in text.splitlines()
            if line.startswith("violation,") and int(line.split(",")[2]) < samples]


def test_fuzz_reproduces_tracked_counterexamples_bit_for_bit():
    # The census seeds its RNG per d, so the first 16 samples of d = 3, 4
    # give exactly the artifact's rows with sample < 16, whatever dims run.
    buf = io.StringIO()
    write_table(run_conjecture_fuzz(dims=(3, 4), samples=16, grid=11, seed=0), buf)
    want = _violation_lines(CENSUS_ARTIFACT.read_text(encoding="utf-8"), 16)
    assert want
    assert _violation_lines(buf.getvalue(), 16) == want


def test_fuzz_runs_the_ascent_only_where_no_closed_form_applies(stacks):
    run_conjecture_fuzz(dims=(2, 3), samples=2, grid=11, seed=0)
    calls = [p for _, exps in stacks for p in exps]
    assert calls
    assert all(s > r for r, s in calls)


def _census_lattice(d, samples, seed, grid=11):
    """(matrix, weights) at every point of the census lattice, proven or not."""
    rng = np.random.default_rng([seed, d])
    for _ in range(samples):
        c = from_unitary(haar_random_unitary(d, rng))
        for mu, lam in certify.feasible_weight_grid(min(c.sigma2, 1.0), grid):
            yield c, WeightTriple(1.0, lam, mu)


def test_fuzz_solves_a_dimension_in_one_stack(stacks):
    # Sixteen lattices at d = 3 have fewer open points than the stack holds
    # (2**14 // 18 = 910), so every open point enters it in one admission,
    # mu = 1/2 (r = 2) and lambda = 1/2 (s = 2) included, not one to three
    # stacks per matrix or per fast-path power.
    run_conjecture_fuzz(dims=(3,), samples=16, seed=1)
    open_points = [(c, w) for c, w in _census_lattice(3, 16, seed=1)
                   if not certify._equality_proven(c, w.r, w.s)]
    assert all(certify._stackable(w.r, w.s) for _, w in open_points)
    assert {0.5} <= {w.mu for _, w in open_points} & {w.lam for _, w in open_points}
    ((m, exps),) = stacks
    assert stacks.peak == len(exps) == len(open_points)
    assert exps == [(w.r, w.s) for _, w in open_points]
    assert [row.tobytes() for row in m] == [c.matrix.tobytes() for c, _ in open_points]


def test_certified_census_points_have_no_excess_over_the_closed_form():
    # Every certified point with s > r, solved by the 64-restart ascent as
    # norm_numeric solves it (d = 2 included, where the census solves nothing).
    certified = [(c, w.r, w.s) for d in (2, 3, 4) for c, w in _census_lattice(d, 4, seed=0)
                 if w.s > w.r and certify._equality_proven(c, w.r, w.s)]
    assert {c.dim for c, _, _ in certified} == {2, 3, 4}
    solved = norms._numeric_many([(None, p) for p in certified], SolverOptions())
    for (c, r, s), (_, res) in zip(certified, solved):
        assert abs(res.value - norms.norm_mub(c.dim, r, s)) <= 1e-9


def _fuzz_csv(**kwargs):
    buf = io.StringIO()
    write_table(run_conjecture_fuzz(**kwargs), buf)
    return buf.getvalue()


def _per_point_lattice(d, samples, grid, seed):
    """Open census points (k, matrix bytes, sigma2, weights) and counts, point by point."""
    rng = np.random.default_rng([seed, d])
    axis = np.linspace(0.0, 1.0, grid)
    points, counts = [], {"evals": 0, "proven": 0}
    for k in range(samples):
        c = from_unitary(haar_random_unitary(d, rng))
        sigma2 = min(float(c.sigma2), 1.0)
        for mu in axis.tolist():
            for lam in axis.tolist():
                if not conjecture_region_contains(mu, lam, sigma2):
                    continue
                w = WeightTriple(1.0, lam, mu)
                counts["evals"] += 1
                if certify._equality_proven(c, w.r, w.s):
                    counts["proven"] += 1
                else:
                    points.append((k, c.matrix.tobytes(), sigma2, w))
    return points, counts


@pytest.mark.parametrize("grid", [2, 3, 11])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_fuzz_lattice_pass_yields_the_per_point_lattice(d, grid):
    # The one-pass masks keep the per-point order, weights and counts.  On
    # grids 2 and 3 every region point has mu + lambda <= 1, and at d = 2
    # the certificate covers the rest, so only d > 2 at grid 11 has open points.
    counts = {"evals": 0, "proven": 0}
    lattice = experiments._fuzz_lattice(d, 6, grid, np.random.default_rng([1, d]), counts)
    got = [(k, c.matrix.tobytes(), sigma2, w) for k, c, sigma2, w in lattice]
    want, want_counts = _per_point_lattice(d, 6, grid, seed=1)
    assert got == want and counts == want_counts
    assert bool(got) == (d > 2 and grid == 11) and counts["proven"] > 0
    with pytest.raises(ValueError, match="grid must have at least 2 points per axis, got 1"):
        next(experiments._fuzz_lattice(d, 6, 1, np.random.default_rng([1, d]), counts))
    with pytest.raises(ValueError, match="grid must have at least 2 points per axis, got 1"):
        run_conjecture_fuzz(dims=(d,), samples=1, grid=1)


@pytest.mark.parametrize("seed", [0, 1])
def test_no_open_census_point_has_a_closed_form(seed):
    # The census sends its open points straight to the solver, past norm's
    # closed-form dispatch, so its bytes are norm's only if none has one.
    for d in (2, 3, 4):
        counts = {"evals": 0, "proven": 0}
        lattice = list(experiments._fuzz_lattice(d, 16, 11, np.random.default_rng([seed, d]),
                                                 counts))
        assert (len(lattice) > 0) == (d > 2)
        for _, c, _, w in lattice:
            assert norms.norm_closed_form(c, w.r, w.s) is None


@pytest.mark.parametrize("seed", [0, 1])
def test_fuzz_bytes_do_not_depend_on_the_certificate(monkeypatch, seed):
    # A certified point has excess exactly 0 in the census, so it never
    # produced a row; with the s <= r test alone it is solved instead.
    got = _fuzz_csv(dims=(2, 3, 4), samples=8, seed=seed)
    monkeypatch.setattr(experiments, "_equality_proven",
                        lambda c, r, s: c.is_doubly_stochastic() and s <= r)
    assert _fuzz_csv(dims=(2, 3, 4), samples=8, seed=seed) == got


def test_fuzz_counts_every_point_as_proven_or_solved():
    t = run_conjecture_fuzz(dims=(2, 3, 4), samples=6, seed=2)
    evals = {row[1]: row[4] for row in t.rows if row[0] == "summary"}
    assert evals == {d: sum(1 for _ in _census_lattice(d, 6, seed=2)) for d in (2, 3, 4)}
    for d, n in evals.items():
        assert t.stats["proven"][d] + t.stats["solved"][d] == n
    assert t.stats["solved"][2] == 0  # kappa = sigma2 at d = 2: the whole region is proven
    assert 0 < t.stats["proven"][4] < evals[4] and 0 < t.stats["solved"][4]


def test_fuzz_stderr_names_the_proven_and_solved_counts(capsys):
    args = ["conjecture-fuzz", "--dims", "2,3", "--samples", "2", "--grid", "5", "--seed", "0"]
    stats = run_conjecture_fuzz(dims=(2, 3), samples=2, grid=5, seed=0).stats
    assert cli.main(args + ["--out", os.devnull]) == 0
    err = capsys.readouterr().err
    for d in (2, 3):
        assert f"d={d}: {stats['proven'][d]} proven, {stats['solved'][d]} solved" in err


@pytest.mark.parametrize("tol", [-1e-9, -math.inf, math.inf, math.nan])
def test_fuzz_rejects_an_excess_tolerance_that_is_negative_or_not_finite(tol):
    # A negative tolerance made every point a violation, and NaN none.
    with pytest.raises(ValueError, match="excess_tol must be finite and >= 0"):
        run_conjecture_fuzz(dims=(2,), samples=1, excess_tol=tol)
    run_conjecture_fuzz(dims=(2,), samples=1, excess_tol=0.0)


def test_fuzz_memory_is_flat_in_the_sample_count():
    # A dimension's draws and lattice points stream through the solver,
    # which reads at most _WINDOW_PROBLEMS problems ahead; holding every
    # sample's points would grow by megabytes from 100 to 400 samples.
    peaks = []
    for samples in (100, 400):
        tracemalloc.start()
        try:
            run_conjecture_fuzz(dims=(3,), samples=samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 1e6


# ---------------------------------------------------------------------------
# engine behavior


def test_fig_region_engine_stats():
    t = run_fig_region(samples=50, seed=5, n_env=11, opts=FAST)
    s_mix, h_mix = t.stats["mixed_point"]
    assert s_mix == pytest.approx(1.0, abs=1e-9)
    assert h_mix == pytest.approx(2.0, abs=1e-9)
    assert t.stats["min_margin"] >= -1e-8
    assert t.stats["env_at_zero"] >= t.stats["mu_level"] - 1e-12
    kinds = {row[0] for row in t.rows}
    assert kinds == {"sample", "mu_line", "envelope"}
    assert sum(1 for row in t.rows if row[0] == "sample") == 51  # + mixed state


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fig_region_scores_like_the_per_state_path_bit_for_bit(monkeypatch, d, seed):
    """The stacked cloud has the bits of one random_density_matrix and its entropies per state."""
    monkeypatch.setattr(experiments, "_REGION_CHUNK", 7)  # several chunks and a short last one
    samples = 40
    t = run_fig_region(d=d, samples=samples, seed=seed, n_env=5,
                       weight_grid=[WeightTriple(1.0, 0.5, 0.5)], opts=FAST)
    got = [(s.hex(), h.hex()) for kind, s, h in t.rows if kind == "sample"]
    x = basis_measurement(d)
    y = rotated_measurement_2d(math.radians(17.0)) if d == 2 else fourier_measurement(d)
    rng = np.random.default_rng(seed)
    states = [random_density_matrix(d, rng) for _ in range(samples)]
    states.append(DensityMatrix(np.eye(d) / d))
    expected = [(von_neumann_entropy(rho).hex(),
                 (shannon_entropy(measurement_distribution(rho, x))
                  + shannon_entropy(measurement_distribution(rho, y))).hex())
                for rho in states]
    assert got == expected


def test_fig_region_config_records_a_custom_weight_grid():
    kwargs = {"samples": 3, "n_env": 3, "opts": FAST}
    configs = [run_fig_region(weight_grid=[WeightTriple(1.0, t, t)], **kwargs).config
               for t in (0.5, 0.9)]
    assert configs[0]["triples"] == [[1.0, 0.5, 0.5]]
    assert config_hash(configs[0]) != config_hash(configs[1])
    assert "triples" not in run_fig_region(**kwargs).config


def test_fig_region_higher_dimension_rules():
    with pytest.raises(ValueError):
        run_fig_region(d=3, theta=0.3, samples=5, n_env=5, opts=FAST)
    t = run_fig_region(d=3, samples=5, seed=1, n_env=5, opts=FAST)
    assert t.stats["min_margin"] >= -1e-8
    s_mix, h_mix = t.stats["mixed_point"]
    assert s_mix == pytest.approx(math.log2(3.0), abs=1e-9)
    assert h_mix == pytest.approx(2.0 * math.log2(3.0), abs=1e-9)


def test_fig_region_refuses_a_sample_below_the_envelope(monkeypatch):
    kwargs = {"samples": 5, "seed": 2, "n_env": 5, "opts": FAST}
    samples = [(s, h) for kind, s, h in run_fig_region(**kwargs).rows if kind == "sample"]
    monkeypatch.setattr(experiments, "envelope_curve",
                        lambda c, s_grid, **kw: (s_grid, np.full(len(s_grid), 10.0)))
    k = min(range(len(samples)), key=lambda i: samples[i][1])
    s, h = samples[k]
    with pytest.raises(NormConsistencyError) as excinfo:
        run_fig_region(**kwargs)
    assert str(excinfo.value) == (
        f"sample {k} lies {10.0 - h:.3e} below the envelope at S={s!r}")


# mu = lambda profiles, in bits, that break each of the paper's three claims
# at theta = pi/6 (sigma2 = 1/2, mu* = 2/3), with the first weight each fails at.
_PROFILE_MU = np.linspace(0.5, 1.0, 30)
_BROKEN_PROFILES = {
    "below": (lambda mu: 1.0 - 2.0 * mu - 1e-6, _PROFILE_MU[0],
              "is 1.000e-06 below the constant-matrix line"),
    "inside": (lambda mu: 1.0 - 2.0 * mu + 1e-6, _PROFILE_MU[0],
               "deviates 1.000e-06 inside the equality regime"),
    "beyond": (lambda mu: 1.0 - 2.0 * mu, _PROFILE_MU[_PROFILE_MU >= 2.0 / 3.0 + 0.03][0],
               "shows no excess past the critical weight"),
}


@pytest.mark.parametrize("case", _BROKEN_PROFILES)
def test_norm_profile_refuses_a_profile_that_breaks_a_claim(monkeypatch, case):
    profile, mu, message = _BROKEN_PROFILES[case]
    monkeypatch.setattr(experiments, "_numeric_many", lambda pairs, opts, base: (
        (m, SimpleNamespace(log_value=profile(m))) for m, _ in pairs))
    with pytest.raises(NormConsistencyError) as excinfo:
        run_norm_profile(grid=len(_PROFILE_MU))
    assert str(excinfo.value) == f"profile at mu={float(mu)!r} {message}"


def test_norm_profile_engine():
    t = run_norm_profile(grid=30, opts=SolverOptions(restarts=6))
    assert t.header == ("mu", "log_norm", "mub_line", "kmu_level")
    assert len(t.rows) == 30
    assert t.stats["mu_star"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert t.stats["sigma2"] == pytest.approx(0.5, abs=1e-12)
    assert t.stats["max_equal_dev"] <= 1e-7
    assert t.stats["min_excess_beyond"] > 1e-7
    first, last = t.rows[0], t.rows[-1]
    assert first[0] == 0.5 and last[0] == 1.0
    assert last[1] == pytest.approx(math.log2(0.75), abs=1e-9)
    for mu, log_norm, mub_line, _ in t.rows:
        assert log_norm >= mub_line - 1e-7
        if mu <= t.stats["mu_star"] + 1e-12:
            assert abs(log_norm - mub_line) <= 1e-7


def test_compare_sweep_engine():
    t = run_compare_sweep(n_theta=11, opts=SolverOptions(restarts=6))
    assert t.header == ("theta", "c1", "c2", "ours", "bccrr", "rpz2",
                        "ours_at_least", "conjecture_ok")
    assert len(t.rows) == 11
    first, last = t.rows[0], t.rows[-1]
    assert first[0] == 0.0 and last[0] == pytest.approx(math.pi / 4, abs=1e-12)
    assert abs(first[3]) <= 1e-9 and abs(first[4]) <= 1e-12
    assert last[3] == pytest.approx(1.0, abs=1e-9)
    assert last[4] == pytest.approx(1.0, abs=1e-12)
    for row in t.rows:
        assert bool(row[6]) and bool(row[7])  # qubit case: always ahead, never fallback
    for row in t.rows[1:-1]:
        assert row[3] > max(row[4], row[5])  # strictly ahead between the endpoints


def test_compare_random_engine():
    t = run_compare_random(dims=(2, 3), samples=8, seed=7, opts=COMPARE_RANDOM_OPTS)
    assert t.header == ("d", "samples", "pct_ours_best", "conjecture_fallbacks")
    assert len(t.rows) == 2
    d2, d3 = t.rows
    assert d2[0] == 2 and d2[2] == 100.0 and d2[3] == 0
    assert d3[0] == 3 and 0 <= d3[2] <= 100.0 and d3[3] >= 0
    assert t.stats["pct"][2] == 100.0
    with pytest.raises(ValueError):
        run_compare_random(dims=(1,), samples=2)
    with pytest.raises(ValueError):
        run_compare_random(dims=(2,), samples=0)


@pytest.mark.parametrize("engine", [run_compare_random, run_conjecture_fuzz])
def test_engines_reject_repeated_dimensions(engine):
    # A repeated d would write its summary row twice while the stats keep one.
    with pytest.raises(ValueError, match=r"dimensions must not repeat, got \(3, 4, 3\)"):
        engine(dims=(3, 4, 3), samples=2)


@pytest.mark.parametrize("engine", [run_compare_random, run_conjecture_fuzz])
@pytest.mark.parametrize("d", [2.9, 2.0, True, "3"])
def test_engines_reject_a_dimension_that_is_not_an_integer(engine, d):
    # int() truncated 2.9 to 2 and recorded "dims": [2] in the hashed config.
    with pytest.raises(ValueError, match=rf"dimension must be an integer, got {d!r}"):
        engine(dims=(d,), samples=2)


@pytest.mark.parametrize("engine", [run_compare_random, run_conjecture_fuzz])
def test_engines_take_numpy_integer_dimensions(engine):
    t = engine(dims=(np.int64(2),), samples=2)
    assert t.config["dims"] == [2] and type(t.config["dims"][0]) is int
    assert t.rows == engine(dims=(2,), samples=2).rows


# (engine, its other arguments, an integer argument, the least value the engine takes)
_COUNTS = {
    "compare-samples": (run_compare_random, {"dims": (2,)}, "samples", 1),
    "compare-seed": (run_compare_random, {"dims": (2,), "samples": 1}, "seed", 0),
    "fuzz-samples": (run_conjecture_fuzz, {"dims": (2,), "grid": 3}, "samples", 1),
    "fuzz-grid": (run_conjecture_fuzz, {"dims": (2,), "samples": 1}, "grid", 2),
    "fuzz-seed": (run_conjecture_fuzz, {"dims": (2,), "samples": 1, "grid": 3}, "seed", 0),
    "region-d": (run_fig_region, {"samples": 1, "n_env": 2, "opts": FAST}, "d", 2),
    "region-samples": (run_fig_region, {"n_env": 2, "opts": FAST}, "samples", 1),
    "region-n_env": (run_fig_region, {"samples": 1, "opts": FAST}, "n_env", 2),
    "region-seed": (run_fig_region, {"samples": 1, "n_env": 2, "opts": FAST}, "seed", 0),
    "profile-grid": (run_norm_profile, {"opts": FAST}, "grid", 2),
    "sweep-n_theta": (run_compare_sweep, {"opts": FAST}, "n_theta", 2),
    "werner-grid": (run_werner_masks, {"phis": (-1.0,)}, "grid", 2),
    "randomness-points": (run_randomness_sweep, {"c": rotation_overlap_2d(0.5),
                          "weight_grid_n": 2, "opts": FAST}, "points", 2),
    "randomness-weights": (run_randomness_sweep, {"c": rotation_overlap_2d(0.5), "points": 2,
                           "opts": FAST}, "weight_grid_n", 2),
}


def _written(table) -> str:
    buf = io.StringIO()
    write_table(table, buf)
    return buf.getvalue()


@pytest.mark.parametrize("case", _COUNTS)
@pytest.mark.parametrize("value", [True, 2.0])
def test_engines_reject_an_integer_argument_that_is_not_an_integer(case, value):
    # True ran one sample and hashed "samples": true; 2.0 raised TypeError from NumPy or range.
    engine, kwargs, name, _ = _COUNTS[case]
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
        engine(**kwargs, **{name: value})


@pytest.mark.parametrize("case", _COUNTS)
def test_engines_hash_numpy_integer_arguments_as_plain_ints(case):
    # An np.int64 ran to the end, and then write_table could not hash it as JSON.
    engine, kwargs, name, least = _COUNTS[case]
    t = engine(**kwargs, **{name: np.int64(least)})
    assert t.config[name] == least and type(t.config[name]) is int
    assert _written(t) == _written(engine(**kwargs, **{name: least}))


@pytest.mark.parametrize("case", ["compare-samples", "fuzz-samples", "region-samples",
                                  "region-n_env", "profile-grid", "sweep-n_theta", "werner-grid",
                                  "randomness-points", "randomness-weights", "compare-seed",
                                  "fuzz-seed", "region-seed", "region-d"])
def test_engines_name_a_count_below_its_least_value(case):
    engine, kwargs, name, least = _COUNTS[case]
    with pytest.raises(ValueError, match=rf"^{name} must be >= {least}, got {least - 1}$"):
        engine(**kwargs, **{name: least - 1})


@pytest.mark.parametrize("command", [
    ["fig-region", "--samples", "3"],
    ["fig-compare", "--random", "--dims", "2", "--samples", "1"],
    ["conjecture-fuzz", "--dims", "2", "--samples", "1", "--grid", "3"],
    ["randomness", "--haar", "3", "--points", "2", "--weight-grid", "2"],
    ["norm", "--haar", "3", "--r", "2", "--s", "3"],
])
def test_a_negative_seed_exits_one_naming_it(capsys, command):
    assert cli.main([*command, "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "entrobound: error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("command", [["conjecture-fuzz"], ["fig-compare", "--random"]])
def test_repeated_dimensions_exit_one_naming_them(capsys, command):
    assert cli.main([*command, "--dims", "2,2", "--samples", "2"]) == 1
    assert capsys.readouterr().err == "entrobound: error: dimensions must not repeat, got (2, 2)\n"


def _compare_rows_per_sample(dims, samples, seed):
    """run_compare_random's rows, drawing and comparing one sample at a time."""
    rows = []
    for d in dims:
        rng = np.random.default_rng([seed, d])
        found = [compare_state_independent(from_unitary(haar_random_unitary(d, rng)),
                                           opts=COMPARE_RANDOM_OPTS, on_violation="use_numeric")
                 for _ in range(samples)]
        wins = sum(int(row.ours_at_least) for row in found)
        fallbacks = sum(int(not row.conjecture_ok) for row in found)
        rows.append((d, samples, 100.0 * wins / samples, fallbacks))
    return tuple(rows)


def test_compare_random_rows_match_a_per_sample_loop():
    # The engine solves a dimension's matrices together.
    rows = _compare_rows_per_sample(range(2, 13), 5, 3)
    assert sum(row[3] for row in rows) > 0
    assert run_compare_random(samples=5, seed=3).rows == rows


@pytest.mark.parametrize("samples", [7, 20])
def test_compare_random_draws_every_dimension_into_one_stack(monkeypatch, stacks, samples):
    # With a stack of four problems at d = 3 (three at d = 4), both
    # dimensions' draws pass through one stack.  d = 4 enters once every
    # d = 3 problem has left: the growth share, 156 // 10 = 15 floats, holds
    # no padded problem.  The problems read and not yet answered number at
    # most the window of 17, whatever the number of samples, and the rows
    # are those of one sample at a time.
    from entrobound import norms

    monkeypatch.setattr(norms, "_STACK_FLOATS", 3 * 4 * (4 + 1 + COMPARE_RANDOM_OPTS.restarts))
    monkeypatch.setattr(norms, "_WINDOW_PROBLEMS", 17)
    draws, answered, ahead = [0], [0], []
    draw, many = experiments.haar_random_unitary, experiments._compare_many

    def drawing(d, rng):
        draws[0] += 1
        return draw(d, rng)

    def answering(*args, **kwargs):
        for row in many(*args, **kwargs):
            answered[0] += 1
            ahead.append(draws[0] - answered[0])
            yield row

    monkeypatch.setattr(experiments, "haar_random_unitary", drawing)
    monkeypatch.setattr(experiments, "_compare_many", answering)
    rows = run_compare_random(dims=(3, 4), samples=samples, seed=3).rows
    assert draws[0] == answered[0] == 2 * samples
    assert 1 < max(ahead) <= norms._WINDOW_PROBLEMS
    shapes = [m.shape[1:] for m, exps in stacks for _ in exps]
    assert shapes == [(3, 3)] * samples + [(4, 4)] * samples
    assert stacks.peak == 4
    if samples == 7:
        assert [len(exps) for _, exps in stacks] == [4, 1, 1, 1, 3, 1, 1, 1, 1]
    assert rows == _compare_rows_per_sample((3, 4), samples, 3)


def test_compare_random_counts_proven_rows_toward_the_window(monkeypatch):
    # The d = 2 rows are proven, so they take no solve, but they ride
    # through the same pass: reading them waits for the d = 3 rows ahead of
    # them, and the draws read and not yet answered stay within the window
    # whatever the number of samples.
    from entrobound import norms

    monkeypatch.setattr(experiments, "_workers", lambda samples: 1)  # counts one process's draws
    monkeypatch.setattr(norms, "_WINDOW_PROBLEMS", 17)
    draws, answered, ahead = [0], [0], []
    draw, many = experiments.haar_random_unitary, experiments._compare_many

    def drawing(d, rng):
        draws[0] += 1
        return draw(d, rng)

    def answering(*args, **kwargs):
        for row in many(*args, **kwargs):
            answered[0] += 1
            ahead.append(draws[0] - answered[0])
            yield row

    monkeypatch.setattr(experiments, "haar_random_unitary", drawing)
    monkeypatch.setattr(experiments, "_compare_many", answering)
    rows = run_compare_random(dims=(3, 2), samples=60, seed=3).rows
    assert draws[0] == answered[0] == 120
    assert max(ahead) <= norms._WINDOW_PROBLEMS
    assert rows == _compare_rows_per_sample((3, 2), 60, 3)


def _deal(monkeypatch, k):
    """Deal fig-compare --random draws to k shares, as on a box with k CPUs."""
    monkeypatch.setattr(experiments, "_workers", lambda samples: min(k, samples))


@pytest.mark.parametrize("samples", [2, 7])
@pytest.mark.parametrize("dims", [(2, 3, 4, 8, 12), (3, 2)])
def test_compare_random_is_the_same_in_any_number_of_shares(monkeypatch, dims, samples):
    # Three shares of two samples are two; seven samples divide by neither two nor three.
    _deal(monkeypatch, 1)
    want = run_compare_random(dims=dims, samples=samples, seed=5)
    for k in (2, 3):
        _deal(monkeypatch, k)
        got = run_compare_random(dims=dims, samples=samples, seed=5)
        assert (got.rows, got.stats, got.config) == (want.rows, want.stats, want.config)
        assert multiprocessing.active_children() == []


def _fail_at(monkeypatch, dims, samples, seed, indices):
    """Make the compare pass fail on the draws at ``indices`` (a * samples + j for d = dims[a]).

    Each failure is a ``SolverFailureError`` that names its draw and
    carries the bits of the draw's solved norm as its best value and point.
    """
    targets = {}
    for index in indices:
        a, j = divmod(index, samples)
        rng = np.random.default_rng([seed, dims[a]])
        for _ in range(j + 1):
            u = haar_random_unitary(dims[a], rng)
        targets[from_unitary(u).matrix.tobytes()] = index
    check = bounds._agrees_with_closed_form

    def failing(c, r, s, res, base):
        index = targets.get(c.matrix.tobytes())
        if index is not None:
            raise SolverFailureError(f"draw {index} failed", best_value=res.value,
                                     best_point=res.witness)
        return check(c, r, s, res, base)

    monkeypatch.setattr(bounds, "_agrees_with_closed_form", failing)


def _raised_by_compare(**kwargs):
    with pytest.raises(SolverFailureError) as excinfo:
        run_compare_random(**kwargs)
    exc = excinfo.value
    return str(exc), exc.best_value, exc.best_point.tobytes()


# Draws of dims (2, 3, 4, 8, 12) at 7 samples: index 7 + j is sample j at d = 3,
# owned by share j % k.  The first failure is in share 0, 1 or 2 of two or three.
# Of two shares, share 0 holds four of the seven samples of each d and
# share 1 three, so an index taken as (rows the share has answered) * k + i
# would put 22 (d = 8, j = 1) ahead of 20 (d = 4, j = 6).
@pytest.mark.parametrize("indices", [(10,), (8, 15), (26, 12, 16), (29, 16), (34, 7), (22, 20)])
def test_compare_random_raises_the_first_failure_in_any_number_of_shares(monkeypatch, indices):
    kwargs = {"dims": (2, 3, 4, 8, 12), "samples": 7, "seed": 5}
    _fail_at(monkeypatch, indices=indices, **kwargs)
    _deal(monkeypatch, 1)
    want = _raised_by_compare(**kwargs)
    assert want[0] == f"draw {min(indices)} failed"
    for k in (2, 3):
        _deal(monkeypatch, k)
        assert _raised_by_compare(**kwargs) == want
        assert multiprocessing.active_children() == []


def test_compare_random_cli_exits_two_on_a_failure_with_no_process_left(monkeypatch, capsys):
    _fail_at(monkeypatch, (3, 2), 4, 0, [2, 1])
    _deal(monkeypatch, 2)
    assert cli.main(["fig-compare", "--random", "--dims", "3,2", "--samples", "4",
                     "--seed", "0"]) == 2
    assert capsys.readouterr().err == "entrobound: error: draw 1 failed\n"
    assert multiprocessing.active_children() == []


def test_compare_random_workers_are_the_cpus_it_may_run_on(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    assert [experiments._workers(n) for n in (1, 2, 3, 1000)] == [1, 2, 3, 3]
    # A forked child would get a copy of any lock another thread holds.
    monkeypatch.setattr(threading, "active_count", lambda: 2)
    assert experiments._workers(1000) == 1
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    monkeypatch.delattr(os, "fork")
    assert experiments._workers(1000) == 1


def test_compare_random_on_one_cpu_builds_no_executor(monkeypatch):
    import concurrent.futures

    def refused(*args, **kwargs):
        raise AssertionError("an executor was built")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refused)
    assert run_compare_random(dims=(2, 3), samples=4, seed=1).rows == (
        _compare_rows_per_sample((2, 3), 4, 1))


def test_fuzz_lattice_pass_has_the_bytes_of_per_point_norms(monkeypatch):
    # Sample 2 at d = 3 is a counterexample, so its witness bits are in the CSV.
    def csv():
        buf = io.StringIO()
        write_table(run_conjecture_fuzz(samples=3, seed=0), buf)
        return buf.getvalue()

    got = csv()
    assert "\nviolation,3,2," in got
    monkeypatch.setattr(experiments, "_numeric_many", lambda pairs, opts, base: [
        (item, norm(c, opts=opts, base=base, r=r, s=s)) for item, (c, r, s) in pairs])
    assert csv() == got


def test_werner_masks_engine_nesting():
    t = run_werner_masks(phis=(-1.0, -0.8), grid=5)
    assert t.header == ("theta_a", "theta_b", "phi", "detected")
    assert len(t.rows) == 2 * 25
    detected = {phi: set() for phi in (-1.0, -0.8)}
    for ta, tb, phi, flag in t.rows:
        if flag:
            detected[phi].add((ta, tb))
    assert detected[-0.8] <= detected[-1.0]  # weaker entanglement, smaller mask
    assert t.stats["corner"][-1.0] is True
    assert t.stats["corner"][-0.8] is True
    assert t.stats["counts"][-1.0] >= t.stats["counts"][-0.8] > 0
    # theta = 0 rows never detect: the rotated basis degenerates there.
    for ta, tb, phi, flag in t.rows:
        if ta == 0.0 or tb == 0.0:
            assert not flag


@pytest.mark.parametrize("phis", [(-1.0,), (-1.0, -0.5, -0.1), (-1.0, -0.8, -0.5, -0.3, 0.5)])
def test_werner_masks_are_the_per_phi_scans_with_each_projector_checked_once(monkeypatch, phis):
    # The product projectors do not depend on phi, so one scan builds them
    # once for every phi.  Each measurement is checked once, where it is
    # built: 1 check for the basis and 50 for the rotated bases, for any
    # number of phi; their products are not checked again.
    checked = []
    check = qmath._check_projectors

    def counting(p):
        checked.append(p.shape)
        return check(p)

    monkeypatch.setattr(qmath, "_check_projectors", counting)
    table = run_werner_masks(phis=phis)
    monkeypatch.undo()
    assert len(checked) == 51
    axis = np.linspace(0.0, math.pi / 4, 50)
    pairs = [(float(a), float(b)) for a in axis for b in axis]
    want = [(a, b, phi, bool(hit)) for phi in phis
            for (a, b), hit in zip(pairs, werner_detection_scan(phi, pairs))]
    assert table.rows == tuple(want)
    assert table.stats["counts"] == {phi: sum(row[3] for row in want if row[2] == phi)
                                     for phi in phis}


def test_werner_masks_of_no_phi_are_empty():
    table = run_werner_masks(phis=(), grid=3)
    assert table.rows == () and table.stats == {"counts": {}, "corner": {}}


@pytest.mark.parametrize("dims", [(2, 3, 4), (4, 2, 3), (3,)])
def test_the_census_and_compare_each_make_one_ascent_pass(turns, dims):
    # Every dimension's problems stream through one pass, into one stack.
    run_conjecture_fuzz(dims=dims, samples=2, seed=1)
    assert turns.passes == 1
    turns.passes = 0
    run_compare_random(dims=dims, samples=2, seed=1)
    assert turns.passes == 1


def test_werner_cli_output(tmp_path):
    out = tmp_path / "werner.csv"
    assert cli.main(["werner", "--phi=-1", "--grid", "5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "theta_a,theta_b,phi,detected"
    data = [l.split(",") for l in lines[2:]]
    assert len(data) == 25
    assert all(cells[3] in {"0", "1"} for cells in data)
    assert data[-1][3] == "1"  # unbiased corner detects the singlet


def test_randomness_sweep_gives_no_analytic_cell_for_a_matrix_that_is_not_doubly_stochastic():
    # The region theorem says nothing of such a matrix, so no sigma2 read off
    # it gives an analytic bound; the numeric column is untouched.
    c = [[0.5, 0.2], [0.1, 0.3]]
    t = run_randomness_sweep(c, points=3, weight_grid_n=3, opts=FAST)
    assert {(row[3], row[4]) for row in t.rows} == {("", "")}
    h = np.linspace(0.0, 1.0, 3)
    numerics = randomness_bound_numeric(h[:, None], h, c, zip(*experiments._weight_lattice(3)),
                                        opts=FAST)
    assert [row[2] for row in t.rows] == numerics.ravel().tolist()


def test_randomness_sweep_engine_and_cli(tmp_path):
    t = run_randomness_sweep(np.full((2, 2), 0.5), points=3, weight_grid_n=5, opts=FAST)
    assert t.header == ("h_x", "h_y", "bound_numeric", "bound_analytic", "flag")
    assert len(t.rows) == 9
    for h_x, h_y, numeric, analytic, flag in t.rows:
        if h_x >= h_y:
            assert isinstance(analytic, float)
            # Unbiased pair: the closed form is the exact deficit of H(Y).
            assert analytic == pytest.approx(1.0 - h_y, abs=1e-12)
            assert numeric == pytest.approx(analytic, abs=1e-9)
            assert flag == 0
        else:
            assert analytic == "" and flag == ""

    out = tmp_path / "rand.csv"
    assert cli.main(["randomness", "--rotation", str(math.pi / 6), "--points", "3",
                     "--weight-grid", "5", "--restarts", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "h_x,h_y,bound_numeric,bound_analytic,flag"
    assert len(lines) == 2 + 9
    assert cli.main(["randomness", "--rotation", "0.3", "--points", "1"]) == 1


@pytest.mark.parametrize("argv, engine", [
    (["fig-norm-profile", "--grid", "5"], lambda: run_norm_profile(grid=5)),
    (["fig-compare", "--sweep", "5"], lambda: run_compare_sweep(n_theta=5)),
    (["randomness", "--identity", "2", "--points", "3", "--weight-grid", "3"],
     lambda: run_randomness_sweep(identity_overlap(2), points=3, weight_grid_n=3)),
], ids=["fig-norm-profile", "fig-compare-sweep", "randomness-identity"])
def test_cli_writes_the_bytes_of_its_engine(tmp_path, argv, engine):
    out = tmp_path / "out.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == _written(engine()).encode()


@pytest.mark.parametrize("argv, engine", [
    (["fig-compare", "--random", "--dims", "3", "--samples", "2", "--restarts", "3"],
     lambda: run_compare_random(dims=(3,), samples=2,
                                opts=dataclasses.replace(COMPARE_RANDOM_OPTS, restarts=3))),
    (["fig-compare", "--random", "--dims", "3", "--samples", "2", "--max-iterations", "2000"],
     lambda: run_compare_random(dims=(3,), samples=2,
                                opts=dataclasses.replace(COMPARE_RANDOM_OPTS, max_iterations=2000))),
    (["conjecture-fuzz", "--dims", "3", "--samples", "1", "--grid", "3", "--max-iterations", "500"],
     lambda: run_conjecture_fuzz(dims=(3,), samples=1, grid=3,
                                 opts=dataclasses.replace(FUZZ_OPTS, max_iterations=500))),
], ids=["compare-restarts", "compare-max-iterations", "fuzz-max-iterations"])
def test_a_solver_override_replaces_a_field_of_the_engines_preset(tmp_path, argv, engine):
    # The preset is the engine's opts default; SolverOptions() has 64 restarts,
    # and the config hash in the provenance line records every field.
    out = tmp_path / "out.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == _written(engine()).encode()


@pytest.mark.parametrize("argv, flags", [
    (["fig-compare", "--dims", "2,3", "--samples", "5", "--seed", "3"],
     "fig-compare runs run_compare_sweep, which takes no --dims, --samples, --seed"),
    (["fig-compare", "--random", "--dims", "2", "--samples", "2", "--sweep", "7"],
     "fig-compare runs run_compare_random, which takes no --sweep"),
], ids=["sweep", "random"])
def test_fig_compare_refuses_the_options_of_the_mode_not_chosen(tmp_path, capsys, argv, flags):
    out = tmp_path / "out.csv"
    assert cli.main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"entrobound: error: {flags}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["norm", "--mub", "3", "--r", "1.5", "--s", "3", "--seed", "5"],
    ["randomness", "--rotation", "0.5", "--points", "2", "--seed", "1"],
], ids=["norm", "randomness"])
def test_seed_without_haar_exits_one_naming_both(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"entrobound: error: {argv[0]} takes --seed only with --haar, whose unitary it seeds\n")
    assert not out.exists()


@pytest.mark.parametrize("seed_args, seed", [([], 0), (["--seed", "5"], 5)], ids=["default", "5"])
def test_norm_seed_seeds_the_haar_unitary(capsys, seed_args, seed):
    assert cli.main(["norm", "--haar", "3", "--r", "1.5", "--s", "3", *seed_args]) == 0
    payload = json.loads(capsys.readouterr().out)
    want = norm(from_unitary(haar_random_unitary(3, seed)), r=1.5, s=3.0)
    assert payload["value"] == want.value
    assert payload["witness"] == want.witness.tolist()


def test_fuzz_engine_validation():
    with pytest.raises(ValueError):
        run_conjecture_fuzz(dims=(), samples=2)
    with pytest.raises(ValueError):
        run_conjecture_fuzz(dims=(2,), samples=0)
    with pytest.raises(ValueError):
        run_randomness_sweep(np.full((2, 2), 0.5), points=2, weight_grid_n=1)
