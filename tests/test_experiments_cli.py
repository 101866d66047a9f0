"""Tests for the experiment engines and the command-line interface."""

import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entrobound import (
    COMPARE_RANDOM_OPTS,
    DensityMatrix,
    InvalidStateError,
    OverlapMatrix,
    SolverOptions,
    Table,
    WeightTriple,
    basis_measurement,
    cli,
    config_hash,
    experiments,
    fourier_measurement,
    measurement_distribution,
    mub_overlap,
    norm,
    norms,
    random_density_matrix,
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


def test_environment_seed_matches_explicit_flag(tmp_path, monkeypatch):
    explicit, via_env = tmp_path / "x.csv", tmp_path / "y.csv"
    assert cli.main(_fig_args(7) + ["--out", str(explicit)]) == 0
    monkeypatch.setenv("ENTROBOUND_SEED", "7")
    assert cli.main(_fig_args() + ["--out", str(via_env)]) == 0
    assert explicit.read_bytes() == via_env.read_bytes()


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
    assert cli.main(["norm", *matrix, "--r", "1.5", "--s", "3", "--seed", "0"]) == 0
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
    assert "exponents must satisfy r >= 1 and s >= 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([sys.executable, "-m", "entrobound", "--version"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "entrobound 0.1.0"


def test_argparse_failures_exit_one():
    for argv in [["norm", "--r", "2", "--s", "2"], ["frobnicate"], []]:
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 1


SUBCOMMAND_OPTIONS = {
    "norm": ["--mub", "--identity", "--rotation", "--haar", "--file", "--r", "--s",
             "--mu", "--lambda", "--alpha", "--seed"],
    "fig-region": ["--d", "--theta", "--samples", "--envelope-points", "--seed"],
    "fig-norm-profile": ["--theta", "--grid"],
    "fig-compare": ["--sweep", "--random", "--dims", "--samples", "--seed"],
    "werner": ["--phi", "--grid"],
    "conjecture-fuzz": ["--dims", "--samples", "--grid", "--seed"],
    "randomness": ["--mub", "--identity", "--rotation", "--haar", "--file", "--points",
                   "--weight-grid", "--seed"],
}
COMMON_OPTIONS = ["--help", "--out", "--base", "--restarts", "--max-iterations", "--tolerance"]


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


def test_solver_failure_exits_two(tmp_path, capsys):
    mat = tmp_path / "m.txt"
    mat.write_text("1.0 2.0\n3.0 4.0\n")
    code = cli.main(["norm", "--file", str(mat), "--r", "1.7", "--s", "2.3",
                     "--max-iterations", "1", "--tolerance", "1e-18"])
    assert code == 2
    assert "error" in capsys.readouterr().err


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


def test_fuzz_runs_the_ascent_only_where_no_closed_form_applies(monkeypatch):
    calls = []
    ascent = norms._multistart_ascent

    def counting(m, r, s, opts):
        calls.append((r, s))
        return ascent(m, r, s, opts)

    monkeypatch.setattr(norms, "_multistart_ascent", counting)
    run_conjecture_fuzz(dims=(2, 3), samples=2, grid=11, seed=0)
    assert calls
    assert all(s > r for r, s in calls)


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


def test_fig_region_higher_dimension_rules():
    with pytest.raises(ValueError):
        run_fig_region(d=3, theta=0.3, samples=5, n_env=5, opts=FAST)
    t = run_fig_region(d=3, samples=5, seed=1, n_env=5, opts=FAST)
    assert t.stats["min_margin"] >= -1e-8
    s_mix, h_mix = t.stats["mixed_point"]
    assert s_mix == pytest.approx(math.log2(3.0), abs=1e-9)
    assert h_mix == pytest.approx(2.0 * math.log2(3.0), abs=1e-9)


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


def test_werner_cli_output(tmp_path):
    out = tmp_path / "werner.csv"
    assert cli.main(["werner", "--phi=-1", "--grid", "5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "theta_a,theta_b,phi,detected"
    data = [l.split(",") for l in lines[2:]]
    assert len(data) == 25
    assert all(cells[3] in {"0", "1"} for cells in data)
    assert data[-1][3] == "1"  # unbiased corner detects the singlet


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


def test_fuzz_engine_validation():
    with pytest.raises(ValueError):
        run_conjecture_fuzz(dims=(), samples=2)
    with pytest.raises(ValueError):
        run_conjecture_fuzz(dims=(2,), samples=0)
    with pytest.raises(ValueError):
        run_randomness_sweep(np.full((2, 2), 0.5), points=2, weight_grid_n=1)
