import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from refdata import CROSSINGS, THETA0


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(*args: str) -> subprocess.CompletedProcess:
    # the package runs from src/ without an install, as under pytest itself
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return run_python("-m", "diskmag", *args)


def test_import_skips_scipy_optimize_and_integrate():
    # scipy.optimize alone took ~0.2 s of every CLI start-up
    out = run_python("-c", "import sys, diskmag.cli; print(sorted(m for m in "
                     "sys.modules if m.split('.')[:2] in (['scipy', 'optimize'], "
                     "['scipy', 'integrate'])))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_help_exits_cleanly():
    out = run_cli("--help")
    assert out.returncode == 0
    assert "crossings" in out.stdout


def test_unknown_command_exits_three():
    assert run_cli("frobnicate").returncode == 3


def test_malformed_beta_grid_exits_three():
    assert run_cli("curves", "--beta-grid", "1:2").returncode == 3
    assert run_cli("curves", "--beta-grid", "3:1:1").returncode == 3


def test_crossings_outputs(tmp_path: Path):
    out = run_cli("crossings", "--n-max", "50", "--output-dir", str(tmp_path))
    assert out.returncode == 0, out.stderr
    table1 = (tmp_path / "table1_crossings.csv").read_text().splitlines()
    assert table1[0].split(",")[:3] == ["n", "beta", "eta_star"]
    assert len(table1) == 52  # header + one row per mode
    row50 = table1[51].split(",")
    assert float(row50[1]) == pytest.approx(CROSSINGS[50][0], rel=1e-12)

    table3 = (tmp_path / "table3_implicit.csv").read_text().splitlines()
    assert len(table3) == 52
    epsilons = [float(line.split(",")[3]) for line in table3[1:]]
    assert max(epsilons) < 1e-10


def test_crossings_deterministic(tmp_path: Path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("crossings", "--n-max", "4", "--output-dir", str(dir_a)).returncode == 0
    assert run_cli("crossings", "--n-max", "4", "--output-dir", str(dir_b)).returncode == 0
    for name in ("table1_crossings.csv", "table3_implicit.csv"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_csv_roundtrips_at_printed_precision(tmp_path: Path):
    run_cli("crossings", "--n-max", "3", "--output-dir", str(tmp_path))
    lines = (tmp_path / "table1_crossings.csv").read_text().splitlines()
    for line in lines[1:]:
        cells = line.split(",")
        assert f"{float(cells[1]):.16g}" == cells[1]
        assert f"{float(cells[2]):.16g}" == cells[2]


def test_json_format(tmp_path: Path):
    out = run_cli("crossings", "--n-max", "2", "--output-dir", str(tmp_path),
                  "--format", "json")
    assert out.returncode == 0, out.stderr
    rows = json.loads((tmp_path / "table1_crossings.json").read_text())
    assert [row["n"] for row in rows] == [0, 1, 2]
    assert rows[0]["beta"] == pytest.approx(CROSSINGS[0][0], rel=1e-13)


def test_curves_outputs(tmp_path: Path):
    out = run_cli("curves", "--n-max", "20", "--output-dir", str(tmp_path),
                  "--beta-grid", "0.5:30:0.5")
    assert out.returncode == 0, out.stderr
    curve_files = sorted(tmp_path.glob("curve_n*.csv"))
    assert len(curve_files) == 21

    def etas(path):
        return [float(line.split(",")[1])
                for line in path.read_text().splitlines()[1:]]

    for path in curve_files:
        values = etas(path)
        assert all(v > 0.0 for v in values)

    mode0 = etas(tmp_path / "curve_n00.csv")
    assert all(b > a for a, b in zip(mode0, mode0[1:]))  # increasing in beta

    mode5 = etas(tmp_path / "curve_n05.csv")
    betas = [float(line.split(",")[0])
             for line in (tmp_path / "curve_n05.csv").read_text().splitlines()[1:]]
    assert betas[mode5.index(min(mode5))] > 10.0  # minimum past beta = 2n

    refs = dict(line.split(",") for line in
                (tmp_path / "curve_references.csv").read_text().splitlines()[1:])
    assert float(refs["one"]) == 1.0
    assert float(refs["theta0"]) == pytest.approx(THETA0, abs=1e-5)


def test_richardson_blank_pattern(tmp_path: Path):
    out = run_cli("richardson", "--n-max", "40", "--output-dir", str(tmp_path))
    assert out.returncode == 0, out.stderr
    lines = (tmp_path / "table2_gaps.csv").read_text().splitlines()
    assert lines[0] == "n,gamma,r4_gamma"
    cells = {int(line.split(",")[0]): line.split(",")[2] for line in lines[1:]}
    assert cells[0] == ""  # gamma_0 excluded from extrapolation
    assert cells[1] != "" and cells[2] != ""
    assert cells[3] == ""  # 16 * 3 = 48 > 40: consumed
    assert len(lines) == 41  # header + gamma_0 .. gamma_39


def test_derivatives_table(tmp_path: Path):
    out = run_cli("derivatives", "--n-max", "20", "--output-dir", str(tmp_path))
    assert out.returncode == 0, out.stderr
    lines = (tmp_path / "table4_derivatives.csv").read_text().splitlines()
    rows = {int(line.split(",")[0]): line.split(",") for line in lines[1:]}
    assert sorted(rows) == list(range(11))  # rows capped by n_max
    assert float(rows[0][2]) == pytest.approx(0.884743, abs=1e-5)
    assert float(rows[0][3]) == pytest.approx(0.144907, abs=1e-5)
    assert rows[0][4] == ""  # n = 0 has no extrapolation partner
    assert rows[1][4] != ""  # chain 1..16 fits below n_max = 20
    assert rows[2][4] == ""  # chain needs 32

def test_constants_json(tmp_path: Path):
    out = run_cli("constants", "--output-dir", str(tmp_path))
    assert out.returncode == 0, out.stderr
    payload = json.loads((tmp_path / "constants.json").read_text())
    assert payload["theta0"] == pytest.approx(THETA0, abs=1e-5)
    assert payload["xi0"] == pytest.approx(-0.768, abs=1e-3)
    assert payload["c1"] == pytest.approx(0.254, abs=1e-3)
    assert payload["delta0_fit"] == pytest.approx(payload["delta0_formula"],
                                                  abs=2e-3)


def test_conjectures_exit_code(tmp_path: Path):
    out = run_cli("conjectures", "--n-max", "6", "--output-dir", str(tmp_path),
                  "--beta-grid", "1:18:1")
    assert out.returncode == 0, out.stderr
    payload = json.loads((tmp_path / "conjectures.json").read_text())
    assert payload["all_passed"] is True
    assert {item["name"] for item in payload["items"]} == {
        "eta_below_theta0", "eta_star_increasing",
        "right_derivative_positive", "lambda_slope_positive"}


def test_conjectures_single_crossing_exits_one(tmp_path: Path):
    # n_max = 0 leaves one crossing: too few for the eta_n* step scan
    out = run_cli("conjectures", "--n-max", "0", "--output-dir", str(tmp_path),
                  "--beta-grid", "1:3:1")
    assert out.returncode == 1
    assert "computation failed" in out.stderr
    assert "Traceback" not in out.stderr


def test_conjecture_failure_exit_code(tmp_path: Path, monkeypatch):
    # a failing scan item must surface as exit code 2 for CI use
    from diskmag import cli
    from diskmag.config import SolverConfig
    from diskmag.derivatives import ConjectureReport, ScanItem

    failing = ConjectureReport((
        ScanItem("eta_below_theta0", False, 0.01, 5.0),
        ScanItem("eta_star_increasing", True, 0.01, 1.0),
    ))
    monkeypatch.setattr(cli, "conjecture_scan",
                        lambda *args, **kwargs: failing)
    config = SolverConfig(n_max=1, beta_grid_spec=(1.0, 3.0, 1.0),
                          output_dir=str(tmp_path))
    assert cli.cmd_conjectures(config) == 2
    payload = json.loads((tmp_path / "conjectures.json").read_text())
    assert payload["all_passed"] is False


def test_config_file_with_flag_override(tmp_path: Path):
    cfg = tmp_path / "solver.cfg"
    cfg.write_text("n_max = 2\noutput_dir = IGNORED\n# comment\n")
    out_dir = tmp_path / "out"
    out = run_cli("crossings", "--config", str(cfg),
                  "--output-dir", str(out_dir))
    assert out.returncode == 0, out.stderr
    lines = (out_dir / "table1_crossings.csv").read_text().splitlines()
    assert len(lines) == 4  # n_max from file, output dir from flag


def test_bad_config_key_exits_three(tmp_path: Path):
    cfg = tmp_path / "solver.cfg"
    cfg.write_text("no_such_knob = 3\n")
    assert run_cli("crossings", "--config", str(cfg)).returncode == 3


REMOVED_KEYS = [("eta_scan_step", "0.02"), ("eig_rel_tol", "1e-13"),
                ("series_rel_tol", "1e-16"), ("max_terms", "0"),
                ("quad_rel_tol", "1e-12"), ("cross_rel_tol", "1e-13"),
                ("newton_max_iter", "50"), ("fd_grid_count", "4001"),
                ("degennes_grid_count", "8001"), ("degennes_L", "15.0"),
                ("const_tol", "2e-3")]


@pytest.mark.parametrize("key, value", REMOVED_KEYS,
                         ids=[key for key, _ in REMOVED_KEYS])
def test_removed_scan_step_key_exits_three(tmp_path: Path, key, value):
    # none is a config key any more: the scan step, the ground-state tie
    # margin and every tolerance, budget and grid size are constants of
    # the module that uses them
    cfg = tmp_path / "solver.cfg"
    cfg.write_text(f"{key} = {value}\n")
    out = run_cli("crossings", "--config", str(cfg))
    assert out.returncode == 3
    assert key in out.stderr


def test_one_crossing_pass_per_process(tmp_path: Path, capsys, monkeypatch):
    # every subcommand that reads the crossings shares one memoized pass,
    # whatever its output directory and format: one cache miss, one
    # Newton solve per crossing
    from diskmag import cli, crossings

    solves, solve = [], crossings.crossing_by_system

    def counted(n, *args, **kwargs):
        solves.append(n)
        return solve(n, *args, **kwargs)

    monkeypatch.setattr(crossings, "crossing_by_system", counted)
    misses = crossings.crossings_range.cache_info().misses
    for command, out_dir, fmt in (("crossings", "a", "csv"),
                                  ("richardson", "b", "json"),
                                  ("derivatives", "a", "json"),
                                  ("conjectures", "b", "csv")):
        code = cli.main([command, "--n-max", "40", "--beta-grid", "5:20:5",
                         "--output-dir", str(tmp_path / out_dir),
                         "--format", fmt])
        assert code == 0, command
    assert crossings.crossings_range.cache_info().misses == misses + 1
    assert solves == list(range(41))
