import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diskmag import cli

from refdata import CROSSINGS, THETA0


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(*args: str) -> subprocess.CompletedProcess:
    # the package runs from src/ without an install, as under pytest itself
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return run_python("-m", "diskmag", *args)


def run_main(capsys, *args: str, code: int = 0) -> str:
    """Run ``cli.main`` in process, assert its exit code; return its stderr."""
    got = cli.main(list(args))
    err = capsys.readouterr().err
    assert got == code, err
    return err


def usage_error(capsys, *args: str) -> str:
    """Run ``cli.main`` in process on arguments it must refuse with exit
    code 3; return what it wrote to stderr."""
    with pytest.raises(SystemExit) as exit_info:
        cli.main(list(args))
    assert exit_info.value.code == 3
    return capsys.readouterr().err


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


def test_malformed_beta_grid_exits_three(capsys):
    for spec in ("1:2", "3:1:1", "nan:1:1", "0.5:inf:1", "-5:10:5"):
        err = usage_error(capsys, "curves", f"--beta-grid={spec}")
        assert "--beta-grid" in err and "Traceback" not in err, spec


def test_beta_grid_without_a_finite_count_exits_three(capsys):
    # (STOP - START)/STEP overflows to inf, and math.floor raised
    # OverflowError; a huge finite count is not tried: it builds the grid
    err = usage_error(capsys, "curves", "--beta-grid=0:1e300:1e-300")
    assert "--beta-grid" in err and "finite point count" in err


def test_subnormal_beta_exits_one(tmp_path: Path, capsys):
    # beta = 5e-324 halves to 0 in the ln nu solve, which once ended in a
    # ZeroDivisionError traceback; mode 1 is refused there, as at 1e-323
    err = run_main(capsys, "curves", "--n-max", "1", "--output-dir", str(tmp_path),
                   "--beta-grid", "5e-324:1:1", code=1)
    assert "computation failed" in err


@pytest.mark.parametrize("spec, count, last", [
    ("0.5:60:0.5", 120, 60.0), ("5:900:5", 180, 900.0),
    ("0.5:900:0.5", 1800, 900.0), ("0.1:0.7:0.2", 4, 0.1 + 3 * 0.2),
    ("0.5:1:0.3", 2, 0.8), ("60.5:900:20", 42, 880.5)])
def test_beta_grid_stops_at_stop(spec, count, last):
    # START + i STEP for every i that does not pass STOP by more than
    # rounding: 60.5:900:20 once ran on to 900.5 and 0.5:1:0.3 to 1.1
    betas = cli.build_parser().parse_args(["curves", "--beta-grid", spec]).beta_grid
    start, _, step = (float(p) for p in spec.split(":"))
    assert betas == [start + i * step for i in range(count)]
    assert betas[-1] == last


def test_crossings_outputs(tmp_path: Path, capsys):
    run_main(capsys, "crossings", "--n-max", "50", "--output-dir", str(tmp_path))
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
    # two processes: in one, the second run would read the memoized crossings
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("crossings", "--n-max", "4", "--output-dir", str(dir_a)).returncode == 0
    assert run_cli("crossings", "--n-max", "4", "--output-dir", str(dir_b)).returncode == 0
    for name in ("table1_crossings.csv", "table3_implicit.csv"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_csv_roundtrips_at_printed_precision(tmp_path: Path, capsys):
    run_main(capsys, "crossings", "--n-max", "3", "--output-dir", str(tmp_path))
    lines = (tmp_path / "table1_crossings.csv").read_text().splitlines()
    for line in lines[1:]:
        cells = line.split(",")
        assert f"{float(cells[1]):.16g}" == cells[1]
        assert f"{float(cells[2]):.16g}" == cells[2]


def test_json_format(tmp_path: Path, capsys):
    run_main(capsys, "crossings", "--n-max", "2", "--output-dir", str(tmp_path),
             "--format", "json")
    rows = json.loads((tmp_path / "table1_crossings.json").read_text())
    assert [row["n"] for row in rows] == [0, 1, 2]
    assert rows[0]["beta"] == pytest.approx(CROSSINGS[0][0], rel=1e-13)


def test_curves_outputs(tmp_path: Path, capsys):
    run_main(capsys, "curves", "--n-max", "20", "--output-dir", str(tmp_path),
             "--beta-grid", "0.5:30:0.5")
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


def r4_cells(capsys, out_dir: Path, n_max: int) -> tuple[list[str], dict]:
    """The richardson table's lines at n_max, and its r4_gamma cells by n."""
    run_main(capsys, "richardson", "--n-max", str(n_max), "--output-dir",
             str(out_dir))
    lines = (out_dir / "table2_gaps.csv").read_text().splitlines()
    return lines, {int(line.split(",")[0]): line.split(",")[2]
                   for line in lines[1:]}


def test_richardson_blank_pattern(tmp_path: Path, capsys):
    lines, cells = r4_cells(capsys, tmp_path / "40", 40)
    assert lines[0] == "n,gamma,r4_gamma"
    assert cells[0] == ""  # gamma_0 excluded from extrapolation
    assert cells[1] != "" and cells[2] != ""
    assert cells[3] == ""  # 16 * 3 = 48 > 40: consumed
    assert len(lines) == 41  # header + gamma_0 .. gamma_39
    # gamma_1 .. gamma_16 exist from n_max = 17: R4(1) is filled, and is
    # the same number as at n_max = 40
    _, cells20 = r4_cells(capsys, tmp_path / "20", 20)
    assert cells20[1] == cells[1]
    assert [n for n, cell in cells20.items() if cell] == [1]


def test_derivatives_table(tmp_path: Path, capsys):
    run_main(capsys, "derivatives", "--n-max", "20", "--output-dir", str(tmp_path))
    lines = (tmp_path / "table4_derivatives.csv").read_text().splitlines()
    rows = {int(line.split(",")[0]): line.split(",") for line in lines[1:]}
    assert sorted(rows) == list(range(11))  # rows capped by n_max
    assert float(rows[0][2]) == pytest.approx(0.884743, abs=1e-5)
    assert float(rows[0][3]) == pytest.approx(0.144907, abs=1e-5)
    assert rows[0][4] == ""  # n = 0 has no extrapolation partner
    assert rows[1][4] != ""  # chain 1..16 fits below n_max = 20
    assert rows[2][4] == ""  # chain needs 32


def test_constants_json(tmp_path: Path, capsys):
    run_main(capsys, "constants", "--output-dir", str(tmp_path))
    payload = json.loads((tmp_path / "constants.json").read_text())
    assert sorted(payload) == ["c0_fit", "c1", "delta0_fit", "delta0_formula",
                               "lambda1_check", "theta0", "u0_trace", "xi0"]
    assert payload["theta0"] == pytest.approx(THETA0, abs=1e-5)
    assert payload["xi0"] == pytest.approx(-0.768, abs=1e-3)
    assert payload["c1"] == pytest.approx(0.254, abs=1e-3)
    assert payload["delta0_fit"] == pytest.approx(payload["delta0_formula"],
                                                  abs=2e-3)


def test_conjectures_exit_code(tmp_path: Path, capsys):
    run_main(capsys, "conjectures", "--n-max", "6", "--output-dir", str(tmp_path),
             "--beta-grid", "1:18:1")
    payload = json.loads((tmp_path / "conjectures.json").read_text())
    assert payload["all_passed"] is True
    assert {item["name"] for item in payload["items"]} == {
        "eta_below_theta0", "eta_star_increasing",
        "right_derivative_positive", "lambda_slope_positive"}


def test_conjectures_single_crossing_exits_one(tmp_path: Path, capsys):
    # n_max = 0 leaves one crossing: too few for the eta_n* step scan
    err = run_main(capsys, "conjectures", "--n-max", "0", "--output-dir",
                   str(tmp_path), "--beta-grid", "1:3:1", code=1)
    assert "computation failed" in err
    assert "Traceback" not in err


def test_conjecture_failure_exit_code(tmp_path: Path, monkeypatch):
    # a failing scan item must surface as exit code 2 for CI use
    from diskmag.derivatives import ConjectureReport, ScanItem

    failing = ConjectureReport((
        ScanItem("eta_below_theta0", False, 0.01, 5.0),
        ScanItem("eta_star_increasing", True, 0.01, 1.0),
    ))
    monkeypatch.setattr(cli, "conjecture_scan",
                        lambda *args, **kwargs: failing)
    assert cli.main(["conjectures", "--n-max", "1", "--beta-grid", "1:3:1",
                     "--output-dir", str(tmp_path)]) == 2
    payload = json.loads((tmp_path / "conjectures.json").read_text())
    assert payload["all_passed"] is False


def test_config_file_with_flag_override(tmp_path: Path):
    opts = tmp_path / "opts.txt"
    opts.write_text(f"--n-max 2\n\n--output-dir {tmp_path / 'IGNORED'}\n")
    out_dir = tmp_path / "out"
    assert cli.main(["crossings", f"@{opts}", "--output-dir", str(out_dir)]) == 0
    lines = (out_dir / "table1_crossings.csv").read_text().splitlines()
    assert len(lines) == 4  # n_max from file, output dir from flag
    assert not (tmp_path / "IGNORED").exists()


def test_bad_config_key_exits_three(tmp_path: Path, capsys):
    opts = tmp_path / "opts.txt"
    opts.write_text("--no-such-knob=3\n")
    assert "--no-such-knob" in usage_error(capsys, "crossings", f"@{opts}")


def test_missing_option_file_exits_three(tmp_path: Path, capsys):
    assert "gone.txt" in usage_error(capsys, "crossings", f"@{tmp_path / 'gone.txt'}")


REMOVED_KEYS = [("eta_scan_step", "0.02"), ("eig_rel_tol", "1e-13"),
                ("series_rel_tol", "1e-16"), ("max_terms", "0"),
                ("quad_rel_tol", "1e-12"), ("cross_rel_tol", "1e-13"),
                ("newton_max_iter", "50"), ("fd_grid_count", "4001"),
                ("degennes_grid_count", "8001"), ("degennes_L", "15.0"),
                ("const_tol", "2e-3")]


@pytest.mark.parametrize("key, value", REMOVED_KEYS,
                         ids=[key for key, _ in REMOVED_KEYS])
def test_removed_scan_step_key_exits_three(tmp_path: Path, capsys, key, value):
    # none is a run option: the scan step, the ground-state tie margin
    # and every tolerance, budget and grid size are constants of the
    # module that uses them
    flag = "--" + key.replace("_", "-")
    opts = tmp_path / "opts.txt"
    opts.write_text(f"{flag} {value}\n")
    assert flag in usage_error(capsys, "crossings", f"@{opts}")


def test_option_file_exit_code_in_a_process(tmp_path: Path):
    opts = tmp_path / "opts.txt"
    opts.write_text("--n-max 2\n--eta-scan-step 0.02\n")
    out = run_cli("crossings", f"@{opts}", "--output-dir", str(tmp_path))
    assert out.returncode == 3
    assert "--eta-scan-step" in out.stderr


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
    # in-process tests above may have memoized crossings_range(40) already
    crossings.crossings_range.cache_clear()
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
