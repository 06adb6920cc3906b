import importlib.util
import json
from pathlib import Path

import pytest


def _script(name: str):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


digests = _script("digests")


@pytest.fixture
def two_dirs(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    (old / "t.csv").write_text("n,beta,eta\n0,3.0,0.5\n1,6.0,0.25\n2,9.0,0.1\n")
    (new / "t.csv").write_text("n,beta,eta\n0,3.0,0.5\n1,6.3,0.25\n2,9.9,0.1\n")
    report = {"items": [{"name": "a", "extremal": 1.0}, {"name": "b", "extremal": 4.0}],
              "theta0": 0.59}
    (old / "r.json").write_text(json.dumps(report))
    report["items"][0]["extremal"] = 1.5
    report["items"][1]["name"] = "c"
    (new / "r.json").write_text(json.dumps(report))
    (old / "same.json").write_text("[1, 2]")
    (new / "same.json").write_text("[1, 2]")
    return old, new


def test_summary_is_one_line_per_moved_column(two_dirs, capsys):
    old, new = two_dirs
    assert digests.main([str(new), "--against", str(old), "--summary"]) == 1
    lines = capsys.readouterr().out.splitlines()
    indented = [line.strip() for line in lines if line.startswith("    ")]
    # r.json is listed before t.csv; a JSON column collapses list indices
    assert indented == ["/items/*/extremal: 1 moved, max rel 3.33e-01",
                        "/items/*/name: 1 moved, max rel -",
                        "beta: 2 moved, max rel 9.09e-02"]
    assert any(line.endswith("same.json  identical") for line in lines)


def test_cells_are_listed_without_summary(two_dirs, capsys):
    old, new = two_dirs
    assert digests.main([str(new), "--against", str(old)]) == 1
    out = capsys.readouterr().out
    assert "    row 2 (n=1) beta: 6.0 -> 6.3  rel 4.76e-02" in out
    assert "    /items/0/extremal: 1.0 -> 1.5  rel 3.33e-01" in out
    assert digests.main([str(old), "--against", str(old)]) == 0


def test_quick_tables_write_every_output(tmp_path):
    # the byte-identity check compares these files; the quick run makes
    # each of them, from every stage, without an error
    assert _script("make_tables").run(str(tmp_path), quick=True) == 0
    names = sorted(path.name for path in tmp_path.iterdir())
    assert names == sorted(
        ["conjectures.json", "constants.json", "curve_references.csv",
         *(f"curve_n{n:02d}.csv" for n in range(21)),
         *(f"table{k}_{name}.csv" for k, name in
           enumerate(("crossings", "gaps", "implicit", "derivatives"), start=1))])
