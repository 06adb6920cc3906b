#!/usr/bin/env python3
"""sha256 of every output file in a directory, and the cells that moved.

    python3 scripts/digests.py OUT                  # one digest per file
    python3 scripts/digests.py OUT --against PARENT_OUT
    python3 scripts/digests.py OUT --against PARENT_OUT --summary

With ``--against`` each file is also compared with the file of the same
name under the second directory.  For CSV and JSON files whose digests
differ, every cell (a CSV row and column, a JSON leaf path) whose value
differs is listed with the value under ``--against``, the value under
the first directory and the relative change |new - old| / max(|new|,
|old|) when both parse as numbers.  With ``--summary`` the cells are not
listed; each column instead gets one line with the number of cells that
moved and the largest relative change among them.  A CSV column is keyed
by its header, a JSON column by its leaf path with list indices
collapsed to ``*``.  Exit status is 1 when any file differs or exists on
one side only, else 0.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv_cells(path: Path) -> dict[str, tuple[str, str]]:
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    header = rows[0] if rows else []
    cells = {}
    for i, row in enumerate(rows[1:], start=1):
        key = f"row {i} ({header[0]}={row[0]})" if header and row else f"row {i}"
        for j, value in enumerate(row):
            column = header[j] if j < len(header) else str(j)
            cells[f"{key} {column}"] = (column, value)
    return cells


def _json_cells(node, prefix: str = "", column: str = "") -> dict[str, tuple[str, str]]:
    if isinstance(node, dict):
        items = [(key, key, child) for key, child in node.items()]
    elif isinstance(node, list):
        items = [(i, "*", child) for i, child in enumerate(node)]
    else:
        return {prefix or "$": (column or "$", json.dumps(node))}
    cells = {}
    for key, name, child in items:
        cells.update(_json_cells(child, f"{prefix}/{key}", f"{column}/{name}"))
    return cells


def cells(path: Path) -> dict[str, tuple[str, str]] | None:
    """Cell label -> (column, text) for a CSV or JSON file, else None."""
    if path.suffix == ".csv":
        return _csv_cells(path)
    if path.suffix == ".json":
        return _json_cells(json.loads(path.read_text()))
    return None


def relative_change(old: str, new: str) -> float | None:
    """|new - old| / max(|new|, |old|), or None unless both are numbers."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return None
    scale = max(abs(a), abs(b))
    return abs(b - a) / scale if scale else 0.0


def _rel_text(rel: float | None) -> str:
    return "-" if rel is None else f"{rel:.2e}"


def moved_cells(old_cells, new_cells) -> list[tuple[str, str, str, str]]:
    """(label, column, old text, new text) of every cell that differs."""
    moved = []
    for label in [*old_cells, *(k for k in new_cells if k not in old_cells)]:
        column, a = old_cells.get(label, (None, "(missing)"))
        column, b = new_cells.get(label, (column, "(missing)"))
        if a != b:
            moved.append((label, column, a, b))
    return moved


def summarize(moved) -> dict[str, tuple[int, float | None]]:
    """Column -> (cells moved, largest relative change; None if no moved
    cell of the column parses as a number on both sides)."""
    out: dict[str, tuple[int, float | None]] = {}
    for _, column, a, b in moved:
        count, worst = out.get(column, (0, None))
        rel = relative_change(a, b)
        if rel is not None:
            worst = rel if worst is None else max(worst, rel)
        out[column] = (count + 1, worst)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("directory", type=Path)
    parser.add_argument("--against", type=Path, default=None,
                        help="directory to compare with (the old outputs)")
    parser.add_argument("--summary", action="store_true",
                        help="with --against: one line per moved column, "
                             "not per cell")
    args = parser.parse_args(argv)

    names = {p.name for p in args.directory.iterdir() if p.is_file()}
    if args.against is not None:
        names |= {p.name for p in args.against.iterdir() if p.is_file()}
    differs = False
    for name in sorted(names):
        new = args.directory / name
        old = args.against / name if args.against is not None else None
        digest = sha256(new) if new.is_file() else "(missing)"
        if old is None:
            print(f"{digest}  {name}")
            continue
        old_digest = sha256(old) if old.is_file() else "(missing)"
        if digest == old_digest:
            print(f"{digest}  {name}  identical")
            continue
        differs = True
        print(f"{digest}  {name}  differs (was {old_digest})")
        if not (new.is_file() and old.is_file()):
            continue
        new_cells, old_cells = cells(new), cells(old)
        if new_cells is None:
            continue
        moved = moved_cells(old_cells, new_cells)
        if args.summary:
            for column, (count, worst) in summarize(moved).items():
                print(f"    {column}: {count} moved, max rel {_rel_text(worst)}")
            continue
        for label, _, a, b in moved:
            print(f"    {label}: {a} -> {b}  rel {_rel_text(relative_change(a, b))}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
