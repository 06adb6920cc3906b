#!/usr/bin/env python3
"""sha256 of every output file in a directory, and the cells that moved.

    python3 scripts/digests.py OUT                  # one digest per file
    python3 scripts/digests.py OUT --against PARENT_OUT

With ``--against`` each file is also compared with the file of the same
name under the second directory.  For CSV and JSON files whose digests
differ, every cell (a CSV row and column, a JSON leaf path) whose value
differs is listed with the value under ``--against``, the value under
the first directory and the relative change |new - old| / max(|new|,
|old|) when both parse as numbers.  Exit status is 1 when any file
differs or exists on one side only, else 0.
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


def _csv_cells(path: Path) -> dict[str, str]:
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    header = rows[0] if rows else []
    cells = {}
    for i, row in enumerate(rows[1:], start=1):
        key = f"row {i} ({header[0]}={row[0]})" if header and row else f"row {i}"
        for j, value in enumerate(row):
            column = header[j] if j < len(header) else str(j)
            cells[f"{key} {column}"] = value
    return cells


def _json_cells(node, prefix: str = "") -> dict[str, str]:
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return {prefix or "$": json.dumps(node)}
    cells = {}
    for key, child in items:
        cells.update(_json_cells(child, f"{prefix}/{key}"))
    return cells


def cells(path: Path) -> dict[str, str] | None:
    """Cell label -> text for a CSV or JSON file, else None."""
    if path.suffix == ".csv":
        return _csv_cells(path)
    if path.suffix == ".json":
        return _json_cells(json.loads(path.read_text()))
    return None


def relative_change(old: str, new: str) -> str:
    try:
        a, b = float(old), float(new)
    except ValueError:
        return "-"
    scale = max(abs(a), abs(b))
    return f"{abs(b - a) / scale:.2e}" if scale else "0"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("directory", type=Path)
    parser.add_argument("--against", type=Path, default=None,
                        help="directory to compare with (the old outputs)")
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
        for label in [*old_cells, *(k for k in new_cells if k not in old_cells)]:
            a, b = old_cells.get(label, "(missing)"), new_cells.get(label, "(missing)")
            if a != b:
                print(f"    {label}: {a} -> {b}  rel {relative_change(a, b)}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
