"""Compare the CSV outputs of two opfeyn run directories.

    python3 tools/report_diff.py DIR_A DIR_B

For each CSV file in either directory it prints "identical" when the two
files are byte-identical.  Otherwise it prints, per numeric column, the
largest absolute difference and the largest relative difference
|a - b| / max(|a|, |b|), and for a text column the number of cells that
differ.  When the first column holds text (the route of evaluate.csv, the
check of bounds.csv) the rows are grouped by it and each group is
reported on its own.  Files whose headers or row counts differ are
reported as such.  Exit status: 0 when every file is identical, 1
otherwise.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path


def _read(path: Path) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _column_diff(a: list[str], b: list[str]) -> str | None:
    """Summary of the differences in one column, None when it matches."""
    if a == b:
        return None
    xa, xb = [_number(c) for c in a], [_number(c) for c in b]
    numeric = [(x, y) for x, y, ca, cb in zip(xa, xb, a, b)
               if x is not None and y is not None]
    text = sum(ca != cb for x, y, ca, cb in zip(xa, xb, a, b)
               if x is None or y is None)
    parts = []
    if numeric:
        d_abs = max((abs(x - y) if x != y else 0.0) for x, y in numeric)
        d_rel = max((abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0)
                    for x, y in numeric)
        parts.append(f"max abs {d_abs:.3g}, max rel {d_rel:.3g}")
    if text:
        parts.append(f"{text} text cells differ")
    return ", ".join(parts)


def diff_file(path_a: Path, path_b: Path) -> list[str]:
    """Report lines for one CSV present in both directories."""
    if path_a.read_bytes() == path_b.read_bytes():
        return ["identical"]
    rows_a, rows_b = _read(path_a), _read(path_b)
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        return ["headers differ"]
    if len(rows_a) != len(rows_b):
        return [f"row counts differ ({len(rows_a) - 1} vs {len(rows_b) - 1})"]
    header, body_a, body_b = rows_a[0], rows_a[1:], rows_b[1:]
    keyed = any(_number(r[0]) is None for r in body_a + body_b)
    groups: dict[str, list[int]] = {}
    for i, (ra, rb) in enumerate(zip(body_a, body_b)):
        key = ""
        if keyed:
            key = f"{header[0]}={ra[0]}" if ra[0] == rb[0] else f"{header[0]} differs"
        groups.setdefault(key, []).append(i)
    lines = []
    for key, idx in groups.items():
        diffs = []
        for j, name in enumerate(header):
            d = _column_diff([body_a[i][j] for i in idx], [body_b[i][j] for i in idx])
            if d is not None:
                diffs.append(f"{name}: {d}")
        prefix = f"{key} " if key else ""
        lines.extend([prefix + d for d in diffs] or [prefix + "identical"])
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("dir_a", type=Path)
    p.add_argument("dir_b", type=Path)
    args = p.parse_args(argv)
    names = sorted({f.name for d in (args.dir_a, args.dir_b) for f in d.glob("*.csv")})
    same = True
    for name in names:
        a, b = args.dir_a / name, args.dir_b / name
        if not (a.is_file() and b.is_file()):
            print(f"{name}: only in {args.dir_a if a.is_file() else args.dir_b}")
            same = False
            continue
        lines = diff_file(a, b)
        if lines == ["identical"]:
            print(f"{name}: identical")
            continue
        same = False
        print(f"{name}:")
        for line in lines:
            print(f"  {line}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
