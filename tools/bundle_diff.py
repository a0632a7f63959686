"""Print the largest numeric change in every file that two bundle trees share.

Usage:

    python tools/bundle_diff.py DIR_A DIR_B

Walks DIR_A, and for every file that also exists at the same relative
path under DIR_B prints one line:

    path  max_abs=...  max_rel=... in FIELD  (n values)

over the numeric cells of a CSV file (row by row, column by column) or
the numeric leaves of a JSON file (matched by key path).  ``max_rel`` is
the largest |b - a| of a CSV column or JSON leaf divided by the largest
|a| of that column or leaf, so cells that are zero up to rounding (a
leakage of 1e-20, say) do not swamp it; FIELD names that CSV column or
JSON key path (``/adiabaticity/segments[1]/fom_internal``, say), and is
left out when no value changed.  Files whose bytes are equal
print ``identical``; a CSV file with another header or row count prints
that instead of numbers, and JSON keys in one file only or changed text
leaves are counted after the numbers.  Files present in only one tree are listed at the end.  Run it
on two ``tools/bundle_digests.py`` output directories to state the
largest change in every bundle whose digest moves.
"""
from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path


def _csv_values(path: Path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0] if rows else [], rows[1:]


def _number(value) -> float | None:
    """A CSV cell or JSON leaf as a float; None if it is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return None
    try:
        return float(value)
    except ValueError:
        return None


def _json_leaves(node, prefix: str = ""):
    """Yield (key path, leaf) for every leaf of a JSON document."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _json_leaves(node[key], f"{prefix}/{key}")
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _json_leaves(item, f"{prefix}[{i}]")
    else:
        yield prefix, node


def _pairs(path_a: Path, path_b: Path) -> tuple[list[tuple[object, float, float]], list[str]]:
    """Numeric (column name or key path, a, b) triples of two files and a
    list of the other differences."""
    if path_a.suffix == ".csv":
        (head_a, rows_a), (head_b, rows_b) = _csv_values(path_a), _csv_values(path_b)
        if head_a != head_b or len(rows_a) != len(rows_b):
            return [], [f"header or row count differs ({len(rows_a)} vs {len(rows_b)} rows)"]
        cells, lone = [(col, x, y) for ra, rb in zip(rows_a, rows_b) for col, x, y in zip(head_a, ra, rb)], []
    elif path_a.suffix == ".json":
        leaves_a = dict(_json_leaves(json.loads(path_a.read_text(encoding="utf-8"))))
        leaves_b = dict(_json_leaves(json.loads(path_b.read_text(encoding="utf-8"))))
        cells = [(k, leaves_a[k], leaves_b[k]) for k in leaves_a if k in leaves_b]
        lone = sorted(leaves_a.keys() ^ leaves_b.keys())
    else:
        return [], ["not CSV or JSON"]
    pairs, other = [], [f"key {key} in one file only" for key in lone]
    for key, x, y in cells:
        a, b = _number(x), _number(y)
        if a is not None and b is not None:
            pairs.append((key, a, b))
        elif x != y:
            other.append(f"{x!r} -> {y!r}")
    return pairs, other


def compare(path_a: Path, path_b: Path) -> str:
    if path_a.read_bytes() == path_b.read_bytes():
        return "identical"
    pairs, other = _pairs(path_a, path_b)
    if not pairs and other:
        return "; ".join(other[:3])
    change, scale = {}, {}
    for key, a, b in pairs:
        change[key] = max(change.get(key, 0.0), abs(b - a))
        scale[key] = max(scale.get(key, 0.0), abs(a))
    max_abs = max(change.values(), default=0.0)
    rel = {k: change[k] / scale[k] for k in change if 0.0 < scale[k] < math.inf}
    field = max(rel, key=rel.get, default=None)
    max_rel = rel.get(field, 0.0)
    where = f" in {field}" if max_rel > 0.0 else ""
    line = f"max_abs={max_abs:.3g}  max_rel={max_rel:.3g}{where}  ({len(pairs)} values)"
    if other:
        line += f"; {len(other)} other differences, e.g. {other[0]}"
    return line


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/bundle_diff.py DIR_A DIR_B", file=sys.stderr)
        return 2
    root_a, root_b = Path(argv[0]), Path(argv[1])
    files_a = {p.relative_to(root_a) for p in root_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(root_b) for p in root_b.rglob("*") if p.is_file()}
    for rel in sorted(files_a & files_b):
        print(f"{rel}  {compare(root_a / rel, root_b / rel)}")
    for rel in sorted(files_a ^ files_b):
        print(f"{rel}  only in {root_a if rel in files_a else root_b}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
