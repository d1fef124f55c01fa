"""Print how far the data files of two output trees differ.

Usage: python .github/output_differences.py BASE_DIR HEAD_DIR

For each CSV or JSON file that differs between the trees (the echoed
``effective_config.ini`` aside), print the largest relative difference
|a - b| / max(|a|, |b|) between the numbers at the same CSV cell or JSON
leaf, and where it is.  A file whose cells or leaves do not line up, a file
of another kind and a file on one side only are named as such.  This only
reports; it exits 0 whatever it finds.
"""

import csv
import json
import math
import sys
from pathlib import Path


def relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def number(value):
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def leaves(doc, at=""):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from leaves(value, f"{at}/{key}")
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from leaves(value, f"{at}[{i}]")
    else:
        yield at, doc


def cells(path: Path):
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.reader(fh)):
            for j, cell in enumerate(row):
                yield f"line {i + 1} column {j + 1}", cell


def entries(path: Path):
    if path.suffix == ".json":
        return list(leaves(json.loads(path.read_text())))
    if path.suffix == ".csv":
        return list(cells(path))
    return None


def compare(old: Path, new: Path) -> str:
    a, b = entries(old), entries(new)
    if a is None:
        return "differs (neither CSV nor JSON)"
    if [at for at, _ in a] != [at for at, _ in b]:
        return "differs in layout (cells or leaves do not line up)"
    worst, where, texts = 0.0, None, 0
    for (at, x), (_, y) in zip(a, b):
        if x == y:
            continue
        fx, fy = number(x), number(y)
        if fx is None or fy is None:
            texts += 1
            continue
        gap = relative(fx, fy)
        if where is None or gap > worst:
            worst, where = gap, at
    text = f"; {texts} non-numeric values differ" if texts else ""
    if where is None:
        return f"no number differs{text}"
    return f"largest relative difference {worst:.3g} at {where}{text}"


def main(base: Path, head: Path) -> None:
    def files(root):
        return {p.relative_to(root) for p in root.rglob("*")
                if p.is_file() and p.name != "effective_config.ini"}

    old, new = files(base), files(head)
    for rel in sorted(old | new):
        if rel not in new or rel not in old:
            print(f"{rel}: only in {'base' if rel in old else 'head'}")
        elif (base / rel).read_bytes() != (head / rel).read_bytes():
            print(f"{rel}: {compare(base / rel, head / rel)}")


if __name__ == "__main__":
    main(Path(sys.argv[1]), Path(sys.argv[2]))
