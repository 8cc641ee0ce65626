"""Compare two results files written by run.py (for example parent vs change).

Usage: python3 perfbench/compare.py BASE.json CHANGED.json

Refuses (exit 3) when the two runs differ in workload, seed or
environment stamp: a new numpy, numba appearing, or another CPU would
read as a code change.  Exits 1 when any request's exit code or output
digest differs, else prints each metric's ratio CHANGED / BASE and
exits 0.
"""
from __future__ import annotations

import json
import sys


def compare(base: dict, changed: dict) -> tuple[int, list[str]]:
    lines = []
    for key in ("workload", "seed", "stamp"):
        if base[key] != changed[key]:
            return 3, [f"refusing to compare: {key} differs: {base[key]} vs {changed[key]}"]
    bad = sorted(
        rid
        for rid in set(base["digests"]) | set(changed["digests"])
        if base["digests"].get(rid) != changed["digests"].get(rid)
    )
    for rid in bad:
        lines.append(f"output differs: {rid}")
    for group in ("end_to_end", "per_layer"):
        for name, a in base[group].items():
            b = changed[group].get(name)
            if b is None:
                continue
            ratio = f"{b / a:.3f}" if a else "n/a"
            lines.append(f"{name:<36} {a:>14.6g} {b:>14.6g}  x{ratio}")
    return (1 if bad else 0), lines


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    code, lines = compare(*docs)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
