#!/usr/bin/env python3
"""Compare two benchmark result files.

Usage: python3 perfbench/compare.py BASE.json NEW.json

Each file is either one workload record written by run.py
(perfbench/out/<workload>-seed<N>-trace<T>.json) or the combined
perfbench/out/all-seed<N>.json.  Prints base, new and new/base for every
metric of every run present in both.  Exits with 1, after printing, when
the two sides selected different digit kernels (USING_COMPILED_KERNEL or
ZECKINV_PURE differ), or when runs on identical inputs report different
spec-size counts, which must repeat exactly.
"""

from __future__ import annotations

import json
import sys


def runs(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if "runs" in data:
        return data["runs"]
    return {f"{data['workload']}-trace{data['trace']}": data}


def compare(base: dict, new: dict) -> list[str]:
    """Print the table; return the problems that make the comparison invalid."""
    problems = []
    for key in sorted(base.keys() & new.keys()):
        b, n = base[key], new[key]
        for field in ("using_compiled_kernel", "zeckinv_pure"):
            if b["machine"].get(field) != n["machine"].get(field):
                problems.append(f"{key}: kernel selection differs "
                                f"({field}: {b['machine'].get(field)!r} vs {n['machine'].get(field)!r})")
        if (b["inputs_sha256"] == n["inputs_sha256"] and "spec_sizes" in b and "spec_sizes" in n
                and b["spec_sizes"] != n["spec_sizes"]):
            problems.append(f"{key}: same inputs but different spec-size counts")
        for section in ("metrics", "named"):
            for name in b[section].keys() & n[section].keys():
                bv, nv = b[section][name]["value"], n[section][name]["value"]
                ratio = f"{nv / bv:8.3f}" if bv else "       -"
                print(f"{key:14s} {name:36s} {bv:14.6g} {nv:14.6g} {ratio}  "
                      f"{b[section][name]['unit']}")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    problems = compare(runs(argv[0]), runs(argv[1]))
    for p in problems:
        print(f"INVALID COMPARISON: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
