"""Synthesize and verify every a in [2, 1000], and record the results.

``synthesize`` requires every digit-orbit cycle of b_r/a to have length
M = pi(a) and raises ``SynthesisError`` otherwise.  This sweep backs that
requirement, and the paper's "for every fixed a" claim, over a range
wider than the tests cover.  For each a it synthesizes the spec, verifies
it against the big-integer oracle on [n0, n0 + 2M], and writes one row

    {"a", "M", "i0", "z", "cycles", "checked", "mismatches"}

to tests/data/period_sweep.json, where "i0" is the lowest position of
the z part (n0 = i0 + 1, so the window starts at the first n served),
"z" is the number of admissible residues and "cycles" the number of
digit-orbit cycles their b_r/a lie on.  A tier-1 test re-checks a seeded sample of the rows.

Usage, from the repository root (two worker processes):

    PYTHONPATH=src python scripts/period_sweep.py
"""

from __future__ import annotations

import json
import sys
import time
from multiprocessing import Pool
from pathlib import Path

from zeckinv import PatternSpec, synthesize, verify
from zeckinv.bigfib import fib_residues

A_MAX = 1000
OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "period_sweep.json"


def cycle_count(spec: PatternSpec) -> int:
    """Number of digit-orbit cycles the b_r/a of ``spec`` lie on.

    Each cycle holds exactly M/alpha distinct class starts b, with alpha
    the least j >= 1 with a | F_j, and every b_r is one of them
    (``zeckinv.pattern._orbit``), so the count is the number of distinct
    b times alpha/M.
    """
    alpha = next((j for j, f in enumerate(fib_residues(spec.a)) if j and not f), spec.M)
    return len({zc.b for zc in spec.z.values()}) * alpha // spec.M


def row(a: int) -> dict[str, int]:
    spec = synthesize(a)
    report = verify(spec, spec.n0, spec.n0 + 2 * spec.M)
    return {
        "a": a,
        "M": spec.M,
        "i0": spec.i0,
        "z": len(spec.z),
        "cycles": cycle_count(spec),
        "checked": report.checked,
        "mismatches": report.mismatches,
    }


def main() -> int:
    started = time.perf_counter()
    # Largest a first, so the slowest rows do not finish last.
    with Pool(2) as pool:
        rows = sorted(
            pool.imap_unordered(row, range(A_MAX, 1, -1)), key=lambda r: r["a"]
        )
    OUT.write_text(json.dumps(rows, separators=(",", ":")).replace("},", "},\n") + "\n")
    bad = [r["a"] for r in rows if r["mismatches"]]
    print(
        f"{len(rows)} rows, {sum(r['cycles'] for r in rows)} cycles, "
        f"mismatches at a={bad or 'none'}, {time.perf_counter() - started:.0f} s"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
