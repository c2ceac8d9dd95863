#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for zeckinv.

Run from the root of a source checkout (the package is imported from src/):

    python3 perfbench/run.py --workload synth --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, each in a fresh process

One workload run prints its metrics by name and unit, then, as the last
line, one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1,
as BENCHMARK.json names them.
The generated inputs, machine and kernel info, the workload's named
metrics and any failures go to perfbench/out/<workload>-seed<N>-trace<T>.json;
a traced run also writes its spans to perfbench/out/trace-<workload>-seed<N>.json.gz.
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tr

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# Workloads, metric names, units and bounds are those of BENCHMARK.json.
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]


def manifest_metrics(section: str, values: dict) -> dict:
    """The metrics of ``section`` in BENCHMARK.json that have a value, with
    their units from there."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in MANIFEST[section] if m["name"] in values}


def machine_info() -> dict:
    import workloads as W

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        **W.kernel_info(),
    }


def interpreter_ms(code: str, repeats: int = 5) -> float:
    """Median wall time of ``python -c code`` in a fresh interpreter."""
    import workloads as W

    env, times = W.child_env(), []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       capture_output=True, timeout=60)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def trace_overhead(plain: dict, traced: dict) -> float:
    """Traced over untraced time, summed over the operations both halves
    ran, each taken at its fastest repeat (unscaled)."""
    common = plain.keys() & traced.keys()
    num = sum(min(traced[k]) for k in common)
    den = sum(min(plain[k]) for k in common)
    return num / den if den else float("nan")


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload in this process; returns the full record."""
    import workloads as W

    workdir = OUT_DIR / f"work-{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    tracer = tr.Tracer() if trace else None
    wl = W.WORKLOADS[name](seed, tiny, workdir, tracer)
    result: dict = {}
    named: dict = {}
    try:
        if trace:
            # Untraced half on a time budget, for trace_overhead; then every
            # operation once, traced, so that the layer totals describe a
            # fixed amount of work.
            with tracer.active():
                wl.setup(workdir / "setup-traced")
            wl.run_phases(seconds / 2)
            plain = wl.times(scaled=False)
            wl.samples.clear()
            with tracer.active():
                wl.run_once()
            wl.finish()
            spans = [tracer.spans] + getattr(wl, "child_spans", [])
            values = tr.layer_metrics(spans, tracer.sizes)
            values["cli.python_ms"] = interpreter_ms("pass")
            values["cli.import_ms"] = interpreter_ms("import zeckinv.cli")
            values["trace_overhead"] = trace_overhead(plain, wl.times(scaled=False))
            metrics = manifest_metrics("per_layer", values)
            result["spec_sizes"] = {str(a): list(v) for a, v in sorted(tracer.sizes.items())}
            OUT_DIR.mkdir(exist_ok=True)
            with gzip.open(OUT_DIR / f"trace-{name}-seed{seed}.json.gz", "wt") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "count"],
                           "processes": spans}, fh)
        else:
            wl.timed_setup()
            wl.run_phases(seconds, setups=W.SETUP_REPEATS - 1)
            values = {"peak_rss_mb": W.peak_rss_mb(wl.rss_of_children)}
            wl.finish()
            # Set-ups and operation repeats are each scaled by the
            # reference_loop timed around them.
            values["setup_s"] = statistics.median(
                t * W.REF_NOMINAL_S / ref for t, ref in wl.setup_s)
            try:
                generic, _ = wl.metrics(wl.times(scaled=True))
                raw, named = wl.metrics(wl.times(scaled=False))
            except (ValueError, IndexError, ZeroDivisionError):
                # some operation class never succeeded; failed > 0 says so
                generic, raw = {}, {}
            values.update(generic)
            metrics = manifest_metrics("end_to_end", values)
            named["setup_s_unscaled"] = (statistics.median(t for t, _ in wl.setup_s), "s")
            named.update({f"{k}_unscaled": (v, "ms") for k, v in raw.items()})
            named["reference_s"] = (statistics.median(wl.reference_s), "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update({
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "tiny": tiny,
        "machine": machine_info(),
        "inputs_sha256": hashlib.sha256(
            json.dumps(wl.inputs, sort_keys=True).encode()).hexdigest(),
        "inputs": wl.record(),
        "measured_s": wl.measured, "check_s": wl.check_s,
        "attempted": wl.attempted, "failed": wl.failed, "failures": wl.failures,
        "failed_frac": wl.failed / wl.attempted if wl.attempted else 1.0,
        "metrics": metrics,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
    })
    return result


def summary_line(record: dict) -> str:
    return json.dumps({
        "correct": record["failed"] == 0 and record["attempted"] > 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })


def print_record(record: dict) -> None:
    w = record["workload"]
    print(f"# workload={w} seed={record['seed']} trace={record['trace']} "
          f"inputs_sha256={record['inputs_sha256']}")
    for key in ("named", "metrics"):
        for name, m in record[key].items():
            print(f"{w}.{name} = {m['value']:.6g} {m['unit']}")
    print(f"{w}.failed_frac = {record['failed_frac']:.6g} ratio "
          f"({record['failed']} of {record['attempted']})")
    for line in record["failures"]:
        print(f"{w}: FAILED {line}")


def run_all(args) -> int:
    """Every workload, each in a fresh process, untraced then traced."""
    records = {}
    for name in WORKLOADS:
        for trace in ([0, 1] if args.trace else [0]):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
                return proc.returncode
            out = OUT_DIR / f"{name}-seed{args.seed}-trace{trace}.json"
            records[f"{name}-trace{trace}"] = json.loads(out.read_text())
    combined = {"seed": args.seed, "seconds": args.seconds, "machine": machine_info(),
                "runs": records}
    path = OUT_DIR / f"all-seed{args.seed}.json"
    path.write_text(json.dumps(combined, indent=1, sort_keys=True))
    print(f"# wrote {path.relative_to(ROOT)}")
    return 0 if all(r["failed"] == 0 for r in records.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=MANIFEST["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input set (for the benchmark's own tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "zeckinv" / "__init__.py").is_file():
        print(f"error: no zeckinv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload is None:
        return run_all(args)

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True))
    print_record(record)
    print(summary_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
