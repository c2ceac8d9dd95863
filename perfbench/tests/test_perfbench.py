"""Tests of the benchmark itself: manifest, tiny runs, inputs, failure counting.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import zeckinv.pattern  # noqa: E402

WORKLOADS = list(run.WORKLOADS)
NAMED = {
    "synth": ["synth_small_s", "synth_large_s"],
    "query": ["load_s", "eval_p50_ms", "eval_p95_ms"],
    "verify": ["verify_low_per_s", "verify_high_per_s"],
    "cli": ["cli_p50_ms", "cli_p90_ms"],
}


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_manifest_obeys_limits():
    m = run.MANIFEST
    assert set(m) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in m[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in m["workloads"])
    bounds = {x["name"]: x["bound"] for x in m["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())
    assert 1 <= len(m["per_layer"]) <= 128
    assert 2 <= len(m["workloads"]) <= 8


def test_manifest_lists_every_layer_metric():
    derived = set(tracer.layer_metrics([], {}))
    extra = {"cli.python_ms", "cli.import_ms", "trace_overhead"}
    assert derived | extra == {x["name"] for x in run.MANIFEST["per_layer"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", "0",
                 "--tiny")
    res = result_line(proc)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {x["name"] for x in run.MANIFEST["end_to_end"]}
    assert set(res["metrics"]) == want
    assert all(m["value"] > 0 for m in res["metrics"].values())
    for name in NAMED[workload] + ["failed_frac"]:
        assert f"{workload}.{name} = " in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_reports_every_layer_metric(workload):
    res = result_line(bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                            "--trace", "1", "--tiny"))
    assert res["correct"]
    assert set(res["metrics"]) == {x["name"] for x in run.MANIFEST["per_layer"]}
    assert res["metrics"]["pattern.synthesize.calls"]["value"] >= 1
    assert res["metrics"]["pattern.synthesize.M"]["value"] >= 1
    assert res["metrics"]["trace_overhead"]["value"] > 0


def test_same_seed_repeats_inputs_and_spec_sizes():
    records = []
    for seed in ("5", "5", "6"):
        result_line(bench("--workload", "synth", "--seed", seed, "--seconds", "0.3",
                          "--trace", "1", "--tiny"))
        path = BENCH / "out" / f"synth-seed{seed}-trace1.json"
        records.append(json.loads(path.read_text()))
    first, again, other = records
    assert first["inputs_sha256"] == again["inputs_sha256"] != other["inputs_sha256"]
    assert first["inputs"] == again["inputs"]
    assert first["spec_sizes"] == again["spec_sizes"]
    assert compare.compare({"synth": first}, {"synth": again}) == []


def test_compare_flags_kernel_mismatch():
    record = {"workload": "synth", "trace": 0, "inputs_sha256": "x", "metrics": {},
              "named": {}, "machine": {"using_compiled_kernel": False, "zeckinv_pure": ""}}
    other = dict(record, machine={"using_compiled_kernel": False, "zeckinv_pure": "1"})
    assert compare.compare({"k": record}, {"k": other})


def _zero_tails(real):
    def synthesize(a):
        spec = real(a)
        return dataclasses.replace(spec, tail={c: "0" * len(w) for c, w in spec.tail.items()})
    return synthesize


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tampered_tail_words_count_as_failures(workload, monkeypatch):
    monkeypatch.setattr(zeckinv.pattern, "synthesize", _zero_tails(zeckinv.pattern.synthesize))
    record = run.run_workload(workload, 4, 0.3, False, tiny=True)
    assert record["failed"] > 0
    assert 0 < record["failed_frac"] <= 1


def test_raising_operations_count_as_failures_and_end_the_run(monkeypatch):
    def evaluate(spec, n):
        raise RuntimeError("injected")

    monkeypatch.setattr(zeckinv.pattern, "evaluate", evaluate)
    record = run.run_workload("query", 4, 0.3, False, tiny=True)
    assert record["failed"] > 0
    assert any("injected" in f for f in record["failures"])


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "synth",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
