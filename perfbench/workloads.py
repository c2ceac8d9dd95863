"""The four workloads: set-up, timed phases, output checks and metrics.

Each workload runs in one process as a closed loop with one caller: the
next operation starts when the previous one has returned.  Every timed
operation is checked outside its timed region; the first output for a
key is checked in full, later outputs of the same key must equal it.
"""

from __future__ import annotations

import importlib
import json
import math
import operator
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import inputs as inp
import tracer as tr
import zeckinv
import zeckinv.cli  # noqa: F401  (its import cost belongs to the CLI layer)
from zeckinv import inverse as I
from zeckinv import pattern as P
from zeckinv import zeckendorf as Z

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5  # set-ups per untraced run, spread over the run
TURNS = 20  # rotations of the phases per run

# About the fastest time of reference_loop on the 2-vCPU host the bounds
# were set on.  End-to-end times are scaled by REF_NOMINAL_S / (the
# reference_loop time around them), which takes out the host's speed
# drift; see README.md.
REF_NOMINAL_S = 0.004

# Primes below 2^16; sums of Fibonacci residues are compared modulo their
# product, which is the same as comparing modulo each of them.
CHECK_PRIMES = (65521, 65519, 65497)
CHECK_MODULUS = math.prod(CHECK_PRIMES)
ORACLE_MAX_N = 30000


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _fib_by_addition(n: int) -> int:
    x, y = 0, 1
    for _ in range(n):
        x, y = y, x + y
    return x


_REF_MODULUS = _fib_by_addition(20001)  # F_n is a multiple of 7 only when 8 | n


def reference_loop() -> int:
    """Fixed pure-Python work that no change to zeckinv can speed up or slow
    down, in the mix the workloads do: big-integer additions, a modular
    inverse modulo a 14000-bit Fibonacci number, and lists and dicts of
    small integers.  The containers are built small and often, so that the
    loop adds little to the peak RSS of the process."""
    total = _fib_by_addition(6000) + pow(7, -1, _REF_MODULUS)
    for _ in range(10):
        values = [i * 3 for i in range(6000)]
        table = {i: i for i in range(2000)}
        total += sum(values) + len(table)
    return total


def reference_time() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def fresh_import() -> None:
    """Import the zeckinv package anew, running all its module-level code,
    then put the modules in use back, so that nothing that holds them sees
    a change."""
    def ours(name):
        return name == "zeckinv" or name.startswith("zeckinv.")

    saved = {k: v for k, v in sys.modules.items() if ours(k)}
    for k in saved:
        del sys.modules[k]
    try:
        importlib.import_module("zeckinv.cli")
    finally:
        for k in [k for k in sys.modules if ours(k)]:
            del sys.modules[k]
        sys.modules.update(saved)


def admissible_count(a: int, lo: int, hi: int) -> int:
    return sum(inp.admissible(a, n) for n in range(lo, hi + 1))


class Workload:
    name = ""
    rss_of_children = False  # peak RSS of the child processes, not of this one

    def __init__(self, seed: int, tiny: bool, workdir: Path, tracer: tr.Tracer | None = None):
        self.seed, self.tiny, self.workdir, self.tracer = seed, tiny, workdir, tracer
        self.inputs = inp.INPUTS[self.name](seed, tiny)
        # (seconds, index into reference_s of the turn it ran in) per repeat
        self.samples: dict[tuple[str, object], list[tuple[float, int]]] = defaultdict(list)
        self.digests: dict[object, object] = {}
        self.seen: dict[object, int] = defaultdict(int)
        self.measured = 0.0
        self.check_s = 0.0
        self.reference_s: list[float] = []
        self.setup_s: list[tuple[float, float]] = []  # (set-up, reference_loop) seconds
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    # -- bookkeeping -------------------------------------------------------

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def timed(self, cls: str, key, fn, *args):
        """Run fn(*args) as one timed operation; None if it raised."""
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failing operation is counted, the run goes on
            self.attempted += 1
            self.fail(f"{cls} {key}: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        self.samples[(cls, key)].append((elapsed, len(self.reference_s) - 1))
        self.measured += elapsed
        return result

    def check(self, key, result, digest, full_check) -> None:
        """Count one checked output.  ``full_check(result)`` runs the first
        time ``key`` is seen; later results must have the same digest."""
        started = time.perf_counter()
        try:
            self._check(key, result, digest, full_check)
        finally:
            self.check_s += time.perf_counter() - started

    def _check(self, key, result, digest, full_check) -> None:
        self.attempted += 1
        self.seen[key] += 1
        d = digest(result)
        if key in self.digests:
            ok = self.digests[key] == d
        else:
            with self.paused():
                try:
                    ok = full_check(result)
                except Exception as exc:  # a check that cannot complete is a failure
                    self.fail(f"check of {key} raised {type(exc).__name__}: {exc}")
                    return
            if ok:
                self.digests[key] = d
        if not ok:
            self.fail(f"wrong output for {key}")

    @contextmanager
    def paused(self):
        """Stop recording spans, so that checks stay out of the trace."""
        was = self.tracer is not None and self.tracer.enabled
        if was:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if was:
                self.tracer.enabled = True

    def times(self, scaled: bool) -> dict:
        """Seconds of every repeat, by (class, key).  Scaled, each repeat is
        multiplied by REF_NOMINAL_S over the faster reference_loop of the
        turns it ran in and after: the host's speed where it ran."""
        if not scaled:
            return {k: [t for t, _ in v] for k, v in self.samples.items()}
        refs = self.reference_s
        return {k: [t * REF_NOMINAL_S / min(refs[i:i + 2]) for t, i in v]
                for k, v in self.samples.items()}

    @staticmethod
    def key_times(times: dict, cls: str) -> dict:
        """Seconds per operation of class ``cls``: the median of its
        repeats.  An operation is deterministic, so the spread of its
        repeats is interference from outside the process."""
        return {k: statistics.median(v) for (c, k), v in times.items() if c == cls}

    # -- running ---------------------------------------------------------------

    def setup(self, directory: Path) -> None:
        """The program's work before the timed operations can start: a fresh
        import of the package, and whatever the workload needs on disk."""
        fresh_import()
        directory.mkdir(parents=True)
        self.dir = directory

    def timed_setup(self) -> None:
        """One set-up into a new directory, timed together with
        reference_loop just before and after it, so that each set-up can be
        scaled by the host's speed at that moment."""
        before = reference_time()
        start = time.perf_counter()
        self.setup(self.workdir / f"setup-{len(self.setup_s)}")
        elapsed = time.perf_counter() - start
        after = reference_time()
        self.reference_s += [before, after]
        self.setup_s.append((elapsed, min(before, after)))

    def phases(self) -> list[tuple[str, float, list]]:
        """(name, share of the run, operations)."""
        raise NotImplementedError

    def run_once(self) -> None:
        """Every operation of ``trace_ops`` once, in order: fixed work."""
        for op in self.trace_ops():
            op()

    def trace_ops(self) -> list:
        """The operations of a traced run: every operation of every phase."""
        return [op for _, _, ops in self.phases() for op in ops]

    def run_phases(self, seconds: float, setups: int = 0) -> None:
        """Run the phases in rotation, each for its share of a slice of
        measured time per turn, until each has used its share of
        ``seconds``; so every phase samples the whole run.  Operations of a
        phase run in order, wrapping around; a turn runs at least one.  A
        wall-clock limit ends the run if operations keep failing.  Each turn
        also times reference_loop, outside the measured time.  ``setups``
        more timed set-ups are spread evenly over the turns."""
        phases = [[ops, share, seconds * share, 0] for _, share, ops in self.phases()]
        slice_s = max(seconds / TURNS, 1e-3)
        every = TURNS // setups if setups else 0
        wall_end = time.monotonic() + 3 * seconds + 10
        turn = 0
        while time.monotonic() < wall_end:
            active = [p for p in phases if p[2] > 0]
            if not active:
                break
            turn += 1
            if every and turn % every == 0 and setups:
                self.timed_setup()
                setups -= 1
            for p in active:
                ops, share = p[0], p[1]
                self.reference_s.append(reference_time())
                start = self.measured
                while True:
                    ops[p[3] % len(ops)]()
                    p[3] += 1
                    if (self.measured - start >= share * slice_s
                            or time.monotonic() > wall_end):
                        break
                p[2] -= self.measured - start
        for _ in range(setups):
            self.timed_setup()

    def finish(self) -> None:
        """Checks left until after peak RSS has been read."""

    def metrics(self, times: dict) -> tuple[dict, dict]:
        """(light_ms, heavy_ms, load_ms) and the named metrics, from the
        repeat times ``times`` gives."""
        raise NotImplementedError

    def record(self) -> dict:
        return self.inputs


# --------------------------------------------------------------------------


class SpecWorkload(Workload):
    """Shared by the workloads that synthesize and save specs in set-up."""

    def setup(self, directory: Path) -> None:
        super().setup(directory)
        self.specs = {}
        self.paths = {}
        for case in self.inputs["specs"]:
            a = case["a"]
            self.specs[a] = P.synthesize(a)
            self.paths[a] = str(directory / f"{a}.json")
            P.save_pattern(self.specs[a], self.paths[a])

    def load_op(self, a):
        def op():
            spec = self.timed("load", a, P.load_pattern, self.paths[a])
            if spec is not None:
                same = lambda s: s == self.specs[a]  # noqa: E731
                self.check(("load", a), spec, same, same)
        return op


class Synth(Workload):
    """Synthesize and save each sampled a, then load the file back."""

    name = "synth"

    def op(self, case: dict):
        a, band = case["a"], case["band"]
        path = str(self.dir / f"{a}.json")

        def synth_save(a):
            spec = P.synthesize(a)
            P.save_pattern(spec, path)
            return spec

        def digest(_):
            with open(path, "rb") as fh:
                return fh.read()

        def full_check(spec):
            text = digest(spec).decode()
            again = json.dumps(P.to_json_dict(P.from_json_dict(json.loads(text))),
                               sort_keys=True, indent=2) + "\n"
            if again != text or spec.a != a or spec.M != case["M"]:
                return False
            hi = spec.n0 + min(spec.tail_period, 600) - 1
            report = P.verify(spec, spec.n0, hi)
            return report.mismatches == 0 and report.checked == admissible_count(a, spec.n0, hi)

        def run():
            spec = self.timed(band, a, synth_save, a)
            if spec is None:
                return
            self.check((band, a), spec, digest, full_check)
            loaded = self.timed("load", a, P.load_pattern, path)
            if loaded is not None:
                same = lambda s: s == spec  # noqa: E731
                self.check(("load", a), loaded, same, same)

        return run

    def phases(self):
        small = [self.op(c) for c in self.inputs["specs"] if c["band"] == "small"]
        large = [self.op(c) for c in self.inputs["specs"] if c["band"] == "large"]
        return [("small", 0.35, small), ("large", 0.65, large)]

    def metrics(self, times):
        small, large = self.key_times(times, "small"), self.key_times(times, "large")
        loads = self.key_times(times, "load")
        generic = {
            "light_ms": 1e3 * statistics.fmean(small.values()),
            "heavy_ms": 1e3 * statistics.fmean(large.values()),
            "load_ms": 1e3 * statistics.fmean(loads.values()),
        }
        named = {
            "synth_small_s": (sum(small.values()), "s"),
            "synth_large_s": (sum(large.values()), "s"),
            "synth_small_count": (len(small), "count"),
            "synth_large_count": (len(large), "count"),
        }
        return generic, named


class Query(SpecWorkload):
    """Load every saved spec, then evaluate at seeded admissible n."""

    name = "query"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.deferred: list[tuple[int, int, int]] = []  # (key, a, n)

    def residue_check(self, table: array, a: int, n: int, indices: tuple[int, ...]) -> bool:
        """sum F_i over the indices against (b*F_n + 1)/a with
        b = -F_n^-1 mod a, both modulo CHECK_MODULUS; no big integer is formed."""
        total = sum(map(table.__getitem__, indices))
        b = (-pow(inp.fib_mod(n, a), -1, a)) % a
        want = (b * table[n] + 1) * pow(a, -1, CHECK_MODULUS)
        return (total - want) % CHECK_MODULUS == 0

    def eval_op(self, k: int, a: int, n: int):
        def full_check(rep):
            idx = rep.indices
            if not idx or idx[-1] < 2 or min(map(operator.sub, idx, idx[1:]), default=2) < 2:
                return False
            if n <= ORACLE_MAX_N:
                return Z.encode(I.inverse_oracle(a, n)).indices == idx
            self.deferred.append((k, a, n))
            return True

        def run():
            rep = self.timed("eval", k, P.evaluate, self.specs[a], n)
            if rep is not None:
                self.check(("eval", k), rep, lambda r: hash(r.indices), full_check)

        return run

    def finish(self) -> None:
        """Residue checks of the results with n > ORACLE_MAX_N.  Their table
        of F_i mod CHECK_MODULUS holds one entry per i up to the largest n,
        so they wait until peak RSS has been read.  Each result is computed
        again, untimed, and must match the digest of the timed ones; a
        wrong result counts once for every time it was returned."""
        if not self.deferred:
            return
        started = time.perf_counter()
        table = array("q", [0, 1])
        x, y = 0, 1
        for _ in range(max(n for _, _, n in self.deferred)):
            x, y = y, (x + y) % CHECK_MODULUS
            table.append(y)
        for k, a, n in self.deferred:
            key = ("eval", k)
            idx = P.evaluate(self.specs[a], n).indices
            if hash(idx) != self.digests[key] or not self.residue_check(table, a, n, idx):
                self.failed += self.seen[key] - 1
                self.fail(f"wrong output for {key}")
        self.check_s += time.perf_counter() - started

    def phases(self):
        loads = [self.load_op(a) for a in self.specs]
        evals = [self.eval_op(k, a, n) for k, (a, n) in enumerate(self.inputs["queries"])]
        return [("load", 0.15, loads), ("eval", 0.85, evals)]

    def metrics(self, times):
        evals = list(self.key_times(times, "eval").values())
        loads = self.key_times(times, "load")
        p50, p95 = percentile(evals, 0.50), percentile(evals, 0.95)
        generic = {"light_ms": 1e3 * p50, "heavy_ms": 1e3 * p95,
                   "load_ms": 1e3 * statistics.fmean(loads.values())}
        named = {
            "load_s": (sum(loads.values()), "s"),
            "eval_p50_ms": (1e3 * p50, "ms"),
            "eval_p95_ms": (1e3 * p95, "ms"),
            "eval_count": (len(evals), "count"),
        }
        return generic, named


class Verify(SpecWorkload):
    """Oracle-checked verify() windows: at n0 (low) and at n ~ 1.5-3*10^4
    (high)."""

    name = "verify"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checked: dict[tuple, int] = {}

    def setup(self, directory: Path) -> None:
        super().setup(directory)
        width = self.inputs["low_width"]
        self.low = [[a, s.n0, s.n0 + width - 1] for a, s in self.specs.items()]

    def window_op(self, cls: str, a: int, lo: int, hi: int):
        key = (cls, a, lo)

        def full_check(report):
            want = admissible_count(a, lo, hi)
            self.checked[key] = want
            return report.mismatches == 0 and report.checked == want

        def run():
            report = self.timed(cls, key, P.verify, self.specs[a], lo, hi)
            if report is not None:
                self.check(key, report,
                           lambda r: (r.checked, r.mismatches, r.first_mismatch), full_check)

        return run

    def phases(self):
        loads = [self.load_op(a) for a in self.specs]
        low = [self.window_op("low", *w) for w in self.low]
        high = [self.window_op("high", *w) for w in self.inputs["high_windows"]]
        return [("load", 0.1, loads), ("low", 0.3, low),
                ("high", 0.6, high)]

    def ms_per_n(self, times: dict, cls: str) -> float:
        per_key = self.key_times(times, cls)
        return 1e3 * sum(per_key.values()) / sum(self.checked.get(k, 0) for k in per_key)

    def metrics(self, times):
        low, high = self.ms_per_n(times, "low"), self.ms_per_n(times, "high")
        loads = self.key_times(times, "load")
        generic = {"light_ms": low, "heavy_ms": high,
                   "load_ms": 1e3 * statistics.fmean(loads.values())}
        named = {
            "verify_low_per_s": (1e3 / low, "1/s"),
            "verify_high_per_s": (1e3 / high, "1/s"),
        }
        return generic, named

    def record(self) -> dict:
        return dict(self.inputs, low_windows=self.low)


class Cli(SpecWorkload):
    """Cold ``python -m zeckinv.cli`` invocations, one at a time."""

    name = "cli"
    rss_of_children = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.expected: dict[tuple, object] = {}
        self.child_spans: list[list] = []
        self.ran = 0
        self.env = child_env()

    def expect(self, kind: str, argv: list[str]):
        """The JSON the command must print, computed in this process."""
        if kind == "pisano":
            m = int(argv[1])
            return {"m": m, "pi": inp.pisano_period(m)}
        if kind in ("encode", "decode"):
            if kind == "encode":
                rep = Z.encode(int(argv[1]))
            else:
                rep = Z.from_bit_string(argv[2])
            return {"value": Z.decode(rep), "indices": list(rep.indices),
                    "bits": Z.to_bit_string(rep)}
        if kind.startswith("inverse"):
            a, n = int(argv[1]), int(argv[2])
            value = I.inverse_oracle(a, n)
            rep = Z.encode(value)
            return {"a": a, "n": n, "value": value,
                    "method": "closed" if kind == "inverse-closed" else "pattern",
                    "indices": list(rep.indices), "bits": Z.to_bit_string(rep),
                    "cross_checked": False}
        if kind == "pattern":
            return P.to_json_dict(P.synthesize(int(argv[1])))
        a = int(argv[1])
        lo, hi = (int(x) for x in argv[3].split(".."))
        return {"a": a, "n_lo": lo, "n_hi": hi, "checked": admissible_count(a, lo, hi),
                "mismatches": 0, "first_mismatch": None}

    def call_op(self, k: int, call: dict):
        kind = call["kind"]

        def run():
            out = str(self.dir / f"out-{k}.json")
            argv = [x.replace("{out}", out) for x in call["argv"]]
            if kind == "verify-spec":
                argv = [x.replace("{spec}", self.paths[int(argv[1])]) for x in argv]
            spans = str(self.dir / f"spans-{k}.json")
            if self.tracer is not None and self.tracer.enabled:
                cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), spans, *argv]
            else:
                cmd = [sys.executable, "-m", "zeckinv.cli", *argv]
            proc = self.timed(kind, k, self.launch, cmd)
            self.ran += 1
            if os.path.exists(spans):
                with open(spans, encoding="utf-8") as fh:
                    dumped = json.load(fh)
                os.remove(spans)
                self.child_spans.append(dumped["spans"])
                self.tracer.sizes.update({int(a): tuple(v) for a, v in dumped["sizes"].items()})
            if proc is None:
                return

            def digest(p):
                if p.returncode != 0:
                    return None
                try:
                    got = json.loads(p.stdout)
                except ValueError:
                    return None
                if kind == "verify-spec":
                    got.pop("timing", None)
                if kind == "pattern":
                    with open(out, encoding="utf-8") as fh:
                        if json.load(fh) != got:
                            return None
                return got

            def full_check(p):
                got = digest(p)
                key = (kind, tuple(call["argv"]))
                if key not in self.expected:
                    self.expected[key] = self.expect(kind, argv)
                return got is not None and got == self.expected[key]

            self.check(("call", k), proc, digest, full_check)
            if os.path.exists(out):
                os.remove(out)

        return run

    def trace_ops(self):
        """The first two calls of every command kind: a traced child costs
        several times an untraced one, so not every call can be traced."""
        calls = self.inputs["calls"][:2 * len(inp.CLI_KINDS)]
        return [self.call_op(k, c) for k, c in enumerate(calls)]

    def launch(self, cmd):
        return subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                              cwd=ROOT, timeout=120)

    def phases(self):
        # verify --spec calls get a phase of their own, so that every turn,
        # however short the run, includes one for load_ms.
        calls = list(enumerate(self.inputs["calls"]))
        spec = [self.call_op(k, c) for k, c in calls if c["kind"] == "verify-spec"]
        other = [self.call_op(k, c) for k, c in calls if c["kind"] != "verify-spec"]
        share = len(spec) / len(calls)
        return [("spec", share, spec), ("other", 1 - share, other)]

    def metrics(self, times):
        loads = [t for (kind, _), v in times.items() if kind == "verify-spec" for t in v]
        times = [t for v in times.values() for t in v]
        p50, p90 = percentile(times, 0.50), percentile(times, 0.90)
        generic = {"light_ms": 1e3 * p50, "heavy_ms": 1e3 * p90,
                   "load_ms": 1e3 * statistics.median(loads)}
        named = {
            "cli_p50_ms": (1e3 * p50, "ms"),
            "cli_p90_ms": (1e3 * p90, "ms"),
            "cli_count": (len(times), "count"),
        }
        return generic, named

    def record(self) -> dict:
        return dict(self.inputs, ran=self.ran)


WORKLOADS = {w.name: w for w in (Synth, Query, Verify, Cli)}


def peak_rss_mb(children: bool) -> float:
    """Peak RSS of this process, or of its largest child process."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def kernel_info() -> dict:
    return {
        "using_compiled_kernel": bool(zeckinv.USING_COMPILED_KERNEL),
        "zeckinv_pure": os.environ.get("ZECKINV_PURE", ""),
    }

