"""Timing spans around the public functions of each zeckinv layer.

The modules bind each other's functions with ``from .x import f``, so a
wrapper installed only on ``zeckinv.x.f`` would miss every caller that
already holds ``f``.  ``install`` therefore replaces each target function
in every module namespace that refers to it, and ``uninstall`` puts the
originals back.  Spans (name, start, end, parent, count) stay in memory;
self time and counts are derived from them when the run ends.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# Public functions per layer.  qphi is reached only through its callers,
# and the private tail-derivation helpers of pattern are left unwrapped.
TARGETS = {
    "bigfib": ("pisano", "fib", "fib_mod", "mod_inverse"),
    "basephi": ("expand",),
    "zeckendorf": ("encode", "decode", "normalize_index_one"),
    "inverse": ("inverse_oracle", "inverse_closed"),
    "pattern": ("synthesize", "evaluate", "verify", "from_json_dict",
                "to_json_dict", "save_pattern", "load_pattern"),
}

SPEC_SIZES = ("M", "ell", "P", "tail_bits")


def _count(name: str, args: tuple, result: object) -> int:
    """The work count recorded with a span: digits of an orbit, indices of
    a representation.  Zero for functions without one."""
    if name == "basephi.expand":
        return len(result.preperiod) + len(result.period)
    if name in ("zeckendorf.encode", "zeckendorf.normalize_index_one"):
        return len(result.indices)
    if name == "zeckendorf.decode":
        return len(args[0].indices)
    return 0


def spec_sizes(spec) -> tuple[int, int, int, int]:
    """(M, ell, P, tail_bits) of a PatternSpec."""
    return (spec.M, spec.ell, spec.tail_period,
            sum(len(word) for word in spec.tail.values()))


class Tracer:
    """Records spans for the wrapped functions while ``enabled`` is set."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.sizes: dict[int, tuple[int, int, int, int]] = {}
        self.enabled = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                count = _count(name, args, result) if result is not None else 0
                spans[index] = (name, start, end, parent, count)
                if name == "pattern.synthesize" and result is not None:
                    self.sizes[result.a] = spec_sizes(result)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every target function in every zeckinv namespace."""
        wrappers = {}
        for layer, names in TARGETS.items():
            module = sys.modules[f"zeckinv.{layer}"]
            for fname in names:
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "zeckinv" and not modname.startswith("zeckinv."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def active(self):
        """Wrappers installed and recording for the duration."""
        self.install()
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False
            self.uninstall()

    def dump(self) -> dict:
        return {"spans": [list(s) for s in self.spans],
                "sizes": {str(a): list(v) for a, v in self.sizes.items()}}


def layer_stats(span_lists: list[list]) -> dict[str, list[float]]:
    """Per function [calls, s, self_s, count] from per-process span lists.

    Self time is a span's duration minus the durations of its direct
    children; parents are indices into the same process's list.
    """
    stats = {f"{layer}.{f}": [0, 0.0, 0.0, 0]
             for layer, names in TARGETS.items() for f in names}
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _, count) in enumerate(spans):
            row = stats[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[i]
            row[3] += count
    return stats


def layer_metrics(span_lists: list[list], sizes: dict[int, tuple]) -> dict[str, float]:
    """The per-layer metrics derived from spans and spec sizes, by name."""
    out = {}
    for name, (calls, total, self_s, count) in layer_stats(span_lists).items():
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = total
        out[f"{name}.self_s"] = self_s
        if name == "basephi.expand":
            out[f"{name}.digits"] = count
        elif name.startswith("zeckendorf."):
            out[f"{name}.indices"] = count
    for i, field in enumerate(SPEC_SIZES):
        out[f"pattern.synthesize.{field}"] = sum(v[i] for v in sizes.values())
    return out
