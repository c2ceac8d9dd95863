"""Seeded inputs for every workload, and the small reference arithmetic
they need.

Inputs depend only on the workload name, the seed and the ``tiny`` flag,
never on the program under test: Pisano periods and admissibility
(gcd(a, F_n) == 1) are computed here by plain iteration.  Each workload
draws its cases from strata that fix the cost structure (which Pisano
periods, which n ranges, which command kinds) and lets the seed pick the
members, so two seeds give different inputs of the same size.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict

A_MAX = 200


def pisano_period(m: int) -> int:
    """Minimal period of F_k mod m, by iterating the pair (F_k, F_k+1)."""
    if m == 1:
        return 1
    x, y, k = 0, 1, 0
    while True:
        x, y = y, (x + y) % m
        k += 1
        if x == 0 and y == 1:
            return k


def fib_mod(n: int, m: int) -> int:
    """F_n mod m by fast doubling."""
    x, y = 0, 1 % m
    for bit in bin(n)[2:]:
        c = x * (2 * y - x) % m
        d = (x * x + y * y) % m
        x, y = (d, (c + d) % m) if bit == "1" else (c, d)
    return x


def admissible(a: int, n: int) -> bool:
    return math.gcd(a, fib_mod(n, a)) == 1


def next_admissible(a: int, n: int) -> int:
    while not admissible(a, n):
        n += 1
    return n


def _pools() -> dict[tuple[int, int], list[int]]:
    """a in [2, A_MAX] grouped by (M, number of admissible residues mod M).

    Synthesis, load and evaluation cost follow these two numbers closely;
    members of one M pool that differ in them differ by up to 2x in
    synthesis time, so a seed that picked across them would decide the
    figure.
    """
    pools: dict[tuple[int, int], list[int]] = defaultdict(list)
    for a in range(2, A_MAX + 1):
        m = pisano_period(a)
        x, y, count = 0, 1, 0
        for _ in range(m):
            count += math.gcd(a, x) == 1
            x, y = y, (x + y) % a
        pools[(m, count)].append(a)
    return pools


def _pick(rng: random.Random, pools, strata) -> list[dict]:
    """One member of each (M, admissible) stratum, chosen by ``rng``; the
    band is small for M <= 100 and large above."""
    return [{"a": rng.choice(pools[key]), "M": key[0], "admissible": key[1],
             "band": "small" if key[0] <= 100 else "large"} for key in strata]


def _shared(pools, lo: int, hi: int) -> list[tuple[int, int]]:
    """Strata with lo < M <= hi that have at least two members."""
    return sorted(k for k, v in pools.items() if lo < k[0] <= hi and len(v) >= 2)


def _log_uniform_strata(rng: random.Random, lo: float, hi: float, count: int) -> list[int]:
    """One log-uniform draw from each of ``count`` equal log-width strata,
    so every seed covers [lo, hi] with the same density."""
    span = math.log(hi / lo)
    return [int(lo * math.exp(span * (i + rng.random()) / count)) for i in range(count)]


def synth_inputs(seed: int, tiny: bool) -> dict:
    """One a from every shared stratum with M <= 100 (small band) and with
    100 < M <= 160 (large band).  Above M = 160 one spec costs 0.5-2 s,
    too long to repeat within a run."""
    rng = random.Random(f"synth:{seed}")
    pools = _pools()
    small, large = _shared(pools, 0, 100), _shared(pools, 100, 160)
    if tiny:
        small, large = small[:3], large[:1]
    return {"specs": _pick(rng, pools, small + large)}


def query_inputs(seed: int, tiny: bool) -> dict:
    """A mix of small- and large-M specs, and n log-uniform in [10^3, 10^6],
    one per stratum of equal log width, each moved up to the next
    admissible value for its a.  The strata go to the specs in turn, so
    every spec gets n across the whole range whatever the seed."""
    rng = random.Random(f"query:{seed}")
    pools = _pools()
    # Strata whose members' representations at n = 3*10^5 differ in length,
    # and so in evaluate cost, by at most 11%; in (48, 32) they differ by 39%.
    strata = [(50, 49), (72, 36), (76, 72), (84, 48), (112, 84), (120, 48)]
    count, hi = 400, 1e6
    if tiny:
        strata, count, hi = [(24, 12), (108, 104)], 40, 2e4
    specs = _pick(rng, pools, strata)
    ns = _log_uniform_strata(rng, 1e3, hi, count)
    owners = [specs[i % len(specs)]["a"] for i in range(count)]
    queries = [[a, next_admissible(a, n)] for a, n in zip(owners, ns)]
    rng.shuffle(queries)
    return {"specs": specs, "queries": queries}


def verify_inputs(seed: int, tiny: bool) -> dict:
    """Small-M a.  Low windows start at the spec's n0 (resolved after set-up);
    high windows start at stratified n in [1.5*10^4, 3*10^4], where the
    oracle and the codec dominate, and go to the specs in turn."""
    rng = random.Random(f"verify:{seed}")
    pools = _pools()
    strata, low_width, high_count, high_width, lo, hi = (
        _shared(pools, 0, 60), 300, 12, 5, 15000, 30000)
    if tiny:
        strata, low_width, high_count, high_width, lo, hi = strata[:2], 40, 2, 4, 1500, 3000
    specs = _pick(rng, pools, strata)
    starts = [lo + int((hi - lo) * (i + rng.random()) / high_count) for i in range(high_count)]
    owners = [specs[i % len(specs)]["a"] for i in range(high_count)]
    high = [[a, n, n + high_width - 1] for a, n in zip(owners, starts)]
    return {"specs": specs, "low_width": low_width, "high_windows": high}


def _bit_word(rng: random.Random, length: int) -> str:
    """A Zeckendorf bit word (no two adjacent 1s) that starts with 1."""
    bits, prev = ["1"], "1"
    for _ in range(length - 1):
        prev = "1" if prev == "0" and rng.random() < 0.4 else "0"
        bits.append(prev)
    return "".join(bits)


CLI_KINDS = ("pisano", "encode", "decode", "inverse-closed", "inverse-auto",
             "pattern", "verify-spec")


def cli_inputs(seed: int, tiny: bool) -> dict:
    """A sequence of cold invocations cycling through every command kind in
    a seeded order.  Commands that synthesize or load a spec use a with
    M <= 60, so interpreter start and import stay visible next to them."""
    rng = random.Random(f"cli:{seed}")
    pools = _pools()
    specs = _pick(rng, pools, [(24, 12), (36, 24), (48, 24), (48, 28), (60, 32)])
    if tiny:
        specs = specs[:2]
    spec_as = [c["a"] for c in specs]
    cycles = 1 if tiny else 60
    calls = []
    for _ in range(cycles):
        kinds = list(CLI_KINDS)
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "pisano":
                args = [kind, str(rng.randint(2, 3000))]
            elif kind == "encode":
                args = ["zeckendorf", str(rng.randint(1, 10 ** rng.randint(1, 40)))]
            elif kind == "decode":
                args = ["zeckendorf", "--decode", _bit_word(rng, rng.randint(2, 120))]
            elif kind == "inverse-closed":
                a = rng.randint(2, A_MAX)
                args = ["inverse", str(a), str(next_admissible(a, rng.randint(3, 3000))),
                        "--method", "closed"]
            elif kind == "inverse-auto":
                a = rng.choice(spec_as)
                args = ["inverse", str(a), str(next_admissible(a, rng.randint(1000, 3000)))]
            elif kind == "pattern":
                args = ["pattern", str(rng.choice(spec_as)), "--out", "{out}"]
            else:
                a = rng.choice(spec_as)
                lo = rng.randint(200, 400)
                args = ["verify", str(a), "--n-range", f"{lo}..{lo + 29}", "--spec", "{spec}"]
            calls.append({"kind": kind, "argv": args + ["--json"]})
    return {"specs": specs, "calls": calls}


INPUTS = {
    "synth": synth_inputs,
    "query": query_inputs,
    "verify": verify_inputs,
    "cli": cli_inputs,
}
