"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Each criterion states its own tolerance (always exact/zero)
and, where applicable, its wall-clock budget.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from zeckinv import (
    EventuallyPeriodicBits,
    InternalInvariantViolation,
    QPhi,
    digit_at,
    encode,
    eval_closed_form,
    evaluate,
    expand,
    fib,
    inverse_closed,
    inverse_oracle,
    pisano,
    splice_check,
    synthesize,
    zeckendorf_from_phi,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def spec_cache():
    """Shared synthesize() cache so criteria 2 and 9 build each a once."""
    return {}


def a2_closed_form_indices(n: int) -> set[int]:
    """Index set of the inverse of 2 mod F_n predicted by the display pattern.

    A descending chain n-2, n-5, ... plus one constant low index: the chain
    stops at 5 with constant 3 when n = 1 (mod 3), and at 6 with constant 4
    when n = 2 (mod 3).
    """
    m = n % 3
    if m == 1:
        k_max, const = (n - 7) // 3, 3
    elif m == 2:
        k_max, const = (n - 8) // 3, 4
    else:
        raise ValueError("3 | n has no inverse")
    return {n - 2 - 3 * k for k in range(k_max + 1)} | {const}


def test_criterion_1_a2_regression():
    t0 = time.perf_counter()
    spec = synthesize(2)
    checked = 0
    ok = True
    for n in range(8, 301):
        if n % 3 == 0:
            continue
        checked += 1
        got = evaluate(spec, n)
        want = encode(inverse_oracle(2, n))
        if got != want or set(got.indices) != a2_closed_form_indices(n):
            ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = ok and checked == 195 and elapsed < 1.0
    report(
        1,
        ok,
        f"a=2 regression: {checked}/195 n in [8,300] exact and matching the "
        f"closed-form index chain, {elapsed:.2f}s < 1s",
    )


def test_criterion_2_full_sweep(spec_cache):
    t0 = time.perf_counter()
    checked = 0
    bad = None
    for a in range(3, 51):
        spec = spec_cache.setdefault(a, synthesize(a))
        for n in range(spec.n0, spec.n0 + 401):
            if not spec.is_admissible(n):
                continue
            checked += 1
            if evaluate(spec, n) != encode(inverse_oracle(a, n)):
                bad = (a, n)
                break
        if bad:
            break
    elapsed = time.perf_counter() - t0
    ok = bad is None and elapsed < 60.0
    report(
        2,
        ok,
        f"pattern = oracle for all {checked} admissible (a, n), a in [3,50], "
        f"n in [n0, n0+400], {elapsed:.1f}s < 60s"
        + (f" (first mismatch {bad})" if bad else ""),
    )


def test_criterion_3_closed_form_identity():
    checked = 0
    ok = True
    for a in range(1, 51):
        for n in range(3, 201):
            if math.gcd(a, fib(n)) != 1:
                continue
            checked += 1
            res = inverse_closed(a, n)
            if (res.b * fib(n) + 1) % a != 0:
                ok = False
            if (res.b * fib(n) + 1) // a != inverse_oracle(a, n):
                ok = False
            if (a * res.value) % fib(n) != 1 % fib(n):
                ok = False
    report(
        3,
        ok,
        f"(b*F_n + 1) divisible by a with quotient = oracle inverse for all "
        f"{checked} coprime pairs, a in [1,50], n in [3,200]",
    )


def test_criterion_4_rational_expansions_purely_periodic():
    checked = 0
    ok = True
    for a in range(1, 151):
        for b in range(a):
            x = Fraction(b, a)
            bits = expand(x)
            checked += 1
            if bits.preperiod != "" or eval_closed_form(bits) != QPhi(x):
                ok = False
    report(
        4,
        ok,
        f"all {checked} rationals b/a, a <= 150: empty preperiod and exact "
        f"closed-form inversion",
    )


def test_criterion_5_partial_sum_bounds():
    rng = random.Random(20260814)
    phi_inv = QPhi(-1, 1)  # 1/phi = phi - 1
    phibar = QPhi(1, -1)  # conjugate of phi
    one = QPhi(1, 0)
    ok = True
    for _ in range(1000):
        length = rng.randint(1, 60)
        prev = 0
        power = QPhi(1, 0)  # phi^{-i} accumulator
        cpower = QPhi(1, 0)  # phibar^{i} accumulator
        ssum = QPhi(0, 0)
        csum = QPhi(0, 0)
        for _i in range(1, length + 1):
            power = power * phi_inv
            cpower = cpower * phibar
            d = 0 if prev else rng.randint(0, 1)
            prev = d
            if d:
                ssum = ssum + power
                csum = csum + cpower
            if ssum.sign() < 0 or (ssum - one).sign() >= 0:
                ok = False
            if (csum + one).sign() <= 0 or (csum - phi_inv).sign() >= 0:
                ok = False
    report(
        5,
        ok,
        "1000 random valid digit prefixes: every partial sum exactly inside "
        "[0,1), conjugate partial sums inside (-1, 1/phi)",
    )


def test_criterion_6_phi_route_equals_greedy():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    try:
        for n in range(1, 10**4 + 1):
            if zeckendorf_from_phi(n) != encode(n):
                ok = False
                detail = f" (first mismatch at N={n})"
                break
    except InternalInvariantViolation as exc:
        ok = False
        detail = f" (digit assertion fired: {exc})"
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(
        6,
        ok,
        f"digit-stream route = greedy encoder for all N in [1,10^4], leading "
        f"digit always 0, {elapsed:.1f}s < 30s{detail}",
    )


def test_criterion_7_splice_instances():
    rng = random.Random(3041)
    done = 0
    ok = True
    while done < 200:
        den = rng.randint(2, 60)
        p = rng.randint(0, den - 1)
        q = rng.randint(-den, den)
        x = QPhi(Fraction(p, den), Fraction(q, den))
        if x.sign() < 0 or (x - 1).sign() >= 0:
            continue
        ex = expand(x)
        lam = next(
            (
                i
                for i in range(1, 50)
                if digit_at(ex, i) == 0 and digit_at(ex, i + 1) == 0
            ),
            None,
        )
        if lam is None:
            continue
        m = lam + 2 + rng.randint(0, 8)
        y = QPhi(Fraction(rng.randint(0, den - 1), den))
        if not splice_check(x, y, m, lam):
            ok = False
            break
        done += 1
    report(7, ok, f"{done}/200 randomized valid (x, y, m, lambda) splices hold")


def naive_pisano(m: int) -> int:
    if m == 1:
        return 1
    a, b, k = 0, 1, 0
    while True:
        a, b = b, (a + b) % m
        k += 1
        if (a, b) == (0, 1):
            return k


def test_criterion_8_pisano_spot_values():
    spots = {1: 1, 2: 3, 3: 8, 5: 20, 10: 60}
    ok = all(
        pisano(m) == want == naive_pisano(m) for m, want in spots.items()
    )
    report(8, ok, f"pisano spot values {spots} match the naive-iteration oracle")


def test_criterion_9_junction_safety(spec_cache):
    ok = True
    words = 0
    for a in range(2, 51):
        spec = spec_cache.setdefault(a, synthesize(a))
        base = max(spec.n0, spec.i0 + 3 * spec.ell)
        for c, tail_word in sorted(spec.tail.items()):
            n = base + ((c - base) % spec.tail_period)
            zbits = EventuallyPeriodicBits("", spec.z[n % spec.M].period)
            assembled = (
                "".join(str(digit_at(zbits, j)) for j in range(1, n - spec.i0 + 1))
                + tail_word
            )
            words += 1
            if "11" in assembled:
                ok = False
    report(
        9,
        ok,
        f"no '11' in any of the {words} assembled z+tail words (>= 3 z-periods "
        f"of high digits), a in [2,50]",
    )
