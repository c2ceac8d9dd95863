"""Tests for pattern synthesis, evaluation, verification and serialization."""

import copy
import dataclasses
import functools
import hashlib
import json
import math
import os
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zeckinv.pattern
from zeckinv.bigfib import fib_pair, fib_residues
from zeckinv import (
    DomainError,
    EventuallyPeriodicBits,
    InvalidRep,
    InverseResult,
    MismatchDetail,
    NotCoprime,
    PatternSpec,
    SynthesisError,
    VerificationReport,
    ZClass,
    ZeckendorfRep,
    decode,
    digit_at,
    encode,
    expand,
    evaluate,
    fib,
    from_json_dict,
    inverse_closed,
    inverse_oracle,
    load_pattern,
    matches_oracle,
    normalize_index_one,
    pisano,
    report_to_json_dict,
    save_pattern,
    splice_value,
    synthesize,
    to_bit_string,
    to_json_dict,
    verify,
)
from zeckinv.cli import _a2_expected_indices
from zeckinv.inverse import _oracle_walk
from zeckinv.pattern import (
    _BLOCKS_FROM,
    _MIN_BLOCKS,
    _fib_table,
    _greedy_word,
    _i0,
    _inverse_at,
    _orbit,
    _pattern_text,
    _PhiFloors,
    _rep_value,
    _run_sum,
)
from zeckinv.qphi import sign_of


@pytest.fixture(scope="module")
def spec2():
    return synthesize(2)


@pytest.fixture(scope="module")
def spec3():
    return synthesize(3)


@pytest.fixture(scope="module")
def spec7():
    return synthesize(7)


# --- golden structure for a = 2 ----------------------------------------------


def test_a2_structure(spec2):
    assert spec2.a == 2
    assert spec2.M == 3
    assert spec2.ell == 3
    assert spec2.i0 == 6
    assert spec2.n0 == 7
    assert spec2.tail_period == 3
    assert set(spec2.z) == {1, 2}
    assert spec2.inadmissible == frozenset({0})
    for r in (1, 2):
        assert spec2.z[r].b == 1
        assert spec2.z[r].period == "010"
    assert spec2.tail == {1: "10100", 2: "01000"}


def test_a2_small_evaluations(spec2):
    assert evaluate(spec2, 7).indices == (5, 3)  # 7 = F5 + F3
    assert evaluate(spec2, 8).indices == (6, 4)  # 11 = F6 + F4
    assert evaluate(spec2, 10).indices == (8, 5, 3)  # 38
    assert evaluate(spec2, 11).indices == (9, 6, 4)  # 45


def test_a2_against_oracle(spec2):
    report = verify(spec2, 8, 100)
    assert report.checked == 62
    assert report.mismatches == 0
    assert report.first_mismatch is None


def test_a3_first_admissible(spec3):
    assert spec3.M == pisano(3) == 8
    n = spec3.n0
    while not spec3.is_admissible(n):
        n += 1
    assert evaluate(spec3, n) == encode(inverse_oracle(3, n))


def test_synthesize_rejects_small_a():
    with pytest.raises(DomainError):
        synthesize(1)
    with pytest.raises(DomainError):
        synthesize(0)


# --- evaluate ------------------------------------------------------------------


def test_evaluate_errors(spec2):
    with pytest.raises(DomainError):
        evaluate(spec2, 6)  # below n0
    with pytest.raises(NotCoprime) as exc:
        evaluate(spec2, 12)  # 3 | 12 so 2 | F_12
    assert exc.value.gcd == 2


def test_every_inverse_route_refuses_a_non_coprime_n_alike(spec2):
    # One routine computes b = -F_n^-1 mod a, so the closed form, the
    # single-n pattern path and evaluate refuse a = 2, n = 12 (F_12 = 144)
    # with the same witness and the same text.
    errors = []
    for route in (inverse_closed, _inverse_at, lambda a, n: evaluate(spec2, n)):
        with pytest.raises(NotCoprime) as exc:
            route(2, 12)
        errors.append((exc.value.gcd, str(exc.value)))
    assert errors == [(2, "gcd(2, F_12) = 2; no inverse exists")] * 3


def test_matches_oracle_refuses_an_inadmissible_n_whatever_the_rep():
    # F_9 = 34: the oracle is asked before the representation is decoded,
    # so a non-canonical rep raises as a canonical one does.
    for rep in (ZeckendorfRep((7, 6), _validate=False), ZeckendorfRep((7, 5))):
        with pytest.raises(NotCoprime) as exc:
            matches_oracle(rep, 2, 9)
        assert exc.value.gcd == 2
    # At an admissible n a non-canonical rep is still just a mismatch.
    assert not matches_oracle(ZeckendorfRep((7, 6), _validate=False), 2, 8)
    assert matches_oracle(encode(inverse_oracle(2, 8)), 2, 8)


def test_missing_tail_word_is_a_domain_error_and_a_mismatch(spec3):
    # A hand-built spec with every z class but no tail word: evaluate
    # refuses each admissible n as it refuses a missing class, and verify
    # counts each with got = ().
    bad = dataclasses.replace(spec3, tail={})
    assert 9 % spec3.M in bad.z
    with pytest.raises(DomainError, match="no class for residue 1"):
        evaluate(bad, 9)
    report = verify(bad, 8, 40)
    assert report.checked == verify(spec3, 8, 40).checked > 0
    assert report.mismatches == report.checked
    assert report.first_mismatch == MismatchDetail(
        n=9, expected=encode(inverse_oracle(3, 9)).indices, got=()
    )


def test_evaluate_matches_oracle_many(spec3, spec7):
    for spec in (spec3, spec7):
        for n in range(spec.n0, spec.n0 + 120):
            if not spec.is_admissible(n):
                continue
            assert evaluate(spec, n) == encode(inverse_oracle(spec.a, n)), (
                spec.a,
                n,
            )


@functools.lru_cache(maxsize=None)
def _spec(a):
    return synthesize(a)


def test_evaluate_serves_every_n_above_c():
    # The layout with i0 = M + 3 served only n >= M + 4; every admissible
    # n in [c + 1, M + 3] is newly served.
    newly = 0
    for a in range(2, 61):
        spec = _spec(a)
        for n in range(spec.i0 + 1, spec.M + 4):
            if spec.is_admissible(n):
                newly += 1
                assert evaluate(spec, n) == encode(inverse_oracle(a, n)), (a, n)
    assert newly > 0


# deadline=None: the first example for each a synthesizes its spec.
@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.integers(2, 60),
    st.one_of(st.integers(0, 3 * 10**4), st.integers(10**4, 3 * 10**4)),
)
def test_evaluate_matches_oracle_property(a, n):
    spec = _spec(a)
    n = max(n, spec.n0)
    while not spec.is_admissible(n):
        n += 1
    assert verify(spec, n, n).mismatches == 0
    # encode stays cross-checked against the pattern.
    assert evaluate(spec, n) == encode(inverse_oracle(a, n))


# A fixed seeded sample of a in (50, 300], each over two Pisano periods
# from n0; the other oracle checks stop at a = 50.
WIDE_SAMPLE = sorted(random.Random(2022).sample(range(51, 301), 16))


@pytest.mark.parametrize("a", WIDE_SAMPLE)
def test_verify_wide_sample(a):
    spec = synthesize(a)
    report = verify(spec, spec.n0, spec.n0 + 2 * spec.M)
    assert report.checked > 0
    assert report.mismatches == 0


def test_evaluate_block_edges():
    # Per admissible residue: the smallest n with only a partial top block
    # (n - i0 < L_r), and n with (n - i0) % L_r in {0, 1, L_r - 1} behind
    # at least one full block.  When L_r divides M that remainder is fixed
    # along a residue class, so most residues reach only one of these.
    seen = set()
    for a in (3, 7, 50, 120):
        spec = _spec(a)
        for r, zc in spec.z.items():
            lr = len(zc.period)
            ns = set()
            first = spec.n0 + (r - spec.n0) % spec.M
            if first - spec.i0 < lr:
                ns.add(first)
                seen.add("partial")
            lo = max(spec.n0, spec.i0 + lr)
            start = lo + (r - lo) % spec.M
            edges = {0: "0", 1: "1", lr - 1: "L-1"}
            for n in range(start, start + math.lcm(spec.M, lr), spec.M):
                edge = edges.pop((n - spec.i0) % lr, None)
                if edge is not None:
                    ns.add(n)
                    seen.add(edge)
            for n in sorted(ns):
                assert evaluate(spec, n) == encode(inverse_oracle(a, n)), (a, n)
    assert seen == {"partial", "0", "1", "L-1"}


@pytest.mark.parametrize("a", [2, 40, 112, 147, 1000])
def test_evaluate_on_both_sides_of_the_block_grid_switch(a):
    # _assemble builds the full blocks as a grid of block tops by the
    # period's 1-offsets when there are no more blocks than 1-offsets, and
    # by interleaved ranges otherwise.  Per residue: no full block, and one
    # block fewer than, as many as and one more than the period's 1-digits.
    # Past n = 3*10^4 (a = 1000, about 420 1-digits in M = 1500) encode
    # would take seconds, so the oracle check is matches_oracle: canonical,
    # and decoding to the oracle's value.
    spec = _spec(a)
    residues = sorted(spec.z)
    for r in residues if a < 1000 else residues[:: len(residues) // 2]:
        ones = spec.z[r].period.count("1")
        rem = (r - spec.i0) % spec.M
        for nblocks in {0, ones - 1, ones, ones + 1}:
            n = spec.i0 + nblocks * spec.M + rem
            if n <= spec.i0:
                continue  # no n of this class has n - i0 < M
            rep = evaluate(spec, n)
            if n <= 3 * 10**4:
                assert rep == encode(inverse_oracle(a, n)), (a, n)
            else:
                assert matches_oracle(rep, a, n), (a, n)


@pytest.mark.parametrize("n", [10**6, 10**6 + 1])
def test_evaluate_a2_closed_form_at_a_million(spec2, n):
    # One n per admissible class of a = 2, about 3.3*10^5 indices each.
    assert evaluate(spec2, n).indices == tuple(_a2_expected_indices(n))


def test_evaluate_leaves_spec_equal_and_json_unchanged():
    spec = synthesize(7)
    before = to_json_dict(spec)
    for n in (spec.n0, 101, 10**4 + 1, 101):
        evaluate(spec, n)
    assert set(vars(spec)) == {"a", "M", "z", "tail"}
    assert spec == synthesize(7)
    assert to_json_dict(spec) == before


def test_evaluate_keeps_no_memory_per_call(spec7):
    # A tuple grown from a generator and then freed is parked in CPython's
    # tuple free lists (up to 2000 per size) instead of being reused, so
    # one such tuple per call adds up to megabytes of peak RSS.
    ns = [n for n in range(20000, 20400) if spec7.is_admissible(n)]
    for n in ns:
        evaluate(spec7, n)
    before = sys.getallocatedblocks()
    for n in ns:
        evaluate(spec7, n)
    assert sys.getallocatedblocks() - before < len(ns) // 10


def test_evaluate_returns_valid_rep(spec7):
    rep = evaluate(spec7, spec7.n0 + 32 * spec7.M)
    # Re-validate through the checking constructor.
    assert ZeckendorfRep(rep.indices) == rep


def test_evaluate_large_n_is_fast(spec7):
    n = 10**5 + 1
    while not spec7.is_admissible(n):
        n += 1
    t0 = time.perf_counter()
    rep = evaluate(spec7, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.5, f"evaluate took {elapsed:.3f}s"
    # Check the value modulo a large prime without materializing F_n.
    q = 2**61 - 1
    want = inverse_mod_q(spec7.a, n, q)
    assert fib_sum_mod(rep.indices, n, q) == want


def inverse_mod_q(a: int, n: int, q: int) -> int:
    from zeckinv import fib_mod, mod_inverse

    r = n % pisano(a)
    b = (-mod_inverse(fib_mod(r, a) % a, a)) % a
    return (b * fib_mod(n, q) + 1) % q * pow(a, -1, q) % q


def fib_sum_mod(indices, n: int, q: int) -> int:
    f0, f1 = 0, 1
    want = set(indices)
    total = 0
    for i in range(n + 1):
        if i in want:
            total = (total + f0) % q
        f0, f1 = f1, (f0 + f1) % q
    return total


# --- tail table ----------------------------------------------------------------


def test_tail_words_well_formed():
    for a in (2, 3, 4, 5, 10, 13):
        spec = synthesize(a)
        classes = {
            c for c in range(spec.tail_period) if (c % spec.M) in spec.z
        }
        assert set(spec.tail) == classes
        bound = fib(spec.i0 + 1) - 1
        for word in spec.tail.values():
            assert len(word) == spec.i0 - 1
            assert set(word) <= {"0", "1"}
            assert "11" not in word
            value = sum(
                fib(spec.i0 - 1 - j) for j, ch in enumerate(word) if ch == "1"
            )
            assert value < bound


def test_z_periods_match_digit_expansions():
    # One expand per residue, independent of the per-cycle walk: the only
    # check of the walk's digits against the general expansion routine.
    for a in [*range(2, 101), *sorted(random.Random(300).sample(range(101, 301), 12))]:
        spec = synthesize(a)
        for r, zc in spec.z.items():
            bits = expand(Fraction(zc.b, a))
            assert bits.preperiod == ""
            assert bits.period == zc.period
            assert (zc.b * fib(r) + 1) % a == 0


def test_period_words_are_zeckendorf_codes():
    # Each digit period, read as a word over positions M+1 down to 2, is
    # the Zeckendorf code of N_b = b (F_(M+2) - 1) / a (see _orbit); the
    # expected words come from encode alone.  The converse in _orbit's
    # docstring rests on floor((N_b + 1)/phi) = b (F_(M+1) - 1) / a.
    fl = _PhiFloors()
    words = 0
    for a in range(2, 201):
        spec = synthesize(a)
        scale = fib(spec.M + 2) - 1
        for zc in {zc.b: zc for zc in spec.z.values()}.values():
            n_b, rest = divmod(zc.b * scale, a)
            assert rest == 0, (a, zc.b)
            assert zc.period == to_bit_string(encode(n_b)).rjust(spec.M, "0"), (a, zc.b)
            assert (fl[n_b + 1] - (n_b + 1)) * a == zc.b * (fib(spec.M + 1) - 1), (a, zc.b)
            words += 1
    assert words == 6663


def test_shift_down_of_a_zeckendorf_word_is_a_floor():
    # sum d_i F_(i-1) = floor((N + 1)/phi) for N = sum d_i F_i in Zeckendorf
    # form (_orbit's docstring), with floor(v/phi) = floor(phi*v) - v.
    rng = random.Random(26)
    fibs = _fib_table(2200)  # F_2200 > 2**1500: every index of n is in it
    fl = _PhiFloors()
    for _ in range(3000):
        n = rng.getrandbits(rng.randint(1, 1500)) or 1
        assert sum(fibs[i - 1] for i in encode(n).indices) == fl[n + 1] - (n + 1), n


class _Floors(_PhiFloors):
    """A floor(phi*v) memo that records each lookup and can set its digit.

    The walk reads fl[q_(j+1)] at step j and takes the digit
    q_j + fl[q_(j+1)] >= a.  q_j is the index read one lookup earlier (0 at
    the first), so ``digit(i, d)`` can set the digit of lookup i (from 0)
    of the first walk, whose true digit is d, by the entry returned.
    """

    def __init__(self, a, digit):
        super().__init__()
        self.a = a
        self.digit = digit
        self.reads = []

    def __getitem__(self, v):
        u = self.reads[-1] if self.reads else 0
        f = super().__getitem__(v)
        d = u + f >= self.a
        if self.digit(len(self.reads), d) != d:
            f = self.a - u - d
        self.reads.append(v)
        return f


def _patch_floors(monkeypatch, a, digit=lambda i, d: d):
    """Give synthesis of ``a`` ``_Floors`` memos; returns the list of them."""
    built = []

    def make():
        built.append(_Floors(a, digit))
        return built[-1]

    monkeypatch.setattr(zeckinv.pattern, "_PhiFloors", make)
    return built


@pytest.mark.parametrize("a, cycles", [(30, 4), (109, 12), (149, 15)])
def test_synthesize_expands_once_per_cycle(monkeypatch, a, cycles):
    # One floor(phi*v) memo per synthesis; each cycle is walked once: one
    # lookup per step, M steps.  Its word is checked once, as the checks of
    # EventuallyPeriodicBits are invariant under rotation, and each period
    # is a rotation of a checked word.
    checked = []

    def counting_bits(pre, per):
        checked.append(per)
        return EventuallyPeriodicBits(pre, per)

    built = _patch_floors(monkeypatch, a)
    monkeypatch.setattr(zeckinv.pattern, "EventuallyPeriodicBits", counting_bits)
    spec = synthesize(a)
    periods = [zc.period for zc in spec.z.values()]
    rotation_classes = {min(p[k:] + p[:k] for k in range(len(p))) for p in periods}
    assert len(spec.z) > cycles
    assert len(rotation_classes) == cycles
    assert len(built) == 1
    assert len(built[0].reads) == cycles * spec.M
    assert len(checked) == cycles
    assert all(any(p in w + w for w in checked) for p in periods)


def test_synthesize_keeps_one_int_per_orbit_step():
    # a = 250 has M = 1500 and 800 residues on 25 cycles of 1500 states.
    # One int per step peaks near 2 MiB; a (p, q) tuple per step passes
    # 4 MiB.  a = 1000 (M = 1500, 800 residues on 200 cycles) stays
    # below 3 MiB only if each cycle's states are dropped once its
    # residues are done; kept for every cycle they pass 10 MiB.
    for a in (250, 1000):
        tracemalloc.start()
        try:
            spec = synthesize(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert spec.M == 1500
        assert peak < 3 * 2**20, a


@pytest.mark.parametrize("a", [*range(2, 61), 1000])
def test_residues_with_one_b_share_one_zclass(a):
    # Residues with equal b_r have equal digit words, so synthesis builds
    # each word once and hands the same ZClass to all of them.  Spec
    # equality does not rest on that: a spec rebuilt field by field, with
    # a ZClass of its own per residue, still equals it.
    spec = synthesize(a)
    first_of_b = {}
    for r, zc in spec.z.items():
        assert first_of_b.setdefault(zc.b, zc) is zc, (a, r)
    data = to_json_dict(spec)
    rebuilt = PatternSpec(
        a=data["a"],
        M=data["M"],
        z={int(r): ZClass(e["b"], e["period_bits"]) for r, e in data["z"].items()},
        tail={int(c): word for c, word in data["tail"].items()},
    )
    assert len({id(zc) for zc in rebuilt.z.values()}) == len(rebuilt.z)
    assert rebuilt == spec


def _alpha(a):
    """The rank of apparition of a: the least j >= 1 with a | F_j."""
    j, f, f1 = 1, 1, 1
    while f % a:
        j, f, f1 = j + 1, f1, (f + f1) % a
    return j


def test_classes_and_tails_repeat_with_the_rank_of_apparition():
    # _orbit's docstring: residue r - alpha is admissible exactly when r is,
    # has r's tail word, and has r's period word rotated by alpha.
    for a in [*range(2, 301), 1000, 2017]:
        spec, alpha = synthesize(a), _alpha(a)
        assert spec.M % alpha == 0, a
        for r in range(spec.M):
            s = (r - alpha) % spec.M
            assert (r in spec.z) == (s in spec.z), (a, r)
            if r in spec.z:
                assert spec.tail[s] == spec.tail[r], (a, r)
                per = spec.z[r].period
                assert spec.z[s].period == per[alpha:] + per[:alpha], (a, r)


@pytest.mark.parametrize(
    "a, classes_per_cycle", [(7, 2), (10, 4), (47, 2), (137, 4), (250, 4), (1009, 1)]
)
def test_synthesize_derives_one_tail_per_residue_of_a_cycle_start(
    monkeypatch, a, classes_per_cycle
):
    # Each cycle holds M/alpha classes, which share the tails of the first,
    # so synthesis calls _tail len(z) * alpha / M times.
    calls = []
    tail = zeckinv.pattern._tail

    def counting(*args):
        calls.append(args)
        return tail(*args)

    monkeypatch.setattr(zeckinv.pattern, "_tail", counting)
    spec = synthesize(a)
    assert spec.M // _alpha(a) == classes_per_cycle
    assert len(calls) == len(spec.z) // classes_per_cycle


def test_empty_period_is_a_domain_error_and_a_mismatch(spec7):
    # Only a hand-built spec can carry an empty period word.  evaluate
    # refuses it as it refuses a missing class, naming the residue, and
    # verify counts its n with got = ().
    bad = dataclasses.replace(spec7, z={**spec7.z, 1: ZClass(spec7.z[1].b, "")})
    n = 1201  # 1201 = 1 (mod 16)
    with pytest.raises(DomainError, match=r"no class for residue 1$"):
        evaluate(bad, n)
    report = verify(bad, n - 10, n + 20)
    assert report.checked == verify(spec7, n - 10, n + 20).checked > 2
    assert report.mismatches == 2  # n and n + 16
    assert report.first_mismatch == MismatchDetail(
        n=n, expected=encode(inverse_oracle(7, n)).indices, got=()
    )


def _flipped(step):
    """A digit rule that turns over the digit of lookup ``step`` (from 0)."""
    return lambda i, d: d != (i == step)


@pytest.mark.parametrize("a", [2, 7])
def test_synthesize_refuses_period_other_than_pisano(monkeypatch, a):
    # Flipping the second digit puts the walk off its orbit; for these
    # a it is not back at (b, 0) after M = pi(a) steps.
    _patch_floors(monkeypatch, a, _flipped(1))
    m = pisano(a)
    with pytest.raises(SynthesisError, match=rf"/{a} does not close after M = {m} steps$"):
        synthesize(a)


# Memos whose digit test always answers 1 (sign +1), always 0 (sign -1),
# or flips the first step.
_CORRUPTED_DIGIT_TESTS = {
    "always-plus-1": lambda i, d: True,
    "always-minus-1": lambda i, d: False,
    "first-flipped": _flipped(0),
}


@pytest.mark.parametrize("a", [2, 3, 7, 30])
@pytest.mark.parametrize("digit_test", sorted(_CORRUPTED_DIGIT_TESTS))
def test_corrupted_digit_tests_raise_synthesis_error(monkeypatch, a, digit_test):
    # Whatever the memo answers, synthesis refuses with its own error
    # (CLI exit 1), never with DomainError (CLI exit 2).
    _patch_floors(monkeypatch, a, _CORRUPTED_DIGIT_TESTS[digit_test])
    with pytest.raises(SynthesisError):
        synthesize(a)


def _inside_proven_range(a, q):
    # -a/sqrt5 < q < a*phi^2/sqrt5, exactly: with sqrt5 = 2*phi - 1 these
    # are (a - q) + 2q*phi > 0 and (a + q) + (a - 2q)*phi > 0.
    return sign_of(a - q, 2 * q) > 0 and sign_of(a + q, a - 2 * q) > 0


def _proven_range(a):
    """The integers of (-a/sqrt5, a*phi^2/sqrt5), as (lo, hi)."""
    return -math.isqrt(a * a // 5), (5 * a + math.isqrt(45 * a * a)) // 10


def test_phi_floors_match_sign_of():
    # Each entry sits exactly at its digit's threshold: with
    # q = a - floor(phi*v) the digit is 1, one below it is 0, and sign_of
    # agrees on both sides, for v = 0, v < 0 and v > 0 alike, over every v
    # an orbit of b/a can reach, and at big v of both signs.
    rng = random.Random(15)
    big = [rng.randrange(1, 10**40) for _ in range(200)]
    for a in [*range(2, 301), 1000, 2503]:
        lo, hi = _proven_range(a)
        assert _inside_proven_range(a, lo) and not _inside_proven_range(a, lo - 1), a
        assert _inside_proven_range(a, hi) and not _inside_proven_range(a, hi + 1), a
        fl = _PhiFloors()
        vs = range(lo, hi + 1) if a <= 300 else [*range(lo, hi + 1), *big, *(-v for v in big)]
        for v in vs:
            for q, digit in ((a - fl[v], True), (a - fl[v] - 1, False)):
                assert (q + fl[v] >= a) is digit
                assert (sign_of(q - a, v) >= 0) is digit, (a, v)


def test_orbit_states_lie_in_the_proven_range():
    # The bound on the memo's size: every q of every cycle, and so every
    # key looked up, lies in (-a/sqrt5, a*phi^2/sqrt5).  Each cycle is
    # walked once, from its smallest b not yet on a walked cycle.
    for a in range(2, 401):
        fs = [fib(r) % a for r in range(pisano(a))]
        wanted = {-pow(f, -1, a) % a for f in fs if math.gcd(a, f) == 1}
        fl = _PhiFloors()
        qs = set()
        while wanted:
            b = min(wanted)
            per, cycle = _orbit(a, b, len(fs), fl)
            assert len(per) == len(fs) and cycle[-2:] == [0, b], a
            wanted -= {cycle[j + 1] for j in range(len(per)) if cycle[j] == 0}
            qs.update(cycle)
        assert all(_inside_proven_range(a, q) for q in qs), a
        assert all(_inside_proven_range(a, v) for v in fl), a


def test_synthesis_cost_follows_m_not_a():
    # a = F_30 = 832040 has M = 60: at most 60 * 60 digit steps.  A
    # floor(phi*v) table over the orbit's whole range, about phi*a = 1.35M
    # entries, peaks near 54 MiB; the memo stays below 0.1 MiB.
    a = fib(30)
    tracemalloc.start()
    try:
        spec = synthesize(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec.M == 60
    assert peak < 2**20
    for n in range(spec.n0, spec.n0 + 2 * spec.M):
        if spec.is_admissible(n):
            assert evaluate(spec, n) == encode(inverse_oracle(a, n)), n


def test_n0_is_one_past_i0():
    # n0 = max(i0 + 1, k) for the smallest k with phi^k >= 2a, so k <= i0
    # makes n0 = i0 + 1.  phi^k - 2a = (F_(k-1) - 2a) + F_k * phi.
    for a in range(2, 301):
        spec = synthesize(a)
        k, f_km1, f_k = 1, 0, 1
        while sign_of(f_km1 - 2 * a, f_k) < 0:
            k, f_km1, f_k = k + 1, f_k, f_km1 + f_k
        assert k <= spec.i0, a
        assert spec.n0 == spec.i0 + 1, a
        assert spec.inadmissible == {r for r in range(spec.M) if math.gcd(a, fib(r)) != 1}, a


def _off_by_one_walk(a, lo, hi):
    """The oracle walk with every inverse one too large."""
    for g, value, f, f1 in _oracle_walk(a, lo, hi):
        yield g, None if value is None else value + 1, f, f1


def test_synthesize_cross_checks_tail_values_against_the_oracle(monkeypatch):
    # An oracle off by one: every orbit tail value now disagrees with it.
    monkeypatch.setattr(zeckinv.pattern, "_oracle_walk", _off_by_one_walk)
    with pytest.raises(SynthesisError, match=r"exact remainder at a=7, n=\d+$"):
        synthesize(7)


def test_verify_checks_every_n_against_the_oracle_walk(monkeypatch):
    # The same oracle off by one: every checked n becomes a mismatch, and
    # the first is reported with the walked value.
    spec = _spec(7)
    lo, hi = spec.n0, spec.n0 + 3 * spec.M
    checked = verify(spec, lo, hi).checked
    monkeypatch.setattr(zeckinv.pattern, "_oracle_walk", _off_by_one_walk)
    report = verify(spec, lo, hi)
    assert report.mismatches == report.checked == checked > 0
    n = lo if spec.is_admissible(lo) else lo + 1
    assert report.first_mismatch == MismatchDetail(
        n=n, expected=encode(inverse_oracle(7, n) + 1).indices, got=evaluate(spec, n).indices
    )


def test_inverse_at_cross_checks_against_the_oracle(monkeypatch):
    def off_by_one(a, n):
        return inverse_oracle(a, n) + 1

    monkeypatch.setattr(zeckinv.pattern, "inverse_oracle", off_by_one)
    for n in (20, 201):  # walks that stop short of M = 16 steps and that close
        with pytest.raises(SynthesisError, match=r"exact remainder at a=7, n=\d+$"):
            _inverse_at(7, n)


@pytest.mark.parametrize("a", range(2, 61))
def test_inverse_at_matches_the_synthesized_spec(a):
    # Every admissible n of [n0, n0 + 2M]: walks that stop short of M
    # steps, walks that close, and n past the first period.
    spec = synthesize(a)
    for n in range(spec.n0, spec.n0 + 2 * spec.M + 1):
        if spec.is_admissible(n):
            assert _inverse_at(a, n) == evaluate(spec, n), n
        else:
            with pytest.raises(NotCoprime):
                _inverse_at(a, n)


@pytest.mark.parametrize("a, n", [(4, 8), (5, 22)])
def test_inverse_at_accepts_a_walked_prefix_with_1s_at_both_ends(a, n):
    # The walk stops short of closing, and its word starts and ends with
    # "1"; it is a prefix, not a period, so its ends are not neighbours.
    per, qs = _orbit(a, -pow(fib(n) % a, -1, a) % a, n - _i0(a), _PhiFloors())
    assert per[0] == per[-1] == "1" and len(per) == n - _i0(a) < pisano(a)
    assert _inverse_at(a, n) == evaluate(synthesize(a), n) == encode(inverse_oracle(a, n))


def test_inverse_at_assembles_once_unless_n_is_past_the_first_period(monkeypatch):
    # The representation checked against the oracle at n' is the answer
    # when n' = n, that is when n - i0 <= M (M = 16 for a = 7).
    calls = []

    def spy(n, *rest):
        calls.append(n)
        return assemble(n, *rest)

    assemble = zeckinv.pattern._assemble
    monkeypatch.setattr(zeckinv.pattern, "_assemble", spy)
    i0 = _i0(7)
    for n in (i0 + 1, i0 + 16, i0 + 17, i0 + 40):  # admissible: 8 does not divide n
        calls.clear()
        assert _inverse_at(7, n) == encode(inverse_oracle(7, n))
        assert len(calls) == (1 if n - i0 <= 16 else 2), n


def test_inverse_at_refuses_n_not_above_i0():
    for a, n in ((1, 10), (2, 6), (1000, 19)):
        with pytest.raises(DomainError):
            _inverse_at(a, n)


def _encoded_word(value, i0):
    """The tail word spelled from ``encode``, or None past position i0 - 1."""
    indices = set(encode(value).indices) if value else set()
    if indices and max(indices) >= i0:
        return None
    return "".join("1" if i in indices else "0" for i in range(i0 - 1, 0, -1))


@st.composite
def _word_values(draw):
    """(i0, value) with value in [0, F_(i0+1) - 1), weighted to 0, F_k - 1, F_k."""
    i0 = draw(st.integers(4, 160))
    k = draw(st.integers(2, i0))
    value = draw(
        st.one_of(
            st.just(0),
            st.just(fib(k) - 1),
            st.just(fib(k)),
            st.integers(0, fib(i0 + 1) - 2),
        )
    )
    return i0, value


@settings(derandomize=True, max_examples=300)
@given(_word_values())
def test_greedy_word_matches_encode(case):
    i0, value = case
    fibs = _fib_table(2 * i0)
    want = _encoded_word(value, i0)
    if want is None:
        with pytest.raises(SynthesisError, match=f"needs position {i0}"):
            _greedy_word(value, i0, fibs)
    else:
        assert _greedy_word(value, i0, fibs) == want


@pytest.mark.parametrize("i0", [4, 6, 19, 163])
def test_greedy_word_refuses_f_i0(i0):
    fibs = _fib_table(2 * i0)
    assert _greedy_word(fib(i0) - 1, i0, fibs) == _encoded_word(fib(i0) - 1, i0)
    with pytest.raises(SynthesisError, match=f"tail value {fib(i0)} needs position {i0}"):
        _greedy_word(fib(i0), i0, fibs)


def _c(a):
    """The smallest i with phi^i > a*phi^4, by exact sign tests:
    phi^i - a*phi^4 = (F_(i-1) - 2a) + (F_i - 3a)*phi."""
    i = 1
    while sign_of(fib(i - 1) - 2 * a, fib(i) - 3 * a) <= 0:
        i += 1
    return i


def test_i0_is_ceil_log_phi_a_plus_4():
    # Every a in [2, 1000] (Lucas numbers, where the parity decides,
    # included) and a few large a.
    for a in [*range(2, 1001), 10**6, 10**12 + 39, 2**200 + 1]:
        assert _i0(a) == _c(a), a
    assert [_i0(a) for a in (2, 3, 4, 100, 2503)] == [6, 7, 7, 14, 21]


def test_pattern_spec_derives_ell_and_tail_period():
    names = [f.name for f in dataclasses.fields(zeckinv.PatternSpec)]
    assert names == ["a", "M", "z", "tail"]
    for a in (2, 3, 30):
        spec = _spec(a)
        assert spec.ell == spec.tail_period == spec.M
        assert spec.i0 == _c(a)
        assert spec.n0 == spec.i0 + 1
        assert spec.inadmissible == set(range(spec.M)) - set(spec.z)
        assert set(spec.tail) == set(spec.z)
        # Equal by value, and unhashable, as its tables are mapping proxies.
        assert spec == synthesize(a) != _spec(a + 1)
        with pytest.raises(TypeError):
            hash(spec)


@pytest.mark.parametrize(
    "record, text",
    [
        (ZClass(1, "010"), "ZClass(b=1, period='010')"),
        (MismatchDetail(8, (6, 4), ()), "MismatchDetail(n=8, expected=(6, 4), got=())"),
        (
            VerificationReport(2, 8, 40, 22, 0, None, 0.5),
            "VerificationReport(a=2, n_lo=8, n_hi=40, checked=22, mismatches=0, "
            "first_mismatch=None, elapsed_s=0.5)",
        ),
        (InverseResult(3, 5, 2, 1), "InverseResult(a=3, n=5, value=2, b=1)"),
    ],
)
def test_plain_records_are_immutable_named_tuples(record, text):
    # The repr names every field, in order, as the frozen dataclasses did.
    assert repr(record) == text
    assert tuple(getattr(record, name) for name in record._fields) == record
    assert type(record)(*record) == record
    for name in (record._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


@pytest.mark.parametrize(
    "tail",
    [
        {1: "10100", 2: "10000"},  # class 2 has z digit 1 at position i0
        {1: "10100", 2: "00110"},  # "11" inside the word
    ],
    ids=["junction", "inner"],
)
def test_junction_scan_refuses_adjacent_ones(spec2, monkeypatch, tail):
    # The tail values of a = 2 are 7 (class 1) and 3 (class 2); the
    # greedy word of class 2 is replaced, and both synthesis and the
    # single-n path at n = 8 (class 2) refuse it.
    assert spec2.z[2].period[(8 - spec2.i0 - 1) % 3] == "1"
    words = {7: tail[1], 3: tail[2]}
    monkeypatch.setattr(zeckinv.pattern, "_greedy_word", lambda value, i0, fibs: words[value])
    with pytest.raises(SynthesisError, match="11"):
        synthesize(2)
    with pytest.raises(SynthesisError, match="11"):
        _inverse_at(2, 8)


# --- the digit-stream view -------------------------------------------------------


@pytest.mark.parametrize("a", [3, 5, 11])
def test_splice_value_spells_the_pattern(a):
    spec = synthesize(a)
    checked = 0
    n = spec.n0
    while checked < 10:
        if not spec.is_admissible(n):
            n += 1
            continue
        checked += 1
        v = splice_value(spec, n)
        bits = expand(v)
        zbits = EventuallyPeriodicBits("", spec.z[n % spec.M].period)
        # High layer: stream digits 1..n-i0 are exactly the z digits.
        for j in range(1, n - spec.i0 + 1):
            assert digit_at(bits, j) == digit_at(zbits, j), (a, n, j)
        # Low layer: the remaining digits spell a representation of the
        # same tail value (possibly a low-chain variant of the stored
        # greedy word), so compare after normalization.
        stream_indices = [
            n - s for s in range(1, n) if digit_at(bits, s) == 1
        ]
        assert normalize_index_one(stream_indices) == evaluate(spec, n)
        n += 1


# --- serialization ---------------------------------------------------------------


def test_json_round_trip(spec3):
    data = to_json_dict(spec3)
    again = from_json_dict(data)
    assert again == spec3
    assert to_json_dict(again) == data
    # Byte-level determinism of the canonical dump.
    s1 = json.dumps(data, sort_keys=True, indent=2)
    s2 = json.dumps(to_json_dict(from_json_dict(data)), sort_keys=True, indent=2)
    assert s1 == s2


def _must_not_run(*args):
    raise AssertionError("the loader called a patched-out step")


def test_from_json_round_trips_without_synthesis(monkeypatch):
    # The loader checks the words against their identities: it never walks
    # an orbit, yet builds exactly the synthesized spec.
    specs = [*(_spec(a) for a in range(2, 301)), synthesize(1000), synthesize(2017)]
    monkeypatch.setattr(zeckinv.pattern, "synthesize", _must_not_run)
    monkeypatch.setattr(zeckinv.pattern, "_orbit", _must_not_run)
    for spec in specs:
        assert from_json_dict(to_json_dict(spec)) == spec, spec.a


@pytest.mark.parametrize("a", [2, 7, 30, 137])
def test_from_json_refuses_every_single_digit_flip(a):
    # By Zeckendorf's uniqueness one sum decides each word, so no other
    # word of the right length passes, whichever digit is flipped.
    spec = _spec(a)
    r = sorted(spec.z)[len(spec.z) // 2]
    for name in ("z", "tail"):
        word = spec.z[r].period if name == "z" else spec.tail[r]
        for j in range(len(word)):
            data = to_json_dict(spec)
            flipped = word[:j] + "10"[int(word[j])] + word[j + 1 :]
            if name == "z":
                data["z"][str(r)]["period_bits"] = flipped
            else:
                data["tail"][str(r)] = flipped
            with pytest.raises(DomainError, match=f"'{name}' at key '{r}'"):
                from_json_dict(data)


@pytest.mark.parametrize("word", ["100001", "011010"])
def test_from_json_refuses_a_non_zeckendorf_word_of_the_right_value(spec3, word):
    # Each sums to the value of the stored word, F_6 + F_2: the first as
    # F_1 = F_2 with position 1 in use, the second as F_6 = F_5 + F_4.
    data = to_json_dict(spec3)
    assert data["tail"]["3"] == "100010"
    data["tail"]["3"] = word
    with pytest.raises(DomainError, match="'tail' at key '3'"):
        from_json_dict(data)


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_save_pattern_refuses_unwritable_path(tmp_path, spec2, where):
    path = tmp_path / "absent" / "p.json" if where == "missing-directory" else tmp_path
    with pytest.raises(DomainError, match="cannot write pattern file"):
        save_pattern(spec2, str(path))


@pytest.mark.parametrize("first, second", [(30, 2), (2, 30)])
def test_save_pattern_over_a_file_leaves_exactly_the_new_text(tmp_path, first, second):
    # A shorter text written over a longer file is cut at its end; a
    # longer one grows the file.  The rewrite keeps the file's inode.
    path = tmp_path / "p.json"
    save_pattern(synthesize(first), str(path))
    inode = path.stat().st_ino
    save_pattern(synthesize(second), str(path))
    assert path.read_bytes() == _pattern_text(synthesize(second)).encode("ascii")
    assert path.stat().st_ino == inode


def test_save_pattern_failing_text_leaves_the_file_as_it_was(tmp_path, spec2, monkeypatch):
    path = tmp_path / "p.json"
    save_pattern(spec2, str(path))
    before = path.read_bytes()

    def broken(spec):
        raise RuntimeError("no text")

    monkeypatch.setattr(zeckinv.pattern, "_pattern_text", broken)
    with pytest.raises(RuntimeError, match="no text"):
        save_pattern(spec2, str(path))
    assert path.read_bytes() == before


def test_save_pattern_new_file_gets_the_mode_of_open_w(tmp_path, spec2):
    reference = tmp_path / "reference"
    with open(reference, "w"):
        pass
    path = tmp_path / "p.json"
    save_pattern(spec2, str(path))
    assert path.stat().st_mode == reference.stat().st_mode


def test_save_pattern_writes_to_a_device(spec2):
    # A device has no length to cut, as under open(path, "w").
    save_pattern(spec2, os.devnull)


def test_file_round_trip(tmp_path, spec7):
    path = tmp_path / "pattern.json"
    save_pattern(spec7, str(path))
    text = path.read_text()
    assert text.endswith("\n")
    loaded = load_pattern(str(path))
    assert loaded == spec7
    save_pattern(loaded, str(tmp_path / "second.json"))
    assert (tmp_path / "second.json").read_text() == text


def tampered(spec, **changes):
    data = to_json_dict(spec)
    data.update(changes)
    return data


def test_from_json_rejects_structural_damage(spec2):
    # ell, i0 and tail_period are derived, so a file carrying one is refused.
    with pytest.raises(DomainError):
        from_json_dict(tampered(spec2, ell=6))
    with pytest.raises(DomainError):
        from_json_dict(tampered(spec2, i0=7))
    with pytest.raises(DomainError):
        from_json_dict(tampered(spec2, tail_period=4))
    data = to_json_dict(spec2)
    del data["M"]
    with pytest.raises(DomainError):
        from_json_dict(data)


def test_from_json_rejects_tampered_z(spec2):
    data = to_json_dict(spec2)
    data["z"]["1"]["period_bits"] = "001"  # rotated: no longer delta(1/2)
    with pytest.raises(DomainError):
        from_json_dict(data)
    data = to_json_dict(spec2)
    data["z"]["1"]["b"] = 0
    with pytest.raises(DomainError):
        from_json_dict(data)
    data = to_json_dict(spec2)
    del data["z"]["2"]  # admissible residue now missing
    with pytest.raises(DomainError):
        from_json_dict(data)
    data = to_json_dict(spec2)
    data["z"]["1"]["comment"] = "x"
    with pytest.raises(DomainError, match="'z' at key '1'"):
        from_json_dict(data)


def test_from_json_rejects_tampered_tail(spec2):
    data = to_json_dict(spec2)
    data["tail"]["1"] = "11000"  # consecutive ones
    with pytest.raises(DomainError):
        from_json_dict(data)
    data = to_json_dict(spec2)
    data["tail"]["1"] = "0100"  # wrong length
    with pytest.raises(DomainError):
        from_json_dict(data)
    data = to_json_dict(spec2)
    del data["tail"]["2"]
    with pytest.raises(DomainError):
        from_json_dict(data)


def test_from_json_rejects_wrong_n0(spec2):
    with pytest.raises(DomainError, match="'n0'"):
        from_json_dict(tampered(spec2, n0=10**40))


def test_from_json_rejects_wrong_tail_value(spec2):
    data = to_json_dict(spec2)
    data["tail"]["1"] = "00100"  # well-formed and junction-safe, but 2, not 7
    with pytest.raises(DomainError, match="'tail' at key '1'"):
        from_json_dict(data)
    data = to_json_dict(spec2)
    del data["tail"]["1"]
    data["tail"]["4"] = None  # the table keeps its size
    with pytest.raises(DomainError, match="'tail' at key '1'"):
        from_json_dict(data)


def test_from_json_rejects_extra_field(spec2):
    # The derived fields that earlier files carried are extra fields too,
    # even with the values a spec derives.
    assert set(to_json_dict(spec2)) == {"a", "M", "z", "tail"}
    for name in ("comment", "ell", "i0", "n0", "tail_period"):
        for extra in ("x", None, getattr(spec2, name, 3)):
            with pytest.raises(DomainError, match=f"'{name}'"):
                from_json_dict(tampered(spec2, **{name: extra}))


def test_verify_reports_content_damage(spec2):
    # A junction-safe word with the wrong value: no file carrying it loads,
    # so the spec is built directly and verification pinpoints it.
    assert spec2.tail[1] == "10100"
    bad = dataclasses.replace(spec2, tail={1: "00100", 2: spec2.tail[2]})
    report = verify(bad, 8, 40)
    assert report.mismatches > 0
    assert report.first_mismatch is not None
    assert report.first_mismatch.n == 10  # first n = 1 (mod 3) in range


@pytest.mark.parametrize(
    "word",
    [
        "10000",  # position 5 next to the z digit at position i0 = 6
        "00110",  # F_3 + F_2 = F_4: the right value, but not canonical
    ],
)
def test_verify_counts_non_canonical_rep_as_mismatch(spec2, word):
    # Built directly: synthesis, and so the loader, would refuse this word.
    assert spec2.tail[2] == "01000"
    bad = dataclasses.replace(spec2, tail={1: spec2.tail[1], 2: word})
    report = verify(bad, 8, 40)
    assert report.checked == 22
    assert report.mismatches == 11  # every n = 2 (mod 3) in range
    assert report.first_mismatch.n == 8
    assert report.first_mismatch.expected == (6, 4)
    assert report.first_mismatch.got == evaluate(bad, 8).indices


def test_verify_counts_unnormalizable_tail_as_mismatch(spec2):
    # A tail word with 1s at positions 2 and 1 cannot be canonicalized:
    # evaluate raises InvalidRep, which verify counts with got = ().
    bad = dataclasses.replace(spec2, tail={1: "10100", 2: "00011"})
    with pytest.raises(InvalidRep):
        evaluate(bad, 8)
    report = verify(bad, 8, 40)
    assert report.checked == 22
    assert report.mismatches == 11
    assert report.first_mismatch.n == 8
    assert report.first_mismatch.expected == (6, 4)
    assert report.first_mismatch.got == ()


@pytest.mark.parametrize("word", ["10100", "00011", "00110"])
def test_verify_skips_a_hand_built_class_at_an_inadmissible_residue(spec2, word):
    # Residue 0 is inadmissible for a = 2 (F_3 = 2).  With a class there,
    # evaluate would return a representation ("10100"), a non-canonical
    # one ("00110") or raise InvalidRep ("00011"); the oracle walk finds
    # gcd(2, F_n) = 2 first, and verify skips n.
    bad = dataclasses.replace(
        spec2,
        z={**spec2.z, 0: spec2.z[1]},
        tail={**spec2.tail, 0: word},
    )
    report = verify(bad, 8, 40)
    assert (report.checked, report.mismatches) == (verify(spec2, 8, 40).checked, 0)
    assert report.first_mismatch is None


def _hand_built_specs():
    """The damaged specs of the verify tests above, each with a window."""
    spec2, spec3, spec5 = _spec(2), _spec(3), _spec(5)
    tail2 = dict(spec2.tail)
    return [
        (dataclasses.replace(spec2, tail={**tail2, 1: "00100"}), 8, 40),
        (dataclasses.replace(spec2, tail={**tail2, 2: "10000"}), 8, 40),
        (dataclasses.replace(spec2, tail={**tail2, 2: "00110"}), 8, 40),
        (dataclasses.replace(spec2, tail={**tail2, 2: "00011"}), 8, 40),
        *(
            (dataclasses.replace(
                spec2, z={**spec2.z, 0: spec2.z[1]}, tail={**tail2, 0: word}
            ), 8, 40)
            for word in ("10100", "00011")
        ),
        (dataclasses.replace(spec3, tail={}), 8, 40),
        (dataclasses.replace(
            spec5,
            z={r: zc for r, zc in spec5.z.items() if r != 1},
            tail={r: word for r, word in spec5.tail.items() if r != 1},
        ), 21, 80),
    ]


def test_verify_skips_exactly_the_n_with_a_gcd_above_one(monkeypatch):
    # verify hands evaluate every n of the window with gcd(a, F_n) = 1 and
    # no other, on canonical specs and on hand-built ones alike, and
    # counts each of them.
    seen = []

    def spy(spec, n):
        seen.append(n)
        return evaluate(spec, n)

    cases = [(_spec(a), _spec(a).n0, _spec(a).n0 + 2 * _spec(a).M) for a in range(2, 41)]
    monkeypatch.setattr(zeckinv.pattern, "evaluate", spy)
    for spec, lo, hi in cases + _hand_built_specs():
        seen.clear()
        report = verify(spec, lo, hi)
        want = [n for n in range(lo, hi + 1) if math.gcd(spec.a, fib(n)) == 1]
        assert seen == want, (spec.a, lo, hi)
        assert report.checked == len(want), (spec.a, lo, hi)


def test_run_sum_matches_direct_summation():
    # S = F_x + F_(x+P) + ... + F_(n-P) with n = x + N*P, against the sum
    # itself: both parities of P, N = 0 (an empty sum), and x, and so
    # x - P, below zero.
    lo, hi = -62, 200 + 40 * 60 + 1
    fibs = {0: 0, 1: 1}
    for k in range(2, hi + 1):
        fibs[k] = fibs[k - 1] + fibs[k - 2]
    for k in range(-1, lo - 1, -1):
        fibs[k] = fibs[k + 2] - fibs[k + 1]
    for p in range(1, 61):
        fib_p = (fibs[p], fibs[p + 1])
        for x in range(-p - 2, 201):
            fib_x = (fibs[x], fibs[x + 1])
            direct = 0
            for n in range(x, x + 41 * p, p):
                assert _run_sum(p, fib_p, fib_x, (fibs[n], fibs[n + 1])) == direct, (p, x, n)
                direct += fibs[n]


def _decoding_verify(spec, lo, hi):
    """(checked, mismatches, first_mismatch) of verify's loop as it was
    before the block sums: every representation is decoded whole."""
    checked = mismatches = 0
    first = None
    for n in range(lo, hi + 1):
        try:
            want = inverse_oracle(spec.a, n)
        except NotCoprime:
            continue
        checked += 1
        rep = None
        try:
            rep = zeckinv.pattern.evaluate(spec, n)  # monkeypatched or not
            ok = decode(rep) == want
        except (DomainError, InvalidRep):
            ok = False
        if not ok:
            mismatches += 1
            if first is None:
                got = () if rep is None else rep.indices
                first = MismatchDetail(n=n, expected=encode(want).indices, got=got)
    return checked, mismatches, first


def _verify_result(spec, lo, hi):
    report = verify(spec, lo, hi)
    return report.checked, report.mismatches, report.first_mismatch


def _value_or_invalid(fn, *args):
    try:
        return fn(*args)
    except InvalidRep:
        return InvalidRep


def test_verify_matches_the_decoding_loop_across_the_crossover():
    # Every canonical spec, over a window whose top indices straddle
    # _BLOCKS_FROM; a spec with fewer than _MIN_BLOCKS full blocks there
    # (M above about 125) is decoded whole throughout.
    lo = _BLOCKS_FROM - 16
    for a in range(2, 121):
        spec = _spec(a)
        got = _verify_result(spec, lo, lo + 40)
        assert got == _decoding_verify(spec, lo, lo + 40), a
        assert got[1] == 0 and got[0] > 0, a


def _closed_form_from(spec):
    """The least n from which _rep_value may sum the blocks of n's rep:
    its top index reaches _BLOCKS_FROM and N >= _MIN_BLOCKS."""
    return max(_BLOCKS_FROM, _MIN_BLOCKS * spec.M + spec.i0)


def _blocks(spec, n):
    """(K, N, K*N) of n's residue: 1s per period, full blocks, block indices."""
    per = spec.z[n % spec.M].period
    k, nblocks = per.count("1"), (n - spec.i0) // len(per)
    return k, nblocks, k * nblocks


def _move_in_middle_block(spec, n, idx):
    # The first index of a middle block one down, or one up where that
    # keeps the representation canonical.
    k, nblocks, _ = _blocks(spec, n)
    j = k * (nblocks // 2)
    step = -1 if idx[j] - idx[j + 1] > 2 else 1
    return idx[:j] + (idx[j] + step,) + idx[j + 1 :]


def _drop_top_index(spec, n, idx):
    return idx[1:]


def _lower_every_block(spec, n, idx):
    # The lowest index of every full block one down: the blocks keep their
    # shape, so the block sum runs, on a wrong top block.
    k, _, top = _blocks(spec, n)
    return tuple(i - (t < top and t % k == k - 1) for t, i in enumerate(idx))


def _raise_every_block_bottom(spec, n, idx):
    # With K >= 2, the lowest index of every full block moved up next to
    # the one above it: the blocks keep their shape but none is canonical.
    k, _, top = _blocks(spec, n)
    if k < 2:
        return idx
    return tuple(
        idx[t - 1] - 1 if t < top and t % k == k - 1 else i for t, i in enumerate(idx)
    )


def _shift_blocks_up(spec, n, idx):
    # Every full block one period higher: the shape holds, but the top
    # block lies above n - 1.
    _, _, top = _blocks(spec, n)
    p = len(spec.z[n % spec.M].period)
    return tuple(i + p for i in idx[:top]) + idx[top:]


def _junction_gap_of_one(spec, n, idx):
    _, _, top = _blocks(spec, n)
    return idx[:top] + (idx[top - 1] - 1,) + idx[top + 1 :]


@pytest.mark.parametrize(
    "a, damage",
    [
        (a, damage)
        for damage in (
            _move_in_middle_block,
            _drop_top_index,
            _lower_every_block,
            _junction_gap_of_one,
        )
        for a in (2, 7, 11, 137)
    ]
    + [(7, _raise_every_block_bottom), (11, _raise_every_block_bottom)]
    + [(7, _shift_blocks_up), (127, _shift_blocks_up), (137, _shift_blocks_up)],
)
def test_verify_matches_the_decoding_loop_on_damaged_reps(monkeypatch, a, damage):
    spec = _spec(a)

    def damaged(spec, n):
        return ZeckendorfRep(damage(spec, n, evaluate(spec, n).indices), _validate=False)

    monkeypatch.setattr(zeckinv.pattern, "evaluate", damaged)
    lo = _closed_form_from(spec) + 100
    got = _verify_result(spec, lo, lo + 30)
    assert got == _decoding_verify(spec, lo, lo + 30)
    assert got[1] > 0
    # Each representation alone: the same value as decode, or InvalidRep.
    fibs = _fib_table(spec.i0 + spec.M + 1)
    for n in range(lo, lo + 31):
        if spec.is_admissible(n):
            rep = damaged(spec, n)
            assert _value_or_invalid(_rep_value, spec, n, rep, fib_pair(n), fibs) == (
                _value_or_invalid(decode, rep)
            ), n


def test_rep_value_decodes_whole_below_min_blocks(monkeypatch):
    # a = 250 has M = 1500: near n = 1100 its representations have no full
    # block (N = 0), near n = 1600 one (N = 1), while the top index is past
    # _BLOCKS_FROM.  _rep_value must hand each, whole, to decode, and a
    # short or damaged one must raise InvalidRep or give decode's value,
    # never read past the index list (IndexError).
    spec = _spec(250)
    fibs = _fib_table(spec.i0 + spec.M + 1)
    received = []

    def counting_decode(rep):
        received.append(rep.indices)
        return decode(rep)

    monkeypatch.setattr(zeckinv.pattern, "decode", counting_decode)
    seen = set()
    for n in [*range(1090, 1111), *range(1600, 1621)]:
        if not spec.is_admissible(n):
            continue
        seen.add((n - spec.i0) // spec.M)
        idx = evaluate(spec, n).indices
        assert idx[0] >= _BLOCKS_FROM, n
        for damaged in (idx, idx[1:], idx[:3], idx[:1] + (idx[1] + 1,) + idx[2:]):
            rep = ZeckendorfRep(damaged, _validate=False)
            received.clear()
            got = _value_or_invalid(_rep_value, spec, n, rep, fib_pair(n), fibs)
            assert got == _value_or_invalid(decode, rep), n
            assert received == [damaged], n
    assert seen == {0, 1}


def test_verify_matches_the_decoding_loop_on_long_periods():
    # M from 264 to 1500: windows that straddle the first n with
    # _MIN_BLOCKS full blocks, and windows near n = 20000.
    for a in (50, 86, 98, 100, 125, 137, 250, 311, 499):
        spec = _spec(a)
        assert 264 <= spec.M <= 1500, a
        start = _MIN_BLOCKS * spec.M + spec.i0
        for lo, hi in ((start - 10, start + 10), (20000, 20020)):
            got = _verify_result(spec, lo, hi)
            assert got == _decoding_verify(spec, lo, hi), (a, lo)
            assert got[1] == 0 and got[0] > 0, (a, lo)


def _hand_built_block_specs():
    """Specs whose damage sits in the period or the tail of residue 1."""
    spec7 = _spec(7)
    zc, word = spec7.z[1], spec7.tail[1]
    return [
        dataclasses.replace(spec7, z={**spec7.z, 1: ZClass(zc.b, "0" * spec7.M)}),
        dataclasses.replace(spec7, z={**spec7.z, 1: ZClass(zc.b, zc.period[:-1])}),
        dataclasses.replace(spec7, z={**spec7.z, 1: ZClass(zc.b, zc.period[:5])}),
        dataclasses.replace(spec7, tail={**spec7.tail, 1: word[:-1] + "1"}),
    ]


@pytest.mark.parametrize("spec", _hand_built_block_specs())
def test_verify_matches_the_decoding_loop_on_hand_built_specs(spec):
    # An all-zero period word, periods shorter than M, and a tail word
    # ending in "1", over a window holding residue 1 twice.
    lo = _closed_form_from(spec) + 100
    got = _verify_result(spec, lo, lo + 2 * spec.M)
    assert got == _decoding_verify(spec, lo, lo + 2 * spec.M)
    assert got[1] > 0


def test_verify_sums_full_blocks_without_decoding_them(monkeypatch):
    # Above the crossover decode sees only the low part of each canonical
    # representation, the positions below its lowest full block, so a
    # fallback to decoding whole representations fails the count.
    received = []

    def counting_decode(rep):
        received.append(rep.indices)
        return decode(rep)

    monkeypatch.setattr(zeckinv.pattern, "decode", counting_decode)
    for a in (2, 7, 11, 47, 137):
        spec = _spec(a)
        for lo in (_closed_form_from(spec) + 20, 30000):
            received.clear()
            report = verify(spec, lo, lo + 20)
            assert report.checked > 0 and report.mismatches == 0
            assert len(received) == report.checked, (a, lo)
            assert max(max(r) for r in received) < spec.i0 + spec.M, (a, lo)
            assert sum(map(len, received)) <= report.checked * (spec.i0 + spec.M) // 2


def test_report_to_json_dict_writes_the_first_mismatch(spec2):
    bad = dataclasses.replace(spec2, tail={1: "00100", 2: spec2.tail[2]})
    data = report_to_json_dict(verify(bad, 8, 40))
    assert set(data) == {
        "a", "n_lo", "n_hi", "checked", "mismatches", "first_mismatch", "timing"
    }
    first = data["first_mismatch"]
    assert set(first) == {"n", "expected", "got"}
    assert first["n"] == 10
    assert isinstance(first["expected"], list) and isinstance(first["got"], list)
    assert first["expected"] == list(encode(inverse_oracle(2, 10)).indices)
    assert first["got"] == list(evaluate(bad, 10).indices)
    assert json.loads(json.dumps(data)) == data


def test_missing_admissible_residue_is_a_domain_error_and_a_mismatch():
    # Only a hand-built spec can leave out a residue r with gcd(a, F_r) = 1;
    # that is no coprimality failure, and verify counts it with got = ().
    spec5 = _spec(5)
    assert spec5.M == 20 and 1 in spec5.z and math.gcd(5, fib(21)) == 1
    bad = dataclasses.replace(
        spec5,
        z={r: zc for r, zc in spec5.z.items() if r != 1},
        tail={r: word for r, word in spec5.tail.items() if r != 1},
    )
    for fn in (evaluate, splice_value):
        with pytest.raises(DomainError, match="no class for residue 1"):
            fn(bad, 21)
    report = verify(bad, 21, 21)
    assert (report.checked, report.mismatches) == (1, 1)
    assert report.first_mismatch == MismatchDetail(
        n=21, expected=encode(inverse_oracle(5, 21)).indices, got=()
    )


def test_verify_range_validation(spec2):
    with pytest.raises(DomainError):
        verify(spec2, 3, 100)  # below n0
    with pytest.raises(DomainError):
        verify(spec2, 50, 40)


def test_canonical_json_matches_golden_hashes():
    # SHA-256 of the canonical JSON of synthesize(a) for every a in
    # [2, 100]: saved pattern files must stay byte-stable.
    golden_path = Path(__file__).parent / "data" / "pattern_sha256.json"
    golden = json.loads(golden_path.read_text())
    assert sorted(map(int, golden)) == list(range(2, 101))
    for a in range(2, 101):
        text = json.dumps(to_json_dict(synthesize(a)), sort_keys=True, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == golden[str(a)], a


def test_canonical_json_matches_golden_hashes_beyond_100():
    # The same hashes for random.Random(6).sample(range(101, 301), 20).
    golden_path = Path(__file__).parent / "data" / "pattern_sha256_101_300.json"
    golden = json.loads(golden_path.read_text())
    sample = sorted(random.Random(6).sample(range(101, 301), 20))
    assert sorted(map(int, golden)) == sample
    for a in sample:
        text = json.dumps(to_json_dict(synthesize(a)), sort_keys=True, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == golden[str(a)], a


def _json_dumps_text(spec):
    return json.dumps(to_json_dict(spec), sort_keys=True, indent=2) + "\n"


def test_pattern_text_is_the_json_dumps_form():
    for a in range(2, 301):
        spec = synthesize(a)
        assert _pattern_text(spec) == _json_dumps_text(spec), a


@pytest.mark.parametrize(
    "spec",
    [
        PatternSpec(
            a=5,
            M=20,
            z={1: ZClass(-7, 'q"uo\\te'), 10: ZClass(2**64 + 1, "n\nl"), 2: ZClass(0, "é☃")},
            tail={1: "\\", 10: '"', 2: "\t\u2028é"},
        ),
        PatternSpec(a=3, M=8, z={-1: ZClass(-(2**70), "")}, tail={-1: ""}),
        PatternSpec(a=3, M=8, z={}, tail={}),
    ],
    ids=["escapes", "negative", "empty"],
)
def test_pattern_text_matches_json_dumps_on_hand_built_specs(spec):
    # Words that need escaping, non-ASCII characters, big and negative
    # integers and empty tables, none of which synthesis produces.
    assert _pattern_text(spec) == _json_dumps_text(spec)


def test_saved_files_match_golden_hashes(tmp_path):
    # The bytes save_pattern writes, without the trailing newline, hash to
    # the same goldens as the json.dumps form.
    golden = json.loads((Path(__file__).parent / "data" / "pattern_sha256.json").read_text())
    path = tmp_path / "p.json"
    for a in range(2, 101):
        save_pattern(synthesize(a), str(path))
        data = path.read_bytes()
        assert data.endswith(b"}\n")
        assert hashlib.sha256(data[:-1]).hexdigest() == golden[str(a)], a


@pytest.mark.parametrize("name", ["a", "M", "ell", "i0", "n0", "tail_period"])
def test_from_json_rejects_non_integer_fields(spec2, name):
    # ell, i0, n0 and tail_period are no longer fields: a file carrying
    # one is refused as carrying an extra field, whatever its value.
    good = getattr(spec2, name)
    for bad in (good + 0.9, float(good), str(good), True):
        with pytest.raises(DomainError):
            from_json_dict(tampered(spec2, **{name: bad}))


def test_from_json_rejects_coerced_entries(spec2):
    assert spec2.z[1].b == 1
    for bad in (1.0, 1.5, "1", True):
        data = to_json_dict(spec2)
        data["z"]["1"]["b"] = bad
        with pytest.raises(DomainError):
            from_json_dict(data)
    data = to_json_dict(spec2)
    data["z"]["1"]["period_bits"] = list("010")
    with pytest.raises(DomainError):
        from_json_dict(data)
    data = to_json_dict(spec2)
    data["tail"]["1"] = list("10100")
    with pytest.raises(DomainError):
        from_json_dict(data)
    for key in ("x", "01", " 1", "+1"):
        data = to_json_dict(spec2)
        data["z"][key] = data["z"].pop("1")
        with pytest.raises(DomainError):
            from_json_dict(data)
        data = to_json_dict(spec2)
        data["tail"][key] = data["tail"].pop("1")
        with pytest.raises(DomainError):
            from_json_dict(data)


def test_from_json_rejects_huge_tail_period_quickly(spec2):
    # tail_period is an extra field; the file is refused after the words
    # of a = 2 are checked, whatever the value.
    text = json.dumps(tampered(spec2, tail_period=3 * 10**6), sort_keys=True, indent=2)
    assert len(text) < 400
    t0 = time.perf_counter()
    with pytest.raises(DomainError):
        from_json_dict(json.loads(text))
    assert time.perf_counter() - t0 < 0.05


@pytest.mark.parametrize("m_per", [3, 10**12])
def test_from_json_bounds_the_residue_walk_by_m(m_per):
    # Each file has the canonical fields and equal table sizes, so only
    # the walk of F_r mod a, which the file's M bounds, can refuse it: at
    # its end for M = 3 (F_3 mod a is not 0), at r = 3 for M = 10^12 (F_3
    # = 2 is a unit mod the odd a, but 3 is not a listed residue).
    a = 10**12 + 39
    entry = {"b": 1, "period_bits": "010"}
    data = {"a": a, "M": m_per, "z": {"1": entry, "2": entry},
            "tail": {"1": "0", "2": "0"}}
    t0 = time.perf_counter()
    with pytest.raises(DomainError):
        from_json_dict(data)
    assert time.perf_counter() - t0 < 0.05


def test_from_json_rejects_multiple_of_pisano_period(spec2):
    # a = 2 has Pisano period 3; this file repeats the real z and tail
    # tables over M = 6, so every other invariant holds.
    data = to_json_dict(spec2)
    data["M"] = 6
    data["z"] = {str(r): data["z"][str(r % 3)] for r in (1, 2, 4, 5)}
    data["tail"] = {str(c): data["tail"][str(c % 3)] for c in (1, 2, 4, 5)}
    with pytest.raises(DomainError, match="Pisano"):
        from_json_dict(data)


def test_from_json_refuses_tail_table_sized_unlike_z_before_synthesis(spec2, monkeypatch):
    # The real z table of a = 2 and its tail table repeated over 6
    # residues: M is right, but the tail table has two entries per residue.
    # The Fibonacci table that the word sums and the oracle walk read is
    # the loader's first costly step.
    monkeypatch.setattr(zeckinv.pattern, "_fib_table", _must_not_run)
    monkeypatch.setattr(zeckinv.pattern, "_oracle_walk", _must_not_run)
    data = to_json_dict(spec2)
    data["tail"] = {str(c): data["tail"][str(c % 3)] for c in (1, 2, 4, 5)}
    with pytest.raises(DomainError, match="tail table"):
        from_json_dict(data)


def test_from_json_refuses_short_words_before_synthesis(spec7, monkeypatch):
    # Keys, b values, table sizes and M of a = 2503 (M = 5008) are all
    # right, but every period and tail word is "0": checking the words of
    # such a file would cost far more than its size, so their lengths are
    # checked first.  The same check refuses a short or non-string tail word.
    monkeypatch.setattr(zeckinv.pattern, "_fib_table", _must_not_run)
    monkeypatch.setattr(zeckinv.pattern, "_oracle_walk", _must_not_run)
    a = 2503
    fs = list(fib_residues(a))
    z = {
        str(r): {"b": -pow(f, -1, a) % a, "period_bits": "0"}
        for r, f in enumerate(fs)
        if math.gcd(a, f) == 1
    }
    data = {"a": a, "M": len(fs), "z": z, "tail": dict.fromkeys(z, "0")}
    with pytest.raises(DomainError, match="5008 digits, in field 'z' at key '1'"):
        from_json_dict(data)
    for word in ("0", None, 0):
        data = to_json_dict(spec7)
        data["tail"]["3"] = word
        with pytest.raises(DomainError, match="in field 'tail' at key '3'"):
            from_json_dict(data)


# --- from_json_dict fuzzing -------------------------------------------------------

# Each drawn value is a fresh copy: a later mutation may edit a drawn
# list or dict in place, and must not edit the sampled one.
_ODD_VALUES = st.sampled_from(
    [None, True, False, 0, 1, -1, -(10**30), 2**64, 10**100, 0.5, 3.0, "", "1",
     "010", [], [1], {}, {"b": 1}]
).map(copy.deepcopy)
_ODD_KEYS = st.sampled_from(["01", " 1", "+1", "-1", "1.0", "x", "", "9" * 40])


@st.composite
def _mutated_pattern(draw):
    """A real spec's JSON dict with 1-4 mutations: a key dropped, a value of
    the wrong type or size, a key made non-canonical, or a table or word cut
    short.  Each mutation lands in the top level, ``z``, one entry of ``z``
    or ``tail``."""
    data = to_json_dict(_spec(draw(st.sampled_from([2, 7]))))
    for _ in range(draw(st.integers(1, 4))):
        z, tail = data.get("z"), data.get("tail")
        tables = [data] + [t for t in (z, tail) if isinstance(t, dict)]
        if isinstance(z, dict):
            tables += [entry for entry in z.values() if isinstance(entry, dict)]
        table = draw(st.sampled_from([t for t in tables if t]))
        key = draw(st.sampled_from(sorted(table)))
        action = draw(st.sampled_from(["drop", "value", "int", "rekey", "truncate"]))
        if action == "drop":
            del table[key]
        elif action == "value":
            table[key] = draw(_ODD_VALUES)
        elif action == "int":
            table[key] = draw(st.integers(-(10**40), 10**40))
        elif action == "rekey":
            table[draw(_ODD_KEYS)] = table.pop(key)
        elif isinstance(table[key], str):
            table[key] = table[key][: draw(st.integers(0, len(table[key])))]
        elif isinstance(table[key], dict):
            items = list(table[key].items())
            table[key] = dict(items[: draw(st.integers(0, len(items)))])
    return data


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_mutated_pattern())
def test_from_json_dict_fuzz_raises_only_domain_error(data):
    t0 = time.perf_counter()
    try:
        from_json_dict(data)
    except DomainError:
        pass
    assert time.perf_counter() - t0 < 0.5
