"""Tests for base-phi digit expansions."""

import copy
import math
import pickle
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeckinv import (
    DomainError,
    EventuallyPeriodicBits,
    PHI,
    PreconditionError,
    QPhi,
    digit_at,
    encode,
    eval_closed_form,
    expand,
    phi_pow,
    splice_check,
    zeckendorf_from_phi,
)
from zeckinv.basephi import _primitive_root
from zeckinv.qphi import sign_of

HALF = QPhi(Fraction(1, 2), 0)


# --- digit sequence type ----------------------------------------------------


def test_bits_type_validation():
    EventuallyPeriodicBits("", "010")  # fine
    EventuallyPeriodicBits("1", "0")  # fine
    with pytest.raises(DomainError):
        EventuallyPeriodicBits("", "")  # empty period
    with pytest.raises(DomainError):
        EventuallyPeriodicBits("11", "0")  # consecutive ones
    with pytest.raises(DomainError):
        EventuallyPeriodicBits("1", "10")  # ones across the junction
    EventuallyPeriodicBits("", "0100")  # primitive, junction-safe: fine
    with pytest.raises(DomainError):
        EventuallyPeriodicBits("", "010010")  # non-primitive period
    with pytest.raises(DomainError):
        EventuallyPeriodicBits("0", "010")  # preperiod not minimal (0|010 = |001 rolls)
    with pytest.raises(DomainError):
        EventuallyPeriodicBits("", "01")  # ultimately alternating
    with pytest.raises(DomainError):
        EventuallyPeriodicBits("", "10")
    assert EventuallyPeriodicBits("", "010").render() == "|010"
    assert EventuallyPeriodicBits("1", "0").render() == "1|0"


def test_bits_is_an_immutable_record():
    bits = EventuallyPeriodicBits("", "010")
    for name in ("preperiod", "period", "other"):
        with pytest.raises(AttributeError):
            setattr(bits, name, "0")
        with pytest.raises(AttributeError):
            delattr(bits, name)
    assert (bits.preperiod, bits.period) == ("", "010")
    same = EventuallyPeriodicBits(preperiod="", period="010")
    assert same == bits and same is not bits and hash(same) == hash(bits)
    assert len({bits, same, EventuallyPeriodicBits("1", "0")}) == 2
    assert bits != EventuallyPeriodicBits("1", "0")
    assert bits != ("", "010")
    assert repr(bits) == "EventuallyPeriodicBits(preperiod='', period='010')"
    assert str(bits) == bits.render() == "|010"
    for clone in (copy.copy(bits), copy.deepcopy(bits), pickle.loads(pickle.dumps(bits))):
        assert clone == bits and type(clone) is EventuallyPeriodicBits


def test_every_way_of_building_bits_refuses_a_bad_word():
    good = EventuallyPeriodicBits("", "010")
    # Protocol 0 writes each word as a text line, so the good period can be
    # swapped for a bad one in the stored bytes.
    stored = pickle.dumps(good, protocol=0)
    assert stored.count(b"V010\n") == 1
    builders = [
        lambda: EventuallyPeriodicBits("", "11"),
        lambda: EventuallyPeriodicBits(preperiod="", period="11"),
        lambda: pickle.loads(stored.replace(b"V010\n", b"V11\n")),
    ]
    if hasattr(good, "_make"):  # a namedtuple's builders skip __new__
        builders += [lambda: good._make(("", "11")), lambda: good._replace(period="11")]
    for build in builders:
        with pytest.raises(DomainError, match="consecutive 1s"):
            build()


@pytest.mark.parametrize("word", ["0x0", "01 0", "0\n1", "010\u00b9", "0١0"])
def test_bits_refuse_non_bit_characters_inside_a_word(word):
    with pytest.raises(DomainError, match="not a bit word"):
        EventuallyPeriodicBits("", word)
    with pytest.raises(DomainError, match="not a bit word"):
        EventuallyPeriodicBits(word, "0")


@settings(derandomize=True, max_examples=200)
@given(st.text("01", min_size=1), st.text("01"), st.characters(blacklist_characters="01"))
def test_bits_refuse_any_non_bit_character(head, rest, ch):
    with pytest.raises(DomainError, match="not a bit word"):
        EventuallyPeriodicBits("", head + ch + rest)


def _brute_primitive_root(word):
    n = len(word)
    units = (word[:d] for d in range(1, n + 1) if n % d == 0)
    return next((u for u in units if u * (n // len(u)) == word), word)


_BIT_WORDS = st.one_of(
    st.text("01", max_size=40),
    st.builds(lambda u, k: u * k, st.text("01", min_size=1, max_size=12), st.integers(1, 6)),
)


@settings(derandomize=True, max_examples=400)
@given(_BIT_WORDS)
def test_primitive_root_is_the_shortest_repeated_unit(word):
    assert _primitive_root(word) == _brute_primitive_root(word)


# --- expand ------------------------------------------------------------------


def test_expand_examples():
    assert expand(Fraction(1, 2)).render() == "|010"
    assert expand(0).render() == "|0"
    assert expand(QPhi(-1, 1)).render() == "1|0"  # phi - 1


def test_expand_domain():
    with pytest.raises(DomainError):
        expand(QPhi(1, 0))
    with pytest.raises(DomainError):
        expand(Fraction(-1, 7))
    with pytest.raises(DomainError):
        expand(PHI)
    # Past the int/str digit limit the error text still carries no value.
    with pytest.raises(DomainError):
        expand(phi_pow(30000))


def test_expand_round_trip_random():
    rng = random.Random(101)
    seen = 0
    while seen < 500:
        den = rng.randint(1, 100)
        p = rng.randint(-3 * den, 3 * den)
        q = rng.randint(-2 * den, 2 * den)
        x = QPhi(Fraction(p, den), Fraction(q, den))
        if x.sign() < 0 or (x - 1).sign() >= 0:
            continue
        seen += 1
        bits = expand(x)
        assert eval_closed_form(bits) == x
    # Orbit coordinates of these reach 4e16 to 1.4e19, past 2^63.  The
    # expansion is unique, so the round trip also pins preperiod and period.
    for x in (
        phi_pow(-80),
        phi_pow(-91),
        Fraction(1, 3) + phi_pow(-90),
        Fraction(2, 7) + phi_pow(-85),
    ):
        assert eval_closed_form(expand(x)) == x


def _sign_of_expansion(x):
    """(preperiod, period) of x in [0, 1), walked apart from ``expand``.

    The state (p, q) of x = (p + q*phi)/den steps to (q - d*den, p + q),
    with the digit d decided by ``sign_of`` and each state keyed as a
    tuple; no floor of phi*v is taken.
    """
    den = math.lcm(x.u.denominator, x.v.denominator)
    state = (int(x.u * den), int(x.v * den))
    seen = {}
    digits = []
    while state not in seen:
        seen[state] = len(digits)
        p, q = state
        d = 1 if sign_of(q - den, p + q) >= 0 else 0
        digits.append("01"[d])
        state = (q - den * d, p + q)
    word = "".join(digits)
    return word[: seen[state]], word[seen[state] :]


def test_expand_matches_a_sign_of_reference():
    rng = random.Random(107)
    xs = [
        QPhi(0),
        QPhi(-1, 1),  # phi - 1
        QPhi(Fraction(996, 997)),
        1 - phi_pow(-40),
        QPhi(2, -1) - phi_pow(-93),  # 2 - phi is below 1; coordinates past 2^63
        Fraction(1, 3) + phi_pow(-95),
        Fraction(3, 7) - phi_pow(-94),
        # Preperiods of 503 and 501 digits, most of them walked while the
        # coordinates are far past the range that holds in a period.
        HALF + phi_pow(-500),
        Fraction(1, 3) - phi_pow(-501),
        QPhi(Fraction(1, 7919)),  # period 7,918
    ]
    while len(xs) < 400:
        den = rng.randint(1, 400)
        x = QPhi(
            Fraction(rng.randint(-4 * den, 4 * den), den),
            Fraction(rng.randint(-3 * den, 3 * den), den),
        )
        if x.sign() >= 0 and (x - 1).sign() < 0:
            xs.append(x)
    with_pre = negative_q = past_2_63 = 0
    for x in xs:
        bits = expand(x)
        assert (bits.preperiod, bits.period) == _sign_of_expansion(x), x
        with_pre += bits.preperiod != ""
        negative_q += x.v < 0
        past_2_63 += max(abs(x.u.numerator), abs(x.v.numerator)) > 2**63
    assert with_pre > 100 and negative_q > 100 and past_2_63 == 5


def test_expand_keeps_no_table_of_states():
    # The walk keeps its digits, the floor memo and one saved state: about
    # 8 MiB for the 200,008 digits of 1/100003, where a dict keyed by every
    # orbit state peaked at 39 MiB.
    expand(Fraction(1, 3))  # loads qphi outside the measured call
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        bits = expand(Fraction(1, 100003))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (bits.preperiod, len(bits.period)) == ("", 200008)
    assert peak < 20 * 2**20


def test_expand_rationals_purely_periodic_sample():
    # The full a <= 150 sweep lives in the acceptance suite.
    for a in range(2, 61):
        for b in range(1, a):
            bits = expand(Fraction(b, a))
            assert bits.preperiod == ""
            assert eval_closed_form(bits) == QPhi(Fraction(b, a))


def test_expansions_stay_in_valid_class():
    # Validation happens in the EventuallyPeriodicBits constructor; here we
    # double-check the raw words for a sample of harder inputs.
    rng = random.Random(103)
    for _ in range(200):
        den = rng.randint(1, 60)
        p = rng.randint(-2 * den, 2 * den)
        q = rng.randint(-den, den)
        x = QPhi(Fraction(p, den), Fraction(q, den))
        if x.sign() < 0 or (x - 1).sign() >= 0:
            continue
        bits = expand(x)
        stream = bits.preperiod + bits.period * 3
        assert "11" not in stream
        assert bits.period not in ("01", "10")


def test_eval_closed_form_examples():
    assert eval_closed_form(EventuallyPeriodicBits("", "010")) == HALF
    assert eval_closed_form(EventuallyPeriodicBits("", "0")) == QPhi(0, 0)
    assert eval_closed_form(EventuallyPeriodicBits("1", "0")) == QPhi(-1, 1)


def test_digit_at():
    bits = EventuallyPeriodicBits("", "010")
    assert [digit_at(bits, i) for i in range(1, 8)] == [0, 1, 0, 0, 1, 0, 0]
    assert digit_at(EventuallyPeriodicBits("1", "0"), 1) == 1
    assert digit_at(EventuallyPeriodicBits("1", "0"), 99) == 0
    with pytest.raises(DomainError):
        digit_at(bits, 0)


# --- zeckendorf_from_phi ------------------------------------------------------


def test_zeckendorf_from_phi_examples():
    assert zeckendorf_from_phi(1).indices == (2,)
    assert zeckendorf_from_phi(11).indices == (6, 4)
    assert zeckendorf_from_phi(54).indices == (9, 7, 5, 3)
    with pytest.raises(DomainError):
        zeckendorf_from_phi(0)


def test_zeckendorf_from_phi_matches_greedy_sample():
    # Full [1, 10^4] sweep is acceptance criterion 6.
    rng = random.Random(107)
    for n in [rng.randint(1, 10**6) for _ in range(300)]:
        assert zeckendorf_from_phi(n) == encode(n)


# --- splice_check -------------------------------------------------------------


def test_splice_examples():
    # digits of 1/2 are 0,1,0,0,1,0,...: positions 3,4 are both 0.
    assert splice_check(HALF, HALF, 9, 3) is True
    assert splice_check(HALF, QPhi(0), 9, 3) is True  # y = 0: v = x
    assert splice_check(QPhi(0), HALF, 5, 1) is True  # x = 0: pure shift


def test_splice_precondition_errors():
    with pytest.raises(PreconditionError):
        splice_check(HALF, HALF, 4, 3)  # lam + 2 > m
    with pytest.raises(PreconditionError):
        splice_check(HALF, HALF, 9, 2)  # digit 2 of 1/2 is 1


def test_splice_precondition_error_names_no_value():
    # x's coordinates have more digits than int/str conversion allows, so an
    # error text that formats x would raise ValueError in its place.  The
    # limit is lowered to its minimum, 640 digits, so that x = 1/2 + phi^-3200
    # (669-digit coordinates, 3,203 digits of preperiod) is past it and
    # expands in 0.03-0.06 s; at the default limit the first such phi^-k has
    # k near 20,600 and expands in 4-6 s (2-vCPU host, Python 3.11).
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        x = HALF + phi_pow(-3200)
        with pytest.raises(ValueError, match="limit"):
            str(x)
        with pytest.raises(PreconditionError, match=r"^digits 1, 2 of x must both be 0$"):
            splice_check(x, 0, 5, 1)
    finally:
        sys.set_int_max_str_digits(limit)


def test_splice_precondition_reads_two_digits_not_the_expansion():
    # x = 1/2 + phi^-30000 has a preperiod of 29,999 digits, and expanding it
    # takes 10-13 s (2-vCPU host, Python 3.11); its digit 2 is 1, as for 1/2,
    # so the precondition fails after two steps of the digit map.
    x = HALF + phi_pow(-30000)
    started = time.perf_counter()
    with pytest.raises(PreconditionError, match=r"^digits 1, 2 of x must both be 0$"):
        splice_check(x, 0, 5, 1)
    assert time.perf_counter() - started < 0.5


@pytest.mark.parametrize("x", [QPhi(Fraction(3, 2)), QPhi(-1), PHI, 1 + phi_pow(-40)])
def test_splice_refuses_x_outside_the_unit_interval_before_its_digits(x):
    # The digit map would read digit 1 of 3/2 or phi as 1, yet an x outside
    # [0, 1) is a DomainError, never a PreconditionError.
    with pytest.raises(DomainError, match=r"^x is outside \[0, 1\)$"):
        splice_check(x, 0, 5, 1)


def test_splice_randomized():
    rng = random.Random(109)
    done = 0
    while done < 60:
        den = rng.randint(2, 40)
        x = QPhi(Fraction(rng.randint(0, den - 1), den))
        ex = expand(x)
        lam = None
        for i in range(1, 40):
            if digit_at(ex, i) == 0 and digit_at(ex, i + 1) == 0:
                lam = i
                break
        if lam is None:
            continue
        m = lam + 2 + rng.randint(0, 6)
        y = QPhi(Fraction(rng.randint(0, den - 1), den))
        assert splice_check(x, y, m, lam) is True
        done += 1
