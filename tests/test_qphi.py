"""Tests for exact arithmetic in Q(phi)."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeckinv import PHI, QPhi, fib, parse_qphi, phi_pow, sqrt5
from zeckinv.errors import DomainError
from zeckinv.qphi import sign_of


def rand_qphi(rng, mag=1000):
    return QPhi(
        Fraction(rng.randint(-mag, mag), rng.randint(1, mag)),
        Fraction(rng.randint(-mag, mag), rng.randint(1, mag)),
    )


def test_mul_examples():
    assert QPhi(1, 1) * QPhi(1, 1) == QPhi(2, 3)
    x = QPhi(Fraction(3, 7), Fraction(-2, 5))
    assert QPhi(0, 0) + x == x
    assert QPhi(1, 0) * x == x


def test_phi_squared_identity():
    assert PHI * PHI == PHI + 1


def test_conj():
    assert QPhi(0, 1).conj() == QPhi(1, -1)
    assert QPhi(1, 0).conj() == QPhi(1, 0)
    rng = random.Random(7)
    for _ in range(50):
        x = rand_qphi(rng)
        assert x.conj().conj() == x


def test_conj_is_multiplicative():
    rng = random.Random(11)
    for _ in range(100):
        x, y = rand_qphi(rng), rand_qphi(rng)
        assert (x * y).conj() == x.conj() * y.conj()


def test_sign_examples():
    assert QPhi(-1, 1).sign() == 1  # phi - 1 > 0
    assert QPhi(0, 0).sign() == 0
    assert QPhi(1, -1).sign() == -1  # 1 - phi < 0
    assert sqrt5().sign() == 1
    # Tight cases on both sides of zero.
    assert (PHI - Fraction(1618, 1000)).sign() == 1
    assert (PHI - Fraction(1619, 1000)).sign() == -1


_BIG = 2**80
_coords = st.one_of(
    st.integers(-_BIG, _BIG),
    st.fractions(min_value=-_BIG, max_value=_BIG, max_denominator=_BIG),
)
_pairs = st.one_of(
    st.tuples(_coords, _coords),
    # F_(n+1) - F_n*phi = (-1)^n phi^-n: tiny, sign settled by s^2 vs 5 v^2.
    st.integers(1, 115).map(lambda n: (fib(n + 1), -fib(n))),
)


@settings(derandomize=True, max_examples=300)
@given(_pairs, st.integers(1, _BIG))
def test_sign_of_properties(pair, k):
    u, v = pair
    x = QPhi(u, v)
    assert sign_of(u, v) == x.sign()
    assert x.sign() * x.conj().sign() == (x.norm() > 0) - (x.norm() < 0)
    assert sign_of(k * u, k * v) == sign_of(u, v)


def test_floor_examples():
    assert QPhi(0, 1).floor() == 1
    assert QPhi(Fraction(1, 2), 0).floor() == 0
    assert QPhi(Fraction(3, 2), Fraction(1, 2)).floor() == 2
    assert math.floor(QPhi(0, -1)) == -2  # -phi = -1.618...


def test_floor_sandwich_random():
    rng = random.Random(13)
    for _ in range(1000):
        x = rand_qphi(rng, mag=1000)
        k = x.floor()
        assert QPhi(k) <= x < QPhi(k + 1)


def test_field_axioms_random():
    rng = random.Random(17)
    for _ in range(100):
        x, y, z = (rand_qphi(rng, 50) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x
        if y != QPhi(0):
            assert (x / y) * y == x


def test_sqrt5():
    assert sqrt5() == QPhi(-1, 2)
    assert sqrt5() * sqrt5() == QPhi(5, 0)


def test_phi_pow_examples():
    assert phi_pow(0) == QPhi(1, 0)
    assert phi_pow(-1) == QPhi(-1, 1)
    assert phi_pow(2) == QPhi(1, 1)


def test_phi_pow_additivity():
    for j in range(-20, 21):
        for k in range(-20, 21):
            assert phi_pow(j) * phi_pow(k) == phi_pow(j + k)


def test_phi_pow_matches_pow_operator():
    for k in range(-15, 16):
        assert PHI**k == phi_pow(k)


def test_binet():
    s5 = sqrt5()
    for n in range(1, 41):
        value = (phi_pow(n) - phi_pow(n).conj()) / s5
        assert value == QPhi(fib(n), 0)


def test_division_and_inverse():
    x = QPhi(Fraction(2, 3), Fraction(-5, 7))
    assert x * x.inverse() == QPhi(1)
    with pytest.raises(ZeroDivisionError):
        QPhi(0).inverse()
    assert (QPhi(1) / PHI) == PHI - 1


def test_order_is_total():
    rng = random.Random(23)
    vals = [rand_qphi(rng, 30) for _ in range(30)]
    svals = sorted(vals)
    for a, b in zip(svals, svals[1:]):
        assert a <= b


def test_str_and_parse_round_trip():
    cases = [
        QPhi(Fraction(1, 2), 0),
        QPhi(0, 1),
        QPhi(-1, 1),
        QPhi(Fraction(3, 2), Fraction(-1, 2)),
        QPhi(7),
    ]
    for x in cases:
        assert parse_qphi(str(x)) == x
    assert parse_qphi("1/2") == QPhi(Fraction(1, 2))
    assert parse_qphi("phi") == PHI
    assert parse_qphi("-phi") == -PHI
    assert parse_qphi("2*phi") == QPhi(0, 2)
    assert parse_qphi("1 + 1/3·phi") == QPhi(1, Fraction(1, 3))
    for bad in ("", "one + phi", "1 +", "phi phi", "1/0 + phi"):
        with pytest.raises(DomainError):
            parse_qphi(bad)


def test_parse_refuses_long_coefficients_and_other_number_forms_at_once():
    # A coefficient past the int/str conversion limit, and the decimal and
    # exponent forms, which the grammar (sign, digits, optional /digits)
    # does not have; 10^-30000000 alone would take seconds to build.
    long = "7" * 5000
    for bad in (f"1/{long}*phi", long, f"{long}/3", "1e-30000000", "1e3000000", "0.5"):
        start = time.perf_counter()
        with pytest.raises(DomainError):
            parse_qphi(bad)
        assert time.perf_counter() - start < 1, bad


def test_immutability_and_hash():
    x = QPhi(1, 2)
    with pytest.raises(AttributeError):
        x.u = Fraction(3)
    assert hash(QPhi(1, 2)) == hash(QPhi(1, 2))
