"""Tests for the closed-form modular inverse against the direct oracle."""

import math

import pytest

import zeckinv.bigfib
from zeckinv.inverse import _oracle_walk
from zeckinv.pattern import _i0
from zeckinv import (
    DomainError,
    NotCoprime,
    fib,
    inverse_closed,
    inverse_oracle,
    pisano,
)


def test_oracle_examples():
    # F_5 = 5: 3 * 2 = 6 = 1 mod 5.
    assert inverse_oracle(3, 5) == 2
    # F_8 = 21: 2 * 11 = 22 = 1 mod 21.
    assert inverse_oracle(2, 8) == 11
    assert inverse_oracle(1, 10) == 1


def test_oracle_not_coprime():
    with pytest.raises(NotCoprime) as exc:
        inverse_oracle(2, 6)  # F_6 = 8
    assert exc.value.gcd == 2
    with pytest.raises(NotCoprime):
        inverse_oracle(3, 8)  # F_8 = 21 = 3 * 7


@pytest.mark.parametrize("a", range(2, 61))
def test_oracle_walk_matches_the_one_n_oracle(a):
    # Windows from n = 3 and from n0, each short and longer than 2M: one
    # walk per window, against the oracle's own fast doubling per n.
    m, n0 = pisano(a), _i0(a) + 1
    for lo, hi in ((3, 30), (3, 3 + 2 * m + 1), (n0, n0 + 30), (n0, n0 + 2 * m + 1)):
        walked = list(_oracle_walk(a, lo, hi))
        assert len(walked) == hi - lo + 1
        for n, (g, value, f, f1) in zip(range(lo, hi + 1), walked):
            assert (f, f1) == (fib(n), fib(n + 1)), (a, n)
            assert g == math.gcd(a, fib(n)), (a, n)
            if g == 1:
                assert value == inverse_oracle(a, n), (a, n)
            else:
                assert value is None, (a, n)
                with pytest.raises(NotCoprime) as exc:
                    inverse_oracle(a, n)
                assert exc.value.gcd == g, (a, n)


def test_closed_examples():
    res = inverse_closed(3, 5)
    assert (res.value, res.b) == (2, 1)
    assert res == (3, 5, 2, 1)  # a named tuple (a, n, value, b)
    assert inverse_closed(2, 8).value == 11
    assert inverse_closed(1, 77).value == 1


def test_closed_requires_admissible_n():
    with pytest.raises(NotCoprime) as exc:
        inverse_closed(2, 9)  # F_9 = 34
    assert exc.value.gcd == 2
    with pytest.raises(DomainError):
        inverse_closed(3, 2)
    with pytest.raises(DomainError):
        inverse_closed(0, 10)


def test_closed_matches_oracle_exhaustive():
    for a in range(1, 51):
        for n in range(3, 201):
            if math.gcd(a, fib(n)) != 1:
                with pytest.raises(NotCoprime):
                    inverse_closed(a, n)
                continue
            got = inverse_closed(a, n)
            want = inverse_oracle(a, n)
            assert got.value == want, (a, n)
            assert got.a == a and got.n == n
            assert 0 <= got.b < max(a, 1)
            # The defining identity, checked directly.
            assert (got.b * fib(n) + 1) % a == 0
            assert got.value == (got.b * fib(n) + 1) // a


def test_closed_form_needs_no_pisano_period(monkeypatch):
    # b follows from F_n mod a, so the closed form never walks pi(a).
    def no_pisano_walk(m):
        raise AssertionError(f"fib_residues({m}) called")

    monkeypatch.setattr(zeckinv.bigfib, "fib_residues", no_pisano_walk)
    for a in range(1, 51):
        for n in range(3, 201):
            if math.gcd(a, fib(n)) != 1:
                continue
            got = inverse_closed(a, n)
            want = inverse_oracle(a, n)
            assert got.value == want, (a, n)
            # a*want - 1 = b*F_n with 0 <= b < a, as 1 <= want <= F_n.
            assert got.b == (a * want - 1) // fib(n), (a, n)


def test_value_range_convention():
    # Inverses land in [1, F_n], with m itself standing in for residue 0
    # only when the modulus is 1 (n = 1, 2 are excluded by the domain).
    for a in (1, 2, 3, 7, 10):
        for n in range(3, 40):
            if math.gcd(a, fib(n)) != 1:
                continue
            v = inverse_oracle(a, n)
            assert 1 <= v <= fib(n)
            assert (a * v) % fib(n) == 1 % fib(n)
