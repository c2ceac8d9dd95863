"""Tests for Fibonacci primitives, checked against naive-iteration oracles."""

import math

import pytest

from zeckinv import DomainError, NotCoprime, fib, fib_mod, mod_inverse, pisano


# --- independent oracles (plain recurrence iteration, no doubling) ---------


def naive_fib_list(count):
    xs = [0, 1]
    while len(xs) < count:
        xs.append(xs[-1] + xs[-2])
    return xs[:count]


def naive_pisano(m):
    if m == 1:
        return 1
    a, b, k = 0, 1, 0
    while True:
        a, b = b, (a + b) % m
        k += 1
        if (a, b) == (0, 1 % m):
            return k


NAIVE_FIBS = naive_fib_list(400)


# --- fib --------------------------------------------------------------------


def test_fib_small_values():
    assert fib(0) == 0
    assert fib(1) == 1
    assert fib(2) == 1
    assert fib(10) == 55
    assert fib(12) == 144


def test_fib_matches_recurrence_oracle():
    for n, want in enumerate(NAIVE_FIBS):
        assert fib(n) == want


def test_fib_large_index_recurrence():
    assert fib(1000) == fib(999) + fib(998)
    assert fib(1000) > 10**200


def test_fib_negative_rejected():
    with pytest.raises(DomainError):
        fib(-1)


# --- fib_mod ----------------------------------------------------------------


def test_fib_mod_examples():
    assert fib_mod(10, 7) == 6
    assert fib_mod(8, 2) == 1
    for n in (0, 5, 123456):
        assert fib_mod(n, 1) == 0


def test_fib_mod_agrees_with_fib_for_all_small_moduli():
    for m in range(1, 201):
        for n in range(0, 60):
            assert fib_mod(n, m) == NAIVE_FIBS[n] % m


def test_fib_mod_huge_index():
    # n far beyond anything fib() could materialize; reduce via the period.
    n, m = 10**9, 1000
    r = n % naive_pisano(m)
    a, b = 0, 1
    for _ in range(r):
        a, b = b, (a + b) % m
    assert fib_mod(n, m) == a


# --- pisano -----------------------------------------------------------------


def test_pisano_spot_values():
    for m, want in [(1, 1), (2, 3), (3, 8), (10, 60)]:
        assert pisano(m) == want
        assert naive_pisano(m) == want


def test_pisano_periodicity_and_minimality_small_moduli():
    for m in range(1, 201):
        pi = pisano(m)
        assert pi == naive_pisano(m)
        seq = [f % m for f in naive_fib_list(3 * pi + pi + 2)]
        assert all(seq[n + pi] == seq[n] for n in range(3 * pi))
        for d in range(1, pi):
            if pi % d == 0:
                assert any(seq[n + d] != seq[n] for n in range(3 * pi))


# --- mod_inverse -------------------------------------------------------------


def test_mod_inverse_examples():
    assert mod_inverse(2, 21) == 11
    for m in (1, 2, 7, 100):
        assert mod_inverse(1, m) == 1
    with pytest.raises(NotCoprime) as exc:
        mod_inverse(4, 6)
    assert exc.value.gcd == 2


def test_mod_inverse_range_and_product():
    for m in range(1, 60):
        for a in range(-5, 40):
            if math.gcd(a, m) == 1:
                b = mod_inverse(a, m)
                assert 1 <= b <= m
                assert (a * b) % m == 1 % m
            else:
                with pytest.raises(NotCoprime):
                    mod_inverse(a, m)
