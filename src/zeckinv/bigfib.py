"""Fibonacci numbers, Fibonacci residues, Pisano periods, modular inverses.

Convention: F_0 = 0, F_1 = F_2 = 1.  Including index 0 keeps residues
r = n mod pi(a) well defined for r = 0 (gcd(a, F_0) = a, so such residues
are classified as inadmissible for a >= 2 rather than erroring out).
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from .errors import DomainError, NotCoprime

__all__ = [
    "fib",
    "fib_pair",
    "fib_mod",
    "pisano",
    "mod_inverse",
]


def fib_pair(n: int) -> tuple[int, int]:
    """Return (F_n, F_{n+1}) exactly, by fast doubling."""
    if n < 0:
        raise DomainError(f"fib index must be >= 0, got {n}")
    a, b = 0, 1  # (F_0, F_1)
    for bit in bin(n)[2:]:
        # (F_k, F_{k+1}) -> (F_2k, F_2k+1)
        c = a * (2 * b - a)
        d = a * a + b * b
        if bit == "1":
            a, b = d, c + d
        else:
            a, b = c, d
    return a, b


def fib(n: int) -> int:
    """Return F_n exactly (F_0 = 0, F_1 = F_2 = 1)."""
    return fib_pair(n)[0]


def _fib_table(top: int) -> list[int]:
    """[F_0, F_1, ..., F_top], by addition."""
    fibs = [0, 1]
    for _ in range(top - 1):
        fibs.append(fibs[-2] + fibs[-1])
    return fibs


def fib_mod(n: int, m: int) -> int:
    """Return F_n mod m via fast doubling in modular arithmetic."""
    if n < 0:
        raise DomainError(f"fib index must be >= 0, got {n}")
    if m < 1:
        raise DomainError(f"modulus must be >= 1, got {m}")
    a, b = 0, 1 % m
    for bit in bin(n)[2:]:
        c = a * (2 * b - a) % m
        d = (a * a + b * b) % m
        if bit == "1":
            a, b = d, (c + d) % m
        else:
            a, b = c, d
    return a


def fib_residues(m: int) -> Iterator[int]:
    """Yield F_r mod m for r = 0, 1, ..., pi(m) - 1, for m >= 1.

    One walk of the pair (F_r, F_(r+1)) mod m, which stops when the pair is
    back at (0, 1 mod m); it gets there because the step is invertible and
    there are at most m^2 pairs.  A consumer that stops early stops the walk.
    """
    one = 1 % m
    f, g = 0, one
    while True:
        yield f
        f, g = g, (f + g) % m
        if f == 0 and g == one:
            return


def pisano(m: int) -> int:
    """Return the Pisano period of modulus m: the length of ``fib_residues(m)``."""
    if m < 1:
        raise DomainError(f"modulus must be >= 1, got {m}")
    return sum(1 for _ in fib_residues(m))


def mod_inverse(a: int, m: int) -> int:
    """Return the unique b in [1, m] with a*b == 1 (mod m).

    For m = 1 the answer is 1 (the closed interval convention).  Raises
    NotCoprime, carrying the gcd witness, when gcd(a, m) != 1.
    """
    if m < 1:
        raise DomainError(f"modulus must be >= 1, got {m}")
    g = math.gcd(a, m)
    if g != 1:
        raise NotCoprime(g, f"{a} has no inverse modulo {m} (gcd = {g})")
    inv = pow(a, -1, m)
    return inv if inv != 0 else m
