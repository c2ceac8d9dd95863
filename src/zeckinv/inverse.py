"""The modular inverse of a modulo F_n: closed form and brute-force oracle.

The closed form rests on one fact: with b = (-F_n^-1 mod a) the number
b*F_n + 1 is divisible by a, with quotient exactly (a^-1 mod F_n); b
needs only F_n mod a, not the Pisano period.  The oracle computes F_n
outright and inverts by extended Euclid; the two share nothing but the
fast doubling of ``bigfib`` and so check each other.  The oracle walks a
window of consecutive n (``_oracle_walk``): one fast doubling to its
first F_n, then one big-integer addition, one gcd and one ``pow`` per n.
It hands out each (F_n, F_(n+1)) it walks with the inverse, so a caller
that needs them takes no second walk.  ``inverse_oracle`` is the window
of one n.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator

from .bigfib import fib, fib_mod, fib_pair
from .errors import DomainError, InternalInvariantViolation, NotCoprime

__all__ = ["InverseResult", "inverse_closed", "inverse_oracle"]

# The closed-form inverse value together with its certificate b.
InverseResult = namedtuple("InverseResult", "a n value b")


def _check_args(a: int, n: int) -> None:
    if a < 1:
        raise DomainError(f"need a >= 1, got {a}")
    if n < 3:
        raise DomainError(f"need n >= 3, got {n}")


def _certificate(a: int, n: int) -> int:
    """b = (-F_n^-1 mod a), from the residue F_n mod a that the gcd test
    reads; b = 0 only for a = 1.  Raises NotCoprime when gcd(a, F_n) > 1."""
    f = fib_mod(n, a)
    g = math.gcd(a, f)
    if g > 1:
        raise NotCoprime(g, f"gcd({a}, F_{n}) = {g}; no inverse exists")
    return -pow(f, -1, a) % a


def inverse_closed(a: int, n: int) -> InverseResult:
    """(a^-1 mod F_n) as (b*F_n + 1)/a, without ever inverting modulo F_n."""
    _check_args(a, n)
    b = _certificate(a, n)
    numerator = b * fib(n) + 1
    if numerator % a:
        raise InternalInvariantViolation(
            f"b*F_n + 1 not divisible by a for a={a}, n={n}"
        )
    return InverseResult(a=a, n=n, value=numerator // a, b=b)


def _oracle_walk(
    a: int, lo: int, hi: int
) -> Iterator[tuple[int, int | None, int, int]]:
    """Yield (gcd(a, F_n), a^-1 mod F_n, F_n, F_(n+1)) for n = lo, ..., hi,
    in order.

    The inverse is the unique value in [1, F_n - 1] with a*value == 1
    (mod F_n), by extended Euclid (``pow``); it is None when the gcd
    witness is above 1.  F_lo comes from one fast doubling and each later
    F_n from one big-integer addition, so only the current pair is held.
    Needs 3 <= lo; shares nothing with the pattern code.
    """
    f, g = fib_pair(lo)
    for _ in range(lo, hi + 1):
        d = math.gcd(a, f)
        yield d, (pow(a, -1, f) if d == 1 else None), f, g
        f, g = g, f + g


def inverse_oracle(a: int, n: int) -> int:
    """Independent check path: materialize F_n and invert by extended Euclid.

    Returns the unique value in [1, F_n - 1] with a*value == 1 (mod F_n):
    the one-n window of ``_oracle_walk``.
    """
    _check_args(a, n)
    g, value, _, _ = next(_oracle_walk(a, n, n))
    if g != 1:
        raise NotCoprime(g, f"gcd({a}, F_{n}) = {g}; no inverse exists")
    return value
