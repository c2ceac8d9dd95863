"""Base-phi digit expansions of elements of Q(phi) in [0, 1).

Every such x has a unique digit sequence (d_i) with x = sum d_i phi^-i,
no two consecutive 1s, and a tail that is not ultimately 0,1,0,1,...
The sequence is produced by iterating T(x) = (phi*x mod 1) and reading
the floor at each step; for field elements it is eventually periodic,
and the expansion is computed exactly by cycle detection on the orbit.
Each digit is one test on integers, u + floor(phi*v) >= den, with the
floor kept in ``_PhiFloors``: the package's one floor(phi*v), which the
orbit walk of ``pattern`` and ``QPhi.floor`` read too.

The functions that compute in Q(phi) import ``qphi`` when called, so
importing this module for ``EventuallyPeriodicBits`` does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    DomainError,
    InternalInvariantViolation,
    InvalidRep,
    PreconditionError,
)
from .zeckendorf import ZeckendorfRep, normalize_index_one

__all__ = [
    "EventuallyPeriodicBits",
    "expand",
    "eval_closed_form",
    "digit_at",
    "zeckendorf_from_phi",
    "splice_check",
]


@dataclass(frozen=True)
class EventuallyPeriodicBits:
    """A digit sequence: finite preperiod followed by a repeating period.

    Canonical form: the preperiod is as short as possible and the period
    is primitive.  The sequence must stay inside the valid digit class —
    no "11" anywhere (including the junction and the cyclic wrap) and a
    tail that is not the alternating 0,1,0,1,...
    """

    preperiod: str
    period: str

    def __post_init__(self) -> None:
        if not self.period:
            raise DomainError("period must be nonempty")
        for word in (self.preperiod, self.period):
            if word.strip("01"):
                raise DomainError(f"not a bit word: {word!r}")
        # Junction and wrap-around are covered by scanning pre + per + per.
        if "11" in self.preperiod + self.period + self.period:
            raise DomainError("consecutive 1s in digit sequence")
        if _primitive_root(self.period) != self.period:
            raise DomainError(f"period {self.period!r} is not primitive")
        if self.preperiod and self.preperiod[-1] == self.period[-1]:
            raise DomainError("preperiod is not minimal")
        if self.period in ("01", "10"):
            raise DomainError("tail is ultimately alternating 0,1,0,1,...")

    def render(self) -> str:
        """Text form "pre|period", e.g. "|010" or "1|0"."""
        return f"{self.preperiod}|{self.period}"

    def __str__(self) -> str:
        return self.render()


def _primitive_root(word: str) -> str:
    """Shortest word whose repetition gives ``word``.

    Its length is the least p >= 1 at which ``word`` occurs in
    ``word + word``, the smallest rotation that maps ``word`` to itself;
    that p divides len(word).
    """
    return word[: (word + word).find(word, 1)]


class _PhiFloors(dict):
    """floor(phi*v) for an int v, computed with ``isqrt`` on first use and kept.

    With s = isqrt(5 v^2), phi*v = (v + sqrt(5 v^2))/2 for v >= 0 and
    (v - sqrt(5 v^2))/2 for v < 0.  sqrt(5 v^2) is irrational for v != 0
    and lies in (s, s + 1), so the floor is (v + s) // 2 and
    (v - s - 1) // 2; for v = 0 both read 0.  For ints u and n,
    u + v*phi >= n exactly when u + floor(phi*v) >= n: the digit test of
    ``expand`` and the range check of ``_unit_interval_pair``.
    """

    __slots__ = ()

    def __missing__(self, v: int) -> int:
        s = math.isqrt(5 * v * v)
        f = self[v] = (v + s) // 2 if v >= 0 else (v - s - 1) // 2
        return f


def _unit_interval_pair(x: QPhi | Fraction | int, fl: _PhiFloors) -> tuple[int, int, int]:
    """Integer coordinates (p, q, den) of x = (p + q*phi)/den, den the lcm of
    the denominators (so gcd(p, q, den) = 1); raises DomainError unless x is
    in [0, 1), that is unless 0 <= p + floor(phi*q) < den (``_PhiFloors``)."""
    from fractions import Fraction
    from .qphi import QPhi
    if isinstance(x, (int, Fraction)):
        x = QPhi(x)
    if not isinstance(x, QPhi):
        raise DomainError(f"cannot expand {x!r}")
    den = math.lcm(x.u.denominator, x.v.denominator)
    p = int(x.u * den)
    q = int(x.v * den)
    if not 0 <= p + fl[q] < den:
        # No value in the text: x may be past the int/str digit limit.
        raise DomainError("x is outside [0, 1)")
    return p, q, den


def expand(x: QPhi | Fraction | int) -> EventuallyPeriodicBits:
    """The digit expansion of x in [0, 1), computed exactly.

    The digit map acts on x = (p + q*phi)/den as
    phi*x = (q + (p+q)*phi)/den; the emitted digit d is 1 exactly when
    phi*x >= 1, and the next state is (q - d*den, p + q).  The denominator
    never changes, and conjugate coordinates contract toward a fixed
    window, so orbits are finite.  The walk keeps the integer pair
    (u, v) = (q, p + q), which fixes the state: d = 1 exactly when
    u + floor(phi*v) >= den (``_PhiFloors``), and the next pair is
    (v, u + v - den*d).

    States are keyed exactly, so the first revisited state splits the digit
    stream into the minimal preperiod and the primitive period (two
    positions carry equal digit tails if and only if they carry equal
    states, since the state is determined by the remaining value).  The
    split is returned as it is; ``EventuallyPeriodicBits`` checks both.
    """
    fl = _PhiFloors()
    p, q, den = _unit_interval_pair(x, fl)
    seen: dict[tuple[int, int], int] = {}
    digits = bytearray()
    u, v = q, p + q
    while (u, v) not in seen:
        seen[u, v] = len(digits)
        if u + fl[v] >= den:
            digits.append(49)  # "1"
            u, v = v, u + v - den
        else:
            digits.append(48)  # "0"
            u, v = v, u + v
    pre_len = seen[u, v]
    word = digits.decode()
    try:
        return EventuallyPeriodicBits(word[:pre_len], word[pre_len:])
    except DomainError as exc:
        raise InternalInvariantViolation(
            f"digit stream of {x} left the valid class: {exc}"
        ) from exc


def eval_closed_form(bits: EventuallyPeriodicBits) -> QPhi:
    """Exact value sum d_i phi^-i of an eventually periodic digit sequence.

    Geometric series: value = A + phi^-L * B / (1 - phi^-rho) where A and B
    are the finite digit polynomials of the preperiod (length L) and the
    period (length rho).
    """
    from .qphi import QPhi, phi_pow

    def horner(word: str) -> QPhi:
        # Digits are integers and 1/phi = -1 + phi, so the whole loop stays
        # in integer coordinates: (u + v*phi)(-1 + phi) = (v - u) + u*phi.
        u = v = 0
        for ch in reversed(word):
            if ch == "1":
                u += 1
            u, v = v - u, u
        return QPhi(u, v)

    a_part = horner(bits.preperiod)
    b_part = horner(bits.period)
    rho = len(bits.period)
    length = len(bits.preperiod)
    return a_part + phi_pow(-length) * b_part / (QPhi(1) - phi_pow(-rho))


def digit_at(bits: EventuallyPeriodicBits, i: int) -> int:
    """The i-th digit (i >= 1), resolved through preperiod then period."""
    if i < 1:
        raise DomainError(f"digit index must be >= 1, got {i}")
    pre = bits.preperiod
    if i <= len(pre):
        return 1 if pre[i - 1] == "1" else 0
    j = (i - len(pre) - 1) % len(bits.period)
    return 1 if bits.period[j] == "1" else 0


def zeckendorf_from_phi(n: int) -> ZeckendorfRep:
    """Zeckendorf representation obtained through the digit expansion.

    Chooses the smallest m >= 2 with x = sqrt5 * n * phi^-m in [0, 1);
    the first m digits of ``expand(x)`` then spell the representation from
    the top: index i carries digit d_{m-i}.  The m-th digit is always 0,
    which is asserted, and ``expand`` refuses a stream with "11"; a
    failure means an arithmetic bug rather than a bad input.
    """
    from .qphi import phi_pow, sign_of, sqrt5
    if n < 1:
        raise DomainError(f"need a positive integer, got {n}")
    # Smallest m >= 2 with phi^m > sqrt5 * n, tracked via (F_{m-1}, F_m):
    # phi^m - sqrt5*n = (F_{m-1} + n) + (F_m - 2n) * phi.
    m, f_m1, f_m = 2, 1, 1
    while sign_of(f_m1 + n, f_m - 2 * n) <= 0:
        m, f_m1, f_m = m + 1, f_m, f_m1 + f_m
    bits = expand(sqrt5() * n * phi_pow(-m))
    if digit_at(bits, m) != 0:
        raise InternalInvariantViolation(
            f"digit m={m} of sqrt5*{n}*phi^-{m} is not 0"
        )
    indices = [i for i in range(1, m) if digit_at(bits, m - i)]
    try:
        return normalize_index_one(indices)
    except InvalidRep as exc:
        raise InternalInvariantViolation(str(exc)) from exc


def splice_check(
    x: QPhi | Fraction | int,
    y: QPhi | Fraction | int,
    m: int,
    lam: int,
) -> bool:
    """Digit-splicing test for v = x + y*phi^-m.

    Requires lam + 2 <= m and digits lam, lam+1 of x to vanish.  Builds
    w = (x stripped of its first lam+1 digits) + y*phi^-m and checks that
    v's digits agree with x's up to lam and with w's beyond lam, compared
    over each side's preperiod plus three periods.  A property-test
    oracle, not a production path.
    """
    from fractions import Fraction
    from .qphi import QPhi, phi_pow
    if lam < 1 or m < 1 or lam + 2 > m:
        raise PreconditionError(f"need 1 <= lam and lam + 2 <= m, got lam={lam}, m={m}")
    if isinstance(x, (int, Fraction)):
        x = QPhi(x)
    if isinstance(y, (int, Fraction)):
        y = QPhi(y)
    ex = expand(x)
    if digit_at(ex, lam) != 0 or digit_at(ex, lam + 1) != 0:
        raise PreconditionError(f"digits {lam}, {lam + 1} of {x} must both be 0")
    expand(y)  # domain check: y in [0, 1)

    shift = y * phi_pow(-m)
    v = x + shift
    head = QPhi(0)
    for i in range(1, lam + 2):
        if digit_at(ex, i):
            head = head + phi_pow(-i)
    w = (x - head) + shift

    ev = expand(v)
    ew = expand(w)
    horizon = max(
        len(e.preperiod) + 3 * len(e.period) for e in (ex, ev, ew)
    ) + m + lam
    for i in range(1, horizon + 1):
        want = digit_at(ex, i) if i <= lam else digit_at(ew, i)
        if digit_at(ev, i) != want:
            return False
    return True
