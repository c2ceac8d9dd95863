"""Exact arithmetic in the real quadratic field Q(phi), phi = (1+sqrt5)/2.

Elements are stored as u + v*phi with rational u, v.  This basis is the
right one for the golden-ratio digit map: multiplying by phi sends the
coordinate pair (u, v) to (v, u+v), so denominators never grow and orbit
state spaces stay finite.  All comparisons are exact; no floating point.

The oracles that check ``basephi.expand`` by computing in the field
(``eval_closed_form``, ``digit_at``, ``zeckendorf_from_phi``,
``splice_check``) live here too, so that importing the package, which
loads ``basephi``, compiles none of them.  The package imports this module
on first use of one of its names.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import total_ordering

from .basephi import EventuallyPeriodicBits, _PhiFloors, _unit_interval_pair, expand
from .bigfib import fib_pair
from .errors import DomainError, InternalInvariantViolation, InvalidRep, PreconditionError
from .zeckendorf import ZeckendorfRep, normalize_index_one

__all__ = [
    "QPhi", "sign_of", "phi_pow", "sqrt5", "PHI", "parse_qphi",
    "eval_closed_form", "digit_at", "zeckendorf_from_phi", "splice_check",
]

_RationalLike = int | Fraction


def _as_fraction(x: _RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise DomainError(f"not a rational coefficient: {x!r}")


def sign_of(u: _RationalLike, v: _RationalLike) -> int:
    """Exact sign in {-1, 0, +1} of u + v*phi, for int or Fraction u, v.

    Writes u + v*phi = (s + v*sqrt5)/2 with s = 2u + v.  If s and v do not
    disagree in sign the answer is immediate; otherwise it comes from
    comparing s^2 against 5 v^2 (sqrt5 is irrational, so the two are never
    equal with s, v not both zero).
    """
    s = 2 * u + v
    if s >= 0 and v >= 0:
        return 1 if (s or v) else 0
    if s <= 0 and v <= 0:
        return -1
    d = s * s - 5 * v * v
    if d == 0:
        raise InternalInvariantViolation("s^2 = 5 v^2 with rational s, v != 0")
    if s > 0:
        return 1 if d > 0 else -1
    return -1 if d > 0 else 1


@total_ordering
class QPhi:
    """An element u + v*phi of Q(phi) with exact rational coordinates."""

    __slots__ = ("u", "v")

    def __init__(self, u: _RationalLike = 0, v: _RationalLike = 0):
        object.__setattr__(self, "u", _as_fraction(u))
        object.__setattr__(self, "v", _as_fraction(v))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QPhi is immutable")

    # -- ring structure -------------------------------------------------

    @staticmethod
    def _coerce(x: object) -> "QPhi | None":
        if isinstance(x, QPhi):
            return x
        if isinstance(x, (int, Fraction)):
            return QPhi(x)
        return None

    def __add__(self, other: object) -> "QPhi":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QPhi(self.u + o.u, self.v + o.v)

    __radd__ = __add__

    def __sub__(self, other: object) -> "QPhi":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QPhi(self.u - o.u, self.v - o.v)

    def __rsub__(self, other: object) -> "QPhi":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "QPhi":
        return QPhi(-self.u, -self.v)

    def __mul__(self, other: object) -> "QPhi":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (u1 + v1 phi)(u2 + v2 phi) with phi^2 = phi + 1
        return QPhi(
            self.u * o.u + self.v * o.v,
            self.u * o.v + self.v * o.u + self.v * o.v,
        )

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        """Field norm x * conj(x) = u^2 + uv - v^2 (a rational)."""
        return self.u * self.u + self.u * self.v - self.v * self.v

    def inverse(self) -> "QPhi":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(phi)")
        # 1/(u + v phi) = ((u+v) - v phi) / norm
        return QPhi((self.u + self.v) / n, -self.v / n)

    def __truediv__(self, other: object) -> "QPhi":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> "QPhi":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int) -> "QPhi":
        if not isinstance(k, int):
            return NotImplemented
        base = self if k >= 0 else self.inverse()
        result = QPhi(1)
        for bit in bin(abs(k))[2:]:
            result = result * result
            if bit == "1":
                result = result * base
        return result

    # -- conjugation, sign, order ---------------------------------------

    def conj(self) -> "QPhi":
        """Galois conjugate: phi -> 1 - phi, so u + v phi -> (u+v) - v phi."""
        return QPhi(self.u + self.v, -self.v)

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}; see sign_of."""
        return sign_of(self.u, self.v)

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.u == o.u and self.v == o.v

    def __lt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __hash__(self) -> int:
        return hash((self.u, self.v))

    def __bool__(self) -> bool:
        return bool(self.u) or bool(self.v)

    # -- floor -----------------------------------------------------------

    def floor(self) -> int:
        """Exact floor: with d the lcm of the denominators, the element is
        (A + B*phi)/d for the ints A = u*d and B = v*d, so its floor is
        (A + floor(B*phi)) // d, with floor(B*phi) from ``basephi._PhiFloors``.
        """
        d = math.lcm(self.u.denominator, self.v.denominator)
        return (int(self.u * d) + _PhiFloors()[int(self.v * d)]) // d

    __floor__ = floor

    # -- rendering --------------------------------------------------------

    def __str__(self) -> str:
        if self.v < 0:
            return f"{self.u} - {-self.v}·phi"
        return f"{self.u} + {self.v}·phi"

    def __repr__(self) -> str:
        return f"QPhi({self.u}, {self.v})"


PHI = QPhi(0, 1)


def sqrt5() -> QPhi:
    """sqrt(5) = 2*phi - 1."""
    return QPhi(-1, 2)


def phi_pow(k: int) -> QPhi:
    """phi**k for any integer k, via phi^k = F_{k-1} + F_k * phi.

    Negative powers use phi^-n = (-1)^n (F_{n+1} - F_n * phi), which is the
    same identity continued through the signed Fibonacci numbers.
    """
    if k >= 1:
        f_km1, f_k = fib_pair(k - 1)
        return QPhi(f_km1, f_k)
    if k == 0:
        return QPhi(1)
    n = -k
    f_n, f_n1 = fib_pair(n)
    if n % 2 == 0:
        return QPhi(f_n1, -f_n)
    return QPhi(-f_n1, f_n)


_TERM_RE = re.compile(
    r"""^\s*
        (?P<sign>[+-]?)\s*
        (?:
            (?P<num>\d+)(?:/(?P<den>\d+))?\s*(?:[·*]\s*)?(?P<phi1>phi)?
          | (?P<phi2>phi)
        )\s*
    """,
    re.VERBOSE,
)


def parse_qphi(text: str) -> QPhi:
    """Parse "u + v·phi" (also "v*phi", bare "phi", or a lone rational)."""
    s = text.strip()
    if not s:
        raise DomainError("empty Q(phi) literal")
    u = Fraction(0)
    v = Fraction(0)
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s[pos:])
        if not m or (not first and not m.group("sign")):
            raise DomainError(f"cannot parse Q(phi) literal: {text!r}")
        sign = -1 if m.group("sign") == "-" else 1
        try:
            coef = Fraction(int(m.group("num") or 1), int(m.group("den") or 1))
        except ZeroDivisionError as exc:
            raise DomainError(f"zero denominator in Q(phi) literal: {text!r}") from exc
        except ValueError as exc:
            # int() refuses more digits than the int/str conversion limit.
            raise DomainError("Q(phi) literal has a coefficient of too many digits") from exc
        if m.group("phi1") or m.group("phi2"):
            v += sign * coef
        else:
            u += sign * coef
        pos += m.end()
        first = False
    return QPhi(u, v)


# --------------------------------------------------------------------------
# base-phi oracles


def eval_closed_form(bits: EventuallyPeriodicBits) -> QPhi:
    """Exact value sum d_i phi^-i of an eventually periodic digit sequence.

    Geometric series: value = A + phi^-L * B / (1 - phi^-rho) where A and B
    are the finite digit polynomials of the preperiod (length L) and the
    period (length rho).
    """
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
    if lam < 1 or m < 1 or lam + 2 > m:
        raise PreconditionError(f"need 1 <= lam and lam + 2 <= m, got lam={lam}, m={m}")
    if isinstance(x, (int, Fraction)):
        x = QPhi(x)
    if isinstance(y, (int, Fraction)):
        y = QPhi(y)
    # Digits 1 to lam+1 of x by expand's digit map, so that a refused call
    # costs lam+1 steps, not a whole expansion.
    fl = _PhiFloors()
    p, q, den = _unit_interval_pair(x, fl)  # domain check: x in [0, 1)
    s, t, head_digits = q, p + q, []
    for _ in range(lam + 1):
        head_digits.append(s + fl[t] >= den)
        s, t = t, s + t - den * head_digits[-1]
    if any(head_digits[-2:]):
        # No value in the text: x may be past the int/str digit limit.
        raise PreconditionError(f"digits {lam}, {lam + 1} of x must both be 0")
    ex = expand(x)
    expand(y)  # domain check: y in [0, 1)

    shift = y * phi_pow(-m)
    v = x + shift
    head = sum((phi_pow(-i) for i, d in enumerate(head_digits, 1) if d), QPhi(0))
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
