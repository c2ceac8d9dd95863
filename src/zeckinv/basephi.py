"""Base-phi digit expansions of elements of Q(phi) in [0, 1).

Every such x has a unique digit sequence (d_i) with x = sum d_i phi^-i,
no two consecutive 1s, and a tail that is not ultimately 0,1,0,1,...
The sequence is produced by iterating T(x) = (phi*x mod 1) and reading
the floor at each step; for field elements it is eventually periodic.
The expansion is computed exactly with no table of states: the period
starts at the first state whose conjugate lies in a set the map
permutes, and ends when the walk is back at that state (``expand``).
Each digit is one test on integers, u + floor(phi*v) >= den, with the
floor kept in ``_PhiFloors``: the package's one floor(phi*v), which the
orbit walk of ``pattern`` and ``QPhi.floor`` read too.

``expand`` imports ``qphi`` when called, so importing this module for
``EventuallyPeriodicBits`` does not load it.  The oracles that check
expansions by computing in Q(phi) (``eval_closed_form``, ``digit_at``,
``zeckendorf_from_phi``, ``splice_check``) live in ``qphi``.
"""

from __future__ import annotations

import math

from .errors import DomainError, InternalInvariantViolation

__all__ = ["EventuallyPeriodicBits", "expand"]


class EventuallyPeriodicBits:
    """A digit sequence: finite preperiod followed by a repeating period.

    Canonical form: the preperiod is as short as possible and the period
    is primitive.  The sequence must stay inside the valid digit class —
    no "11" anywhere (including the junction and the cyclic wrap) and a
    tail that is not the alternating 0,1,0,1,...  Instances are immutable
    and compare and hash by their two words.
    """

    __slots__ = ("preperiod", "period")

    def __init__(self, preperiod: str, period: str) -> None:
        if not period:
            raise DomainError("period must be nonempty")
        for word in (preperiod, period):
            if word.strip("01"):
                raise DomainError(f"not a bit word: {word!r}")
        # Junction and wrap-around are covered by scanning pre + per + per.
        if "11" in preperiod + period + period:
            raise DomainError("consecutive 1s in digit sequence")
        if _primitive_root(period) != period:
            raise DomainError(f"period {period!r} is not primitive")
        if preperiod and preperiod[-1] == period[-1]:
            raise DomainError("preperiod is not minimal")
        if period in ("01", "10"):
            raise DomainError("tail is ultimately alternating 0,1,0,1,...")
        object.__setattr__(self, "preperiod", preperiod)
        object.__setattr__(self, "period", period)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("EventuallyPeriodicBits is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("EventuallyPeriodicBits is immutable")

    def __reduce__(self):
        # Copies and unpickling go through __init__, so they are checked too.
        return self.__class__, (self.preperiod, self.period)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.preperiod == other.preperiod and self.period == other.period

    def __hash__(self) -> int:
        return hash((self.preperiod, self.period))

    def __repr__(self) -> str:
        return f"EventuallyPeriodicBits(preperiod={self.preperiod!r}, period={self.period!r})"

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
    never changes.  The walk keeps the integer pair (u, v) = (q, p + q),
    which fixes the state: d = 1 exactly when u + floor(phi*v) >= den
    (``_PhiFloors``), and the next pair is (v, u + v - den*d).

    The period is found by a rule, with no table of states.  With
    psi = -1/phi, the conjugate of x is x' = (p + q*psi)/den
    = (v - u*phi)/den, and it steps as x' -> psi*x' - d.  Let D be the
    states with x' in (-phi, 1) and, when d = 1 (that is x >= 1/phi),
    x' > -1/phi.  A state is purely periodic exactly when it is in D
    (the golden-mean case of Schmidt, Bull. London Math. Soc. 12, 1980,
    and Ito and Rao, Proc. AMS 133, 2005):
    * The map keeps D: this is the invariant proved in ``pattern._orbit``
      for den = a, and its proof does not use den.
    * The map is one-to-one on D.  Two states with the same digit and the
      same image are equal, and a 0-digit sends x' into (-1/phi, 1) while
      a 1-digit sends it into (-phi, -1/phi), so states with different
      digits have different images.
    * D is finite: q = den*(x - x')/sqrt5 lies in
      (-den/sqrt5, den*phi^2/sqrt5) and p = den*x - q*phi in a bounded
      range, both integers.  A one-to-one map of a finite set into itself
      is a permutation, so every state in D comes back to itself.
    * Conversely, a purely periodic state is in D.  Let it have period L
      and digits d_0, d_1, ..., indices read mod L, and e_i = d_(-1-i)
      the digits read backward from d_(L-1).  After m*L steps the state
      is back, so x' = psi^(mL)*x' - sum_(i < mL) e_i psi^i, and as m
      grows, x' = -sum_(i >= 0) e_i psi^i.  The e_i have no two 1s in a
      row, since a 1-digit leaves phi*x - 1 < 1/phi and so a 0-digit
      next; they do not alternate, since a state whose digits read
      0, 1, 0, 1, ... is phi^-2 + phi^-4 + ... = 1/phi, whose digit is 1.
      The sums of psi^i over indices with no two in a row lie in
      [-1, phi], and the bounds psi + psi^3 + ... = -1 and
      1 + psi^2 + ... = phi come only from the two alternating choices;
      so x' is in (-phi, 1).  When d_0 = 1, e_0 = d_(L-1) = 0, so
      x' = -psi * sum_(i >= 0) e_(i+1) psi^i lies in phi^-1 * (-1, phi)
      = (-1/phi, 1).
    So the first state in D ends the minimal preperiod, and the first
    return to that state ends the primitive period: two positions carry
    equal digit tails exactly when they carry equal states, since a
    state is fixed by the value its remaining digits spell.  The split
    is returned as it is; ``EventuallyPeriodicBits`` checks both.

    The bounds are strict, as the converse gives them.  x' is 1, -phi or
    -1/phi only for x = 1, x = 1/phi or x = phi (take conjugates), and
    only 1/phi is in [0, 1): its x' = -phi leaves it out of D, as it
    must, since it steps to 0 and expands to 1|0.

    In integers, as an integer is above a real y exactly when it is above
    floor(y), and at most y exactly when it is at most floor(y):
    * x' < 1 is v - den < u*phi, that is fl[u] >= v - den (at u = 0 the
      two differ only at v = den, the state x = 1, which is out of range);
    * x' > -phi is v > (u - den)*phi, that is v > fl[u - den];
    * x' > -1/phi is v - den > (u - den)*phi, that is v - den > fl[u - den].
    The last two read v - den*d > fl[u - den].  The walk first tests
    -den < u < 2*den, which holds in D as u = q lies in the range above
    (the range of q in ``pattern._orbit``), so that a long preperiod over
    large coordinates pays no floor but the digit's.  Besides the digits
    and the floor memo, the walk keeps only the state that starts the
    period.
    """
    fl = _PhiFloors()
    p, q, den = _unit_interval_pair(x, fl)
    digits = bytearray()
    u, v = q, p + q
    while True:
        d = u + fl[v] >= den
        if -den < u < 2 * den and fl[u] >= v - den and v - den * d > fl[u - den]:
            break
        digits.append(48 + d)  # "0" or "1"
        u, v = v, u + v - den * d
    pre_len = len(digits)
    u0, v0 = u, v
    while True:
        if u + fl[v] >= den:
            digits.append(49)  # "1"
            u, v = v, u + v - den
        else:
            digits.append(48)  # "0"
            u, v = v, u + v
        if u == u0 and v == v0:
            break
    word = digits.decode()
    try:
        return EventuallyPeriodicBits(word[:pre_len], word[pre_len:])
    except DomainError as exc:
        raise InternalInvariantViolation(
            f"digit stream of {x} left the valid class: {exc}"
        ) from exc
