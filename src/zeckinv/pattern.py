"""Synthesis, evaluation and verification of the full periodic pattern.

For fixed a >= 2 the Zeckendorf representation of (a^-1 mod F_n) splits
into two periodic layers:

* high digits: position i in [i0, n-1] carries z_{n-i}, where z is the
  purely periodic digit expansion of x_r = b_r/a and r = n mod M with
  M = pi(a) -- so the top of the representation is a fixed word sliding
  with n;
* low digits: positions i0-1 down to 1 form a tail word that depends
  only on r = n mod M.

Every digit period of x_r has length M (see ``_orbit``), so a
spec is fixed by a, M, the digit periods and the tail words: ``ell`` and
``tail_period`` are both M, i0 = c(a) = ceil(log_phi a) + 4 (see
``_i0``), and n0 = i0 + 1.  The tail word spells the remainder
R(n) = (a^-1 mod F_n) - sum_{i=i0}^{n-1} z_{n-i} F_i, which has a closed
form.  With Tr(u + v*phi) = 2u + v, F_i = Tr(phi^i / sqrt5),
a^-1 mod F_n = (b_r F_n + 1)/a and b_r/a = sum_j z_j phi^-j,

    R(n) = 1/a + Tr(phi^i0 * T^(n-i0)(x_r) / sqrt5)
         = (1 + p_k F_i0 + q_k F_(i0+1)) / a,   k = (r - i0) mod M,

for any i0 < n, where T is the digit map and T^k(x_r) = (p_k + q_k*phi)/a
is the k-th state of the digit orbit of x_r.  So every tail value is read
off the orbit exactly, and synthesis runs on integer walks alone: the
digits, the orbit states and the residues b_r.

Why i0 = c, the smallest i with phi^i > a*phi^4, suffices for every
n > c.  Write c = i0, psi = -1/phi, y' for the conjugate of y in Q(phi),
and x = T^k(x_r) = (p + q*phi)/a with k = n - c, so that
sqrt5 * R = sqrt5/a + phi^c x - psi^c x'.

* x' is in (-phi, 1), by induction along the orbit (``_orbit``).
* R < F_c.  gamma = a - p - q*phi = a(1 - x) is a nonzero element of
  Z[phi] with gamma' = a(1 - x') > 0, so its norm
  N(gamma) = a^2 (1-x)(1-x') is an integer >= 1 and
  1 - x >= 1/(a^2 (1-x')) > 1/(a^2 phi^2).  As phi^c > a phi^4 and
  phi^-c < phi^-4/a,
      sqrt5 (F_c - R) = phi^c (1-x) - psi^c (1-x') - sqrt5/a
                      > (phi^2 - phi^-2 - sqrt5)/a = 0,
  using phi^2 - phi^-2 = sqrt5.  So ``_greedy_word`` spells R below c.
* No "11" at the junction.  If the z digit at position c is 1, then
  x = phi*T^(k-1)(x_r) - 1 < 1/phi.  The same argument on
  beta = a - q - (p+q)*phi = a(1 - phi x), whose conjugate
  a(1 - psi x') lies in (0, a*phi), gives 1 - phi x > 1/(a^2 phi) and
      sqrt5 (F_(c-1) - R) = phi^(c-1)(1 - phi x) - psi^(c-1)(1 - psi x')
                            - sqrt5/a > 0,
  so R < F_(c-1) and position c-1 holds 0.
* R >= 0, as phi^c x >= 0 and |psi^c x'| < phi^-c phi < phi^-3/a, so
  sqrt5 * R > (sqrt5 - phi^-3)/a > 0.
* c <= M + 3, so every n the earlier layout i0 = M + 3 served is still
  served.  pi(a) >= 3, with pi(a) = 3 only for a = 2, where
  c = 6 = M + 3.  For M >= 4, F_(M-1) = F_(M+1) - F_M = 1 (mod a) and
  F_(M-1) > 1, so phi^(M-2) >= F_(M-1) > a and c <= M + 2.

Synthesis still checks each of these at run time: the tail value is an
integer, ``_greedy_word`` refuses a value >= F_c, ``_tail`` refuses "11"
in the word and at the junction, and the value is cross-checked against
the oracle.
"""

from __future__ import annotations

import json
import math
import os
import time
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, islice, repeat
from operator import sub
from json.encoder import encode_basestring_ascii as _esc
from stat import S_ISREG
from collections.abc import Iterator, Mapping
from types import MappingProxyType

from .bigfib import _fib_table, fib_residues
from .basephi import EventuallyPeriodicBits, _PhiFloors
from .errors import (
    DomainError,
    InternalInvariantViolation,
    InvalidRep,
    NotCoprime,
    SynthesisError,
)
from .inverse import _certificate, _oracle_walk, inverse_oracle
from .zeckendorf import ZeckendorfRep, decode, encode, normalize_index_one

__all__ = [
    "ZClass",
    "PatternSpec",
    "VerificationReport",
    "MismatchDetail",
    "synthesize",
    "evaluate",
    "matches_oracle",
    "verify",
    "splice_value",
    "save_pattern",
    "load_pattern",
    "to_json_dict",
    "from_json_dict",
    "report_to_json_dict",
]


# Per-residue data: b_r and the digit period word of x_r = b_r/a.
ZClass = namedtuple("ZClass", "b period")


@lru_cache(maxsize=1024)
def _i0(a: int) -> int:
    """The lowest position of the z part, i0 = c(a) = ceil(log_phi a) + 4.

    c is the smallest i with phi^i > a*phi^4 (see the module docstring).
    phi^k = L_k - psi^k with Lucas numbers L_k and |psi^k| < 1 for k >= 1,
    so phi^k > a exactly when L_k > a, or L_k = a and k is odd.  Cached
    per a, as ``evaluate`` reads it on every call.
    """
    k, lk, lk1 = 1, 1, 3  # k, L_k, L_(k+1)
    while lk < a or (lk == a and k % 2 == 0):
        k, lk, lk1 = k + 1, lk1, lk + lk1
    return k + 4


@dataclass(frozen=True)
class PatternSpec:
    """The complete periodic description of the representations for one a.

    ``z`` maps each admissible residue r mod M (gcd(a, F_r) = 1) to its
    ZClass, whose digit period word has length M; ``tail`` maps the same
    residues to the low-digit word over positions i0-1 down to 1.  Every
    other quantity follows from a, M and ``z`` and is a read-only
    property: ``ell`` (the lcm of the digit period lengths) and
    ``tail_period`` are both M, i0 = ceil(log_phi a) + 4 (``_i0``),
    n0 = i0 + 1, and ``inadmissible`` holds the residues of [0, M) absent
    from ``z``.
    """

    a: int
    M: int
    z: Mapping[int, ZClass]
    tail: Mapping[int, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", MappingProxyType(dict(self.z)))
        object.__setattr__(self, "tail", MappingProxyType(dict(self.tail)))

    @property
    def ell(self) -> int:
        return self.M

    @property
    def tail_period(self) -> int:
        return self.M

    @property
    def i0(self) -> int:
        return _i0(self.a)

    @property
    def n0(self) -> int:
        """The first n the pattern covers, i0 + 1."""
        return self.i0 + 1

    @property
    def inadmissible(self) -> frozenset[int]:
        return frozenset(r for r in range(self.M) if r not in self.z)

    def is_admissible(self, n: int) -> bool:
        return (n % self.M) in self.z


# expected and got are index tuples; first_mismatch is a MismatchDetail or None.
MismatchDetail = namedtuple("MismatchDetail", "n expected got")
VerificationReport = namedtuple(
    "VerificationReport", "a n_lo n_hi checked mismatches first_mismatch elapsed_s"
)


# --------------------------------------------------------------------------
# synthesis


def _greedy_word(value: int, i0: int, fibs: list[int]) -> str:
    """Greedy digit word of ``value`` over positions i0-1 down to 1.

    ``fibs`` is F_0, F_1, ... (at least up to F_i0).  Each step takes the
    largest index k with F_k <= rest by bisection, so the work is one step
    per 1-digit; for rest >= 1 that k is >= 2, as F_1 = F_2 = 1.
    """
    k = bisect_right(fibs, value) - 1
    if k >= i0:
        raise SynthesisError(
            f"tail value {value} needs position {k} but the word stops at {i0 - 1}"
        )
    word = bytearray(b"0" * (i0 - 1))
    rest = value
    while rest:
        word[i0 - 1 - k] = 49  # "1"; character j is position i0 - 1 - j
        rest -= fibs[k]
        k = bisect_right(fibs, rest, 0, k) - 1
    return word.decode()


# Maps the digit characters "0"/"1" to the bytes 0/1, for itertools.compress.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _bits(word: str) -> bytes:
    """The digits of ``word`` as bytes 0/1: a ``compress`` selector of its 1s."""
    return bytes(word, "ascii").translate(_BIT_BYTES)


def _remainders(
    a: int, i0: int, m_per: int, z: Mapping[int, ZClass], fibs: list[int]
) -> Iterator[tuple[int, int, int]]:
    """Yield (n, r, R(n)) from the oracle at the first n >= n0 of each
    residue r of ``z``, in n order, along one ``_oracle_walk`` of
    [n0, n0 + M - 1]; gcd(a, F_n) = gcd(a, F_r) for r = n mod M, so it
    meets exactly the admissible residues.  R(n) is the oracle's
    (a^-1 mod F_n) less the z part: position i in [i0, n-1] carries
    period digit n-1-i and n - i0 <= M, so that part is a ``compress``
    sum over the reversed slice F_(n-1), ..., F_i0 of ``fibs``, which the
    oracle does not read.
    """
    n0 = i0 + 1
    walk = _oracle_walk(a, n0, n0 + m_per - 1)
    for n, (g, inv, _, _) in zip(range(n0, n0 + m_per), walk):
        if g == 1:
            r = n % m_per
            z_part = compress(fibs[n - 1 : i0 - 1 : -1], _bits(z[r].period[: n - i0]))
            yield n, r, inv - sum(z_part)


def _orbit(a: int, b: int, steps: int, fl: _PhiFloors) -> tuple[str, list[int]]:
    """Walk the digit orbit of b/a from (b, 0) for at most min(steps, 6a) steps.

    Returns the digit word of the L steps walked and the list
    qs = [q_0, ..., q_(L+1)] of the q parts of the orbit states
    (p_j + q_j*phi)/a.  Each step is the step of ``expand`` with den = a
    (b/a is reduced, as b is a unit mod a) on the pair (q_j, q_(j+1)),
    from (0, b): d_j = 1 exactly when q_j + floor(phi*q_(j+1)) >= a, and
    q_(j+2) = q_(j+1) + q_j - a*d_j.  So one int per step keeps the whole
    orbit: state j is (p_j, q_j) = (q_(j+1) - q_j, q_j).  The walk stops
    early when it is back at (b, 0), so it closed exactly when qs ends in
    [0, b].

    The floor is one lookup in the ``_PhiFloors`` memo ``fl``, which
    holds one entry per distinct q the walks reach, so at most
    min(steps walked, about phi*a) entries: x = (p + q*phi)/a and its
    conjugate x' = (p + q*psi)/a give q = a(x - x')/sqrt5, and x is in
    [0, 1) while x' is in (-phi, 1) (below), so q lies in
    (-a/sqrt5, a*phi^2/sqrt5).  The walk costs time and memory in
    proportion to its steps: a table over that whole range would cost
    O(a) even where M, which can be as small as about 2 log_phi a
    (a = F_k has M = 2k or 4k), is far below a.

    The walk closes after exactly L = M = pi(a) steps.  Mod a the step is
    the Fibonacci step (p, q) -> (q, p + q), so after k steps the state is
    b*(F_(k-1), F_k) mod a; b = -F_r^-1 mod a is a unit, so the state is
    back at (b, 0) only if (F_k, F_(k+1)) = (0, 1) mod a, that is only if
    M | k.  It is back after M steps.  Write x_k = (p_k + q_k*phi)/a in
    [0, 1) for state k, psi = -1/phi and x_k' = (p_k + q_k*psi)/a.  From
    x_0' = b/a in (0, 1), every state has x_k' in (-phi, 1), and
    x_k' > -1/phi when x_k >= 1/phi: a 0-digit gives
    x_(k+1)' = psi*x_k' in (-1/phi, 1), and a 1-digit, taken only when
    x_k >= 1/phi, gives x_(k+1)' = psi*x_k' - 1 in (-phi, -1/phi) and
    x_(k+1) = phi*x_k - 1 < 1/phi.  State M is (b, 0) mod a, so
    x_M = b/a + u with u = s + t*phi for integers s, t; u lies in (-1, 1)
    and u' = s + t*psi = x_M' - b/a in (-phi - 1, 1).  Then
    t*sqrt5 = u - u' lies in (-2, phi^2 + 1), so t is 0 or 1:
    * t = 0 forces s = 0: x_M = x_0, closed;
    * t = 1, s = -2 gives u' = -phi^2 > -phi - b/a, so b/a > 1: excluded;
    * t = 1, s = -1 is the state (b - a, a), with x_M = b/a + 1/phi >=
      1/phi and x_M' = b/a - phi < -1/phi, against the invariant.
    So the closure rests on no sweep; ``scripts/period_sweep.py`` confirms
    it for every a in [2, 1000].  ``synthesize`` and ``_inverse_at`` still
    check it at run time, as a guard on the code; as M <= 6a, a walk that
    has not closed after 6a steps never does.

    The classes on a closed walk of b/a, b = b_r, with alpha the least
    j >= 1 with a | F_j (so alpha | M), all congruences mod a:
    * Class starts.  At each step j that alpha divides the state is
      (b', 0).  It is b*(F_(j-1), F_j), so a | q_j, and the range of q
      leaves q_j in {0, a}; q_j = a gives x_j - x_j' = sqrt5, so
      x_j > 1/phi and x_j' < 1 - sqrt5 < -1/phi, against the invariant.
    * Which class.  b' = b_(r-j), indices mod M.  d'Ocagne with F_j = 0
      and F_(j+1) = F_(j-1) gives F_(r-j) = (-1)^j (F_r F_(j+1) -
      F_(r+1) F_j) = (-1)^j F_r F_(j-1), and Cassini F_(j-1)^2 = (-1)^j, so
      F_(r-j) = F_r / F_(j-1) and b_(r-j) = -F_(j-1)/F_r = b F_(j-1) = b'.
      The walk goes on from (b', 0) to (b, 0) in M - j steps, so each s
      with b_s = b' has b_(s+j) = b: the class at step j is exactly
      {r - j : b_r = b}.
    * Same tail.  Residue r - j has the word rotated by j, so ``_tail``
      reads it at step (r - i0) mod M of this walk with r's junction
      digit: it has r's tail, and the tail table repeats with period alpha.

    A closed word z_1 ... z_M, read over positions M+1 down to 2, is the
    Zeckendorf code of N_b = b (F_(M+2) - 1) / a.  The digit map gives
    phi^M x = sum_j z_j phi^(M-j) + x for x = b/a; multiplying by phi^2
    and applying y -> Tr(y / sqrt5), which is Q-linear and sends phi^k to
    F_k, gives x (F_(M+2) - F_2) = sum_j z_j F_(M+2-j).  The word has no
    "11" and uses no position below 2, so by uniqueness it is encode(N_b).

    Conversely, w = encode(N_b) padded to M digits spells b/a.  Shift-down:
    a Zeckendorf word N = sum d_i F_i (i >= 2) has
    sum d_i F_(i-1) = floor((N + 1)/phi).  As F_i = phi F_(i-1) + psi^(i-1),
    N = phi*S + E with S = sum d_i F_(i-1) and E = sum d_i psi^(i-1), a
    sum of distinct powers psi^e, e >= 1, so
    -1 = -(phi^-1 + phi^-3 + ...) < E < phi^-2 + phi^-4 + ... = 1/phi,
    that is S <= (N + 1)/phi < S + 1.  For N = N_b and
    S_b = x (F_(M+1) - 1), F_(M+2) - phi F_(M+1) = psi^(M+1) gives
    N_b + 1 - phi*S_b = 1 + x/phi + x psi^(M+1), above 1 - x phi^-(M+1) > 0
    and below phi, as x (1 + phi^-M) < (1 - 1/a)(1 + 1/a) < 1 by
    phi^M > a (module docstring for M >= 4; phi^3 > 2 for a = 2).  So
    floor((N_b + 1)/phi) = S_b = b (F_(M+1) - 1)/a.  Reading the digits
    z_1 ... z_M of w with phi^k = F_k phi + F_(k-1) (F_(-1) = 1),
        sum_j z_j phi^(M-j) = (N_b - S_b) phi + (2 S_b - N_b)
                            = x (F_M phi + F_(M-1) - 1) = x (phi^M - 1),
    so 0.(w)^inf = x (phi^M - 1) / (phi^M - 1) = b/a.
    """
    digits = bytearray(b"0") * min(steps, 6 * a)
    qs = [0, b]
    u, v = 0, b  # (q_j, q_(j+1))
    for j in range(len(digits)):
        if u + fl[v] >= a:
            digits[j] = 49  # "1"
            u, v = v, u + v - a
        else:
            u, v = v, u + v
        qs.append(v)
        if not u and v == b:
            break
    return digits[: len(qs) - 2].decode(), qs


def _tail(
    a: int, i0: int, per: str, qs: list[int], k: int, fibs: list[int]
) -> tuple[int, str]:
    """The tail value and word of the n with n - i0 = k (mod L), read at
    orbit step k of the walk of b/a.

    ``per`` and ``qs`` are what ``_orbit`` returned for b/a: the L digits
    walked (the period, or a prefix of at least k digits) and the q parts.
    With the state (p, q) = (q_(k+1) - q_k, q_k), the value
    R(n) = (1 + p F_i0 + q F_(i0+1)) / a (module docstring) must be a
    non-negative integer, and ``_greedy_word`` refuses it at F_i0 or above.
    The word must hold no "11", and neither may the junction, positions i0
    and i0-1: the z digit z_(n-i0) = per[k - 1], taken cyclically, and the
    word's first character.  ``fibs`` is F_0, ... up to F_(i0+1).
    """
    q = qs[k]
    value, rest = divmod(1 + (qs[k + 1] - q) * fibs[i0] + q * fibs[i0 + 1], a)
    if rest or value < 0:
        raise SynthesisError(
            f"remainder is not a non-negative integer for a={a} at orbit step {k}"
        )
    word = _greedy_word(value, i0, fibs)
    if "11" in word:
        raise SynthesisError(f"tail word for a={a} at orbit step {k} contains '11'")
    if per[k - 1] == "1" and word.startswith("1"):
        raise SynthesisError(f"assembled digits contain '11' for a={a} at orbit step {k}")
    return value, word


def _check_period(a: int, b: int, per: str) -> None:
    """Refuse a digit period that ``EventuallyPeriodicBits`` refuses.

    Its checks ("11" in per + per among them) are invariant under
    rotation, so one check covers every b on the cycle.
    """
    try:
        EventuallyPeriodicBits("", per)
    except DomainError as exc:
        raise SynthesisError(f"digits of b/a = {b}/{a}: {exc}") from exc


def synthesize(a: int) -> PatternSpec:
    """Construct the full PatternSpec for a fixed a >= 2.

    M and the residues come from one walk of (F_r, F_(r+1)) mod a,
    ``fib_residues``, with b_r = -F_r^-1 mod a where gcd(a, F_r) = 1.
    Each digit-orbit cycle is walked once by ``_orbit``, from its first
    b.  Its classes start at the steps j that alpha divides: b'/a has the
    digits per[j:] + per[:j], and its residues are r - j for the r with
    b_r = b, each with r's tail (``_orbit``).  So ``_tail`` runs once per
    residue of b, and the cycle's states are dropped once it is done.
    Once every cycle is walked, each tail value is cross-checked against
    the big-integer oracle at the first n >= n0 in r's class
    (``_remainders``).
    """
    if a < 2:
        raise DomainError(f"need a >= 2, got {a}")

    fs = list(fib_residues(a))
    m_per = len(fs)
    residues_of: dict[int, list[int]] = {}  # b -> the residues r with b_r = b
    # z and tail take their keys in residue order, which the sorts of the
    # canonical text then find already in order; each cycle fills its values.
    z: dict[int, ZClass | None] = {}
    tail: dict[int, str | None] = {}
    values: dict[int, int] = {}  # r -> R(n) at the first n >= n0 in r's class
    for r, f in enumerate(fs):
        if math.gcd(a, f) == 1:
            residues_of.setdefault(-pow(f, -1, a) % a, []).append(r)
            z[r] = tail[r] = None
    alpha = (fs + [0]).index(0, 1)  # the least j >= 1 with a | F_j
    i0 = _i0(a)
    n0 = i0 + 1  # PatternSpec.n0; every n < n0 + M has n - i0 <= M

    # One table for the tail values, their words and the cross-check,
    # which reads F_(n-1) for n up to n0 + M - 1.
    fibs = _fib_table(n0 + m_per - 1)
    fl = _PhiFloors()
    for b in sorted(residues_of):
        if z[residues_of[b][0]]:  # on a cycle already walked
            continue
        per, qs = _orbit(a, b, m_per, fl)
        if len(per) != m_per or qs[-2:] != [0, b]:
            raise SynthesisError(
                f"digit orbit of b/a = {b}/{a} does not close after M = {m_per} steps"
            )
        _check_period(a, b, per)
        classes = [ZClass(qs[j + 1], per[j:] + per[:j]) for j in range(0, m_per, alpha)]
        for r in residues_of[b]:
            value, word = _tail(a, i0, per, qs, (r - i0) % m_per, fibs)
            for j, zc in zip(range(0, m_per, alpha), classes):
                s = (r - j) % m_per
                z[s], tail[s], values[s] = zc, word, value
    for n, r, value in _remainders(a, i0, m_per, z, fibs):
        if values[r] != value:
            raise SynthesisError(
                f"orbit remainder disagrees with exact remainder at a={a}, n={n}"
            )
    return PatternSpec(a=a, M=m_per, z=z, tail=tail)


def _inverse_at(a: int, n: int) -> ZeckendorfRep:
    """The pattern's representation of (a^-1 mod F_n), from one orbit walk.

    Equal to ``evaluate(synthesize(a), n)`` for a >= 2 and n > i0, with
    no Pisano walk and no spec: b = -F_n^-1 mod a comes from ``_certificate``,
    and the orbit of b/a is walked for n - i0 steps or until it closes
    after L = M steps.  The walked word serves as the period, so the tail
    is read at n' = i0 + ((n - i0 - 1) mod L) + 1, the n' <= n with
    n' = n (mod L) whose z part is one prefix of the word, and the
    representation at n' is checked against the oracle.  When n' = n,
    that checked representation is the answer.
    """
    i0 = _i0(a)
    if a < 2 or n <= i0:
        raise DomainError(f"need a >= 2 and n >= n0 = {i0 + 1}, got a={a}, n={n}")
    b = _certificate(a, n)
    per, qs = _orbit(a, b, n - i0, _PhiFloors())
    if qs[-2:] == [0, b]:
        _check_period(a, b, per)
    elif len(per) < n - i0:
        raise SynthesisError(f"digit orbit of b/a = {b}/{a} does not close")
    k = (n - i0 - 1) % len(per) + 1
    _, word = _tail(a, i0, per, qs, k, _fib_table(i0 + 1))
    rep = _assemble(i0 + k, i0, per, word)
    if not matches_oracle(rep, a, i0 + k):
        raise SynthesisError(
            f"orbit remainder disagrees with exact remainder at a={a}, n={i0 + k}"
        )
    return rep if i0 + k == n else _assemble(n, i0, per, word)


# --------------------------------------------------------------------------
# evaluation


def _no_class_error(spec: PatternSpec, n: int) -> NotCoprime | DomainError:
    """NotCoprime if gcd(a, F_n) > 1; otherwise DomainError, since only a
    hand-built spec can leave out the class or tail word of an admissible
    residue, or give it an empty period."""
    try:
        _certificate(spec.a, n)
    except NotCoprime as exc:
        return exc
    return DomainError(f"the spec for a={spec.a} has no class for residue {n % spec.M}")


def evaluate(spec: PatternSpec, n: int) -> ZeckendorfRep:
    """Zeckendorf representation of (a^-1 mod F_n) by pure digit assembly.

    Never touches F_n or the inverse value: the residue's period and tail
    word go to ``_assemble``, and nothing is kept on the spec.
    """
    i0 = spec.i0
    if n <= i0:
        raise DomainError(f"need n >= {i0 + 1}, got {n}")
    r = n % spec.M
    zc, word = spec.z.get(r), spec.tail.get(r)
    if zc is None or not zc.period or word is None:
        raise _no_class_error(spec, n)
    return _assemble(n, i0, zc.period, word)


# _assemble walks the grid up to this many full blocks, whatever the number
# K of 1-offsets.  Grid/zip time, best of 7, for K = 4, 35, 74 and 422
# (a = 7, 30, 137, 1000): 0.47-0.58 at 8 blocks, 0.95-1.03 at 48, 0.91-1.03
# at 64 and 1.09-1.17 at 128 (2-vCPU shared host, Python 3.11.7).
_GRID_BLOCKS = 48


def _assemble(n: int, i0: int, per: str, word: str) -> ZeckendorfRep:
    """The representation of n from the residue's digits and tail word.

    ``per`` is the digit period of b_r/a (or a prefix of at least n - i0
    of its digits) and ``word`` the tail word over positions i0-1 down
    to 1.  Position i in [i0, n-1] carries z_(n-i), so a 1-digit at offset
    o of ``per`` (length L_r) puts the arithmetic progression n-1-o,
    n-1-o-L_r, ... into the output.  The full period blocks are the grid
    of block tops by 1-offsets, emitted block by block.  Up to
    ``_GRID_BLOCKS`` blocks a comprehension walks the grid, one step per
    index; above, one ``range`` per 1-offset is interleaved by ``zip`` in
    C, at a fixed cost of one ``range`` per 1-offset.  The
    partial top block (positions base down to i0) and the tail word
    (i0-1 down to 1) are one run, emitted by one ``compress`` over their
    joined digits; the period's 1-offsets, needed only when there is a
    full block, come from ``compress`` too.  The cost is O(number of
    indices) plus C-level passes of O(L_r + i0).
    """
    lr = len(per)
    bits = _bits(per)

    # Writing j = n - i, digit j is per[(j-1) mod lr]; indices are emitted
    # in decreasing order.  Full block k covers positions n-1-k*lr down to
    # n-(k+1)*lr, and the partial block below them starts at ``base``.
    nblocks, rem = divmod(n - i0, lr)
    base = n - 1 - nblocks * lr
    # The 1-offsets of the period; with no full block none is needed.
    ones = list(compress(range(lr), bits)) if nblocks else []
    if nblocks <= _GRID_BLOCKS:
        indices = [t - o for t in range(n - 1, base, -lr) for o in ones]
    else:
        # The ranges go to zip as a list: unpacking a generator grows a
        # tuple that CPython, once freed, parks in its tuple free lists,
        # one per call.
        indices = list(
            chain.from_iterable(
                zip(*[range(n - 1 - o, base - o, -lr) for o in ones])
            )
        )
    indices.extend(compress(range(base, 0, -1), bits[:rem] + _bits(word)))

    if word and word[-1] == "1":
        # Position 1 is in use (never produced by greedy extraction, but a
        # hand-built spec may carry it): canonicalize.
        return normalize_index_one(indices)
    return ZeckendorfRep(indices, _validate=False)


def matches_oracle(rep: ZeckendorfRep, a: int, n: int) -> bool:
    """Whether ``rep`` is the Zeckendorf representation of (a^-1 mod F_n).

    The oracle is asked first, so an n with gcd(a, F_n) > 1 raises
    ``NotCoprime`` whatever ``rep`` is.  Zeckendorf representations are
    unique, so at any other n this holds exactly when ``rep`` is canonical
    and decodes to the oracle's value; ``decode`` checks the first and
    computes the second.  The oracle shares only the fast doubling of
    ``bigfib`` with this check and nothing with the pattern code.
    """
    expected = inverse_oracle(a, n)
    try:
        return decode(rep) == expected
    except InvalidRep:
        return False


# verify sums the full period blocks of a representation in closed form
# (``_rep_value``) once its top index reaches _BLOCKS_FROM and it holds at
# least _MIN_BLOCKS full blocks; below either, decode is as fast or faster.
# Median time against decode's, over every a <= 200 with M <= 400 at
# n = 1100 and 2500, best of 9: 1.35 with 2 or 3 blocks, 0.94-0.98 with 4
# to 7, 0.68-0.80 with 8 to 15 (2-vCPU shared host, Python 3.11.7); at
# n = 520 and 1032, over 44 specs with M <= 256, 1.22 and 0.87.
_BLOCKS_FROM = 1024
_MIN_BLOCKS = 8


def _run_sum(
    p: int, fib_p: tuple[int, int], fib_x: tuple[int, int], fib_n: tuple[int, int]
) -> int:
    """S = F_x + F_(x+P) + ... + F_(n-P), the N >= 0 terms below n = x + N*P.

    The pairs are (F_P, F_(P+1)), (F_x, F_(x+1)) and (F_n, F_(n+1)), for
    any integer x (F_(-k) = (-1)^(k+1) F_k) and P >= 1.  Summing
    F_(m+P) + (-1)^P F_(m-P) = L_P F_m, with L_P the Lucas number, over
    m = x + jP for j < N telescopes to

        (L_P - 1 - (-1)^P) S = F_n - F_x + (-1)^P (F_(x-P) - F_(n-P)),

    and d'Ocagne's identity (-1)^P F_(m-P) = F_m F_(P+1) - F_(m+1) F_P,
    at m = x and at m = n, makes the right side
    F_P (F_(n+1) - F_(x+1)) - (F_(P+1) - 1)(F_n - F_x): products of F_n
    with numbers of P bits.  The divisor L_P - 1 - (-1)^P, with
    L_P = 2 F_(P+1) - F_P, is 1 for P <= 2 and at least 4 above; the
    division is checked to be exact.
    """
    fp, fp1 = fib_p
    s, rest = divmod(
        fp * (fib_n[1] - fib_x[1]) - (fp1 - 1) * (fib_n[0] - fib_x[0]),
        2 * fp1 - fp - 1 - (-1) ** p,
    )
    if rest:
        raise InternalInvariantViolation(f"Fibonacci run sum with P={p} is not exact")
    return s


def _rep_value(
    spec: PatternSpec, n: int, rep: ZeckendorfRep, fib_n: tuple[int, int], fibs: list[int]
) -> int:
    """``decode(rep)``, with the full period blocks summed in closed form.

    ``fib_n`` is (F_n, F_(n+1)), and ``fibs`` is [F_0, ..., F_(i0+Q+1)],
    Q the length of the longest period word of ``spec``.  With P the
    length of n's period word and K its number of 1s, ``evaluate`` puts
    N = (n - i0) // P full blocks on top, K indices each, every block the
    one above it shifted down by P, and the low part (partial block and
    tail word) below them.  A representation with a top index of at least
    ``_BLOCKS_FROM`` and N >= ``_MIN_BLOCKS`` is checked for that shape by
    C-level passes: idx[t] - idx[t+K] = P over the blocks, the top block
    within [n-P, n-1], and gaps of at least 2 over the top block, the
    junction below it and the junction with the low part.  So the blocks
    are canonical, and their lowest index is at least x >= i0 >= 5 (x
    below); ``decode``, which sums the low part alone, checks the rest.

    With (A, B) = (sum F_e, sum F_(e+1)) over the top block's offsets
    e = i - (n-P) < P, a block based at m sums to B F_m + A F_(m-1), as
    F_(m+e) = F_(e+1) F_m + F_e F_(m-1).  The bases are x + jP for j < N,
    with x = n - N P < i0 + P, so the blocks sum to B S(x) + A S(x-1)
    (``_run_sum``), every Fibonacci number but F_n and F_(n+1) read from
    ``fibs``.  Any other representation goes to ``decode`` whole.  Either
    way ``InvalidRep`` is raised exactly when ``rep`` is not canonical.
    """
    idx = rep.indices
    zc = spec.z.get(n % spec.M) if idx and idx[0] >= _BLOCKS_FROM else None
    if zc is None:
        return decode(rep)
    p, k = len(zc.period), zc.period.count("1")
    nblocks = (n - spec.i0) // p
    top = k * nblocks  # idx[:top] are the full blocks, idx[top:] the low part
    base = n - p  # the top block's lowest position
    low = idx[top:]
    if (
        not k
        or nblocks < _MIN_BLOCKS
        or len(idx) < top
        or idx[0] >= n
        or idx[k - 1] < base
        or min(map(sub, idx[:k], idx[1 : k + 1])) < 2
        or set(map(sub, idx, islice(idx, k, top))) != {p}
        or (low and idx[top - 1] - low[0] < 2)
    ):
        return decode(rep)
    at = fibs.__getitem__
    a = sum(map(at, map(sub, idx[:k], repeat(base))))
    b = sum(map(at, map(sub, idx[:k], repeat(base - 1))))
    fib_p = fibs[p], fibs[p + 1]
    x = n - nblocks * p
    fn, fn1 = fib_n
    return (
        (decode(ZeckendorfRep(low, _validate=False)) if low else 0)
        + b * _run_sum(p, fib_p, (fibs[x], fibs[x + 1]), (fn, fn1))
        + a * _run_sum(p, fib_p, (fibs[x - 1], fibs[x]), (fn1 - fn, fn))
    )


def verify(spec: PatternSpec, n_lo: int, n_hi: int) -> VerificationReport:
    """Check evaluate against the brute-force oracle on [n_lo, n_hi].

    The oracle values come from one ``_oracle_walk`` of the window, and an
    n whose walked gcd(a, F_n) is above 1 is skipped before ``evaluate``
    runs, whatever classes the spec holds.  Every other n is checked: the
    representation must be canonical and sum to the walked value (the
    test of ``matches_oracle``), which ``_rep_value`` computes from the
    walked (F_n, F_(n+1)) and one list of the Fibonacci numbers up to
    F_(i0+Q+1), Q the longest period, as ``decode`` would.  A non-canonical
    representation counts as a mismatch, and so does an ``n`` whose tail
    word uses position 1 in a way that cannot be canonicalized or whose
    residue has no class (only a hand-built spec can carry either); such a
    mismatch reports ``got = ()``.  The walked value is encoded only to
    report the first mismatch.
    """
    if not spec.n0 <= n_lo <= n_hi:
        raise DomainError(
            f"need n0 <= n_lo <= n_hi, got n0={spec.n0}, n_lo={n_lo}, n_hi={n_hi}"
        )
    started = time.perf_counter()
    checked = 0
    mismatches = 0
    first: MismatchDetail | None = None
    walk = _oracle_walk(spec.a, n_lo, n_hi)
    p_max = max((len(zc.period) for zc in spec.z.values()), default=0)
    fibs = _fib_table(spec.i0 + p_max + 1)  # for _rep_value
    for n, (g, want, fn, fn1) in zip(range(n_lo, n_hi + 1), walk):
        if g != 1:
            continue
        checked += 1
        rep = None
        try:
            rep = evaluate(spec, n)
            ok = _rep_value(spec, n, rep, (fn, fn1), fibs) == want
        except (DomainError, InvalidRep):
            # From evaluate: the residue has no class or tail word, or the
            # tail word cannot be canonicalized (rep stays None).  From
            # decode: rep is not canonical.
            ok = False
        if not ok:
            mismatches += 1
            if first is None:
                got = () if rep is None else rep.indices
                first = MismatchDetail(n=n, expected=encode(want).indices, got=got)
    elapsed_s = time.perf_counter() - started
    return VerificationReport(spec.a, n_lo, n_hi, checked, mismatches, first, elapsed_s)


def splice_value(spec: PatternSpec, n: int) -> QPhi:
    """The exact field element whose digit stream spells the whole pattern.

    For admissible n >= n0 the digits of the returned v in [0, 1) satisfy:
    digit j equals z_j for j <= n - i0, and digit n - i equals the tail
    digit at position i for i in [1, i0 - 1].  Used by property tests to
    check the assembled representation against an independent digit path.
    """
    from fractions import Fraction
    from .qphi import QPhi, phi_pow, sqrt5
    zc = spec.z.get(n % spec.M)
    if zc is None:
        raise _no_class_error(spec, n)
    x_r = QPhi(Fraction(zc.b, spec.a))
    sgn = -1 if n % 2 else 1
    return (
        x_r
        + sqrt5() * phi_pow(-n) * Fraction(1, spec.a)
        - phi_pow(-2 * n) * Fraction(sgn * zc.b, spec.a)
    )


# --------------------------------------------------------------------------
# serialization


def to_json_dict(spec: PatternSpec) -> dict:
    return {
        "a": spec.a,
        "M": spec.M,
        "z": {
            str(r): {"b": zc.b, "period_bits": zc.period}
            for r, zc in sorted(spec.z.items())
        },
        "tail": {str(c): word for c, word in sorted(spec.tail.items())},
    }


def _pattern_text(spec: PatternSpec) -> str:
    """The canonical text of ``spec``, in one pass.

    Exactly ``json.dumps(to_json_dict(spec), sort_keys=True, indent=2)``
    plus a newline: keys sorted as strings ("1" < "10" < "2"), a
    two-space indent, ": " separators, strings escaped by
    ``encode_basestring_ascii`` and integers in decimal.  ``json.dumps``
    runs its pure-Python encoder whenever ``indent`` is set, so the text
    is built here with f-strings and one join per table.
    """
    z = {str(r): zc for r, zc in spec.z.items()}
    tail = {str(c): word for c, word in spec.tail.items()}
    z_body = ",\n".join(
        f"    {_esc(key)}: {{\n"
        f'      "b": {z[key].b:d},\n'
        f'      "period_bits": {_esc(z[key].period)}\n'
        "    }"
        for key in sorted(z)
    )
    tail_body = ",\n".join(f"    {_esc(key)}: {_esc(tail[key])}" for key in sorted(tail))
    tail_table, z_table = (f"{{\n{body}\n  }}" if body else "{}" for body in (tail_body, z_body))
    return (
        f'{{\n  "M": {spec.M:d},\n  "a": {spec.a:d},\n'
        f'  "tail": {tail_table},\n  "z": {z_table}\n}}\n'
    )


def _json_int(value: object, name: str) -> int:
    """``value`` if it is a JSON integer; bools, floats and strings are refused."""
    if type(value) is not int:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return value


def _json_key(key: object) -> int:
    """A table key, which must be an integer written in canonical decimal."""
    if type(key) is not str or key != str(int(key)):
        raise DomainError(f"table key must be a decimal integer, got {key!r}")
    return int(key)


def from_json_dict(data: dict) -> PatternSpec:
    """Load a spec, which must be exactly the canonical spec of its ``a``.

    The file holds only a, M, z and tail.  Cheap checks come first:
    field types, canonical table keys, equal table sizes, M == pi(a) and
    the admissible residues by one walk that the file's M bounds
    (``_residue_units``), and the keys and lengths of the words
    (``_check_words``).  Then, with no orbit walk, one sum decides each
    word, as a word of 0/1 digits with no "11" over positions >= 2 is the
    Zeckendorf code of its value:

    * z: residue r holds b = b_r = -F_r^-1 mod a, and the word of b, over
      positions M+1 down to 2, sums to N_b = b (F_(M+2) - 1)/a, so it is
      encode(N_b), the digit period of b/a that synthesis walks (``_orbit``);
    * tail: the word of r leaves position 1 unused, keeps the junction
      free of "11" and sums to R(n) at the first n >= n0 of r's class
      (``_remainders``, synthesis's cross-check), so it is the greedy word
      of R(n) that synthesis stores.

    So a file loads if and only if it equals ``to_json_dict(synthesize(a))``,
    and the spec is built from its words, one ``ZClass`` per b.  Otherwise
    the first differing field (z, then tail, then an extra one) is named,
    and for z and tail the smallest differing key.
    """
    try:
        a, m_per = (_json_int(data[name], name) for name in ("a", "M"))
        residues = set()
        for key, entry in data["z"].items():
            residues.add(_json_key(key))
            _json_int(entry["b"], f"b of residue {key}")
        tail = [_json_key(c) for c in data["tail"].keys()]
    except DomainError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed pattern data: {exc}") from exc

    if a < 2 or m_per < 1 or not residues:
        raise DomainError("need a >= 2, M >= 1 and at least one admissible residue")
    if len(tail) != len(residues):
        raise DomainError("the tail table is not the size of the z table")
    units = _residue_units(a, m_per, residues)
    _check_words(a, m_per, data["z"], data["tail"])

    i0 = _i0(a)
    fibs = _fib_table(i0 + m_per)  # up to F_(M+2) and the F_(n-1) of _remainders
    z: dict[int, ZClass] = {}
    classes: dict[int, ZClass] = {}  # b -> its class, once its word is checked
    for r in sorted(residues):
        entry, b = data["z"][str(r)], units.get(r)
        if b is None or entry["b"] != b or len(entry) != 2:
            raise _mismatch(a, "z", r)
        word = entry["period_bits"]
        zc = classes.get(b)
        if zc is None or zc.period != word:
            value = _word_value(word, m_per + 1, fibs)
            if value is None or a * value != b * (fibs[m_per + 2] - 1):
                raise _mismatch(a, "z", r)
            zc = classes[b] = ZClass(b, word)
        z[r] = zc

    remainder = {r: value for _, r, value in _remainders(a, i0, m_per, z, fibs)}
    tails: dict[int, str] = {}
    for r in z:
        word = data["tail"][str(r)]
        # The z digit at position i0 of every n in r's class.
        junction = z[r].period[(r - i0 - 1) % m_per]
        if (
            word[-1] != "0"
            or (junction == "1" and word[0] == "1")
            or _word_value(word, i0 - 1, fibs) != remainder[r]
        ):
            raise _mismatch(a, "tail", r)
        tails[r] = word

    extra = next((name for name in data if name not in ("a", "M", "z", "tail")), None)
    if extra is not None:
        raise _mismatch(a, extra)
    return PatternSpec(a=a, M=m_per, z=z, tail=tails)


def _word_value(word: str, top: int, fibs: list[int]) -> int | None:
    """The sum of F_i over the 1-digits of ``word``, whose first character
    is position ``top``; None unless it has only 0/1 digits and no "11"."""
    if word.count("0") + word.count("1") != len(word) or "11" in word:
        return None
    return sum(compress(fibs[top : top - len(word) : -1], _bits(word)))


def _mismatch(a: int, name: object, key: int | None = None) -> DomainError:
    where = f"field {name!r}" if key is None else f"field {name!r} at key {str(key)!r}"
    return DomainError(f"pattern for a={a} differs from the canonical spec in {where}")


def _residue_units(a: int, m_per: int, residues: set[int]) -> dict[int, int]:
    """Map each admissible residue r to b_r = -F_r^-1 mod a, checking that
    ``residues`` holds exactly the r in [0, M) with gcd(a, F_r) = 1 and
    that M is the Pisano period of a.

    One pass over ``fib_residues(a)`` that stops after M steps, at the end
    of the period, or at the first mislabelled residue, so the file's M
    bounds the walk and a claimed M far too large costs little.  A key
    outside [0, M) gets no b, and the z check refuses it.
    """
    walk = fib_residues(a)
    units: dict[int, int] = {}
    steps = 0
    for f in islice(walk, m_per):
        unit = math.gcd(a, f) == 1
        if unit != (steps in residues):
            raise DomainError(f"admissibility of residue {steps} mislabeled")
        if unit:
            units[steps] = -pow(f, -1, a) % a
        steps += 1
    if steps != m_per or next(walk, None) is not None:
        raise DomainError(f"M={m_per} is not the Pisano period of a={a}")
    return units


def _check_words(a: int, m_per: int, z: dict, tail: dict) -> None:
    """Check that the tail keys are the z keys, that each ``period_bits``
    is a string of M characters and each tail word one of i0 - 1.

    Synthesis costs about M steps per digit cycle, so a file of short words
    could ask for far more work than its size; with these lengths checked
    the file is at least as large as that work.  The smallest offending key
    is named, key mismatches first, then ``z``, then ``tail``.
    """
    odd = z.keys() ^ tail.keys()
    if odd:
        key = min(odd, key=int)
        raise DomainError(
            f"pattern for a={a} has tail keys other than its z keys,"
            f" in field 'tail' at key {key!r}"
        )
    periods = {key: entry.get("period_bits") for key, entry in z.items()}
    for name, words, size in (("z", periods, m_per), ("tail", tail, _i0(a) - 1)):
        bad = [key for key, word in words.items() if type(word) is not str or len(word) != size]
        if bad:
            key = min(bad, key=int)
            raise DomainError(
                f"pattern for a={a} needs words of {size} digits,"
                f" in field {name!r} at key {key!r}"
            )


def save_pattern(spec: PatternSpec, path: str) -> None:
    """Write the canonical JSON form, ``_pattern_text``, to ``path``.

    The text is built first, so a spec that cannot be written leaves the
    path as it was.  The file is opened without truncation (a new one gets
    mode 0o666 less the umask, as ``open(path, "w")`` gives), the ASCII
    bytes are written over its start and a regular file is cut at their
    end, one code path for new and existing files.  On ext4 with
    ``auto_da_alloc`` (the default) a file cut to zero and written again
    starts writeback on close: 130-180 us for the 1,265 bytes of the a = 76
    spec, against 17-20 us in place.  Neither way calls fsync.  A write
    that fails part way leaves the new bytes over the start of the old
    ones, a mix that ``load_pattern``, which accepts only the canonical
    spec, refuses.
    """
    _write_pattern(_pattern_text(spec), path)


def _write_pattern(text: str, path: str) -> None:
    """Write ``text`` to ``path`` in place, as ``save_pattern`` describes;
    an ``OSError`` becomes a ``DomainError``."""
    data = text.encode("ascii")
    try:
        # open() closes the descriptor on every path, its own failures too.
        with open(path, "wb", opener=_open_in_place) as fh:
            fh.write(data)
            # Devices and pipes, which O_TRUNC leaves alone, have no length.
            if S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:
        raise DomainError(f"cannot write pattern file {path!r}: {exc}") from exc


def _open_in_place(path: str, flags: int) -> int:
    """``open``'s flags for writing less ``O_TRUNC``, with its mode 0o666."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def load_pattern(path: str) -> PatternSpec:
    """Read a pattern file and return its spec, by ``from_json_dict``.

    The file must hold exactly the canonical spec of its ``a``, so a file
    that ``save_pattern`` left half written is refused.  The check is
    exact without synthesis: each word has no "11" and sums to the value
    its identity fixes, so by Zeckendorf's uniqueness it is the word that
    synthesis derives (``from_json_dict``).  An unreadable file, bad UTF-8
    or bad JSON, like any file that is not the canonical spec, is a
    ``DomainError``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and integer literals longer
        # than the interpreter's int/str conversion limit.
        raise DomainError(f"cannot read pattern file {path!r}: {exc}") from exc
    return from_json_dict(data)


def report_to_json_dict(report: VerificationReport) -> dict:
    """JSON form of a VerificationReport.

    Wall time lives under the separate "timing" key so golden-file
    comparisons can drop it wholesale.
    """
    data = report._asdict()
    data["timing"] = {"elapsed_s": data.pop("elapsed_s")}
    if report.first_mismatch is not None:
        n, expected, got = report.first_mismatch
        data["first_mismatch"] = {"n": n, "expected": list(expected), "got": list(got)}
    return data
