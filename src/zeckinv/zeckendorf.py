"""Canonical Zeckendorf codec.

A positive integer has a unique representation as a sum of distinct,
non-consecutive Fibonacci numbers with indices >= 2 (index 1 is banned:
F_1 = F_2 would make representations ambiguous).  The golden-ratio digit
pathway can legitimately emit index 1, so normalization to canonical form
is a first-class operation here.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import lru_cache

from .bigfib import _fib_table, fib_pair
from .errors import DomainError, InvalidRep

__all__ = [
    "ZeckendorfRep",
    "encode",
    "decode",
    "normalize_index_one",
    "to_bit_string",
    "from_bit_string",
]

# decode sums blocks of _LEAF = 2**_LEAF_BITS positions.  Entry j of
# _LEAF_PAIRS packs F_j into the low _FIELD bits and F_(j+1) above them; a
# block's sum of F_j over distinct j < _LEAF is below F_(_LEAF + 1), so one
# addition per digit accumulates both sums without carries between them.
_LEAF_BITS = 8
_LEAF = 1 << _LEAF_BITS
_FIBS = _fib_table(_LEAF + 1)
_FIELD = _FIBS[_LEAF + 1].bit_length()
_LEAF_PAIRS = [_FIBS[j] | _FIBS[j + 1] << _FIELD for j in range(_LEAF)]


@lru_cache(maxsize=None)
def _split(level: int) -> tuple[int, int]:
    """(F_(k-1), F_k) for the split width k = _LEAF * 2**level of decode.

    Cached per level: the levels kept hold 1.4 to 2.8 bits per position
    of the largest top index decoded so far (22 KiB at 10^5).
    """
    return fib_pair((_LEAF << level) - 1)


def _check_indices(indices: tuple[int, ...], lowest: int) -> None:
    """Raise InvalidRep unless indices are strictly decreasing, >= lowest,
    and pairwise non-consecutive."""
    if not indices:
        raise InvalidRep("empty index set does not represent a positive integer")
    prev = None
    for i in indices:
        if i < lowest:
            raise InvalidRep(f"index {i} below minimum {lowest}")
        if prev is not None and prev - i < 2:
            raise InvalidRep(f"indices {prev}, {i} are consecutive or repeated")
        prev = i


class ZeckendorfRep:
    """Strictly decreasing, non-consecutive Fibonacci indices >= 2."""

    __slots__ = ("_indices",)

    def __init__(self, indices: Iterable[int], *, _validate: bool = True):
        idx = tuple(indices)
        if _validate:
            _check_indices(idx, 2)
        self._indices = idx

    @property
    def indices(self) -> tuple[int, ...]:
        return self._indices

    @property
    def value(self) -> int:
        return decode(self)

    def __iter__(self) -> Iterator[int]:
        return iter(self._indices)

    def __len__(self) -> int:
        return len(self._indices)

    def __contains__(self, i: int) -> bool:
        return i in self._indices

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ZeckendorfRep):
            return self._indices == other._indices
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._indices)

    def __repr__(self) -> str:
        return f"ZeckendorfRep({{{', '.join(map(str, self._indices))}}})"


def encode(n: int) -> ZeckendorfRep:
    """Greedy Zeckendorf encoding of a positive integer.

    Repeatedly subtracts the largest Fibonacci number not exceeding the
    remainder; greediness is what forces the non-consecutive property.
    """
    if n < 1:
        raise DomainError(f"can only encode positive integers, got {n}")
    # Climb to the largest k with F_k <= n, keeping the pair (F_k, F_{k+1}).
    k, fk, fk1 = 2, 1, 2
    while fk1 <= n:
        k, fk, fk1 = k + 1, fk1, fk + fk1
    indices = []
    rem = n
    # Walk k back down maintaining (F_{k-1}, F_k); no table needed.
    fk_prev = fk1 - fk
    while rem > 0:
        if fk <= rem:
            indices.append(k)
            rem -= fk
        k, fk, fk_prev = k - 1, fk_prev, fk - fk_prev
    return ZeckendorfRep(indices, _validate=False)


def decode(rep: ZeckendorfRep) -> int:
    """Sum of F_i over the representation's indices, checking canonicity.

    One pass over the indices both checks and sums: each index must lie at
    least 2 below the one before, and the last must be >= 2.  Any failure
    (or an empty set) is handed to _check_indices, so the InvalidRep raised
    is the one ZeckendorfRep(indices) raises.

    The sum is divide and conquer over blocks of digit positions.  A block
    of width w based at position s carries the pair

        (A, B) = (sum_j d_(s+j) F_j,  sum_j d_(s+j) F_(j+1)),   0 <= j < w,

    relative to its base.  Leaves are blocks of _LEAF positions, summed from
    a small table of packed pairs.  The indices decrease, so each leaf's
    indices come in one run: its sum is kept in a local and stored once,
    when an index drops below the leaf's base.  A block of width k (a
    power of two) joins the block above it by the shift identity
    F_(k+j) = F_k F_(j+1) + F_(k-1) F_j.  With x = F_k, y = F_(k-1) and
    x + y = F_(k+1), the join takes three products, y A_hi being shared:

        A = A_lo + x B_hi + y A_hi,
        B = B_lo + (x + y)(A_hi + B_hi) - y A_hi.

    Levels are joined until one block, the root, remains.  It is based at
    position 0, so its A is the value, and the lowest block of every level
    lies on its low edge: it is joined for A alone, two products.  Each
    split width's (F_(k-1), F_k) is one cached ``fib_pair`` (_split), so
    for top index n the cost is O(M(n) log n), M(n) the cost of multiplying
    n-bit integers, plus one table addition per index and one store per
    leaf reached; adding F_i position by position would cost Theta(n^2).
    """
    indices = rep.indices
    canonical = False
    if indices:
        table, shift = _LEAF_PAIRS, _LEAF_BITS
        k = indices[0] >> shift
        sums = [0] * (k + 1)
        lo, acc = k << shift, 0  # the current leaf's base and running sum
        prev = indices[0] + 2
        try:
            for i in indices:
                if prev - i < 2:
                    break
                if i < lo:
                    sums[k] = acc
                    k = i >> shift
                    lo, acc = k << shift, 0
                acc += table[i - lo]
                prev = i
            else:
                sums[k] = acc
                canonical = prev >= 2
        except IndexError:
            # A negative index can pass the gap test and fall outside sums;
            # such a set is not canonical, so _check_indices raises below.
            pass
    if not canonical:
        _check_indices(indices, 2)
    low = (1 << _FIELD) - 1
    pairs = [(s & low, s >> _FIELD) for s in sums]
    level = 0
    while len(pairs) > 1:
        y, x = _split(level)
        s = x + y
        (a0, _), (a1, b1) = pairs[0], pairs[1]
        joined = [(a0 + x * b1 + y * a1, None)]  # the root reads only its A
        for (a0, b0), (a1, b1) in zip(pairs[2::2], pairs[3::2]):
            ya = y * a1
            joined.append((a0 + x * b1 + ya, b0 + s * (a1 + b1) - ya))
        if len(pairs) % 2:
            joined.append(pairs[-1])
        pairs = joined
        level += 1
    return pairs[0][0]


def normalize_index_one(indices: Iterable[int]) -> ZeckendorfRep:
    """Canonicalize a non-consecutive index set that may use index 1.

    Replaces index 1 by index 2 (F_1 = F_2); if that creates an adjacent
    pair, carries upward via F_k + F_{k+1} = F_{k+2} until canonical.  The
    cascade genuinely occurs: {3, 1} -> {3, 2} -> {4}.
    """
    desc = tuple(sorted(indices, reverse=True))
    _check_indices(desc, 1)
    asc = list(reversed(desc))
    if asc[0] == 1:
        asc[0] = 2
    # Only the bottom swap can break canonicity, and each merge moves the
    # conflict strictly upward, so a single linear pass suffices.
    i = 0
    while i + 1 < len(asc):
        if asc[i + 1] == asc[i] + 1:
            asc[i : i + 2] = [asc[i] + 2]
        else:
            i += 1
    return ZeckendorfRep(reversed(asc))


def to_bit_string(rep: ZeckendorfRep) -> str:
    """MSB-first digit word over positions max(indices) down to 2."""
    idx = set(rep.indices)
    top = rep.indices[0]
    return "".join("1" if i in idx else "0" for i in range(top, 1, -1))


def from_bit_string(bits: str) -> ZeckendorfRep:
    """Inverse of to_bit_string; leading zeros are tolerated."""
    if not bits or any(c not in "01" for c in bits):
        raise InvalidRep(f"not a bit word: {bits!r}")
    top = len(bits) + 1  # position of the first character
    indices = [top - j for j, c in enumerate(bits) if c == "1"]
    return ZeckendorfRep(indices)
