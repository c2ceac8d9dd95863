"""Tests for the Zeckendorf codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeckinv import (
    DomainError,
    InvalidRep,
    ZeckendorfRep,
    decode,
    encode,
    from_bit_string,
    matches_oracle,
    normalize_index_one,
    to_bit_string,
)
from zeckinv.zeckendorf import _split


def naive_fib_list(count):
    xs = [0, 1]
    while len(xs) < count:
        xs.append(xs[-1] + xs[-2])
    return xs[:count]


# decode joins blocks of 256 positions at power-of-two widths: top indices
# on and next to each split point, up to 2^13 + 1.
SPLIT_TOPS = [2**k + d for k in range(1, 14) for d in (-1, 0, 1) if 2**k + d >= 2]
FIBS = naive_fib_list(2**13 + 2)


def test_encode_examples():
    assert encode(1).indices == (2,)
    assert encode(11).indices == (6, 4)
    assert encode(54).indices == (9, 7, 5, 3)


def test_encode_rejects_nonpositive():
    for n in (0, -1, -100):
        with pytest.raises(DomainError):
            encode(n)


def test_decode_examples():
    assert decode(ZeckendorfRep([2])) == 1
    assert decode(ZeckendorfRep([6, 4])) == 11


def test_invalid_reps():
    with pytest.raises(InvalidRep):
        ZeckendorfRep([3, 2])  # consecutive
    with pytest.raises(InvalidRep):
        ZeckendorfRep([5, 5])  # repeated
    with pytest.raises(InvalidRep):
        ZeckendorfRep([4, 1])  # index below 2
    with pytest.raises(InvalidRep):
        ZeckendorfRep([])


@pytest.mark.parametrize(
    "indices",
    [
        (3, 2),
        (5, 5),
        (3, 5),
        (4, 1),
        (9, -3),
        (),
        (9, -1000, 5),
        (-300,),
        (1,),
        # Leaves far below -len(sums): the running sum is stored out of range.
        (1000, -5000),
        (2, -(10**6)),
        (3000, 600, -(10**9), -(10**9) - 2),
    ],
)
def test_decode_checks_canonicity_like_the_constructor(indices):
    # decode checks while it sums; a failure must read as the constructor's.
    with pytest.raises(InvalidRep) as built:
        ZeckendorfRep(indices)
    rep = ZeckendorfRep(indices, _validate=False)
    with pytest.raises(InvalidRep) as decoded:
        decode(rep)
    assert str(decoded.value) == str(built.value)
    assert not matches_oracle(rep, 2, 8)


# Top indices on and next to the first nine leaf edges: odd block counts at
# each level, a carried last block and a two-block root.
LEAF_EDGE_TOPS = [256 * m + d for m in range(1, 10) for d in (-1, 0, 1)]


def sets_under(top):
    """A dense set, top and both neighbours of every leaf edge below it,
    and top alone."""
    dense = list(range(top, 1, -2))
    edges = {256 * j + e for j in range(top // 256 + 1) for e in (-1, 1)}
    sparse = [top, *sorted((p for p in edges if 2 <= p <= top - 2), reverse=True)]
    return [dense, sparse, [top]]


@pytest.mark.parametrize("top", LEAF_EDGE_TOPS)
def test_decode_at_leaf_edges(top):
    for indices in sets_under(top):
        assert decode(ZeckendorfRep(indices)) == sum(FIBS[i] for i in indices)


# decode stores a leaf's running sum when an index drops below the leaf's
# base: indices on multiples of 256 open a leaf at its base, and gaps of
# more than 256 leave whole leaves empty between two stores.
SPARSE_SETS = [
    [256 * m for m in range(9, 0, -1)],
    [256 * m + d for m in range(9, 0, -1) for d in (1, 0)][::2],
    [2**13 + 1, 2**12, 2**9, 256, 2],
    [7000, 6999 - 257, 4000, 3743, 3486, 255, 3],
    [2**13, 2],
    list(range(2**13, 1, -513)),
    list(range(2**13 + 1, 1, -257)),
]


@pytest.mark.parametrize("indices", SPARSE_SETS)
def test_decode_across_empty_leaves(indices):
    assert decode(ZeckendorfRep(indices)) == sum(FIBS[i] for i in indices)


# decode reads each level's split pair from a process-wide cache and joins
# the lowest block of each level for A only.  Tops next to 256 * 2^k for k
# up to 8 take up to nine join levels: odd block counts, a carried last
# block, the A-only lowest block and a two-block root.
LEVEL_TOPS = [256 * 2**k + d for k in range(9) for d in (-1, 0, 1)]


def level_cases():
    """(indices, sum of F_i) for each of sets_under(top), smallest top of
    LEVEL_TOPS first; the sums come from one plain walk of (F_i, F_(i+1)),
    with no table of every F_i up to 2^16 + 1."""
    cases = [indices for top in LEVEL_TOPS for indices in sets_under(top)]
    needed = set().union(*cases)
    fib, f, g = {}, 0, 1
    for i in range(max(needed) + 1):
        if i in needed:
            fib[i] = f
        f, g = g, f + g
    return [(indices, sum(fib[i] for i in indices)) for indices in cases]


def test_decode_does_not_depend_on_the_order_the_level_cache_fills():
    cases = level_cases()
    for order in (cases[::-1], cases):  # largest top first, then smallest
        _split.cache_clear()
        for indices, want in order:
            ok = decode(ZeckendorfRep(indices)) == want
            assert ok, (indices[0], len(indices))


def test_round_trip():
    for n in range(1, 100001):
        rep = encode(n)
        assert decode(rep) == n
        idx = rep.indices
        assert all(idx[i] - idx[i + 1] >= 2 for i in range(len(idx) - 1))
        assert idx[-1] >= 2


def test_uniqueness_by_exhaustive_search():
    # Enumerate every valid (non-consecutive, indices >= 2) subset with
    # indices up to 21 — this covers all values through F_23 - 1 > 10^4 —
    # and check each value in [1, 10^4] is produced exactly once.
    limit = 10**4
    top = 21
    counts = {}
    stack = [((), 2)]  # (chosen indices, smallest allowed next index)
    while stack:
        chosen, nxt = stack.pop()
        for i in range(nxt, top + 1):
            ext = chosen + (i,)
            stack.append((ext, i + 2))
            value = sum(FIBS[j] for j in ext)
            if value <= limit:
                counts[value] = counts.get(value, 0) + 1
    for n in range(1, limit + 1):
        assert counts.get(n, 0) == 1, f"value {n} has {counts.get(n, 0)} reps"


def test_predecessor_of_fib_is_alternating():
    # F_k - 1 always encodes as the alternating set {k-1, k-3, ...} ending
    # at index 2 or 3.
    for k in range(3, 26):
        want = tuple(range(k - 1, 1, -2))
        assert encode(FIBS[k] - 1).indices == want


def test_normalize_examples():
    assert normalize_index_one([4, 1]).indices == (4, 2)
    assert normalize_index_one([6, 4]).indices == (6, 4)
    assert normalize_index_one([5, 2]).indices == (5, 2)


def test_normalize_carry_cascade():
    # The swap 1 -> 2 can collide with an existing 3 and must carry upward.
    assert normalize_index_one([3, 1]).indices == (4,)
    assert normalize_index_one([5, 3, 1]).indices == (6,)
    assert normalize_index_one([8, 5, 3, 1]).indices == (8, 6)
    # Value must be preserved in every case.
    for raw in ([3, 1], [5, 3, 1], [8, 5, 3, 1], [9, 4, 1], [7, 1]):
        want = sum(FIBS[i] for i in raw)
        assert decode(normalize_index_one(raw)) == want


def test_normalize_rejects_consecutive():
    with pytest.raises(InvalidRep):
        normalize_index_one([2, 1])
    with pytest.raises(InvalidRep):
        normalize_index_one([4, 3, 1])


def test_bit_strings():
    assert to_bit_string(encode(11)) == "10100"
    assert to_bit_string(ZeckendorfRep([2])) == "1"
    assert to_bit_string(encode(54)) == "10101010"
    for n in (1, 7, 54, 1000, 98765):
        rep = encode(n)
        assert from_bit_string(to_bit_string(rep)) == rep
    assert from_bit_string("0010100") == encode(11)  # leading zeros ok
    with pytest.raises(InvalidRep):
        from_bit_string("1100")
    with pytest.raises(InvalidRep):
        from_bit_string("10a0")
    with pytest.raises(InvalidRep):
        from_bit_string("")


def test_rep_container_protocol():
    rep = encode(54)
    assert list(rep) == [9, 7, 5, 3]
    assert len(rep) == 4
    assert 7 in rep and 8 not in rep
    assert rep == ZeckendorfRep([9, 7, 5, 3])
    assert rep.value == 54
    assert hash(rep) == hash(ZeckendorfRep([9, 7, 5, 3]))


@st.composite
def index_sets(draw, lowest):
    """Decreasing, pairwise non-consecutive index sets with indices >= lowest."""
    top = draw(st.one_of(st.sampled_from(SPLIT_TOPS), st.integers(lowest, 2**13 + 1)))
    width = top - 1 - lowest  # positions lowest .. top - 2 may hold a 1
    mask = draw(st.integers(0, (1 << width) - 1)) if width > 0 else 0
    mask &= ~(mask << 1)  # drop each 1 whose lower neighbour is a 1
    lsb_first = bin(mask)[:1:-1]
    below = [lowest + k for k, ch in enumerate(lsb_first) if ch == "1"]
    return [top, *reversed(below)]


@settings(derandomize=True, max_examples=100)
@given(
    st.one_of(
        st.integers(1, 1 << 6000),  # mostly full width
        st.integers(1, 6000).flatmap(lambda bits: st.integers(1, 1 << bits)),
    )
)
def test_decode_inverts_encode(value):
    assert decode(encode(value)) == value


@settings(derandomize=True, max_examples=200)
@given(index_sets(lowest=2))
def test_decode_is_the_fibonacci_sum(indices):
    assert decode(ZeckendorfRep(indices)) == sum(FIBS[i] for i in indices)


@settings(derandomize=True, max_examples=200)
@given(index_sets(lowest=1))
def test_normalize_index_one_keeps_the_value(indices):
    # F_1 = 1 counts in the plain sum.
    assert decode(normalize_index_one(indices)) == sum(FIBS[i] for i in indices)
