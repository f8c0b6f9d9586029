import pytest
from hypothesis import given, settings, strategies as st

from toughseq.partitions import (
    claim4_identity,
    count_partitions,
    enumerate_partitions,
    partition_function,
)


def test_count_examples():
    assert count_partitions(5) == 7
    assert count_partitions(5, max_parts=3) == 5
    assert count_partitions(2, max_parts=17) == 2
    assert count_partitions(0) == 1
    assert count_partitions(0, max_parts=0) == 1
    assert count_partitions(3, max_parts=0) == 0


def test_known_partition_values():
    known = {10: 42, 20: 627, 30: 5604, 50: 204226, 60: 966467, 100: 190569292}
    for r, value in known.items():
        assert partition_function(r) == value


def test_enumerate_examples():
    assert enumerate_partitions(3, max_parts=2) == [[3], [2, 1]]
    assert enumerate_partitions(4) == [[4], [3, 1], [2, 2], [2, 1, 1], [1, 1, 1, 1]]
    assert enumerate_partitions(0) == [[]]
    assert enumerate_partitions(5, max_parts=3) == [[5], [4, 1], [3, 2], [3, 1, 1], [2, 2, 1]]
    assert enumerate_partitions(1000, max_part=1) == [[1] * 1000]  # deeper than the recursion limit


@settings(deadline=None)
@given(
    st.integers(0, 28),
    st.one_of(st.none(), st.integers(0, 12)),
    st.one_of(st.none(), st.integers(0, 12)),
)
def test_count_matches_enumeration(r, max_parts, max_part):
    parts = enumerate_partitions(r, max_parts=max_parts, max_part=max_part)
    assert len(parts) == count_partitions(r, max_parts=max_parts, max_part=max_part)
    for lam in parts:
        assert sum(lam) == r
        assert lam == sorted(lam, reverse=True)
        assert all(x >= 1 for x in lam)
        if max_parts is not None:
            assert len(lam) <= max_parts
        if max_part is not None:
            assert all(x <= max_part for x in lam)
    assert len({tuple(lam) for lam in parts}) == len(parts)


def test_bound_monotonicity():
    for r in range(0, 41, 5):
        counts = [count_partitions(r, max_parts=c) for c in range(r + 2)]
        assert counts == sorted(counts)
        assert count_partitions(r, max_parts=r) == partition_function(r)
        assert count_partitions(r, max_parts=r + 50) == partition_function(r)


def conjugate_equivalence_check(r: int, limit: int) -> bool:
    """#partitions(r, at most `limit` parts) == #partitions(r, parts <= `limit`).

    Conjugation swaps the two constraints, so this holds for all r,
    limit >= 0; the check exercises both counting routes.
    """
    return count_partitions(r, max_parts=limit) == count_partitions(r, max_part=limit)


def test_conjugate_equivalence():
    assert conjugate_equivalence_check(23, 3)
    assert conjugate_equivalence_check(5, 2)
    assert conjugate_equivalence_check(0, 0)
    for r in range(0, 25):
        for limit in range(0, 8):
            assert conjugate_equivalence_check(r, limit)


def test_claim4_examples():
    assert claim4_identity(3, 10)
    assert partition_function(10) - count_partitions(10, max_parts=7) == 4
    assert claim4_identity(1, 5)
    assert claim4_identity(2, 6)
    assert partition_function(6) - count_partitions(6, max_parts=4) == 2


def test_claim4_precondition_reported():
    with pytest.raises(ValueError):
        claim4_identity(3, 6)  # needs N > 2k
    with pytest.raises(ValueError):
        claim4_identity(0, 10)


def test_partition_query_surface():
    assert count_partitions(5, max_parts=3) == 5
    assert len(enumerate_partitions(5, max_parts=3)) == 5
    for fn in (count_partitions, enumerate_partitions):
        with pytest.raises(ValueError):
            fn(-1)
        with pytest.raises(ValueError):
            fn(3, max_parts=-2)
        with pytest.raises(ValueError):
            fn(3, max_part=-1)


def pentagonal_partition_numbers(limit):
    """p(0..limit) by Euler's pentagonal number recurrence."""
    p = [1] + [0] * limit
    for m in range(1, limit + 1):
        k = 1
        while k * (3 * k - 1) // 2 <= m:
            sign = 1 if k % 2 else -1
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if g <= m:
                    p[m] += sign * p[m - g]
            k += 1
    return p


def test_partition_function_matches_pentagonal_recurrence():
    p = pentagonal_partition_numbers(1000)
    for r in (0, 1, 2, 57, 300, 1000):
        assert partition_function(r) == p[r]
