"""Exact integer-partition counting and enumeration.

Counts expand the two-constraint generating function (at most L parts,
each at most M) iteratively with Python's arbitrary-precision integers,
and enumeration walks an explicit stack, so there is no overflow or
recursion cliff.  p(0) = 1 by convention; parts are positive and "at
most L parts" permits fewer.
"""

from __future__ import annotations

__all__ = [
    "count_partitions",
    "enumerate_partitions",
    "partition_function",
    "claim4_identity",
]


def _check_bounds(r: int, max_parts: int | None, max_part: int | None) -> None:
    if r < 0:
        raise ValueError("r must be >= 0")
    if max_parts is not None and max_parts < 0:
        raise ValueError("max_parts must be >= 0")
    if max_part is not None and max_part < 0:
        raise ValueError("max_part must be >= 0")


def count_partitions(r: int, max_parts: int | None = None, max_part: int | None = None) -> int:
    """Exact number of partitions of r under the given bounds.

    The count is the coefficient of q^r in the Gaussian binomial
    prod_{i=1..L} (1 - q^(M+i)) / (1 - q^i) with L = max_parts and
    M = max_part (each capped at r), expanded one factor at a time as
    a power series truncated past q^r.
    """
    _check_bounds(r, max_parts, max_part)
    parts = r if max_parts is None else min(max_parts, r)
    largest = r if max_part is None else min(max_part, r)
    coeffs = [1] + [0] * r
    for i in range(1, parts + 1):
        for d in range(i, r + 1):  # divide by 1 - q^i
            coeffs[d] += coeffs[d - i]
        for d in range(r, largest + i - 1, -1):  # multiply by 1 - q^(M+i)
            coeffs[d] -= coeffs[d - largest - i]
    return coeffs[r]


def partition_function(r: int) -> int:
    """p(r), the unrestricted partition count."""
    return count_partitions(r)


def enumerate_partitions(r: int, max_parts: int | None = None, max_part: int | None = None) -> list[list[int]]:
    """All matching partitions as nonincreasing part lists, largest-first order.

    The list starts at [r] (when admissible) and descends
    lexicographically, e.g. r=3 gives [[3], [2, 1], [1, 1, 1]].
    """
    _check_bounds(r, max_parts, max_part)
    parts = r if max_parts is None else max_parts
    largest = r if max_part is None else max_part
    out: list[list[int]] = []
    acc: list[int] = []
    remaining = r
    trial = [min(largest, r)]  # next part to try at each depth, counting down
    while True:
        if remaining == 0 or len(acc) == parts or trial[-1] == 0:
            if remaining == 0:
                out.append(acc.copy())
            if not acc:
                return out
            trial.pop()
            last = acc.pop()
            remaining += last
            trial[-1] = last - 1
        else:
            part = trial[-1]
            acc.append(part)
            remaining -= part
            trial.append(min(part, remaining))


def claim4_identity(k: int, big_n: int) -> bool:
    """Check p(N) - p_{N-k}(N) == 1 + p(1) + ... + p(k-1) for N > 2k.

    The left side counts partitions of N whose largest part is at least
    N-k+1; since that largest part exceeds N/2 it is unique, and the
    remainder is an unrestricted partition of at most k-1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if big_n <= 2 * k:
        raise ValueError(f"identity requires N > 2k, got k={k}, N={big_n}")
    left = partition_function(big_n) - count_partitions(big_n, max_parts=big_n - k)
    right = 1 + sum(partition_function(s) for s in range(1, k))
    return left == right
