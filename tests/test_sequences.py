import random

import pytest
from hypothesis import given, strategies as st

from conftest import all_valid_sequences, random_valid_sequence, sweep
from toughseq.sequences import (
    DegreeSequence,
    format_sequence,
    is_graphical,
    majorizes,
    parse_sequence,
)


def test_parse_abbreviated():
    assert parse_sequence("4^5 5^2 6^1") == (4, 4, 4, 4, 4, 5, 5, 6)
    assert parse_sequence("0^3") == (0, 0, 0)
    assert parse_sequence("2,2,2") == (2, 2, 2)


def test_parse_is_order_insensitive():
    assert parse_sequence("6 5^2 4^5") == parse_sequence("4^5 5^2 6")


@pytest.mark.parametrize("bad", ["", "  ", "x^2", "2^", "2^0", "3^-1", "1.5", "2^2^2"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_sequence(bad)


def test_parse_rejects_out_of_range():
    with pytest.raises(ValueError):
        parse_sequence("3")  # d_1 = 3 > n-1 = 0
    with pytest.raises(ValueError):
        parse_sequence("-1 0 1")
    with pytest.raises(ValueError) as info:
        parse_sequence("-1 2 2")
    assert str(info.value) == "degree entries must lie in [0, 2], got -1 2^2"


def test_format_examples():
    assert format_sequence(DegreeSequence((4, 4, 4, 4, 4, 5, 5, 6))) == "4^5 5^2 6"
    assert format_sequence(DegreeSequence((0, 0, 0))) == "0^3"
    assert format_sequence(DegreeSequence((0,))) == "0"


def test_constructor_sorts_and_validates():
    assert tuple(DegreeSequence([3, 1, 2, 0])) == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        DegreeSequence(())
    with pytest.raises(ValueError):
        DegreeSequence((3,))
    with pytest.raises(ValueError):
        DegreeSequence((0, -1))
    with pytest.raises(TypeError):
        DegreeSequence((1.5, 2, 2))


def test_degree_is_one_based():
    seq = DegreeSequence((1, 2, 2, 3))
    assert seq.degree(1) == 1 and seq.degree(4) == 3
    with pytest.raises(IndexError):
        seq.degree(0)
    with pytest.raises(IndexError):
        seq.degree(5)


@given(st.integers(1, 12).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
def test_parse_format_round_trip(entries):
    seq = DegreeSequence(entries)
    assert parse_sequence(format_sequence(seq)) == seq


def test_majorizes_examples():
    assert majorizes((1, 2, 3), (1, 2, 3))
    assert majorizes((2, 2, 3), (1, 2, 3))
    assert not majorizes((1, 3, 3), (2, 2, 3))
    assert not majorizes((2, 2, 3), (1, 3, 3))
    with pytest.raises(ValueError):
        majorizes((1, 2), (1, 2, 3))


def test_majorization_is_a_partial_order():
    rng = random.Random(171)
    for _ in range(400):
        n = rng.randint(1, 12)
        a = random_valid_sequence(rng, n)
        b = random_valid_sequence(rng, n)
        c = random_valid_sequence(rng, n)
        assert majorizes(a, a)
        if majorizes(a, b) and majorizes(b, a):
            assert a == b
        if majorizes(a, b) and majorizes(b, c):
            assert majorizes(a, c)


def test_graphical_examples():
    assert is_graphical(DegreeSequence((2, 2, 2)))
    assert not is_graphical(DegreeSequence((1, 1, 1)))
    assert not is_graphical(DegreeSequence((1, 3, 3, 3)))
    assert is_graphical(DegreeSequence((2, 2, 3, 3, 3, 5)))
    assert is_graphical(DegreeSequence((0,)))
    assert is_graphical(DegreeSequence((0, 0, 0, 0)))


@pytest.mark.parametrize("n", range(1, 8))
def test_graphical_agrees_with_realization_sweep(n):
    realized, _ = sweep(n)
    for seq in all_valid_sequences(n):
        assert is_graphical(seq) == (tuple(seq) in realized), tuple(seq)


def quadratic_erdos_gallai(seq) -> bool:
    """The textbook O(n^2) form of the test, kept as a reference."""
    n = len(seq)
    if sum(seq) % 2 != 0:
        return False
    # Erdos-Gallai expects nonincreasing order.
    d = sorted(seq, reverse=True)
    prefix = 0
    for k in range(1, n + 1):
        prefix += d[k - 1]
        tail = sum(min(d[i], k) for i in range(k, n))
        if prefix > k * (k - 1) + tail:
            return False
    return True


def havel_hakimi(seq) -> bool:
    """Graphicality by Havel-Hakimi: join the largest degree to the next ones."""
    d = sorted(seq, reverse=True)
    while d and d[0] > 0:
        first = d.pop(0)
        if first > len(d):
            return False
        for i in range(first):
            d[i] -= 1
        if d[first - 1] < 0:
            return False
        d.sort(reverse=True)
    return True


def reference_lists():
    """Fixed edge cases, then seeded random lists with n = 1..300."""
    yield from ([1], [1, 2], [3, 3, 3], [0], [0] * 300, [299] * 300, [4] * 5,
                [5, 1, 1, 1, 1, 1], [7, 0], [2] * 3 + [4], [-1, 1], [-2, 0, 2],
                [1, 1, -1, 3], [3] * 150 + [1] * 150, [150] * 151 + [0] * 149,
                [150] * 150 + [1] * 150, [299] * 2 + [2] * 298, [1] * 299 + [3])
    rng = random.Random(2003)
    for _ in range(2400):
        n = rng.randint(1, 300) if rng.random() < 0.05 else rng.randint(1, 40)
        kind = rng.randrange(4)
        if kind == 0:  # uniform entries, below 0 and above n - 1 included
            lo, hi = rng.choice([(-2, n + 2), (0, n - 1), (0, n // 2)])
            entries = [rng.randint(lo, hi) for _ in range(n)]
        elif kind == 1:  # degrees of G(n, p)
            entries = [0] * n
            p = rng.random()
            for u in range(n):
                for v in range(u):
                    if rng.random() < p:
                        entries[u] += 1
                        entries[v] += 1
        elif kind == 2:  # an even sum, then one unit moved between two entries
            entries = sorted(rng.choice([0, n - 1]) if rng.random() < 0.2 else
                             rng.randint(0, n - 1) for _ in range(n))
            if sum(entries) % 2:
                entries[0] += 1
            i, j = rng.randrange(n), rng.randrange(n)
            entries[i] += 1
            entries[j] -= 1
        else:  # long runs of a few values
            entries = []
            while len(entries) < n:
                entries += [rng.randint(-1, n)] * rng.randint(1, n)
            entries = entries[:n]
        yield entries


def test_is_graphical_matches_references():
    lists = list(reference_lists())
    assert len(lists) >= 2000 and max(map(len, lists)) == 300
    outcomes = set()
    for entries in lists:
        got = is_graphical(tuple(entries))
        assert got == quadratic_erdos_gallai(entries), entries
        if min(entries) >= 0:
            assert got == havel_hakimi(entries), entries
        outcomes.add((got, min(entries) >= 0))
    assert {(True, True), (False, True), (False, False)} <= outcomes
