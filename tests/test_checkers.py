import random
from fractions import Fraction

import pytest

from conftest import _walk, random_majorizing_pair, sweep
from toughseq.checkers import (
    check_hamiltonian_chvatal,
    check_kconnected,
    check_tough_ge1,
    check_tough_le1,
    hamiltonian_conditions,
    parse_rational,
    tough_ge1_conditions,
    tough_le1_conditions,
)
from toughseq.conditions import ChvatalCondition, equivalent
from toughseq.graphs import Graph, is_hamiltonian, is_t_tough, toughness
from toughseq.sequences import DegreeSequence, NotGraphicalError, parse_sequence


def test_parse_rational():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("2") == Fraction(2)
    assert parse_rational(" 10/4 ") == Fraction(5, 2)
    for bad in ("1.5", "-1", "3/0", "a/b", "1/2/3", ""):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_hamiltonian_examples():
    v = check_hamiltonian_chvatal(DegreeSequence((1, 3, 3, 3, 4)))
    assert not v.declared
    assert v.failing_index == 1
    assert v.blocking_sequence == (1, 3, 3, 3, 4)
    assert v.blocking_shape == (1, 1, 3)
    assert v.blocking_graph.degree_sequence() == v.blocking_sequence

    assert check_hamiltonian_chvatal(DegreeSequence((4, 4, 4, 4, 4))).declared

    # C_5's sequence: the checker is sound, not complete, so 2^5 is not declared
    v = check_hamiltonian_chvatal(DegreeSequence((2, 2, 2, 2, 2)))
    assert not v.declared
    assert v.failing_index == 2


def test_hamiltonian_errors():
    with pytest.raises(ValueError):
        check_hamiltonian_chvatal(DegreeSequence((1, 1)))
    with pytest.raises(ValueError, match="hamiltonicity requires n >= 3"):
        hamiltonian_conditions(2)
    with pytest.raises(NotGraphicalError):
        check_hamiltonian_chvatal(DegreeSequence((1, 3, 3, 3)))
    # non-graphical sequences can be judged once allowed (weak-optimality
    # machinery quantifies over them); (1,3,3,3) meets d_3 >= 3
    v = check_hamiltonian_chvatal(DegreeSequence((1, 3, 3, 3)), allow_nongraphical=True)
    assert v.declared


def test_kconnected_examples():
    v = check_kconnected(DegreeSequence((1, 1, 2, 2, 2)), 1)
    assert not v.declared and v.failing_index == 2
    assert check_kconnected(DegreeSequence((1, 2, 2, 2, 3)), 1).declared
    assert check_kconnected(DegreeSequence((4, 4, 4, 4, 4)), 2).declared
    for bad_k in (0, 5, 9):
        with pytest.raises(ValueError):
            check_kconnected(DegreeSequence((4, 4, 4, 4, 4)), bad_k)


def test_kconnected_condition_ranges():
    from toughseq.checkers import kconnected_conditions

    assert [i for i, _ in kconnected_conditions(5, 1)] == [1, 2]  # i <= (n-k+1)/2
    assert [i for i, _ in kconnected_conditions(5, 2)] == [1, 2]
    assert [i for i, _ in kconnected_conditions(5, 4)] == [1]
    cond = dict(kconnected_conditions(6, 2))[2]
    assert cond.clauses == ((2, 3), (5, 4))  # d_2 >= 3 or d_5 >= 4


def test_tough_ge1_examples():
    v = check_tough_ge1(parse_sequence("2^2 3^3 5"), 1)
    assert not v.declared and v.failing_index == 2
    assert v.blocking_sequence == parse_sequence("2^2 3^2 5^2")
    assert v.blocking_shape == (2, 2, 2)
    g = v.blocking_graph
    assert g.degree_sequence() == v.blocking_sequence
    assert toughness(g).value == Fraction(2, 3)

    assert check_tough_ge1(DegreeSequence([7] * 8), 2).declared
    with pytest.raises(ValueError):
        check_tough_ge1(DegreeSequence((2, 2, 2)), Fraction(1, 2))
    with pytest.raises(ValueError):
        check_tough_ge1(DegreeSequence((2, 2, 2)), 2)  # n < ceil(t) + 2


def test_tough_ge1_reduces_to_chvatal_at_t1():
    # Chvatal's list as he states it: d_i >= i+1 or d_{n-i} >= n-i, for i < n/2
    for n in range(3, 21):
        chvatal = [(i, ChvatalCondition(n, ((i, i + 1), (n - i, n - i))))
                   for i in range(1, (n - 1) // 2 + 1)]
        for listed in (hamiltonian_conditions(n), tough_ge1_conditions(1, n)):
            assert [i for i, _ in listed] == [i for i, _ in chvatal]
            assert all(equivalent(c1, c2) for (_, c1), (_, c2) in zip(listed, chvatal))


def test_tough_ge1_condition_ranges():
    assert [i for i, _ in tough_ge1_conditions(2, 8)] == [2, 3, 4, 5]
    assert [i for i, _ in tough_ge1_conditions(1, 6)] == [1, 2]
    assert [i for i, _ in tough_ge1_conditions(Fraction(5, 2), 5)] == [3]
    assert [i for i, _ in tough_ge1_conditions(Fraction(3, 2), 4)] == [2]


def test_tough_le1_examples():
    assert check_tough_le1(DegreeSequence((4, 4, 4, 4, 4)), Fraction(1, 2)).declared
    v = check_tough_le1(DegreeSequence((1, 1, 2, 2, 2)), Fraction(1, 2))
    assert not v.declared
    assert v.failing_rule == "ii" and v.failing_index == 2
    assert v.blocking_sequence is None
    assert check_tough_le1(parse_sequence("2^2 3^3 5"), Fraction(1, 2)).declared
    with pytest.raises(ValueError):
        check_tough_le1(DegreeSequence((2, 2, 2)), Fraction(3, 2))
    with pytest.raises(ValueError):
        check_tough_le1(DegreeSequence((1, 1)), Fraction(1, 2))  # n < k + 2


def test_tough_le1_depends_only_on_floor_inverse():
    rng = random.Random(31)
    for _ in range(400):
        q = rng.randint(1, 8)
        p = rng.randint(1, q)
        t = Fraction(p, q)
        k = q // p
        n = rng.randint(k + 2, 16)
        seq = DegreeSequence(sorted(rng.randrange(n) for _ in range(n)))
        a = check_tough_le1(seq, t, allow_nongraphical=True)
        b = check_tough_le1(seq, Fraction(1, k), allow_nongraphical=True)
        assert (a.declared, a.failing_index, a.failing_rule) == (
            b.declared, b.failing_index, b.failing_rule)


def test_tough_le1_condition_validity():
    for k in (1, 2, 3):
        t = Fraction(1, k)
        for n in range(k + 2, 15):
            rules = tough_le1_conditions(t, n)
            assert {r for r, _, _ in rules} == {"i", "ii"}


def test_blocking_construction_is_non_tough_witness():
    # sampled; the acceptance suite runs the full grid
    for t in (1, Fraction(3, 2), 2):
        for n in range(int(t) + 3, 11):
            for i, _ in tough_ge1_conditions(t, n):
                b = i * t.denominator // t.numerator
                from toughseq.graphs import clique, empty_graph, join, union

                g = join(clique(i), union(empty_graph(b), clique(n - i - b)))
                assert not is_t_tough(g, t)


def test_blocking_sequence_majorizes_failing_input():
    from toughseq.sequences import majorizes

    rng = random.Random(77)
    found = 0
    while found < 200:
        n = rng.randint(5, 12)
        seq = DegreeSequence(sorted(rng.randrange(n) for _ in range(n)))
        for t in (1, Fraction(3, 2), 2):
            if n < -(-t.numerator // t.denominator) + 2:
                continue
            v = check_tough_ge1(seq, t, allow_nongraphical=True)
            if not v.declared:
                assert majorizes(v.blocking_sequence, seq)
                assert v.blocking_graph.degree_sequence() == v.blocking_sequence
                found += 1
        v = check_hamiltonian_chvatal(seq, allow_nongraphical=True)
        if not v.declared:
            assert majorizes(v.blocking_sequence, seq)
            found += 1


def test_monotonicity_samples():
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randint(5, 12)
        lo, hi = random_majorizing_pair(rng, n)
        if check_hamiltonian_chvatal(lo).declared:
            assert check_hamiltonian_chvatal(hi).declared
        k = rng.randint(1, n - 1)
        if check_kconnected(lo, k).declared:
            assert check_kconnected(hi, k).declared
        if check_tough_ge1(lo, Fraction(3, 2)).declared:
            assert check_tough_ge1(hi, Fraction(3, 2)).declared
        if check_tough_le1(lo, Fraction(1, 2)).declared:
            assert check_tough_le1(hi, Fraction(1, 2)).declared


def test_soundness_against_sweep_oracle():
    # no checker declares a sequence having a realization without the property;
    # exhaustive over labeled graphs at n <= 6 for all four checkers and at
    # n = 7 for toughness with t in {1/2, 1/3, 1}, in the cells of conftest.CELLS
    for n in range(2, 8):
        for cell, bad in sweep(n)[1].items():
            assert not bad, (n, cell, bad[:3])


def test_sweep_reports_a_checker_that_declares_everything():
    # the negative path: a cell whose checker declares every multiset is caught
    _, bad = _walk(4, {"all": (lambda seq: True,
                               lambda mask, rows: is_hamiltonian(Graph.from_rows(4, rows)))})
    assert ((0, 0, 0, 0), 0) in bad["all"]
    assert ((3, 3, 3, 3), 63) not in bad["all"]


def test_verdict_json_shape():
    v = check_tough_ge1(parse_sequence("2^2 3^3 5"), 1)
    data = v.to_json()
    assert data["declared"] is False
    assert data["failing_index"] == 2
    assert data["blocking_sequence"] == [2, 2, 3, 3, 5, 5]
    assert data["blocking_graph_spec"]["join_clique"] == 2
    assert data["blocking_graph_spec"]["graph"]["n"] == 6
    assert len(data["conditions"]) == 2
    declared = check_tough_ge1(DegreeSequence([7] * 8), 2).to_json()
    assert declared["declared"] is True and declared["blocking_sequence"] is None
