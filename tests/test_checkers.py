import random
from fractions import Fraction

import pytest

from conftest import _walk, random_condition, random_majorizing_pair, random_valid_sequence, sweep
from toughseq.checkers import (
    check_hamiltonian_chvatal,
    check_kconnected,
    check_tough_ge1,
    check_tough_le1,
    hamiltonian_conditions,
    kconnected_conditions,
    parse_rational,
    tough_ge1_conditions,
    tough_le1_conditions,
)
from toughseq.conditions import ChvatalCondition, blocking_condition, equivalent, evaluate
from toughseq.graphs import Graph, edge_pairs, is_hamiltonian, is_t_tough, toughness
from toughseq.sequences import DegreeSequence, NotGraphicalError, parse_sequence
from toughseq.subposet import is_weakly_optimal


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


def test_walk_visits_every_mask_in_the_library_format():
    # the tests' Gray walk indexes tough_mask_table, so each graph it hands over
    # must be Graph.from_mask(n, mask): a wrong bit order would pass silently.  holds
    # returns None, so bad also lists every graph, with its sorted degrees
    for n in range(1, 6):
        seen = []
        _, bad = _walk(n, {"all": (lambda seq: True,
                                   lambda mask, rows: seen.append((mask, tuple(rows))))})
        assert sorted(mask for mask, _ in seen) == list(range(1 << len(edge_pairs(n))))
        for (mask, rows), (degrees, bad_mask) in zip(seen, bad["all"]):
            g = Graph.from_mask(n, mask)
            assert (rows, degrees, bad_mask) == (g.rows, g.degree_sequence(), mask), (n, mask)


def test_plain_sequences_are_read_sorted():
    # clauses index the sorted entries, so a list in any order gets the answer of
    # its DegreeSequence; is_weakly_optimal reads each sink the same way
    assert not check_kconnected([2, 2, 1, 1], 2).declared  # P4 is not 2-connected
    assert not check_tough_ge1([5, 5, 3, 3, 2, 2], 1).declared
    assert not evaluate(ChvatalCondition(4, ((1, 2),)), [3, 1, 2, 2])
    assert str(blocking_condition([3, 1, 2, 2])) == "d1>=2 | d3>=3"
    with pytest.raises(ValueError, match="degree entries must lie in"):
        check_hamiltonian_chvatal([3, 0, 1])
    rng = random.Random(11)
    for n in range(3, 41):
        for _ in range(6):
            seq = random_valid_sequence(rng, n)
            shuffled = list(seq)
            rng.shuffle(shuffled)
            k = rng.randint(1, n - 1)
            t_ge1 = Fraction(rng.randint(2, 2 * n - 4), 2)
            t_le1 = Fraction(1, rng.randint(1, n - 2))
            cond = random_condition(rng, n)
            for call in (lambda s: check_hamiltonian_chvatal(s, allow_nongraphical=True),
                         lambda s: check_kconnected(s, k, allow_nongraphical=True),
                         lambda s: check_tough_ge1(s, t_ge1, allow_nongraphical=True),
                         lambda s: check_tough_le1(s, t_le1, allow_nongraphical=True),
                         lambda s: evaluate(cond, s),
                         blocking_condition,
                         lambda s: bool(is_weakly_optimal(cond, [s]))):
                assert call(shuffled) == call(seq), (n, shuffled, k, t_ge1, t_le1, cond)


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


def _assert_valid_as_built(indexed):
    for *_, c in indexed:
        assert type(c) is ChvatalCondition and c == ChvatalCondition(c.n, c.clauses), c


def test_condition_lists_are_valid_as_built():
    # the builders skip ChvatalCondition's range checks; their index ranges must
    # make every clause valid, which the validating constructor confirms here
    ge1 = [Fraction(1), Fraction(7, 6), Fraction(3, 2), Fraction(2), Fraction(5, 2),
           Fraction(3), Fraction(10)]
    le1 = [Fraction(1, 5), Fraction(1, 4), Fraction(2, 7), Fraction(1, 3), Fraction(1, 2),
           Fraction(2, 3), Fraction(1)]
    for n in range(2, 121):
        for k in range(1, n):
            _assert_valid_as_built(kconnected_conditions(n, k))
        if n >= 3:
            _assert_valid_as_built(hamiltonian_conditions(n))
        for t in ge1:
            if n >= -(-t.numerator // t.denominator) + 2:
                _assert_valid_as_built(tough_ge1_conditions(t, n))
        for t in le1:
            if n >= t.denominator // t.numerator + 2:
                _assert_valid_as_built(tough_le1_conditions(t, n))


def test_inline_scan_matches_evaluate():
    # each verdict names the first listed condition that evaluate() rejects, or none
    rng = random.Random(3636)
    outcomes = set()
    for trial in range(600):
        n = rng.randint(3, 80)
        lo = rng.randrange(n)
        seq = DegreeSequence([n - 1] * n if trial % 50 == 0 else
                             [rng.randint(lo, n - 1) for _ in range(n)])
        t_ge1 = rng.choice([t for t in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))
                            if n >= -(-t.numerator // t.denominator) + 2])
        t_le1 = rng.choice([t for t in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1))
                            if n >= t.denominator // t.numerator + 2])
        k = rng.randint(1, n - 1)
        cases = [
            (check_hamiltonian_chvatal(seq, allow_nongraphical=True), hamiltonian_conditions(n)),
            (check_kconnected(seq, k, allow_nongraphical=True), kconnected_conditions(n, k)),
            (check_tough_ge1(seq, t_ge1, allow_nongraphical=True), tough_ge1_conditions(t_ge1, n)),
            (check_tough_le1(seq, t_le1, allow_nongraphical=True), tough_le1_conditions(t_le1, n)),
        ]
        for name, (verdict, indexed) in zip(("ham", "kconn", "ge1", "le1"), cases):
            first = next((entry for entry in indexed if not evaluate(entry[-1], seq)), None)
            if first is None:
                want = (True, None, None)
            else:
                want = (False, first[-2], first[0] if len(first) == 3 else None)
            assert (verdict.declared, verdict.failing_index, verdict.failing_rule) == want, (
                name, seq)
            assert verdict.condition_set == tuple(entry[-1] for entry in indexed)
            outcomes.add((name, verdict.declared))
    assert len(outcomes) == 8


def test_float_t_raises_type_error():
    # Fraction(0.1) is the float's binary value, just above 1/10: each of these
    # entry points would silently answer for a different t
    from toughseq.graphs import (
        _terms, clique, edge_maximal_tough_sequences, empty_graph, join, tough_mask_table, union)
    from toughseq.subposet import family, family_size, sweep_sinks

    g = join(clique(1), union(empty_graph(9), clique(1)))  # tau = 1/10
    assert is_t_tough(g, Fraction(1, 10))  # the float read False
    assert [str(c) for i, c in tough_ge1_conditions(Fraction(11, 10), 30) if i == 11] == [
        "d10>=12 | d19>=20"]  # the float listed d9>=12 | d19>=21
    assert min(i for rule, i, _ in tough_le1_conditions(Fraction(1, 10), 14) if rule == "i") == 10
    assert list(_terms(12, Fraction(1, 10)))[-1] == (1, 11)  # the float ended at (1, 10)
    calls = [
        lambda: is_t_tough(g, 0.1),
        lambda: tough_ge1_conditions(1.1, 30),
        lambda: tough_le1_conditions(0.1, 14),
        lambda: list(_terms(12, 0.1)),
        lambda: list(family(12, 0.1)),
        lambda: family_size(12, 0.1, 10**6),
        lambda: sweep_sinks(12, 0.1),
        lambda: tough_mask_table(4, 0.5),
        lambda: edge_maximal_tough_sequences(4, 0.5),
        lambda: check_tough_ge1(DegreeSequence([4] * 6), 1.0),
        lambda: check_tough_le1(DegreeSequence([4] * 6), 0.5),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="not the float"):
            call()
