import importlib
import pkgutil
import random

import pytest

from conftest import all_valid_sequences, random_condition, random_valid_sequence
from toughseq.conditions import (
    ChvatalCondition,
    blocking_condition,
    canonicalize,
    equivalent,
    evaluate,
    format_condition,
    frontier_sequence,
    parse_condition,
)
from toughseq.sequences import DegreeSequence, majorizes, parse_sequence


def cond(text, n):
    return parse_condition(text, n)


def test_constructor_validates():
    with pytest.raises(ValueError):
        ChvatalCondition(6, ((2, 3), (2, 4)))  # duplicate index
    with pytest.raises(ValueError):
        ChvatalCondition(6, ((3, 4), (2, 4)))  # indices not increasing
    with pytest.raises(ValueError):
        ChvatalCondition(6, ((2, 4), (5, 3)))  # thresholds decreasing
    with pytest.raises(ValueError):
        ChvatalCondition(6, ((2, 0),))  # threshold below 1
    with pytest.raises(ValueError):
        ChvatalCondition(6, ((7, 3),))  # index beyond n
    with pytest.raises(ValueError):
        ChvatalCondition(6, ((2, 7),))  # threshold beyond n


def test_evaluate_examples():
    c = cond("d2>=3 | d5>=4", 6)
    assert not evaluate(c, parse_sequence("2^2 3^3 5"))
    assert evaluate(c, DegreeSequence((2, 3, 3, 3, 3, 5)))
    assert evaluate(c, DegreeSequence((2, 2, 3, 3, 4, 5)))
    assert not evaluate(ChvatalCondition(3, ()), DegreeSequence((2, 2, 2)))
    with pytest.raises(ValueError):
        evaluate(c, DegreeSequence((1, 1)))


def test_canonicalize_worked_example():
    raw = ChvatalCondition(6, ((1, 3), (2, 3), (3, 4), (4, 4), (5, 4), (6, 6)))
    assert canonicalize(raw) == cond("d2>=3 | d5>=4", 6)


def test_canonicalize_idempotent_and_degenerate():
    c = cond("d2>=3 | d5>=4", 6)
    assert canonicalize(c) == c
    assert canonicalize(ChvatalCondition(4, ((1, 4),))) == ChvatalCondition(4, ())


def test_canonicalize_preserves_evaluate_exhaustively():
    rng = random.Random(23)
    for n in range(1, 6):
        seqs = list(all_valid_sequences(n))
        for _ in range(40):
            c = random_condition(rng, n)
            canon = canonicalize(c)
            # reference rule: the largest index per threshold below n, sorted
            largest = {}
            for i, k in c.clauses:
                if k < n:
                    largest[k] = max(i, largest.get(k, 0))
            assert canon == ChvatalCondition(n, sorted((i, k) for k, i in largest.items()))
            assert frontier_sequence(c) == frontier_sequence(canon)
            for seq in seqs:
                assert evaluate(c, seq) == evaluate(canon, seq)


def test_equivalent_examples():
    raw = ChvatalCondition(6, ((1, 3), (2, 3), (3, 4), (4, 4), (5, 4), (6, 6)))
    assert equivalent(raw, cond("d2>=3 | d5>=4", 6))
    c = cond("d2>=3", 6)
    assert equivalent(c, c)
    assert not equivalent(cond("d2>=3", 6), cond("d2>=4", 6))
    # a witness separating the two conditions
    witness = DegreeSequence((1, 3, 3, 3, 3, 3))
    assert evaluate(cond("d2>=3", 6), witness) != evaluate(cond("d2>=4", 6), witness)
    with pytest.raises(ValueError):
        equivalent(cond("d2>=3", 6), cond("d2>=3", 5))


def test_equivalent_matches_semantic_agreement_exhaustively():
    # n = 4: every canonical condition, pairwise, against every 4-sequence
    n = 4
    seqs = list(all_valid_sequences(n))
    conds = [ChvatalCondition(n, ())]
    for i1 in range(1, n + 1):
        for k1 in range(1, n):
            conds.append(ChvatalCondition(n, ((i1, k1),)))
            for i2 in range(i1 + 1, n + 1):
                for k2 in range(k1 + 1, n):
                    conds.append(ChvatalCondition(n, ((i1, k1), (i2, k2))))
    for c1 in conds:
        for c2 in conds:
            semantic = all(evaluate(c1, s) == evaluate(c2, s) for s in seqs)
            assert equivalent(c1, c2) == semantic


def test_blocking_condition_examples():
    assert blocking_condition(parse_sequence("2^2 3^3 5")) == cond("d2>=3 | d5>=4", 6)
    assert blocking_condition(DegreeSequence((3, 3, 3, 3))) == ChvatalCondition(4, ())
    assert blocking_condition(DegreeSequence((0, 0, 0))) == cond("d3>=1", 3)
    # reference rule: canonicalize the raw condition d_j >= pi_j + 1 over every j with pi_j < n
    rng = random.Random(31)
    seqs = [seq for n in range(1, 9) for seq in all_valid_sequences(n)]
    seqs += [random_valid_sequence(rng, rng.randint(1, 60)) for _ in range(20_000)]
    for seq in seqs:
        n = len(seq)
        raw = ChvatalCondition(n, [(j, d + 1) for j, d in enumerate(seq, 1) if d + 1 <= n])
        assert blocking_condition(seq) == canonicalize(raw), seq


def test_frontier_examples():
    assert frontier_sequence(cond("d2>=3 | d5>=4", 6)) == parse_sequence("2^2 3^3 5")
    assert frontier_sequence(ChvatalCondition(4, ())) == (3, 3, 3, 3)
    # non-canonical clauses expand to the same sequence as their canonical form
    raw = ChvatalCondition(6, ((1, 3), (2, 3), (3, 4), (4, 4), (5, 4), (6, 6)))
    assert frontier_sequence(raw) == parse_sequence("2^2 3^3 5")


def test_frontier_violates_and_dominates_violators():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 10)
        c = canonicalize(random_condition(rng, n))
        pi = frontier_sequence(c)
        assert not evaluate(c, pi)
        for _ in range(20):
            seq = random_valid_sequence(rng, n)
            if not evaluate(c, seq):
                assert majorizes(pi, seq)


def test_duality_round_trips():
    rng = random.Random(99)
    for n in range(1, 6):
        for seq in all_valid_sequences(n):
            assert frontier_sequence(blocking_condition(seq)) == seq
    for _ in range(300):
        n = rng.randint(1, 30)
        seq = random_valid_sequence(rng, n)
        assert frontier_sequence(blocking_condition(seq)) == seq
    for _ in range(300):
        n = rng.randint(1, 30)
        c = canonicalize(random_condition(rng, n))
        assert equivalent(blocking_condition(frontier_sequence(c)), c)


def test_blocking_is_anti_monotone():
    # a sequence violates C(pi) exactly when pi majorizes it
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(1, 12)
        pi = random_valid_sequence(rng, n)
        other = random_valid_sequence(rng, n)
        assert evaluate(blocking_condition(pi), other) == (not majorizes(pi, other))


def test_parse_and_format_condition():
    c = cond("d2>=3 | d5>=4", 6)
    assert format_condition(c) == "d2>=3 | d5>=4"
    assert parse_condition(format_condition(c), 6) == c
    assert parse_condition("false", 6) == ChvatalCondition(6, ())
    assert format_condition(ChvatalCondition(6, ())) == "false"
    with pytest.raises(ValueError):
        parse_condition("d2>3", 6)
    with pytest.raises(ValueError):
        parse_condition("d0>=1", 6)


def test_package_reexports_are_in_module_all():
    # the package's public names are the six library modules' __all__, plus submodules
    package = importlib.import_module("toughseq")
    submodules = {info.name for info in pkgutil.iter_modules(package.__path__)}
    library = [importlib.import_module(f"toughseq.{name}") for name in
               ("sequences", "conditions", "graphs", "partitions", "checkers", "subposet")]
    exported = set().union(*(module.__all__ for module in library))
    public = {name for name in vars(package) if not name.startswith("_")}
    assert public - submodules == exported
    # and every __all__ entry of every module exists
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"toughseq.{info.name}")
        absent = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert absent == [], info.name
