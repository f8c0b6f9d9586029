"""Shared generators for randomized tests (all seeded by the caller), and
the one exhaustive labeled-graph sweep that the soundness tests read."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

from toughseq.checkers import check_hamiltonian_chvatal, check_kconnected, check_tough_ge1, check_tough_le1
from toughseq.conditions import ChvatalCondition
from toughseq.graphs import Graph, is_hamiltonian, is_k_connected, iter_labeled_graphs, tough_mask_table
from toughseq.sequences import DegreeSequence, is_graphical


def all_valid_sequences(n):
    """Every nondecreasing n-sequence with entries in [0, n-1]."""
    for entries in combinations_with_replacement(range(n), n):
        yield DegreeSequence(entries)


def random_valid_sequence(rng, n) -> DegreeSequence:
    return DegreeSequence(rng.randrange(n) for _ in range(n))


def random_graphical_sequence(rng, n) -> DegreeSequence:
    while True:
        entries = [rng.randrange(n) for _ in range(n)]
        if sum(entries) % 2 == 1:
            i = rng.randrange(n)
            entries[i] += 1 if entries[i] < n - 1 else -1
        seq = DegreeSequence(entries)
        if is_graphical(seq):
            return seq


def random_majorizing_pair(rng, n):
    """A graphical pair (pi, pi2) with pi2 >= pi entry-wise.

    Raising entries of a multiset never lowers any position of the
    sorted sequence, so sorting after the bumps preserves dominance.
    """
    lo = random_graphical_sequence(rng, n)
    for _ in range(50):
        bumped = list(lo)
        for i in range(n):
            if rng.random() < 0.4:
                bumped[i] += rng.randint(0, n - 1 - bumped[i])
        if sum(bumped) % 2 == 1:
            i = max(range(n), key=lambda j: bumped[j] < n - 1)
            if bumped[i] < n - 1:
                bumped[i] += 1
            else:
                continue
        hi = DegreeSequence(bumped)
        if all(a >= b for a, b in zip(hi, lo)) and is_graphical(hi):
            return lo, hi
    return lo, lo


def random_condition(rng, n) -> ChvatalCondition:
    r = rng.randint(0, min(n, 4))
    indices = sorted(rng.sample(range(1, n + 1), r))
    thresholds = sorted(rng.randint(1, n) for _ in range(r))
    return ChvatalCondition(n, tuple(zip(indices, thresholds)))


# (checker, parameter, the n it is checked at): each cell asserts that no
# labeled graph whose degree multiset the checker declares lacks the property
CELLS = (
    (check_hamiltonian_chvatal, None, range(3, 7)),
    *((check_kconnected, k, range(k + 1, 7)) for k in (1, 2, 3)),
    (check_tough_ge1, Fraction(1), range(3, 8)),
    (check_tough_ge1, Fraction(2), range(6, 7)),
    (check_tough_le1, Fraction(1, 2), range(4, 8)),
    (check_tough_le1, Fraction(1, 3), range(5, 8)),
)


def _cell(checker, param, n):
    """(declares, holds): the checker's verdict on a multiset, and whether
    the labeled graph (mask, rows) on n vertices has the property."""
    if checker is check_hamiltonian_chvatal:
        return (lambda seq: checker(seq).declared,
                lambda mask, rows: is_hamiltonian(Graph.from_rows(n, rows)))
    if checker is check_kconnected:
        return (lambda seq: checker(seq, param).declared,
                lambda mask, rows: is_k_connected(Graph.from_rows(n, rows), param))
    table = tough_mask_table(n, param)
    return lambda seq: checker(seq, param).declared, lambda mask, rows: table[mask]


def _walk(n, cells):
    """Walk every labeled graph on n vertices once.

    cells maps a name to (declares, holds).  Each distinct degree
    multiset is judged once per cell, and holds runs only on graphs whose
    multiset was declared.  Returns the realized multisets and, per cell,
    the (multiset, mask) counterexamples in walk order.
    """
    declared_by = {}  # multiset -> [(name, holds)] of the cells declaring it
    # labeled degree vector -> declared_by[its multiset]: at n = 7, 111,850
    # vectors for 342 multisets, so most graphs skip the sort
    by_vector = {}
    bad = {name: [] for name in cells}
    for mask, rows, degs in iter_labeled_graphs(n):
        todo = by_vector.get(tuple(degs))
        if todo is None:
            key = tuple(sorted(degs))
            todo = declared_by.get(key)
            if todo is None:
                seq = DegreeSequence(key)
                todo = declared_by[key] = [(name, holds) for name, (declares, holds) in cells.items()
                                           if declares(seq)]
            by_vector[tuple(degs)] = todo
        for name, holds in todo:
            if not holds(mask, rows):
                bad[name].append((tuple(sorted(degs)), mask))
    return frozenset(declared_by), bad


@lru_cache(maxsize=None)
def sweep(n):
    """_walk over the cells of CELLS at n, named (checker, parameter)."""
    return _walk(n, {(checker, param): _cell(checker, param, n)
                     for checker, param, ns in CELLS if n in ns})
