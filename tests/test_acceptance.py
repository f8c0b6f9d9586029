"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Everything here is exact (integer or Fraction comparisons); the sweep
criteria read their cells of the one shared labeled-graph sweep
(``conftest.sweep``), which judges each distinct degree multiset once.
"""

import random
from fractions import Fraction

from conftest import all_valid_sequences, random_condition, random_majorizing_pair, random_valid_sequence, sweep
from toughseq.checkers import (
    check_hamiltonian_chvatal,
    check_kconnected,
    check_tough_ge1,
    check_tough_le1,
    tough_ge1_conditions,
)
from toughseq.conditions import blocking_condition, canonicalize, equivalent, frontier_sequence
from toughseq.graphs import Graph, ToughnessResult, clique, empty_graph, join, toughness, union
from toughseq.partitions import claim4_identity, count_partitions, enumerate_partitions, partition_function
from toughseq.sequences import DegreeSequence
from toughseq.subposet import subposet_report


def _report(num, name, ok, detail=""):
    print(f"criterion {num:>2} ({name}): {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_chvatal_soundness_n6():
    bad = sweep(6)[1][check_hamiltonian_chvatal, None]
    _report(1, "Chvatal soundness, all 2^15 graphs on 6 vertices", not bad, str(bad[:3]))


def test_criterion_2_bondy_boesch_soundness_n6():
    bad = [(key, mask, k) for k in (1, 2, 3) for key, mask in sweep(6)[1][check_kconnected, k]]
    _report(2, "Bondy-Boesch soundness, n=6, k in {1,2,3}", not bad, str(bad[:3]))


def test_criterion_3_constructive_weak_optimality():
    bad = []
    for t in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)):
        ceil_t = -(-t.numerator // t.denominator)
        for n in range(ceil_t + 2, 13):
            for i, _ in tough_ge1_conditions(t, n):
                b = i * t.denominator // t.numerator
                g = join(clique(i), union(empty_graph(b), clique(n - i - b)))
                blocking = DegreeSequence([i] * b + [n - b - 1] * (n - i - b) + [n - 1] * i)
                # tau = i/(b+1) < t, first attained by the join clique, leaving b + 1 components
                result = toughness(g)
                expected = ToughnessResult(Fraction(i, b + 1), tuple(range(i)), b + 1)
                if not (result == expected and result.value < t and g.degree_sequence() == blocking):
                    bad.append((t, n, i, result))
    _report(3, "blocking graphs: exact tau = i/(b+1) < t, witness, degrees match", not bad, str(bad[:3]))


def test_criterion_4_tough_ge1_soundness_oracle():
    bad = [(p, q, n, key, mask) for p, q, n in [(1, 1, 6), (2, 1, 6), (1, 1, 7)]
           for key, mask in sweep(n)[1][check_tough_ge1, Fraction(p, q)]]
    _report(4, "t>=1 checker soundness vs exact toughness, t in {1,2}, n up to 7",
            not bad, str(bad[:3]))


def test_criterion_5_tough_le1_soundness_and_reduction():
    bad = [(t, n, key, mask) for t in (Fraction(1, 2), Fraction(1, 3)) for n in range(t.denominator + 2, 7)
           for key, mask in sweep(n)[1][check_tough_le1, t]]
    ok_sweep = not bad

    rng = random.Random(55)
    mismatches = 0
    for _ in range(10_000):
        q = rng.randint(1, 8)
        p = rng.randint(1, q)
        t = Fraction(p, q)
        k = q // p
        n = rng.randint(k + 2, 20)
        seq = random_valid_sequence(rng, n)
        a = check_tough_le1(seq, t, allow_nongraphical=True)
        b = check_tough_le1(seq, Fraction(1, k), allow_nongraphical=True)
        if (a.declared, a.failing_index, a.failing_rule) != (
                b.declared, b.failing_index, b.failing_rule):
            mismatches += 1
    _report(5, "t<=1 checker soundness (sweep) and t vs 1/floor(1/t) agreement",
            ok_sweep and mismatches == 0,
            f"sweep violations {bad[:3]}, mismatches {mismatches}")


def test_criterion_6_sink_bound_reproduction():
    problems = []
    for k, want in ((2, 2), (3, 4)):
        rep = subposet_report(k, n=9 * (k + 1))
        if rep.bound != Fraction(9 * partition_function(k - 1), 5):
            problems.append((k, "bound formula", rep.bound))
        if rep.sink_count < want:
            problems.append((k, "sink count", rep.sink_count))
        if not rep.bound_holds:
            problems.append((k, "bound violated", rep.sink_count, rep.bound))
        if not rep.counts_match:
            problems.append((k, "group counts"))
        for grp in rep.groups:
            expected = count_partitions((k + 1) * (9 - grp.j) - 1, max_parts=k * grp.j + 1)
            if grp.count != expected:
                problems.append((k, grp.j, grp.count, expected))
        if not (rep.claim2 and rep.claim3):
            problems.append((k, "claims", rep.claim2, rep.claim3))
    _report(6, "sink bounds at m=9 for k=2 (>=2) and k=3 (>=4), claims verified",
            not problems, str(problems[:4]))


def test_criterion_6b_sink_count_trend():
    reports = [subposet_report(k, n=9 * (k + 1)) for k in (2, 3, 4)]
    counts = [rep.sink_count for rep in reports]
    claims = all(rep.claim2 and rep.claim3 for rep in reports)
    _report("6b", "sink counts strictly increase over k in {2,3,4} at m=9, claims verified",
            counts[0] < counts[1] < counts[2] and claims, f"{counts}, claims {claims}")


def test_criterion_7_claim4_identity():
    bad = [(k, big_n) for k in range(1, 7) for big_n in range(2 * k + 1, 61)
           if not claim4_identity(k, big_n)]
    ok_counts = not bad

    # cross-check the big-integer counts against explicit enumeration
    enum_bad = []
    for big_n in range(0, 31):
        if len(enumerate_partitions(big_n)) != partition_function(big_n):
            enum_bad.append(big_n)
        for k in range(1, 7):
            if big_n - k >= 0:
                if len(enumerate_partitions(big_n, max_parts=big_n - k)) != \
                        count_partitions(big_n, max_parts=big_n - k):
                    enum_bad.append((big_n, k))
    _report(7, "largest-part identity for k<=6, N<=60, enumeration-checked to 30",
            ok_counts and not enum_bad, f"{bad[:3]} {enum_bad[:3]}")


def test_criterion_8_duality():
    bad = []
    for n in range(1, 6):
        for seq in all_valid_sequences(n):
            if frontier_sequence(blocking_condition(seq)) != seq:
                bad.append(tuple(seq))
    rng = random.Random(88)
    for _ in range(1000):
        n = rng.randint(1, 30)
        seq = random_valid_sequence(rng, n)
        if frontier_sequence(blocking_condition(seq)) != seq:
            bad.append(tuple(seq))
    for _ in range(1000):
        n = rng.randint(1, 30)
        cond = canonicalize(random_condition(rng, n))
        if not equivalent(blocking_condition(frontier_sequence(cond)), cond):
            bad.append(cond)
    _report(8, "Pi(C(pi)) = pi and C(Pi(c)) ~ c", not bad, str(bad[:3]))


def test_criterion_9_monotonicity_of_checkers():
    rng = random.Random(99)
    checkers = {
        "hamiltonian": (3, lambda s: check_hamiltonian_chvatal(s).declared),
        "kconnected": (3, None),  # k drawn per pair below
        "tough_ge1": (4, None),   # t drawn per pair below
        "tough_le1": (3, None),
    }
    bad = []
    for name, (n_min, fixed) in checkers.items():
        for _ in range(10_000):
            n = rng.randint(max(n_min, 4), 14)
            lo, hi = random_majorizing_pair(rng, n)
            if name == "hamiltonian":
                fn = fixed
            elif name == "kconnected":
                k = rng.randint(1, n - 1)
                fn = lambda s, k=k: check_kconnected(s, k).declared
            elif name == "tough_ge1":
                t = rng.choice((Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)))
                if n < -(-t.numerator // t.denominator) + 2:
                    continue
                fn = lambda s, t=t: check_tough_ge1(s, t).declared
            else:
                t = rng.choice((Fraction(1), Fraction(1, 2), Fraction(1, 3)))
                if n < t.denominator // t.numerator + 2:
                    continue
                fn = lambda s, t=t: check_tough_le1(s, t).declared
            if fn(lo) and not fn(hi):
                bad.append((name, tuple(lo), tuple(hi)))
    _report(9, "monotonicity on 10k majorization pairs per checker", not bad, str(bad[:2]))


def test_criterion_10_toughness_spot_values():
    bad = []
    for n in range(1, 9):
        if toughness(clique(n)).value != n - 1:
            bad.append(("K", n))
    for n in range(4, 11):
        c_n = Graph(n, [(i, (i + 1) % n) for i in range(n)])
        if toughness(c_n).value != 1:
            bad.append(("C", n))
    for n in range(3, 11):
        p_n = Graph(n, [(i, i + 1) for i in range(n - 1)])
        if toughness(p_n).value != Fraction(1, 2):
            bad.append(("P", n))
    if toughness(join(clique(2), union(empty_graph(2), clique(2)))).value != Fraction(2, 3):
        bad.append("K2+(K~2 u K2)")
    _report(10, "toughness spot values exact", not bad, str(bad))
