import hashlib
import json
import random
from fractions import Fraction
from functools import reduce
from itertools import groupby
from math import lcm

import pytest

from toughseq.checkers import (
    check_tough_ge1,
    check_tough_le1,
    kconnected_conditions,
    tough_ge1_conditions,
)
from toughseq.conditions import (
    ChvatalCondition,
    blocking_condition,
    canonicalize,
    equivalent,
    evaluate,
    parse_condition,
)
from toughseq import subposet
from toughseq.cli import main
from toughseq.graphs import _terms, clique, is_k_connected, is_t_tough, join, union
from toughseq.sequences import DegreeSequence, majorizes, parse_sequence
from toughseq.subposet import (
    compute_sinks,
    edge_maximal_tough_sequences,
    enumerate_family,
    family,
    family_size,
    generate_best_monotone,
    is_weakly_optimal,
    subposet_report,
    sweep_sinks,
)


def test_family_k2_n27_group8():
    members = [parts for j, parts, _ in enumerate_family(2, 27) if j == 8]
    assert members == [
        tuple([1] * 16 + [3]),
        tuple([1] * 15 + [2, 2]),
    ]


def test_family_k1_n4():
    members = enumerate_family(1, 4)
    assert len(members) == 1
    j, parts, degrees = members[0]
    assert (j, parts) == (1, (1, 2))
    assert degrees == (1, 2, 2, 3)
    assert join(clique(j), reduce(union, map(clique, parts))).degree_sequence() == degrees


def test_family_k2_n5():
    members = enumerate_family(2, 5)
    assert len(members) == 1
    j, parts, degrees = members[0]
    assert (j, parts) == (1, (1, 1, 2))
    assert degrees == (1, 1, 2, 2, 4)


def test_family_structure_invariants():
    rng = random.Random(10)
    for _ in range(20):
        k = rng.randint(1, 3)
        n = rng.randint(k + 2, 14)
        members = enumerate_family(k, n)
        seen = set()
        for j, parts, degrees in members:
            assert len(parts) == k * j + 1
            assert sum(parts) == n - j
            assert all(c >= 1 for c in parts)
            assert j * (k + 1) < n
            # exactly j complete degrees
            assert sum(1 for d in degrees if d == n - 1) == j
            assert degrees not in seen
            seen.add(degrees)
            if n <= 10:
                g = join(clique(j), reduce(union, map(clique, parts)))
                assert g.degree_sequence() == degrees
                assert not is_t_tough(g, Fraction(1, k))
    assert enumerate_family(3, 4) == []  # too small: empty, not an error
    with pytest.raises(ValueError, match="k must be >= 1"):
        enumerate_family(0, 5)


def test_family_members_are_edge_maximal():
    # each realization is edge-maximally non-(1/k)-tough per the sweep
    for k, n in [(1, 5), (1, 6), (2, 6)]:
        family_seqs = {degrees for _, _, degrees in enumerate_family(k, n)}
        swept = set(edge_maximal_tough_sequences(n, Fraction(1, k)))
        complete_degree_swept = {s for s in swept if s[-1] == n - 1}
        assert family_seqs == complete_degree_swept


ORACLE_TS = [Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(2, 3),
             Fraction(3, 4), Fraction(1), Fraction(4, 3), Fraction(3, 2), Fraction(2),
             Fraction(5, 2), Fraction(3), Fraction(7)]


def test_family_sinks_equal_sweep_sinks():
    # the closed-form family has the same sinks as the exhaustive labeled-graph sweep
    swept = {(n, t): edge_maximal_tough_sequences(n, t) for n in range(1, 8) for t in ORACLE_TS}
    cases = [(n, t) for n in range(1, 7) for t in ORACLE_TS] + [(7, Fraction(1, 2)), (7, Fraction(1))]
    for n, t in cases:
        assert sweep_sinks(n, t) == tuple(compute_sinks(swept[n, t])), (n, t)
    # the edge-maximal sequences themselves, pinned from the mask-at-a-time scan
    doc = [[n, str(t), [list(s) for s in seqs]] for (n, t), seqs in swept.items()]
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == (
        "0458ccd1c122db672a93063c147f4226cd62f1dde3674a1b057fa7cf89fef951")


def test_family_members_are_not_t_tough():
    for n in range(1, 9):
        for t in ORACLE_TS:
            members = list(family(n, t))
            assert family_size(n, t, 10**6) == family_size(n, t, len(members)) == len(members)
            assert family_size(n, t, len(members) - 1) is None
            assert [(x, parts) for x, parts, _ in members] == sorted(
                {(x, parts) for x, parts, _ in members})
            for x, parts, degrees in members:
                assert sum(parts) + x == n and list(parts) == sorted(parts)
                g = reduce(union, map(clique, parts))
                if x:
                    g = join(clique(x), g)
                assert g.degree_sequence() == degrees
                assert not is_t_tough(g, t), (n, t, x, parts)
    assert list(family(1, Fraction(1, 3))) == [(0, (1,), (0,))]  # tau(K_1) = 0
    assert [m[:2] for m in family(3, 3)] == [(0, (1, 2)), (1, (1, 1)), (2, (1,))]
    for n, t in [(0, 1), (-3, 1), (4, 0), (4, Fraction(-1, 2))]:
        with pytest.raises(ValueError):
            list(family(n, t))
        with pytest.raises(ValueError):
            family_size(n, t, 100)


def test_family_size_is_bounded_work_at_any_n():
    # the x = 0 term alone has floor(n/2) members; larger terms are bounded before counting
    assert family_size(10**9, 1, 200_000) is None
    assert family_size(20_000, Fraction(1, 1000), 200_000) is None
    assert family_size(400_000, Fraction(1, 10**9), 200_000) == 200_000
    assert family_size(40, 1, 200_000) == 7264 and len(sweep_sinks(40, 1)) == 19
    for n in (20, 31):
        for t in ORACLE_TS:  # the pre-count bounds never refuse a family that fits
            size = sum(1 for _ in family(n, t))
            assert family_size(n, t, size) == size and family_size(n, t, size - 1) is None
    assert family_size(60, Fraction(1, 2), 200_000) == 174_397
    assert family_size(61, Fraction(1, 2), 10**6) == 201_571


def test_best_monotone_equals_star_at_t1_past_the_sweep():
    # at t = 1 the sink theorem is the paper's condition list, far beyond n = 7
    for n in range(3, 31):
        conds = generate_best_monotone(sweep_sinks(n, 1))
        assert set(conds) == {canonicalize(c) for _, c in tough_ge1_conditions(1, n)}, n


def test_paper_theorems_declare_no_sink_past_the_sweep():
    # every sink is the degree sequence of a non-t-tough graph: a sound theorem declares none
    for t in (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)):
        for n in range(t.denominator // t.numerator + 2, 26):
            for sink in sweep_sinks(n, t):
                assert not check_tough_le1(sink, t).declared, (t, n, sink)


# distinct best monotone theorems over all t > 0 at n, as ROADMAP item 11 counts them
T_AXIS_THEOREMS = {7: 15, 12: 41, 20: 119}


def test_t_axis_one_theorem_per_term_list():
    # w = max(2, floor(x/t) + 1) moves only where floor(x/t) does, and floor(x/t) = q on
    # (x/(q + 1), x/q]; q >= n gives x + w > n.  So _terms(n, t) is constant on each (a, b]
    # between adjacent breakpoints x/q (1 <= x < n, 1 <= q <= n; n - 1 is one of them), and
    # on (n - 1, inf), where w = 2 and n - 1 < t closes the list
    for n in range(2, 21):
        ends = sorted({Fraction(x, q) for x in range(1, n) for q in range(1, n + 1)})
        axis = []  # (terms, a t inside) per interval, in increasing t
        for a, b in zip([Fraction(0), *ends], ends):
            terms = list(_terms(n, b))
            assert list(_terms(n, (a + b) / 2)) == terms, (n, a, b)
            axis.append((terms, b))
        terms = list(_terms(n, n - Fraction(1, 2)))
        assert list(_terms(n, n)) == list(_terms(n, n * n)) == terms, n
        axis.append((terms, Fraction(n)))
        # each distinct list occupies one run of adjacent intervals
        runs = [next(interval) for _, interval in groupby(axis, key=lambda it: it[0])]
        assert len({tuple(terms) for terms, _ in runs}) == len(runs), n
        # distinct lists give distinct theorems: seen for n = 2..20, not a proved claim
        theorems = {sweep_sinks(n, t) for _, t in runs}
        assert len(theorems) == len(runs), n
        assert T_AXIS_THEOREMS.get(n, len(runs)) == len(runs), n


@pytest.mark.parametrize("t, redundant", [
    (Fraction(1), 0), (Fraction(4, 3), 30), (Fraction(3, 2), 46), (Fraction(2), 84),
    (Fraction(7, 3), 88), (Fraction(5, 2), 96), (Fraction(3), 115),
], ids=str)
def test_tough_ge1_theorem_is_sound_and_weakly_optimal(t, redundant):
    # the t >= 1 theorem declares no sink, and each of its conditions is weakly
    # optimal; `redundant` pins how many of them, summed over n, are not sink conditions
    found = 0
    for n in range(-(-t.numerator // t.denominator) + 2, 26):
        sinks = sweep_sinks(n, t)
        for sink in sinks:
            assert not check_tough_ge1(sink, t).declared, (t, n, sink)
        best = set(generate_best_monotone(sinks))
        for _, cond in tough_ge1_conditions(t, n):
            assert is_weakly_optimal(cond, sinks), (t, n, cond)
            found += canonicalize(cond) not in best
    assert found == redundant


def test_family_slices_stream_to_the_sinks():
    # slice x of family(n, t): the members with x complete vertices
    for n in range(1, 21):
        for t in ORACLE_TS:
            slices = {}
            for x, parts, degrees in family(n, t):
                slices.setdefault(x, []).append((parts, degrees))
            xs = sorted(slices)
            # (a) no member of a lower slice majorizes a member of a higher one
            for i, lower in enumerate(xs):
                for higher in xs[i + 1:]:
                    for _, a in slices[lower]:
                        assert not any(majorizes(a, b) for _, b in slices[higher]), (n, t, a)
            # (b) each part of size c adds c * L/c = L to the potential of the
            # n - x noncomplete entries, so a slice is an antichain of distinct members
            for x, members in slices.items():
                big = lcm(*range(1, n - x + 1))
                for parts, degrees in members:
                    assert sum(big // (v - x + 1) for v in degrees[:n - x]) == len(parts) * big
                assert len({degrees for _, degrees in members}) == len(members)
            # (c) slices by descending x, each member kept unless an earlier keeper majorizes it
            kept = []
            for x in reversed(xs):
                kept += [d for _, d in slices[x] if not any(majorizes(s, d) for s in kept)]
            assert tuple(sorted(kept)) == sweep_sinks(n, t), (n, t)
            # (d) when K_n is not t-tough it majorizes every member
            if n - 1 < t:
                assert sweep_sinks(n, t) == ((n - 1,) * n,)


def test_compute_sinks_examples():
    assert [tuple(s) for s in compute_sinks([(1, 2, 3), (2, 2, 3), (1, 3, 3)])] == [
        (1, 3, 3), (2, 2, 3)]
    assert compute_sinks([(2, 2, 3)]) == [(2, 2, 3)]
    assert compute_sinks([]) == []
    with pytest.raises(ValueError):
        compute_sinks([(1, 2), (1, 2, 3)])


def test_compute_sinks_properties():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(2, 10)
        seqs = [DegreeSequence(sorted(rng.randrange(n) for _ in range(n)))
                for _ in range(rng.randint(1, 60))]
        sinks = compute_sinks(seqs)
        for a in sinks:
            for b in sinks:
                if a != b:
                    assert not majorizes(a, b)
        for s in seqs:
            assert any(majorizes(sink, s) for sink in sinks)


def test_compute_sinks_matches_brute_force():
    # plain integer tuples: negative entries, entries above n - 1, very wide values
    rng = random.Random(14)
    assert compute_sinks([()]) == [()]
    for _ in range(300):
        n = rng.randint(1, 9)
        lo, hi = rng.choice([(0, n - 1), (-4, n + 4), (-10**6, 10**6), (10**6, 10**6 + 3)])
        seqs = [tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(rng.randint(1, 40))]
        pool = {tuple(sorted(s)) for s in seqs}
        brute = sorted(a for a in pool
                       if not any(b != a and majorizes(b, a) for b in pool))
        sinks = compute_sinks(seqs)
        assert [tuple(s) for s in sinks] == brute
        for s in sinks:
            in_range = s[0] >= 0 and s[-1] <= n - 1
            assert isinstance(s, DegreeSequence) == in_range


@pytest.mark.parametrize("claim, index, seq", [
    # 0 4^4 5 lies below the other member of its group, with an entry below j
    pytest.param("claim2", 1, "0 4^4 5", id="claim2"),
    # 1 3 4^3 5 lies below 1 4^4 5 with every entry in [j, n - 1]
    pytest.param("claim2", 1, "1 3 4^3 5", id="claim2-in-range"),
    # a second copy of 1 4^4 5 in its group
    pytest.param("claim2", 1, "1 4^4 5", id="claim2-duplicate"),
    # 1 4^5 lies below 1 4^4 5, yet its largest noncomplete degree qualifies it
    pytest.param("claim3", 2, "1 4^5", id="claim3"),
])
def test_broken_claims_are_reported(monkeypatch, capsys, claim, index, seq):
    # k = 1, n = 6: group j = 1 is 1 4^4 5 and 2^2 3^3 5, group j = 2 is 2^2 3^2 5^2
    members = subposet.enumerate_family(1, 6)
    assert [j for j, _, _ in members] == [1, 1, 2]
    j, parts, _ = members[index]
    if claim == "claim3":
        assert parts[-1] + j - 1 >= 6 - (j + 1)
    members[index] = (j, parts, tuple(parse_sequence(seq)))
    monkeypatch.setattr(subposet, "enumerate_family", lambda k, n: members)
    rep = subposet_report(1, n=6)
    assert rep.counts_match
    assert getattr(rep, claim) is False
    assert getattr(rep, "claim3" if claim == "claim2" else "claim2") is True
    assert main(["sinks", "--k", "1", "--n", "6", "--verify-claims"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith(f"{claim} (") and line.endswith(": False") for line in lines)


def test_antichain_check_matches_brute_force():
    # the Claim 2 check of one group: its potential certificate and its compute_sinks
    # fallback together must agree with pairwise majorization on any group
    rng = random.Random(15)
    groups = []
    for k, n in ((1, 8), (2, 9), (3, 8)):
        by_group = {}
        for j, _, degrees in enumerate_family(k, n):
            by_group.setdefault(j, []).append(degrees)
        groups += [(seqs, j, n - 1) for j, seqs in by_group.items()]
    seen = {"equal potentials": 0, "antichain, potentials differ": 0, "not an antichain": 0}
    for _ in range(300):
        n, lo = rng.randint(1, 8), rng.randint(0, 3)
        hi = lo + rng.randint(0, 5)
        pool = [tuple(sorted(rng.randint(lo - (rng.random() < 0.1), hi) for _ in range(n)))
                for _ in range(rng.randint(1, 12))]
        kind = rng.randrange(3)
        if kind == 0:  # a family group, maybe with one member moved by one step
            seqs, lo, hi = rng.choice(groups)
            seqs = list(seqs)
            if rng.random() < 0.5:
                i = rng.randrange(len(seqs))
                seqs[i] = tuple(sorted(max(lo - 1, min(hi, v + rng.randint(-1, 1)))
                                       for v in seqs[i]))
        elif kind == 1:  # the maximal elements of a pool: an antichain
            seqs = [a for a in set(pool) if not any(b != a and majorizes(b, a) for b in pool)]
        else:  # the pool itself, duplicates included
            seqs = pool
        brute = not any(i != i2 and majorizes(b, a)
                        for i, a in enumerate(seqs) for i2, b in enumerate(seqs))
        assert subposet._is_antichain(seqs, lo, hi) == brute, (seqs, lo, hi)
        big = lcm(*range(1, hi - lo + 2))  # an entry below lo weighs -1, unlike any other
        potentials = {sum(big // (v - lo + 1) if v >= lo else -1 for v in s) for s in seqs}
        if not brute:
            seen["not an antichain"] += 1
        else:
            seen["equal potentials" if len(potentials) == 1 else "antichain, potentials differ"] += 1
    assert min(seen.values()) >= 30, seen


def test_report_small_cases():
    rep = subposet_report(2, n=27)
    assert rep.n == 27 and rep.m == 9
    assert rep.bound == Fraction(9, 5)
    assert rep.sink_count >= 2
    assert rep.counts_match
    assert rep.claim2 and rep.claim3
    assert rep.bound_applies and rep.bound_holds

    rep = subposet_report(1, n=4)
    assert rep.family_size == 1
    assert rep.sink_count == 1
    assert not rep.bound_applies and rep.bound_holds is None

    rep = subposet_report(2, n=8, verify_claims=False)  # (k+1) does not divide n
    assert rep.m is None
    assert rep.claim2 is None and rep.claim3 is None
    assert rep.counts_match


def test_report_group_counts_against_partition_formula():
    from toughseq.partitions import count_partitions

    for k, m in [(1, 5), (2, 4), (3, 3), (2, 9)]:
        rep = subposet_report(k, n=m * (k + 1), verify_claims=False)
        for grp in rep.groups:
            expected = count_partitions((k + 1) * (m - grp.j) - 1, max_parts=k * grp.j + 1)
            assert grp.count == expected == grp.expected_count


def test_claim4_bridge_holds_where_invoked():
    from toughseq.partitions import claim4_identity

    for k, m in [(2, 9), (3, 9), (2, 5), (3, 5), (4, 4)]:
        n = m * (k + 1)
        for j in range(1, m - 1):  # j <= m - 2
            assert claim4_identity(k, n - j * (k + 1) - 1), (k, m, j)


@pytest.mark.parametrize("k, m, certified", [
    (2, 9, 16), (3, 9, 31), (4, 9, 54), (2, 15, 28), (5, 9, 91),
])
def test_claim3_count_in_closed_form(k, m, certified):
    # one vertex from each of the kj + 1 cliques of a group-j member leaves a partition
    # of r = n - j(k+1) - 1; Claim 3 picks those whose largest part is at least r - k + 1
    from toughseq.partitions import count_partitions

    n = m * (k + 1)
    closed = 0
    for j in range(1, m):
        r = n - j * (k + 1) - 1
        closed += count_partitions(r, max_parts=k * j + 1)
        if r >= k:
            closed -= count_partitions(r, max_parts=k * j + 1, max_part=r - k)
    counted = sum(1 for j, parts, _ in enumerate_family(k, n)
                  if parts[-1] + j - 1 >= n - k * (j + 1))
    assert closed == counted == certified


def test_generate_best_monotone_examples():
    conds = generate_best_monotone([parse_sequence("2^2 3^3 5")])
    assert conds == [parse_condition("d2>=3 | d5>=4", 6)]
    assert generate_best_monotone([]) == []
    # unsorted entries, a repeated sink or sinks out of order are refused, not misread
    seq = parse_sequence("1 2^2 3")
    for bad in ([(3, 1, 2, 2)], [seq, seq], [seq, parse_sequence("0 2^2 3")]):
        with pytest.raises(ValueError, match="sorted, distinct DegreeSequences"):
            generate_best_monotone(bad)


def test_generated_theorem_declares_exactly_non_dominated():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(3, 9)
        pool = [DegreeSequence(sorted(rng.randrange(n) for _ in range(n)))
                for _ in range(rng.randint(1, 25))]
        sinks = compute_sinks(pool)
        conds = generate_best_monotone(sinks)
        # one pairwise-inequivalent condition per sink: no smaller set works
        assert len(conds) == len(sinks)
        for _ in range(30):
            seq = DegreeSequence(sorted(rng.randrange(n) for _ in range(n)))
            declared = all(evaluate(c, seq) for c in conds)
            dominated = any(majorizes(s, seq) for s in sinks)
            assert declared == (not dominated)


def test_sink_soundness_family_vs_sweep():
    # family sinks == sinks of all non-(1/k)-tough graphs restricted to complete-degree
    # sequences (none at n = 1), the latter from the labeled sweep at small n and from
    # the closed-form family up to n = 30
    def labeled_sinks(n, t):
        return compute_sinks(edge_maximal_tough_sequences(n, t))

    cases = [(k, n, labeled_sinks) for k in (1, 2) for n in range(k + 2, 8)]
    cases += [(k, n, sweep_sinks) for k in range(1, 7) for n in range(1, 31)]
    for k, n, sinks_of in cases:
        family_sinks = compute_sinks(
            [degrees for _, _, degrees in enumerate_family(k, n)])
        all_sinks = tuple(sinks_of(n, Fraction(1, k)))
        with_complete = tuple(s for s in all_sinks if s[-1] == n - 1) if n >= 2 else ()
        assert tuple(family_sinks) == with_complete, (k, n)
        # disconnected-only sinks (and K_1 at n = 1) are reported alongside, never hidden
        extra = set(all_sinks) - set(with_complete)
        for s in extra:
            assert s[-1] < n - 1 or n == 1


def test_bondy_boesch_is_best_monotone(monkeypatch):
    # for n >= k + 1 a graph is not k-connected iff it spans K_{k-1} + (K_a u K_b), so
    # the sink engine keyed by the one-term shape list [(k - 1, 2)] yields the best
    # monotone k-connectivity theorem: exactly the canonical Bondy-Boesch conditions
    for n in range(2, 61):
        for k in range(1, n):
            monkeypatch.setattr(subposet, "_terms", lambda n, t, x=k - 1: [(x, 2)])
            sinks = sweep_sinks(n, 1)
            want = sorted({canonicalize(c) for _, c in kconnected_conditions(n, k)})
            assert generate_best_monotone(sinks) == want, (n, k)
            if n > 10:
                continue
            # each sink is the degree sequence of its shape, which the cutset engine
            # finds not k-connected
            shapes = {degrees: parts for _, parts, degrees in family(n, 1)}
            for sink in sinks:
                a, b = shapes[sink]
                g = union(clique(a), clique(b))
                g = join(clique(k - 1), g) if k > 1 else g
                assert g.degree_sequence() == sink and not is_k_connected(g, k), (n, k, sink)


def test_sink_violates_only_its_own_condition():
    # a sink fails a generated weakly-optimal condition iff it is that sink's own
    for k, m in [(1, 3), (1, 5), (2, 4), (3, 3), (2, 9), (3, 9)]:
        rep = subposet_report(k, n=m * (k + 1), verify_claims=False)
        conds = generate_best_monotone(rep.sinks)
        pairs = list(zip(rep.sinks, conds))
        # equivalent(a, b) compares canonical forms: canonicalize each condition once
        canon = [canonicalize(cond) for cond in conds]
        for pi, own in pairs:
            blocking = canonicalize(blocking_condition(pi))
            assert equivalent(own, blocking)
            for (sigma, cond), canon_cond in zip(pairs, canon):
                fails = not evaluate(cond, pi)
                assert fails == (canon_cond == blocking), (k, m, pi, sigma)
        # every generated condition is weakly optimal for the family sinks
        for cond in conds:
            assert is_weakly_optimal(cond, rep.sinks)


def test_is_weakly_optimal_examples():
    # the result is the first majorizing sink (the witness), or None
    sink = parse_sequence("2^2 3^3 5")
    assert is_weakly_optimal(blocking_condition(sink), [sink]) is sink
    # frontier of d1>=2 at n=6 is 1 5^5, which the sink does not majorize
    assert is_weakly_optimal(parse_condition("d1>=2", 6), [sink]) is None
    # unsatisfiable clause: canonical empty, frontier 5^6, majorized by nothing
    assert is_weakly_optimal(ChvatalCondition(6, ((1, 6),)), [sink]) is None
    # against the true 1-tough sink set at n=6 the bare clause is still not
    # weakly optimal, but the full two-clause condition is: its frontier is
    # the sink 1 4^4 5 itself
    all_sinks = sweep_sinks(6, 1)
    assert is_weakly_optimal(parse_condition("d1>=2", 6), all_sinks) is None
    full = parse_condition("d1>=2 | d5>=5", 6)
    from toughseq.conditions import frontier_sequence

    assert frontier_sequence(full) == parse_sequence("1 4^4 5")
    assert is_weakly_optimal(full, all_sinks) == parse_sequence("1 4^4 5")


def test_trend_sink_counts_strictly_increase_in_k():
    counts = [subposet_report(k, n=5 * (k + 1), verify_claims=False).sink_count for k in (2, 3, 4)]
    assert counts[0] < counts[1] < counts[2]
