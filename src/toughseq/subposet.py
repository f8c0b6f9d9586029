"""Sink enumeration for toughness subposets and best monotone generation.

If tau(G) < t, a cutset X of size x leaves w > x/t components, so G
spans K_x + (K_{c_1} u ... u K_{c_w}) on them, whose degree sequence
majorizes G's; merging cliques only raises degrees, down to
w = max(2, floor(x/t) + 1).  So the sinks (majorization-maximal
sequences) of all non-t-tough graphs are those of the closed-form
``family(n, t)``, built on the (x, w) list ``graphs._terms`` that also
fills the sweep's ``tough_mask_table``.  One Chvatal-type condition
per sink yields a best monotone theorem, and the number of sinks
lower-bounds its size.  The paper's 1/k family is the connected slice
x = j >= 1, the same (j, parts, degrees) tuples from
``enumerate_family``, grouped by j in ``subposet_report``.  Its sinks
are ``compute_sinks`` over that slice, the sinks of ``family(n, 1/k)``
with a complete degree n - 1: every x >= 1 member has one, and no
x = 0 member can majorize one.  The exhaustive labeled-graph sweep
(``edge_maximal_tough_sequences``, small n) stays as the oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import NamedTuple

from .conditions import ChvatalCondition, blocking_condition, frontier_sequence
from .graphs import Graph, _lacking, _terms, edge_pairs, tough_mask_table
from .partitions import count_partitions, enumerate_partitions, partition_function
from .sequences import DegreeSequence, majorizes

__all__ = [
    "GroupStat",
    "SinkReport",
    "family",
    "family_size",
    "enumerate_family",
    "compute_sinks",
    "subposet_report",
    "generate_best_monotone",
    "is_weakly_optimal",
    "edge_maximal_tough_sequences",
    "sweep_sinks",
]


class GroupStat(NamedTuple):
    j: int
    count: int
    expected_count: int
    reduced_total: int  # n - j(k+1) - 1; its partitions into <= kj+1 parts index the group


class SinkReport(NamedTuple):
    """Enumerated family, its sinks, group statistics, and the sink bound."""

    k: int
    n: int
    m: int | None
    family_size: int
    groups: tuple[GroupStat, ...]
    sinks: tuple[DegreeSequence, ...]
    bound: Fraction
    claim2: bool | None
    claim3: bool | None

    @property
    def sink_count(self) -> int:
        return len(self.sinks)

    @property
    def bound_applies(self) -> bool:
        return self.k >= 2 and self.m is not None and self.m >= 9

    @property
    def bound_holds(self) -> bool | None:
        if not self.bound_applies:
            return None
        return self.sink_count >= self.bound

    @property
    def counts_match(self) -> bool:
        return all(g.count == g.expected_count for g in self.groups)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "m": self.m,
            "family_size": self.family_size,
            "groups": [g._asdict() for g in self.groups],
            "sinks": [list(s) for s in self.sinks],
            "sink_count": self.sink_count,
            "bound": {"num": self.bound.numerator, "den": self.bound.denominator},
            "bound_applies": self.bound_applies,
            "bound_holds": self.bound_holds,
            "claims": {"claim2": self.claim2, "claim3": self.claim3},
        }


def family(n: int, t):
    """Yield (x, parts, degrees) for every K_x + (K_{c_1} u ... u K_{c_w}).

    x ascending, then parts c_1 <= ... <= c_w lexicographic: the
    partitions of n-x into exactly w = max(2, floor(x/t) + 1) parts
    (of n-x-w into at most w, adding one to every slot).  degrees is the
    sorted degree sequence as a tuple.  The (x, w) pairs are
    ``graphs._terms``; when n - 1 < t, its last term makes K_n close
    the family as x = n-1, parts = (1,).
    """
    for x, w in _terms(n, t):
        shapes = [tuple([1] * (w - len(lam)) + [c + 1 for c in reversed(lam)])
                  for lam in enumerate_partitions(n - x - w, max_parts=w)]
        for parts in sorted(shapes):
            degrees = []
            for c in parts:
                degrees += [c + x - 1] * c
            yield x, parts, tuple(degrees + [n - 1] * x)


def family_size(n: int, t, limit: int) -> int | None:
    """len(family(n, t)) from partition counts, or None once it passes limit.

    Bounded work at any n: before count_partitions runs on a term, the
    partitions of its r = n-x-w into at most min(w, 3) parts (closed
    form) must still fit under the limit.
    """
    total = 0
    for x, w in _terms(n, t):
        r = n - x - w
        if total + (r // 2 + 1 if w == 2 else ((r + 3) ** 2 + 6) // 12) > limit:
            return None
        total += count_partitions(r, max_parts=w)
        if total > limit:
            return None
    return total


def enumerate_family(k: int, n: int) -> list[tuple]:
    """The connected slice x = j >= 1 of ``family(n, 1/k)`` as (j, parts, degrees).

    For each j with j(k+1) < n, the partitions of n-j into exactly
    kj+1 positive parts.  An n >= 1 too small for j = 1 gives an empty
    list, not an error.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return [m for m in family(n, Fraction(1, k)) if m[0]]


def _is_antichain(seqs: list, lo: int, hi: int) -> bool:
    """No tuple of seqs majorizes another (sorted, equal-length, non-empty integer tuples).

    Certificate first: h(v) = L // (v - lo + 1), L = lcm(1..hi-lo+1),
    is a strictly decreasing integer weight on [lo, hi], so a tuple that
    majorizes a different one has a strictly smaller potential sum(h).
    Distinct tuples with entries in [lo, hi] and one shared potential
    are therefore an antichain (in a group j of the 1/k family, with
    lo = j and hi = n - 1, each part of size c adds c * L/c = L).  Any
    other input is decided exactly by ``compute_sinks``.
    """
    if len(set(seqs)) == len(seqs) and all(lo <= s[0] and s[-1] <= hi for s in seqs):
        big = lcm(*range(1, hi - lo + 2))
        h = {v: big // (v - lo + 1) for v in range(lo, hi + 1)}
        if len({sum(map(h.__getitem__, s)) for s in seqs}) <= 1:
            return True
    return len(compute_sinks(seqs)) == len(seqs)


def compute_sinks(seqs) -> list:
    """Majorization-maximal elements, deduplicated, lexicographically sorted.

    Inputs are sorted nondecreasing, deduplicated and scanned once by
    decreasing entry sum: a strict majorizer has a strictly larger sum,
    so by transitivity each candidate need only be tested against the
    maxima found so far.  Each tuple is packed into one integer of
    w-bit fields holding its entries minus the least entry; the top bit
    of every field is a guard, clear in the packed tuple.  Then a >= b
    entrywise iff ((a | guards) - b) & guards == guards: no field can
    borrow from the next, and a field keeps its guard exactly when its
    entry of a is at least that of b.  Maximal elements come back as
    DegreeSequence when the degree bounds hold, as plain tuples
    otherwise (the poset machinery is generic over integer sequences).
    """
    uniq = {tuple(sorted(s)) for s in seqs}
    lengths = {len(s) for s in uniq}
    if len(lengths) > 1:
        raise ValueError(f"mixed sequence lengths: {sorted(lengths)}")
    order = sorted(uniq, key=sum, reverse=True)
    lo = w = guards = 0  # no input, or only the empty tuple
    if order and order[0]:
        lo = min(s[0] for s in order)
        w = (max(s[-1] for s in order) - lo).bit_length() + 1
        guards = sum(1 << (i * w + w - 1) for i in range(len(order[0])))
    maxima: list = []
    raised: list[int] = []  # packed maxima with every guard set
    for seq in order:
        packed = 0
        for x in seq:
            packed = packed << w | (x - lo)
        for r in raised:
            if (r - packed) & guards == guards:
                break
        else:
            maxima.append(seq)
            raised.append(packed | guards)
    out = []
    for seq in sorted(maxima):
        try:
            out.append(DegreeSequence(seq))
        except ValueError:
            out.append(seq)
    return out


def subposet_report(k: int, n: int, verify_claims: bool = True) -> SinkReport:
    """Enumerate the (k, n) family and report groups, sinks, and the bound.

    m = n / (k+1) when k+1 divides n, else None.  The bound
    p(k-1) * n / (5(k+1)) is always computed but only asserted to hold
    (``bound_holds``) under its hypotheses k >= 2, n = m(k+1), m >= 9.
    Claim verification can be switched off for bulk counts.  Claim 2
    (no majorization within a group) is ``_is_antichain`` on each group
    j: one potential per member certifies a real group in linear time,
    and any group the certificate does not settle goes to the exact
    ``compute_sinks`` scan.  Claim 3 (every sequence whose largest
    noncomplete degree reaches n - k(j+1) is a sink) is a lookup in the
    sinks already found.
    """
    members = enumerate_family(k, n)  # checks k and n
    m = n // (k + 1) if n % (k + 1) == 0 else None
    by_group: dict[int, list[tuple]] = {}  # j ascending, as family yields x
    for j, _, degrees in members:
        by_group.setdefault(j, []).append(degrees)

    groups = []
    for j, seqs in by_group.items():
        reduced = n - j * (k + 1) - 1
        expected = count_partitions(reduced, max_parts=k * j + 1)
        groups.append(GroupStat(j, len(seqs), expected, reduced))

    sinks = compute_sinks([degrees for _, _, degrees in members])

    claim2: bool | None = None
    claim3: bool | None = None
    if verify_claims:
        claim2 = all(_is_antichain(seqs, j, n - 1) for j, seqs in by_group.items())
        sink_set = set(sinks)
        claim3 = all(
            degrees in sink_set
            for j, parts, degrees in members
            if parts[-1] + j - 1 >= n - k * (j + 1)
        )

    bound = Fraction(partition_function(k - 1) * n, 5 * (k + 1))
    return SinkReport(
        k=k, n=n, m=m,
        family_size=len(members),
        groups=tuple(groups),
        sinks=tuple(sinks),
        bound=bound,
        claim2=claim2,
        claim3=claim3,
    )


def generate_best_monotone(sinks) -> list[ChvatalCondition]:
    """One blocking condition per sink, canonical and deduplicated.

    A sequence satisfies every emitted condition exactly when no sink
    majorizes it, so the collection declares precisely the sequences
    outside the subposet's shadow.  Distinct sinks give distinct
    conditions, since frontier_sequence inverts blocking_condition.
    """
    return [blocking_condition(sink) for sink in sorted({DegreeSequence(s) for s in sinks})]


def is_weakly_optimal(cond: ChvatalCondition, sinks):
    """The first sink that majorizes the frontier sequence of cond, or None.

    With the complete sink set for (n, P) a witness exists exactly when
    cond is P-weakly optimal: every violator of cond sits below the
    frontier, so all violators are majorized by a non-forcibly-P
    sequence iff the frontier itself is.  Sinks are non-empty, so the
    result is truthy exactly when cond is weakly optimal.
    """
    frontier = frontier_sequence(cond)
    return next((sink for sink in sinks if majorizes(sink, frontier)), None)


@lru_cache(maxsize=None)
def edge_maximal_tough_sequences(n: int, t) -> tuple[DegreeSequence, ...]:
    """Degree sequences of all edge-maximal non-t-tough graphs on n vertices.

    Exhaustive over labeled graphs (small n only): a graph qualifies if
    it is not t-tough but every single-edge supergraph is (the complete
    graph qualifies vacuously when t > n-1).  Found by the edge-bit step
    of ``tough_mask_table``: per edge bit b, a mask lacking b stays iff
    the mask with b added is t-tough.
    """
    table = tough_mask_table(n, t)
    size = len(table)
    tough = int.from_bytes(table, "little")
    ones = int.from_bytes(b"\x01" * size, "little")
    maximal = ones ^ tough
    for b in range(len(edge_pairs(n))):  # bytes are 0 or 1, so ORing 1 passes masks with b
        maximal &= tough >> (8 << b) | ones ^ _lacking(size, b)
    found = maximal.to_bytes(size, "little")
    seqs = set()
    mask = found.find(1)
    while mask >= 0:
        seqs.add(Graph.from_mask(n, mask).degree_sequence())
        mask = found.find(1, mask + 1)
    return tuple(sorted(seqs))


def sweep_sinks(n: int, t) -> tuple[DegreeSequence, ...]:
    """Sinks of all non-t-tough graphs on n vertices, at any n.

    They equal the exhaustive sweep's sinks,
    compute_sinks(edge_maximal_tough_sequences(n, t)): both that set and
    ``family(n, t)`` consist of non-t-tough sequences and majorize every
    non-t-tough sequence, so they share its maximal elements.  The sinks
    without a complete degree come from x = 0, two disjoint cliques.
    """
    return tuple(compute_sinks([degrees for _, _, degrees in family(n, t)]))
