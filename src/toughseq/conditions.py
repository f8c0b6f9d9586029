"""Chvatal-type degree conditions and the blocking/frontier duality.

A condition on n-sequences is a disjunction of clauses ``d_i >= k``
with strictly increasing indices and nondecreasing thresholds.  Two
maps tie conditions to sequences:

* ``blocking_condition(pi)`` is the weakest condition violated by pi;
  a sequence violates it exactly when pi majorizes that sequence.
* ``frontier_sequence(c)`` is the entry-wise maximal n-sequence that
  violates c; it majorizes every violator of c and need not be
  graphical.

The two maps are mutually inverse: frontier(blocking(pi)) == pi, and
blocking(frontier(c)) is equivalent to c.
"""

from __future__ import annotations

import operator
import re
from typing import NamedTuple

from .sequences import DegreeSequence

__all__ = [
    "ChvatalCondition",
    "evaluate",
    "canonicalize",
    "equivalent",
    "blocking_condition",
    "frontier_sequence",
    "parse_condition",
    "format_condition",
    "condition_to_json",
    "condition_from_json",
]

_CLAUSE_RE = re.compile(r"^d(\d+)\s*>=\s*(\d+)$")


class _ConditionFields(NamedTuple):
    n: int
    clauses: tuple[tuple[int, int], ...]


class ChvatalCondition(_ConditionFields):
    """Disjunction of clauses d_{i_j} >= k_{i_j} over n-sequences.

    Invariants: 1 <= i_1 < ... < i_r <= n and 1 <= k_1 <= ... <= k_r <= n.
    The empty disjunction (no clauses) is the always-false condition.
    Clauses are stored as a tuple of int pairs, whatever iterable of
    pairs was given; a non-integer n or entry raises TypeError.
    """

    __slots__ = ()

    def __new__(cls, n: int, clauses) -> ChvatalCondition:
        n = operator.index(n)
        if n < 1:
            raise ValueError("condition length n must be >= 1")
        clauses = tuple((operator.index(i), operator.index(k)) for i, k in clauses)
        prev_i, prev_k = 0, 1
        for i, k in clauses:
            if not 1 <= i <= n:
                raise ValueError(f"clause index {i} out of range 1..{n}")
            if not 1 <= k <= n:
                raise ValueError(f"clause threshold {k} out of range 1..{n}")
            if i <= prev_i:
                raise ValueError("clause indices must strictly increase")
            if k < prev_k:
                raise ValueError("clause thresholds must be nondecreasing")
            prev_i, prev_k = i, k
        return super().__new__(cls, n, clauses)

    @classmethod
    def _make(cls, iterable) -> ChvatalCondition:
        # _replace builds through _make, so it validates too
        return cls(*iterable)

    def __str__(self) -> str:
        return format_condition(self)


def _valid(n: int, clauses: tuple[tuple[int, int], ...]) -> ChvatalCondition:
    """A ChvatalCondition built without the range checks of ``__new__``.

    Only for builders whose index ranges make every clause valid (int
    n, a tuple of int pairs meeting the class invariants), as each
    checker's condition list states; outside input goes through
    ``ChvatalCondition(...)``.
    """
    return tuple.__new__(ChvatalCondition, (n, clauses))


def evaluate(cond: ChvatalCondition, seq) -> bool:
    """True iff some clause d_i >= k holds for seq; empty condition is false.

    Clauses index the sorted entries: seq is read through DegreeSequence,
    so an out-of-range entry raises ValueError.
    """
    if cond.n != len(seq):
        raise ValueError(f"length mismatch: condition n={cond.n}, sequence n={len(seq)}")
    seq = DegreeSequence(seq)
    return any(seq[i - 1] >= k for i, k in cond.clauses)


def canonicalize(cond: ChvatalCondition) -> ChvatalCondition:
    """Unique minimal equivalent condition.

    A clause is kept iff the next threshold, or n after the last clause,
    is larger.  As indices strictly increase and thresholds never fall,
    each threshold k is one run of clauses whose last, largest index
    subsumes the rest (d_i >= k implies d_{i'} >= k for i' >= i on
    nondecreasing sequences), and the run at k = n never holds.  The
    survivors' thresholds strictly increase: no clause implies another.
    Only cond.n and cond.clauses are read.
    """
    after = [k for _, k in cond.clauses[1:]] + [cond.n]
    return ChvatalCondition(cond.n, [(i, k) for (i, k), a in zip(cond.clauses, after) if a > k])


def equivalent(c1: ChvatalCondition, c2: ChvatalCondition) -> bool:
    """True iff the two conditions agree on every n-sequence."""
    if c1.n != c2.n:
        raise ValueError(f"length mismatch: {c1.n} vs {c2.n}")
    return canonicalize(c1) == canonicalize(c2)


def blocking_condition(seq) -> ChvatalCondition:
    """C(pi): the weakest condition blocking pi, in canonical form.

    The disjunction d_1 >= k_1+1 | ... | d_n >= k_n+1 for
    pi = (k_1, ..., k_n), clauses past n dropped; a sequence violates
    the result exactly when it is majorized by pi.  seq is read through
    DegreeSequence, so sorted.  The raw clauses go to canonicalize
    unvalidated, so only the survivors are checked.
    """
    seq = DegreeSequence(seq)
    n = len(seq)
    return canonicalize(_ConditionFields(n, [(j, d + 1) for j, d in enumerate(seq, 1) if d + 1 <= n]))


def frontier_sequence(cond: ChvatalCondition) -> DegreeSequence:
    """Pi(c): the maximal n-sequence violating c (may be non-graphical).

    With clauses (i_1,k_1) < ... < (i_r,k_r) the entries are k_1 - 1 up
    to position i_1, then k_{s+1} - 1 up to i_{s+1}, and n - 1 past i_r.
    No clause need be dropped first: thresholds never fall, so the first
    clause at or after a position bounds it, and a clause at k = n gives
    n - 1 like the tail.  Every violator of c is majorized by the
    result.  Construction guarantees thresholds >= 1, so every condition
    can be violated (the all-zero sequence violates everything).
    """
    n = cond.n
    entries: list[int] = []
    pos = 0
    for i, k in cond.clauses:
        entries.extend([k - 1] * (i - pos))
        pos = i
    entries.extend([n - 1] * (n - pos))
    return DegreeSequence(entries)


def condition_to_json(cond: ChvatalCondition) -> dict:
    """JSON form: the length n, the clause list of [i, k] pairs and the text form."""
    return {"n": cond.n, "clauses": [list(cl) for cl in cond.clauses],
            "text": format_condition(cond)}


def condition_from_json(data: dict) -> ChvatalCondition:
    """Inverse of condition_to_json; a JSON boolean n or clause entry raises TypeError."""
    if isinstance(data["n"], bool) or any(isinstance(x, bool) for cl in data["clauses"] for x in cl):
        raise TypeError("condition n and clause entries must be integers, not booleans")
    return ChvatalCondition(data["n"], data["clauses"])


def parse_condition(text: str, n: int) -> ChvatalCondition:
    """Parse ``d2>=3 | d5>=4`` syntax; the literal ``false`` is the empty condition."""
    text = text.strip()
    if text.lower() == "false" or not text:
        return ChvatalCondition(n, ())
    clauses = []
    for part in text.split("|"):
        m = _CLAUSE_RE.match(part.strip())
        if not m:
            raise ValueError(f"malformed clause {part.strip()!r}")
        clauses.append((int(m.group(1)), int(m.group(2))))
    return ChvatalCondition(n, tuple(sorted(clauses)))


def format_condition(cond: ChvatalCondition) -> str:
    if not cond.clauses:
        return "false"
    return " | ".join(f"d{i}>={k}" for i, k in cond.clauses)
