"""Forcibly-P checkers: hamiltonicity, k-connectivity, and t-toughness.

Each checker evaluates a family of Chvatal-type degree conditions and
returns a Verdict carrying the full tested condition set.  All index
ranges with rational bounds are resolved by exact integer arithmetic
on t = p/q; floating point would silently shift the boundary clauses.

Chvatal's hamiltonian test scans ``hamiltonian_conditions``, the t = 1
toughness list, and rule "ii" of the t <= 1 test is the Bondy-Boesch
list at k = 1: each condition list has one implementation.

The checkers are sound but not complete: a sequence that fails may
still be forcibly P.  For the t >= 1 toughness checker, Chvatal's
included, the failure is constructive: the verdict carries the failing
condition's frontier sequence, which majorizes the input, together
with a realization whose toughness is provably below t.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .conditions import ChvatalCondition, _valid, condition_to_json, frontier_sequence
from .graphs import MAX_VERTICES, Graph, _rational, clique, empty_graph, graph_to_json, join, union
from .sequences import DegreeSequence, NotGraphicalError, _abbreviate, is_graphical

__all__ = [
    "Verdict",
    "parse_rational",
    "hamiltonian_conditions",
    "kconnected_conditions",
    "tough_ge1_conditions",
    "tough_le1_conditions",
    "check_hamiltonian_chvatal",
    "check_kconnected",
    "check_tough_ge1",
    "check_tough_le1",
]


def parse_rational(text: str) -> Fraction:
    """Parse 'P' or 'P/Q' into an exact nonnegative rational; floats rejected."""
    s = str(text).strip()
    num, slash, den = s.partition("/")
    try:
        value = Fraction(int(num), int(den)) if slash else Fraction(int(num))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational 'P' or 'P/Q': {text!r}") from None
    if value < 0:
        raise ValueError(f"rational must be >= 0: {text!r}")
    return value


class Verdict(NamedTuple):
    """Checker outcome with the evidence that produced it.

    ``failing_index`` is the first index whose condition fails (the
    t <= 1 checker also reports which rule family, "i" or "ii").  When
    a blocking witness exists, ``blocking_sequence`` majorizes the
    input, ``blocking_shape`` = (j, a, b) describes the realization
    K_j + (K~_a u K_b), and ``blocking_graph`` is that graph (omitted
    above the construction size limit).
    """

    declared: bool
    failing_index: int | None = None
    failing_rule: str | None = None
    blocking_sequence: DegreeSequence | None = None
    blocking_shape: tuple[int, int, int] | None = None
    blocking_graph: Graph | None = None
    condition_set: tuple[ChvatalCondition, ...] = ()

    def shape_text(self) -> str | None:
        if self.blocking_shape is None:
            return None
        j, a, b = self.blocking_shape
        return f"K_{j} + (~K_{a} u K_{b})"

    def to_json(self) -> dict:
        spec = None
        if self.blocking_shape is not None:
            j, a, b = self.blocking_shape
            spec = {"join_clique": j, "independent_set": a, "clique": b,
                    "text": self.shape_text()}
            if self.blocking_graph is not None:
                spec["graph"] = graph_to_json(self.blocking_graph)
        return {
            "declared": self.declared,
            "failing_index": self.failing_index,
            "failing_rule": self.failing_rule,
            "blocking_sequence": list(self.blocking_sequence) if self.blocking_sequence else None,
            "blocking_graph_spec": spec,
            "conditions": [condition_to_json(c) for c in self.condition_set],
        }


def _scan(seq, indexed, allow_nongraphical: bool, failure) -> Verdict:
    """Gate graphicality, then judge the conditions of ``indexed`` in order.

    ``indexed`` holds (label..., condition) entries, built by the caller
    for n = len(seq) first so that an out-of-range n is reported before
    a non-graphical sequence.  seq is read through DegreeSequence, as
    clauses index the sorted entries.  A condition holds when one of its
    clauses d_i >= k does, as ``evaluate`` states it; the first entry
    with none becomes a negative Verdict whose extra fields
    ``failure(*labels, condition)`` supplies.
    """
    seq = DegreeSequence(seq)
    if not allow_nongraphical and not is_graphical(seq):
        raise NotGraphicalError(f"sequence {_abbreviate(seq)} is not graphical")
    conds = tuple(entry[-1] for entry in indexed)
    for entry in indexed:
        for i, k in entry[-1].clauses:
            if seq[i - 1] >= k:
                break
        else:
            return Verdict(False, condition_set=conds, **failure(*entry))
    return Verdict(True, condition_set=conds)


def hamiltonian_conditions(n: int) -> list[tuple[int, ChvatalCondition]]:
    """Chvatal's conditions (d_i >= i+1 or d_{n-i} >= n-i) for i < n/2: the t = 1 list."""
    if n < 3:
        raise ValueError("hamiltonicity requires n >= 3")
    return tough_ge1_conditions(1, n)


def check_hamiltonian_chvatal(seq, allow_nongraphical: bool = False) -> Verdict:
    """Chvatal's forcibly-hamiltonian test: the t = 1 toughness scan of ``hamiltonian_conditions``.

    On failure at index i the witness is that condition's frontier
    i^i (n-i-1)^(n-2i) (n-1)^i, realized by K_i + (K~_i u K_{n-2i}),
    which is not hamiltonian.
    """
    return _scan(seq, hamiltonian_conditions(len(seq)), allow_nongraphical, _blocking)


def kconnected_conditions(n: int, k: int) -> list[tuple[int, ChvatalCondition]]:
    """Bondy-Boesch conditions (d_i >= i+k-1 or d_{n-k+1} >= n-i) for i <= (n-k+1)/2.

    Valid as built: 1 <= k <= n-1 and 1 <= i give 1 <= i < n-k+1 <= n
    (2i <= n-k+1 and n-k+1 >= 2) and 1 <= i+k-1 <= n-i <= n (2i <= n-k+1).
    """
    if n < 2:
        raise ValueError("k-connectivity conditions need n >= 2")
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= n-1, got k={k}, n={n}")
    return [(i, _valid(n, ((i, i + k - 1), (n - k + 1, n - i))))
            for i in range(1, (n - k + 1) // 2 + 1)]


def check_kconnected(seq, k: int, allow_nongraphical: bool = False) -> Verdict:
    """Bondy-Boesch forcibly-k-connected test."""
    return _scan(seq, kconnected_conditions(len(seq), k), allow_nongraphical,
                 lambda i, _: {"failing_index": i})


def tough_ge1_conditions(t, n: int) -> list[tuple[int, ChvatalCondition]]:
    """Conditions d_{floor(i/t)} >= i+1 or d_{n-i} >= n-floor(i/t), t <= i < tn/(t+1).

    Integer i runs from ceil(t) through the last integer strictly below
    t*n/(t+1); both bounds and floor(i/t) use exact arithmetic on t = p/q.
    At t = 1 this is exactly Chvatal's hamiltonian condition list.
    Valid as built, with b = floor(i/t): i >= t gives b >= 1, and
    i + i/t < n gives i + b < n, so 1 <= b < n-i <= n and
    1 <= i+1 <= n-b <= n.  A float t raises TypeError.
    """
    t = _rational(t)
    if t < 1:
        raise ValueError(f"this condition family needs t >= 1, got {t}")
    p, q = t.numerator, t.denominator
    ceil_t = -(-p // q)
    if n < ceil_t + 2:
        raise ValueError(f"need n >= ceil(t)+2 = {ceil_t + 2}, got {n}")
    i_lo = ceil_t
    i_hi = (p * n - 1) // (p + q)  # largest i with i(p+q) < pn
    out = []
    for i in range(i_lo, i_hi + 1):
        b = i * q // p  # floor(i/t)
        out.append((i, _valid(n, ((b, i + 1), (n - i, n - b)))))
    return out


def _blocking(i: int, cond: ChvatalCondition) -> dict:
    """Witness for the failing t >= 1 condition d_b >= i+1 or d_{n-i} >= n-b.

    Its frontier i^b (n-b-1)^(n-i-b) (n-1)^i majorizes every violator
    and is the degree sequence of K_i + (K~_b u K_{n-i-b}), whose
    toughness i/(b+1) is below t as b = floor(i/t).
    """
    n, b = cond.n, cond.clauses[0][0]
    graph = join(clique(i), union(empty_graph(b), clique(n - i - b))) if n <= MAX_VERTICES else None
    return {"failing_index": i, "blocking_sequence": frontier_sequence(cond),
            "blocking_shape": (i, b, n - i - b), "blocking_graph": graph}


def check_tough_ge1(seq, t, allow_nongraphical: bool = False) -> Verdict:
    """Best monotone forcibly-t-tough test for t >= 1.

    On failure the witness is the failing condition's frontier sequence,
    which majorizes the input, with its realization K_i + (K~_b u K_{n-i-b})
    of toughness below t (b = floor(i/t), the condition's first index).
    """
    return _scan(seq, tough_ge1_conditions(t, len(seq)), allow_nongraphical, _blocking)


def tough_le1_conditions(t, n: int) -> list[tuple[str, int, ChvatalCondition]]:
    """Two condition families for forcibly t-tough, 0 < t <= 1, k = floor(1/t).

    Rule "ii" (d_i >= i or d_n >= n-i, for i <= n/2) forces every
    realization connected; rule "i" (d_i >= i-k+2 or d_{n-i+k-1} >= n-i,
    for k <= i < (n+k-1)/2) rules out the sparse clique structures.
    Verdicts depend only on k, so any t in (1/(k+1), 1/k] tests alike.
    Rule "ii" is ``kconnected_conditions(n, 1)``; rule "i" is valid as
    built: k <= i and 2i <= n+k-2 give 1 <= i < n-i+k-1 <= n and
    2 <= i-k+2 <= n-i <= n.  A float t raises TypeError.
    """
    t = _rational(t)
    if not 0 < t <= 1:
        raise ValueError(f"this condition family needs 0 < t <= 1, got {t}")
    k = t.denominator // t.numerator  # floor(1/t)
    if n < k + 2:
        raise ValueError(f"need n >= floor(1/t)+2 = {k + 2}, got {n}")
    out = [("ii", i, cond) for i, cond in kconnected_conditions(n, 1)]
    for i in range(k, (n + k - 2) // 2 + 1):  # largest i with 2i < n+k-1
        out.append(("i", i, _valid(n, ((i, i - k + 2), (n - i + k - 1, n - i)))))
    return out


def check_tough_le1(seq, t, allow_nongraphical: bool = False) -> Verdict:
    """Simple (monotone, not best monotone) forcibly-t-tough test for t <= 1.

    Rule "ii" is scanned before rule "i": connectivity of every
    realization is what the second family builds on.  No blocking
    witness is emitted; this theorem is not weakly optimal.
    """
    return _scan(seq, tough_le1_conditions(t, len(seq)), allow_nongraphical,
                 lambda rule, i, _: {"failing_index": i, "failing_rule": rule})
