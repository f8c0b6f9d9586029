"""Exact small-graph oracles: construction, toughness, hamiltonicity, sweeps.

Graphs are stored as bitmask adjacency rows (bit v of ``rows[u]`` set
iff u ~ v), which keeps component flooding and exhaustive cutset
enumeration cheap at oracle scale.  All toughness values are exact
``fractions.Fraction``s; nothing here ever touches floating point.

One cutset scan, ``_cutsets``, serves ``toughness``, ``is_t_tough``
and ``is_k_connected``: it yields (X, omega(G - X)) for every cutset X,
X as vertex bits, by size, then lexicographically, and each caller
supplies the size at which to stop.  It is the only cutset loop: the
sweep oracle reads toughness off the definition, as a graph is not
t-tough exactly when it spans a labeled K_X + (K_B1 u ... u K_Bw)
with (|X|, w) in ``_terms(n, t)``, a ``_spanning_masks`` shape; the
table closes their masks downward, and the edge-maximal graphs are the
shapes inside no other.  ``subposet.family`` reads the same (x, w) pairs.

The sweep oracle, ``tough_mask_table`` and
``edge_maximal_tough_sequences``, is importable from here but not
exported: it serves the tests, which walk every labeled graph on
n <= 7 vertices themselves, and the benchmark's tracer.  Its table
indexes the 2^(n(n-1)/2) labeled graphs on n vertices by edge mask,
a format no other module reads.  Edge bit b encodes the pair
``edge_pairs(n)[b]``, pairs ordered (0,1), (0,2), ..., (1,2), ....
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, repeat
from typing import NamedTuple

from .sequences import DegreeSequence

__all__ = [
    "Graph",
    "ToughnessResult",
    "MAX_VERTICES",
    "TOUGHNESS_LIMIT",
    "HAMILTONICITY_LIMIT",
    "SWEEP_LIMIT",
    "clique",
    "empty_graph",
    "union",
    "join",
    "components",
    "toughness",
    "is_t_tough",
    "is_hamiltonian",
    "is_k_connected",
    "parse_graph",
    "read_graph",
    "graph_to_json",
    "edge_pairs",
]

MAX_VERTICES = 24          # construction limit: beyond this nothing here is exact-sweep friendly
TOUGHNESS_LIMIT = 20       # exact cutset enumeration, 2^n subsets
HAMILTONICITY_LIMIT = 12   # backtracking cycle search
SWEEP_LIMIT = 7            # labeled-graph sweeps, 2^(n(n-1)/2) masks


def _check_size(n: int) -> None:
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    if n > MAX_VERTICES:
        raise ValueError(f"graph too large: {n} > {MAX_VERTICES}")


class Graph:
    """Simple undirected graph on vertices 0..n-1, bitmask adjacency rows."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, edges=()):
        _check_size(n)
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if rows[u] >> v & 1:
                raise ValueError(f"duplicate edge ({u},{v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.rows = tuple(rows)

    @classmethod
    def from_rows(cls, n: int, rows) -> "Graph":
        """Trusted constructor from prebuilt adjacency rows: it checks only the size bounds."""
        _check_size(n)
        g = object.__new__(cls)
        g.n = n
        g.rows = tuple(rows)
        return g

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "Graph":
        """Decode an edge mask under the fixed pair ordering; masks have one bit per pair."""
        pairs = edge_pairs(n)
        if not 0 <= mask < 1 << len(pairs):
            raise ValueError(f"edge mask {mask} out of range for n={n}")
        return cls(n, (pair for b, pair in enumerate(pairs) if mask >> b & 1))

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in range(u + 1, self.n)
                if self.rows[u] >> v & 1]

    def degree_sequence(self) -> DegreeSequence:
        return DegreeSequence(r.bit_count() for r in self.rows)

    def is_complete(self) -> bool:
        full = (1 << self.n) - 1
        return all(self.rows[v] == full ^ (1 << v) for v in range(self.n))

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Graph({self.n}, {self.edges()!r})"


class ToughnessResult(NamedTuple):
    """Exact toughness with a deterministic witness cutset.

    For non-complete graphs ``value == |X| / omega(G - X)`` for the
    witness X, no cutset does better, and ties favor the smallest then
    lexicographically least X.  Complete graphs get value n-1 and no
    witness.
    """

    value: Fraction
    witness_cutset: tuple[int, ...] | None
    witness_components: int | None


def clique(m: int) -> Graph:
    # rows are generated lazily, so from_rows refuses a bad m before building any
    return Graph.from_rows(m, (((1 << m) - 1) ^ (1 << v) for v in range(m)))


def empty_graph(m: int) -> Graph:
    return Graph.from_rows(m, repeat(0, m))


def union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; h's vertices are shifted up by g.n."""
    return Graph.from_rows(g.n + h.n, g.rows + tuple(r << g.n for r in h.rows))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two vertex sets."""
    gmask = (1 << g.n) - 1
    hmask = ((1 << h.n) - 1) << g.n
    rows = [r | hmask for r in g.rows] + [(r << g.n) | gmask for r in h.rows]
    return Graph.from_rows(g.n + h.n, rows)


def _component_of(rows, start_bit: int, inside: int) -> int:
    """Bitmask of the component containing start_bit within vertex set `inside`."""
    comp = start_bit
    frontier = start_bit
    while frontier:
        grow = 0
        m = frontier
        while m:
            b = m & -m
            m ^= b
            grow |= rows[b.bit_length() - 1]
        frontier = grow & inside & ~comp
        comp |= frontier
    return comp


def _count_components(rows, inside: int) -> int:
    count = 0
    rest = inside
    while rest:
        count += 1
        rest ^= _component_of(rows, rest & -rest, rest)
    return count


def components(g: Graph) -> int:
    """omega(G): number of connected components."""
    return _count_components(g.rows, (1 << g.n) - 1)


def _cutsets(g: Graph, stop):
    """Yield (X, omega(G - X)) for every cutset X of g (omega >= 2), X as vertex bits 1 << v.

    Cutsets come by increasing size, then lexicographically; ``stop(size)``
    is asked before each size and ends the scan when true.  One flood
    settles each connected G - X; only cutsets pay for a full count.
    """
    n = g.n
    full = (1 << n) - 1
    rows = g.rows
    bits = [1 << v for v in range(n)]
    for size in range(n - 1):
        if stop(size):
            return
        for xs in combinations(bits, size):
            inside = full - sum(xs)
            comp = _component_of(rows, inside & -inside, inside)
            if comp != inside:
                yield xs, 1 + _count_components(rows, inside ^ comp)


def toughness(g: Graph) -> ToughnessResult:
    """Exact tau(G) by cutset enumeration; tau(K_n) = n - 1 by convention.

    The best ratio is kept as integers x/w, from n/1 (above every
    cutset's ratio), and compared by cross-multiplying as in
    ``is_t_tough``.  Only a strictly smaller ratio replaces the witness,
    so the first cutset in scan order attaining tau is reported.  Once
    |X|/(n-|X|) cannot beat x/w, larger sizes are skipped (that quotient
    lower bounds every ratio at that size).
    """
    n = g.n
    if n > TOUGHNESS_LIMIT:
        raise ValueError(f"exact toughness limited to n <= {TOUGHNESS_LIMIT}")
    if g.is_complete():
        return ToughnessResult(Fraction(n - 1), None, None)
    x, w, witness = n, 1, ()
    for xs, c in _cutsets(g, lambda size: size * w >= x * (n - size)):
        if len(xs) * w < x * c:
            x, w, witness = len(xs), c, xs
    return ToughnessResult(Fraction(x, w), tuple(b.bit_length() - 1 for b in witness), w)


def is_t_tough(g: Graph, t) -> bool:
    """True iff tau(G) >= t; exits early on a violating cutset.

    A cutset X leaves at most n - |X| components, so no size with
    |X|/(n-|X|) >= t can violate; that bound also settles t <= 0.
    A float t raises TypeError.
    """
    t = _rational(t)
    n = g.n
    if g.is_complete():
        return n - 1 >= t
    p, q = t.numerator, t.denominator
    return all(q * len(xs) >= p * w
               for xs, w in _cutsets(g, lambda size: q * size >= p * (n - size)))


def is_hamiltonian(g: Graph) -> bool:
    """Exact backtracking search for a spanning cycle (needs n >= 3)."""
    n = g.n
    if n > HAMILTONICITY_LIMIT:
        raise ValueError(f"hamiltonicity search limited to n <= {HAMILTONICITY_LIMIT}")
    if n < 3:
        return False
    rows = g.rows
    if any(r.bit_count() < 2 for r in rows):
        return False
    full = (1 << n) - 1
    if _component_of(rows, 1, full) != full:
        return False

    def extend(v: int, visited: int) -> bool:
        if visited == full:
            return bool(rows[v] & 1)
        m = rows[v] & ~visited
        while m:
            b = m & -m
            m ^= b
            if extend(b.bit_length() - 1, visited | b):
                return True
        return False

    return extend(0, 1)  # vertex 0 anchors the cycle


def is_k_connected(g: Graph, k: int) -> bool:
    """Standard k-connectivity: n > k and no cutset of size < k (K_n is (n-1)-connected)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return g.n > k and next(_cutsets(g, lambda size: size >= k), None) is None


def edge_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Bit-position -> vertex-pair table for edge masks on n vertices."""
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


def _blocks(rest: int, w: int):
    """Yield every split of the vertex bitmask rest into exactly w nonempty blocks.

    The lowest vertex of rest opens the first block; each subset of the
    others joins it, and the rest is split into w - 1 blocks.
    """
    if w == 1:
        yield (rest,)
        return
    low = rest & -rest
    others = rest ^ low
    sub = others
    while True:
        left = others ^ sub
        if left.bit_count() >= w - 1:
            for tail in _blocks(left, w - 1):
                yield (low | sub, *tail)
        if not sub:
            return
        sub = (sub - 1) & others


def _rational(t) -> Fraction:
    """t as an exact Fraction; a float raises TypeError.

    Fraction(0.1) is the float's binary value, just above 1/10, which
    would silently move every floor(x/t) boundary that 1/10 sits on.
    """
    if isinstance(t, float):
        raise TypeError(f"t must be exact (int, Fraction or 'P/Q' text), not the float {t!r}")
    return Fraction(t)


def _terms(n: int, t):
    """(x, w) for x = 0, 1, ... while x + w <= n, w = max(2, floor(x/t) + 1).

    Every non-t-tough graph on n vertices spans some K_x + (K_{c_1} u
    ... u K_{c_w}) of these shapes; when n - 1 < t, K_n is not t-tough
    either and closes the terms as (x, w) = (n - 1, 1).  A float t
    raises TypeError.
    """
    t = _rational(t)
    if t <= 0:
        raise ValueError("t must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    x = 0
    while (w := max(2, x * t.denominator // t.numerator + 1)) + x <= n:
        yield x, w
        x += 1
    if n - 1 < t:
        yield n - 1, 1


def _spanning_masks(n: int, t):
    """Yield the edge masks of the labeled K_X + (K_B1 u ... u K_Bw), (|X|, w) in ``_terms(n, t)``.

    Their spanning subgraphs are exactly the non-t-tough graphs.  A
    non-complete G has tau(G) < t iff some X leaves w(G - X) > |X|/t
    components with w(G - X) >= 2; merging components down to
    w = max(2, floor(|X|/t) + 1) blocks B_1..B_w shows that this holds
    iff G spans one of these graphs, each mask the OR of the cliques on
    X u B_i.  K_n (tau = n - 1 by convention) needs no case of its own:
    when n - 1 < t the terms end with (n - 1, 1), whose one block gives
    K_n; every other shape lacks the edges between its blocks.
    """
    if n > SWEEP_LIMIT:
        raise ValueError(f"toughness tables limited to n <= {SWEEP_LIMIT}")
    w_for = dict(_terms(n, t))
    pairs = edge_pairs(n)
    clique_on = [sum(1 << b for b, (u, v) in enumerate(pairs) if s >> u & s >> v & 1)
                 for s in range(1 << n)]
    everyone = (1 << n) - 1
    for xmask in range(1 << n):
        w = w_for.get(xmask.bit_count())
        if w:
            for blocks in _blocks(everyone ^ xmask, w):
                mask = 0
                for block in blocks:
                    mask |= clique_on[xmask | block]
                yield mask


def tough_mask_table(n: int, t) -> bytes:
    """Table over all edge masks: entry 1 iff the graph is t-tough.

    Built on every call and kept nowhere (2 MiB, about 0.1 s at n = 7).
    No cutset scan: the ``_spanning_masks`` are marked, the marks closed
    downward one edge bit at a time over a big integer holding one byte
    per mask, and the result flipped.
    """
    shapes = list(_spanning_masks(n, t))  # refuses n and t before the table is allocated
    m = n * (n - 1) // 2
    size = 1 << m
    marked = bytearray(size)
    for mask in shapes:
        marked[mask] = 1
    below = int.from_bytes(marked, "little")
    for b in range(m):
        half = 1 << b  # byte j is 1 iff mask j lacks bit b: runs of 2^b ones, then 2^b zeros
        lacking = int.from_bytes((b"\x01" * half + bytes(half)) * (size >> b + 1), "little")
        below |= below >> (8 << b) & lacking
    ones = int.from_bytes(b"\x01" * size, "little")
    return (below ^ ones).to_bytes(size, "little")


def edge_maximal_tough_sequences(n: int, t) -> tuple[DegreeSequence, ...]:
    """Degree sequences of all edge-maximal non-t-tough graphs on n vertices.

    Exhaustive over labeled graphs (small n only): a graph qualifies if
    it is not t-tough but every single-edge supergraph is.  As the
    non-t-tough graphs are the spanning subgraphs of the
    ``_spanning_masks`` shapes, these are the shapes inside no other
    shape; when n - 1 < t that leaves K_n, the shape (n - 1, 1).
    """
    shapes = set(_spanning_masks(n, t))
    return tuple(sorted({Graph.from_mask(n, s).degree_sequence() for s in shapes
                         if not any(s | o == o != s for o in shapes)}))


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format (first line n, then `u v` lines) or the JSON form."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(stripped)
        except RecursionError:  # nested too deep to be a graph
            data = None
        try:
            n = data["n"]
            edges = [(u, v) for u, v in data.get("edges", [])]
            numbers = [n, *(x for e in edges for x in e)]
        except (KeyError, TypeError, ValueError):
            numbers = [None]
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in numbers):
            raise ValueError('JSON graph must look like {"n": N, "edges": [[u, v], ...]}')
        return Graph(n, edges)
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty graph file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"first line must be the vertex count, got {lines[0]!r}") from None
    edges = []
    for ln in lines[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError:
            raise ValueError(f"expected 'u v', got {ln!r}") from None
        edges.append((u, v))
    return Graph(n, edges)


def read_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}
