"""Seeded inputs and correctness gates for the three benchmark workloads.

Inputs come only from the seed: every generator below draws from its
own ``random.Random`` keyed by workload and seed.  The program under
test sees the generated argv or query, never the seed.

A gate returns ``None`` when an operation's output is right and a
one-line reason when it is not.  Gates run after the timed loop.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import product

WORKLOADS = ("sweep", "sinks", "oracle")

# theorem --best-monotone at n = 7: each t here costs about the same per
# operation (t > 1 costs about a third more), so one operation per run
# stays comparable across seeds.  1/3, 1/2 and 1 are 1/k values, which
# the family cross-check below covers.
SWEEP_POOL = ("1/3", "1/2", "2/3", "3/4", "1")
SWEEP_N = 7
SWEEP_MASKS = 1 << (SWEEP_N * (SWEEP_N - 1) // 2)

SINK_CASES = ((4, 9), (2, 15), (3, 9))

GRAPH_NS = range(14, 19)
GRAPH_PS = (0.3, 0.5, 0.8)
PLANTED_PER_BLOCK = 5
PLANTED_NS = range(9, 13)
SEQUENCES_PER_BLOCK = 80
SEQUENCE_NS = (100, 1000)
TOUGH_GE1_POOL = ("1", "3/2", "2", "5/2")
TOUGH_LE1_POOL = ("1/3", "1/2", "1")
HAMILTONIAN_LIMIT = 12


def sweep_argv(t: str) -> list[str]:
    return ["theorem", "--t", t, "--n", str(SWEEP_N), "--best-monotone", "--json"]


def sinks_argv(k: int, m: int) -> list[str]:
    return ["sinks", "--k", str(k), "--m", str(m), "--verify-claims",
            "--emit-conditions", "--json"]


def blocks(workload: str, seed: int):
    """Endless stream of operation blocks; a run executes whole blocks.

    sweep: one CLI operation with t drawn from SWEEP_POOL.
    sinks: the three SINK_CASES, in an order drawn per block.
    oracle: 100 in-process queries (15 G(n, p) graphs, one per (n, p);
    5 planted blocking graphs; 80 sequences with n stratified over
    100..1000), shuffled.
    """
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload == "sweep":
            t = rng.choice(SWEEP_POOL)
            yield [{"kind": "cli", "key": t, "argv": sweep_argv(t)}]
        elif workload == "sinks":
            cases = list(SINK_CASES)
            rng.shuffle(cases)
            yield [{"kind": "cli", "key": f"{k},{m}", "argv": sinks_argv(k, m)}
                   for k, m in cases]
        elif workload == "oracle":
            yield oracle_block(rng)
        else:
            raise ValueError(f"unknown workload {workload!r}")


def oracle_block(rng: random.Random) -> list[dict]:
    ops = [gnp_query(rng, n, p) for n, p in product(GRAPH_NS, GRAPH_PS)]
    ops += [planted_query(rng, rng.choice(PLANTED_NS)) for _ in range(PLANTED_PER_BLOCK)]
    lo, hi = SEQUENCE_NS
    for j in range(SEQUENCES_PER_BLOCK):
        n = lo + int((hi - lo) * (j + rng.random()) / SEQUENCES_PER_BLOCK)
        ops.append(sequence_query(rng, n))
    rng.shuffle(ops)
    return ops


def gnp_query(rng: random.Random, n: int, p: float) -> dict:
    edges = [[u, v] for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return {"kind": "graph", "n": n, "edges": edges}


def planted_query(rng: random.Random, n: int) -> dict:
    """K_i + (~K_b u K_c) on shuffled labels, with i, b, c >= 1.

    Its toughness is i/(b+1): every cutset holds the i join vertices,
    and removing anything more never adds components faster.  It is
    hamiltonian iff the b independent vertices and the clique fit
    between the join vertices on a cycle, i.e. iff i >= b+1.
    """
    i = rng.randint(1, n - 2)
    b = rng.randint(1, n - i - 1)
    c = n - i - b
    label = list(range(n))
    rng.shuffle(label)
    join_v, indep, clq = range(i), range(i, i + b), range(i + b, n)
    pairs = [(u, v) for u in join_v for v in range(u + 1, n)]
    pairs += [(u, v) for u in clq for v in clq if u < v]
    edges = sorted(sorted((label[u], label[v])) for u, v in pairs)
    return {"kind": "graph", "n": n, "edges": edges, "planted": [i, b, c]}


def sequence_query(rng: random.Random, n: int) -> dict:
    seq = random_graphical(rng, n)
    return {
        "kind": "sequence",
        "text": abbreviate(seq),
        "t_ge1": rng.choice(TOUGH_GE1_POOL),
        "t_le1": rng.choice(TOUGH_LE1_POOL),
        "k": rng.randint(1, 6),
    }


def random_graphical(rng: random.Random, n: int) -> list[int]:
    """Nondecreasing graphical sequence with entries in a random dense band."""
    while True:
        lo = int(n * rng.uniform(0.2, 0.6))
        entries = [rng.randint(lo, n - 1) for _ in range(n)]
        if sum(entries) % 2:
            entries[0] += 1 if entries[0] < n - 1 else -1
        if erdos_gallai(entries):
            return sorted(entries)


def erdos_gallai(entries) -> bool:
    """Erdos-Gallai in O(n log n), independent of the program's own test."""
    d = sorted(entries, reverse=True)
    n = len(d)
    if sum(d) % 2:
        return False
    prefix = [0]
    for x in d:
        prefix.append(prefix[-1] + x)
    m = n  # d[0..m-1] are the entries >= k
    for k in range(1, n + 1):
        while m and d[m - 1] < k:
            m -= 1
        cut = max(m, k)
        rhs = k * (k - 1) + k * (cut - k) + prefix[n] - prefix[cut]
        if prefix[k] > rhs:
            return False
    return True


def abbreviate(seq) -> str:
    runs: list[list[int]] = []
    for d in seq:
        if runs and runs[-1][0] == d:
            runs[-1][1] += 1
        else:
            runs.append([d, 1])
    return " ".join(f"{d}^{m}" if m > 1 else str(d) for d, m in runs)


# ---------------------------------------------------------------- gates

def check_op(op: dict, result: dict | None, expected: dict) -> str | None:
    """Gate one operation; ``expected`` maps op keys to stdout digests."""
    if result is None:
        return "operation did not complete"
    if op["kind"] == "cli":
        return check_cli(op, result, expected)
    if op["kind"] == "graph":
        return check_graph(op, result)
    return check_sequence(op, result)


def check_cli(op: dict, result: dict, expected: dict) -> str | None:
    if result["rc"] != 0:
        return f"exit code {result['rc']}"
    if result["digest"] != expected.get(op["key"]):
        return f"stdout digest {result['digest'][:12]} differs from the recorded one"
    payload = result["payload"]
    if op["argv"][0] == "theorem":
        return check_sweep_sinks(op, payload)
    claims = payload["claims"]
    if not (claims["claim2"] is True and claims["claim3"] is True):
        return f"claims {claims}"
    if any(g["count"] != g["expected_count"] for g in payload["groups"]):
        return "group counts differ from the partition counts"
    if payload["bound_holds"] is not True:
        return "sink bound does not hold"
    return None


def check_sweep_sinks(op: dict, payload: dict) -> str | None:
    """For t = 1/k, complete-degree sweep sinks equal the family sinks."""
    from toughseq.conditions import condition_from_json, frontier_sequence
    from toughseq.subposet import subposet_report

    t = Fraction(op["key"])
    if t.numerator != 1:
        return None
    n = payload["n"]
    swept = {tuple(frontier_sequence(condition_from_json(c))) for c in payload["conditions"]}
    complete = {s for s in swept if s[-1] == n - 1}
    family = {tuple(s) for s in subposet_report(t.denominator, n=n, verify_claims=False).sinks}
    if complete != family:
        return f"sweep sinks at t={t} differ from the family sinks"
    return None


def check_graph(op: dict, res: dict) -> str | None:
    from toughseq.graphs import Graph, components

    n, edges = op["n"], [tuple(e) for e in op["edges"]]
    tau = Fraction(*res["tau"])
    if res["witness"] is None:
        if len(edges) != n * (n - 1) // 2 or tau != n - 1:
            return "no witness cutset for a non-complete graph"
        k = n - 1
    else:
        cut = set(res["witness"])
        keep = [v for v in range(n) if v not in cut]
        index = {v: i for i, v in enumerate(keep)}
        rest = Graph(len(keep), [(index[u], index[v]) for u, v in edges
                                 if u in index and v in index])
        w = components(rest)
        if w < 2 or w != res["components"] or Fraction(len(cut), w) != tau:
            return f"witness cutset does not reproduce tau = {tau}"
        k = -(-2 * tau.numerator // tau.denominator)
    if res["tough_at_tau"] is not True or res["tough_above"] is not False:
        return "is_t_tough disagrees with tau"
    if res["k"] != k or res["k_connected"] is not True:
        return f"not {k}-connected although tau = {tau}"
    if res["hamiltonian"] and tau < 1:
        return "hamiltonian graph with tau < 1"
    if "planted" in op:
        i, b, _ = op["planted"]
        if tau != Fraction(i, b + 1):
            return f"planted graph has tau {i}/{b + 1}, got {tau}"
        if n <= HAMILTONIAN_LIMIT and res["hamiltonian"] != (i >= b + 1):
            return "wrong hamiltonicity for the planted graph"
    return None


def check_sequence(op: dict, res: dict) -> str | None:
    if res["graphical"] is not True:
        return "graphical sequence judged non-graphical"
    ge1 = res["tough_ge1"]
    if ge1["declared"]:
        return None
    seq = parse_abbreviated(op["text"])
    blocking = ge1["blocking_sequence"]
    if len(blocking) != len(seq) or any(x < y for x, y in zip(blocking, seq)):
        return "blocking sequence does not majorize the input"
    i, b, c = ge1["shape"]
    n = len(seq)
    shape_degrees = [i] * b + [n - b - 1] * c + [n - 1] * i
    if i + b + c != n or sorted(shape_degrees) != blocking:
        return "blocking sequence is not the degree sequence of its graph"
    # removing the i join vertices of K_i + (~K_b u K_c) leaves b + 1 components
    if b < 1 or c < 1 or Fraction(i, b + 1) >= Fraction(op["t_ge1"]):
        return "blocking graph is not shown to have toughness below t"
    return None


def parse_abbreviated(text: str) -> list[int]:
    out: list[int] = []
    for tok in text.split():
        d, _, m = tok.partition("^")
        out.extend([int(d)] * int(m or 1))
    return sorted(out)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
