import hashlib
import importlib
import json
import pkgutil
import random
from fractions import Fraction
from itertools import combinations

import pytest

import toughseq
from toughseq.graphs import (
    Graph,
    HAMILTONICITY_LIMIT,
    ToughnessResult,
    _spanning_masks,
    clique,
    components,
    edge_maximal_tough_sequences,
    edge_pairs,
    empty_graph,
    graph_to_json,
    is_hamiltonian,
    is_k_connected,
    is_t_tough,
    join,
    parse_graph,
    read_graph,
    tough_mask_table,
    toughness,
    union,
)
from toughseq.sequences import DegreeSequence


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def vertex_subsets(n):
    """Every proper subset of range(n): by size, then lexicographically."""
    for size in range(n):
        yield from combinations(range(n), size)


def components_without(g, xs):
    """omega(G - X), from a freshly built induced subgraph."""
    survivors = [v for v in range(g.n) if v not in xs]
    return components(Graph(len(survivors), [
        (a, b) for a, b in combinations(range(len(survivors)), 2)
        if g.rows[survivors[a]] >> survivors[b] & 1
    ]))


def engine_graphs():
    """All graphs with n <= 5, seeded random graphs with n = 6..9, then G(n, p) with n = 10..13.

    The G(n, p) graphs have witnesses of up to 8 vertices, where the
    toughness scan's early stop and its ratio ties are exercised.
    """
    for n in range(1, 6):
        for mask in range(1 << len(edge_pairs(n))):
            yield Graph.from_mask(n, mask)
    rng = random.Random(2)
    for n in range(6, 10):
        for _ in range(12):
            yield Graph.from_mask(n, rng.getrandbits(len(edge_pairs(n))))
    rng = random.Random(3)
    for n in range(10, 14):
        for p in (0.3, 0.5, 0.8):
            yield Graph(n, [pair for pair in edge_pairs(n) if rng.random() < p])


def test_construction_examples():
    g = join(clique(1), union(empty_graph(1), clique(3)))
    assert g.degree_sequence() == (1, 3, 3, 3, 4)
    assert union(clique(3), clique(2)).degree_sequence() == (1, 1, 2, 2, 2)
    c4 = join(empty_graph(2), empty_graph(2))
    assert c4.degree_sequence() == (2, 2, 2, 2)
    assert is_hamiltonian(c4)
    with pytest.raises(ValueError):
        clique(0)
    with pytest.raises(ValueError):
        union(clique(20), clique(20))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])  # loop
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])  # duplicate
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])  # out of range
    # every builder refuses more than MAX_VERTICES = 24 vertices, and fewer than
    # one, with the same message
    too_large = (lambda: clique(25), lambda: empty_graph(25), lambda: Graph(25),
                 lambda: union(clique(12), clique(13)), lambda: join(clique(20), empty_graph(5)))
    too_small = (lambda: clique(0), lambda: clique(-2), lambda: empty_graph(0), lambda: Graph(0),
                 lambda: Graph.from_rows(0, ()), lambda: Graph.from_mask(0, 0), lambda: Graph.from_mask(-1, 0))
    too_many_tables = (lambda: tough_mask_table(8, 1), lambda: edge_maximal_tough_sequences(8, 1))
    for builds, message in ((too_large, "graph too large: 25 > 24"),
                            (too_small, "graph needs at least one vertex"),
                            (too_many_tables, "toughness tables limited to n <= 7"),
                            # a mask has one bit per vertex pair: 3 bits at n = 3
                            ((lambda: Graph.from_mask(3, -1),), "edge mask -1 out of range for n=3"),
                            ((lambda: Graph.from_mask(3, 8),), "edge mask 8 out of range for n=3")):
        for build in builds:
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == message
    for g in (clique(24), empty_graph(24), Graph(24), union(clique(12), clique(12)),
              join(clique(20), empty_graph(4))):
        assert g.n == 24
    # equal graphs hash alike, and repr shows the edge list
    assert hash(Graph(3, [(0, 1)])) == hash(Graph.from_mask(3, 1))
    assert repr(Graph(3, [(1, 2), (0, 1)])) == "Graph(3, [(0, 1), (1, 2)])"


def test_join_union_degree_arithmetic():
    # K_i + (K~_a u K_b) has degrees i^a (b+i-1)^b (n-1)^i
    rng = random.Random(4)
    for _ in range(30):
        i, a, b = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        g = join(clique(i), union(empty_graph(a), clique(b)))
        n = i + a + b
        expected = DegreeSequence([i] * a + [b + i - 1] * b + [n - 1] * i)
        assert g.degree_sequence() == expected


def test_components_examples():
    assert components(union(clique(3), clique(2))) == 2
    assert components(clique(5)) == 1
    assert components(empty_graph(4)) == 4


def test_toughness_spot_values():
    assert toughness(clique(4)).value == 3
    r = toughness(path(3))
    assert r.value == Fraction(1, 2)
    assert r.witness_cutset == (1,)
    assert r.witness_components == 2
    r = toughness(join(clique(2), union(empty_graph(2), clique(2))))
    assert r.value == Fraction(2, 3)
    assert r.witness_cutset == (0, 1)
    assert toughness(cycle(5)).value == 1


def test_toughness_of_complete_graphs():
    for n in range(1, 9):
        r = toughness(clique(n))
        assert r.value == n - 1
        assert r.witness_cutset is None and r.witness_components is None


def test_toughness_disconnected_is_zero():
    r = toughness(union(clique(3), clique(2)))
    assert r.value == 0
    assert r.witness_cutset == ()
    assert r.witness_components == 2


def test_toughness_zero_iff_disconnected():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(2, 7)
        g = Graph.from_mask(n, rng.getrandbits(len(edge_pairs(n))))
        assert (toughness(g).value == 0) == (components(g) > 1)


def test_toughness_witness_deterministic():
    g = cycle(4)  # both {0,2} and {1,3} achieve ratio 1
    first = toughness(g)
    assert first.witness_cutset == (0, 2)
    for _ in range(3):
        again = toughness(g)
        assert again == first


def test_is_t_tough_examples():
    assert is_t_tough(clique(4), 3)
    assert not is_t_tough(union(clique(3), clique(2)), Fraction(1, 4))
    assert not is_t_tough(join(clique(2), union(empty_graph(2), clique(2))), 1)
    assert is_t_tough(empty_graph(1), 0)


def test_is_t_tough_matches_definition_on_samples():
    rng = random.Random(11)
    ts = [Fraction(p, q) for p in range(1, 5) for q in range(1, 5)]

    def definitional(g, t):
        for xs in vertex_subsets(g.n):
            w = components_without(g, xs)
            if w > 1 and t * w > len(xs):
                return False
        if g.is_complete():
            return g.n - 1 >= t
        return True

    for n in range(2, 8):
        graphs = []
        if n <= 4:
            graphs = [Graph.from_mask(n, m) for m in range(1 << len(edge_pairs(n)))]
        else:
            bits = len(edge_pairs(n))
            graphs = [Graph.from_mask(n, rng.getrandbits(bits)) for _ in range(25)]
        for g in graphs:
            for t in ts:
                assert is_t_tough(g, t) == definitional(g, t), (n, g.edges(), t)


def test_hamiltonicity():
    assert is_hamiltonian(cycle(5))
    assert not is_hamiltonian(join(clique(1), union(empty_graph(1), clique(3))))
    assert not is_hamiltonian(path(4))
    assert not is_hamiltonian(clique(2))
    assert is_hamiltonian(clique(3))
    assert not is_hamiltonian(union(clique(3), clique(3)))  # minimum degree 2, disconnected
    with pytest.raises(ValueError):
        is_hamiltonian(clique(HAMILTONICITY_LIMIT + 1))


def test_k_connectivity():
    assert is_k_connected(clique(5), 4)
    assert not is_k_connected(clique(5), 5)
    assert is_k_connected(path(4), 1)
    assert not is_k_connected(path(4), 2)
    assert not is_k_connected(union(clique(2), clique(2)), 1)
    assert is_k_connected(cycle(5), 2)
    assert not is_k_connected(cycle(5), 3)
    assert is_k_connected(empty_graph(1), 0)
    with pytest.raises(ValueError, match="k must be >= 0"):
        is_k_connected(clique(3), -1)


def test_cutset_engine_against_definitions():
    for g in engine_graphs():
        n = g.n
        cuts = [(xs, w) for xs in vertex_subsets(n)
                if (w := components_without(g, xs)) > 1]
        connectivity = min((len(xs) for xs, _ in cuts), default=n - 1)
        for k in range(n + 2):
            assert is_k_connected(g, k) == (k <= connectivity), (g, k)

        result = toughness(g)
        if cuts:
            # min() keeps the first minimal ratio in scan order
            xs, w = min(cuts, key=lambda c: Fraction(len(c[0]), c[1]))
            assert result == ToughnessResult(Fraction(len(xs), w), xs, w), g
        else:
            assert result == ToughnessResult(Fraction(n - 1), None, None), g
        assert is_t_tough(g, result.value)
        assert not is_t_tough(g, result.value + Fraction(1, n * n))


# (count of tough graphs, SHA-256 of the table) at n = 6, one entry per t of
# ORACLE_TS in test_subposet.py, recorded from the earlier row-at-a-time fill
N6_TABLES = {
    (1, 4): (26698, "8ef097a1fb7c2bd873ca0b56e42198432fc32597ada4ba5a654005c7edd66391"),
    (1, 3): (26518, "7cc34f538cc4ae0f9f7a6823d0f0b6d0fd5db01286568127b5185b82ec68a35e"),
    (2, 5): (24118, "692ef9e2f4c56078ef1b01caa632891d33ea1e03cec5fe39134ade3044853614"),
    (1, 2): (24118, "692ef9e2f4c56078ef1b01caa632891d33ea1e03cec5fe39134ade3044853614"),
    (2, 3): (11338, "9730a23ced54a0cddc23ec84f532d21218e59809fcac0b9e7b65c3a40f4753db"),
    (3, 4): (10078, "e2219c6aad185dc015a7d70eb9d8fa59a469de5c99027bd7e04828cc9706b4e9"),
    (1, 1): (10078, "e2219c6aad185dc015a7d70eb9d8fa59a469de5c99027bd7e04828cc9706b4e9"),
    (4, 3): (1618, "84d09a569f16dab2d44c57ada69290561333efe083beb4a9434bbe69eefda704"),
    (3, 2): (1618, "84d09a569f16dab2d44c57ada69290561333efe083beb4a9434bbe69eefda704"),
    (2, 1): (76, "7a1d617feab6c17223bbc01f848763362b913fe95b7ec74d22c6353aa4bd78b7"),
    (5, 2): (1, "09f9729b31669c63f2d85f13ae9bf53979cfba4317b99cb2fb7637c8895e3e2a"),
    (3, 1): (1, "09f9729b31669c63f2d85f13ae9bf53979cfba4317b99cb2fb7637c8895e3e2a"),
    (7, 1): (0, "c35020473aed1b4642cd726cad727b63fff2824ad68cedd7ffb73c7cbd890479"),
}


def test_tough_table_matches_direct_checks():
    for n in (1, 2, 3, 4, 5):
        for p, q in N6_TABLES:
            t = Fraction(p, q)
            table = tough_mask_table(n, t)
            assert len(table) == 1 << len(edge_pairs(n))
            for mask in range(len(table)):
                g = Graph.from_mask(n, mask)
                assert bool(table[mask]) == is_t_tough(g, t), (n, p, q, mask)
            # the spanning shapes are not t-tough, and by the cutset engine adding any
            # missing edge makes a shape t-tough exactly when no other shape contains it
            shapes = set(_spanning_masks(n, t))
            maximal = set()
            for s in shapes:
                assert not is_t_tough(Graph.from_mask(n, s), t), (n, p, q, s)
                grown = [s | 1 << b for b in range(len(edge_pairs(n))) if not s >> b & 1]
                edge_maximal = all(is_t_tough(Graph.from_mask(n, m), t) for m in grown)
                assert edge_maximal == (not any(s | o == o != s for o in shapes)), (n, p, q, s)
                if edge_maximal:
                    maximal.add(Graph.from_mask(n, s).degree_sequence())
            assert edge_maximal_tough_sequences(n, t) == tuple(sorted(maximal)), (n, p, q)
    rng = random.Random(3)
    for (p, q), pinned in N6_TABLES.items():
        table = tough_mask_table(6, Fraction(p, q))
        assert (table.count(1), hashlib.sha256(table).hexdigest()) == pinned, (p, q)
        for _ in range(40):
            mask = rng.getrandbits(len(edge_pairs(6)))
            assert bool(table[mask]) == is_t_tough(Graph.from_mask(6, mask), Fraction(p, q))
    for n in (0, -3):
        for oracle in (tough_mask_table, edge_maximal_tough_sequences):
            with pytest.raises(ValueError, match="n must be >= 1"):
                oracle(n, 1)


# the same at n = 7; the first seven entries were recorded from the fill that
# settled one mask at a time, the rest from the row-at-a-time fill
N7_TABLES = {
    (1, 3): (1859179, "ab97fcbe0f5786f8bc43e6003d0a2c2e573757d4ed365b4cfc3e1638554480b0"),
    (1, 2): (1765372, "b3dc83605b8e631c58b780fa975c4f3dd584f97662687d87b7da048b4c27a583"),
    (2, 3): (1011906, "9382486a764f96c71982b20963970e13f9ec73e7a02c4832280255736b66b36d"),
    (3, 4): (923916, "437cf58e56b0d88d5256a142d65c1576654295f9da1a096fdeca0ebe97fc0e3e"),
    (1, 1): (903476, "92602d243c7e67eeac1b6adf3e932bf24e93684c78ee46b3af2a8ccb7acd809e"),
    (3, 2): (91431, "0722c3aa6f8127ded37eeeafbdb35fd50e8363dcc5a9b49b121c4c6722bfc6f5"),
    (2, 1): (13696, "64c09f6d32955bf4b52351b20e1f3aeaed0916b6263b290221f7fece679eaa87"),
    (1, 4): (1865934, "7a083e3d441ae8361e7bf60ad3a3db76eb7924990fe068f917c7274ab4248e25"),
    (2, 5): (1766674, "8936f831dd13f1dc7987f0065710003725fac434f600e39e9c6ddba37a5e209d"),
    (4, 3): (202976, "40077b0720996cf321bc1d86fd5f1933eeb6dcb1bf5f4d761cbe9c4ab0e0b940"),
    (5, 2): (232, "f7806c6fffc07f6e703997e68a6464a77bdb5e9c06c8c0933d27d4b3926ea66a"),
    (3, 1): (1, "c04bff05ea31e406be1ddce1854262d6ad700f8e0dadd4f13c77356df56dddc1"),
    (7, 1): (0, "5647f05ec18958947d32874eeb788fa396a05d0bab7c1b71f112ceb7e9b31eee"),
}


@pytest.mark.parametrize("p,q", sorted(N7_TABLES))
def test_tough_table_n7_pinned(p, q):
    table = tough_mask_table(7, Fraction(p, q))
    assert len(table) == 1 << 21
    assert (table.count(1), hashlib.sha256(table).hexdigest()) == N7_TABLES[p, q]
    rng = random.Random(7 * p + q)
    for _ in range(200):
        mask = rng.getrandbits(21)
        assert bool(table[mask]) == is_t_tough(Graph.from_mask(7, mask), Fraction(p, q))


def test_library_keeps_no_cache():
    # tables and sweeps are built on every call, so a caller scanning t holds only
    # what it keeps; the tests' one cache is conftest's sweep(n)
    modules = [importlib.import_module(f"toughseq.{info.name}")
               for info in pkgutil.iter_modules(toughseq.__path__)]
    assert len(modules) == 7
    cached = []
    for module in modules:
        owners = [module, *(value for value in vars(module).values()
                             if isinstance(value, type) and value.__module__ == module.__name__)]
        cached += [f"{owner.__name__}.{name}" for owner in owners
                   for name, value in vars(owner).items() if hasattr(value, "cache_info")]
    assert cached == []


def test_graph_file_round_trip(tmp_path):
    g = join(clique(2), union(empty_graph(2), clique(2)))
    text = f"{g.n}\n" + "\n".join(f"{u} {v}" for u, v in g.edges()) + "\n"
    fp = tmp_path / "g.txt"
    fp.write_text(text)
    assert read_graph(fp) == g
    jp = tmp_path / "g.json"
    jp.write_text(json.dumps(graph_to_json(g)))
    assert read_graph(jp) == g


def test_parse_graph_rejects_json_without_n():
    with pytest.raises(ValueError, match="JSON graph"):
        parse_graph(json.dumps({"edges": [[0, 1]]}))


def test_parse_graph_rejects_json_edges_not_a_list():
    with pytest.raises(ValueError, match="JSON graph"):
        parse_graph(json.dumps({"n": 3, "edges": 5}))


def test_parse_graph_rejects_json_booleans():
    for data in ({"n": True, "edges": []}, {"n": 3, "edges": [[False, 1]]}):
        with pytest.raises(ValueError, match="JSON graph"):
            parse_graph(json.dumps(data))


def test_parse_graph_rejects_deeply_nested_json():
    text = '{"n": ' + "[" * 100_000 + "]" * 100_000 + "}"
    with pytest.raises(ValueError, match="JSON graph"):
        parse_graph(text)


def test_parse_graph_errors():
    with pytest.raises(ValueError):
        parse_graph("")
    with pytest.raises(ValueError):
        parse_graph("abc\n0 1\n")
    # every malformed edge line, a wrong field count or a non-integer field, names the line
    for text, line in (("3\n0 1 2\n", "0 1 2"), ("3\n0 x\n", "0 x"), ("3\n0 1.5\n", "0 1.5")):
        with pytest.raises(ValueError) as info:
            parse_graph(text)
        assert str(info.value) == f"expected 'u v', got {line!r}"
    with pytest.raises(ValueError):
        parse_graph("3\n0 1\n1 0\n")  # duplicate edge
