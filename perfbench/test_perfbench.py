"""Tests of the benchmark itself (stdlib unittest).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import io
import json
import random
import subprocess
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from toughseq import cli  # noqa: E402
from toughseq.sequences import is_graphical  # noqa: E402


def first_blocks(workload: str, seed: int, count: int) -> list:
    stream = workloads.blocks(workload, seed)
    return [next(stream) for _ in range(count)]


def cli_result(argv: list[str]) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": buf.getvalue().encode()}


class InputsTest(unittest.TestCase):
    def test_cli_inputs_depend_only_on_the_seed(self):
        for workload in ("sweep", "sinks"):
            for seed in range(4):
                before = first_blocks(workload, seed, 6)
                random.seed(seed + 99)  # global state must not leak in
                self.assertEqual(before, first_blocks(workload, seed, 6))
            streams = {json.dumps(first_blocks(workload, seed, 3)) for seed in range(10)}
            self.assertGreater(len(streams), 1, workload)

    def test_oracle_inputs_depend_only_on_the_seed(self):
        self.assertEqual(first_blocks("oracle", 5, 1), first_blocks("oracle", 5, 1))
        self.assertNotEqual(first_blocks("oracle", 5, 1), first_blocks("oracle", 6, 1))

    def test_oracle_block_shape(self):
        (block,) = first_blocks("oracle", 0, 1)
        kinds = [op["kind"] for op in block]
        self.assertEqual(len(block), 100)
        self.assertEqual(kinds.count("sequence"), workloads.SEQUENCES_PER_BLOCK)
        self.assertEqual(sum("planted" in op for op in block), workloads.PLANTED_PER_BLOCK)

    def test_erdos_gallai_matches_is_graphical(self):
        rng = random.Random(1)
        for _ in range(3000):
            n = rng.randint(1, 9)
            seq = sorted(rng.randrange(n) for _ in range(n))
            self.assertEqual(workloads.erdos_gallai(seq), is_graphical(seq), seq)


class GateTest(unittest.TestCase):
    op = {"kind": "cli", "key": "2,9", "argv": workloads.sinks_argv(2, 9)}

    def test_sinks_output_passes_with_its_digest(self):
        res = cli_result(self.op["argv"])
        expected = {"2,9": workloads.digest(res["stdout"])}
        self.assertEqual(run.gate([self.op], [res], expected), [None])

    def test_corrupted_digest_is_a_failed_operation(self):
        res = cli_result(self.op["argv"])
        good = workloads.digest(res["stdout"])
        corrupted = {"2,9": good[:-1] + ("0" if good[-1] != "0" else "1")}
        (verdict,) = run.gate([self.op], [res], corrupted)
        self.assertIn("digest", verdict)

    def test_recorded_digests_cover_every_cli_operation(self):
        for workload in ("sweep", "sinks"):
            keys = {op["key"] for block in first_blocks(workload, 0, 20) for op in block}
            self.assertLessEqual(keys, set(run.expected_digests(workload)))

    def test_missing_result_is_a_failed_operation(self):
        self.assertIsNotNone(workloads.check_op(self.op, None, {}))


class OracleGateTest(unittest.TestCase):
    lib = worker.layer_functions(None)

    def planted(self):
        rng = random.Random(3)
        return [workloads.planted_query(rng, n) for n in (9, 10, 11, 12)]

    def test_true_answers_pass(self):
        for q in self.planted():
            self.assertIsNone(workloads.check_graph(q, worker.graph_query(self.lib, q)))

    def test_wrong_graph_answers_fail(self):
        for q in self.planted():
            right = worker.graph_query(self.lib, q)
            num, den = right["tau"]
            tampered = [
                {**right, "tau": [num + 1, den]},
                {**right, "tough_above": True},
                {**right, "k_connected": False},
                {**right, "components": right["components"] + 1},
                {**right, "hamiltonian": not right["hamiltonian"]},
            ]
            for wrong in tampered:
                self.assertIsNotNone(workloads.check_graph(q, wrong), wrong)

    def test_wrong_planted_tau_fails_even_with_a_consistent_witness(self):
        q = self.planted()[0]
        i, b, c = q["planted"]
        bigger = {**q, "planted": [i, b + 1, c - 1]}
        self.assertIsNotNone(workloads.check_graph(bigger, worker.graph_query(self.lib, q)))

    def test_wrong_sequence_answers_fail(self):
        q = {"kind": "sequence", "text": "2^2 3^3 5", "t_ge1": "1", "t_le1": "1/2", "k": 2}
        right = worker.sequence_query(self.lib, q)
        self.assertIsNone(workloads.check_sequence(q, right))
        ge1 = right["tough_ge1"]
        lowered = [ge1["blocking_sequence"][0] - 1] + ge1["blocking_sequence"][1:]
        tampered = [
            {**right, "graphical": False},
            {**right, "tough_ge1": {**ge1, "blocking_sequence": lowered}},
            {**right, "tough_ge1": {**ge1, "shape": [3, 1, 2]}},
        ]
        for wrong in tampered:
            self.assertIsNotNone(workloads.check_sequence(q, wrong), wrong)


class SpecTest(unittest.TestCase):
    def test_benchmark_json_lists_the_printed_metrics(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
        layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
        self.assertEqual(e2e, run.END_TO_END)
        self.assertEqual(layer, {k: v[:2] for k, v in tracing.PER_LAYER.items()})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_layer_probe_reaches_every_traced_layer(self):
        probe = subprocess.run([sys.executable, str(HERE / "worker.py"), "probe"],
                               capture_output=True, check=True, timeout=120)
        spans = json.loads(probe.stdout)["spans"]
        metrics = tracing.per_layer_metrics([], {}, [1.0], 0.0, spans)
        self.assertEqual(set(metrics), set(tracing.PER_LAYER))
        for name, (unit, _, how) in tracing.PER_LAYER.items():
            if how[0] in ("total", "self"):
                self.assertGreater(metrics[name]["value"], 0, name)

    def test_self_time_subtracts_direct_children(self):
        spans = [("a", 0.0, 10.0, None, 0), ("b", 1.0, 4.0, 0, 0), ("c", 2.0, 3.0, 1, 0)]
        total, self_time, calls = tracing.span_times(spans)
        self.assertEqual(total["a"], 10.0)
        self.assertEqual(self_time["a"], 7.0)
        self.assertEqual(self_time["b"], 2.0)
        self.assertEqual(calls["c"], 1)


if __name__ == "__main__":
    unittest.main()
