"""toughseq benchmark: one closed-loop client, one operation at a time.

    python3 perfbench/run.py --workload {sweep,sinks,oracle} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The program is imported from
``src/`` of that checkout.  A run executes whole blocks of operations
(see ``workloads.blocks``) until the timed total reaches --seconds, then
gates every operation's output, and prints each metric with its unit.
The last line of stdout is one JSON object: correct, attempted, failed
and metrics (end-to-end with --trace 0, per-layer with --trace 1).
The traced run writes its spans to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 7
CLI_TIMEOUT_S = 150

# name -> (unit, better); bounds live in BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_s": ("s", "lower"),
    "op_p90_s": ("s", "lower"),
    "graphs_per_s": ("1/s", "higher"),
    "members_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_ratio": ("ratio", "higher"),
}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TOUGHSEQ_MAX_N"}
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(env: dict) -> float:
    """Median wall time of a fresh interpreter importing toughseq.cli."""
    cmd = [sys.executable, "-c", "import toughseq.cli"]
    subprocess.run(cmd, env=env, check=True)  # leaves the bytecode cache warm
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class CliClient:
    """Each operation is a fresh process; traced ones run worker.py cli."""

    def __init__(self, env: dict, traced: bool):
        self.env = env
        self.traced = traced
        self.reports: list[dict] = []

    def run(self, op_id: int, op: dict):
        if self.traced:
            cmd = [sys.executable, str(HERE / "worker.py"), "cli", str(op_id), *op["argv"]]
        else:
            cmd = [sys.executable, "-m", "toughseq.cli", *op["argv"]]
        try:
            proc = subprocess.run(cmd, capture_output=True, env=self.env,
                                  timeout=CLI_TIMEOUT_S, cwd=ROOT)
        except subprocess.TimeoutExpired:
            return None
        stdout, rc = proc.stdout, proc.returncode
        if self.traced:
            head, _, stdout = stdout.partition(b"\n")
            try:
                report = json.loads(head)
            except ValueError:
                return None
            self.reports.append(report)
            rc = report["rc"]
        return {"rc": rc, "stdout": stdout}

    def close(self) -> None:
        pass


class OracleClient:
    """One worker process; each query is sent after the previous answer."""

    FIELDS = {"graph": ("kind", "n", "edges"),
              "sequence": ("kind", "text", "t_ge1", "t_le1", "k")}

    def __init__(self, env: dict, traced: bool):
        cmd = [sys.executable, str(HERE / "worker.py"), "oracle"]
        if traced:
            cmd.append("--trace")
        self.traced = traced
        self.reports: list[dict] = []
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, text=True, cwd=ROOT)
        if self.proc.stdout.readline().strip() != "ready":
            raise RuntimeError("oracle worker did not start")

    def run(self, op_id: int, op: dict):
        query = {key: op[key] for key in self.FIELDS[op["kind"]]}
        query["id"] = op_id
        self.proc.stdin.write(json.dumps(query) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("oracle worker exited")
        answer = json.loads(line)
        return None if "error" in answer else answer

    def close(self) -> None:
        try:
            if self.traced:
                self.proc.stdin.write(json.dumps({"kind": "end"}) + "\n")
                self.proc.stdin.flush()
                self.reports.append(json.loads(self.proc.stdout.readline()))
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def run_loop(client, workload: str, seed: int, seconds: float):
    """Whole blocks until the timed total reaches `seconds`; inputs are made untimed."""
    ops, results, latencies = [], [], []
    timed = 0.0
    for block in workloads.blocks(workload, seed):
        block_start = time.perf_counter()
        for op in block:
            start = time.perf_counter()
            results.append(client.run(len(ops), op))
            latencies.append(time.perf_counter() - start)
            ops.append(op)
        timed += time.perf_counter() - block_start
        if timed >= seconds:
            return ops, results, latencies, timed


def expected_digests(workload: str) -> dict:
    """Stdout digests of the sweep and sinks commands recorded at the seed commit."""
    return json.loads((HERE / "expected.json").read_text()).get(workload, {})


def gate(ops, results, expected: dict) -> list[str | None]:
    verdicts = []
    for op, res in zip(ops, results):
        if res is not None and op["kind"] == "cli":
            res["digest"] = workloads.digest(res["stdout"])
            try:
                res["payload"] = json.loads(res["stdout"])
            except ValueError:
                res["payload"] = None
        verdicts.append(workloads.check_op(op, res, expected))
    return verdicts


def work_items(op: dict, res: dict | None) -> tuple[int, int]:
    """(graphs, members) one completed operation carried; see README."""
    if res is None:
        return 0, 0
    if op["kind"] == "graph":
        return 1, 0
    if op["kind"] == "sequence":
        return 0, 1
    if op["argv"][0] == "theorem":
        return workloads.SWEEP_MASKS, workloads.SWEEP_MASKS
    size = (res["payload"] or {}).get("family_size", 0)
    return size, size


def end_to_end(ops, results, latencies, timed, failures, setup_s) -> dict:
    graphs = members = 0
    for op, res in zip(ops, results):
        g, m = work_items(op, res)
        graphs += g
        members += m
    p90 = (statistics.quantiles(latencies, n=10, method="inclusive")[8]
           if len(latencies) > 1 else latencies[0])
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(ops) / timed,
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": p90,
        "graphs_per_s": graphs / timed,
        "members_per_s": members / timed,
        "peak_rss_mb": rss_kb / 1024,
        "ok_ratio": (len(ops) - failures) / len(ops),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _) in END_TO_END.items()}


def traced_metrics(client, env, info, latencies) -> dict:
    """Merge the children's spans, add the layer probe, write the trace file."""
    spans, counts = [], {}
    for report in client.reports:
        base = len(spans)
        for name, start, end, parent, op in report["spans"]:
            spans.append((name, start, end, None if parent is None else parent + base, op))
        for key, value in report["counts"].items():
            counts[key] = counts.get(key, 0) + value
    span_cost = statistics.median(r["span_cost_s"] for r in client.reports)
    probe = subprocess.run([sys.executable, str(HERE / "worker.py"), "probe"],
                           capture_output=True, env=env, check=True, cwd=ROOT, timeout=120)
    probe_spans = json.loads(probe.stdout)["spans"]
    metrics = tracing.per_layer_metrics(spans, counts, latencies, span_cost, probe_spans)
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{info['workload']}-{info['seed']}.json"
    trace_file.write_text(json.dumps({
        "env": info,
        "fields": ["name", "start", "end", "parent", "op"],
        "spans": spans, "probe_spans": probe_spans, "counts": counts,
    }))
    print(f"trace written to {trace_file.relative_to(ROOT)}")
    return metrics


def environment(workload: str, seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "toughseq").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "toughseq" / "cli.py").is_file():
        print(f"error: no toughseq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = child_env()
    traced = bool(args.trace)

    setup_s = None if traced else measure_setup(env)
    client_type = OracleClient if args.workload == "oracle" else CliClient
    client = client_type(env, traced)
    try:
        ops, results, latencies, timed = run_loop(client, args.workload, args.seed, args.seconds)
    finally:
        client.close()

    verdicts = gate(ops, results, expected_digests(args.workload))
    failures = 0
    for i, (op, verdict) in enumerate(zip(ops, verdicts)):
        if verdict is not None:
            failures += 1
            print(f"FAILED op {i} ({op.get('key', op['kind'])}): {verdict}", file=sys.stderr)

    info = environment(args.workload, args.seed)
    if traced:
        metrics = traced_metrics(client, env, info, latencies)
    else:
        metrics = end_to_end(ops, results, latencies, timed, failures, setup_s)
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"env": info}))
    print(json.dumps({"correct": failures == 0, "attempted": len(ops),
                      "failed": failures, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
