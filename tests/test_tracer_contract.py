"""The benchmark's contract with the library.

perfbench/tracing.py replaces library functions by (module, attribute)
name and its count hooks call len() on what they take and return, so
renaming one of them, or handing one a generator, breaks traced
benchmark runs without failing any library test.  The benchmark also
gates each sweep and sinks command on the SHA-256 of its stdout,
recorded in perfbench/expected.json.
"""

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

from toughseq.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_boundaries_resolve_to_library_callables():
    tracing = _load("tracing")
    for module, attr, _, _ in tracing.LIBRARY_BOUNDARIES:
        target = getattr(importlib.import_module(f"toughseq.{module}"), attr, None)
        assert callable(target), (module, attr)


def test_layer_probe_traces_the_sink_layers():
    probe = subprocess.run([sys.executable, str(PERFBENCH / "worker.py"), "probe"],
                           capture_output=True, text=True, timeout=60)
    assert probe.returncode == 0, probe.stderr
    names = {span[0] for span in json.loads(probe.stdout)["spans"]}
    assert {"subposet.compute_sinks", "subposet.enumerate_family",
            "subposet.sweep_sinks"} <= names


def test_benchmark_commands_print_their_recorded_stdout():
    # (4, 9) takes about 4 s and is left to the benchmark run itself
    workloads = _load("workloads")
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    cases = [("sweep", t, workloads.sweep_argv(t)) for t in workloads.SWEEP_POOL]
    cases += [("sinks", f"{k},{m}", workloads.sinks_argv(k, m)) for k, m in ((2, 15), (3, 9))]
    for workload, key, argv in cases:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        assert (code, digest) == (0, expected[workload][key]), argv
