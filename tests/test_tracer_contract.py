"""The benchmark tracer's contract with the library.

perfbench/tracing.py replaces library functions by (module, attribute)
name and its count hooks call len() on what they take and return, so
renaming one of them, or handing one a generator, breaks traced
benchmark runs without failing any library test.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_boundaries_resolve_to_library_callables():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
