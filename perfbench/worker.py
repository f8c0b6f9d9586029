"""Child process of the benchmark harness; imports toughseq from the checkout.

    worker.py oracle [--trace]   answer JSON-line queries on stdin, one at a time
    worker.py cli OP_ID ARGV...  run toughseq.cli.main(ARGV) in process, traced
    worker.py probe              call every traced layer once on a tiny input

In the traced modes the last JSON line written holds the spans and
counts; ``cli`` then writes the command's own stdout after it.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import Tracer, count_calls, count_verdict  # noqa: E402
from workloads import HAMILTONIAN_LIMIT  # noqa: E402


def layer_functions(tracer: Tracer | None) -> dict:
    """The library calls an oracle query makes, wrapped when tracing."""
    from toughseq import checkers, graphs, sequences

    table = {
        "build": ("graphs.build", graphs.Graph, None),
        "toughness": ("graphs.toughness", graphs.toughness,
                      count_calls("graphs.toughness.calls")),
        "is_t_tough": ("graphs.is_t_tough", graphs.is_t_tough, None),
        "is_k_connected": ("graphs.is_k_connected", graphs.is_k_connected, None),
        "is_hamiltonian": ("graphs.is_hamiltonian", graphs.is_hamiltonian, None),
        "parse": ("sequences.parse", sequences.parse_sequence, None),
        "is_graphical": ("sequences.is_graphical", sequences.is_graphical,
                         count_calls("sequences.is_graphical.calls")),
        "tough_ge1": ("checkers.tough_ge1", checkers.check_tough_ge1, count_verdict),
        "tough_le1": ("checkers.tough_le1", checkers.check_tough_le1, count_verdict),
        "hamiltonian": ("checkers.hamiltonian", checkers.check_hamiltonian_chvatal,
                        count_verdict),
        "kconnected": ("checkers.kconnected", checkers.check_kconnected, count_verdict),
    }
    if tracer is None:
        return {key: fn for key, (_, fn, _) in table.items()}
    return {key: tracer.wrap(name, fn, count) for key, (name, fn, count) in table.items()}


def graph_query(lib: dict, q: dict) -> dict:
    """toughness, is_t_tough at tau and just above, is_k_connected, is_hamiltonian."""
    n = q["n"]
    g = lib["build"](n, q["edges"])
    result = lib["toughness"](g)
    tau = result.value
    at_tau = lib["is_t_tough"](g, tau)
    above = lib["is_t_tough"](g, tau + Fraction(1, n * n))
    if result.witness_cutset is None:
        k = n - 1
    else:
        k = -(-2 * tau.numerator // tau.denominator)
    return {
        "tau": [tau.numerator, tau.denominator],
        "witness": None if result.witness_cutset is None else list(result.witness_cutset),
        "components": result.witness_components,
        "tough_at_tau": at_tau,
        "tough_above": above,
        "k": k,
        "k_connected": lib["is_k_connected"](g, k),
        "hamiltonian": lib["is_hamiltonian"](g) if n <= HAMILTONIAN_LIMIT else None,
    }


def sequence_query(lib: dict, q: dict) -> dict:
    """Parse, is_graphical, then the four checkers."""
    seq = lib["parse"](q["text"])
    graphical = lib["is_graphical"](seq)
    ge1 = lib["tough_ge1"](seq, Fraction(q["t_ge1"]))
    return {
        "graphical": graphical,
        "tough_ge1": {
            "declared": ge1.declared,
            "blocking_sequence": None if ge1.blocking_sequence is None
            else list(ge1.blocking_sequence),
            "shape": None if ge1.blocking_shape is None else list(ge1.blocking_shape),
        },
        "tough_le1": {"declared": lib["tough_le1"](seq, Fraction(q["t_le1"])).declared},
        "hamiltonian": {"declared": lib["hamiltonian"](seq).declared},
        "kconnected": {"declared": lib["kconnected"](seq, q["k"]).declared},
    }


def serve_oracle(traced: bool) -> None:
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.patch_library()
    lib = layer_functions(tracer)
    out = sys.stdout
    out.write("ready\n")
    out.flush()
    for line in sys.stdin:
        q = json.loads(line)
        if q["kind"] == "end":
            break
        if tracer is not None:
            tracer.op = q["id"]
        try:
            answer = graph_query(lib, q) if q["kind"] == "graph" else sequence_query(lib, q)
        except Exception as exc:  # reported as a failed operation, the stream goes on
            answer = {"error": repr(exc)}
        out.write(json.dumps(answer) + "\n")
        out.flush()
    if tracer is not None:
        out.write(json.dumps(tracer.report()) + "\n")
        out.flush()


def traced_cli(op_id: int, argv: list[str]) -> None:
    from toughseq import cli

    tracer = Tracer()
    tracer.op = op_id
    tracer.patch_library()
    main = tracer.wrap("cli.main", cli.main)
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(argv)
    out = buf.getvalue().encode()
    tracer.counts["cli.output_bytes"] += len(out)
    report = tracer.report()
    report["rc"] = rc
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()
    sys.stdout.buffer.write(out)
    sys.stdout.flush()


def probe() -> None:
    """One small call per layer, so no traced layer reads a constant 0 s."""
    from toughseq import cli

    tracer = Tracer()
    tracer.op = "probe"
    tracer.patch_library()
    main = tracer.wrap("cli.main", cli.main)
    with redirect_stdout(io.StringIO()):
        main(["theorem", "--t", "1", "--n", "5", "--best-monotone", "--json"])
        main(["sinks", "--k", "2", "--m", "3", "--verify-claims", "--emit-conditions", "--json"])
    lib = layer_functions(tracer)
    # K_2 + (~K_2 u K_2)
    edges = [(0, v) for v in range(1, 6)] + [(1, v) for v in range(2, 6)] + [(4, 5)]
    graph_query(lib, {"n": 6, "edges": edges})
    sequence_query(lib, {"text": "2^2 3^3 5", "t_ge1": "1", "t_le1": "1/2", "k": 2})
    sys.stdout.write(json.dumps(tracer.report()) + "\n")


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "oracle":
        serve_oracle("--trace" in sys.argv[2:])
    elif mode == "cli":
        traced_cli(int(sys.argv[2]), sys.argv[3:])
    elif mode == "probe":
        probe()
    else:
        sys.exit(f"unknown mode {mode!r}")
