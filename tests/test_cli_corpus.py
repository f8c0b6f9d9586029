"""A byte-for-byte gate on the CLI: one SHA-256 over a fixed command corpus.

Each command runs in process through ``main``; its argv, exit code,
stdout and stderr go into one digest, so a change of any byte any
subcommand prints, in text or --json, shows up as a new digest.  The
corpus leaves out argparse usage errors and unreadable paths, whose
wording depends on the Python version and the temporary directory;
graph files are named by their index in the digest.

Run as a script to print the command count and digest:

    PYTHONPATH=src python tests/test_cli_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from itertools import combinations_with_replacement
from pathlib import Path

from toughseq.cli import main
from toughseq.sequences import is_graphical

CORPUS = (876, "c79f27af73dc75e77b6046a75b501f01d564c41cd77659584145af856881a9dd")


def _graph_texts() -> list[str]:
    """Edge-list and JSON graph files: complete, path, cycle, star and a few fixed masks."""
    texts = []
    for n in range(1, 6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        shapes = [pairs, [(i, i + 1) for i in range(n - 1)], [(0, v) for v in range(1, n)]]
        if n >= 3:
            shapes.append([(i, (i + 1) % n) for i in range(n)])
        shapes.append([p for b, p in enumerate(pairs) if 0x2B5 >> b & 1])
        for i, edges in enumerate(shapes):
            edges = sorted({tuple(sorted(e)) for e in edges})
            if i % 2:
                texts.append(json.dumps({"n": n, "edges": [list(e) for e in edges]}))
            else:
                texts.append(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return texts + ["3\n0 1\n0 1\n", "2\n0 2\n", "abc\n", "", "3\n0 1 2\n",
                    json.dumps({"n": 3, "edges": 5}), json.dumps({"edges": []})]


def commands(graph_dir: Path):
    """Yield (argv, shown) pairs; shown is argv with graph paths replaced by names."""
    base = []
    props = [["--hamiltonian"], ["--connected", "1"], ["--tough", "1"], ["--tough", "1/2"]]
    for n in range(1, 5):
        for seq in combinations_with_replacement(range(n), n):
            for i, prop in enumerate(props[:3] if n == 4 else props):
                text = (" " if i % 2 else ",").join(map(str, seq))
                allow = [] if is_graphical(seq) else ["--allow-nongraphical"]
                base.append(["check", "--seq", text, *prop, *allow])
    for text in ("1^2 2^3", "2^2 3^3 5", "1 3^3", "3^4 4^2", "2^6", "1 1 2 2 2 4 4 6"):
        for prop in (["--tough", "2/3"], ["--tough", "2"], ["--connected", "3"], ["--hamiltonian"]):
            base.append(["check", "--seq", text, *prop])  # 1 3^3 is refused as not graphical

    for r in range(0, 14):
        base.append(["partitions", "--r", str(r)])
        base.append(["partitions", "--r", str(r), "--max-parts", str(r // 3 + 1), "--list"])
        base.append(["partitions", "--r", str(r), "--max-part", "3", "--list"])
        if r % 3 == 0:
            base.append(["partitions", "--r", str(r), "--max-parts", "2", "--max-part", "4"])

    for t in ("1/4", "1/2", "1", "2", "7"):
        for n in range(0, 8):
            base.append(["theorem", "--t", t, "--n", str(n), "--best-monotone"])
    for t in ("1", "3/2", "2", "1/2"):
        for n in (4, 7):
            base.append(["theorem", "--t", t, "--n", str(n)])

    for k in range(1, 4):
        for n in range(1, 10, 2):
            base.append(["sinks", "--k", str(k), "--n", str(n), "--verify-claims"])
        for m in (1, 2, 3):
            base.append(["sinks", "--k", str(k), "--m", str(m), "--emit-conditions"])
            base.append(["sinks", "--k", str(k), "--m", str(m), "--verify-claims",
                         "--emit-conditions"])

    conditions = ["d1>=1", "d2>=3 | d4>=4", "d1>=2 | d5>=5", "d3>=4", "d1>=3 | d2>=4 | d6>=6"]
    for cond in conditions:
        for k in (1, 2, 3):
            for n in range(3, 8, 2):
                base.append(["verify-optimality", "--condition", cond, "--k", str(k), "--n", str(n)])
                if n % 2:
                    base.append(["verify-optimality", "--condition", cond, "--k", str(k),
                                 "--n", str(n), "--family-sinks"])
        base.append(["verify-optimality", "--condition", cond, "--k", "2", "--m", "2"])

    for i, text in enumerate(_graph_texts()):
        name = f"g{i}.{'json' if text.startswith('{') else 'txt'}"
        (graph_dir / name).write_text(text)
        base.append(["toughness", name])

    for argv in base:
        for variant in (argv, argv + ["--json"]):
            if variant[0] == "toughness":
                yield [variant[0], str(graph_dir / variant[1]), *variant[2:]], variant
            else:
                yield variant, variant


def corpus_digest() -> tuple[int, str]:
    """(command count, SHA-256 over argv, exit code, stdout and stderr of each)."""
    digest = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for argv, shown in commands(Path(tmp)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            record = json.dumps([shown, code, out.getvalue(), err.getvalue()])
            digest.update(record.encode("utf-8") + b"\n")
            count += 1
    return count, digest.hexdigest()


def test_cli_corpus_is_byte_identical():
    assert corpus_digest() == CORPUS


if __name__ == "__main__":
    print(*corpus_digest())
