import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import toughseq
from toughseq.cli import ENTRY_LIMIT, FAMILY_LIMIT, JSON_BATCH, R_LIMIT, _emit, main
from toughseq.graphs import MAX_VERTICES, TOUGHNESS_LIMIT
from toughseq.sequences import SEQUENCE_LIMIT
from toughseq.subposet import family_size


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    payload = json.loads(out)
    assert payload["schema"] == 1
    return code, payload


def test_check_tough_negative(capsys):
    code, out, _ = run(capsys, "check", "--tough", "1/1", "--seq", "2^2 3^3 5")
    assert code == 1
    assert "declared: no" in out
    assert "failing index: 2" in out
    assert "blocking sequence: 2^2 3^2 5^2" in out


def test_check_hamiltonian_positive(capsys):
    code, out, _ = run(capsys, "check", "--hamiltonian", "--seq", "4^5")
    assert code == 0
    assert "declared: yes" in out


def test_check_tough_below_one(capsys):
    code, out, _ = run(capsys, "check", "--tough", "1/2", "--seq", "1^2 2^3")
    assert code == 1
    assert "rule ii" in out


def test_check_connected(capsys):
    code, _, _ = run(capsys, "check", "--connected", "1", "--seq", "1 2^3 3")
    assert code == 0


def test_check_json_mirrors_verdict(capsys):
    code, payload = run_json(capsys, "check", "--tough", "1/1", "--seq", "2^2 3^3 5")
    assert code == 1
    assert payload["declared"] is False
    assert payload["failing_index"] == 2
    assert payload["blocking_sequence"] == [2, 2, 3, 3, 5, 5]
    assert payload["blocking_graph_spec"]["join_clique"] == 2
    texts = [c["text"] for c in payload["conditions"]]
    assert texts == ["d1>=2 | d5>=5", "d2>=3 | d4>=4"]


def test_check_rejects_nongraphical(capsys):
    code, _, err = run(capsys, "check", "--hamiltonian", "--seq", "1 3^3")
    assert code == 2
    assert "sequence 1 3^3 is not graphical" in err
    code, out, _ = run(capsys, "check", "--hamiltonian", "--seq", "1 3^3",
                       "--allow-nongraphical")
    assert code == 0
    # the not-graphical and the out-of-range messages abbreviate the sequence and cut it
    # at 80 characters, so any n gives one short line
    for seq, shown in (("1^5000 9999^5000", "1^5000 9999^5000 is"),
                       (" ".join(map(str, range(10000))), "... (n = 10000) is"),
                       ("10000^10000", "[0, 9999], got 10000^10000")):
        code, out, err = run(capsys, "check", "--tough", "1", "--seq", seq)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and len(err.encode()) < 200 and shown in err


def test_check_at_sequence_limit_runs(capsys):
    # a quadratic graphicality test takes about 15 s per command at this size
    for prop in (("--tough", "1"), ("--hamiltonian",)):
        start = time.perf_counter()
        code, out, err = run(capsys, "check", *prop, "--seq", "5000^10000")
        assert time.perf_counter() - start < 3
        assert code == 0 and "declared: yes" in out and err == ""


def test_check_rejects_floats_and_bad_input(capsys):
    assert run(capsys, "check", "--tough", "1.5", "--seq", "4^5")[0] == 2
    assert run(capsys, "check", "--tough", "1/1", "--seq", "nonsense")[0] == 2
    assert run(capsys, "check", "--connected", "1", "--seq", "0") == (
        2, "", "error: k-connectivity conditions need n >= 2\n")


def test_toughness_command(capsys, tmp_path):
    fp = tmp_path / "k4.txt"
    fp.write_text("4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "toughness", str(fp))
    assert code == 0
    assert "tau = 3/1" in out

    fp2 = tmp_path / "p3.txt"
    fp2.write_text("3\n0 1\n1 2\n")
    code, out, _ = run(capsys, "toughness", str(fp2))
    assert code == 0
    assert "tau = 1/2" in out
    assert "witness cutset: {1}" in out

    fp3 = tmp_path / "disc.json"
    fp3.write_text(json.dumps({"n": 5, "edges": [[0, 1], [0, 2], [1, 2], [3, 4]]}))
    code, out, _ = run(capsys, "toughness", str(fp3))
    assert code == 0
    assert "tau = 0/1" in out

    assert run(capsys, "toughness", str(tmp_path / "missing.txt"))[0] == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n0 1\n0 1\n")
    assert run(capsys, "toughness", str(bad))[0] == 2


def test_toughness_rejects_malformed_json_graph(capsys, tmp_path):
    for data in ({"edges": [[0, 1]]}, {"n": 3, "edges": 5}, {"n": 2.5, "edges": []}):
        fp = tmp_path / "bad.json"
        fp.write_text(json.dumps(data))
        code, out, err = run(capsys, "toughness", str(fp))
        assert code == 2 and out == ""
        assert err.startswith("error: JSON graph") and err.count("\n") == 1


def test_sinks_command(capsys):
    code, out, _ = run(capsys, "sinks", "--k", "2", "--m", "9")
    assert code == 0
    assert "bound: 9/5 (holds)" in out

    code, out, _ = run(capsys, "sinks", "--k", "2", "--m", "9", "--verify-claims")
    assert code == 0
    assert "claim2" in out and "True" in out

    code, out, _ = run(capsys, "sinks", "--k", "1", "--n", "4", "--emit-conditions")
    assert code == 0
    assert "family size: 1" in out
    assert "d1>=2 | d3>=3" in out

    code, payload = run_json(capsys, "sinks", "--k", "2", "--m", "9")
    assert payload["sink_count"] >= 2
    assert payload["bound"] == {"num": 9, "den": 5}
    assert payload["groups"][0]["j"] == 1

    assert run(capsys, "sinks", "--k", "0", "--m", "3")[0] == 2


def test_theorem_command(capsys):
    code, out, _ = run(capsys, "theorem", "--t", "1", "--n", "6")
    assert code == 0
    assert out.splitlines() == ["d1>=2 | d5>=5", "d2>=3 | d4>=4"]

    code, out, _ = run(capsys, "theorem", "--t", "2", "--n", "8")
    assert code == 0
    assert len(out.splitlines()) == 4

    code, out, _ = run(capsys, "theorem", "--t", "1", "--n", "6", "--best-monotone")
    assert code == 0
    assert sorted(out.splitlines()) == ["d1>=2 | d5>=5", "d2>=3 | d4>=4"]

    # past the labeled-graph sweep: 7,264 family members, 19 sinks, Chvatal's 19 conditions
    code, out, _ = run(capsys, "theorem", "--t", "1", "--n", "40", "--best-monotone")
    assert code == 0 and len(out.splitlines()) == 19
    assert out == run(capsys, "theorem", "--t", "1", "--n", "40")[1]

    assert run(capsys, "theorem", "--t", "2", "--n", "3")[0] == 2  # below threshold
    assert run(capsys, "theorem", "--t", "1/2", "--n", "6")[0] == 2  # t<1 needs --best-monotone


def test_theorem_sweep_cap(capsys):
    # n = 8 is past the labeled-graph sweep but far below the family cap
    code, out, _ = run(capsys, "theorem", "--t", "1", "--n", "8", "--best-monotone")
    assert code == 0 and len(out.splitlines()) == 3
    code, out, _ = run(capsys, "verify-optimality", "--condition", "d1>=1", "--k", "1", "--n", "8")
    assert code in (0, 1) and "(sinks from exhaustive sweep: " in out
    # n = 61 at t = 1/2 has 201,571 members, the first family above FAMILY_LIMIT
    for argv in (("theorem", "--t", "1/2", "--n", "61", "--best-monotone"),
                 ("verify-optimality", "--condition", "d1>=1", "--k", "2", "--n", "61"),
                 ("verify-optimality", "--condition", "d1>=1", "--k", "2", "--n", "61",
                  "--family-sinks")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    # the cap is counted, not enumerated: refusing n = 10^9 takes bounded time
    for argv in (("theorem", "--t", "1", "--n", "1000000000", "--best-monotone"),
                 ("verify-optimality", "--condition", "d1>=1", "--k", "1", "--n", "1000000000")):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == "" and err.count("\n") == 1


def run_fuzz(argv):
    """main(argv) with its output captured: the shared assertions of the fuzz tests."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
    return code, out.getvalue()


RATIONAL_TEXT = st.builds(
    "{}/{}".format,
    st.integers(-3, 12) | st.integers(-10**30, 10**30),
    st.integers(0, 6) | st.integers(1, 10**30),
)
# accepted n stays small so every draw runs fast; large n must be refused by the cap
VERTEX_COUNTS = st.integers(1, 12) | st.integers(-5, 12) | st.integers(10**6, 10**9)


def mostly(common, rare):
    """Draw from common about four times in five, else from rare."""
    return st.integers(0, 4).flatmap(lambda branch: rare if branch == 0 else common)


@settings(max_examples=200, deadline=None)
@example(command="sinks", t="1", n=1, k=10, m=3, condition="d1>=1", as_json=True,
         sink_flags={"--m", "--verify-claims", "--emit-conditions"})
@example(command="sinks", t="1", n=12, k=1, m=1, condition="d1>=1", as_json=False,
         sink_flags={"--verify-claims", "--emit-conditions"})
@given(
    command=st.sampled_from(["theorem", "verify-optimality", "family-sinks", "sinks"]),
    t=RATIONAL_TEXT | st.sampled_from(["1", "1/2", "2/3", "3/2", "7"]),
    n=VERTEX_COUNTS,
    # mostly accepted k and m, so most sinks draws reach a run
    k=mostly(st.integers(1, 10), st.integers(-2, 0) | st.integers(10**6, 10**11)),
    # n = m(k + 1) <= 33 stays fast with every sinks flag; large m must be refused
    m=mostly(st.integers(1, 3), st.integers(-2, 0) | st.integers(10**6, 10**9)),
    sink_flags=st.sets(st.sampled_from(["--m", "--verify-claims", "--emit-conditions"])),
    condition=st.sampled_from(["d1>=1", "d2>=3 | d4>=4", "d1>=2 | d5>=5"]),
    as_json=st.booleans(),
)
def test_sink_commands_fuzz(command, t, n, k, m, sink_flags, condition, as_json):
    small = n <= 12
    if command == "theorem":
        argv = ["theorem", f"--t={t}", f"--n={n}", "--best-monotone"]
    elif command == "sinks":
        argv = ["sinks", f"--k={k}", f"--m={m}" if "--m" in sink_flags else f"--n={n}"]
        argv += sorted(sink_flags - {"--m"})
        if "--m" in sink_flags:
            small = m <= 3
    else:
        argv = ["verify-optimality", "--condition", condition, f"--k={k}", f"--n={n}"]
        if command == "family-sinks":
            argv.append("--family-sinks")
    if as_json:
        argv.append("--json")
    code, out = run_fuzz(argv)
    assert code == 2 or small
    if code == 1:  # the one negative verdict these commands have
        assert command in ("verify-optimality", "family-sinks")
        verdict = (json.loads(out)["weakly_optimal"] is False if as_json
                   else "weakly optimal: no" in out)
        assert verdict


# mostly short sequences that reach a verdict; about one draw in three adds a run
# long enough to bring n to SEQUENCE_LIMIT or past it
SEQUENCE_RUNS = st.builds(
    list.__add__,
    st.lists(st.tuples(st.integers(0, 5), st.integers(1, 5)), max_size=6),
    st.lists(st.tuples(st.sampled_from([SEQUENCE_LIMIT // 2, SEQUENCE_LIMIT - 1, 10**30]),
                       st.sampled_from([SEQUENCE_LIMIT // 2, SEQUENCE_LIMIT, SEQUENCE_LIMIT + 1])),
             max_size=1),
)
# malformed or out of range at any n
BAD_TOKENS = st.sampled_from(["x", "2^", "^3", "2^0", "3^-1", "1.5", "2^2^2", "1/2", "-1", "-2^3"])


@settings(max_examples=150, deadline=None)
@example(runs=[(5000, 10000)], bare=False, bad=[], prop="--tough", k=1, t="1/2",
         allow=False, as_json=True)
@example(runs=[(9999, 10000)], bare=False, bad=[], prop="--hamiltonian", k=1, t="1",
         allow=False, as_json=False)
@example(runs=[(0, 1), (4999, 4999), (9999, 5000)], bare=True, bad=[],
         prop="--connected", k=2, t="1", allow=True, as_json=False)
@example(runs=[(1, 5000), (9999, 5000)], bare=False, bad=[], prop="--tough", k=1,
         t="3/2", allow=False, as_json=False)
@example(runs=[(5000, 5000), (5000, 5001)], bare=False, bad=[], prop="--tough", k=1,
         t="1", allow=False, as_json=False)
@given(
    runs=SEQUENCE_RUNS,
    bare=st.booleans(),
    bad=st.lists(BAD_TOKENS, max_size=1),
    prop=st.sampled_from(["--hamiltonian", "--connected", "--tough"]),
    k=st.integers(-2, 6) | st.just(10**30),
    t=RATIONAL_TEXT | st.sampled_from(["0", "-1", "1/0", "1", "1/2", "1/3", "3/2",
                                       str(10**30), f"1/{10**30}"]),
    allow=st.booleans(),
    as_json=st.booleans(),
)
def test_check_fuzz(runs, bare, bad, prop, k, t, allow, as_json):
    tokens = [f"{d}" if bare and m == 1 else f"{d}^{m}" for d, m in runs]
    tokens[len(runs) // 2:len(runs) // 2] = bad
    argv = ["check", f"--seq={' '.join(tokens)}"]
    argv.append({"--hamiltonian": prop, "--connected": f"--connected={k}",
                 "--tough": f"--tough={t}"}[prop])
    if allow:
        argv.append("--allow-nongraphical")
    if as_json:
        argv.append("--json")
    code, out = run_fuzz(argv)
    if code == 2:
        return
    declared = json.loads(out)["declared"] if as_json else "declared: yes" in out
    assert declared is (code == 0)
    if not as_json:  # exit 1 is the well-formed "declared: no" verdict only
        assert ("declared: no" in out) is (code == 1)


# r <= 30 lists fast, at most p(30) = 5,604 partitions; huge and negative values are refused
BOUNDS = st.none() | st.integers(-3, 12) | st.integers(10**6, 10**30) | st.just(-10**30)


@settings(max_examples=150, deadline=None)
@given(
    r=st.integers(-3, 30) | st.integers(R_LIMIT + 1, 10**30) | st.just(-10**30),
    max_parts=BOUNDS,
    max_part=BOUNDS,
    as_list=st.booleans(),
    as_json=st.booleans(),
)
def test_partitions_fuzz(r, max_parts, max_part, as_list, as_json):
    argv = ["partitions", f"--r={r}"]
    argv += [f"--{name}={value}" for name, value in (("max-parts", max_parts), ("max-part", max_part))
             if value is not None]
    argv += ["--list"] * as_list + ["--json"] * as_json
    code, out = run_fuzz(argv)
    valid = 0 <= r <= R_LIMIT and all(b is None or b >= 0 for b in (max_parts, max_part))
    assert code == (0 if valid else 2)
    if code != 0:
        return
    if as_json:
        payload = json.loads(out)
        count = payload["count"]
        listed = payload.get("partitions")
    else:
        count, *listed = out.splitlines()
        count = int(count)
    if as_list:  # the enumeration agrees with the count and honours both bounds
        assert len(listed) == count
        if as_json:
            assert all(sum(lam) == r and len(lam) <= (max_parts if max_parts is not None else r)
                       and max(lam, default=0) <= (max_part if max_part is not None else r)
                       for lam in listed)


# edges drawn over 0..n-1 so accepted files come often; faults break one of them
FAULTS = st.sampled_from(["loop", "duplicate", "out of range", "word", "nested", "float n"])


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 10) | st.sampled_from([-1, 0, TOUGHNESS_LIMIT + 1, MAX_VERTICES + 1, 10**30]),
    mask=st.integers(0, 2**45 - 1),
    faults=st.lists(FAULTS, max_size=1),
    as_json_file=st.booleans(),
    as_json=st.booleans(),
)
def test_toughness_fuzz(tmp_path_factory, n, mask, faults, as_json_file, as_json):
    pairs = [(u, v) for u in range(min(n, 10)) for v in range(u + 1, min(n, 10))]
    edges = [list(pair) for b, pair in enumerate(pairs) if mask >> b & 1]
    vertex_count = n
    for fault in faults:
        if fault == "loop":
            edges.append([0, 0])
        elif fault == "duplicate":
            edges += [[1, 0], [0, 1]]
        elif fault == "out of range":
            edges.append([0, max(n, 0)])
        elif fault == "word":
            edges.append([0, "x"])
        elif fault == "nested":
            edges = [edges + [[0, 1]]]
        else:
            vertex_count = n + 0.5
    if as_json_file:
        text = json.dumps({"n": vertex_count, "edges": edges})
    else:
        text = "\n".join([str(vertex_count)] + [" ".join(map(str, e)) for e in edges]) + "\n"
    path = tmp_path_factory.getbasetemp() / "fuzz-graph"
    path.write_text(text)
    code, out = run_fuzz(["toughness", str(path)] + ["--json"] * as_json)
    assert code == (0 if 1 <= n <= TOUGHNESS_LIMIT and not faults else 2)
    if code == 0 and as_json:
        payload = json.loads(out)
        assert payload["n"] == n and payload["tau"]["den"] >= 1
    elif code == 0:
        assert out.startswith("tau = ")


@pytest.mark.parametrize("argv", [
    ("sinks", "--k", "-1", "--n", "4"),
    ("sinks", "--k", "0", "--m", "3"),
    ("verify-optimality", "--condition", "d1>=1", "--k", "0", "--n", "4"),
    ("verify-optimality", "--condition", "d1>=1", "--k", "-1", "--n", "4", "--family-sinks"),
    ("verify-optimality", "--condition", "d1>=1", "--k", "1", "--m", "0"),
    ("sinks", "--k", "1", "--m", "0"),
])
def test_k_below_one_is_a_usage_error(capsys, argv):
    # and m below one, once k is valid: both commands resolve n by one rule
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    bad = "k" if int(argv[argv.index("--k") + 1]) < 1 else "m"
    assert err == f"error: {bad} must be >= 1\n"


def test_sweep_commands_below_two_vertices(capsys):
    # K_1 is the only graph on one vertex and tau(K_1) = 0 is below every t > 0
    assert run(capsys, "theorem", "--t", "1", "--n", "1", "--best-monotone") == (0, "false\n", "")
    code, out, _ = run(capsys, "verify-optimality", "--condition", "d1>=1", "--k", "1", "--n", "1")
    assert code == 0 and "majorizing sink: 0" in out
    # the connected family has no member on one or two vertices: K_1's degree 0 is
    # n - 1, yet K_1 is no member, and K_1 u K_1 has no complete degree
    for n, cond, frontier in (("1", "false", "0"), ("2", "d1>=1", "0 1")):
        expected = (f"condition: {cond} (n = {n})\n"
                    "property: 1/1-tough  (sinks from connected family: 0)\n"
                    f"frontier sequence: {frontier}\n"
                    "weakly optimal: no\n")
        assert run(capsys, "verify-optimality", "--condition", "d1>=1", "--k", "1", "--n", n,
                   "--family-sinks") == (1, expected, "")
    for n in ("0", "-3"):
        for argv in (("theorem", "--t", "1", "--n", n, "--best-monotone"),
                     ("verify-optimality", "--condition", "d1>=1", "--k", "1", "--n", n)):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1


def test_partitions_command(capsys):
    code, out, _ = run(capsys, "partitions", "--r", "5")
    assert code == 0 and out.strip() == "7"

    code, out, _ = run(capsys, "partitions", "--r", "5", "--max-parts", "3")
    assert code == 0 and out.strip() == "5"

    code, out, _ = run(capsys, "partitions", "--r", "0")
    assert code == 0 and out.strip() == "1"

    code, out, _ = run(capsys, "partitions", "--r", "4", "--list")
    assert out.splitlines() == ["5", "4", "3+1", "2+2", "2+1+1", "1+1+1+1"]

    code, payload = run_json(capsys, "partitions", "--r", "5", "--max-parts", "3")
    assert payload["count"] == 5

    assert run(capsys, "partitions", "--r", "-2")[0] == 2


def test_size_caps_refuse_before_allocating(capsys):
    # each of these would allocate about 10^9 entries; the refusal is immediate
    for argv in (("check", "--tough", "1", "--seq", "1^1000000000"),
                 ("check", "--hamiltonian", "--seq", "4^10000 4"),
                 ("theorem", "--t", "1", "--n", "1000000000"),
                 ("theorem", "--t", "1", "--n", "10001"),
                 ("partitions", "--r", "1000000000"),
                 ("partitions", "--r", "10001", "--max-parts", "1"),
                 ("sinks", "--k", "99999999999", "--n", "5"),
                 ("sinks", "--k", "10002", "--n", "5"),
                 ("sinks", "--k", "2", "--m", "1000000"),
                 ("sinks", "--k", "7", "--m", "9"),
                 ("sinks", "--k", "2", "--m", "21"),
                 # 160,001 members of 800 entries: under FAMILY_LIMIT, over ENTRY_LIMIT
                 ("theorem", "--t", "1000", "--n", "800", "--best-monotone"),
                 ("theorem", "--t", "1000", "--n", "400", "--best-monotone")):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    # the caps themselves still run
    assert run(capsys, "check", "--tough", "1", "--seq", "9999^10000",
               "--allow-nongraphical")[0] == 0
    assert len(run(capsys, "theorem", "--t", "1", "--n", "10000")[1].splitlines()) == 4999
    assert run(capsys, "partitions", "--r", "10000", "--max-parts", "1") == (0, "1\n", "")
    # sinks counts the whole family(n, 1/k): (k, m) = (7, 9) and (2, 21) are over the cap,
    # the paper's (2, 20), (5, 9) and (6, 9) under it
    for k, m, size in ((2, 20, 174397), (5, 9, 50054), (6, 9, 171464)):
        assert family_size(m * (k + 1), Fraction(1, k), FAMILY_LIMIT) == size
    # the entry cap binds only past n = 63; at t = 1000 it admits n = 369, not 370
    assert ENTRY_LIMIT == 63 * FAMILY_LIMIT
    for n, size, admitted in ((300, 22501, True), (369, 34041, True), (370, 34226, False),
                              (400, 40001, False), (800, 160001, False)):
        assert family_size(n, Fraction(1000), FAMILY_LIMIT) == size
        assert (size * n <= ENTRY_LIMIT) is admitted
    code, out, err = run(capsys, "theorem", "--t", "1000", "--n", "800", "--best-monotone")
    assert err == ("error: family limited to 12600000 entries; "
                   "n = 800 at t = 1000 has 160001 members of 800\n")


def test_partitions_list_limit(capsys):
    # p(100) = 190,569,292 partitions are counted but never built
    assert run(capsys, "partitions", "--r", "100") == (0, "190569292\n", "")
    code, out, err = run(capsys, "partitions", "--r", "100", "--list")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    # p(45) = 89,134 is under LIST_LIMIT, p(46) = 105,558 is over it
    code, out, _ = run(capsys, "partitions", "--r", "45", "--list")
    assert code == 0 and len(out.splitlines()) == 1 + 89134
    assert run(capsys, "partitions", "--r", "46", "--list")[0] == 2


def test_verify_optimality_command(capsys):
    code, out, _ = run(capsys, "verify-optimality", "--condition", "d1>=2 | d5>=5",
                       "--k", "1", "--n", "6")
    assert code == 0
    assert "weakly optimal: yes" in out

    code, out, _ = run(capsys, "verify-optimality", "--condition", "d1>=2",
                       "--k", "1", "--n", "6")
    assert code == 1
    assert "weakly optimal: no" in out

    code, payload = run_json(capsys, "verify-optimality", "--condition",
                             "d2>=3 | d4>=4", "--k", "1", "--n", "6")
    assert code == 0
    assert payload["weakly_optimal"] is True
    assert payload["majorizing_sink"] == [2, 2, 3, 3, 5, 5]

    # family-sinks route works beyond n = 7; its text is pinned there (the --json
    # of the same two cases is in PINNED_JSON)
    assert run(capsys, "verify-optimality", "--condition", "d2>=3",
               "--k", "1", "--n", "12", "--family-sinks") == (1, (
        "condition: d2>=3 (n = 12)\n"
        "property: 1/1-tough  (sinks from connected family: 5)\n"
        "frontier sequence: 2^2 11^10\n"
        "weakly optimal: no\n"), "")
    assert run(capsys, "verify-optimality", "--condition", "d3>=3 | d7>=6",
               "--k", "3", "--n", "20", "--family-sinks") == (1, (
        "condition: d3>=3 | d7>=6 (n = 20)\n"
        "property: 1/3-tough  (sinks from connected family: 91)\n"
        "frontier sequence: 2^3 5^4 19^13\n"
        "weakly optimal: no\n"), "")
    # and so does the all-graphs route, now that it reads the closed-form family
    code, out, _ = run(capsys, "verify-optimality", "--condition", "d2>=3", "--k", "1", "--n", "12")
    assert code in (0, 1) and "(sinks from exhaustive sweep: " in out
    # --m names the same family as --n = m(k+1)
    for flag in ([], ["--family-sinks"], ["--json"]):
        by_m = run(capsys, "verify-optimality", "--condition", "d2>=3", "--k", "2", "--m", "2", *flag)
        assert by_m == run(capsys, "verify-optimality", "--condition", "d2>=3", "--k", "2",
                           "--n", "6", *flag)


CONDITIONS_N6_T1 = [
    {"n": 6, "clauses": [[1, 2], [5, 5]], "text": "d1>=2 | d5>=5"},
    {"n": 6, "clauses": [[2, 3], [4, 4]], "text": "d2>=3 | d4>=4"},
]

PINNED_JSON = [
    (["check", "--tough", "1", "--seq", "2^2 3^3 5"], 1, {
        "schema": 1, "sequence": [2, 2, 3, 3, 3, 5], "property": "forcibly 1-tough",
        "declared": False, "failing_index": 2, "failing_rule": None,
        "blocking_sequence": [2, 2, 3, 3, 5, 5],
        "blocking_graph_spec": {
            "join_clique": 2, "independent_set": 2, "clique": 2,
            "text": "K_2 + (~K_2 u K_2)",
            "graph": {"n": 6, "edges": [[0, 1], [0, 2], [0, 3], [0, 4], [0, 5], [1, 2],
                                        [1, 3], [1, 4], [1, 5], [4, 5]]},
        },
        "conditions": CONDITIONS_N6_T1,
    }),
    (["verify-optimality", "--condition", "d2>=3 | d4>=4", "--k", "1", "--n", "6"], 0, {
        "schema": 1,
        "condition": {"n": 6, "clauses": [[2, 3], [4, 4]], "text": "d2>=3 | d4>=4"},
        "k": 1, "sink_source": "exhaustive sweep", "sink_count": 2,
        "frontier": [2, 2, 3, 3, 5, 5], "weakly_optimal": True,
        "majorizing_sink": [2, 2, 3, 3, 5, 5],
    }),
    (["theorem", "--t", "1", "--n", "6"], 0, {
        "schema": 1, "t": {"num": 1, "den": 1}, "n": 6, "best_monotone": False,
        "conditions": CONDITIONS_N6_T1,
    }),
    (["check", "--hamiltonian", "--seq", "1 3^3 4"], 1, {
        "schema": 1, "sequence": [1, 3, 3, 3, 4], "property": "forcibly hamiltonian",
        "declared": False, "failing_index": 1, "failing_rule": None,
        "blocking_sequence": [1, 3, 3, 3, 4],
        "blocking_graph_spec": {
            "join_clique": 1, "independent_set": 1, "clique": 3,
            "text": "K_1 + (~K_1 u K_3)",
            "graph": {"n": 5, "edges": [[0, 1], [0, 2], [0, 3], [0, 4], [2, 3], [2, 4],
                                        [3, 4]]},
        },
        "conditions": [
            {"n": 5, "clauses": [[1, 2], [4, 4]], "text": "d1>=2 | d4>=4"},
            {"n": 5, "clauses": [[2, 3], [3, 3]], "text": "d2>=3 | d3>=3"},
        ],
    }),
    (["verify-optimality", "--condition", "d4>=3 | d7>=5", "--k", "2", "--n", "9",
      "--family-sinks"], 0, {
        "schema": 1,
        "condition": {"n": 9, "clauses": [[4, 3], [7, 5]], "text": "d4>=3 | d7>=5"},
        "k": 2, "sink_source": "connected family", "sink_count": 6,
        "frontier": [2, 2, 2, 2, 4, 4, 4, 8, 8], "weakly_optimal": True,
        "majorizing_sink": [2, 2, 2, 2, 4, 4, 4, 8, 8],
    }),
    # --family-sinks past the labeled sweep (n > 7)
    (["verify-optimality", "--condition", "d2>=3", "--k", "1", "--n", "12", "--family-sinks"], 1, {
        "schema": 1,
        "condition": {"n": 12, "clauses": [[2, 3]], "text": "d2>=3"},
        "k": 1, "sink_source": "connected family", "sink_count": 5,
        "frontier": [2, 2, *[11] * 10], "weakly_optimal": False, "majorizing_sink": None,
    }),
    (["verify-optimality", "--condition", "d3>=3 | d7>=6", "--k", "3", "--n", "20",
      "--family-sinks"], 1, {
        "schema": 1,
        "condition": {"n": 20, "clauses": [[3, 3], [7, 6]], "text": "d3>=3 | d7>=6"},
        "k": 3, "sink_source": "connected family", "sink_count": 91,
        "frontier": [2, 2, 2, *[5] * 4, *[19] * 13], "weakly_optimal": False,
        "majorizing_sink": None,
    }),
]


@pytest.mark.parametrize("argv, exit_code, payload", PINNED_JSON)
def test_json_stdout_is_pinned(capsys, argv, exit_code, payload):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == exit_code
    assert out == json.dumps(payload, indent=2) + "\n"


# text mode beside PINNED_JSON: the benchmark digests pin only --json
PINNED_TEXT = [
    (["theorem", "--t", "3/2", "--n", "12"], 0,
     "d1>=3 | d10>=11\n"
     "d2>=4 | d9>=10\n"
     "d2>=5 | d8>=10\n"
     "d3>=6 | d7>=9\n"
     "d4>=7 | d6>=8\n"
     "d5>=8\n"),
    (["theorem", "--t", "1/2", "--n", "9", "--best-monotone"], 0,
     "d1>=1 | d9>=8\n"
     "d2>=2 | d8>=7\n"
     "d1>=2 | d3>=3 | d8>=6\n"
     "d1>=2 | d4>=4 | d8>=5\n"
     "d4>=3 | d7>=5\n"
     "d3>=3 | d7>=4\n"
     "d3>=3 | d9>=6\n"
     "d2>=3 | d8>=4\n"
     "d4>=4 | d9>=5\n"),
    (["sinks", "--k", "2", "--m", "3", "--verify-claims", "--emit-conditions"], 0,
     "k: 2  n: 9  m: 3\n"
     "family size: 7\n"
     "group j=1: 5 sequences (expected 5, ok)\n"
     "group j=2: 2 sequences (expected 2, ok)\n"
     "sink count: 6\n"
     "bound: 3/5\n"
     "claim2 (no majorization within a group): True\n"
     "claim3 (large noncomplete degree implies sink): True\n"
     "best monotone conditions (6):\n"
     "  d2>=2 | d8>=7\n"
     "  d1>=2 | d3>=3 | d8>=6\n"
     "  d1>=2 | d4>=4 | d8>=5\n"
     "  d4>=3 | d7>=5\n"
     "  d3>=3 | d7>=4\n"
     "  d2>=3 | d8>=4\n"),
]


@pytest.mark.parametrize("argv, exit_code, text", PINNED_TEXT)
def test_text_stdout_is_pinned(capsys, argv, exit_code, text):
    assert run(capsys, *argv) == (exit_code, text, "")


def test_json_is_written_in_batches(monkeypatch):
    # a document of more encoder chunks than one batch goes out in several writes,
    # none of them the whole document, that join to the one-shot encoding
    payload = {"xs": list(range(2 * JSON_BATCH))}
    writes = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
    _emit(argparse.Namespace(json=True), payload, [])
    whole = json.dumps({"schema": 1, **payload}, indent=2) + "\n"
    assert len(writes) > 2 and writes[-1] == "\n"  # the newline is a write of its own
    assert all(len(w) < len(whole) for w in writes)
    assert "".join(writes) == whole


def test_closed_pipe_exits_2_with_one_line():
    # the reader closes stdout after one byte, so a later batch fails mid-document
    src = str(Path(toughseq.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.Popen([sys.executable, "-m", "toughseq.cli", "sinks", "--k", "3", "--m", "9",
                             "--emit-conditions", "--json"], env={**os.environ, "PYTHONPATH": path},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 2
    assert err == b"error: [Errno 32] Broken pipe\n"


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--seq", "4^5"])  # no property flag
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    # verify-optimality takes exactly one of --n and --m, like sinks
    for size in (["--n", "6", "--m", "2"], []):
        with pytest.raises(SystemExit) as exc:
            main(["verify-optimality", "--condition", "d1>=1", "--k", "2", *size])
        assert exc.value.code == 2
