"""Command-line front door.

Subcommands: check, toughness, sinks, theorem, partitions,
verify-optimality.  Every subcommand takes --json for a machine
mirror of the text output (all JSON carries "schema": 1).

Exit codes: 0 success / declared / true, 1 well-formed negative
verdict, 2 usage or input error.  theorem --best-monotone and
verify-optimality take the sinks of all non-t-tough graphs from
subposet.sweep_sinks at any n; verify-optimality --family-sinks keeps
those with a complete degree n - 1 (none at n = 1), the sinks of the
connected slice that sinks reports through subposet.subposet_report.
All refuse a query whose family, counted up front, exceeds FAMILY_LIMIT
members or ENTRY_LIMIT entries; sinks also refuses k - 1 above R_LIMIT,
since its bound counts the partitions of k - 1; partitions --list
refuses more than LIST_LIMIT partitions; check and theorem refuse n
above SEQUENCE_LIMIT, and partitions r above R_LIMIT, before allocating
anything of that size.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import islice

from .checkers import (
    check_hamiltonian_chvatal,
    check_kconnected,
    check_tough_ge1,
    check_tough_le1,
    parse_rational,
    tough_ge1_conditions,
)
from .conditions import (
    canonicalize,
    condition_to_json,
    frontier_sequence,
    parse_condition,
)
from .graphs import read_graph, toughness
from .partitions import count_partitions, enumerate_partitions
from .sequences import SEQUENCE_LIMIT, NotGraphicalError, format_sequence, parse_sequence
from .subposet import (family_size, generate_best_monotone, is_weakly_optimal, subposet_report,
                       sweep_sinks)

SCHEMA = 1
LIST_LIMIT = 100_000  # partitions --list refuses larger counts; p(45) = 89,134 still lists
R_LIMIT = 10_000  # partitions refuses a larger r; r = 10,000 counts in about 5 s
# theorem --best-monotone, verify-optimality and sinks refuse larger families
# (counted before any is built); n = 60 at t = 1/2 has 174,397 members
FAMILY_LIMIT = 200_000
# and families of more entries (members x n), which binds only past n = 63.  At
# t >= n every member has two parts, so FAMILY_LIMIT alone admits about n^2/4
# members of n entries each (n = 800 at t = 1000: 160,001 members, 87 s, 2 GB)
ENTRY_LIMIT = FAMILY_LIMIT * 63
# --json documents go out JSON_BATCH encoder chunks per write: no command holds its
# whole document, and json.dump, the same bytes and peak RSS at one write per chunk,
# is slower (sinks --json at (4,9): 3.44 s against 2.64 s, median of 10 cold runs)
JSON_BATCH = 1 << 16


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    """The one writer of stdout, called by main with what a cmd_* returned."""
    if args.json:
        chunks = json.JSONEncoder(indent=2).iterencode({"schema": SCHEMA, **payload})
        while batch := "".join(islice(chunks, JSON_BATCH)):
            sys.stdout.write(batch)
        sys.stdout.write("\n")
    else:
        for line in text_lines:
            print(line)


def _check_family_size(n: int, t: Fraction) -> None:
    size = family_size(n, t, FAMILY_LIMIT)
    if size is None:
        raise ValueError(f"family limited to {FAMILY_LIMIT} members; n = {n} at t = {t} has more")
    if size * n > ENTRY_LIMIT:
        raise ValueError(f"family limited to {ENTRY_LIMIT} entries; n = {n} at t = {t} "
                         f"has {size} members of {n}")


def _family_n(args) -> int:
    """n of the 1/k family named by --k and --n or --m (n = m(k+1)), refused past the caps."""
    if args.k < 1:
        raise ValueError("k must be >= 1")
    n = args.n
    if args.m is not None:
        if args.m < 1:
            raise ValueError("m must be >= 1")
        n = args.m * (args.k + 1)
    _check_family_size(n, Fraction(1, args.k))
    return n


def cmd_check(args) -> tuple[int, dict, list[str]]:
    seq = parse_sequence(args.seq)
    allow = args.allow_nongraphical
    if args.hamiltonian:
        prop = "forcibly hamiltonian"
        verdict = check_hamiltonian_chvatal(seq, allow_nongraphical=allow)
    elif args.connected is not None:
        prop = f"forcibly {args.connected}-connected"
        verdict = check_kconnected(seq, args.connected, allow_nongraphical=allow)
    else:
        t = parse_rational(args.tough)
        prop = f"forcibly {t}-tough"
        if t >= 1:
            verdict = check_tough_ge1(seq, t, allow_nongraphical=allow)
        else:
            verdict = check_tough_le1(seq, t, allow_nongraphical=allow)

    lines = [
        f"sequence: {format_sequence(seq)} (n = {seq.n})",
        f"property: {prop}",
        f"declared: {'yes' if verdict.declared else 'no'}",
    ]
    if not verdict.declared:
        where = f"failing index: {verdict.failing_index}"
        if verdict.failing_rule:
            where += f" (rule {verdict.failing_rule})"
        lines.append(where)
        if verdict.blocking_sequence is not None:
            lines.append(f"blocking sequence: {format_sequence(verdict.blocking_sequence)}")
        if verdict.blocking_shape is not None:
            lines.append(f"blocking graph: {verdict.shape_text()}")
    payload = {"sequence": list(seq), "property": prop, **verdict.to_json()}
    return 0 if verdict.declared else 1, payload, lines


def cmd_toughness(args) -> tuple[int, dict, list[str]]:
    g = read_graph(args.graph_file)
    result = toughness(g)
    tau = result.value
    lines = [f"tau = {tau.numerator}/{tau.denominator}"]
    if result.witness_cutset is None:
        lines.append("witness cutset: none (complete graph)")
    else:
        lines.append(f"witness cutset: {{{', '.join(map(str, result.witness_cutset))}}}")
        lines.append(f"components after removal: {result.witness_components}")
    payload = {
        "n": g.n,
        "tau": {"num": tau.numerator, "den": tau.denominator},
        "witness_cutset": list(result.witness_cutset) if result.witness_cutset is not None else None,
        "witness_components": result.witness_components,
    }
    return 0, payload, lines


def cmd_sinks(args) -> tuple[int, dict, list[str]]:
    n = _family_n(args)
    if args.k - 1 > R_LIMIT:  # the bound's p(k - 1) takes O(k^2) time and O(k) space
        raise ValueError(f"--k limited to {R_LIMIT + 1}, got {args.k}")
    report = subposet_report(args.k, n=n, verify_claims=args.verify_claims)
    lines = [
        f"k: {report.k}  n: {report.n}" + (f"  m: {report.m}" if report.m is not None else ""),
        f"family size: {report.family_size}",
    ]
    for grp in report.groups:
        match = "ok" if grp.count == grp.expected_count else "MISMATCH"
        lines.append(f"group j={grp.j}: {grp.count} sequences (expected {grp.expected_count}, {match})")
    lines.append(f"sink count: {report.sink_count}")
    bound_note = ""
    if report.bound_applies:
        bound_note = " (holds)" if report.bound_holds else " (VIOLATED)"
    lines.append(f"bound: {report.bound.numerator}/{report.bound.denominator}{bound_note}")
    if args.verify_claims:
        lines.append(f"claim2 (no majorization within a group): {report.claim2}")
        lines.append(f"claim3 (large noncomplete degree implies sink): {report.claim3}")
    payload = report.to_json()
    if args.emit_conditions:
        conds = [condition_to_json(c) for c in generate_best_monotone(report.sinks)]
        lines.append(f"best monotone conditions ({len(conds)}):")
        lines.extend(f"  {c['text']}" for c in conds)
        payload["conditions"] = conds
    negative = (
        not report.counts_match
        or report.bound_holds is False
        or report.claim2 is False
        or report.claim3 is False
    )
    return 1 if negative else 0, payload, lines


def cmd_theorem(args) -> tuple[int, dict, list[str]]:
    t = parse_rational(args.t)
    n = args.n
    if args.best_monotone:
        _check_family_size(n, t)
        conds = generate_best_monotone(sweep_sinks(n, t))
    else:
        if t < 1:
            raise ValueError("condition listing requires t >= 1; use --best-monotone for t < 1")
        if n > SEQUENCE_LIMIT:
            raise ValueError(f"condition listing limited to n <= {SEQUENCE_LIMIT}, got n = {n}")
        conds = [canonicalize(c) for _, c in tough_ge1_conditions(t, n)]
    payload = {
        "t": {"num": t.numerator, "den": t.denominator},
        "n": n,
        "best_monotone": bool(args.best_monotone),
        "conditions": [condition_to_json(c) for c in conds],
    }
    return 0, payload, [c["text"] for c in payload["conditions"]]


def cmd_partitions(args) -> tuple[int, dict, list[str]]:
    if args.r > R_LIMIT:
        raise ValueError(f"--r limited to {R_LIMIT}, got {args.r}")
    count = count_partitions(args.r, max_parts=args.max_parts, max_part=args.max_part)
    lines = [str(count)]
    payload = {"r": args.r, "max_parts": args.max_parts, "max_part": args.max_part,
               "count": count}
    if args.list:
        if count > LIST_LIMIT:
            raise ValueError(f"--list limited to {LIST_LIMIT} partitions, this query has {count}")
        parts = enumerate_partitions(args.r, max_parts=args.max_parts, max_part=args.max_part)
        lines.extend("+".join(map(str, lam)) if lam else "(empty)" for lam in parts)
        payload["partitions"] = parts
    return 0, payload, lines


def cmd_verify_optimality(args) -> tuple[int, dict, list[str]]:
    n = _family_n(args)
    cond = canonicalize(parse_condition(args.condition, n))
    sinks = sweep_sinks(n, Fraction(1, args.k))
    if args.family_sinks:  # the connected slice's sinks are those with a complete degree
        sinks = tuple(s for s in sinks if n > 1 and s[-1] == n - 1)
    source = "connected family" if args.family_sinks else "exhaustive sweep"
    frontier = frontier_sequence(cond)
    witness = is_weakly_optimal(cond, sinks)
    result = witness is not None
    payload = {
        "condition": condition_to_json(cond),
        "k": args.k,
        "sink_source": source,
        "sink_count": len(sinks),
        "frontier": list(frontier),
        "weakly_optimal": result,
        "majorizing_sink": list(witness) if result else None,
    }
    lines = [
        f"condition: {payload['condition']['text']} (n = {n})",
        f"property: 1/{args.k}-tough  (sinks from {source}: {len(sinks)})",
        f"frontier sequence: {format_sequence(frontier)}",
        f"weakly optimal: {'yes' if result else 'no'}",
    ]
    if result:
        lines.append(f"majorizing sink: {format_sequence(witness)}")
    return 0 if result else 1, payload, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toughseq",
        description="Degree-sequence conditions for graph toughness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a forcibly-P checker on a degree sequence")
    p_check.add_argument("--seq", required=True, help="degree sequence, e.g. '2^2 3^3 5' or '2,2,3'")
    group = p_check.add_mutually_exclusive_group(required=True)
    group.add_argument("--hamiltonian", action="store_true", help="Chvatal's hamiltonian condition")
    group.add_argument("--connected", type=int, metavar="K", help="Bondy-Boesch k-connectivity condition")
    group.add_argument("--tough", metavar="P/Q", help="forcibly t-tough for exact rational t")
    p_check.add_argument("--allow-nongraphical", action="store_true",
                         help="judge the conditions even if the sequence is not graphical")
    p_check.set_defaults(func=cmd_check)

    p_tough = sub.add_parser("toughness", help="exact toughness of a graph file")
    p_tough.add_argument("graph_file", help="edge list (first line n, then 'u v' lines) or JSON {n, edges}")
    p_tough.set_defaults(func=cmd_toughness)

    p_sinks = sub.add_parser("sinks", help="enumerate the 1/k-tough family and its sinks")
    p_sinks.add_argument("--k", type=int, required=True)
    size = p_sinks.add_mutually_exclusive_group(required=True)
    size.add_argument("--m", type=int, help="n = m(k+1)")
    size.add_argument("--n", type=int)
    p_sinks.add_argument("--emit-conditions", action="store_true",
                         help="also print the best monotone condition per sink")
    p_sinks.add_argument("--verify-claims", action="store_true",
                         help="verify the group-structure claims (a linear-time potential "
                              "certificate per group, with an exact pairwise fallback)")
    p_sinks.set_defaults(func=cmd_sinks)

    p_thm = sub.add_parser("theorem", help="print a t-tough condition list")
    p_thm.add_argument("--t", required=True, metavar="P/Q")
    p_thm.add_argument("--n", type=int, required=True)
    p_thm.add_argument("--best-monotone", action="store_true",
                       help="derive conditions from the sinks of all non-t-tough graphs "
                            f"(closed-form family, at most {FAMILY_LIMIT} members "
                            f"and {ENTRY_LIMIT} entries)")
    p_thm.set_defaults(func=cmd_theorem)

    p_part = sub.add_parser("partitions", help="count or list integer partitions")
    p_part.add_argument("--r", type=int, required=True)
    p_part.add_argument("--max-parts", type=int, default=None)
    p_part.add_argument("--max-part", type=int, default=None)
    p_part.add_argument("--list", action="store_true")
    p_part.set_defaults(func=cmd_partitions)

    p_opt = sub.add_parser("verify-optimality",
                           help="is a condition weakly optimal for 1/k-toughness?")
    p_opt.add_argument("--condition", required=True, help="e.g. 'd2>=3 | d5>=4'")
    p_opt.add_argument("--k", type=int, required=True)
    size = p_opt.add_mutually_exclusive_group(required=True)
    size.add_argument("--n", type=int)
    size.add_argument("--m", type=int, help="n = m(k+1)")
    p_opt.add_argument("--family-sinks", action="store_true",
                       help="use the sinks of connected graphs only instead of all graphs")
    p_opt.set_defaults(func=cmd_verify_optimality)

    for p_cmd in sub.choices.values():
        p_cmd.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload, lines = args.func(args)
        _emit(args, payload, lines)
        return code
    except NotGraphicalError as exc:
        print(f"error: {exc} (pass --allow-nongraphical to judge it anyway)", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
