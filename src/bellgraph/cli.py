"""Command-line surface.

Graphs are given as `--graph <graph6>` or `--graph family:<spec>`, e.g.
`--graph family:complete_join(3,5)`. Machine-readable output uses --json;
exact fractions serialize as {"num": ..., "log2_den": ...}.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .bell import bell_coefficients, lhv_bound, stabilizer_table
from .coverable import coverable_set
from .families import parse_family, parse_graph_arg
from .graph6 import emit_graph6
from .graphs import iter_bits
from .quantum import (
    EXPECTATION_TOL,
    apply_channel,
    bell_expectation,
    build_graph_state,
    random_weight_t_channel,
)
from .search import (
    minimal_violating_n,
    reproduce_table1,
    search_file,
    search_labeled_all,
)


def _int_at_least(low: int):
    """argparse type: an int no smaller than `low`, so no count makes a check vacuous."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _bitstring(mask: int, n: int) -> str:
    return "".join("1" if mask >> v & 1 else "0" for v in range(n))


def cmd_coverable(args) -> int:
    g = parse_graph_arg(args.graph)
    cov = coverable_set(g, args.t)
    if args.json:
        obj = {
            "n": g.n,
            "t": args.t,
            "count": cov.count,
            "full": cov.is_full,
        }
        if args.members:
            obj["members"] = [_bitstring(m, g.n) for m in sorted(cov.members)]
        print(json.dumps(obj))
        return 0
    print(f"n={g.n} t={args.t}: {cov.count} coverable sets of {1 << g.n}"
          f"{' (full)' if cov.is_full else ''}")
    if args.members:
        for m in sorted(cov.members):
            print(_bitstring(m, g.n))
    return 0


def cmd_bell_op(args) -> int:
    g = parse_graph_arg(args.graph)
    bc = bell_coefficients(g, args.t)
    table = stabilizer_table(g)
    terms = []
    for s in range(1 << g.n):
        k = int(bc.k[s])
        if k:
            # letter index x + 2z: X on S alone, Z on the neighborhood alone, Y on both
            sign, nb = int(table.signs[s]), int(table.nbhd[s])
            letters = " ".join(f"{'IXZY'[(s >> v & 1) + 2 * (nb >> v & 1)]}{v + 1}"
                               for v in iter_bits(s | nb))
            terms.append((s, k * sign, f"{'+' if sign > 0 else '-'}{letters or 'I'}"))
    if args.json:
        print(json.dumps({
            "n": g.n,
            "t": args.t,
            "scale": 1 << g.n,
            "terms": [
                {"subset": _bitstring(s, g.n), "coefficient": c, "pauli": p}
                for s, c, p in terms
            ],
        }))
        return 0
    print(f"{1 << g.n} * B_{args.t} expands into {len(terms)} stabilizer terms:")
    shown = terms if args.limit is None else terms[: args.limit]
    for s, coeff, pauli in shown:
        body = pauli[1:]
        print(f"  {coeff:+d}  {body}")
    if args.limit is not None and len(terms) > args.limit:
        print(f"  ... {len(terms) - args.limit} more")
    return 0


def cmd_lhv_bound(args) -> int:
    g = parse_graph_arg(args.graph)
    res = lhv_bound(g, args.t)
    if args.json:
        print(json.dumps({
            "n": g.n,
            "t": args.t,
            "bound": res.bound.to_json(),
            "decimal": float(res.bound),
            "valid": res.valid,
            "argmax": {
                "x_neg": list(iter_bits(res.argmax.x_neg)),
                "y_neg": list(iter_bits(res.argmax.y_neg)),
            },
        }))
        return 0
    verdict = "valid (violated)" if res.valid else "no violation"
    print(f"LHV bound: {res.bound} = {float(res.bound):.6f}  [{verdict}]")
    print(f"attained at x_neg={_bitstring(res.argmax.x_neg, g.n)} "
          f"y_neg={_bitstring(res.argmax.y_neg, g.n)}")
    return 0


def cmd_verify_prop1(args) -> int:
    g = parse_graph_arg(args.graph)
    psi, cov, worst = build_graph_state(g), None, 0.0
    for i in range(args.channels):
        channel = random_weight_t_channel(g.n, args.t, args.seed + i)
        cov = cov or coverable_set(g, args.t)  # after a draw, which rejects t > CHANNEL_MAX_T
        value = bell_expectation(psi, cov, apply_channel(psi, channel))
        worst = max(worst, abs(value - 1.0))
    passed = worst < args.tol
    if args.json:
        print(json.dumps({
            "n": g.n,
            "t": args.t,
            "channels": args.channels,
            "seed": args.seed,
            "max_deviation": worst,
            "tolerance": args.tol,
            "passed": passed,
        }))
    else:
        status = "PASS" if passed else "FAIL"
        print(f"{status}: {args.channels} random weight<={args.t} channels, "
              f"max |<B> - 1| = {worst:.3e} (tol {args.tol:g})")
    return 0 if passed else 1


def cmd_search(args) -> int:
    if args.census:
        report = search_file(
            args.census,
            args.t,
            lenient=args.lenient,
            dedup=args.dedup,
            max_witnesses=args.max_witnesses,
            checkpoint_path=args.checkpoint,
        )
    else:
        if args.checkpoint or args.lenient:
            raise ValueError("--checkpoint and --lenient need --census")
        report = search_labeled_all(
            args.all_labeled,
            args.t,
            dedup=args.dedup,
            max_witnesses=args.max_witnesses,
        )
    if args.json:
        print(json.dumps(report.to_json()))
        return 0
    print(f"n={report.n} t={report.t}: best LHV bound {report.best_bound} "
          f"= {float(report.best_bound):.6f}"
          f"{' (valid inequality)' if report.valid else ''}")
    print(f"examined {report.graphs_examined} graphs in "
          f"{report.lc_classes_examined} classes, "
          f"{report.records_skipped} malformed records skipped, "
          f"{report.orbit_cap_fallbacks} orbit-cap fallbacks, {report.wall_time:.2f}s")
    print(f"witness classes: {report.witness_classes_total}"
          + (f" (showing {len(report.witnesses)})"
             if len(report.witnesses) < report.witness_classes_total else ""))
    for _, g6 in report.witnesses:
        print(f"  {g6}")
    return 0


def cmd_reproduce_table1(args) -> int:
    cells = reproduce_table1(max_n=args.max_n)
    if args.json:
        print(json.dumps({
            "cells": [c.to_json() for c in cells],
            "minimal_violating_n": {
                str(t): {"n": n, "exact": exact}
                for t, (n, exact) in minimal_violating_n(cells).items()
            },
        }))
    else:
        ns = sorted({c.n for c in cells})
        print("optimal LHV bounds D_t(n)  [* = family upper bound, ? = not computed]")
        header = "t\\n " + "".join(f"{n:>10}" for n in ns)
        print(header)
        for t in sorted({c.t for c in cells}):
            row = [f"t={t} "]
            for n in ns:
                cell = next(c for c in cells if c.t == t and c.n == n)
                if cell.value is None:
                    row.append(f"{'?':>10}")
                else:
                    mark = "*" if cell.mode == "family-bound" else ""
                    row.append(f"{str(cell.value) + mark:>10}")
            print("".join(row))
        for t, (n, exact) in sorted(minimal_violating_n(cells).items()):
            rel = "=" if exact else "<="
            print(f"smallest qubit count with a valid t={t} inequality: {rel} {n}")
        bad = [c for c in cells if c.matches is False]
        for c in bad:
            print(f"MISMATCH t={c.t} n={c.n}: computed {c.value}, expected {c.expected}")
    return 0 if all(c.matches is not False for c in cells) else 1


def cmd_named(args) -> int:
    g = parse_family(args.family)
    print(emit_graph6(g))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellgraph",
        description="Error-tolerating Bell inequalities from graph states",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_t(p):
        p.add_argument("--graph", required=True,
                       help="graph6 literal or family:<spec>")
        p.add_argument("--t", type=int, required=True, help="tolerated error weight")
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("coverable", help="size and members of the t-coverable set")
    add_graph_t(p)
    p.add_argument("--members", action="store_true", help="list members as bit strings")
    p.set_defaults(func=cmd_coverable)

    p = sub.add_parser("bell-op", help="stabilizer expansion of the Bell operator")
    add_graph_t(p)
    p.add_argument("--limit", type=_int_at_least(0), default=None,
                   help="print at most this many terms")
    p.set_defaults(func=cmd_bell_op)

    p = sub.add_parser("lhv-bound", help="exact LHV bound of the Bell operator")
    add_graph_t(p)
    p.set_defaults(func=cmd_lhv_bound)

    p = sub.add_parser("verify-prop1",
                       help="check error tolerance against random noise channels")
    add_graph_t(p)
    p.add_argument("--channels", type=_int_at_least(1), default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=EXPECTATION_TOL)
    p.set_defaults(func=cmd_verify_prop1)

    p = sub.add_parser("search", help="search a census for the best bound")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--census", help="graph6 census file, one record per line")
    src.add_argument("--all-labeled", type=int, metavar="N",
                     help="every graph on N vertices, one per class "
                          "(N = 9 takes about 25 s on 2 cores)")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--dedup", choices=("lc", "iso"), default="lc")
    p.add_argument("--lenient", action="store_true",
                   help="skip malformed census lines instead of aborting")
    p.add_argument("--max-witnesses", type=_int_at_least(0), default=32)
    p.add_argument("--checkpoint",
                   help="checkpoint file; rerunning with it resumes exactly")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("reproduce-table1",
                       help="recompute the optimal-bound grid D_t(n)")
    p.add_argument("--max-n", type=_int_at_least(3), default=7)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_reproduce_table1)

    p = sub.add_parser("named", help="print a named family as graph6")
    p.add_argument("family", help="e.g. ring(5), star_copies(2), complete_join(3,5)")
    p.set_defaults(func=cmd_named)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
