"""Command-line front end: generate, verify, certify, solve and tabulate.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 solver
timeout.  Data goes to stdout (or --out); diagnostics go to stderr.
``main`` builds its parser once per process and reuses it on every call;
parsing leaves the parser unchanged.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from math import isfinite, prod

from .graphs import GraphError, closed_form_diameter, distances, family_cycles
from .radio import (RadioError, order_by_color, ordering_from_sequence,
                    pattern_certificate, span, span_identity_residual,
                    verify_radio_k)
from .torus import ConstructionError, TorusError, torus_case
from .solver import TIMED_OUT, exact_rc_k
from . import families, serialize

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_TIMEOUT = 3

TABLE_COLUMNS = ["family", "params", "n", "diameter", "k", "case_label",
                 "formula_value", "formula_status", "construction_span",
                 "certificate", "discrepancy"]
# ``certificate`` of a table row whose size has no construction
NO_CONSTRUCTION = "NoConstruction"


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _params(args) -> dict:
    return {name: getattr(args, name) for name in families.FAMILY_PARAMS[args.family]}


def _gen_payload(args) -> dict:
    graph, _, ordering, coloring, formula = families.construct(args.family, **_params(args))
    meta = {
        "construction": f"{args.family}/{formula.case_label}",
        "claimed_span": span(coloring),
        "formula_status": formula.status,
        "case_label": formula.case_label,
        "ordering": list(ordering.order),
        "discrepancy": formula.discrepancy,
    }
    return serialize.coloring_to_dict(graph, coloring, meta)


def cmd_gen(args) -> int:
    payload = _gen_payload(args)
    _write(serialize.dumps_canonical(payload), args.out)
    return EXIT_OK


def cmd_graph(args) -> int:
    graph = families.make_graph(args.family, _params(args))
    _write(serialize.dumps_canonical(serialize.graph_to_dict(graph)), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    with open(args.file) as fh:
        data = json.load(fh)
    graph, coloring, meta = serialize.coloring_from_dict(data)
    dist = distances(graph)
    report = verify_radio_k(graph, dist, coloring)
    ordering = None
    order = meta.get("ordering")
    if isinstance(order, list) and set(map(type, order)) <= {int}:
        try:
            ordering = ordering_from_sequence(coloring, dist, order)
        except RadioError:
            ordering = None  # stale ordering in a tampered file
    if ordering is None:
        ordering = order_by_color(coloring, dist)
    residual = span_identity_residual(ordering, dist)
    cert = None
    if coloring.k == dist.diameter - 1:
        cert = pattern_certificate(ordering, dist)
    lines = {
        "valid": report.valid,
        "span": span(coloring),
        "claimed_span": meta.get("claimed_span"),
        "span_identity_residual": residual,
        "certificate": None if cert is None else cert.status,
        "violations": [list(v) for v in report.violations],
    }
    _write(serialize.dumps_canonical(lines), args.out)
    ok = report.valid and residual == 0
    if meta.get("claimed_span") is not None:
        ok = ok and span(coloring) == meta["claimed_span"]
    return EXIT_OK if ok else EXIT_INVALID


def cmd_formula(args) -> int:
    result = families.formula(args.family, **_params(args))
    _write(serialize.dumps_canonical(serialize.formula_to_dict(result)), args.out)
    return EXIT_OK


def cmd_exact(args) -> int:
    if args.budget_nodes < 0:
        raise UsageError("--budget-nodes must be >= 0")
    if not (isfinite(args.budget_seconds) and args.budget_seconds >= 0):
        raise UsageError("--budget-seconds must be finite and >= 0")
    graph = families.make_graph(args.family, _params(args))
    dist = distances(graph)
    k = args.k if args.k is not None else dist.diameter - 1
    result = exact_rc_k(graph, dist, k, node_budget=args.budget_nodes,
                        time_budget=args.budget_seconds)
    _write(serialize.dumps_canonical(serialize.exact_to_dict(result)), args.out)
    return EXIT_TIMEOUT if result.status == TIMED_OUT else EXIT_OK


def cmd_validate_ordering(args) -> int:
    report = families.validate(args.family, **_params(args))
    _write(serialize.dumps_canonical(serialize.pattern_to_dict(report)), args.out)
    return EXIT_OK if report.ok else EXIT_INVALID


def _row(family: str, params: dict) -> dict:
    """Formula columns, plus the construction's span and certificate where
    the size has a construction."""
    formula = families.formula(family, **params)
    diameter = closed_form_diameter(family, params)
    row = {
        "family": family,
        "params": ";".join(f"{name}={value}" for name, value in params.items()),
        "n": prod(family_cycles(family, params)),
        "diameter": diameter,
        "k": diameter - 1,
        "case_label": formula.case_label,
        "formula_value": formula.value,
        "formula_status": formula.status,
        "construction_span": "",
        "certificate": "",
        "discrepancy": formula.discrepancy or "",
    }
    try:
        _, dist, ordering, coloring, _ = families.construct(family, **params)
    except ConstructionError:
        row["certificate"] = NO_CONSTRUCTION
        return row
    except TorusError:  # odd rs: the formula is only a lower bound
        return row
    row["construction_span"] = span(coloring)
    row["certificate"] = pattern_certificate(ordering, dist).status
    return row


def cmd_table(args) -> int:
    if args.family == "gp":
        if args.n_from is None or args.n_to is None:
            raise UsageError("gp table needs --n-from and --n-to")
        sizes = [{"n": n} for n in range(args.n_from, args.n_to + 1)]
    else:
        if args.r_max is None or args.s_max is None:
            raise UsageError("torus table needs --r-max and --s-max")
        # one row per size up to orientation, in the orientation its class uses
        cases = (torus_case(r, s) for r in range(3, args.r_max + 1)
                 for s in range(3, args.s_max + 1))
        sizes = [{"r": r, "s": s} for r, s in dict.fromkeys((c.r, c.s) for c in cases)]
    rows = [_row(args.family, size) for size in sizes]
    if args.format == "json":
        _write(serialize.dumps_canonical(rows), args.out)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=TABLE_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        _write(buf.getvalue(), args.out)
    return EXIT_OK


def cmd_export_dot(args) -> int:
    with open(args.file) as fh:
        data = json.load(fh)
    graph, coloring, _meta = serialize.coloring_from_dict(data)
    _write(serialize.coloring_to_dot(graph, coloring), args.out)
    return EXIT_OK


class UsageError(Exception):
    pass


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antipodal",
        description="antipodal (radio) colorings of GP(n,1) and toroidal grids")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p, choices=("gp", "torus")):
        p.add_argument("--family", choices=choices, required=True)
        p.add_argument("--n", type=int, help="cycle length for gp/cycle")
        p.add_argument("--r", type=int)
        p.add_argument("--s", type=int)
        p.set_defaults(needs_params=True)

    p = sub.add_parser("gen", help="emit a construction coloring as JSON")
    add_family(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("graph", help="emit a graph as JSON (edges + labels)")
    add_family(p, choices=("gp", "torus", "cycle"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("verify", help="verify a coloring JSON file")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("formula", help="print the closed-form span")
    add_family(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_formula)

    p = sub.add_parser("exact", help="run the exact branch-and-bound solver")
    add_family(p, choices=("gp", "torus", "cycle"))
    p.add_argument("--k", type=int, default=None,
                   help="radio parameter (default: diameter - 1)")
    p.add_argument("--budget-nodes", type=int, default=10 ** 8)
    p.add_argument("--budget-seconds", type=float, default=60.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("validate-ordering", help="re-derive distance patterns")
    add_family(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_validate_ordering)

    p = sub.add_parser("table", help="batch formulas, spans and certificates")
    p.add_argument("--family", choices=("gp", "torus"), required=True)
    p.add_argument("--n-from", type=int)
    p.add_argument("--n-to", type=int)
    p.add_argument("--r-max", type=int)
    p.add_argument("--s-max", type=int)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("export-dot", help="DOT graph with colors as labels")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_export_dot)
    return parser


def _check_args(args) -> None:
    if not getattr(args, "needs_params", False):
        return
    required = families.FAMILY_PARAMS[args.family]
    others = [name for name in ("n", "r", "s") if name not in required]
    if any(getattr(args, name) is None for name in required):
        flags = " and ".join(f"--{name}" for name in required)
        raise UsageError(f"--family {args.family} requires {flags}")
    if any(getattr(args, name) is not None for name in others):
        flags = "/".join(f"--{name}" for name in others)
        raise UsageError(f"--family {args.family} conflicts with {flags}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        _check_args(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GraphError, RadioError, TorusError, OSError, UnicodeDecodeError,
            json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
