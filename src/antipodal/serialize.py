"""Stable JSON/CSV/DOT serialization for graphs, colorings and reports.

All JSON is emitted with sorted keys and compact separators so identical
inputs produce identical bytes.  Structured vertex labels are flattened to
colon-joined strings ("x:3", "2:5").
"""

from __future__ import annotations

import json

from .families import make_graph as graph_from_params
from .graphs import Graph
from .radio import Coloring, MinimalityCertificate, RadioError, VerificationReport
from .results import FormulaResult, PatternReport
from .solver import ExactResult


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def label_to_str(label) -> str:
    if isinstance(label, tuple):
        return ":".join(str(part) for part in label)
    return str(label)


def graph_to_dict(graph: Graph) -> dict:
    labels = {}
    if graph.labels is not None:
        labels = {label_to_str(lab): idx for lab, idx in graph.labels.items()}
    return {
        "family": graph.family,
        "params": dict(graph.params),
        "n": graph.n,
        "edges": [list(e) for e in sorted(graph.edges())],
        "labels": labels,
    }


def coloring_to_dict(graph: Graph, coloring: Coloring, meta: dict) -> dict:
    return {
        "graph_ref": {"family": graph.family, "params": dict(graph.params)},
        "k": coloring.k,
        "colors": list(coloring.colors),
        "meta": meta,
    }


def coloring_from_dict(data: dict) -> tuple[Graph, Coloring, dict]:
    """Graph, coloring and metadata of a coloring file; a field of the wrong
    JSON type, or a color list whose length is not the graph's order,
    raises ``RadioError`` or ``GraphError``, never a coercion."""
    if not isinstance(data, dict):
        raise RadioError("a coloring file holds one JSON object")
    ref, colors, meta = data["graph_ref"], data["colors"], data.get("meta", {})
    if not (isinstance(ref, dict) and isinstance(ref["params"], dict)
            and isinstance(colors, list) and isinstance(meta, dict)):
        raise RadioError("graph_ref, its params and meta must be objects, colors a list")
    graph = graph_from_params(ref["family"], ref["params"])
    coloring = Coloring(colors=tuple(colors), k=data["k"])
    if coloring.n != graph.n:
        raise RadioError("coloring size does not match graph order")
    return graph, coloring, meta


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "valid": report.valid,
        "violations": [list(v) for v in report.violations],
    }


def certificate_to_dict(cert: MinimalityCertificate) -> dict:
    return {
        "status": cert.status,
        "failures": [list(f) for f in cert.failures],
    }


def formula_to_dict(result: FormulaResult) -> dict:
    return {
        "value": result.value,
        "status": result.status,
        "case_label": result.case_label,
        "printed_value": None if result.printed_value is None else str(result.printed_value),
        "discrepancy": result.discrepancy,
    }


def pattern_to_dict(report: PatternReport) -> dict:
    return {
        "ok": report.ok,
        "pattern": report.pattern,
        "mismatches": [list(m) for m in report.mismatches],
    }


def exact_to_dict(result: ExactResult) -> dict:
    return {
        "status": result.status,
        "value": result.value,
        "lower_bound": result.lower_bound,
        "witness": list(result.witness.colors),
        "k": result.witness.k,
        "nodes": result.nodes,
        "elapsed_seconds": round(result.elapsed, 3),
    }


def coloring_to_dot(graph: Graph, coloring: Coloring) -> str:
    """DOT text with the numeric color as label and a grayscale fill bucket."""
    top = max(max(coloring.colors), 1)
    lines = ["graph radio {", "  node [style=filled];"]
    for v in range(graph.n):
        c = coloring.colors[v]
        shade = 90 - round(55 * c / top)  # gray90 (low) .. gray35 (high)
        lines.append(f'  {v} [label="{c}", fillcolor="gray{shade}"];')
    for u, v in sorted(graph.edges()):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
