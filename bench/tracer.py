"""Span tracer that wraps the public functions of each ``antipodal`` module.

The benchmark records spans from its own files, around the calls into each
layer; nothing inside the library changes.  ``cli``, ``gp``, ``torus`` and
``serialize`` import ``all_pairs_distances``, the ``make_*`` builders and the
``radio`` functions by name, so a wrapper is installed under every name in
every ``antipodal`` module that is bound to the original function.  Modules
that import lazily (``solver`` imports ``gp``/``torus`` inside a call) read
the wrapped attribute at call time.

Each span is (layer, start, end, parent span index, operation id).  A layer's
busy time is the duration of its outermost spans (a span nested inside one of
the same layer is not counted twice); its self time is the span durations
minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time

# layer -> (module, function names); Graph.__post_init__ is added separately.
LAYERS = {
    "cli": ("cli", ("main",)),
    "serialize": ("serialize", ("dumps_canonical", "label_to_str", "graph_from_params",
                                "graph_to_dict", "coloring_to_dict", "coloring_from_dict",
                                "report_to_dict", "certificate_to_dict", "formula_to_dict",
                                "pattern_to_dict", "exact_to_dict", "coloring_to_dot")),
    "graphs.build": ("graphs", ("make_cycle", "make_gp", "make_torus",
                                "make_cartesian_product")),
    "graphs.apsp": ("graphs", ("all_pairs_distances",)),
    "radio.verify": ("radio", ("verify_radio_k",)),
    "radio.ordering": ("radio", ("ordering_from_sequence", "order_by_color")),
    "radio.certificate": ("radio", ("minimality_certificate", "span_identity_residual")),
    "gp.construct": ("gp", ("gp_antipodal_coloring", "gp_ordering", "gp_construction")),
    "gp.validate": ("gp", ("validate_gp_ordering",)),
    "torus.construct": ("torus", ("torus_antipodal_coloring",)),
    "torus.ordering": ("torus", ("torus_ordering",)),
    "torus.validate": ("torus", ("validate_torus_ordering",)),
    "solver": ("solver", ("exact_rc_k",)),
}


def _count_repeat(counts, layer, key):
    """Count a call whose input this process has already seen."""
    seen = counts.setdefault(f"_{layer}.seen", set())
    counts[f"{layer}.repeats"] += key in seen
    seen.add(key)


def _count_serialize(counts, fn_name, args, result):
    if fn_name in ("dumps_canonical", "coloring_to_dot"):
        counts["serialize.bytes_out"] += len(result.encode())


def _count_apsp(counts, fn_name, args, result):
    graph = args[0]
    counts["graphs.apsp.cells"] += graph.n * graph.n
    _count_repeat(counts, "graphs.apsp", (graph.n, graph.adjacency))


def _count_verify(counts, fn_name, args, result):
    n = args[0].n
    counts["radio.verify.pairs"] += n * (n - 1) // 2


def _count_torus(counts, fn_name, args, result):
    _count_repeat(counts, "torus.construct", (args[0], args[1]))


def _count_solver(counts, fn_name, args, result):
    counts["solver.nodes"] += result.nodes
    if result.status == "Solved":
        counts["solver.solved"] += 1
    else:
        counts["solver.bound_gap"] += result.value - result.lower_bound


COUNTERS = {"serialize": _count_serialize, "graphs.apsp": _count_apsp,
            "radio.verify": _count_verify, "torus.construct": _count_torus,
            "solver": _count_solver}


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores the originals."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, start, end, parent, op_id]
        self.stack: list[int] = []
        self.op_id: int | None = None
        self.counts = {"serialize.bytes_out": 0, "graphs.apsp.cells": 0,
                       "graphs.apsp.repeats": 0, "radio.verify.pairs": 0,
                       "torus.construct.repeats": 0, "solver.nodes": 0,
                       "solver.solved": 0, "solver.bound_gap": 0}
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, counter):
        spans, stack, perf = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, perf(), None, stack[-1] if stack else None, self.op_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf()
            if counter is not None:
                counter(self.counts, fn.__name__, args, result)
            return result
        return traced

    def install(self) -> None:
        from antipodal import graphs
        modules = [m for name, m in sys.modules.items()
                   if name == "antipodal" or name.startswith("antipodal.")]
        for layer, (mod_name, names) in LAYERS.items():
            home = sys.modules[f"antipodal.{mod_name}"]
            for name in names:
                original = getattr(home, name)
                wrapped = self._wrap(layer, original, COUNTERS.get(layer))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapped)
        post_init = graphs.Graph.__post_init__
        self._restore.append((graphs.Graph, "__post_init__", post_init))
        graphs.Graph.__post_init__ = self._wrap("graphs.build", post_init, None)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Per-layer calls, busy and self seconds, plus the recorded counts."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.busy_s"] = 0.0
            out[f"{layer}.self_s"] = 0.0
        for idx, (layer, start, end, parent, _) in enumerate(self.spans):
            out[f"{layer}.self_s"] += end - start - child_time[idx]
            ancestor = parent
            while ancestor is not None and self.spans[ancestor][0] != layer:
                ancestor = self.spans[ancestor][3]
            if ancestor is None:
                out[f"{layer}.calls"] += 1
                out[f"{layer}.busy_s"] += end - start
        out.update({k: v for k, v in self.counts.items() if not k.startswith("_")})
        return out
