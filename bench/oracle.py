"""Independent checker for every output a benchmark pass writes.

Nothing here imports ``antipodal``: distances come from closed forms for
GP(n,1) (cycle distance, plus 1 across a spoke), tori and cycles, and from
this module's own BFS for the seeded random graphs.  Every emitted coloring
and every solver witness is re-checked pair by pair, and solver values are
compared with the recorded optima.  The library's own "valid" is never taken
on trust; where the library reports on a coloring, its report must agree
with the check made here.
"""

from __future__ import annotations

import json
from collections import deque

import numpy as np

from workloads import instance_name, params_name

# Antipodal numbers recorded from exhaustive solves and checked witnesses.
OPTIMA = {"GP(5)": 6, "GP(6)": 11, "GP(7)": 12, "C12": 17,
          "T(3,4)": 8, "T(3,5)": 8, "T(4,4)": 15}


def _cycle(n: int, a: np.ndarray) -> np.ndarray:
    delta = np.abs(a[:, None] - a[None, :]) % n
    return np.minimum(delta, n - delta)


def family_distances(params: dict) -> np.ndarray:
    """Closed-form all-pairs distances in the library's vertex numbering."""
    family = params["family"]
    if family == "cycle":
        return _cycle(params["n"], np.arange(params["n"]))
    if family == "gp":  # outer cycle 0..n-1, inner cycle n..2n-1
        n = params["n"]
        idx = np.arange(2 * n)
        layer = idx // n
        return _cycle(n, idx % n) + (layer[:, None] != layer[None, :])
    if family == "torus":  # (i, j) at index i*s + j
        r, s = params["r"], params["s"]
        idx = np.arange(r * s)
        return _cycle(r, idx // s) + _cycle(s, idx % s)
    raise ValueError(f"no closed form for {family!r}")


def bfs_distances(adjacency: list[list[int]]) -> np.ndarray:
    n = len(adjacency)
    dist = np.full((n, n), -1, dtype=np.int64)
    for src in range(n):
        dist[src, src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if dist[src, v] < 0:
                    dist[src, v] = dist[src, u] + 1
                    queue.append(v)
    if (dist < 0).any():
        raise ValueError("random graph is not connected")
    return dist


def distances(params: dict) -> np.ndarray:
    if params["family"] == "custom":
        return bfs_distances(params["adjacency"])
    return family_distances(params)


def vertex_count(params: dict) -> int:
    family = params["family"]
    if family == "torus":
        return params["r"] * params["s"]
    if family == "gp":
        return 2 * params["n"]
    if family == "custom":
        return len(params["adjacency"])
    return params["n"]


def coloring_problems(dist: np.ndarray, colors, k: int) -> list[str]:
    """Pair-by-pair radio k-condition: |g(u) - g(v)| >= 1 + k - d(u, v)."""
    n = dist.shape[0]
    if len(colors) != n:
        return [f"coloring has {len(colors)} colors for {n} vertices"]
    if any(not isinstance(c, int) or c < 0 for c in colors):
        return ["colors are not non-negative integers"]
    c = np.asarray(colors, dtype=np.int64)
    bad = np.abs(c[:, None] - c[None, :]) < 1 + k - dist
    np.fill_diagonal(bad, False)
    count = int(bad.sum()) // 2
    return [f"{count} vertex pairs violate the radio {k}-condition"] if count else []


class PassChecker:
    """Checks one pass's outputs; cross-checks run after every op is seen.

    ``check(op, record)`` returns the problems found with that operation;
    ``finish()`` returns (op index, problem) pairs from the cross-checks:
    formula values and table rows against the spans of the colorings that
    ``gen`` emitted in the same pass.
    """

    def __init__(self) -> None:
        self.spans: dict[str, int] = {}  # instance name -> emitted span
        self.formulas: list[tuple[int, str, int]] = []
        self.verifies: list[tuple[int, str, int]] = []
        self.tables: list[tuple[int, str, list]] = []
        self._dist_cache: dict[str, np.ndarray] = {}

    def _dist(self, params: dict) -> np.ndarray:
        key = json.dumps(params, sort_keys=True)
        if key not in self._dist_cache:
            self._dist_cache[key] = distances(params)
        return self._dist_cache[key]

    def check(self, index: int, op: dict, record: dict) -> list[str]:
        if record.get("error"):
            return [f"raised {record['error']}"]
        if record.get("rc") != op["expect"]:
            return [f"exit code {record.get('rc')}, expected {op['expect']}"]
        try:
            with open(record["out"]) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            return [f"unreadable output: {exc}"]
        try:
            return getattr(self, "_" + op["kind"].replace("-", "_"))(index, op, data)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return [f"malformed output: {exc!r}"]

    def _gen(self, index, op, data):
        params = op["params"]
        dist = self._dist(params)
        diam = int(dist.max())
        want_ref = {k: v for k, v in params.items() if k != "family"}
        problems = []
        ref = data["graph_ref"]
        if ref["family"] != params["family"] or ref["params"] != want_ref:
            problems.append(f"graph_ref {ref} does not match the request")
        colors, k = data["colors"], data["k"]
        if k != diam - 1:
            problems.append(f"k={k}, antipodal k is {diam - 1}")
        problems += coloring_problems(dist, colors, k)
        if problems:
            return problems
        span = max(colors)
        if min(colors) != 0:
            problems.append("minimum color is not 0")
        meta = data["meta"]
        if meta["claimed_span"] != span:
            problems.append(f"claimed span {meta['claimed_span']} != span {span}")
        order = meta["ordering"]
        if sorted(order) != list(range(len(colors))):
            problems.append("ordering is not a permutation of the vertices")
        else:
            if any(colors[a] > colors[b] for a, b in zip(order, order[1:])):
                problems.append("colors decrease along the ordering")
            if any(dist[order[m], order[m + 1]] != diam for m in range(0, len(order) - 1, 2)):
                problems.append("ordering pairs are not antipodal")
        self.spans[params_name(params)] = span
        return problems

    def _verify(self, index, op, data):
        problems = []
        if data["valid"] is not True or data["violations"]:
            problems.append("verify rejected a coloring the oracle accepts")
        if data["span_identity_residual"] != 0:
            problems.append(f"span identity residual {data['span_identity_residual']}")
        if data["span"] != data["claimed_span"]:
            problems.append(f"span {data['span']} != claimed {data['claimed_span']}")
        self.verifies.append((index, params_name(op["params"]), data["span"]))
        return problems

    def _formula(self, index, op, data):
        self.formulas.append((index, params_name(op["params"]), data["value"]))
        if data["status"] not in ("Exact", "UpperBound"):
            return [f"status {data['status']} for an even-order instance"]
        return []

    def _validate_ordering(self, index, op, data):
        if data["ok"] is not True or data["mismatches"]:
            return [f"{len(data['mismatches'])} pattern mismatches"]
        return []

    def _table(self, index, op, data):
        self.tables.append((index, op, data))
        return []

    def _exact(self, index, op, data):
        params = op["params"]
        dist = self._dist(params)
        diam = int(dist.max())
        problems = []
        if data["k"] != diam - 1:
            problems.append(f"k={data['k']}, antipodal k is {diam - 1}")
        problems += self._witness(dist, data)
        name = params_name(params)
        if op["expect"] == 0:
            if data["status"] != "Solved":
                problems.append(f"status {data['status']}, expected Solved")
            if data["value"] != OPTIMA[name]:
                problems.append(f"value {data['value']}, recorded optimum {OPTIMA[name]}")
        elif data["status"] != "TimedOut":
            problems.append(f"status {data['status']}, expected TimedOut at the budget")
        return problems

    def _custom(self, index, op, data):
        dist = self._dist(op["params"])
        k = max(1, int(dist.max()) - 1)
        problems = []
        if data["k"] != k:
            problems.append(f"k={data['k']}, expected max(1, diam - 1) = {k}")
        return problems + self._witness(dist, data)

    @staticmethod
    def _witness(dist, data):
        problems = coloring_problems(dist, data["witness"], data["k"])
        if not problems and max(data["witness"]) != data["value"]:
            problems.append(f"witness span {max(data['witness'])} != value {data['value']}")
        if data["status"] == "Solved" and data["lower_bound"] != data["value"]:
            problems.append("solved instance with lower bound below its value")
        if data["lower_bound"] > data["value"]:
            problems.append("lower bound above the value")
        return problems

    def finish(self) -> list[tuple[int, str]]:
        found = []
        for index, name, value in self.formulas + self.verifies:
            if self.spans.get(name, value) != value:
                found.append((index, f"{name}: {value} != emitted span {self.spans[name]}"))
        for index, op, rows in self.tables:
            problems, seen = self._table_rows(op["params"]["family"], rows)
            if seen != set(op["params"]["instances"]):
                problems.append(f"table covers {len(seen)} even-order instances, "
                                f"expected {len(op['params']['instances'])}")
            found += [(index, problem) for problem in problems]
        return found

    def _table_rows(self, family, rows):
        problems = []
        seen = set()
        for row in rows:
            params = {k: int(v) for k, v in
                      (item.split("=") for item in row["params"].split(";"))}
            if family == "gp":
                name, diam = instance_name("gp", params["n"]), params["n"] // 2 + 1
            else:  # the sweep names each torus with r <= s
                r, s = sorted((params["r"], params["s"]))
                name, diam = instance_name("torus", r, s), r // 2 + s // 2
                if (r * s) % 2 == 1:
                    if row["formula_status"] != "LowerBound" or row["construction_span"] != "":
                        problems.append(f"odd torus row {name} claims a construction")
                    continue
            seen.add(name)
            if (row["diameter"], row["k"]) != (diam, diam - 1):
                problems.append(f"row {name}: diameter {row['diameter']} != {diam}")
            if row["construction_span"] != row["formula_value"]:
                problems.append(f"row {name}: span {row['construction_span']} "
                                f"!= formula {row['formula_value']}")
            if self.spans.get(name, row["construction_span"]) != row["construction_span"]:
                problems.append(f"row {name}: span {row['construction_span']} "
                                f"!= emitted {self.spans[name]}")
        return problems, seen
