"""Operation lists for the three benchmark workloads, built from a seed.

An operation is a dict with
  kind      gen | verify | formula | validate-ordering | table | exact | custom
  key       stable name, shared by every pass of a run
  argv      CLI argument vector (``{out}`` / ``{file:<key>}`` placeholders are
            filled in by the child with paths in its temporary directory)
  expect    expected CLI exit code (0, or 3 for a budgeted solver timeout)
  params    instance parameters the oracle needs
Custom operations carry the graph as adjacency lists instead of an argv and
run through ``solver.exact_rc_k`` directly.

The seed shuffles the operation order and generates exact-solve's random
graphs; nothing else depends on it.
"""

from __future__ import annotations

import random

WORKLOADS = ("scale-verify", "table-sweep", "exact-solve")

# Passes every run makes at least; the tail percentile is fixed from
# MIN_PASSES x (CLI operations per pass) so that it is the same on every run.
# exact-solve makes four: its pass is all solver DFS, the figure that swings
# most with the machine's speed, and four passes still fit in a run.
MIN_PASSES = {"scale-verify": 3, "table-sweep": 3, "exact-solve": 4}

SCALE_GP = (200, 400, 600)
SCALE_TORI = ((16, 16), (30, 30), (32, 32), (33, 34), (40, 40))

SWEEP_GP = range(3, 61)
SWEEP_RS_MAX = 12
SWEEP_EXTRA_TORI = ((3, 14),)  # live chain search, about 0.6 s

EXACT_SOLVED = (("gp", 5), ("gp", 6), ("gp", 7), ("cycle", 12),
                ("torus", 3, 4), ("torus", 3, 5), ("torus", 4, 4))
EXACT_BUDGETED = (("gp", 8), ("torus", 3, 6))
NODE_BUDGET = 2_000_000
NEVER_BINDS_S = 1e6  # time budget far above any run, so only nodes bind
RANDOM_GRAPHS = 12
RANDOM_SIZES = (9, 12)
RANDOM_DENSITY = 0.6  # share of vertex pairs joined
# Safety cap for the random graphs; none hit it at this density, and one
# that did would count as unsettled, not as failed.
RANDOM_NODE_BUDGET = 5_000_000


def family_args(family: str, *params: int) -> list[str]:
    if family == "torus":
        return ["--family", "torus", "--r", str(params[0]), "--s", str(params[1])]
    return ["--family", family, "--n", str(params[0])]


def instance_name(family: str, *params: int) -> str:
    if family == "torus":
        return f"T({params[0]},{params[1]})"
    return f"GP({params[0]})" if family == "gp" else f"C{params[0]}"


def params_name(params: dict) -> str:
    """instance_name for an operation's ``params`` dict."""
    if params["family"] == "torus":
        return instance_name("torus", params["r"], params["s"])
    return instance_name(params["family"], params["n"])


def _params(family: str, *params: int) -> dict:
    if family == "torus":
        return {"family": "torus", "r": params[0], "s": params[1]}
    return {"family": family, "n": params[0]}


def _instance_ops(family: str, params: tuple, kinds) -> list[dict]:
    name = instance_name(family, *params)
    fam = family_args(family, *params)
    p = _params(family, *params)
    ops = []
    for kind in kinds:
        key = f"{kind} {name}"
        if kind == "verify":
            argv = ["verify", f"{{file:gen {name}}}", "--out", "{out}"]
        else:
            argv = [kind, *fam, "--out", "{out}"]
        ops.append({"kind": kind, "key": key, "argv": argv, "expect": 0,
                    "params": p})
    return ops


def sweep_tori() -> list[tuple[int, int]]:
    """Every unordered even-rs size with 3 <= r <= s <= 12, plus T(3,14)."""
    sizes = [(r, s) for r in range(3, SWEEP_RS_MAX + 1)
             for s in range(r, SWEEP_RS_MAX + 1) if (r * s) % 2 == 0]
    return sizes + list(SWEEP_EXTRA_TORI)


def random_graph(rng: random.Random) -> list[list[int]]:
    """Connected graph: a random spanning tree topped up to the density."""
    n = rng.randint(*RANDOM_SIZES)
    target = round(RANDOM_DENSITY * n * (n - 1) / 2)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    while len(edges) < target:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(row) for row in adj]


def build(workload: str, seed: int) -> list[dict]:
    rng = random.Random(seed)
    if workload == "scale-verify":
        tasks = [_instance_ops("gp", (n,), ("gen", "verify")) for n in SCALE_GP]
        tasks += [_instance_ops("torus", rs, ("gen", "verify")) for rs in SCALE_TORI]
    elif workload == "table-sweep":
        kinds = ("formula", "gen", "verify", "validate-ordering")
        tasks = [_instance_ops("gp", (n,), kinds) for n in SWEEP_GP]
        tasks += [_instance_ops("torus", rs, kinds) for rs in sweep_tori()]
        tasks.append([{"kind": "table", "key": "table gp", "expect": 0,
                       "params": {"family": "gp",
                                  "instances": [instance_name("gp", n) for n in SWEEP_GP]},
                       "argv": ["table", "--family", "gp", "--n-from", str(SWEEP_GP[0]),
                                "--n-to", str(SWEEP_GP[-1]), "--format", "json",
                                "--out", "{out}"]}])
        tasks.append([{"kind": "table", "key": "table torus", "expect": 0,
                       "params": {"family": "torus",
                                  "instances": [instance_name("torus", *rs)
                                                for rs in sweep_tori()
                                                if max(rs) <= SWEEP_RS_MAX]},
                       "argv": ["table", "--family", "torus", "--r-max", str(SWEEP_RS_MAX),
                                "--s-max", str(SWEEP_RS_MAX), "--format", "json",
                                "--out", "{out}"]}])
    elif workload == "exact-solve":
        tasks = []
        for family, *params in EXACT_SOLVED + EXACT_BUDGETED:
            name = instance_name(family, *params)
            argv = ["exact", *family_args(family, *params)]
            budgeted = (family, *params) in EXACT_BUDGETED
            if budgeted:
                argv += ["--budget-nodes", str(NODE_BUDGET),
                         "--budget-seconds", str(NEVER_BINDS_S)]
            tasks.append([{"kind": "exact", "key": f"exact {name}", "argv": argv + ["--out", "{out}"],
                           "expect": 3 if budgeted else 0,
                           "params": _params(family, *params)}])
        for i in range(RANDOM_GRAPHS):
            adjacency = random_graph(rng)
            tasks.append([{"kind": "custom", "key": f"exact random#{i}", "expect": 0,
                           "params": {"family": "custom", "adjacency": adjacency,
                                      "node_budget": RANDOM_NODE_BUDGET,
                                      "time_budget": NEVER_BINDS_S}}])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(tasks)
    return [op for task in tasks for op in task]
