"""One benchmark pass in a fresh interpreter: ``child.py SPEC REPORT``.

SPEC is a JSON file written by run.py: the source directory to import from,
the operations, the output directory and whether to trace.  The child imports
``antipodal``, builds the CLI parser (set-up ends here), then runs the
operations one after another, one client in a closed loop, and writes timings
and exit codes to REPORT.  Outputs go to files in the output directory; the
parent checks them after the child has exited, so checking costs neither the
timed region nor this process's peak memory.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _peak_rss_kb() -> int:
    """This process's own peak RSS.

    ``ru_maxrss`` also keeps the peak of the image that exec replaced, which
    is the parent's resident size at spawn; ``VmHWM`` is reset by exec.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _fill(argv: list[str], out: str, paths: dict[str, str]) -> list[str]:
    filled = []
    for arg in argv:
        if arg == "{out}":
            filled.append(out)
        elif arg.startswith("{file:"):
            filled.append(paths[arg[len("{file:"):-1]])
        else:
            filled.append(arg)
    return filled


def _run_custom(params: dict) -> dict:
    """Seeded custom graph through the API: Graph, BFS distances, exact_rc_k."""
    from antipodal import graphs, solver
    adjacency = tuple(tuple(row) for row in params["adjacency"])
    graph = graphs.Graph(n=len(adjacency), adjacency=adjacency)
    dist = graphs.all_pairs_distances(graph)
    k = max(1, dist.diameter - 1)
    result = solver.exact_rc_k(graph, dist, k, node_budget=params["node_budget"],
                               time_budget=params["time_budget"])
    return {"status": result.status, "value": result.value,
            "lower_bound": result.lower_bound, "k": result.witness.k,
            "witness": list(result.witness.colors), "nodes": result.nodes}


def main(spec_path: str, report_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import antipodal
    from antipodal import cli
    cli.build_parser()
    ready = time.monotonic()
    report = {"ready": ready, "module": antipodal.__file__, "ops": []}
    if spec["setup_only"]:
        with open(report_path, "w") as fh:
            json.dump(report, fh)
        return 0

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    paths: dict[str, str] = {}
    for i, op in enumerate(spec["ops"]):
        out = f"{spec['outdir']}/{i:04d}.json"
        paths[op["key"]] = out
        if tracer is not None:
            tracer.op_id = i
        record = {"key": op["key"], "out": out, "rc": None, "error": None}
        if op["kind"] == "custom":
            start = time.perf_counter()
            try:
                result = _run_custom(op["params"])
            except Exception as exc:  # counted as a failed operation
                record["error"] = repr(exc)
            record["seconds"] = time.perf_counter() - start
            if record["error"] is None:
                record["rc"] = 0
                with open(out, "w") as fh:
                    json.dump(result, fh, sort_keys=True)
        else:
            argv = _fill(op["argv"], out, paths)
            start = time.perf_counter()
            try:
                record["rc"] = cli.main(argv)
            except Exception as exc:  # counted as a failed operation
                record["error"] = repr(exc)
            record["seconds"] = time.perf_counter() - start
        report["ops"].append(record)
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.summary()
    report["maxrss_kb"] = _peak_rss_kb()
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
