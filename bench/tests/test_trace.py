"""Tracing changes nothing: traced and untraced passes write the same bytes."""

import antipodal
import run
import workloads
from antipodal import cli, graphs, radio
from tracer import Tracer

KEEP = {"GP(5)", "GP(10)", "T(3,4)", "T(6,10)"}


def _small_ops():
    sweep = [op for op in workloads.build("table-sweep", 0)
             if op["key"].split(" ", 1)[1] in KEEP or op["key"] == "table gp"]
    exact = [op for op in workloads.build("exact-solve", 0)
             if op["key"] in ("exact GP(5)", "exact T(3,4)", "exact random#0")]
    return sweep + exact


def test_traced_outputs_are_byte_identical(tmp_path):
    ops = _small_ops()
    plain, _ = run.spawn(tmp_path, {"setup_only": False, "trace": False, "ops": ops})
    traced, _ = run.spawn(tmp_path, {"setup_only": False, "trace": True, "ops": ops})
    for a, b in zip(plain["ops"], traced["ops"]):
        assert (a["rc"], a["error"]) == (b["rc"], b["error"]), a["key"]
        assert run._digest(a["out"]) == run._digest(b["out"]), a["key"]
    check = run.Checker(ops)
    figures = [run.pass_figures(ops, traced, check(traced))]
    assert figures[0]["failed"] == 0
    metrics = run.end_to_end(figures, [0.1], run.tail_percentile(len(ops)))
    assert set(metrics) == set(run.E2E_UNITS)

    layers = traced["layers"]
    kinds = [op["kind"] for op in ops]
    assert layers["cli.calls"] == len(ops) - kinds.count("custom")
    # cli imports verify_radio_k by name; uncounted calls would show here
    assert layers["radio.verify.calls"] == kinds.count("verify")
    assert layers["solver.calls"] == kinds.count("exact") + kinds.count("custom")
    assert layers["solver.nodes"] > 0 and layers["graphs.apsp.cells"] > 0
    layer_metrics = run.per_layer([layers], 0.0)
    assert set(layer_metrics) == set(run.LAYER_UNITS)


def test_tracer_restores_every_namespace(tmp_path):
    originals = (cli.main, cli.verify_radio_k, radio.verify_radio_k,
                 antipodal.all_pairs_distances, graphs.Graph.__post_init__)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.verify_radio_k is not originals[1]
        tracer.op_id = 7
        out = str(tmp_path / "f.json")
        assert cli.main(["validate-ordering", "--family", "gp", "--n", "6", "--out", out]) == 0
    finally:
        tracer.uninstall()
    assert (cli.main, cli.verify_radio_k, radio.verify_radio_k,
            antipodal.all_pairs_distances, graphs.Graph.__post_init__) == originals
    layer, start, end, parent, op_id = tracer.spans[0]
    assert (layer, parent, op_id) == ("cli", None, 7)
    assert all(span[3] is not None for span in tracer.spans[1:])
    summary = tracer.summary()
    assert summary["gp.validate.calls"] == 1 and summary["graphs.apsp.calls"] == 1
    assert 0 < summary["cli.self_s"] < summary["cli.busy_s"]
