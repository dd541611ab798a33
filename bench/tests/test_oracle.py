"""The oracle rejects corrupted outputs, and each one counts in error_rate."""

import json

import pytest

import oracle
import run
from antipodal import cli


def _op(kind, key, argv, params, expect=0):
    return {"kind": kind, "key": key, "argv": argv, "params": params, "expect": expect}


@pytest.fixture
def outputs(tmp_path):
    """A gen of GP(6) and an exact solve of GP(5), written by the real CLI."""
    gen_out, exact_out = str(tmp_path / "gen.json"), str(tmp_path / "exact.json")
    assert cli.main(["gen", "--family", "gp", "--n", "6", "--out", gen_out]) == 0
    assert cli.main(["exact", "--family", "gp", "--n", "5", "--out", exact_out]) == 0
    ops = [_op("gen", "gen GP(6)", [], {"family": "gp", "n": 6}),
           _op("exact", "exact GP(5)", [], {"family": "gp", "n": 5})]
    return ops, [gen_out, exact_out]


def _report(paths):
    return {"maxrss_kb": 1024,
            "ops": [{"key": f"op{i}", "out": p, "rc": 0, "error": None, "seconds": 0.01}
                    for i, p in enumerate(paths)]}


def _rewrite(path, change):
    with open(path) as fh:
        data = json.load(fh)
    change(data)
    with open(path, "w") as fh:
        json.dump(data, fh)


def test_closed_forms_match_library_bfs():
    from antipodal.graphs import all_pairs_distances, make_cycle, make_gp, make_torus
    for params, graph in (({"family": "gp", "n": 7}, make_gp(7)),
                          ({"family": "torus", "r": 5, "s": 6}, make_torus(5, 6)),
                          ({"family": "cycle", "n": 9}, make_cycle(9))):
        assert (oracle.family_distances(params) == all_pairs_distances(graph).dist).all()


def test_real_outputs_pass(outputs):
    ops, paths = outputs
    assert run.check_pass(ops, _report(paths)) == [[], []]


def test_corrupted_coloring_and_wrong_span_count_as_failures(outputs):
    ops, paths = outputs

    def corrupt(data):  # adjacent outer-cycle vertices share a color
        data["colors"][0] = data["colors"][1]
    _rewrite(paths[0], corrupt)

    def wrong_span(data):
        data["value"] += 1
    _rewrite(paths[1], wrong_span)

    ok_out = paths[1] + ".ok"
    assert cli.main(["exact", "--family", "gp", "--n", "5", "--out", ok_out]) == 0
    all_ops = ops + [ops[1]]
    report = _report(paths + [ok_out])
    problems = run.check_pass(all_ops, report)
    assert any("violate" in p for p in problems[0])
    assert any("recorded optimum 6" in p for p in problems[1])
    assert problems[2] == []

    figures = run.pass_figures(all_ops, report, problems)
    assert figures["failed"] == 2
    metrics = run.end_to_end([figures], [0.1], run.tail_percentile(20))
    assert metrics["error_rate"] == pytest.approx(2 / 3)


def test_wrong_exit_code_counts_even_with_good_output(outputs):
    ops, paths = outputs
    report = _report(paths)
    report["ops"][1]["rc"] = 3  # a timeout where the instance must solve
    problems = run.check_pass(ops, report)
    assert problems[0] == [] and problems[1]
