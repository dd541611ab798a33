import contextlib
import importlib.util
import io
import json
import sys
import time
import tracemalloc

import pytest

from antipodal import cli, graphs
from antipodal.cli import main
from antipodal.serialize import coloring_to_dot, dumps_canonical

from conftest import reference_gp_colors


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_gp8(capsys, tmp_path):
    path = tmp_path / "gp8.json"
    code, out, _ = run_cli(capsys, "gen", "--family", "gp", "--n", "8",
                           "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["meta"]["claimed_span"] == 21
    assert data["meta"]["formula_status"] == "Exact"
    assert data["k"] == 4
    assert len(data["colors"]) == 16


def test_gen_is_byte_stable(capsys, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "gen", "--family", "torus", "--r", "6", "--s", "4", "--out", str(p1))
    run_cli(capsys, "gen", "--family", "torus", "--r", "6", "--s", "4", "--out", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("argv", [
    ("--family", "gp", "--n", "8"),
    ("--family", "gp", "--n", "10"),
    ("--family", "torus", "--r", "6", "--s", "4"),
    ("--family", "torus", "--r", "5", "--s", "6"),
])
def test_gen_verify_roundtrip(capsys, tmp_path, argv):
    path = tmp_path / "c.json"
    code, _, _ = run_cli(capsys, "gen", *argv, "--out", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True
    assert report["span_identity_residual"] == 0
    assert report["span"] == report["claimed_span"]


def test_verify_certificate_status(capsys, tmp_path):
    path = tmp_path / "gp8.json"
    run_cli(capsys, "gen", "--family", "gp", "--n", "8", "--out", str(path))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert json.loads(out)["certificate"] == "Certified"
    # GP(10) under the published constant-increment rule, span 36, along
    # the construction ordering: valid, but the two-step clause fails
    path10 = tmp_path / "gp10.json"
    run_cli(capsys, "gen", "--family", "gp", "--n", "10", "--out", str(path10))
    data = json.loads(path10.read_text())
    data["colors"] = list(reference_gp_colors(10))
    data["meta"]["claimed_span"] = 36
    path10.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "verify", str(path10))
    assert code == 0  # the coloring is valid even though minimality is open
    report = json.loads(out)
    assert (report["valid"], report["span"]) == (True, 36)
    assert report["certificate"] == "CriterionFailed"


def test_verify_rejects_tampered_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    run_cli(capsys, "gen", "--family", "gp", "--n", "8", "--out", str(path))
    data = json.loads(path.read_text())
    data["colors"][0] = data["colors"][1]  # clobber a color
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert json.loads(out)["valid"] is False


@pytest.mark.parametrize("field,value,code", [
    # a stale ordering falls back to color order
    (["meta", "ordering", 1], "a", 0),
    (["meta", "ordering"], 5, 0),
    (["meta", "ordering", 1], True, 0),
    (["meta", "ordering", 1], 1.0, 0),
    # any other field of the wrong type is an error, never truncated
    (["colors"], 5, 2),
    (["colors", 0], 1.5, 2),
    (["colors", 0], "3", 2),
    (["colors", 0], True, 2),
    (["colors", 0], -1, 2),
    (["k"], 3.7, 2),
    (["graph_ref", "params", "n"], "abc", 2),
    (["graph_ref", "params", "n"], 5.0, 2),
    (["meta"], [], 2),
], ids=lambda x: ".".join(map(str, x)) if isinstance(x, list) else repr(x))
def test_verify_rejects_malformed_fields(capsys, tmp_path, field, value, code):
    path = tmp_path / "gp5.json"
    run_cli(capsys, "gen", "--family", "gp", "--n", "5", "--out", str(path))
    data = json.loads(path.read_text())
    ordering = data["meta"].pop("ordering")
    path.write_text(json.dumps(data))
    _, color_order, _ = run_cli(capsys, "verify", str(path))
    data["meta"]["ordering"] = ordering
    *keys, last = field
    target = data
    for key in keys:
        target = target[key]
    target[last] = value
    path.write_text(json.dumps(data))
    got, out, err = run_cli(capsys, "verify", str(path))
    assert got == code
    if code == 0:
        assert out == color_order
    else:
        assert not out and err.startswith("error: ")


def test_formula_command(capsys):
    code, out, _ = run_cli(capsys, "formula", "--family", "gp", "--n", "10")
    assert code == 0
    data = json.loads(out)
    assert data == {"value": 27, "status": "UpperBound", "case_label": "4t+2(t even)",
                    "printed_value": "36",
                    "discrepancy": "published closed form gives 36; the pair-chain "
                                   "construction attains 27"}
    code, out, _ = run_cli(capsys, "formula", "--family", "torus", "--r", "6", "--s", "4")
    data = json.loads(out)
    assert data["value"] == 33 and data["discrepancy"]
    code, out, _ = run_cli(capsys, "formula", "--family", "torus", "--r", "3", "--s", "5")
    data = json.loads(out)
    assert (data["value"], data["status"]) == (7, "LowerBound")


def test_exact_command(capsys):
    code, out, _ = run_cli(capsys, "exact", "--family", "cycle", "--n", "4", "--k", "1")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "Solved" and data["value"] == 1


def test_exact_timeout_exit_code(capsys):
    code, out, _ = run_cli(capsys, "exact", "--family", "gp", "--n", "6",
                           "--budget-nodes", "1000")
    assert code == 3
    assert json.loads(out)["status"] == "TimedOut"


@pytest.mark.parametrize("family, vertices, mib", [
    (("--family", "gp", "--n", "300"), 600, 494),
    (("--family", "torus", "--r", "40", "--s", "40"), 1600, 2512),
])
def test_exact_refuses_a_search_table_above_the_cap(capsys, family, vertices, mib):
    # the packed forbidden-color table grows as n^2/2 lanes of span + 2k + 1
    # bits; above the cap the search is refused before anything is allocated
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "exact", *family)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == (f"error: exact search on {vertices} vertices needs a {mib} MiB "
                   "table, above the 16 MiB cap\n")
    assert elapsed < 2.0 and peak < 16 * 2 ** 20


def test_validate_ordering_command(capsys):
    code, out, _ = run_cli(capsys, "validate-ordering", "--family", "gp", "--n", "12")
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, _ = run_cli(capsys, "validate-ordering", "--family", "torus",
                           "--r", "5", "--s", "6")
    assert code == 0 and json.loads(out)["ok"] is True


def test_table_torus_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "torus",
                           "--r-max", "6", "--s-max", "6", "--format", "csv")
    assert code == 0
    import csv as csv_mod
    import io
    reader = csv_mod.reader(io.StringIO(out))
    header = next(reader)
    assert header == ["family", "params", "n", "diameter", "k", "case_label",
                      "formula_value", "formula_status", "construction_span",
                      "certificate", "discrepancy"]
    rows = [dict(zip(header, line)) for line in reader]
    by_params = {row["params"]: row for row in rows}
    row64 = by_params["r=6;s=4"]
    assert row64["formula_value"] == "33"
    assert row64["construction_span"] == "33"
    assert row64["certificate"] == "Certified"
    assert "non-integral" in row64["discrepancy"]
    for row in rows:
        if row["formula_status"] == "Exact" and row["construction_span"]:
            assert row["construction_span"] == row["formula_value"]


def test_table_gp_json(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "gp",
                           "--n-from", "3", "--n-to", "10", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 8
    spans = {row["params"]: row["construction_span"] for row in rows}
    assert spans["n=8"] == 21 and spans["n=5"] == 8 and spans["n=10"] == 27
    for row in rows:
        assert row["construction_span"] == row["formula_value"]
        assert row["certificate"] == "Certified"
        # n = 10 meets the triameter bound, but only as an upper bound
        expected = ("UpperBound", "published closed form gives 36; the pair-chain "
                    "construction attains 27") if row["params"] == "n=10" else ("Exact", "")
        assert (row["formula_status"], row["discrepancy"]) == expected


def test_export_dot(capsys, tmp_path):
    path = tmp_path / "c4.json"
    run_cli(capsys, "gen", "--family", "torus", "--r", "4", "--s", "4",
            "--out", str(path))
    code, out, _ = run_cli(capsys, "export-dot", str(path))
    assert code == 0
    assert out.startswith("graph radio {")
    assert 'label="17"' in out  # the span color appears as a label
    assert out.count(" -- ") == 32  # 4-regular on 16 vertices


@pytest.mark.parametrize("colors", [[0, 1, 2], [], list(range(12))])
@pytest.mark.parametrize("command", ["export-dot", "verify"])
def test_coloring_of_the_wrong_length_is_a_usage_error(capsys, tmp_path, colors, command):
    # GP(5) has 10 vertices: a short, empty or long color list is rejected
    # when the file is read, with no traceback and no output
    path = tmp_path / "gp5.json"
    path.write_text(json.dumps({"graph_ref": {"family": "gp", "params": {"n": 5}},
                                "k": 2, "colors": colors, "meta": {}}))
    assert run_cli(capsys, command, str(path)) == (
        2, "", "error: coloring size does not match graph order\n")


def test_graph_command(capsys):
    code, out, _ = run_cli(capsys, "graph", "--family", "gp", "--n", "5")
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "gp" and data["n"] == 10
    assert len(data["edges"]) == 15
    assert data["edges"] == sorted(data["edges"])
    assert data["labels"]["x:0"] == 0 and data["labels"]["y:4"] == 9
    code, out, _ = run_cli(capsys, "graph", "--family", "cycle", "--n", "6")
    assert json.loads(out)["n"] == 6


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "gen", "--family", "gp")
    assert code == 2
    code, _, err = run_cli(capsys, "gen", "--family", "torus", "--n", "8")
    assert code == 2
    code, _, err = run_cli(capsys, "gen", "--family", "gp", "--n", "8", "--r", "3")
    assert code == 2
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 2
    code, _, _ = run_cli(capsys, "verify", "/nonexistent/file.json")
    assert code == 2


def test_gen_out_to_a_directory_is_an_input_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "gen", "--family", "gp", "--n", "8", "--out", str(tmp_path))
    assert code == 2 and not out and err.startswith("error: ")


def test_verify_of_a_directory_is_an_input_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "verify", str(tmp_path))
    assert code == 2 and not out and err.startswith("error: ")


def test_verify_of_a_non_utf8_file_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"family": "gp\xe9"}')
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2 and not out and err.startswith("error: ")


def test_main_builds_the_parser_once(capsys):
    cli.build_parser.cache_clear()
    for _ in range(5):
        assert run_cli(capsys, "formula", "--family", "gp", "--n", "7")[0] == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 4)


def test_calls_on_a_reused_parser_are_independent(capsys):
    # build the parser while other streams are in place: each later message
    # must reach the stdout or stderr of the call that prints it
    cli.build_parser.cache_clear()
    stale_out, stale_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stale_out), contextlib.redirect_stderr(stale_err):
        cli.build_parser()
    gen = ["gen", "--family", "gp", "--n", "7"]
    code, first, err = run_cli(capsys, *gen)
    assert code == 0 and first and err == ""
    code, out, err = run_cli(capsys, "gen", "--family", "gp", "--n", "5", "--r", "3")
    assert (code, out) == (2, "")
    assert err == "usage error: --family gp conflicts with --r/--s\n"
    code, out, err = run_cli(capsys, "gen", "--family", "bogus")
    assert (code, out) == (2, "")
    assert err.startswith("usage: antipodal gen") and "invalid choice: 'bogus'" in err
    code, out, err = run_cli(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: antipodal")
    code, again, err = run_cli(capsys, *gen)
    assert (code, err) == (0, "")
    assert again == first
    assert stale_out.getvalue() == stale_err.getvalue() == ""


@pytest.mark.parametrize("budget", [("--budget-seconds", "nan"),
                                    ("--budget-seconds", "inf"),
                                    ("--budget-seconds", "-1"),
                                    ("--budget-nodes", "-1")])
def test_exact_rejects_invalid_budgets(capsys, budget):
    code, out, err = run_cli(capsys, "exact", "--family", "cycle", "--n", "4", *budget)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage error: {budget[0]} must be")


def test_exact_accepts_zero_budgets(capsys):
    for budget in (("--budget-seconds", "0"), ("--budget-nodes", "0")):
        code, out, _ = run_cli(capsys, "exact", "--family", "cycle", "--n", "4", *budget)
        assert code == 0 and json.loads(out)["status"] == "Solved"


def test_gen_odd_torus_is_an_error(capsys):
    code, _, err = run_cli(capsys, "gen", "--family", "torus", "--r", "3", "--s", "5")
    assert code == 2
    assert "error" in err


def test_dot_output_deterministic():
    from antipodal.graphs import make_cycle
    from antipodal.radio import Coloring
    g = make_cycle(4)
    coloring = Coloring((0, 1, 0, 1), k=1)
    assert coloring_to_dot(g, coloring) == coloring_to_dot(g, coloring)
    assert dumps_canonical({"b": 1, "a": 2}) == '{"a":2,"b":1}\n'


def test_torus_table_marks_sizes_without_a_construction(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "torus", "--r-max", "3",
                           "--s-max", "16", "--format", "json")
    assert code == 0
    rows = {row["params"]: row for row in json.loads(out)}
    assert rows["r=3;s=16"]["certificate"] == "NoConstruction"
    assert rows["r=3;s=16"]["construction_span"] == ""
    assert rows["r=3;s=16"]["formula_value"] == 104
    assert (rows["r=3;s=14"]["construction_span"], rows["r=3;s=14"]["certificate"]) \
        == (80, "Certified")
    # odd rs has only a lower bound, and no construction is attempted
    assert (rows["r=3;s=15"]["construction_span"], rows["r=3;s=15"]["certificate"]) \
        == ("", "")


def _count_calls(monkeypatch, owner, name):
    """Record every call of ``owner.name``, also where an ``antipodal``
    module has imported it by name."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("antipodal."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("r,s", [(3, 16), (7, 14), (22, 31)])
def test_gen_without_a_construction_fails_fast(capsys, r, s):
    # no repaired ordering or stored chain covers these sizes
    # (tests/span_check.py rules out T(3,16) at the published span): gen
    # exits 2 at once, and the package holds no enumeration it could run
    code, out, err = run_cli(capsys, "gen", "--family", "torus", "--r", str(r), "--s", str(s))
    assert code == 2 and not out
    assert err.startswith("error: no construction for")
    assert "Traceback" not in err
    assert importlib.util.find_spec("antipodal.span_check") is None


def test_gen_builds_one_graph(capsys, monkeypatch, tmp_path):
    # gen builds one graph, and verify of its file builds one more; both read
    # only its size, family, params and closed-form distances, so its
    # neighbour rows, adjacency, labels and pair keys are never built
    def unbuilt(*args):
        raise AssertionError("per-vertex data of a builder graph was built")

    monkeypatch.setattr(graphs, "_product_rows", unbuilt)
    monkeypatch.setattr(graphs, "_family_labels", unbuilt)
    builds = []
    build = graphs._CycleProductGraph
    monkeypatch.setattr(graphs, "_CycleProductGraph",
                        lambda *args: builds.append(build(*args)) or builds[-1])
    out = str(tmp_path / "coloring.json")
    for family_args in (("--family", "gp", "--n", "600"),
                        ("--family", "torus", "--r", "40", "--s", "40")):
        builds.clear()
        assert run_cli(capsys, "gen", *family_args, "--out", out)[0] == 0
        assert len(builds) == 1
        assert run_cli(capsys, "verify", out)[0] == 0
        assert len(builds) == 2
        for graph in builds:
            assert not vars(graph).keys() & {"_rows", "adjacency", "labels", "_pair_keys"}


def test_table_computes_distances_once_per_constructed_row(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, graphs, "distances")
    code, out, _ = run_cli(capsys, "table", "--family", "torus", "--r-max", "12",
                           "--s-max", "12", "--format", "json")
    assert code == 0
    constructed = [row for row in json.loads(out) if row["construction_span"] != ""]
    assert len(constructed) == 40
    assert len(calls) == 40
