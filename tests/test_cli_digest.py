"""Byte-stability of the CLI: a subset of ``scripts/cli_digest.py``'s
operations must print exactly the lines recorded in
``scripts/cli_digest.txt``, also when they follow usage errors in the same
process (``cli.main`` reuses one parser across calls).  The subset holds
``graph`` of every listed size, the tables, ``gen`` of GP(3..60), and
``gen`` and ``validate-ordering`` of the tori, so a change to any GP or
torus ordering shows."""

import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))

import cli_digest  # noqa: E402


def _torus(r, s):
    return f"T({r},{s})", ["--family", "torus", "--r", str(r), "--s", str(s)]


def test_graph_and_table_output_matches_recorded_digest(capsys):
    for argv in cli_digest.OTHER:
        cli_digest.report(" ".join(argv), argv)
    grid = [_torus(r, s) for r in range(3, 13) for s in range(3, 13)]
    gps = [(f"GP({n})", ["--family", "gp", "--n", str(n)]) for n in range(3, 61)]
    operations = gps + grid
    tori = grid + [_torus(3, 14), _torus(5, 40)]
    for name, family_args in operations:
        cli_digest.report(f"graph {name}", ["graph", *family_args])
    for name, family_args in gps:
        cli_digest.report(f"gen {name}", ["gen", *family_args])
    for name, family_args in tori:
        for kind in ("gen", "validate-ordering"):
            cli_digest.report(f"{kind} {name}", [kind, *family_args])
    for argv in cli_digest.TABLES:
        cli_digest.report(f"table {argv[2]} {argv[-1]}", argv)
    lines = capsys.readouterr().out.splitlines()
    recorded = set((SCRIPTS / "cli_digest.txt").read_text().splitlines())
    expected = (len(cli_digest.OTHER) + len(operations) + len(gps) + 2 * len(tori)
                + len(cli_digest.TABLES))
    assert len(lines) == expected == 429
    assert [line for line in lines if line not in recorded] == []
