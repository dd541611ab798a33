#!/usr/bin/env python3
"""Print a digest of the CLI's output on a fixed set of operations.

Runs ``antipodal.cli.main`` in this process, from the ``src/`` directory
beside this script, and prints one line per operation: its name, its exit
code and the sha256 of what it wrote to stdout and to stderr.  The solver's
``elapsed_seconds`` field is dropped from ``exact`` output before hashing,
because it varies from run to run.  Two checkouts whose digests are equal
produce byte-identical output on every operation listed here:

    python3 scripts/cli_digest.py > a.txt   # in each checkout
    diff a.txt b.txt

``scripts/cli_digest.txt`` holds the expected digest, so a change meant
to keep the CLI's output byte-stable is checked with

    python3 scripts/cli_digest.py | diff - scripts/cli_digest.txt

(about 3 s on a 2-vCPU Xeon VM).  A change that alters output on purpose
regenerates the file and says why.

The operations are ``gen``, ``verify``, ``formula``, ``validate-ordering``
and ``graph`` on GP(3..60), GP(200, 400, 600), every torus with
3 <= r, s <= 12 (odd rs included: those exit with an error), T(3,14),
T(3,16), T(7,14) and T(22,31) (no construction: they exit 2 at once), the
larger tori of the benchmark, T(5,40) and T(5,100) (the r = 5 copy shift
over many blocks), ``export-dot``
of the generated files, both JSON tables and the CSV torus table at 12,
``exact`` on GP(5), T(3,4) and C12, ``exact`` on GP(8) and T(3,6) stopped
by ``--budget-nodes`` 4096 and 100000 (exit 3), a cycle graph and a few
usage errors.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from antipodal.cli import main as cli_main

GP_SIZES = [*range(3, 61), 200, 400, 600]
TORI = ([(r, s) for r in range(3, 13) for s in range(3, 13)]
        + [(3, 14), (14, 3), (3, 16), (7, 14), (22, 31), (16, 16), (30, 30), (32, 32),
           (33, 34), (40, 40), (5, 40), (5, 100)])
TABLES = [
    ["table", "--family", "gp", "--n-from", "3", "--n-to", "60", "--format", "json"],
    ["table", "--family", "torus", "--r-max", "12", "--s-max", "12", "--format", "json"],
    ["table", "--family", "torus", "--r-max", "12", "--s-max", "12", "--format", "csv"],
]
EXACT = [["--family", "gp", "--n", "5"], ["--family", "torus", "--r", "3", "--s", "4"],
         ["--family", "cycle", "--n", "12"]]
# budgeted runs that stop on the node budget (exit 3): the node count and the
# incumbent at the stop pin down where the search was when it timed out
EXACT += [[*family_args, "--budget-nodes", budget]
          for family_args in (["--family", "gp", "--n", "8"],
                              ["--family", "torus", "--r", "3", "--s", "6"])
          for budget in ("4096", "100000")]
# a cycle graph, and usage errors
OTHER = [["graph", "--family", "cycle", "--n", "12"],
         ["gen", "--family", "gp"], ["gen", "--family", "gp", "--n", "5", "--r", "3"],
         ["formula", "--family", "torus", "--r", "3"],
         ["graph", "--family", "torus", "--r", "3", "--s", "4", "--n", "5"],
         ["graph", "--family", "cycle", "--n", "2"]]


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report(name: str, argv: list[str]) -> str:
    code, out, err = run(argv)
    if argv[0] == "exact" and code in (0, 3):
        data = json.loads(out)
        data.pop("elapsed_seconds")
        out = json.dumps(data, sort_keys=True)
    print(f"{name} rc={code} out={sha(out)} err={sha(err)}", flush=True)
    return out


def instance(tmp: str, name: str, family_args: list[str]) -> None:
    gen_out = report(f"gen {name}", ["gen", *family_args])
    if gen_out:
        path = os.path.join(tmp, "gen.json")
        with open(path, "w") as fh:
            fh.write(gen_out)
        report(f"verify {name}", ["verify", path])
        report(f"export-dot {name}", ["export-dot", path])
    for kind in ("formula", "validate-ordering", "graph"):
        report(f"{kind} {name}", [kind, *family_args])


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for n in GP_SIZES:
            instance(tmp, f"GP({n})", ["--family", "gp", "--n", str(n)])
        for r, s in TORI:
            instance(tmp, f"T({r},{s})", ["--family", "torus", "--r", str(r), "--s", str(s)])
    for argv in TABLES:
        report(f"table {argv[2]} {argv[-1]}", argv)
    for family_args in EXACT:
        report("exact " + " ".join(family_args[1::2]), ["exact", *family_args])
    for argv in OTHER:
        report(" ".join(argv), argv)
    return 0


if __name__ == "__main__":
    sys.exit(main())
