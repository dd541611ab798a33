#!/usr/bin/env python3
"""Time ``gen`` then ``verify`` of one family size in one process.

Runs ``antipodal.cli.main`` from the ``src/`` directory beside this script:
``gen`` with the given family arguments, writing the coloring to a
temporary file, then ``verify`` of that file.  Prints one line with both
exit codes, the wall time of the two calls together and the process's peak
resident memory (after ``import antipodal``, which alone takes about 30 MB):

    python3 scripts/gen_verify_scale.py --family gp --n 50000
    python3 scripts/gen_verify_scale.py --family torus --r 300 --s 300

Run each size in a fresh process, so the peak belongs to that size.
"""

import os
import resource
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from antipodal.cli import main as cli_main


def _peak_rss_mb() -> float:
    """This process's peak resident memory: ``VmHWM`` where /proc has it."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(family_args: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        coloring = os.path.join(tmp, "coloring.json")
        start = time.perf_counter()
        gen_rc = cli_main(["gen", *family_args, "--out", coloring])
        verify_rc = cli_main(["verify", coloring, "--out", os.devnull]) if gen_rc == 0 else None
        wall = time.perf_counter() - start
    print(f"{' '.join(family_args)}: gen exit {gen_rc}, verify exit {verify_rc}, "
          f"wall {wall:.3f} s, peak {_peak_rss_mb():.1f} MB")
    return 0 if gen_rc == 0 and verify_rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
