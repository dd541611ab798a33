#!/usr/bin/env python3
"""Reproduce the closed-form span tables at desk scale.

Prints the generalized Petersen table for n = 3..24 and the torus table for
3 <= r, s <= 12 (even rs).  Every row's construction passes the
construction check (``checked_construction``: a permutation, the radio
condition, the formula span, colors non-decreasing along the ordering),
and its ``certificate`` column is ``pattern_certificate``'s status, the
paper's ordering pattern, which alone does not prove minimality.
Equivalent to:

    antipodal table --family gp --n-from 3 --n-to 24 --format csv
    antipodal table --family torus --r-max 12 --s-max 12 --format csv
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from antipodal.cli import main as cli_main


def main() -> int:
    print("# GP(n,1), n = 3..24")
    rc = cli_main(["table", "--family", "gp", "--n-from", "3", "--n-to", "24",
                   "--format", "csv"])
    if rc != 0:
        return rc
    print()
    print("# T(r,s), 3 <= r,s <= 12, rs even (normalized orientation)")
    return cli_main(["table", "--family", "torus", "--r-max", "12",
                     "--s-max", "12", "--format", "csv"])


if __name__ == "__main__":
    sys.exit(main())
