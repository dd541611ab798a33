#!/usr/bin/env python3
"""Machine-check that no pattern-certified coloring of T(3,12) reaches span 60.

Runs ``check_certified_span`` from ``tests/span_check.py`` on T(3,12) at
the published closed-form span 60, prints the finding of each of its four
steps, and exits 1 unless the enumeration ran and found no pair chain
that passes ``pattern_certificate``.  The check enumerates every anchor
walk of such a chain that its step-length lemmas leave, in well under a
second; acceptance criterion 3 runs the same function.  The library emits
a stored chain of span 61 at this size.

    python3 scripts/t312_impossibility.py
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from span_check import check_certified_span


def main() -> int:
    started = time.time()
    result = check_certified_span(3, 12, 60)
    elapsed = time.time() - started
    print("T(3,12): is there a pattern-certified antipodal coloring of span <= 60?")
    for finding in result.findings:
        print(f"  {finding}")
    if not result.ruled_out:
        print(f"  NOT ruled out (chain: {result.chain}); {elapsed:.2f}s")
        return 1
    print(f"  ruled out: no pattern-certified span-60 chain exists; {elapsed:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
