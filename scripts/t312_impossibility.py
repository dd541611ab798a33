#!/usr/bin/env python3
"""Machine-check that no certified coloring of T(3,12) reaches span 60.

Runs ``antipodal.span_check.check_certified_span`` on T(3,12) at the
published closed-form span 60, prints the finding of each of its four
steps, and exits 1 unless the enumeration ran and found no certified
chain.  The check enumerates every anchor walk of a certified pair chain
that its step-length lemmas leave, in well under a second; acceptance
criterion 3 runs the same function.

    python3 scripts/t312_impossibility.py
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from antipodal.span_check import check_certified_span


def main() -> int:
    started = time.time()
    result = check_certified_span(3, 12, 60)
    elapsed = time.time() - started
    print("T(3,12): is there a certified antipodal coloring of span <= 60?")
    for finding in result.findings:
        print(f"  {finding}")
    if not result.ruled_out:
        print(f"  NOT ruled out (chain: {result.chain}); {elapsed:.2f}s")
        return 1
    print(f"  ruled out: no certified span-60 chain exists; {elapsed:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
