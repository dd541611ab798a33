"""Exhaustive check of the spans that pattern-certified torus colorings reach.

A valid antipodal coloring of T(r,s) (rs even) passes
``pattern_certificate`` on a color-sorted ordering exactly when that
ordering is a chain of rs/2 consecutive diametral pairs (A_m, B_m) whose
colors obey three rules:

* the anchors telescope: g(A_{m+1}) = g(A_m) + diam - d(A_m, A_{m+1}) (the
  two-step clause with both slacks substituted), so
  span - g(A_1) = (rs/2 - 1) * diam - sum_m d(A_m, A_{m+1});
* the pair gap delta_m = g(B_m) - g(A_m) satisfies
  0 <= delta_m <= d(B_m, A_{m+1}) - d(A_m, A_{m+1}) (both interleaved
  slacks non-negative), and the final pair has delta = 0;
* the coloring satisfies the antipodal condition on every vertex pair.

A certified coloring of span at most ``span`` therefore needs an anchor walk
whose step lengths sum to at least (rs/2 - 1) * diam - span.
``check_certified_span`` decides whether one exists in four steps, each of
which computes its conclusion from closed-form torus distances:

1. the longest usable step: a step of length L needs some partner offset D
   with d(B_m, A_{m+1}) >= L, which caps L; the walk may fall short of that
   cap by a total ``budget`` only;
2. whether a longest step forces pair gap 0 at its source (no offset gives
   d(B_m, A_{m+1}) > L) and pair gap >= 1 at its target (every partner of
   A_{m+1} at equal color violates the antipodal condition against A_m or
   B_m).  Where both hold, longest steps are never adjacent and never last;
3. the step-length sequences that steps (1) and (2) leave;
4. a depth-first enumeration of every anchor walk with one of those length
   sequences, each partner offset and each admissible pair gap, checking
   the antipodal condition on every vertex pair as it is placed.
   Translations pin A_1 to vertex 0; the mirror of an odd side pins the
   first partner offset and the mirror of each even side pins the sign of
   that side's coordinate in the first step.

"Certified" here means passing ``pattern_certificate``, the paper's
sufficient-condition pattern; it says nothing of the triameter-bound
clause that ``minimality_certificate`` adds.

The check is an audit kept with the tests, and no construction runs it:
the torus builder stores the three chains it needs, T(3,8), T(3,12) and
T(3,14), as data, each the first chain this enumeration finds at the
span the builder emits.  The check uses none of the library's orderings,
so it can still audit the span the library emits.  Tests and scripts
import it as ``span_check`` with ``tests/`` on ``sys.path``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate

import numpy as np

from antipodal.graphs import CycleProductDistances

# enumeration nodes step (4) may walk before it gives up undecided
NODE_CAP = 5_000_000
# largest torus checked: the check keeps an n x n distance table, and step
# (4) recurses once per pair, which must stay within Python's stack limit
VERTEX_CAP = 1_000


class SpanCheckError(RuntimeError):
    """Raised when the check cannot decide: the torus has more than
    ``VERTEX_CAP`` vertices, or step (4) exceeds ``NODE_CAP`` nodes."""


@dataclass(frozen=True)
class SpanCheck:
    """Outcome of ``check_certified_span``.

    ``top`` is the longest usable anchor step, ``isolated`` whether longest
    steps are never adjacent and never last, ``sequences`` the number of
    step-length sequences left for step (4) and ``nodes`` the search nodes
    step (4) walked.  ``chain`` is a certified ordering as (vertex index,
    color) pairs, indexed like ``make_torus(r, s)``, whose span is at most
    ``span``, or None if the enumeration found none.  ``findings`` holds
    one printable line per step.
    """

    top: int
    isolated: bool
    sequences: int
    nodes: int
    chain: tuple[tuple[int, int], ...] | None
    findings: tuple[str, ...]

    @property
    def ruled_out(self) -> bool:
        """True iff step (4) walked whatever step (3) left and no certified
        chain reaches ``span``."""
        return self.chain is None and (self.nodes > 0 or self.sequences == 0)


def _length_rule(steps, top, budget, isolated):
    """Step (3) as a rule, so that memory stays bounded however many
    sequences are left: ``lengths(m, spent, prev_top)`` gives, longest
    first, the (length, spent after it, is top) options of step m after a
    prefix that spent ``spent`` of the shortfall budget and did (or did not)
    end in a ``top`` step, such that some completion keeps the total
    shortfall from ``top`` <= budget; with ``isolated``, no two ``top``
    steps are adjacent and none is last.  The second value returned is the
    number of complete sequences.  Both are computed bottom-up over the
    steps left, so no recursion grows with ``steps``."""

    def shortfalls(left, prev_top):
        # shortfalls top - length open to a step with ``left`` steps after it
        first = 1 if isolated and (prev_top or left == 0) else 0
        return range(first, top)

    # least[left][prev_top]: least shortfall ``left`` more steps must spend,
    # or budget + 1 where they cannot be completed
    least = [[0, 0]]
    for left in range(steps):
        least.append([min((d + least[left][d == 0] for d in shortfalls(left, p)),
                          default=budget + 1) for p in (0, 1)])

    @cache
    def lengths(m, spent, prev_top):
        left = steps - m - 1
        return tuple((top - d, spent + d, d == 0) for d in shortfalls(left, prev_top)
                     if spent + d + least[left][d == 0] <= budget)

    # ways[p][b]: sequences of the steps counted so far that spend at most
    # b, after a step that was (p = 1) or was not (p = 0) a top step
    width = min(budget, steps * (top - 1)) + 1
    ways = [[1] * width, [1] * width]
    for left in range(steps):
        sums = [0, *accumulate(ways[0])]
        ways = [[sums[b] - sums[max(0, b - top + 1)]
                 + (ways[1][b] if 0 in shortfalls(left, p) else 0)
                 for b in range(width)] for p in (0, 1)]
    return lengths, ways[0][-1] if budget >= 0 else 0


def check_certified_span(r: int, s: int, span: int) -> SpanCheck:
    """Decide whether some certified antipodal coloring of T(r,s) has span
    at most ``span``; see the module docstring for the four steps."""
    if r < 3 or s < 3 or (r * s) % 2:
        raise ValueError("need r, s >= 3 with rs even")
    n = r * s
    if n > VERTEX_CAP:
        raise SpanCheckError(f"T({r},{s}): more than {VERTEX_CAP} vertices")
    pairs = n // 2
    diam = r // 2 + s // 2
    vertices = np.arange(n)
    table = CycleProductDistances(r, s).dists(vertices[:, None], vertices[None, :])
    dist = table.tolist()
    # vertex index v doubles as the translation vector from vertex 0
    offsets = [v for v in range(n) if dist[0][v] == diam]

    def add(u, v):
        return (u // s + v // s) % r * s + (u % s + v % s) % s

    def sub(u, v):
        return (u // s - v // s) % r * s + (u % s - v % s) % s

    findings = []

    # (1) longest usable step and the shortfall budget
    usable = [v for v in range(1, n)
              if any(dist[0][sub(v, off)] >= dist[0][v] for off in offsets)]
    top = max(dist[0][v] for v in usable)
    need = (pairs - 1) * diam - span
    budget = (pairs - 1) * top - need
    findings.append(f"(1) steps have length <= {top}; {pairs - 1} steps must "
                    f"sum to >= {need}, shortfall budget {budget}")

    # (2) gap behaviour around a longest step
    longest = [v for v in usable if dist[0][v] == top]
    source_zero = all(dist[0][sub(v, off)] <= top for v in longest for off in offsets)
    zero_continuations = [
        (v, off, off2) for v in longest for off in offsets
        if dist[0][sub(v, off)] >= top for off2 in offsets
        if dist[0][add(v, off2)] >= top and dist[0][add(sub(v, off), off2)] >= top]
    isolated = source_zero and not zero_continuations
    findings.append(f"(2) length-{top} steps "
                    + ("are never adjacent and never last" if isolated
                       else "may be adjacent"))

    # (3) step-length sequences left, counted rather than listed
    lengths, sequences = _length_rule(pairs - 1, top, budget, isolated)
    findings.append(f"(3) {sequences} length sequences left")

    # (4) enumerate the anchor walks those sequences leave
    used = bytearray(n)
    placed: list[tuple[int, int]] = []
    nodes = 0

    def fits(v, color):
        # colors never decrease along ``placed`` and no two distinct
        # vertices need a gap above diam - 1, so only the recent tail counts
        row = dist[v]
        for u, c in reversed(placed):
            if color - c >= diam - 1:
                return True
            if color - c < diam - row[u]:
                return False
        return True

    def pinned(v):
        i, j = divmod(v, s)
        return (r % 2 or 2 * i <= r) and (s % 2 or 2 * j <= s)

    # by_length[a][L]: the vertices at distance L from a, each list in
    # increasing vertex order, so the first chain found is fixed: a stable
    # sort of each row by distance, cut where the distance changes
    by_length = []
    for row in table:
        ranked = np.argsort(row, kind="stable")
        cuts = np.searchsorted(row[ranked], np.arange(top + 2)).tolist()
        ranked = ranked.tolist()
        by_length.append([ranked[lo:hi] for lo, hi in zip(cuts, cuts[1:])])

    def extend(m, spent, prev_top, a, color, b):
        # pair (a, b) is open: a is placed at ``color``, b's gap is pending;
        # m steps taken so far, spending ``spent`` of the shortfall budget
        nonlocal nodes
        if m == pairs - 1:
            nodes += 1
            if fits(b, color):
                placed.append((b, color))
                return True
            return False
        for step, spent2, is_top in lengths(m, spent, prev_top):
            color2 = color + diam - step
            for a2 in by_length[a][step]:
                if used[a2] or (m == 0 and not pinned(a2)):
                    continue
                for delta in range(dist[b][a2] - step + 1):
                    nodes += 1
                    if nodes > NODE_CAP:
                        raise SpanCheckError(
                            f"T({r},{s}) span {span}: more than {NODE_CAP} nodes")
                    if not fits(b, color + delta):
                        continue
                    placed.append((b, color + delta))
                    if fits(a2, color2):
                        placed.append((a2, color2))
                        used[a2] = 1
                        for off in offsets:
                            b2 = add(a2, off)
                            if used[b2]:
                                continue
                            used[b2] = 1
                            if extend(m + 1, spent2, is_top, a2, color2, b2):
                                return True
                            used[b2] = 0
                        used[a2] = 0
                        placed.pop()
                    placed.pop()
        return False

    chain = None
    if sequences:
        first_partner = offsets[0]  # the odd side's mirror swaps the two offsets
        used[0] = used[first_partner] = 1
        placed.append((0, 0))
        if extend(0, 0, False, 0, 0, first_partner):
            chain = tuple(placed)
    findings.append("(4) " + ("found a certified chain" if chain else
                              "no anchor walk completes to a certified chain")
                    + f" after {nodes} nodes")
    return SpanCheck(top=top, isolated=isolated, sequences=sequences,
                     nodes=nodes, chain=chain, findings=tuple(findings))
