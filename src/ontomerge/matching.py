"""Assignments between two equal-size concept lists.

``max_weight_assignment`` is exact Kuhn-Munkres (Hungarian method with
row and column potentials, O(n^3)) on integers.  Each weight is scaled
by ``lcm(denominators) * n**n`` and cell (r, c) gains ``c * n**r``.  The
added terms sum to less than one scaled unit, so they only order the
optimal assignments, and the one returned is the lexicographically
largest read from the last row backwards: the largest column the last
row takes in any optimal assignment, then the largest left for the row
before it, and so on.  The total is summed from the original cells, so
it stays exact.  The syntactic score reads only the total but keeps the
tie terms, which pay where cells tie: a copy without them took 0.76 s
against 0.13 s on the mostly-0 child matrix of two 200-wide composites
sharing one key in two, and 0.12 s against 0.35 s on a random dense one.

``perfect_assignment`` answers the 0/1 question of case 3, whether the
nonzero cells, listed row by row, hold a perfect matching, by augmenting
paths, one per row (the plain form of Hopcroft & Karp, SIAM J. Comput.
1973), in O(n * cells), and keeps the same tie rule.  A forced row walks
no path: one whose largest column is still free takes it, and one with
a single column keeps it, so a permutation costs O(n + cells).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence


def max_weight_assignment(
    weights: Sequence[Sequence[Fraction]],
) -> tuple[Fraction, tuple[int, ...]]:
    """Return (best total, assignment) for a square weight matrix.

    assignment[i] is the column matched to row i; cells are Fractions or
    ints.  Callers that want a term-lexicographic tie-break sort their
    rows and columns before building the matrix.
    """
    n = len(weights)
    if n == 0:
        return Fraction(0), ()
    if any(len(row) != n for row in weights):
        raise ValueError("weight matrix must be square")

    scale = lcm(*(w.denominator for row in weights for w in row)) * n**n
    # cost to minimize, 1-based: negated scaled weight minus the tie term
    cost = [[]] + [
        [0] + [-(w.numerator * (scale // w.denominator)) - c * n**r
               for c, w in enumerate(row)]
        for r, row in enumerate(weights)
    ]
    # u, v: row and column potentials; owner[j]: row holding column j
    # (0 = free); column 0 is where each row's augmenting path starts
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    owner = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        owner[0] = i
        j0 = 0
        slack: list = [None] * (n + 1)
        used = [False] * (n + 1)
        while owner[j0]:
            used[j0] = True
            i0 = owner[j0]
            delta, j1 = None, 0
            for j in range(1, n + 1):
                if not used[j]:
                    reduced = cost[i0][j] - u[i0] - v[j]
                    if slack[j] is None or reduced < slack[j]:
                        slack[j], way[j] = reduced, j0
                    if delta is None or slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(n + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:  # flip the augmenting path back to its start
            owner[j0] = owner[way[j0]]
            j0 = way[j0]

    assignment = [0] * n
    for j in range(1, n + 1):
        assignment[owner[j] - 1] = j - 1
    total = sum((weights[r][c] for r, c in enumerate(assignment)), Fraction(0))
    return total, tuple(assignment)


def perfect_assignment(cols: Sequence[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """The assignment ``max_weight_assignment`` picks for an n x n 0/1
    matrix when its nonzero cells hold a perfect matching, else None.
    ``cols[r]`` lists the columns of row r's nonzero cells, in ascending
    order, each below n = ``len(cols)``; any other list raises ValueError.

    Rows are matched first to last, each along an alternating path to a
    free column, or to its largest column at once when that is free.  Then
    each row with several columns, from the last one back, lets go of its
    column and takes the largest column from which an alternating path
    through the rows before it leads back there.
    """
    n = len(cols)
    rows: list[list[int]] = [[] for _ in range(n)]  # column -> rows with a 1 there
    for r, row in enumerate(cols):
        for c, after in zip(row, [*row[1:], n]):
            if not 0 <= c < after:
                raise ValueError(f"row {r}'s columns do not ascend within range({n})")
            rows[c].append(r)
    match = [-1] * n  # row -> column
    owner = [-1] * n  # column -> row
    if not all(cols) or not all(rows):
        return None

    def reroute(r: int, free: list[int]) -> bool:
        """Match row r to its largest column that leads to a free one; only
        the rows before it may move."""
        via = dict.fromkeys(free, -1)  # column -> where its owner moves to
        best = cols[r][-1]
        for x in free:  # grows as it is read; stops once the best column is reached
            if best in via:
                break
            for y in rows[x]:
                if y < r and match[y] not in via:
                    via[match[y]] = x
                    free.append(match[y])
        col = best if best in via else max((c for c in cols[r] if c in via), default=-1)
        if col == -1:
            return False
        while col != -1:  # r takes col, and each row it displaces moves on
            match[r], owner[col], r, col = col, r, owner[col], via[col]
        return True

    for r in range(n):
        if owner[best := cols[r][-1]] == -1:  # what reroute would take, without the walk
            match[r], owner[best] = best, r
        elif not reroute(r, [c for c in range(n) if owner[c] == -1]):
            return None
    for r in reversed(range(n)):
        if len(cols[r]) > 1:  # a one-column row holds it in every perfect matching
            free = match[r]
            owner[free] = match[r] = -1
            reroute(r, [free])
    return tuple(match)
