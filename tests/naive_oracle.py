"""Brute-force reference solvers used to cross-check the fast ones.

Everything works from a plain edge list over vertices 0..n-1.  Subsets are
tried size by size in lexicographic order, so the first hit is both a
minimum and the lexicographically smallest witness of that size — the same
tie-break the exact solver promises.  Deliberately imports nothing from the
package under test.
"""

from __future__ import annotations

import itertools


def closed_neighbourhoods(n: int, edges) -> list[set[int]]:
    nbrs = [{v} for v in range(n)]
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    return nbrs


def is_double_dom(n: int, edges, subset, *, standard: bool = False) -> bool:
    nbrs = closed_neighbourhoods(n, edges)
    s = set(subset)
    for v in range(n):
        if not standard and v in s:
            continue
        if len(nbrs[v] & s) < 2:
            return False
    return True


def min_double_dom(n: int, edges, *, standard: bool = False, forbidden=()):
    """(size, lex-min witness), or None when no allowed subset works."""
    banned = set(forbidden)
    allowed = [v for v in range(n) if v not in banned]
    for r in range(len(allowed) + 1):
        for combo in itertools.combinations(allowed, r):
            if is_double_dom(n, edges, combo, standard=standard):
                return r, combo
    return None
