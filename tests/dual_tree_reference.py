"""Reference dual-tree builder used to cross-check the fast one.

This is the straightforward construction: split the polygon recursively at
the apex over each base chord, sort the triangles, classify each by how many
of its sides are outer-cycle edges, and pair up the two triangles that hold
each chord.  It works from ``n`` and a chord list and imports nothing from the
package under test.
"""

from __future__ import annotations


def is_cycle_edge(n: int, a: int, b: int) -> bool:
    return (a - b) % n in (1, n - 1)


def reference_dual_tree(n: int, chords):
    """``(triangles, edges)``: triangles as ``(vertices, kind)`` in sorted
    order, edges as ``(i, j, chord)`` with ``i < j``, sorted by chord."""
    adj = [{(v - 1) % n, (v + 1) % n} for v in range(n)]
    for a, b in chords:
        adj[a].add(b)
        adj[b].add(a)

    tris = []
    stack = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        (apex,) = [j for j in adj[lo] if lo < j < hi and j in adj[hi]]
        tris.append((lo, apex, hi))
        stack.append((lo, apex))
        stack.append((apex, hi))
    tris.sort()

    def sides(t):
        return ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))

    def kind_of(t) -> str:
        cyc = sum(1 for a, b in sides(t) if is_cycle_edge(n, a, b))
        if cyc >= 2:
            return "ear"
        return "side" if cyc == 1 else "internal"

    by_chord: dict[tuple[int, int], list[int]] = {}
    for i, t in enumerate(tris):
        for a, b in sides(t):
            if not is_cycle_edge(n, a, b):
                by_chord.setdefault((a, b), []).append(i)
    edges = []
    for chord, nodes in sorted(by_chord.items()):
        assert len(nodes) == 2, "every chord separates exactly two triangles"
        i, j = sorted(nodes)
        edges.append((i, j, chord))
    return [(t, kind_of(t)) for t in tris], edges
