"""Triangle dual tree of a MOP, leaf walks, and branch-shape matching.

The n - 2 triangles of the triangulation form a tree (nodes = triangles,
edges = shared chords) with maximum degree 3.  A triangle is an *ear* if two
of its sides are outer-cycle edges, a *side* triangle if one is, *internal*
if none is.  For n >= 4 an ear contains exactly one degree-2 vertex of the
graph, and ear <=> dual-tree leaf.

Walking inward from a leaf along the forced path classifies the branch: if a
degree-3 dual node is reached at distance 1, 2, 4 or 6 with the walk hugging
the expected alternation, the branch is a clean :class:`BranchShape`;
otherwise the first divergence yields a :class:`Deviation` carrying enough
labels to drive a single-branch reduction.  Shapes are matched up to
reflection: mirror-image walks produce the same shape/deviation id.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Mapping

from .errors import NotALeaf, PreconditionTooSmall
from .graph_core import MopGraph

EAR = "ear"
SIDE = "side"
INTERNAL = "internal"


@dataclass(frozen=True)
class Triangle:
    vertices: tuple[int, int, int]  # sorted ascending
    kind: str  # ear | side | internal


@dataclass(frozen=True)
class DualTree:
    triangles: tuple[Triangle, ...]
    edges: tuple[tuple[int, int, tuple[int, int]], ...]  # (node, node, shared chord)

    # ``dual`` and ``corners`` are the tables that :func:`match_branch_shape`
    # reads; the constructive engine's state offers the same two.

    @cached_property
    def dual(self) -> tuple[tuple[int, ...], ...]:
        """The neighbours of each node, ascending."""
        nbr: list[list[int]] = [[] for _ in self.triangles]
        for i, j, _ in self.edges:
            nbr[i].append(j)
            nbr[j].append(i)
        return tuple(tuple(sorted(x)) for x in nbr)

    @cached_property
    def corners(self) -> tuple[tuple[int, int, int], ...]:
        """The sorted vertex triple of each node."""
        return tuple(tri.vertices for tri in self.triangles)

    def vertices(self, node: int) -> tuple[int, int, int]:
        return self.triangles[node].vertices

    def neighbours(self, node: int) -> tuple[int, ...]:
        return self.dual[node]

    def degree(self, node: int) -> int:
        return len(self.dual[node])

    def leaves(self) -> tuple[int, ...]:
        return tuple(i for i, nbr in enumerate(self.dual) if len(nbr) == 1)


Vertices3 = tuple[int, int, int]


def fan_dual(g: MopGraph) -> tuple[list[set[int]], dict[Vertices3, list[Vertices3]]]:
    """The adjacency sets, and the dual tree keyed by sorted vertex triples,
    from the fan of each vertex in one O(n) pass.

    Taken in ascending order, the neighbours ``w > a`` of ``a`` fan across
    the polygon: each consecutive pair ``(b, c)`` closes the triangle
    ``(a, b, c)``, found at its smallest vertex only, so the triangles come
    out sorted.  Triangles next in a fan share the chord ``(a, b)``.  A side
    ``(b, c)`` that is a chord is shared with the last triangle of ``b``'s
    fan: ``c`` is ``b``'s largest neighbour, as a chord from ``b`` past ``c``
    would cross ``(a, c)``.  Chords are met in ascending order, and each
    triangle lists its neighbours in that order."""
    fans = g.higher_neighbours()
    adj = [*map(set, fans), set()]
    dual: dict[Vertices3, list[Vertices3]] = {}
    outer: list[Vertices3 | None] = [None] * g.n  # the triangle past each fan's last chord
    for a, fan in enumerate(fans):
        b = fan[0]
        adj[b].add(a)
        t = None
        for c in fan[1:]:
            adj[c].add(a)
            u = (a, b, c)
            dual[u] = [t] if t else []
            if t:
                dual[t].append(u)
            if c - b > 1:
                outer[b] = u
            t, b = u, c
        o = outer[a]
        if o:
            dual[o].append(t)
            dual[t].append(o)
    return adj, dual


def build_dual_tree(g: MopGraph) -> DualTree:
    """The dual tree of :func:`fan_dual`, its edges sorted by shared chord.
    A side of a triangle ``(a, b, c)`` lies on the outer cycle for each of
    ``b = a + 1``, ``c = b + 1`` and ``(a, c) = (0, n - 1)`` that holds: two
    make an ear, one a side triangle, none an internal one."""
    n = g.n
    _, dual = fan_dual(g)
    index = {t: i for i, t in enumerate(dual)}
    tris = []
    for a, b, c in dual:
        cyc = (b - a == 1) + (c - b == 1) + (a == 0 and c == n - 1)
        kind = EAR if cyc >= 2 else SIDE if cyc == 1 else INTERNAL
        tris.append(Triangle(vertices=(a, b, c), kind=kind))
    # t < u lists each edge once, in index order, as the triangles are sorted
    edges = [(index[t], index[u], tuple([x for x in t if x in u]))
             for t, nbrs in dual.items() for u in nbrs if t < u]
    return DualTree(triangles=tuple(tris), edges=tuple(sorted(edges, key=lambda e: e[2])))


def dual_to_dot(t: DualTree, name: str = "dual") -> str:
    lines = [f"graph {name} {{", "  node [shape=box];"]
    for i, tri in enumerate(t.triangles):
        label = "-".join(str(v) for v in tri.vertices)
        lines.append(f'  t{i} [label="{label}\\n{tri.kind}"];')
    for i, j, chord in t.edges:
        lines.append(f'  t{i} -- t{j} [label="{chord[0]}-{chord[1]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# The two roles of the chord by which a clean branch enters its anchor, by
# the branch's distance.
_ENTRY_CHORD_ROLES = {1: ("u2", "u3"), 2: ("u2", "u4"), 4: ("u4", "u6"), 6: ("u6", "u8")}


@dataclass(slots=True)
class BranchShape:
    """A clean leaf-to-anchor walk of length 1, 2, 4 or 6.  ``leaf`` and
    ``anchor`` are nodes of the tree that was walked."""

    leaf: Any
    anchor: Any
    dist: int
    labels: Mapping[str, int]

    @property
    def entry_chord_roles(self) -> tuple[str, str]:
        return _ENTRY_CHORD_ROLES[self.dist]


@dataclass(slots=True)
class Deviation:
    """A walk that diverges from the clean shapes; ``variant`` selects the
    single-branch reduction that handles it."""

    leaf: Any
    claim: int
    variant: str
    witness_labels: Mapping[str, int]


def match_branch_shape(g: MopGraph, t: DualTree, leaf):
    """Classify the walk from a dual-tree leaf.

    Returns a :class:`BranchShape` (anchor at distance 1, 2, 4 or 6) or a
    :class:`Deviation`.  Requires n >= 9 so that walk positions 2..6 cannot
    run off the far end of a path tree.

    Only ``g.n`` and two tables of ``t`` are read, each by subscript:
    ``t.dual`` gives the neighbours of a node, and ``t.corners`` its sorted
    vertex triple, or is None when the nodes are their own vertex triples,
    as in the constructive engine.  So any object offering those can stand
    in for the graph and its :class:`DualTree`.  ``t.dual`` is read at the
    first 7 nodes of the walk at most, and the vertices of the first 8.
    A walk steps only from nodes of degree 2, to the neighbour it did not
    come from, so the order of a node's neighbours does not matter.
    """
    if g.n < 9:
        raise PreconditionTooSmall(f"branch matching needs n >= 9, got {g.n}")
    dual, corners = t.dual, t.corners
    nb = dual[leaf]
    if len(nb) != 1:
        raise NotALeaf(f"dual node {leaf} has degree {len(nb)}")

    # t2 shares the chord {u2, u3} of the ear; u1, the ear's tip, is off it
    # and is the ear's one degree-2 vertex.  Each new label is the vertex of
    # the next triangle that the one before it lacks.
    t2 = nb[0]
    f1, f2 = (leaf, t2) if corners is None else (corners[leaf], corners[t2])
    a, b, c = f1
    if a not in f2:
        u1, u2, u3 = a, b, c
    elif b not in f2:
        u1, u2, u3 = b, a, c
    else:
        u1, u2, u3 = c, a, b
    a, b, c = f2
    u4 = a if a not in f1 else b if b not in f1 else c
    nb = dual[t2]
    if len(nb) == 3:
        return BranchShape(
            leaf=leaf, anchor=t2, dist=1, labels={"u1": u1, "u2": u2, "u3": u3, "u4": u4}
        )

    # t3: shares u4 and one of u2/u3; normalize so it is u2
    t3 = nb[0] if nb[0] != leaf else nb[1]
    f3 = t3 if corners is None else corners[t3]
    if u3 in f3:
        u2, u3 = u3, u2
    assert u2 in f3 and u4 in f3
    a, b, c = f3
    u5 = a if a not in f2 else b if b not in f2 else c
    nb = dual[t3]
    if len(nb) == 3:
        return BranchShape(
            leaf=leaf,
            anchor=t3,
            dist=2,
            labels={"u1": u1, "u2": u2, "u3": u3, "u4": u4, "u5": u5},
        )

    # t4: {u4, u5} continues the clean walk, {u2, u5} deviates
    t4 = nb[0] if nb[0] != t2 else nb[1]
    f4 = t4 if corners is None else corners[t4]
    a, b, c = f4
    u6 = a if a not in f3 else b if b not in f3 else c
    base = {"u1": u1, "u2": u2, "u3": u3, "u4": u4, "u5": u5, "u6": u6}
    nb = dual[t4]
    if u2 in f4 and u5 in f4:
        variant = "C2-1" if len(nb) == 3 else "C3"
        return Deviation(leaf=leaf, claim=int(variant[1]), variant=variant, witness_labels=base)
    assert u4 in f4 and u5 in f4
    if len(nb) == 3:
        return Deviation(leaf=leaf, claim=2, variant="C2-2", witness_labels=base)

    # t5: {u4, u6} continues, {u5, u6} deviates (claim 4, any degree)
    t5 = nb[0] if nb[0] != t3 else nb[1]
    f5 = t5 if corners is None else corners[t5]
    a, b, c = f5
    u7 = base["u7"] = a if a not in f4 else b if b not in f4 else c
    if u5 in f5 and u6 in f5:
        return Deviation(leaf=leaf, claim=4, variant="C4", witness_labels=base)
    assert u4 in f5 and u6 in f5
    nb = dual[t5]
    if len(nb) == 3:
        return BranchShape(leaf=leaf, anchor=t5, dist=4, labels=base)

    # t6: {u6, u7} continues, {u4, u7} deviates (claim 5b, any degree)
    t6 = nb[0] if nb[0] != t4 else nb[1]
    f6 = t6 if corners is None else corners[t6]
    a, b, c = f6
    u8 = base["u8"] = a if a not in f5 else b if b not in f5 else c
    if u4 in f6 and u7 in f6:
        return Deviation(leaf=leaf, claim=5, variant="C5b", witness_labels=base)
    assert u6 in f6 and u7 in f6
    nb = dual[t6]
    if len(nb) == 3:
        return Deviation(leaf=leaf, claim=5, variant="C5a", witness_labels=base)

    # t7: {u6, u8} continues, {u7, u8} deviates (claim 6a, any degree)
    t7 = nb[0] if nb[0] != t5 else nb[1]
    f7 = t7 if corners is None else corners[t7]
    a, b, c = f7
    u9 = base["u9"] = a if a not in f6 else b if b not in f6 else c
    if u7 in f7 and u8 in f7:
        return Deviation(leaf=leaf, claim=6, variant="C6a", witness_labels=base)
    assert u6 in f7 and u8 in f7
    nb = dual[t7]
    if len(nb) == 3:
        return BranchShape(leaf=leaf, anchor=t7, dist=6, labels=base)
    if len(nb) == 1:
        # the dual tree is a 7-node path, so n = 9 exactly
        return Deviation(leaf=leaf, claim=6, variant="C6b", witness_labels=base)

    # t8: {u8, u9} -> claim 6c, {u6, u9} -> claim 6d (any degree)
    t8 = nb[0] if nb[0] != t6 else nb[1]
    f8 = t8 if corners is None else corners[t8]
    a, b, c = f8
    base["u10"] = a if a not in f7 else b if b not in f7 else c
    if u8 in f8 and u9 in f8:
        return Deviation(leaf=leaf, claim=6, variant="C6c", witness_labels=base)
    assert u6 in f8 and u9 in f8
    return Deviation(leaf=leaf, claim=6, variant="C6d", witness_labels=base)
