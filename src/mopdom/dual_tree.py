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

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

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

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbr: list[list[int]] = [[] for _ in self.triangles]
        for i, j, _ in self.edges:
            nbr[i].append(j)
            nbr[j].append(i)
        return tuple(tuple(sorted(x)) for x in nbr)

    # The walk interface read by :func:`match_branch_shape`; the constructive
    # engine's mutable state offers the same three reads.

    def vertices(self, node: int) -> tuple[int, int, int]:
        return self.triangles[node].vertices

    def neighbours(self, node: int) -> tuple[int, ...]:
        return self.adjacency[node]

    def degree(self, node: int) -> int:
        return len(self.adjacency[node])

    def leaves(self) -> tuple[int, ...]:
        return tuple(i for i, nbr in enumerate(self.adjacency) if len(nbr) == 1)


Vertices3 = tuple[int, int, int]
DualEdge = tuple[int, int, tuple[int, int]]  # (node, node, shared chord)


def fan_triangles(g: MopGraph) -> tuple[list[Vertices3], list[DualEdge]]:
    """The triangles as sorted vertex triples, and the dual edges, read off
    the fan of each vertex in O(n).

    Taken in ascending order, the neighbours ``w > a`` of a vertex ``a`` fan
    across the polygon, and each consecutive pair ``(b, c)`` closes the
    triangle ``(a, b, c)``.  Every triangle is found once, at its smallest
    vertex, so the triangles come out sorted.  Neighbouring triangles of a
    fan share the chord ``(a, b)``.  A side ``(b, c)`` that is a chord is
    shared with the last triangle of ``b``'s fan, since ``c`` is ``b``'s
    largest neighbour (a chord from ``b`` past ``c`` would cross ``(a, c)``).
    Each vertex's chords are emitted in ascending order, so the edges come
    out sorted by chord."""
    n = g.n
    fans = g.higher_neighbours()

    triangles: list[Vertices3] = []
    edges: list[DualEdge] = []
    outer = [-1] * n  # the triangle beyond the last chord of each fan
    for a, fan in enumerate(fans):
        b = fan[0]
        for j in range(1, len(fan)):
            c = fan[j]
            i = len(triangles)
            if j > 1:
                edges.append((i - 1, i, (a, b)))
            if c - b > 1:
                outer[b] = i
            triangles.append((a, b, c))
            b = c
        if outer[a] >= 0:
            edges.append((outer[a], len(triangles) - 1, (a, b)))
    assert len(triangles) == n - 2 and len(edges) == n - 3
    return triangles, edges


def build_dual_tree(g: MopGraph) -> DualTree:
    """Construct the dual tree from the fan of each vertex, in O(n)
    (:func:`fan_triangles`).  A side of a triangle ``(a, b, c)`` lies on
    the outer cycle for each of ``b = a + 1``, ``c = b + 1`` and
    ``(a, c) = (0, n - 1)`` that holds: two make an ear, one a side
    triangle, none an internal one."""
    n = g.n
    triangles, edges = fan_triangles(g)
    tris = []
    for a, b, c in triangles:
        cyc = (b - a == 1) + (c - b == 1) + (a == 0 and c == n - 1)
        kind = EAR if cyc >= 2 else SIDE if cyc == 1 else INTERNAL
        tris.append(Triangle(vertices=(a, b, c), kind=kind))
    return DualTree(triangles=tuple(tris), edges=tuple(edges))


def dual_to_dot(t: DualTree, name: str = "dual") -> str:
    lines = [f"graph {name} {{", "  node [shape=box];"]
    for i, tri in enumerate(t.triangles):
        label = "-".join(str(v) for v in tri.vertices)
        lines.append(f'  t{i} [label="{label}\\n{tri.kind}"];')
    for i, j, chord in t.edges:
        lines.append(f'  t{i} -- t{j} [label="{chord[0]}-{chord[1]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BranchShape:
    """A clean leaf-to-anchor walk of length 1, 2, 4 or 6.  ``leaf`` and
    ``anchor`` are node ids of the tree that was walked."""

    leaf: int
    anchor: int
    dist: int
    labels: Mapping[str, int] = field(hash=False)

    @property
    def entry_chord_roles(self) -> tuple[str, str]:
        return {1: ("u2", "u3"), 2: ("u2", "u4"), 4: ("u4", "u6"), 6: ("u6", "u8")}[
            self.dist
        ]


@dataclass(frozen=True)
class Deviation:
    """A walk that diverges from the clean shapes; ``variant`` selects the
    single-branch reduction that handles it."""

    leaf: int
    claim: int
    variant: str
    witness_labels: Mapping[str, int] = field(hash=False)


def _step(t, prev, cur):
    """The neighbour of ``cur`` other than ``prev``.  A walk steps only from
    nodes of degree at most 2, so there is one, and the order in which
    ``neighbours`` lists them does not matter."""
    for x in t.neighbours(cur):
        if x != prev:
            return x
    raise AssertionError("walk ran off a path end; impossible for n >= 9 patterns")


def _new(f: Vertices3, before: Vertices3) -> int:
    """The vertex of triangle ``f`` that the adjacent ``before`` lacks."""
    a, b, c = f
    return a if a not in before else b if b not in before else c


def match_branch_shape(g: MopGraph, t: DualTree, leaf: int):
    """Classify the walk from a dual-tree leaf.

    Returns a :class:`BranchShape` (anchor at distance 1, 2, 4 or 6) or a
    :class:`Deviation`.  Requires n >= 9 so that walk positions 2..6 cannot
    run off the far end of a path tree.

    Only ``g.n`` and the tree's ``vertices``, ``neighbours`` and ``degree``
    are read, so any object offering those can stand in for the graph and
    its dual tree.  ``neighbours`` and ``degree`` are read at the first 7
    nodes of the walk at most, and ``vertices`` at the first 8.
    """
    if g.n < 9:
        raise PreconditionTooSmall(f"branch matching needs n >= 9, got {g.n}")
    if t.degree(leaf) != 1:
        raise NotALeaf(f"dual node {leaf} has degree {t.degree(leaf)}")

    # t2 shares the chord {u2, u3} of the ear; u1, the ear's tip, is off it
    # and is the ear's one degree-2 vertex.
    f1 = t.vertices(leaf)
    t2 = _step(t, None, leaf)
    f2 = t.vertices(t2)
    a, b, c = f1
    if a not in f2:
        u1, u2, u3 = a, b, c
    elif b not in f2:
        u1, u2, u3 = b, a, c
    else:
        u1, u2, u3 = c, a, b
    u4 = _new(f2, f1)
    if t.degree(t2) == 3:
        return BranchShape(
            leaf=leaf, anchor=t2, dist=1, labels={"u1": u1, "u2": u2, "u3": u3, "u4": u4}
        )

    # t3: shares u4 and one of u2/u3; normalize so it is u2
    t3 = _step(t, leaf, t2)
    f3 = t.vertices(t3)
    if u3 in f3:
        u2, u3 = u3, u2
    assert u2 in f3 and u4 in f3
    u5 = _new(f3, f2)
    if t.degree(t3) == 3:
        return BranchShape(
            leaf=leaf,
            anchor=t3,
            dist=2,
            labels={"u1": u1, "u2": u2, "u3": u3, "u4": u4, "u5": u5},
        )

    # t4: {u4, u5} continues the clean walk, {u2, u5} deviates
    t4 = _step(t, t2, t3)
    f4 = t.vertices(t4)
    u6 = _new(f4, f3)
    base = {"u1": u1, "u2": u2, "u3": u3, "u4": u4, "u5": u5, "u6": u6}
    if u2 in f4 and u5 in f4:
        variant = "C2-1" if t.degree(t4) == 3 else "C3"
        return Deviation(leaf=leaf, claim=int(variant[1]), variant=variant, witness_labels=base)
    assert u4 in f4 and u5 in f4
    if t.degree(t4) == 3:
        return Deviation(leaf=leaf, claim=2, variant="C2-2", witness_labels=base)

    # t5: {u4, u6} continues, {u5, u6} deviates (claim 4, any degree)
    t5 = _step(t, t3, t4)
    f5 = t.vertices(t5)
    u7 = base["u7"] = _new(f5, f4)
    if u5 in f5 and u6 in f5:
        return Deviation(leaf=leaf, claim=4, variant="C4", witness_labels=base)
    assert u4 in f5 and u6 in f5
    if t.degree(t5) == 3:
        return BranchShape(leaf=leaf, anchor=t5, dist=4, labels=base)

    # t6: {u6, u7} continues, {u4, u7} deviates (claim 5b, any degree)
    t6 = _step(t, t4, t5)
    f6 = t.vertices(t6)
    u8 = base["u8"] = _new(f6, f5)
    if u4 in f6 and u7 in f6:
        return Deviation(leaf=leaf, claim=5, variant="C5b", witness_labels=base)
    assert u6 in f6 and u7 in f6
    if t.degree(t6) == 3:
        return Deviation(leaf=leaf, claim=5, variant="C5a", witness_labels=base)

    # t7: {u6, u8} continues, {u7, u8} deviates (claim 6a, any degree)
    t7 = _step(t, t5, t6)
    f7 = t.vertices(t7)
    u9 = base["u9"] = _new(f7, f6)
    if u7 in f7 and u8 in f7:
        return Deviation(leaf=leaf, claim=6, variant="C6a", witness_labels=base)
    assert u6 in f7 and u8 in f7
    d7 = t.degree(t7)
    if d7 == 3:
        return BranchShape(leaf=leaf, anchor=t7, dist=6, labels=base)
    if d7 == 1:
        # the dual tree is a 7-node path, so n = 9 exactly
        return Deviation(leaf=leaf, claim=6, variant="C6b", witness_labels=base)

    # t8: {u8, u9} -> claim 6c, {u6, u9} -> claim 6d (any degree)
    t8 = _step(t, t6, t7)
    f8 = t.vertices(t8)
    base["u10"] = _new(f8, f7)
    if u8 in f8 and u9 in f8:
        return Deviation(leaf=leaf, claim=6, variant="C6c", witness_labels=base)
    assert u6 in f8 and u9 in f8
    return Deviation(leaf=leaf, claim=6, variant="C6d", witness_labels=base)
