"""Maximal outerplanar graphs as triangulated polygons.

A maximal outerplanar graph (MOP) on ``n >= 3`` vertices is stored in its
polygon normal form: vertices are labelled ``0..n-1`` clockwise along the
outer (Hamiltonian) cycle, and the interior is triangulated by exactly
``n - 3`` pairwise non-crossing chords.  Everything else in this package
builds on that representation.

Key facts used by the validator: a set of distinct chords of a convex polygon
that are pairwise non-crossing, none of which is a polygon side, forms a
triangulation exactly when there are ``n - 3`` of them.  So validation only
needs the count, degeneracy, duplicate and crossing checks; maximality and
outerplanarity follow.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import (
    CrossingChords,
    DuplicateOrDegenerateChord,
    EmptyOrDisconnected,
    NotMaximalOuterplanar,
    ResultNotMaximalOuterplanar,
    VertexOutOfRange,
    WrongChordCount,
)

VertexSet = frozenset[int]
Chord = tuple[int, int]


@dataclass(frozen=True)
class MopGraph:
    """Immutable MOP in polygon normal form.

    ``chords`` is canonical for the labelling: every pair ``(lo, hi)`` with
    ``lo < hi``, sorted lexicographically.  Two MopGraph values are equal iff
    they are the same labelled graph.  (Use :func:`canonical_form` to compare
    up to rotation/reflection.)
    """

    n: int
    chords: tuple[Chord, ...]

    @cached_property
    def adjacency(self) -> tuple[VertexSet, ...]:
        n = self.n
        nbrs = [{v - 1, v + 1} for v in range(n)]
        nbrs[0] = {n - 1, 1}
        nbrs[-1] = {n - 2, 0}
        for a, b in self.chords:
            nbrs[a].add(b)
            nbrs[b].add(a)
        return tuple(map(frozenset, nbrs))

    @property
    def m(self) -> int:
        """Edge count; always 2n - 3."""
        return self.n + len(self.chords)

    def edges(self) -> list[Chord]:
        """All edges as (lo, hi) pairs: cycle edges then chords, sorted."""
        cyc = [(i, i + 1) for i in range(self.n - 1)] + [(0, self.n - 1)]
        return sorted(set(cyc).union(self.chords))

    def higher_neighbours(self) -> list[list[int]]:
        """For each vertex but the last, its neighbours above it, ascending:
        the fan of the polygon's triangles at that vertex.  Built from
        ``chords`` alone, so the adjacency cache stays empty.  The engine's
        set-up (``dual_tree.fan_dual``) reads these lists; the exact solver
        reads the same fans off the sorted chords without building them."""
        n = self.n
        up = [[v + 1] for v in range(n - 1)]
        for a, b in self.chords:  # sorted, so each list stays ascending
            up[a].append(b)
        up[0].append(n - 1)
        return up

    def degree2_vertices(self) -> tuple[int, ...]:
        """Vertices of degree 2, ascending: those in no chord.  Kept on the
        instance, without the lock of ``cached_property``."""
        deg2 = self.__dict__.get("_degree2")
        if deg2 is None:
            free = [True] * self.n
            for a, b in self.chords:
                free[a] = free[b] = False
            deg2 = self.__dict__["_degree2"] = tuple([v for v in range(self.n) if free[v]])
        return deg2


def _normalize_chord(n: int, pair: Sequence[int]) -> Chord:
    try:
        a, b = pair
        a = int(a)
        b = int(b)
    except (TypeError, ValueError) as exc:
        raise DuplicateOrDegenerateChord(f"malformed chord {pair!r}") from exc
    if not (0 <= a < n and 0 <= b < n):
        raise VertexOutOfRange(f"chord {pair!r} has an endpoint outside 0..{n - 1}")
    if a == b:
        raise DuplicateOrDegenerateChord(f"chord {pair!r} is a self-loop")
    lo, hi = (a, b) if a < b else (b, a)
    if hi - lo == 1 or (lo == 0 and hi == n - 1):
        raise DuplicateOrDegenerateChord(f"chord {pair!r} is an outer-cycle edge")
    return (lo, hi)


def _crossing_pair(chords: Sequence[Chord]) -> tuple[Chord, Chord] | None:
    """The first crossing pair in list order, by a pair scan (O(m^2));
    :func:`_non_crossing` decides whether one exists in O(m log m)."""
    for i, (a, b) in enumerate(chords):
        for c, d in chords[i + 1 :]:
            if a < c < b < d or c < a < d < b:
                return (a, b), (c, d)
    return None


def _non_crossing(chords: Iterable[Chord]) -> bool:
    """True if no two ``(lo, hi)`` chords interleave.

    Chords taken by ascending ``lo`` (longest first on ties) must nest inside
    every chord still open at ``lo``; the open ones form a stack of
    non-increasing ``hi``, and only its top can be crossed."""
    open_hi: list[int] = []
    for lo, hi in sorted(chords, key=lambda c: (c[0], -c[1])):
        while open_hi and open_hi[-1] <= lo:
            open_hi.pop()
        if open_hi and open_hi[-1] < hi:
            return False
        open_hi.append(hi)
    return True


def build_mop(n: int, chords: Iterable[Sequence[int]]) -> MopGraph:
    """Validate and build a MOP from its polygon normal form.

    Raises WrongChordCount, VertexOutOfRange, DuplicateOrDegenerateChord or
    CrossingChords.  ``n < 3`` always fails the count check.
    """
    raw = list(chords)
    if len(raw) != n - 3:
        raise WrongChordCount(f"n={n} needs {n - 3} chords, got {len(raw)}")
    norm = [_normalize_chord(n, p) for p in raw]
    if len(set(norm)) != len(norm):
        seen: set[Chord] = set()
        for c in norm:
            if c in seen:
                raise DuplicateOrDegenerateChord(f"chord {c!r} appears twice")
            seen.add(c)
    norm.sort()
    if not _non_crossing(norm):
        a, b = _crossing_pair(norm)
        raise CrossingChords(f"chords {a!r} and {b!r} cross")
    return MopGraph(n=n, chords=tuple(norm))


def _unchecked(n: int, chords: Iterable[Chord]) -> MopGraph:
    """Fast path for generators whose output is valid by construction."""
    return MopGraph(n=n, chords=tuple(sorted(chords)))


def neighbors(g: MopGraph, v: int) -> VertexSet:
    if not 0 <= v < g.n:
        raise VertexOutOfRange(f"vertex {v} outside 0..{g.n - 1}")
    return g.adjacency[v]


# --- reduction ------------------------------------------------------------------


def reduce_graph(
    g: MopGraph,
    delete: Iterable[int],
    add_chords: Iterable[Sequence[int]] = (),
) -> tuple[MopGraph, dict[int, int]]:
    """Delete vertices, optionally add chords, and re-validate.

    Surviving vertices are relabelled by rank among ascending old labels,
    which preserves their clockwise order on the outer cycle.  New edges are
    the surviving old edges plus ``add_chords``; any of them that joins two
    now-consecutive survivors becomes an outer-cycle edge rather than a chord.
    Raises ResultNotMaximalOuterplanar if the result is not a MOP.
    """
    dele = set(delete)
    for v in dele:
        if not 0 <= v < g.n:
            raise VertexOutOfRange(f"vertex {v} outside 0..{g.n - 1}")
    survivors = [v for v in range(g.n) if v not in dele]
    n2 = len(survivors)
    if n2 < 3:
        raise ResultNotMaximalOuterplanar(f"only {n2} vertices would survive")
    remap = {old: new for new, old in enumerate(survivors)}

    kept: set[Chord] = set()
    for a, b in g.edges():
        if a in dele or b in dele:
            continue
        kept.add((remap[a], remap[b]))
    for pair in add_chords:
        try:
            a, b = (int(pair[0]), int(pair[1]))
        except (TypeError, ValueError, IndexError) as exc:
            raise ResultNotMaximalOuterplanar(f"malformed added chord {pair!r}") from exc
        if a in dele or b in dele or not (0 <= a < g.n and 0 <= b < g.n):
            raise ResultNotMaximalOuterplanar(
                f"added chord {pair!r} touches a deleted or unknown vertex"
            )
        lo, hi = sorted((remap[a], remap[b]))
        kept.add((lo, hi))

    new_chords = [
        (a, b)
        for a, b in kept
        if not ((b - a) % n2 in (1, n2 - 1))
    ]
    try:
        g2 = build_mop(n2, new_chords)
    except (WrongChordCount, CrossingChords, DuplicateOrDegenerateChord, VertexOutOfRange) as exc:
        raise ResultNotMaximalOuterplanar(str(exc)) from exc
    return g2, remap


# --- recognition ------------------------------------------------------------------


def recognize_mop(edges: Iterable[Sequence[object]]) -> tuple[MopGraph, dict[object, int]]:
    """Recognize a MOP given as an arbitrary edge list.

    Vertex ids may be any hashable values.  Returns the canonical polygon
    normal form together with the labelling old-id -> canonical label.

    Every triangle of a MOP is a face, so an outer-cycle edge lies in exactly
    one triangle and a chord in two.  The edges whose ends have exactly one
    common neighbour are therefore taken as the outer cycle; it must pass
    through every vertex, and :func:`build_mop` must accept the remaining
    edges as its chords.  Conversely, a graph that passes is that
    triangulated polygon, so nothing else needs checking.
    """
    adj: dict[object, set[object]] = {}
    edge_count = 0
    seen_edges: set[frozenset[object]] = set()
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError) as exc:
            raise NotMaximalOuterplanar(f"malformed edge {e!r}") from exc
        if u == v:
            raise NotMaximalOuterplanar(f"self-loop at {u!r}")
        key = frozenset((u, v))
        if key in seen_edges:
            continue
        seen_edges.add(key)
        edge_count += 1
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)

    if not adj:
        raise EmptyOrDisconnected("no edges given")
    verts = list(adj)
    n = len(verts)

    # connectivity
    stack = [verts[0]]
    reached = {verts[0]}
    while stack:
        w = stack.pop()
        for x in adj[w]:
            if x not in reached:
                reached.add(x)
                stack.append(x)
    if len(reached) != n:
        raise EmptyOrDisconnected(f"{n - len(reached)} vertices unreachable")

    if edge_count != 2 * n - 3:
        raise NotMaximalOuterplanar(f"n={n} has {edge_count} edges, expected {2 * n - 3}")

    # the outer cycle: the edges in exactly one triangle
    outer = {v: [w for w in nb if len(nb & adj[w]) == 1] for v, nb in adj.items()}
    for v, ws in outer.items():
        if len(ws) != 2:
            raise NotMaximalOuterplanar(f"{v!r} has {len(ws)} edges in one triangle, not 2")
    order = [verts[0]]
    prev, cur = verts[0], outer[verts[0]][0]
    while cur != verts[0]:
        order.append(cur)
        a, b = outer[cur]
        prev, cur = cur, b if a == prev else a
    if len(order) != n:
        raise NotMaximalOuterplanar("the edges in one triangle form several cycles")
    pos = {v: i for i, v in enumerate(order)}

    chords = []
    for key in seen_edges:
        u, v = tuple(key)
        a, b = pos[u], pos[v]
        if (a - b) % n in (1, n - 1):
            continue
        chords.append((min(a, b), max(a, b)))
    try:
        g = build_mop(n, chords)
    except (WrongChordCount, CrossingChords, DuplicateOrDegenerateChord) as exc:
        raise NotMaximalOuterplanar(str(exc)) from exc

    canon, transform = canonical_form(g)
    labelling = {v: transform[pos[v]] for v in verts}
    return canon, labelling


# --- canonical form ------------------------------------------------------------------


def _transformed_chords(n: int, chords: Sequence[Chord], rot: int, refl: bool) -> tuple[Chord, ...]:
    out = []
    for a, b in chords:
        if refl:
            x, y = (rot - a) % n, (rot - b) % n
        else:
            x, y = (a - rot) % n, (b - rot) % n
        out.append((x, y) if x < y else (y, x))
    return tuple(sorted(out))


def canonical_form(g: MopGraph) -> tuple[MopGraph, dict[int, int]]:
    """Dihedral canonicalization.

    Returns the relabelled graph whose chord tuple is lexicographically
    smallest over all 2n rotations/reflections, plus the vertex map that
    achieves it.  Ties are broken by the smallest (reflection, rotation)
    pair, so the map is deterministic.

    For n >= 4 some ear's two neighbours can be sent to (0, 2), so every
    smallest tuple starts with the chord (0, 2).  Only the 2t transforms
    that do so are scanned: for each degree-2 vertex v, the rotation by
    v - 1 and the reflection x -> v + 1 - x.  For n = 3 they include the
    identity, and every transform ties.
    """
    n = g.n
    deg2 = g.degree2_vertices()
    best: tuple[Chord, ...] | None = None
    best_rr = (0, 0)
    for refl, shift in ((0, -1), (1, 1)):
        for rot in sorted((v + shift) % n for v in deg2):
            cand = _transformed_chords(n, g.chords, rot, bool(refl))
            if best is None or cand < best:
                best = cand
                best_rr = (refl, rot)
    assert best is not None
    refl, rot = best_rr
    if refl:
        mapping = {v: (rot - v) % n for v in range(n)}
    else:
        mapping = {v: (v - rot) % n for v in range(n)}
    return MopGraph(n=n, chords=best), mapping


def same_up_to_relabelling(a: MopGraph, b: MopGraph) -> bool:
    """True if a and b are the same MOP up to rotation/reflection."""
    if a.n != b.n:
        return False
    return canonical_form(a)[0].chords == canonical_form(b)[0].chords


# --- serialization ------------------------------------------------------------------


def to_json(g: MopGraph) -> str:
    return json.dumps({"n": g.n, "chords": [list(c) for c in g.chords]})


def from_json(text: str) -> MopGraph:
    """Parse and validate one ``{"n": ..., "chords": [[a, b], ...]}`` object.

    Every malformed input raises a MopError: bad JSON, a missing key, or a
    value that is not an integer (``true`` and ``5.0`` included)."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise NotMaximalOuterplanar(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, Mapping) or "n" not in obj or "chords" not in obj:
        raise NotMaximalOuterplanar(f"graph object needs 'n' and 'chords': {text[:80]!r}")
    n, chords = obj["n"], obj["chords"]
    if type(n) is not int:
        raise NotMaximalOuterplanar(f"'n' must be an integer, got {n!r}")
    if type(chords) is not list:
        raise NotMaximalOuterplanar(f"'chords' must be a list of pairs, got {chords!r}")
    for pair in chords:
        if not (type(pair) is list and len(pair) == 2 and all(type(v) is int for v in pair)):
            raise DuplicateOrDegenerateChord(f"malformed chord {pair!r}")
    return build_mop(n, chords)


def to_edge_list(g: MopGraph) -> str:
    return "\n".join(f"{a} {b}" for a, b in g.edges()) + "\n"


def _vertex_id(token: str) -> int | str:
    try:
        return int(token)
    except ValueError:
        return token


def parse_edge_list(text: str) -> list[tuple[int | str, int | str]]:
    """Edges ``u v``, one per line; ``#`` starts a comment line.  A token
    that reads as an integer is that integer, any other is a string id."""
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise NotMaximalOuterplanar(f"bad edge line {line!r}")
        out.append((_vertex_id(parts[0]), _vertex_id(parts[1])))
    return out


def to_dot(g: MopGraph, name: str = "mop") -> str:
    lines = [f"graph {name} {{", "  node [shape=circle];"]
    for i in range(g.n):
        j = (i + 1) % g.n
        lines.append(f"  {min(i, j)} -- {max(i, j)};")
    for a, b in g.chords:
        lines.append(f"  {a} -- {b} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
