"""Constructive engine for the (n+k)/2 double-domination upper bound.

Graphs with ``4 <= n <= 8`` are solved exactly, with degree-2 vertices
forbidden so the base solutions already obey the convention the reductions
rely on.  Larger graphs are shrunk by rules from ``data/rules.json``:
single-branch rules keyed to the first deviation on a leaf walk, two-branch
rules keyed to a degree-3 anchor collecting two clean walks.  A rule deletes
a handful of vertices (optionally adding a chord to keep the result a MOP);
once the graph is small, the base solution is lifted back level by level,
each lift appending the rule's fixed addback set.

The engine is a reduce loop followed by a lift loop over one graph edited in
place, in the vertex ids of the input (:class:`_Reducer`).  Relabelling
survivors by rank is monotone, so the triangle, leaf and anchor orders and
the role picks of the leaf walks are the same in fixed ids as in each
level's own labels, and the same candidate is chosen.  A level costs time in
proportion to what it changes: only the leaf walks that start within a few
hops of a re-linked triangle are redone.

Soundness is enforced locally rather than trusted globally.  A candidate is
skipped, before anything is edited, if its reduction would not leave a MOP
on at least 4 vertices.  After every lift the vertices whose neighbourhood
the reduction changed, and the addback, must be double dominated or avoid
degree 2, and the set must fit under (n + k)/2; everywhere else the reduced
graph's solution already guarantees it.  A failed lift raises
CertificationFailed, and the result is certified in full against the input
graph at the end.  The per-rule accounting (how n and k move together, that
the lift grows by exactly the addback, and the k movement each rule
declares) is recorded in the trace as soft checks and surfaced as counters.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from importlib import resources
from typing import Any, Callable, Iterable, Iterator, Mapping

from .domination import (
    BadVertexReport,
    DominationMode,
    _solve_exact,
    bad_vertices,
    is_double_dominating,
)
from .dual_tree import (
    BranchShape,
    Deviation,
    build_dual_tree,  # noqa: F401 - not called here; the benchmark traces this binding
    fan_triangles,
    match_branch_shape,
)
from .errors import (
    BoundViolated,
    CertificationFailed,
    NoRuleApplies,
    ResultNotMaximalOuterplanar,
    RuleMismatch,
    TooLarge,
    TooSmall,
)
from .graph_core import Chord, MopGraph, VertexSet, reduce_graph

BASE_MAX_N = 8


# --- rule manifest ---------------------------------------------------------------


@dataclass(frozen=True)
class ReductionRule:
    rule_id: str
    kind: str  # "deviation" | "site" | "direct"
    delete: tuple[str, ...] = ()
    add_chords: tuple[tuple[str, str], ...] = ()
    required: tuple[str, ...] = ()
    addback: tuple[str, ...] = ()
    direct: tuple[str, ...] = ()
    shared: tuple[str, str] | None = None
    k_printed: Mapping[str, Any] | None = None


def _parse_rule(obj: Mapping[str, Any], kind: str) -> ReductionRule:
    if "direct" in obj:
        return ReductionRule(
            rule_id=str(obj["id"]),
            kind="direct",
            direct=tuple(obj["direct"]),
        )
    shared = obj.get("shared")
    return ReductionRule(
        rule_id=str(obj["id"]),
        kind=kind,
        delete=tuple(obj["delete"]),
        add_chords=tuple((a, b) for a, b in obj.get("add_chords", ())),
        required=tuple(obj.get("required", ())),
        addback=tuple(obj.get("addback", ())),
        shared=(shared[0], shared[1]) if shared else None,
        k_printed=obj.get("k_printed"),
    )


@lru_cache(maxsize=1)
def load_rules() -> tuple[
    Mapping[str, ReductionRule],
    Mapping[tuple[int, int], tuple[ReductionRule, ...]],
]:
    """Parse data/rules.json once: (deviation rules by variant, site rules by
    branch-distance pair)."""
    text = resources.files("mopdom.data").joinpath("rules.json").read_text("utf-8")
    raw = json.loads(text)
    deviations = {
        key: _parse_rule(val, "deviation") for key, val in raw["deviations"].items()
    }
    sites: dict[tuple[int, int], tuple[ReductionRule, ...]] = {}
    for key, entries in raw["sites"].items():
        ds, dt = (int(x) for x in key.split(","))
        sites[(ds, dt)] = tuple(_parse_rule(e, "site") for e in entries)
    return deviations, sites


# --- trace and certification ------------------------------------------------------


_STEP_KEYS = (
    "rule", "n_before", "k_before", "n_after", "k_after", "labels", "deleted",
    "added_back", "size_after_lift", "telescope_ok", "size_exact", "printed_ok",
)
_PRINTED = (None, False, True)  # printed_ok by its code in the packed log
_HEAD = 5  # fixed fields of a packed step, before its label values


@dataclass(frozen=True)
class ReductionTrace:
    """The steps of one solve, outermost reduction first, kept packed.

    ``log`` holds one record per step: the index of its rule in ``rules``,
    the index of its label keys in ``keys``, k before the step, the solution
    size after its lift, its printed-k verdict as an index into
    ``(None, False, True)``, then its label values as vertex ids of the
    input.  The last step is terminal: its ``rules`` entry is the rule id
    (``base_case``, ``exact_fallback`` or a direct rule), and it has no
    labels.  ``n`` is the input's vertex count; each step's labels
    in its own graph, n_after, deleted, added_back, telescope_ok and
    size_exact follow from the rest, and ``to_obj`` spells each step out as
    a dict."""

    n: int
    rules: tuple[ReductionRule | str, ...]
    keys: tuple[tuple[str, ...], ...]
    log: array

    def _heads(self) -> Iterator[int]:
        log, keys, i = self.log, self.keys, 0
        while i < len(log):
            yield i
            i += _HEAD + len(keys[log[i + 1]])

    def _fields(self) -> Iterator[tuple]:
        """The fields of every step, in ``_STEP_KEYS`` order, derived from the
        log.  A step's label is its vertex id less the number of smaller ids
        that earlier steps deleted, which is the vertex's rank among the
        survivors."""
        log, n = self.log, self.n
        heads = list(self._heads())
        gone: list[int] = []  # ids deleted by earlier steps, ascending
        for pos, i in enumerate(heads):
            rule = self.rules[log[i]]
            k, size = log[i + 2], log[i + 3]
            if isinstance(rule, str):
                yield (rule, n, k, n, k, {}, (), (), size, True, True, None)
                continue
            keys = self.keys[log[i + 1]]
            ids = dict(zip(keys, log[i + _HEAD : i + _HEAD + len(keys)]))
            labels = {r: v - bisect_left(gone, v) for r, v in ids.items()}
            nxt = heads[pos + 1]
            k2, size2 = log[nxt + 2], log[nxt + 3]
            deleted = tuple(sorted(labels[r] for r in rule.delete))
            added_back = tuple(sorted({labels[r] for r in rule.addback}))
            dele = {ids[r] for r in rule.delete}
            n2 = n - len(dele)
            yield (
                rule.rule_id, n, k, n2, k2, labels, deleted, added_back, size,
                (n - n2) + (k - k2) >= 2 * len(added_back),
                size == size2 + len(added_back),
                _PRINTED[log[i + 4]],
            )
            for v in dele:
                insort(gone, v)
            n = n2

    @property
    def depth(self) -> int:
        """Number of reduction steps (the terminal base/direct step excluded)."""
        return max(sum(1 for _ in self._heads()) - 1, 0)

    def soft_failures(self) -> dict[str, int]:
        """How many steps fail each soft check of ``to_obj``, counted from
        the log alone: a step removes as many vertices as the distinct ids
        it deletes and adds back the distinct ids of its addback, and k and
        the sizes are stored.  The terminal step fails none."""
        log, keys, rules = self.log, self.keys, self.rules
        telescope = size_exact = printed_k = 0
        i = 0
        while not isinstance(rule := rules[log[i]], str):
            roles = keys[log[i + 1]]
            j = i + _HEAD + len(roles)
            ids = dict(zip(roles, log[i + _HEAD : j]))
            back = len({ids[r] for r in rule.addback})
            shrink = len({ids[r] for r in rule.delete}) + log[i + 2] - log[j + 2]
            telescope += shrink < 2 * back
            size_exact += log[i + 3] != log[j + 3] + back
            printed_k += _PRINTED[log[i + 4]] is False
            i = j
        return {"telescope": telescope, "size_exact": size_exact, "printed_k": printed_k}

    def rule_ids(self) -> tuple[str, ...]:
        rules, log = self.rules, self.log
        return tuple(
            r if isinstance(r, str) else r.rule_id
            for r in (rules[log[i]] for i in self._heads())
        )

    def to_obj(self) -> list[dict[str, Any]]:
        return [
            {key: list(val) if isinstance(val, tuple) else val
             for key, val in zip(_STEP_KEYS, fields)}
            for fields in self._fields()
        ]

    def to_json(self) -> str:
        return json.dumps(self.to_obj())


def _id_array(n: int, ids: Iterable[int]) -> array:
    """Integers from 0 to n, in 16-bit words when n < 2**16, else in 64-bit
    ones."""
    return array("H" if n < 1 << 16 else "q", ids)


@dataclass(frozen=True)
class CertifiedResult:
    graph: MopGraph
    members: array  # the solution, ascending; see _id_array
    k: int
    bound: float
    certified: bool
    reasons: tuple[str, ...]
    trace: ReductionTrace | None

    @property
    def solution(self) -> VertexSet:
        """The solution as a set, built on each access.  Campaigns and
        benchmarks keep results in bulk, and a packed array of vertex ids
        takes a small fraction of the memory of a frozenset."""
        return frozenset(self.members)

    def to_obj(self) -> dict[str, Any]:
        obj: dict[str, Any] = {
            "n": self.graph.n,
            "k": self.k,
            "bound": self.bound,
            "size": len(self.members),
            "solution": list(self.members),
            "certified": self.certified,
        }
        if self.reasons:
            obj["reasons"] = list(self.reasons)
        if self.trace is not None:
            obj["soft_failures"] = self.trace.soft_failures()
        return obj


def certify(
    g: MopGraph, solution: Iterable[int], trace: ReductionTrace | None = None
) -> CertifiedResult:
    """Check a solution against the graph alone, independent of its origin:
    literal double domination, no degree-2 members, size within (n + k)/2.
    Vertex ids outside 0..n-1 are reported, and must fit in 64 bits."""
    return _certify(g, solution, bad_vertices(g), trace)


def _certify(
    g: MopGraph, solution: Iterable[int], rep: BadVertexReport, trace: ReductionTrace | None
) -> CertifiedResult:
    """:func:`certify` with the bad-vertex report of g already counted."""
    sol = frozenset(map(int, solution))
    members = sorted(sol)
    reasons: list[str] = []
    stray = bool(members) and (members[0] < 0 or members[-1] >= g.n)
    if stray:
        outside = [v for v in members if not 0 <= v < g.n]
        reasons.append(f"vertices {outside} outside 0..{g.n - 1}")
    elif not is_double_dominating(g, sol, DominationMode.literal):
        reasons.append("not double dominating")
    deg2_hits = sorted(sol.intersection(rep.deg2))
    if deg2_hits:
        reasons.append(f"contains degree-2 vertices {deg2_hits}")
    if 2 * len(sol) > g.n + rep.k:
        reasons.append(f"size {len(sol)} exceeds (n+k)/2 = {(g.n + rep.k) / 2:g}")
    return CertifiedResult(
        graph=g,
        members=array("q", members) if stray else _id_array(g.n, members),
        k=rep.k,
        bound=(g.n + rep.k) / 2,
        certified=not reasons,
        reasons=tuple(reasons),
        trace=trace,
    )


# --- base case ---------------------------------------------------------------


@lru_cache(maxsize=4096)
def _base_case(n: int, chords: tuple) -> frozenset[int]:
    g = MopGraph(n=n, chords=chords)
    _, witness = _solve_exact(g, standard=False, forbid_deg2=True)
    k = bad_vertices(g).k
    if 2 * len(witness) > n + k:  # an exception is not cached, so it repeats
        raise BoundViolated(
            f"n={n}: exact minimum {len(witness)} exceeds (n+k)/2 = {(n + k) / 2:g}"
        )
    return frozenset(witness)


def base_case_solve(g: MopGraph) -> VertexSet:
    """Exact minimum double dominating set avoiding degree-2 vertices, for
    the 4 <= n <= 8 floor of the reduction (lexicographically smallest, so
    results are reproducible)."""
    if g.n < 4:
        raise TooSmall(f"base case needs n >= 4, got n={g.n}")
    if g.n > BASE_MAX_N:
        raise TooLarge(f"base case caps at n={BASE_MAX_N}, got n={g.n}")
    return _base_case(g.n, g.chords)


# --- rule application ---------------------------------------------------------------


def _resolve(labels: Mapping[str, int], roles: Iterable[str]) -> list[int]:
    try:
        return [labels[r] for r in roles]
    except KeyError as exc:
        raise RuleMismatch(
            f"rule needs label {exc.args[0]!r} but the walk did not provide it"
        ) from exc


def apply_rule(
    g: MopGraph, rule: ReductionRule, labels: Mapping[str, int]
) -> tuple[MopGraph, dict[int, int]]:
    """Apply one reduction rule: delete its vertices, add its chords.

    Returns the reduced graph and the old->new vertex map.  Raises
    RuleMismatch when the labels do not carry the roles the rule mentions,
    ResultNotMaximalOuterplanar when the reduction breaks the structure.
    The engine edits its graph in place instead; this is the reference it
    must agree with."""
    if rule.kind == "direct":
        raise RuleMismatch("direct rules emit a solution, not a reduction")
    delete = _resolve(labels, rule.delete)
    chords = [tuple(_resolve(labels, pair)) for pair in rule.add_chords]
    return reduce_graph(g, delete, chords)


def _printed_check(
    spec: Mapping[str, Any] | None,
    r: _Reducer,
    labels: Mapping[str, int],
    k_before: int,
) -> Callable[[int], bool] | None:
    """The k movement the rule declares, as a test of k after the reduction;
    None if not stated.  Read before the reduction edits the graph."""
    if spec is None:
        return None
    kind = spec.get("kind")
    if kind == "eq":
        return lambda k: k == k_before + int(spec["delta"])
    if kind == "le":
        return lambda k: k <= k_before + int(spec["delta"])
    if kind == "conditional":
        # k drops by one exactly when the outer-cycle neighbour of the pivot
        # away from the branch has degree 2 in the unreduced graph.
        pivot = labels.get(spec["pivot"])
        other = labels.get(spec["other"])
        if pivot is None or other is None:
            return None
        cand = {r.prv[pivot], r.nxt[pivot]} - {other}
        if len(cand) != 1:
            return None
        successor = cand.pop()
        expect = k_before - 1 if len(r.adjacency[successor]) == 2 else k_before
        return lambda k: k == expect
    return None


# --- candidate enumeration ---------------------------------------------------------


# Role names of the second branch; shared strings keep retained traces small.
_V_ROLE = {f"u{i}": f"v{i}" for i in range(1, 11)}


def _rename_to_v(labels: Mapping[str, int]) -> dict[str, int]:
    return {_V_ROLE[key]: val for key, val in labels.items()}


def _normalize_d1(
    labels: dict[str, int], shared_role: str, want: str
) -> tuple[dict[str, int], str]:
    """For a distance-1 branch the two non-ear labels are interchangeable;
    swap them so the shared vertex carries the wanted role."""
    if shared_role == want:
        return labels, shared_role
    out = dict(labels)
    out["u2"], out["u3"] = labels["u3"], labels["u2"]
    return out, want


def _shared_roles(a: BranchShape, b: BranchShape) -> tuple[str, str] | None:
    ea = {a.labels[r]: r for r in a.entry_chord_roles}
    eb = {b.labels[r]: r for r in b.entry_chord_roles}
    common = set(ea) & set(eb)
    if len(common) != 1:
        return None
    x = common.pop()
    return ea[x], eb[x]


def _pair_candidate(
    a: BranchShape, b: BranchShape
) -> tuple[ReductionRule, dict[str, int]] | None:
    """Match a pair of clean branches at one anchor to a site rule.

    The caller passes the shorter branch first (``a.dist <= b.dist``), and
    it plays s; at equal distances both orders are tried, since the manifest
    keeps only one of each symmetric configuration."""
    _, sites = load_rules()
    orders = [(a, b), (b, a)] if a.dist == b.dist else [(a, b)]
    for s, t in orders:
        roles = _shared_roles(s, t)
        if roles is None:
            continue
        role_s, role_t = roles
        s_labels = dict(s.labels)
        t_labels = dict(t.labels)
        if s.dist == 1:
            s_labels, role_s = _normalize_d1(s_labels, role_s, "u3")
        if t.dist == 1:
            t_labels, role_t = _normalize_d1(t_labels, role_t, "u2")
        config = (role_s, "v" + role_t[1:])
        for rule in sites.get((s.dist, t.dist), ()):
            if rule.shared == config:
                merged = dict(s_labels)
                merged.update(_rename_to_v(t_labels))
                return rule, merged
    return None


def _candidates(r: _Reducer) -> Iterator[tuple[ReductionRule, dict[str, int]]]:
    """Reduction candidates of one level in deterministic order.

    Any deviating leaf walk takes precedence, smallest leaf first; only
    when every leaf walk is clean are two-branch sites offered, smallest
    anchor first (:meth:`_Reducer.site_groups`), pairs ordered by
    (distance, leaf index).  The smallest deviating leaf is read off the
    top of its heap; the rest, which a level seldom asks for, are sorted on
    demand.  Candidates are produced lazily, so a level whose first
    candidate applies reads one walk."""
    deviations, _ = load_rules()
    walks, heap = r.walks, r._deviating
    while heap and type(walks.get(heap[0])) is not Deviation:
        heappop(heap)
    if heap:
        first = heap[0]
        dev = walks[first]
        rule = deviations.get(dev.variant)
        if rule is not None:
            yield rule, dev.witness_labels
        for leaf in sorted({x for x in heap if x != first and type(walks.get(x)) is Deviation}):
            dev = walks[leaf]
            rule = deviations.get(dev.variant)
            if rule is not None:
                yield rule, dev.witness_labels
        return

    for shapes in r.site_groups():
        group = sorted(shapes, key=lambda sh: (sh.dist, sh.leaf))
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                cand = _pair_candidate(group[i], group[j])
                if cand is not None:
                    yield cand


# --- the engine ---------------------------------------------------------------

Triangle = tuple[int, int, int]  # a triangle by its sorted vertex triple


class _Reducer:
    """A MOP shrinking in place, in the vertex ids of the input graph.

    It holds the outer cycle as ``nxt``/``prv`` links, the adjacency, the dual
    tree with triangles keyed by their sorted vertex triple, the classified
    walk of every leaf, and the count k of bad vertices.  Labels in each
    level's own graph are not kept: the trace derives them from the vertex
    ids.  ``n`` together with ``dual`` and ``corners`` (None: each node is
    its own vertex triple) are the tables that :func:`match_branch_shape`
    reads, so the walks are classified by the same code as on a
    :class:`~mopdom.dual_tree.DualTree`.  Once a reduction leaves at most
    ``BASE_MAX_N`` vertices, the loop ends, so the dual tree and the walks
    are no longer kept up to date.
    """

    corners = None

    def __init__(self, g: MopGraph, k: int) -> None:
        n = g.n
        self.n = n
        self.k = k
        self.adjacency = [set(nb) for nb in g.adjacency]
        self.nxt = [*range(1, n), 0]
        self.prv = [n - 1, *range(n - 1)]
        self._start = 0  # a surviving vertex
        triangles, edges = fan_triangles(g)
        dual: dict[Triangle, list[Triangle]] = {t: [] for t in triangles}
        for i, j, _ in edges:
            a, b = triangles[i], triangles[j]
            dual[a].append(b)
            dual[b].append(a)
        self.dual = dual
        self.walks: dict[Triangle, BranchShape | Deviation] = {}
        self._deviating: list[Triangle] = []  # lazy heap of deviating leaves
        self._at_anchor: dict[Triangle, set[Triangle]] = {}  # anchor -> clean leaves
        self._anchors: list[Triangle] = []  # lazy heap of anchors with two or more
        if n > BASE_MAX_N:
            for key, nbrs in dual.items():
                if len(nbrs) == 1:
                    self._walk(key)

    # -- the walks.  A walk reads the neighbours of its first 7 triangles at
    # most, and the 8th only for its vertices, which never change; ``apply``
    # relies on that to find the walks it must redo.

    def _walk(self, leaf: Triangle) -> None:
        res = self.walks[leaf] = match_branch_shape(self, self, leaf)
        if type(res) is Deviation:
            heappush(self._deviating, leaf)
        else:
            group = self._at_anchor.setdefault(res.anchor, set())
            group.add(leaf)
            if len(group) == 2:
                heappush(self._anchors, res.anchor)

    def _unwalk(self, node: Triangle) -> None:
        """Forget the walk of ``node``, which has one."""
        res = self.walks.pop(node)
        if type(res) is BranchShape:
            group = self._at_anchor[res.anchor]
            group.discard(node)
            if not group:
                del self._at_anchor[res.anchor]

    def site_groups(self) -> Iterator[list[BranchShape]]:
        """The clean walks of each anchor that collects at least two,
        ascending by anchor.  The smallest anchor is read off the top of its
        heap; the rest, which a level seldom asks for, are sorted on
        demand."""
        at, walks, heap = self._at_anchor, self.walks, self._anchors
        while heap and len(at.get(heap[0], ())) < 2:
            heappop(heap)
        if not heap:
            return
        first = heap[0]
        yield [walks[leaf] for leaf in at[first]]
        for anchor in sorted({a for a in heap if a != first and len(at.get(a, ())) >= 2}):
            yield [walks[leaf] for leaf in at[anchor]]

    # -- the level's graph

    def level_graph(self) -> tuple[MopGraph, list[int]]:
        """The current graph with its vertices relabelled 0..n-1 by rank,
        and the vertex id behind each label."""
        start = self._start
        ids = [start]
        v = self.nxt[start]
        while v != start:
            ids.append(v)
            v = self.nxt[v]
        ids.sort()
        label = {v: i for i, v in enumerate(ids)}
        n = len(ids)
        chords = []
        for a in ids:
            la = label[a]
            for b in self.adjacency[a]:
                lb = label[b]
                if la < lb and lb - la not in (1, n - 1):
                    chords.append((la, lb))
        return MopGraph(n=n, chords=tuple(sorted(chords))), ids

    # -- one reduction

    def plan(
        self, delete: Iterable[int], chords: Iterable[Chord]
    ) -> tuple[set[int], list[Chord]]:
        """Decide, without editing, whether deleting ``delete`` and adding
        ``chords`` leaves a MOP, exactly as :func:`reduce_graph` decides it.

        Returns the deleted set and the edges the reduced graph gains: the
        added chords that are new, and the pairs of survivors made
        consecutive by a deleted run that are not adjacent yet (reduce_graph
        adds those implicitly as cycle edges).  The reduced graph is a MOP
        exactly when it has 2n'-3 edges and no gained chord crosses an edge;
        only gained chords can cross, since survivors keep their cyclic
        order.  Raises ResultNotMaximalOuterplanar otherwise."""
        adj, nxt, prv = self.adjacency, self.nxt, self.prv
        dele = set(delete)
        n2 = self.n - len(dele)
        if n2 < 3:
            raise ResultNotMaximalOuterplanar(f"only {n2} vertices would survive")
        gained: set[Chord] = set()
        for v in dele:
            if prv[v] not in dele:
                a, b = prv[v], nxt[v]
                while b in dele:
                    b = nxt[b]
                if b not in adj[a]:
                    gained.add((a, b) if a < b else (b, a))
        added: list[Chord] = []
        for a, b in chords:
            if a in dele or b in dele:
                raise ResultNotMaximalOuterplanar(
                    f"added chord {(a, b)!r} touches a deleted or unknown vertex"
                )
            if a == b:
                raise ResultNotMaximalOuterplanar(f"added chord {(a, b)!r} is a self-loop")
            if b not in adj[a]:
                pair = (a, b) if a < b else (b, a)
                if pair not in gained:
                    added.append(pair)
                gained.add(pair)
        ends = inner = 0  # edge ends at deleted vertices; those on both ends
        for v in dele:
            nb = adj[v]
            ends += len(nb)
            inner += len(nb & dele)
        m2 = 2 * self.n - 3 - (ends - inner // 2) + len(gained)
        if m2 != 2 * n2 - 3:
            raise ResultNotMaximalOuterplanar(f"n={n2} needs {n2 - 3} chords, got {m2 - n2}")
        for a, b in added:
            if self._crossed(a, b, dele, gained):
                raise ResultNotMaximalOuterplanar(f"added chord {(a, b)!r} crosses an edge")
        return dele, sorted(gained)

    def _crossed(self, a: int, b: int, dele: set[int], gained: set[Chord]) -> bool:
        """True if an edge of the reduced graph crosses the chord (a, b):
        some edge leaves the shorter of the two survivor arcs between a and
        b for the other one."""
        nxt = self.nxt
        arcs: tuple[list[int], list[int]] = ([], [])
        ends = (b, a)
        heads = [a, b]
        while True:
            for side in (0, 1):
                v = nxt[heads[side]]
                while v in dele:
                    v = nxt[v]
                if v == ends[side]:
                    inside = set(arcs[side])
                    for x in inside:
                        extra = [q if p == x else p for p, q in gained if x in (p, q)]
                        for y in (*self.adjacency[x], *extra):
                            if y not in inside and y not in dele and y != a and y != b:
                                return True
                    return False
                arcs[side].append(v)
                heads[side] = v

    def apply(self, dele: set[int], gained: list[Chord]) -> None:
        """Carry out a plan: delete, link, re-count k and, unless the reduced
        graph is small enough for the base case, update the dual tree and
        redo the leaf walks that may read a re-linked triangle."""
        adj, nxt, prv, dual, walks = self.adjacency, self.nxt, self.prv, self.dual, self.walks
        keep_tree = self.n - len(dele) > BASE_MAX_N

        removed: set[Triangle] = set()
        if keep_tree:
            for v in dele:
                nb = adj[v]
                for x in nb:
                    for y in nb & adj[x]:
                        if x < y:
                            removed.add((v, x, y) if v < x else (x, v, y) if v < y else (x, y, v))

        # v is bad when it has degree 2 and the vertex two steps on does not:
        # for n >= 4 no two degree-2 vertices are adjacent, so the next one
        # clockwise is at least 3 steps away unless it is 2 steps away.  So
        # badness reads v's degree and that of the vertex two steps on.
        changed = set(dele)
        for v in dele:
            changed |= adj[v]
        for a, b in gained:
            changed.add(a)
            changed.add(b)
        recount = set()
        for x in changed:
            p = prv[x]
            recount.update((x, p, prv[p]))
        bad = 0
        for v in recount:
            if len(adj[v]) == 2 and len(adj[nxt[nxt[v]]]) != 2:
                bad += 1

        for v in dele:
            for x in adj[v]:
                if x not in dele:
                    adj[x].discard(v)
            p, q = prv[v], nxt[v]
            nxt[p], prv[q] = q, p
            # When the last deleted vertex is unlinked, the cycle holds only
            # it and the survivors, so its successor survives.
            self._start = q
        for a, b in gained:
            adj[a].add(b)
            adj[b].add(a)
        self.n -= len(dele)
        for v in recount:
            if v not in dele and len(adj[v]) == 2 and len(adj[nxt[nxt[v]]]) != 2:
                bad -= 1
        self.k -= bad
        if not keep_tree:
            return

        touched: set[Triangle] = set()
        for t in removed:
            for u in dual.pop(t):
                if u not in removed:
                    dual[u].remove(t)
                    touched.add(u)
        # Every new triangle holds a gained edge.  An old triangle across one
        # of its sides lost the removed triangle that held that side, so it
        # is already touched.
        new = set()
        for a, b in gained:
            for c in adj[a] & adj[b]:
                new.add((c, a, b) if c < a else (a, c, b) if c < b else (a, b, c))
        for t in new:
            dual[t] = []
        for t in new:
            a, b, c = t
            nbrs = dual[t]
            for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
                for w in adj[x] & adj[y]:
                    if w != z:
                        u = (w, x, y) if w < x else (x, w, y) if w < y else (x, y, w)
                        if u not in nbrs:
                            nbrs.append(u)
                            dual[u].append(t)
        touched |= new

        for t in removed:
            if t in walks:
                self._unwalk(t)
        for t in touched:
            if t in walks:
                self._unwalk(t)
        # A surviving leaf whose walk read a removed or re-linked triangle
        # reaches a re-linked one within 6 hops, through triangles of degree
        # 2 (see the walks).  A walk redone that read neither comes out the
        # same.
        stale = {t for t in touched if len(dual[t]) == 1}
        for t in touched:
            for cur in dual[t]:
                prev = t
                for _ in range(6):
                    nbrs = dual[cur]
                    if len(nbrs) != 2:
                        if len(nbrs) == 1:
                            stale.add(cur)
                        break
                    prev, cur = cur, nbrs[nbrs[0] == prev]
        for leaf in stale:
            if leaf in walks:
                self._unwalk(leaf)
            self._walk(leaf)

    def undo(self, dele: Iterable[int], gained: Iterable[Chord]) -> None:
        """Restore the adjacency from before ``apply(dele, gained)``, once
        every later reduction is undone.  A deleted vertex keeps its own
        neighbour set, so only the survivors' sets change back.  The lift
        reads nothing else, so nothing else is restored."""
        adj = self.adjacency
        for a, b in gained:
            adj[a].discard(b)
            adj[b].discard(a)
        for v in dele:
            for x in adj[v]:
                adj[x].add(v)

    def lift_failures(self, window: Iterable[int], s: set[int], n: int, k: int) -> list[str]:
        """The reasons certify would give for ``s`` on the current graph of
        n vertices and k bad ones, read at ``window`` only.

        Exact when ``s`` is a certified solution of the reduced graph plus
        the addback, and ``window`` holds the deleted vertices, the ends of
        every gained edge and the addback: any other vertex keeps its
        neighbours from the reduced graph and may gain more, so it stays
        double dominated, and a member keeps a degree above 2."""
        adj = self.adjacency
        reasons = []
        deg2 = []
        short = False
        for w in window:
            if w in s:
                if len(adj[w]) == 2:
                    deg2.append(w)
            elif len(adj[w] & s) < 2:
                short = True
        if short:
            reasons.append("not double dominating")
        if deg2:
            reasons.append(f"contains degree-2 vertices {sorted(deg2)}")
        if 2 * len(s) > n + k:
            reasons.append(f"size {len(s)} exceeds (n+k)/2 = {(n + k) / 2:g}")
        return reasons


@dataclass(slots=True)
class _Level:
    """One applied reduction: its undo record, and what its lift and its
    trace step need."""

    rule: ReductionRule
    labels: dict[str, int]  # vertex ids
    n: int
    k: int
    printed: bool | None
    deleted: set[int]
    gained: list[Chord]
    addback: frozenset[int]
    window: set[int]  # where the lift is checked: deleted, gained ends, addback


def _reduce(
    r: _Reducer, rule: ReductionRule, labels: dict[str, int], dele: set[int], gained: list[Chord]
) -> _Level:
    n, k = r.n, r.k
    printed = _printed_check(rule.k_printed, r, labels, k)
    r.apply(dele, gained)
    addback = frozenset([labels[x] for x in rule.addback])
    window = dele | addback
    for a, b in gained:
        window.add(a)
        window.add(b)
    return _Level(
        rule=rule,
        labels=labels,
        n=n,
        k=k,
        printed=None if printed is None else printed(r.k),
        deleted=dele,
        gained=gained,
        addback=addback,
        window=window,
    )


def _next_step(r: _Reducer, permissive: bool) -> _Level | tuple[str, set[int]]:
    """Apply the first candidate that fits, or end the reduce loop with a
    terminal (rule id, solution).  Raises NoRuleApplies if neither happens."""
    failures: list[str] = []
    for rule, labels in _candidates(r):
        if rule.kind == "direct":
            s = {labels[x] for x in rule.direct}
            g, ids = r.level_graph()
            check = certify(g, [i for i, v in enumerate(ids) if v in s])
            if check.certified:
                return rule.rule_id, s
            failures.append(f"{rule.rule_id}: {'; '.join(check.reasons)}")
            continue
        try:
            delete = _resolve(labels, rule.delete)
            chords = [tuple(_resolve(labels, pair)) for pair in rule.add_chords]
            dele, gained = r.plan(delete, chords)
        except (RuleMismatch, ResultNotMaximalOuterplanar) as exc:
            failures.append(f"{rule.rule_id}: {exc}")
            continue
        if r.n - len(dele) < 4:
            failures.append(f"{rule.rule_id}: reduction leaves only n={r.n - len(dele)}")
            continue
        return _reduce(r, rule, labels, dele, gained)

    if permissive:
        g, ids = r.level_graph()
        _, witness = _solve_exact(g, standard=False, forbid_deg2=True)
        if 2 * len(witness) <= r.n + r.k:
            return "exact_fallback", {ids[i] for i in witness}
        failures.append("exact_fallback: exact minimum exceeds (n+k)/2")
    detail = "; ".join(failures) if failures else "no reduction candidate matched"
    raise NoRuleApplies(f"n={r.n}: {detail}")


@lru_cache(maxsize=64)
def _shared_keys(keys: tuple[str, ...]) -> tuple[str, ...]:
    """One tuple object per distinct label-key order, shared by all traces."""
    return keys


def _pack(n: int, levels: list[_Level], sizes: list[int], end: str, k_end: int) -> ReductionTrace:
    rules: dict[int, int] = {}  # id(rule) -> index; rules hold dicts, so are unhashable
    table: list[ReductionRule | str] = []
    keys: dict[tuple[str, ...], int] = {}
    flat: list[int] = []

    def rule_index(rule: ReductionRule | str) -> int:
        if id(rule) not in rules:
            rules[id(rule)] = len(table)
            table.append(rule)
        return rules[id(rule)]

    for level, size in zip(levels, sizes):
        ki = keys.setdefault(tuple(level.labels), len(keys))
        flat += (rule_index(level.rule), ki, level.k, size, _PRINTED.index(level.printed))
        flat += level.labels.values()
    flat += (rule_index(end), keys.setdefault((), len(keys)), k_end, sizes[-1], 0)
    return ReductionTrace(
        n=n,
        rules=tuple(table),
        keys=tuple(map(_shared_keys, keys)),
        log=_id_array(n, flat),
    )


def _solve(g: MopGraph, k: int, permissive: bool) -> tuple[set[int], ReductionTrace]:
    if g.n <= BASE_MAX_N:
        s = base_case_solve(g)
        return set(s), _pack(g.n, [], [len(s)], "base_case", k)

    r = _Reducer(g, k)
    levels: list[_Level] = []
    while r.n > BASE_MAX_N:
        try:
            step = _next_step(r, permissive)
        except NoRuleApplies as exc:
            if not levels:
                raise
            raise CertificationFailed(
                f"n={g.n}: no candidate applies after {len(levels)} reductions: {exc}"
            ) from exc
        if not isinstance(step, _Level):
            end, s = step
            break
        levels.append(step)
    else:
        sub, ids = r.level_graph()
        end, s = "base_case", {ids[i] for i in base_case_solve(sub)}
    k_end = r.k

    sizes = [len(s)]
    for level in reversed(levels):
        r.undo(level.deleted, level.gained)
        rule, labels = level.rule, level.labels
        missing = [labels[x] for x in rule.required if labels[x] not in s]
        if missing:
            raise CertificationFailed(
                f"n={level.n}: {rule.rule_id}: required vertices {sorted(missing)} "
                f"(input ids) not in sub-solution"
            )
        s |= level.addback
        reasons = r.lift_failures(level.window, s, level.n, level.k)
        if reasons:
            raise CertificationFailed(
                f"n={level.n}: {rule.rule_id}: lift fails: {'; '.join(reasons)}"
            )
        sizes.append(len(s))
    sizes.reverse()
    return s, _pack(g.n, levels, sizes, end, k_end)


def solve_bound(g: MopGraph, *, permissive: bool = False) -> CertifiedResult:
    """Construct a double dominating set of size at most (n + k)/2, where k
    counts the bad vertices of g, and certify it.

    Every lift is re-checked where the reduction changed the graph, and the
    result is certified in full against g, so a returned result is always
    certified.  With ``permissive=True`` a graph the rule engine cannot
    reduce falls back to the exact solver, and is kept when the exact
    minimum fits under the bound; by default such graphs raise
    NoRuleApplies or CertificationFailed instead, keeping the engine
    honest."""
    rep = bad_vertices(g)  # raises TooSmall for n < 4
    s, trace = _solve(g, rep.k, permissive)
    result = _certify(g, s, rep, trace)
    if not result.certified:  # pragma: no cover - every lift is re-checked
        raise CertificationFailed("; ".join(result.reasons))
    return result
