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
from operator import attrgetter, index
from typing import Any, Iterable, Iterator, Mapping

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
    Vertices3,
    build_dual_tree,  # noqa: F401 - not called here; the benchmark traces this binding
    fan_dual,
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
    VertexOutOfRange,
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
_PRINTED = (None, False, True)  # printed_ok by the low two verdict bits
_TELESCOPE, _SIZE_EXACT = 4, 8  # the other verdict bits
_HEAD = 4  # fixed fields of a packed step, before its label values


@dataclass(frozen=True)
class ReductionTrace:
    """The steps of one solve, outermost reduction first, kept packed.

    ``log`` holds one record per step: the index of its rule in ``rules``,
    k before the step, the solution size after its lift and its soft-check
    verdicts, then its label values as vertex ids of the input, one for each
    of its rule's label roles in ``keys`` (parallel to ``rules``).  The
    verdicts are bits: the low two give printed-k as an index into
    ``(None, False, True)``, and ``_TELESCOPE`` and ``_SIZE_EXACT`` are set
    when those checks hold.  The last step is terminal: its ``rules`` entry
    is the rule id (``base_case``, ``exact_fallback`` or a direct rule), it
    has no labels, and both check bits are set.  ``n`` is the input's vertex
    count; each step's labels in its own graph, n_after, deleted and
    added_back follow from the rest, and ``to_obj`` spells each step out as
    a dict."""

    n: int
    rules: tuple[ReductionRule | str, ...]
    keys: tuple[tuple[str, ...], ...]
    log: array

    def _heads(self) -> Iterator[int]:
        log, keys, i = self.log, self.keys, 0
        while i < len(log):
            yield i
            i += _HEAD + len(keys[log[i]])

    def _fields(self) -> Iterator[tuple]:
        """The fields of every step, in ``_STEP_KEYS`` order, derived from the
        log.  A step's label is its vertex id less the number of smaller ids
        that earlier steps deleted, which is the vertex's rank among the
        survivors."""
        log, n = self.log, self.n
        heads = list(self._heads())
        gone: list[int] = []  # ids deleted by earlier steps, ascending
        for pos, i in enumerate(heads):
            rule, k, size, verdict = self.rules[log[i]], log[i + 1], log[i + 2], log[i + 3]
            checks = bool(verdict & _TELESCOPE), bool(verdict & _SIZE_EXACT), _PRINTED[verdict & 3]
            if isinstance(rule, str):
                yield (rule, n, k, n, k, {}, [], [], size, *checks)
                continue
            keys = self.keys[log[i]]
            ids = dict(zip(keys, log[i + _HEAD : i + _HEAD + len(keys)]))
            labels = {r: v - bisect_left(gone, v) for r, v in ids.items()}
            dele = {ids[r] for r in rule.delete}
            n2 = n - len(dele)
            yield (
                rule.rule_id, n, k, n2, log[heads[pos + 1] + 1], labels,
                sorted(labels[r] for r in rule.delete),
                sorted({labels[r] for r in rule.addback}), size, *checks,
            )
            for v in dele:
                insort(gone, v)
            n = n2

    @property
    def depth(self) -> int:
        """Number of reduction steps (the terminal base/direct step excluded)."""
        return sum(1 for _ in self._heads()) - 1

    def soft_failures(self) -> dict[str, int]:
        """How many steps fail each soft check of ``to_obj``, counted from
        the verdict bits.  The terminal step fails none."""
        log = self.log
        telescope = size_exact = printed_k = 0
        for i in self._heads():
            verdict = log[i + 3]
            telescope += not verdict & _TELESCOPE
            size_exact += not verdict & _SIZE_EXACT
            printed_k += verdict & 3 == 1
        return {"telescope": telescope, "size_exact": size_exact, "printed_k": printed_k}

    def rule_ids(self) -> tuple[str, ...]:
        rules, log = self.rules, self.log
        return tuple(
            r if isinstance(r, str) else r.rule_id
            for r in (rules[log[i]] for i in self._heads())
        )

    def to_obj(self) -> list[dict[str, Any]]:
        return [dict(zip(_STEP_KEYS, fields)) for fields in self._fields()]

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
    Vertex ids outside 0..n-1 are reported; an id that is not an integer
    (2.7, '2') or not within signed 64 bits raises VertexOutOfRange."""
    return _certify(g, solution, bad_vertices(g), trace)


def _certify(
    g: MopGraph, solution: Iterable[int], rep: BadVertexReport, trace: ReductionTrace | None
) -> CertifiedResult:
    """:func:`certify` with the bad-vertex report of g already counted."""
    try:
        sol = frozenset(map(index, solution))
    except TypeError as exc:
        raise VertexOutOfRange(f"vertex ids must be integers: {exc}") from exc
    members = sorted(sol)
    reasons: list[str] = []
    stray = bool(members) and (members[0] < 0 or members[-1] >= g.n)
    if stray:
        if members[0] < -(1 << 63) or members[-1] >= 1 << 63:
            raise VertexOutOfRange(f"a vertex id in {members[0]}..{members[-1]} exceeds 64 bits")
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


_MISSING_LABEL = "rule needs label {!r} but the walk did not provide it"


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
    try:
        delete = [labels[x] for x in rule.delete]
        chords = [(labels[a], labels[b]) for a, b in rule.add_chords]
    except KeyError as exc:
        raise RuleMismatch(_MISSING_LABEL.format(exc.args[0])) from exc
    return reduce_graph(g, delete, chords)


def _printed_check(
    spec: Mapping[str, Any] | None, r: _Reducer, labels: Mapping[str, int], k_before: int
) -> tuple[str | None, int]:
    """The k movement the rule declares: k after the reduction must equal x
    (``("eq", x)``) or be at most x (``("le", x)``); kind None if not stated."""
    kind = spec.get("kind") if spec else None
    if kind == "eq" or kind == "le":
        return kind, k_before + int(spec["delta"])
    if kind == "conditional":
        # k drops by one exactly when the outer-cycle neighbour of the pivot
        # away from the branch has degree 2 in the unreduced graph.
        pivot, other = labels.get(spec["pivot"]), labels.get(spec["other"])
        if pivot is not None and other is not None:
            cand = {r.prv[pivot], r.nxt[pivot]} - {other}
            if len(cand) == 1:
                return "eq", k_before - (len(r.adjacency[cand.pop()]) == 2)
    return None, 0


# --- candidate enumeration ---------------------------------------------------------


# Role names of the second branch; shared strings keep retained traces small.
_V_ROLE = {f"u{i}": f"v{i}" for i in range(1, 11)}
_PAIR_ORDER = attrgetter("dist", "leaf")
_PAIRS = ((0, 1), (0, 2), (1, 2))  # of an anchor's clean walks, at most 3 (its degree)
_Candidate = tuple[ReductionRule, Mapping[str, int]]


def _shared_roles(a: BranchShape, b: BranchShape) -> tuple[str, str] | None:
    """The roles in a and b of the one vertex their entry chords share, or None."""
    (a1, a2), (b1, b2) = a.entry_chord_roles, b.entry_chord_roles
    x, y, p, q = a.labels[a1], a.labels[a2], b.labels[b1], b.labels[b2]
    if x == p or x == q:
        return None if y == p or y == q else (a1, b1 if x == p else b2)
    return (a2, b1) if y == p else (a2, b2) if y == q else None


def _pair_candidate(a: BranchShape, b: BranchShape) -> _Candidate | None:
    """Match a pair of clean branches at one anchor to a site rule.

    The shorter branch comes first (``a.dist <= b.dist``) and plays s; at
    equal distances both orders are tried, since the manifest keeps only one
    of each symmetric configuration.  The labels are s's, then t's renamed to
    v, with a distance-1 branch's two interchangeable non-ear labels swapped
    so that the shared vertex is u3 or v2."""
    _, sites = load_rules()
    for s, t in ((a, b), (b, a)) if a.dist == b.dist else ((a, b),):
        roles = _shared_roles(s, t)
        if roles is None:
            continue
        role_s, role_t = roles
        swap_s = s.dist == 1 and role_s == "u2"
        swap_t = t.dist == 1 and role_t == "u3"
        config = ("u3" if swap_s else role_s, "v2" if swap_t else _V_ROLE[role_t])
        for rule in sites.get((s.dist, t.dist), ()):
            if rule.shared == config:
                merged = dict(s.labels)
                if swap_s:
                    merged["u2"], merged["u3"] = merged["u3"], merged["u2"]
                for key, val in t.labels.items():
                    merged[_V_ROLE[key]] = val
                if swap_t:
                    merged["v2"], merged["v3"] = merged["v3"], merged["v2"]
                return rule, merged
    return None


def _site_pair(group: list[BranchShape], start: int = 0) -> tuple[int, _Candidate] | None:
    """The first of ``_PAIRS[start:]`` that matches a site rule, as (index,
    candidate), on one anchor's clean walks sorted by (distance, leaf)."""
    for p in range(start, len(group) * (len(group) - 1) // 2):
        i, j = _PAIRS[p]
        cand = _pair_candidate(group[i], group[j])
        if cand is not None:
            return p, cand
    return None


def _first_candidate(r: _Reducer) -> _Candidate | None:
    """What :func:`_candidates` yields first, by plain calls: the smallest
    deviating leaf's candidate, else the first pair at the smallest anchor
    that matches a site rule; None if that leaf or anchor has none."""
    walks, heap = r.walks, r._deviating
    while heap and type(walks.get(heap[0])) is not Deviation:
        heappop(heap)
    if heap:
        dev = walks[heap[0]]
        rule = load_rules()[0].get(dev.variant)
        return None if rule is None else (rule, dev.witness_labels)
    shapes = r.first_site_group()
    hit = shapes and _site_pair(sorted(shapes, key=_PAIR_ORDER))
    return hit[1] if hit else None


def _candidates(r: _Reducer) -> Iterator[_Candidate]:
    """Reduction candidates of one level in deterministic order.

    Any deviating leaf walk takes precedence, smallest leaf first; only
    when every leaf walk is clean are two-branch sites offered, smallest
    anchor first (:meth:`_Reducer.site_groups`), pairs ordered by
    (distance, leaf index).  :func:`_first_candidate` gives the first; the
    rest, which a level seldom asks for, are sorted and matched on demand."""
    first = _first_candidate(r)
    if first is not None:
        yield first
    walks, heap = r.walks, r._deviating
    if heap:  # its top is the smallest deviating leaf
        deviations, _ = load_rules()
        for leaf in sorted({x for x in heap if x != heap[0] and type(walks.get(x)) is Deviation}):
            dev = walks[leaf]
            rule = deviations.get(dev.variant)
            if rule is not None:
                yield rule, dev.witness_labels
        return
    skip = first is not None  # the first pair that matches below is ``first``
    for shapes in r.site_groups():
        group = sorted(shapes, key=_PAIR_ORDER)
        p = -1
        while hit := _site_pair(group, p + 1):
            p, cand = hit
            if not skip:
                yield cand
            skip = False


# --- the engine ---------------------------------------------------------------


class _Reducer:
    """A MOP shrinking in place, in the vertex ids of the input graph.

    It holds the outer cycle as ``nxt``/``prv`` links, the adjacency and the
    dual tree keyed by sorted vertex triples, both read off the fans in one
    pass (:func:`~mopdom.dual_tree.fan_dual`) with no ``g.adjacency``, the
    classified walk of every leaf, and the count k of bad vertices.  Labels
    in each level's own graph are not kept: the trace derives them from the
    vertex ids.  ``n`` together with ``dual`` and ``corners`` (None: each
    node is its own vertex triple) are the tables that
    :func:`match_branch_shape` reads, so the walks are classified by the
    same code as on a :class:`~mopdom.dual_tree.DualTree`.  Once a reduction
    leaves at most ``BASE_MAX_N`` vertices, the loop ends, so the dual tree
    and the walks are no longer kept up to date."""

    corners = None

    def __init__(self, g: MopGraph, k: int) -> None:
        self.n = n = g.n
        self.k = k
        self.adjacency, self.dual = fan_dual(g)
        self.nxt = [*range(1, n), 0]
        self.prv = [n - 1, *range(n - 1)]
        self._start = 0  # a surviving vertex
        self.walks: dict[Vertices3, BranchShape | Deviation] = {}
        self._deviating: list[Vertices3] = []  # lazy heap of deviating leaves
        self._at_anchor: dict[Vertices3, set[Vertices3]] = {}  # anchor -> clean leaves
        self._anchors: list[Vertices3] = []  # lazy heap of anchors with two or more
        if n > BASE_MAX_N:
            for key, nbrs in self.dual.items():
                if len(nbrs) == 1:
                    self._walk(key)

    # -- the walks.  A walk reads the neighbours of its first 7 triangles at
    # most, and the 8th only for its vertices, which never change; ``apply``
    # relies on that to find the walks it must redo.

    def _walk(self, leaf: Vertices3) -> None:
        res = self.walks[leaf] = match_branch_shape(self, self, leaf)
        if type(res) is Deviation:
            heappush(self._deviating, leaf)
        else:
            group = self._at_anchor.setdefault(res.anchor, set())
            group.add(leaf)
            if len(group) == 2:
                heappush(self._anchors, res.anchor)

    def _unwalk(self, node: Vertices3) -> None:
        """Forget the walk of ``node``, which has one."""
        res = self.walks.pop(node)
        if type(res) is BranchShape:
            group = self._at_anchor[res.anchor]
            group.discard(node)
            if not group:
                del self._at_anchor[res.anchor]

    def first_site_group(self) -> list[BranchShape] | None:
        """The clean walks of the smallest anchor that collects at least
        two, read off the top of its heap; None if no anchor does."""
        at, heap = self._at_anchor, self._anchors
        while heap and len(at.get(heap[0], ())) < 2:
            heappop(heap)
        return [self.walks[leaf] for leaf in at[heap[0]]] if heap else None

    def site_groups(self) -> Iterator[list[BranchShape]]:
        """The clean walks of each anchor that collects at least two,
        ascending by anchor (read past the first only if it yields no step)."""
        at, walks = self._at_anchor, self.walks
        for anchor in sorted({a for a in self._anchors if len(at.get(a, ())) >= 2}):
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
        n = len(ids)
        label = dict(zip(ids, range(n)))
        chords = []
        for la, a in enumerate(ids):
            for b in self.adjacency[a]:
                if b > a and 1 < label[b] - la < n - 1:
                    chords.append((la, label[b]))
        chords.sort()
        return MopGraph(n=n, chords=tuple(chords)), ids

    # -- one reduction

    def plan(self, delete: Iterable[int], chords: Iterable[Chord]) -> tuple[set[int], list[Chord]]:
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
        ends = inner = 0  # edge ends at deleted vertices; those on both ends
        for v in dele:
            nb = adj[v]
            ends += len(nb)
            inner += len(nb & dele)
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

        removed: set[Vertices3] = set()
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

        touched: set[Vertices3] = set()
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
    printed: tuple[str | None, int]  # the declared k movement; see _printed_check
    deleted: set[int]
    gained: list[Chord]
    addback: frozenset[int]
    window: set[int]  # where the lift is checked: deleted, gained ends, addback


def _next_step(r: _Reducer, permissive: bool) -> _Level | tuple[str, set[int]]:
    """Apply the first candidate that fits, or end the reduce loop with a
    terminal (rule id, solution); raise NoRuleApplies if neither happens.
    Only if :func:`_first_candidate` gives none that fits is the rest of
    :func:`_candidates` tried."""
    failures: list[str] = []
    cand = _first_candidate(r)
    rest = None if cand is not None else _candidates(r)
    while True:
        if cand is None:
            if rest is None:  # the first candidate did not fit: go on past it
                rest = _candidates(r)
                next(rest)
            cand = next(rest, None)
            if cand is None:
                break
        rule, labels = cand
        cand = None
        if rule.kind == "direct":
            s = {labels[x] for x in rule.direct}
            g, ids = r.level_graph()
            check = certify(g, [i for i, v in enumerate(ids) if v in s])
            if check.certified:
                return rule.rule_id, s
            failures.append(f"{rule.rule_id}: {'; '.join(check.reasons)}")
            continue
        try:
            delete = [labels[x] for x in rule.delete]
            chords = [(labels[a], labels[b]) for a, b in rule.add_chords]
            addback = frozenset([labels[x] for x in rule.addback])
        except KeyError as exc:
            failures.append(f"{rule.rule_id}: {_MISSING_LABEL.format(exc.args[0])}")
            continue
        try:
            dele, gained = r.plan(delete, chords)
        except ResultNotMaximalOuterplanar as exc:
            failures.append(f"{rule.rule_id}: {exc}")
            continue
        n, k = r.n, r.k
        if n - len(dele) < 4:
            failures.append(f"{rule.rule_id}: reduction leaves only n={n - len(dele)}")
            continue
        printed = _printed_check(rule.k_printed, r, labels, k)
        r.apply(dele, gained)
        window = dele | addback
        for a, b in gained:
            window.add(a)
            window.add(b)
        return _Level(rule, labels, n, k, printed, dele, gained, addback, window)

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
    """Pack the steps with their soft-check verdicts (see ReductionTrace), and
    each rule's label roles once: RuleMismatch if a later level's differ."""
    index: dict[int, int] = {}  # by id(): rules hold dicts, so are unhashable
    rules: list[ReductionRule | str] = []
    keys: list[tuple[str, ...]] = []
    flat: list[int] = []
    k_after = [level.k for level in levels[1:]] + [k_end]
    for level, size, size2, k2 in zip(levels, sizes, sizes[1:], k_after):
        rule, labels, k = level.rule, level.labels, level.k
        roles = tuple(labels)
        ri = index.setdefault(id(rule), len(rules))
        if ri == len(rules):
            rules.append(rule)
            keys.append(_shared_keys(roles))
        elif keys[ri] != roles:
            raise RuleMismatch(f"{rule.rule_id}: label roles {roles} after {keys[ri]}")
        back = len(level.addback)
        kind, want = level.printed
        verdict = 0 if kind is None else 1 + (k2 == want if kind == "eq" else k2 <= want)
        if len(level.deleted) + k - k2 >= 2 * back:  # (n - n') + (k - k') >= 2 |addback|
            verdict |= _TELESCOPE
        if size == size2 + back:  # the lift grew by exactly the addback
            verdict |= _SIZE_EXACT
        flat += (ri, k, size, verdict)
        flat += labels.values()
    flat += (len(rules), k_end, sizes[-1], _TELESCOPE | _SIZE_EXACT)
    rules.append(end)
    keys.append(())
    return ReductionTrace(n=n, rules=tuple(rules), keys=tuple(keys), log=_id_array(n, flat))


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
