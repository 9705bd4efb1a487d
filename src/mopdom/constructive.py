"""Constructive engine for the (n+k)/2 double-domination upper bound.

Graphs with ``4 <= n <= 8`` are solved exactly, with degree-2 vertices
forbidden so the base solutions already obey the convention the reductions
rely on.  Larger graphs are shrunk by rules from ``data/rules.json``:
single-branch rules keyed to the first deviation on a leaf walk, two-branch
rules keyed to a degree-3 anchor collecting two clean walks.  A rule deletes
a handful of vertices (optionally adding a chord to keep the result a MOP),
recurses, lifts the sub-solution back and appends a fixed addback set.

Soundness is enforced locally rather than trusted globally: after every lift
the candidate solution must literally double-dominate, avoid degree-2
vertices and fit under (n + k)/2, or the candidate is discarded and the next
one tried.  The per-rule accounting (how n and k move together, that the
lift grows by exactly the addback, and the k movement each rule declares) is
recorded in the trace as soft checks and surfaced as counters.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Any, Iterable, Iterator, Mapping

from .domination import (
    DominationMode,
    _solve_exact,
    bad_vertices,
    exact_limit,
    is_double_dominating,
)
from .dual_tree import (
    BranchShape,
    Deviation,
    build_dual_tree,
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
from .graph_core import MopGraph, VertexSet, reduce_graph

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
    family: str = ""


def _parse_rule(obj: Mapping[str, Any], kind: str) -> ReductionRule:
    if "direct" in obj:
        return ReductionRule(
            rule_id=str(obj["id"]),
            kind="direct",
            direct=tuple(obj["direct"]),
            family=str(obj.get("family", "")),
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
        family=str(obj.get("family", "")),
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


@dataclass(frozen=True, slots=True)
class TraceStep:
    rule_id: str
    n_before: int
    k_before: int
    n_after: int
    k_after: int
    labels: Mapping[str, int]
    deleted: tuple[int, ...]
    added_back: tuple[int, ...]
    size_after_lift: int
    telescope_ok: bool
    size_exact: bool
    printed_ok: bool | None

    def to_obj(self) -> dict[str, Any]:
        return {
            "rule": self.rule_id,
            "n_before": self.n_before,
            "k_before": self.k_before,
            "n_after": self.n_after,
            "k_after": self.k_after,
            "labels": dict(self.labels),
            "deleted": list(self.deleted),
            "added_back": list(self.added_back),
            "size_after_lift": self.size_after_lift,
            "telescope_ok": self.telescope_ok,
            "size_exact": self.size_exact,
            "printed_ok": self.printed_ok,
        }


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[TraceStep, ...]

    @property
    def depth(self) -> int:
        """Number of reduction steps (the terminal base/direct step excluded)."""
        return max(len(self.steps) - 1, 0)

    def soft_failures(self) -> dict[str, int]:
        return {
            "telescope": sum(1 for s in self.steps if not s.telescope_ok),
            "size_exact": sum(1 for s in self.steps if not s.size_exact),
            "printed_k": sum(1 for s in self.steps if s.printed_ok is False),
        }

    def rule_ids(self) -> tuple[str, ...]:
        return tuple(s.rule_id for s in self.steps)

    def to_obj(self) -> list[dict[str, Any]]:
        return [s.to_obj() for s in self.steps]

    def to_json(self) -> str:
        return json.dumps(self.to_obj())


@dataclass(frozen=True)
class CertifiedResult:
    graph: MopGraph
    solution: VertexSet
    k: int
    bound: float
    certified: bool
    reasons: tuple[str, ...]
    trace: ReductionTrace | None

    def to_obj(self) -> dict[str, Any]:
        obj: dict[str, Any] = {
            "n": self.graph.n,
            "k": self.k,
            "bound": self.bound,
            "size": len(self.solution),
            "solution": sorted(self.solution),
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
    literal double domination, no degree-2 members, size within (n + k)/2."""
    rep = bad_vertices(g)
    sol = frozenset(int(v) for v in solution)
    reasons: list[str] = []
    stray = sorted(v for v in sol if not 0 <= v < g.n)
    if stray:
        reasons.append(f"vertices {stray} outside 0..{g.n - 1}")
    elif not is_double_dominating(g, sol, DominationMode.literal):
        reasons.append("not double dominating")
    deg2_hits = sorted(sol & set(g.degree2_vertices()))
    if deg2_hits:
        reasons.append(f"contains degree-2 vertices {deg2_hits}")
    if 2 * len(sol) > g.n + rep.k:
        reasons.append(f"size {len(sol)} exceeds (n+k)/2 = {(g.n + rep.k) / 2:g}")
    return CertifiedResult(
        graph=g,
        solution=sol,
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
    return frozenset(witness)


def base_case_solve(g: MopGraph) -> VertexSet:
    """Exact minimum double dominating set avoiding degree-2 vertices, for
    the 4 <= n <= 8 floor of the recursion (lexicographically smallest, so
    results are reproducible)."""
    if g.n < 4:
        raise TooSmall(f"base case needs n >= 4, got n={g.n}")
    if g.n > BASE_MAX_N:
        raise TooLarge(f"base case caps at n={BASE_MAX_N}, got n={g.n}")
    s = _base_case(g.n, g.chords)
    rep = bad_vertices(g)
    if 2 * len(s) > g.n + rep.k:
        raise BoundViolated(
            f"n={g.n}: exact minimum {len(s)} exceeds (n+k)/2 = {(g.n + rep.k) / 2:g}"
        )
    return s


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
    ResultNotMaximalOuterplanar when the reduction breaks the structure."""
    if rule.kind == "direct":
        raise RuleMismatch("direct rules emit a solution, not a reduction")
    delete = _resolve(labels, rule.delete)
    chords = [tuple(_resolve(labels, pair)) for pair in rule.add_chords]
    return reduce_graph(g, delete, chords)


def _printed_ok(
    spec: Mapping[str, Any] | None,
    g: MopGraph,
    labels: Mapping[str, int],
    k_before: int,
    k_after: int,
) -> bool | None:
    """Evaluate the k movement the rule declares; None if not stated."""
    if spec is None:
        return None
    kind = spec.get("kind")
    if kind == "eq":
        return k_after == k_before + int(spec["delta"])
    if kind == "le":
        return k_after <= k_before + int(spec["delta"])
    if kind == "conditional":
        # k drops by one exactly when the outer-cycle neighbour of the pivot
        # away from the branch has degree 2 in the unreduced graph.
        pivot = labels.get(spec["pivot"])
        other = labels.get(spec["other"])
        if pivot is None or other is None:
            return None
        cand = {(pivot - 1) % g.n, (pivot + 1) % g.n} - {other}
        if len(cand) != 1:
            return None
        successor = cand.pop()
        expect = k_before - 1 if len(g.adjacency[successor]) == 2 else k_before
        return k_after == expect
    return None


# --- candidate enumeration ---------------------------------------------------------


def _rename_to_v(labels: Mapping[str, int]) -> dict[str, int]:
    return {"v" + key[1:]: val for key, val in labels.items()}


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

    The shorter branch plays s; at equal distances both orders are tried,
    since the manifest keeps only one of each symmetric configuration."""
    _, sites = load_rules()
    if a.dist <= b.dist:
        orders = [(a, b), (b, a)] if a.dist == b.dist else [(a, b)]
    else:
        orders = [(b, a)]
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


def _candidates(
    walks: Iterable[BranchShape | Deviation],
) -> Iterator[tuple[ReductionRule, dict[str, int]]]:
    """Reduction candidates in deterministic order, from the classified leaf
    walks of one level.

    Any deviation takes precedence (leaf index order); only when every leaf
    walk is clean are two-branch sites offered, smallest anchor first, pairs
    ordered by (distance, leaf index)."""
    deviations, _ = load_rules()
    shapes: list[BranchShape] = []
    devs: list[Deviation] = []
    for res in walks:
        if isinstance(res, Deviation):
            devs.append(res)
        else:
            shapes.append(res)
    if devs:
        for dev in sorted(devs, key=lambda d: d.leaf):
            rule = deviations.get(dev.variant)
            if rule is not None:
                yield rule, dict(dev.witness_labels)
        return

    by_anchor: dict[int, list[BranchShape]] = {}
    for sh in shapes:
        by_anchor.setdefault(sh.anchor, []).append(sh)
    for anchor in sorted(by_anchor):
        group = sorted(by_anchor[anchor], key=lambda sh: (sh.dist, sh.leaf))
        if len(group) < 2:
            continue
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                cand = _pair_candidate(group[i], group[j])
                if cand is not None:
                    yield cand


# --- the engine ---------------------------------------------------------------


def _terminal_step(rule_id: str, n: int, k: int, size: int) -> TraceStep:
    return TraceStep(
        rule_id=rule_id,
        n_before=n,
        k_before=k,
        n_after=n,
        k_after=k,
        labels={},
        deleted=(),
        added_back=(),
        size_after_lift=size,
        telescope_ok=True,
        size_exact=True,
        printed_ok=None,
    )


def _solve(g: MopGraph, permissive: bool) -> tuple[VertexSet, list[TraceStep]]:
    rep = bad_vertices(g)
    n, k = g.n, rep.k
    if n <= BASE_MAX_N:
        s = base_case_solve(g)
        return s, [_terminal_step("base_case", n, k, len(s))]

    # Only the classified walks outlive this point: the dual tree is dropped
    # before the recursion, so no level keeps its own alive.
    t = build_dual_tree(g)
    walks = [match_branch_shape(g, t, leaf) for leaf in t.leaves()]
    del t
    failures: list[str] = []
    applied_any = False
    for rule, labels in _candidates(walks):
        if rule.kind == "direct":
            s = frozenset(labels[r] for r in rule.direct)
            check = certify(g, s)
            if not check.certified:
                failures.append(f"{rule.rule_id}: {'; '.join(check.reasons)}")
                continue
            return s, [_terminal_step(rule.rule_id, n, k, len(s))]
        try:
            g2, remap = apply_rule(g, rule, labels)
        except (RuleMismatch, ResultNotMaximalOuterplanar, VertexOutOfRange) as exc:
            failures.append(f"{rule.rule_id}: {exc}")
            continue
        if g2.n < 4:
            failures.append(f"{rule.rule_id}: reduction leaves only n={g2.n}")
            continue
        applied_any = True
        try:
            sub, sub_steps = _solve(g2, permissive)
        except (NoRuleApplies, CertificationFailed) as exc:
            failures.append(f"{rule.rule_id}: subproblem failed: {exc}")
            continue
        missing = [
            labels[r] for r in rule.required if remap[labels[r]] not in sub
        ]
        if missing:
            failures.append(
                f"{rule.rule_id}: required vertices {sorted(missing)} not in sub-solution"
            )
            continue
        inverse = {new: old for old, new in remap.items()}
        addback = frozenset(labels[r] for r in rule.addback)
        s = frozenset(inverse[w] for w in sub) | addback
        check = certify(g, s)
        if not check.certified:
            failures.append(f"{rule.rule_id}: lift fails: {'; '.join(check.reasons)}")
            continue
        rep2 = bad_vertices(g2)
        step = TraceStep(
            rule_id=rule.rule_id,
            n_before=n,
            k_before=k,
            n_after=g2.n,
            k_after=rep2.k,
            labels=dict(labels),
            deleted=tuple(sorted(labels[r] for r in rule.delete)),
            added_back=tuple(sorted(addback)),
            size_after_lift=len(s),
            telescope_ok=(n - g2.n) + (k - rep2.k) >= 2 * len(addback),
            size_exact=len(s) == len(sub) + len(addback),
            printed_ok=_printed_ok(rule.k_printed, g, labels, k, rep2.k),
        )
        return s, [step] + sub_steps

    if permissive and n <= exact_limit():
        _, witness = _solve_exact(g, standard=False, forbid_deg2=True)
        s = frozenset(witness)
        if 2 * len(s) <= n + k:
            return s, [_terminal_step("exact_fallback", n, k, len(s))]
        failures.append("exact_fallback: exact minimum exceeds (n+k)/2")

    detail = "; ".join(failures) if failures else "no reduction candidate matched"
    if applied_any:
        raise CertificationFailed(f"n={n}: all candidates failed: {detail}")
    raise NoRuleApplies(f"n={n}: {detail}")


def solve_bound(g: MopGraph, *, permissive: bool = False) -> CertifiedResult:
    """Construct a double dominating set of size at most (n + k)/2, where k
    counts the bad vertices of g, and certify it.

    Every recursion level re-checks its own lift, so a returned result is
    always certified.  With ``permissive=True`` a graph the rule engine
    cannot reduce falls back to the exact solver when it fits under the
    exact-size limit; by default such graphs raise NoRuleApplies or
    CertificationFailed instead, keeping the engine honest."""
    bad_vertices(g)  # raises TooSmall for n < 4
    floor = g.n * 3 + 200
    if sys.getrecursionlimit() < floor:
        sys.setrecursionlimit(floor)
    s, steps = _solve(g, permissive)
    result = certify(g, s, trace=ReductionTrace(steps=tuple(steps)))
    if not result.certified:  # pragma: no cover - every path above re-checks
        raise CertificationFailed("; ".join(result.reasons))
    return result
