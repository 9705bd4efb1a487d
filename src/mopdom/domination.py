"""Double domination on MOPs: predicates, bad vertices, exact minima, bounds.

Two flavours of "every vertex is watched twice" are supported:

* ``literal`` — every vertex *outside* S has at least two neighbours in S.
  For vertices outside S the closed and open neighbourhood intersections with
  S coincide, so this is exactly 2-domination.
* ``standard`` — every vertex, member or not, satisfies |N[v] & S| >= 2.

The exact solver is a branch-and-bound over include/exclude decisions with
unit propagation (a vertex that can no longer collect two supporters is
forced into S; a tight constraint forces its undecided neighbours in) and a
counting lower bound.  Witnesses are the lexicographically smallest minimum
solutions, so independently written oracles can compare sets, not just sizes.

``bad_vertices`` reports the degree-2 vertices in clockwise order together
with the clockwise outer-cycle gap to the next degree-2 vertex; a vertex with
gap >= 3 is *bad*.  The gaps of all degree-2 vertices always sum to n.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import BadParameter, Infeasible, TooLarge, TooSmall
from .graph_core import MopGraph

DEFAULT_EXACT_LIMIT = 22


class DominationMode(str, enum.Enum):
    literal = "literal"
    standard = "standard"


def _as_mode(mode: DominationMode | str) -> DominationMode:
    if isinstance(mode, DominationMode):
        return mode
    return DominationMode(str(mode))


def exact_limit() -> int:
    """Current exact-solver vertex limit (env MOPDOM_EXACT_LIMIT, default 22).

    Read at call time so tests and long campaigns can adjust it.  A value
    that is not an integer raises BadParameter."""
    raw = os.environ.get("MOPDOM_EXACT_LIMIT", "")
    if not raw:
        return DEFAULT_EXACT_LIMIT
    try:
        return int(raw)
    except ValueError:
        raise BadParameter(f"MOPDOM_EXACT_LIMIT must be an integer, got {raw!r}") from None


# --- predicates ---------------------------------------------------------------


def coverage_counts(g: MopGraph, s: Iterable[int]) -> tuple[int, ...]:
    """|N[v] & S| for every v (closed neighbourhoods)."""
    sset = set(s)
    return tuple(
        (1 if v in sset else 0) + sum(1 for w in g.adjacency[v] if w in sset)
        for v in range(g.n)
    )


def is_double_dominating(
    g: MopGraph, s: Iterable[int], mode: DominationMode | str = DominationMode.literal
) -> bool:
    m = _as_mode(mode)
    sset = set(s)
    counts = coverage_counts(g, sset)
    if m is DominationMode.standard:
        return all(c >= 2 for c in counts)
    return all(c >= 2 for v, c in enumerate(counts) if v not in sset)


def is_two_dominating(g: MopGraph, s: Iterable[int]) -> bool:
    """Every vertex outside S has two neighbours in S (same predicate as the
    literal double-domination mode)."""
    return is_double_dominating(g, s, DominationMode.literal)


# --- bad vertices ---------------------------------------------------------------


@dataclass(frozen=True)
class BadVertexReport:
    deg2: tuple[int, ...]
    succ_dist: tuple[int, ...]
    bad: tuple[bool, ...]
    t: int
    k: int


def bad_vertices(g: MopGraph) -> BadVertexReport:
    """Degree-2 vertices with their clockwise gap to the next one.

    A degree-2 vertex is *bad* when that gap (number of outer-cycle edges
    walked clockwise, i.e. in increasing label order) is at least 3.
    Requires n >= 4."""
    if g.n < 4:
        raise TooSmall(f"bad vertices defined for n >= 4, got n={g.n}")
    deg2 = g.degree2_vertices()
    t = len(deg2)
    gaps = tuple((deg2[(i + 1) % t] - deg2[i]) % g.n for i in range(t))
    bad = tuple(d >= 3 for d in gaps)
    return BadVertexReport(deg2=deg2, succ_dist=gaps, bad=bad, t=t, k=sum(bad))


# --- exact solver ---------------------------------------------------------------

_UNDEC, _IN, _OUT = 0, 1, 2


class _State:
    __slots__ = ("status", "cnt", "und", "size")

    def __init__(self, status: list[int], cnt: list[int], und: list[int], size: int):
        self.status = status
        self.cnt = cnt
        self.und = und
        self.size = size

    def copy(self) -> "_State":
        return _State(self.status[:], self.cnt[:], self.und[:], self.size)


def _assign(state: _State, adj: Sequence[Sequence[int]], v: int, val: int) -> list[int]:
    """Set an undecided vertex and return vertices needing a recheck."""
    state.status[v] = val
    if val == _IN:
        state.size += 1
    recheck = [v]
    for w in adj[v]:
        state.und[w] -= 1
        if val == _IN:
            state.cnt[w] += 1
        recheck.append(w)
    return recheck


def _propagate(
    state: _State, adj: Sequence[Sequence[int]], standard: bool, work: list[int]
) -> bool:
    """Unit propagation; False on a proven dead end.

    Only IN assignments are ever forced, which keeps lexicographic reasoning
    simple: a forced vertex belongs to every completion of the current
    prefix."""
    status, cnt, und = state.status, state.cnt, state.und
    while work:
        v = work.pop()
        st = status[v]
        if st == _OUT:
            if cnt[v] >= 2:
                continue
            p = cnt[v] + und[v]
            if p < 2:
                return False
            if p == 2:
                for w in list(adj[v]):
                    if status[w] == _UNDEC:
                        work.extend(_assign(state, adj, w, _IN))
        elif st == _IN:
            if standard and cnt[v] < 1:
                p = cnt[v] + und[v]
                if p < 1:
                    return False
                if p == 1:
                    for w in list(adj[v]):
                        if status[w] == _UNDEC:
                            work.extend(_assign(state, adj, w, _IN))
        else:
            p = cnt[v] + und[v]
            if p < 2:
                if standard and p < 1:
                    return False
                work.extend(_assign(state, adj, v, _IN))
    return True


def _unmet_total(state: _State, standard: bool, n: int) -> int:
    total = 0
    status, cnt = state.status, state.cnt
    for v in range(n):
        st = status[v]
        if st == _OUT:
            if cnt[v] < 2:
                total += 2 - cnt[v]
        elif st == _IN and standard and cnt[v] < 1:
            total += 1
    return total


def _initial_state(
    n: int, adj: Sequence[Sequence[int]], standard: bool, forced_out: Iterable[int]
) -> _State | None:
    state = _State([_UNDEC] * n, [0] * n, [len(adj[v]) for v in range(n)], 0)
    work: list[int] = []
    for v in forced_out:
        state.status[v] = _OUT
        work.append(v)
        for w in adj[v]:
            state.und[w] -= 1
            work.append(w)
    work.extend(range(n))
    if not _propagate(state, adj, standard, work):
        return None
    return state


def _solve_exact(
    g: MopGraph, *, standard: bool, forbid_deg2: bool
) -> tuple[int, tuple[int, ...]]:
    n = g.n
    adj = tuple(tuple(sorted(g.adjacency[v])) for v in range(n))
    maxd = max(len(a) for a in adj)
    global_lb = (n + 4) // 3  # ceil((n + 2) / 3), valid for MOPs in both modes

    forced_out = g.degree2_vertices() if forbid_deg2 else ()
    seed = [v for v in range(n) if v not in set(forced_out)]
    if not is_double_dominating(g, seed, DominationMode.standard if standard else DominationMode.literal):
        seed = list(range(n))
        assert not forbid_deg2 and is_double_dominating(
            g, seed, DominationMode.standard if standard else DominationMode.literal
        ), "V itself must dominate when nothing is forbidden"

    best_size = len(seed)

    root = _initial_state(n, adj, standard, forced_out)
    assert root is not None, "a feasible instance cannot fail root propagation"

    def lower(state: _State) -> int:
        unmet = _unmet_total(state, standard, n)
        if unmet == 0:
            return 0
        return -(-unmet // (maxd + 1))

    def pick(state: _State) -> int | None:
        status, cnt = state.status, state.cnt
        best_v, best_h = None, -1
        for v in range(n):
            if status[v] != _UNDEC:
                continue
            h = 0
            for w in adj[v]:
                st = status[w]
                if st == _OUT and cnt[w] < 2:
                    h += 2 - cnt[w]
                elif st == _UNDEC and cnt[w] < 2:
                    h += 1
            if standard and cnt[v] < 1:
                h += 1
            if h > best_h:
                best_v, best_h = v, h
        return best_v

    # phase 1: optimal size
    def dfs(state: _State) -> None:
        nonlocal best_size
        reachable = max(state.size + lower(state), global_lb)
        if reachable >= best_size:
            return
        v = pick(state)
        if v is None:
            assert _unmet_total(state, standard, n) == 0
            if state.size < best_size:
                best_size = state.size
            return
        inc = state.copy()
        if _propagate(inc, adj, standard, _assign(inc, adj, v, _IN)):
            dfs(inc)
        exc = state.copy()
        if _propagate(exc, adj, standard, _assign(exc, adj, v, _OUT)):
            dfs(exc)

    dfs(root.copy())

    # phase 2: lexicographically smallest witness of the optimal size
    cap = best_size

    def dfs_lex(state: _State) -> tuple[int, ...] | None:
        if state.size + lower(state) > cap:
            return None
        v = next((u for u in range(n) if state.status[u] == _UNDEC), None)
        if v is None:
            assert _unmet_total(state, standard, n) == 0
            return tuple(u for u in range(n) if state.status[u] == _IN)
        if state.size + 1 <= cap:
            inc = state.copy()
            if _propagate(inc, adj, standard, _assign(inc, adj, v, _IN)):
                found = dfs_lex(inc)
                if found is not None:
                    return found
        exc = state.copy()
        if _propagate(exc, adj, standard, _assign(exc, adj, v, _OUT)):
            return dfs_lex(exc)
        return None

    witness = dfs_lex(root.copy())
    assert witness is not None and len(witness) == best_size
    return best_size, witness


def exact_min_double_dom(
    g: MopGraph,
    mode: DominationMode | str = DominationMode.literal,
    forbid_deg2: bool = False,
) -> tuple[int, tuple[int, ...]]:
    """Minimum double dominating set (size, lex-min witness).

    Raises TooLarge above the MOPDOM_EXACT_LIMIT threshold and Infeasible
    when forbid_deg2 excludes every vertex of the triangle (n=3), the only
    infeasible configuration."""
    m = _as_mode(mode)
    limit = exact_limit()
    if g.n > limit:
        raise TooLarge(f"n={g.n} exceeds exact limit {limit}")
    if forbid_deg2 and g.n == 3:
        raise Infeasible("n=3 has only degree-2 vertices; forbidding them leaves nothing")
    return _solve_exact(g, standard=(m is DominationMode.standard), forbid_deg2=forbid_deg2)


def exact_min_two_dom(g: MopGraph) -> tuple[int, tuple[int, ...]]:
    """Minimum 2-dominating set; coincides with literal double domination."""
    limit = exact_limit()
    if g.n > limit:
        raise TooLarge(f"n={g.n} exceeds exact limit {limit}")
    return _solve_exact(g, standard=False, forbid_deg2=False)


# --- bound reports ---------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    n: int
    t: int
    k: int
    bound_zhuang_23: float
    bound_zhuang_nt: float
    bound_main: float
    lower_bound: int
    exact_literal: int | None
    exact_standard: int | None
    exact_2dom: int | None
    flags: dict[str, bool] | None


def bound_report(g: MopGraph, with_exact: bool = True) -> BoundReport:
    """All tracked bounds for g, optionally with exact values and per-bound
    flags (exact_literal compared against each bound)."""
    rep = bad_vertices(g)  # raises TooSmall for n=3
    n = g.n
    b23 = 2.0 * n / 3.0
    bnt = (n + rep.t) / 2.0
    bmain = (n + rep.k) / 2.0
    lower = (n + 4) // 3
    if not with_exact:
        return BoundReport(
            n=n, t=rep.t, k=rep.k,
            bound_zhuang_23=b23, bound_zhuang_nt=bnt, bound_main=bmain,
            lower_bound=lower,
            exact_literal=None, exact_standard=None, exact_2dom=None, flags=None,
        )
    lit, _ = exact_min_double_dom(g, DominationMode.literal)
    std, _ = exact_min_double_dom(g, DominationMode.standard)
    two, _ = exact_min_two_dom(g)
    flags = {
        "ok_zhuang_23": lit <= b23,
        "ok_zhuang_nt": lit <= bnt,
        "ok_main": lit <= bmain,
        "ok_lower": lit >= lower,
    }
    return BoundReport(
        n=n, t=rep.t, k=rep.k,
        bound_zhuang_23=b23, bound_zhuang_nt=bnt, bound_main=bmain,
        lower_bound=lower,
        exact_literal=lit, exact_standard=std, exact_2dom=two, flags=flags,
    )


CSV_COLUMNS = (
    "n", "t", "k",
    "bound_zhuang_23", "bound_zhuang_nt", "bound_main", "lower_bound",
    "exact_literal", "exact_standard", "exact_2dom",
    "ok_zhuang_23", "ok_zhuang_nt", "ok_main", "ok_lower",
)


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)


def to_csv_row(r: BoundReport) -> str:
    def num(x: float) -> str:
        return f"{x:g}"

    def opt(x: int | None) -> str:
        return "" if x is None else str(x)

    def flag(name: str) -> str:
        if r.flags is None:
            return ""
        return "1" if r.flags[name] else "0"

    return ",".join(
        [
            str(r.n), str(r.t), str(r.k),
            num(r.bound_zhuang_23), num(r.bound_zhuang_nt), num(r.bound_main),
            str(r.lower_bound),
            opt(r.exact_literal), opt(r.exact_standard), opt(r.exact_2dom),
            flag("ok_zhuang_23"), flag("ok_zhuang_nt"), flag("ok_main"), flag("ok_lower"),
        ]
    )
