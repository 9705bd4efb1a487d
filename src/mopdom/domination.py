"""Double domination on MOPs: predicates, bad vertices, exact minima, bounds.

Two flavours of "every vertex is watched twice" are supported:

* ``literal`` — every vertex *outside* S has at least two neighbours in S.
  For vertices outside S the closed and open neighbourhood intersections with
  S coincide, so this is exactly 2-domination.
* ``standard`` — every vertex, member or not, satisfies |N[v] & S| >= 2.

The exact solver is a dynamic program that splits the polygon at the apex of
each base edge: one pass over the n - 2 triangles with tables of fixed size,
without recursion, for both modes and with degree-2 vertices forbidden or
not.  Witnesses are the lexicographically smallest minimum solutions, so
independently written oracles can compare sets, not just sizes.  The size
limit MOPDOM_EXACT_LIMIT (default 22) stays in force for now.

``bad_vertices`` reports the degree-2 vertices in clockwise order together
with the clockwise outer-cycle gap to the next degree-2 vertex; a vertex with
gap >= 3 is *bad*.  The gaps of all degree-2 vertices always sum to n.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from typing import Any, Iterable

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
    """Whether S double dominates g in the given mode: each vertex v, or in
    literal mode each vertex outside S, has |N[v] & S| >= 2 (see
    :func:`coverage_counts`)."""
    m = _as_mode(mode)
    sset = set(s)
    adj = g.adjacency
    if m is DominationMode.standard:
        return all(len(adj[v] & sset) >= 2 - (v in sset) for v in range(g.n))
    return all(v in sset or len(adj[v] & sset) >= 2 for v in range(g.n))


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
#
# A dynamic program over the apex split of the polygon.  A base edge (lo, hi)
# with hi - lo >= 2 has one apex c strictly between its ends and adjacent to
# both, which splits it into the sides (lo, c) and (c, hi); an outer-cycle
# edge (v, v + 1) is a leaf.  No vertex of the interior lo+1..hi-1 has a
# neighbour outside [lo, hi], so each side keeps one table: from the states
# of its two ends to the best choice of its interior, every interior vertex
# already satisfied.  The apex's count becomes final where its sides meet.
#
# An end outside S has state 0, 1 or 2: its supporters inside the side,
# capped at 2.  An end in S has state _IN.  Standard mode also asks a member
# for one supporter, and state _IN + 1 is a member that has it.  Once every
# supporter is counted, a vertex is satisfied in state 2 or the top state.
#
# A choice is scored by one integer, (size << n) - bits, where bit n-1-v
# stands for vertex v.  The smallest score is a minimum set and, among those,
# the lexicographically smallest as a sorted tuple.  Sides have disjoint
# label ranges as interiors, so their scores add.

_IN = 3


class _Rules:
    """The state machine of one mode.

    ``inc[e]`` is state e with one more supporter, and ``done[e]`` says
    whether a vertex whose supporters are all counted is satisfied.
    ``join[lo_state * states + left_apex][right_apex * states + hi_state]``
    is ``(lo_state' * states + hi_state', apex in S)`` for the edge the two
    sides close, or None when their apex states disagree on membership or
    leave the apex short of supporters.  ``leaf[lo_allowed][hi_allowed]`` is
    the table of an outer-cycle edge."""

    __slots__ = ("states", "inc", "done", "join", "leaf")

    def __init__(self, standard: bool) -> None:
        top = _IN + standard
        states = top + 1
        inc = (1, 2, 2) + tuple(min(e + 1, top) for e in range(_IN, states))
        done = tuple(e == 2 or e == top for e in range(states))
        join = []
        for a in range(states):
            for p in range(states):
                row: list[tuple[int, bool] | None] = [None] * (states * states)
                xc = p >= _IN
                for q in range(states):
                    if (q >= _IN) != xc:
                        continue
                    for b in range(states):
                        e = min(p + q - _IN, top) if xc else min(p + q, 2)
                        e = inc[e] if a >= _IN else e
                        e = inc[e] if b >= _IN else e
                        if done[e]:
                            na, nb = (inc[a], inc[b]) if xc else (a, b)
                            row[q * states + b] = (na * states + nb, xc)
                join.append(row)
        choice = ((0,), (0, _IN))
        self.states = states
        self.inc = inc
        self.done = done
        self.join = join
        self.leaf = [
            [{a * states + b: 0 for a in choice[lo] for b in choice[hi]} for hi in (0, 1)]
            for lo in (0, 1)
        ]


_RULES = (_Rules(standard=False), _Rules(standard=True))


def _solve_exact(
    g: MopGraph, *, standard: bool, forbid_deg2: bool
) -> tuple[int, tuple[int, ...]]:
    """(size, lex-min witness) by the dynamic program above, with no size
    limit.  Reads the fans of ``g`` and, when they are forbidden, the
    degree-2 vertices; it fills no adjacency cache on ``g``."""
    n = g.n
    rules = _RULES[standard]
    states, inc, done, join = rules.states, rules.inc, rules.done, rules.join
    up = g.higher_neighbours()
    allowed = [True] * n
    if forbid_deg2:
        for v in g.degree2_vertices():
            allowed[v] = False

    # Edge (lo, hi) is (lo, j) with hi = up[lo][j]; its apex is up[lo][j - 1],
    # and the apex's own highest neighbour is hi.
    order = []
    stack = [(0, len(up[0]) - 1)]
    while stack:
        lo, j = stack.pop()
        order.append((lo, j))
        if j:
            c = up[lo][j - 1]
            stack.append((lo, j - 1))
            stack.append((c, len(up[c]) - 1))

    one = 1 << n
    tables: list[dict[int, int]] = []
    for lo, j in reversed(order):  # children before parents, left side first
        if not j:
            tables.append(rules.leaf[allowed[lo]][allowed[lo + 1]])
            continue
        right = tables.pop()
        left = tables.pop()
        cost = one - (1 << (n - 1 - up[lo][j - 1]))
        out: dict[int, int] = {}
        for lk, ls in left.items():
            row = join[lk]
            for rk, rs in right.items():
                t = row[rk]
                if t is None:
                    continue
                key, xc = t
                s = ls + rs + cost if xc else ls + rs
                if s < out.get(key, s + 1):
                    out[key] = s
        tables.append(out)

    # The root is the outer-cycle edge (0, n - 1): its ends support each other.
    best = None
    for key, s in tables[0].items():
        a, b = divmod(key, states)
        ea = inc[a] if b >= _IN else a
        eb = inc[b] if a >= _IN else b
        if done[ea] and done[eb]:
            s += (one - (one >> 1) if a >= _IN else 0) + (one - 1 if b >= _IN else 0)
            if best is None or s < best:
                best = s
    if best is None:
        raise Infeasible(f"n={n}: no double dominating set avoids the degree-2 vertices")
    size = -(-best >> n)
    bits = format((size << n) - best, f"0{n}b")
    return size, tuple(v for v, bit in enumerate(bits) if bit == "1")


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
    return _solve_exact(g, standard=(m is DominationMode.standard), forbid_deg2=forbid_deg2)


def exact_min_two_dom(g: MopGraph) -> tuple[int, tuple[int, ...]]:
    """Minimum 2-dominating set; coincides with literal double domination."""
    return exact_min_double_dom(g, DominationMode.literal)


# --- bound reports ---------------------------------------------------------------

# The columns of a report row: ten values, then four flags that need the
# exact values.
CSV_COLUMNS = (
    "n", "t", "k",
    "bound_zhuang_23", "bound_zhuang_nt", "bound_main", "lower_bound",
    "exact_literal", "exact_standard", "exact_2dom",
    "ok_zhuang_23", "ok_zhuang_nt", "ok_main", "ok_lower",
)
_VALUE_COLUMNS = CSV_COLUMNS[:10]


@dataclass(frozen=True, slots=True)
class BoundReport:
    """Bounds for one graph, with its exact minima unless they were skipped.

    Only n, t, k and the two exact values are stored; the bounds, the flags
    (exact_literal against each bound) and exact_2dom, which is the literal
    minimum, follow from them."""

    n: int
    t: int
    k: int
    exact_literal: int | None
    exact_standard: int | None

    @property
    def bound_zhuang_23(self) -> float:
        return 2.0 * self.n / 3.0

    @property
    def bound_zhuang_nt(self) -> float:
        return (self.n + self.t) / 2.0

    @property
    def bound_main(self) -> float:
        return (self.n + self.k) / 2.0

    @property
    def lower_bound(self) -> int:
        return (self.n + 4) // 3

    @property
    def exact_2dom(self) -> int | None:
        return self.exact_literal

    @property
    def flags(self) -> dict[str, bool] | None:
        lit = self.exact_literal
        if lit is None:
            return None
        return {
            "ok_zhuang_23": lit <= self.bound_zhuang_23,
            "ok_zhuang_nt": lit <= self.bound_zhuang_nt,
            "ok_main": lit <= self.bound_main,
            "ok_lower": lit >= self.lower_bound,
        }

    def to_obj(self) -> dict[str, Any]:
        """The report row keyed by column, without the flags when the exact
        values were skipped."""
        obj: dict[str, Any] = {c: getattr(self, c) for c in _VALUE_COLUMNS}
        flags = self.flags
        if flags is not None:
            obj.update(flags)
        return obj


def bound_report(g: MopGraph, with_exact: bool = True) -> BoundReport:
    """All tracked bounds for g, optionally with exact values and per-bound
    flags (exact_literal compared against each bound)."""
    rep = bad_vertices(g)  # raises TooSmall for n=3
    if not with_exact:
        return BoundReport(n=g.n, t=rep.t, k=rep.k, exact_literal=None, exact_standard=None)
    lit, _ = exact_min_double_dom(g, DominationMode.literal)
    std, _ = exact_min_double_dom(g, DominationMode.standard)
    return BoundReport(n=g.n, t=rep.t, k=rep.k, exact_literal=lit, exact_standard=std)


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)


def _csv_cell(x: Any) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return f"{x:g}"
    return str(x)


def to_csv_row(r: BoundReport) -> str:
    obj = r.to_obj()
    return ",".join(_csv_cell(obj.get(c)) for c in CSV_COLUMNS)
