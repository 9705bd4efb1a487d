"""Double domination on MOPs: predicates, bad vertices, exact minima, bounds.

Two flavours of "every vertex is watched twice" are supported:

* ``literal`` — every vertex *outside* S has at least two neighbours in S.
  For vertices outside S the closed and open neighbourhood intersections with
  S coincide, so this is exactly 2-domination.
* ``standard`` — every vertex, member or not, satisfies |N[v] & S| >= 2.

The exact solver is a dynamic program that splits the polygon at the apex of
each base edge: one pass over the n - 2 triangles with tables of fixed size,
without recursion, for both modes and with degree-2 vertices forbidden or
not.  Tables are normalized by their minimum and scored with small integers,
so the pass is linear in n.  Each join drops the entries that another entry
of its table strictly dominates, so every table lies within 3 of its
minimum.  Every table is interned as a class, and the joins of classes are
memoized per mode, in memory capped at a fixed number of joins.  Witnesses
are the lexicographically smallest minimum solutions, so independently
written oracles can compare sets, not just sizes.  The size limit
MOPDOM_EXACT_LIMIT (default 22) stays in force for now.

``bad_vertices`` reports the degree-2 vertices in clockwise order together
with the clockwise outer-cycle gap to the next degree-2 vertex; a vertex with
gap >= 3 is *bad*.  The gaps of all degree-2 vertices always sum to n.
"""

from __future__ import annotations

import enum
import os
import threading
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

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
# The best choice is the smallest, and among those the lexicographically
# smallest as a sorted tuple.  A table holds one entry per key
# lo_state * states + hi_state, as three runs of equal length: the keys in
# order, then each choice's size minus the table's minimum, then its
# *bit-rank*.  The bit-rank is dense and orders the table's choices by their
# interior alone, 0 for the lexicographically smallest.  A left interior lies
# below the apex and a right one above it, so a join compares the candidates
# for a key by (size, left rank, apex not in S, right rank), and re-ranks its
# outputs by the last three.  Every number stays a small integer, whatever n
# is; scoring a choice as an n-bit integer would cost n / 64 word operations
# per comparison.
#
# A join also drops the entries that another one dominates.  An end state e2
# *covers* e when it serves the rest of the graph at least as well: e2 is in
# S or e is not, and e2 needs no more supporters than e (2 - e outside S,
# top - e in S).  So with the same membership more supporters cover fewer,
# and a member covers a non-member at the cost of one more vertex: in
# literal mode always, in standard mode as _IN + 1 always and as _IN over
# states 0 and 1 only.  An entry (a, b, s) goes when another entry
# (a2, b2, s2) of the same table has a2 covering a, b2 covering b and
# s2 + flips < s, where flips counts the ends that the cover puts into S.
# Swapping the cover's interior and ends into a solution that uses the entry
# gives a set that is strictly smaller and still double dominates: a flipped
# end needs no more than it got before, and every other vertex only gains.
# So no minimum solution uses a dropped entry.  The comparison is strict, so
# ties survive and the witness stays the lexicographically smallest minimum.
# Each key of the unpruned table also stays covered, within its flips, by an
# entry of the pruned one.  This holds side by side, because the join rules
# are monotone under covering; where a cover on one side puts the apex into
# S, the other side's entry with the apex put in, at no cost, joins it.
#
# Pruned, every table is narrow.  Let m be the least size in a side's table,
# and I an interior of that size.  In literal mode, I with both ends in S
# covers every key within two flips at size at most m, so nothing survives
# above m + 2.  In standard mode, I with the apex and both ends in S
# satisfies both ends and covers every key within two flips at size at most
# m + 1, so nothing survives above m + 3.  An end that may not join S is a
# degree-2 vertex under forbid_deg2.  It ends only leaves, whose sizes are
# all 0, and one end of the root (0, n - 1); there, I with vertex 1 and the
# other end in S bounds the spread by 2.  An apex that may not join S is the
# degree-2 middle of a side (v, v + 2), whose one entry puts both ends in S.
#
# So every size fits a byte, and the tables of random MOPs, fans and snakes
# fall into a few hundred classes per mode.  Each mode interns every table
# and memoizes the join of two classes: the class it yields, its minimum
# over the sum of theirs, and its back-pointers (_Classes).  A hit costs one
# dictionary lookup.  The witness is read off the back-pointers by a
# top-down traceback, and a pass that wants only the size keeps none.

_IN = 3
_MEMO_CAP = 1 << 13  # memoized joins per mode before the next solve drops them


class _Rules:
    """The state machine of one mode.

    ``inc[e]`` is state e with one more supporter, and ``done[e]`` says
    whether a vertex whose supporters are all counted is satisfied.
    ``join[lo_state * states + left_apex][right_apex * states + hi_state]``
    is ``(lo_state' * states + hi_state', apex in S)`` for the edge the two
    sides close, or None when their apex states disagree on membership or
    leave the apex short of supporters.  ``covers[key]`` lists ``(key2,
    flips)`` for every other key whose two states cover those of ``key``.
    ``leaf[lo_allowed][hi_allowed]`` is the table of an outer-cycle edge."""

    __slots__ = ("states", "inc", "done", "join", "covers", "leaf")

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
        # covering[e] lists (e2, flips) for each state e2 that covers e, e
        # itself included.
        need = [2 - e if e < _IN else top - e for e in range(states)]
        covering = [
            [
                (e2, int(e2 >= _IN > e))
                for e2 in range(states)
                if (e2 >= _IN or e < _IN) and need[e2] <= need[e]
            ]
            for e in range(states)
        ]
        choice = ((0,), (0, _IN))
        self.states = states
        self.inc = inc
        self.done = done
        self.join = join
        self.covers = [
            tuple(
                (a2 * states + b2, fa + fb)
                for a2, fa in covering[key // states]
                for b2, fb in covering[key % states]
                if a2 * states + b2 != key
            )
            for key in range(states * states)
        ]
        self.leaf = [
            [{a * states + b: 0 for a in choice[lo] for b in choice[hi]} for hi in (0, 1)]
            for lo in (0, 1)
        ]


# A join scores a candidate as one integer: from the top, its size, the left
# rank, whether the apex is left out, the right rank, then the left and the
# right key.  Ranks and keys are below 32, so each takes 5 bits.
_SIZE = 1 << 21
_APEX_OUT = 1 << 15


def _entries(table) -> Iterator[tuple[int, int, int]]:
    """(key, size, rank) of each entry of a table, in key order."""
    m = len(table) // 3
    return zip(table[:m], table[m : 2 * m], table[2 * m :])


def _join(rules: _Rules, left, right) -> tuple[list[int], int, bytes]:
    """The pruned table of the side that sides ``left`` and ``right`` close,
    its minimum over the sum of theirs, and its back-pointers: its keys,
    then the left key and then the right key of each key's choice."""
    join = rules.join
    rights = [(rk, rs * _SIZE | rr << 10 | rk) for rk, rs, rr in _entries(right)]
    best: dict[int, int] = {}
    for lk, ls, lr in _entries(left):
        row = join[lk]
        base = ls * _SIZE | lr << 16 | lk << 5
        for rk, rb in rights:
            t = row[rk]
            if t is not None:
                key, xc = t
                sc = base + rb + (_SIZE if xc else _APEX_OUT)
                if sc < best.get(key, sc + 1):
                    best[key] = sc
    if not best:
        return [], 0, b""
    size = {key: sc // _SIZE for key, sc in best.items()}
    least = min(size.values())
    covers = rules.covers
    keys = []
    for key in sorted(best):
        s = size[key]
        if s > least:  # an entry of the least size has no dominator
            for k2, f in covers[key]:
                if size.get(k2, s) + f < s:
                    break
            else:
                keys.append(key)
        else:
            keys.append(key)
    scores = [best[key] for key in keys]
    interiors = [sc >> 10 & 0x7FF for sc in scores]
    rank = {x: i for i, x in enumerate(sorted(set(interiors)))}
    bp = bytes(keys + [sc >> 5 & 31 for sc in scores] + [sc & 31 for sc in scores])
    sizes = [sc // _SIZE - least for sc in scores]
    return keys + sizes + [rank[x] for x in interiors], least, bp


class _Classes:
    """One mode's interned side tables and memoized joins of pairs of them.

    A class is a table interned as ``bytes`` and named by its index in
    ``tables``; the four leaf tables are classes 0..3, class
    2 * lo_allowed + hi_allowed.  ``joins[a << 32 | b]`` is ``(class,
    offset, back-pointers)`` for classes a and b (ids stay far below
    2**32), and ``roots[c]`` the best root choice of class c.  The memo
    only caches: no result depends on what it holds.  A solve that finds
    more than _MEMO_CAP joins held replaces the whole object with an empty
    one, so memory stays bounded and a solve running meanwhile keeps the
    ids it holds.  ``lock`` guards the misses, which intern; hits only
    read."""

    __slots__ = ("rules", "lock", "ids", "tables", "joins", "roots")

    def __init__(self, rules: _Rules) -> None:
        self.rules = rules
        self.lock = threading.Lock()
        self.ids: dict[bytes, int] = {}
        self.tables: list[bytes] = []
        self.joins: dict[int, tuple[int, int, bytes]] = {}
        self.roots: dict[int, tuple[int, int] | None] = {}
        for lo in (0, 1):
            for hi in (0, 1):
                keys = sorted(rules.leaf[lo][hi])
                self.intern(bytes(keys + [0] * (2 * len(keys))))

    def intern(self, table: bytes) -> int:
        c = self.ids.get(table)
        if c is None:
            c = len(self.tables)
            self.tables.append(table)
            self.ids[table] = c
        return c

    def join(self, a: int, b: int) -> tuple[int, int, bytes]:
        """Join classes a and b, which the memo missed, and memoize it."""
        table, offset, bp = _join(self.rules, self.tables[a], self.tables[b])
        with self.lock:
            hit = self.joins[a << 32 | b] = (self.intern(bytes(table)), offset, bp)
        return hit

    def root(self, c: int) -> tuple[int, int] | None:
        """(size over the table's minimum, key) of the best choice at the
        root, the outer-cycle edge (0, n - 1), whose ends support each
        other; None when no choice satisfies both ends."""
        if c in self.roots:
            return self.roots[c]
        rules = self.rules
        states, inc, done = rules.states, rules.inc, rules.done
        best = None
        for key, s, r in _entries(self.tables[c]):
            a, b = divmod(key, states)
            if done[inc[a] if b >= _IN else a] and done[inc[b] if a >= _IN else b]:
                # Vertex 0 comes before the interior, and n - 1 after it.
                cand = (s + (a >= _IN) + (b >= _IN), a < _IN, r, b < _IN, key)
                if best is None or cand < best:
                    best = cand
        self.roots[c] = None if best is None else (best[0], best[4])
        return self.roots[c]


# Per mode: the memo of the dynamic program, shared by every solve.
_CLASSES = [_Classes(_Rules(standard=False)), _Classes(_Rules(standard=True))]


def _solve_exact(
    g: MopGraph,
    *,
    standard: bool,
    forbid_deg2: bool,
    witness: bool = True,
    fans: list[list[int]] | None = None,
) -> tuple[int, tuple[int, ...] | None]:
    """(size, lex-min witness) by the dynamic program above, with no size
    limit; with ``witness`` false the witness is None and no back-pointers
    are kept.  Reads the fans of ``g``, from ``fans`` when the caller has
    built them with ``g.higher_neighbours()`` (they are left as they are),
    and, when they are forbidden, its degree-2 vertices; it fills no
    adjacency cache on ``g``."""
    n = g.n
    classes = _CLASSES[standard]
    if len(classes.joins) > _MEMO_CAP:
        classes = _CLASSES[standard] = _Classes(classes.rules)
    joins = classes.joins
    allowed = [1] * n
    if forbid_deg2:
        for v in g.degree2_vertices():
            allowed[v] = 0

    # The fan of lo is up[lo] = [lo + 1, ..., hi], and its last edge (lo, hi)
    # is lo's top side, whose table is top[lo].  The edge (lo, up[lo][j]),
    # j >= 1, closes the sides (lo, c) and (c, hi) at the apex c = up[lo][j - 1],
    # and (c, hi) is c's top side.  So each fan, highest lo first, folds its
    # apexes, all but its last vertex, into the leaf (lo, lo + 1).  up[0] ends
    # at n - 1, so top[0] is the root.
    up = g.higher_neighbours() if fans is None else fans
    top = [0] * n
    back: list[bytes] = []
    offset = 0
    for lo in range(n - 2, -1, -1):
        a = 2 * allowed[lo] + allowed[lo + 1]  # the leaf class
        for c in up[lo][:-1]:
            b = top[c]
            hit = joins.get(a << 32 | b)
            if hit is None:
                hit = classes.join(a, b)
            a, o, bp = hit
            offset += o
            if witness:
                back.append(bp)
        top[lo] = a

    best = classes.root(top[0])
    if best is None:
        raise Infeasible(f"n={n}: no double dominating set avoids the degree-2 vertices")
    size, key = best[0] + offset, best[1]
    if not witness:
        return size, None

    # Top-down, lowest lo first: a key fixes the keys of both sides it closes.
    states, join = classes.rules.states, classes.rules.join
    a, b = divmod(key, states)
    chosen = [0] if a >= _IN else []
    if b >= _IN:
        chosen.append(n - 1)
    keys = [0] * n  # the key chosen for each top side
    keys[0] = key
    i = len(back)
    for lo in range(n - 1):
        k = keys[lo]
        for c in up[lo][-2::-1]:
            i -= 1
            bp = back[i]
            m = len(bp) // 3
            p = bp.index(k, 0, m)
            lk, rk = bp[m + p], bp[2 * m + p]
            if join[lk][rk][1]:
                chosen.append(c)
            keys[c] = rk
            k = lk
    chosen.sort()
    return size, tuple(chosen)


def _check_limit(g: MopGraph) -> None:
    limit = exact_limit()
    if g.n > limit:
        raise TooLarge(f"n={g.n} exceeds exact limit {limit}")


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
    _check_limit(g)
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
    _check_limit(g)
    # Sizes only: no witness, so no back-pointers to keep; one set of fans
    # serves both modes.
    fans = g.higher_neighbours()
    lit, _ = _solve_exact(g, standard=False, forbid_deg2=False, witness=False, fans=fans)
    std, _ = _solve_exact(g, standard=True, forbid_deg2=False, witness=False, fans=fans)
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
