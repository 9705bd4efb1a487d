"""The in-place engine against the rebuild-per-level oracles.

At every level of every graph checked, the engine's graph relabelled by rank
must equal ``apply_rule``'s, its leaf walks must equal a full rebuild's, its
bad-vertex count must equal ``bad_vertices``, and the trace's step for the
level must carry the level's labels by rank.  The dual tree it starts from
must equal ``build_dual_tree``'s.  At every lift, the local
lift check must give the verdict ``certify`` gives on that level's graph,
also when one window vertex is dropped from the lifted set or added to it,
and the trace's soft checks must match a count taken from the reference
graphs and the lifted sets.  A property test holds the local MOP-validity
check to ``reduce_graph``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopdom import (
    BranchShape,
    ResultNotMaximalOuterplanar,
    apply_rule,
    bad_vertices,
    base_case_solve,
    build_dual_tree,
    build_mop,
    certify,
    enumerate_all,
    match_branch_shape,
    random_mop,
    reduce_graph,
    solve_bound,
)
from mopdom import constructive as c

# The fixed random set of tests/test_golden.py.
RANDOM_CASES = [(20 + (130 * i) // 19, 1000 + i) for i in range(20)]
# The chords of the one graph whose lift misses size_exact in the strict
# campaign of tests/test_golden.py (`random/145/n21`).
SIZE_EXACT_MISS = [
    (0, 14), (0, 15), (1, 14), (2, 4), (2, 5), (2, 12), (2, 13), (2, 14), (5, 8),
    (5, 12), (6, 8), (8, 12), (9, 12), (10, 12), (15, 19), (15, 20), (16, 19), (17, 19),
]


def _in_ids(res, key, ids):
    if isinstance(res, BranchShape):
        labels = [(r, ids[v]) for r, v in res.labels.items()]
        return ("shape", key(res.leaf), key(res.anchor), res.dist, labels)
    labels = [(r, ids[v]) for r, v in res.witness_labels.items()]
    return ("deviation", key(res.leaf), res.claim, res.variant, labels)


def rebuilt_walks(g, ids):
    """The leaf walks of a full rebuild of g, in vertex ids."""
    t = build_dual_tree(g)

    def key(i):
        return tuple(ids[v] for v in t.vertices(i))

    return {key(leaf): _in_ids(match_branch_shape(g, t, leaf), key, ids) for leaf in t.leaves()}


def engine_walks(r):
    same = lambda x: x  # noqa: E731 - engine results are in vertex ids already
    return {leaf: _in_ids(res, same, range(len(r.adjacency))) for leaf, res in r.walks.items()}


def test_engine_dual_tree_matches_build_dual_tree():
    graphs = [g for n in range(4, 12) for g in enumerate_all(n)]
    graphs += [random_mop(n, seed) for n, seed in RANDOM_CASES]
    for g in graphs:
        t = build_dual_tree(g)
        want = {
            t.vertices(i): {t.vertices(j) for j in t.neighbours(i)}
            for i in range(len(t.triangles))
        }
        dual = c._Reducer(g, bad_vertices(g).k).dual
        assert all(len(set(nbrs)) == len(nbrs) for nbrs in dual.values())
        assert {key: set(nbrs) for key, nbrs in dual.items()} == want


def check_level(r):
    g, ids = r.level_graph()
    assert r.n == g.n
    assert r.k == bad_vertices(g).k
    if g.n > c.BASE_MAX_N:
        assert engine_walks(r) == rebuilt_walks(g, ids)
    return g, ids


def check_every_level(g):
    trace = solve_bound(g).trace
    steps = trace.to_obj()
    r = c._Reducer(g, bad_vertices(g).k)
    levels = []
    misses = {"telescope": 0, "size_exact": 0}
    cur, ids = check_level(r)
    while r.n > c.BASE_MAX_N:
        step = c._next_step(r, permissive=False)
        if not isinstance(step, c._Level):
            _, s = step
            break
        rank = {v: i for i, v in enumerate(ids)}
        labels = {role: rank[v] for role, v in step.labels.items()}
        traced = steps[len(levels)]
        assert (traced["rule"], traced["n_before"]) == (step.rule.rule_id, cur.n)
        assert traced["labels"] == labels
        assert traced["deleted"] == sorted(rank[v] for v in step.deleted)
        assert traced["added_back"] == sorted(rank[v] for v in step.addback)
        ref, _ = apply_rule(cur, step.rule, labels)
        after, after_ids = check_level(r)
        assert after == ref
        # The lift is checked at every vertex the reduction gave a neighbour.
        after_rank = {v: i for i, v in enumerate(after_ids)}
        grew = {
            v
            for v in after_ids
            if not {after_ids[j] for j in after.adjacency[after_rank[v]]}
            <= {ids[j] for j in cur.adjacency[rank[v]]}
        }
        assert step.deleted | step.addback | grew <= step.window
        # The telescope, from the reference graphs alone.
        shrink = (cur.n - after.n) + (bad_vertices(cur).k - bad_vertices(after).k)
        telescope = shrink >= 2 * len(step.addback)
        assert traced["telescope_ok"] is telescope
        levels.append((step, cur, ids, after, after_ids))
        misses["telescope"] += not telescope
        cur, ids = after, after_ids
    else:
        s = {ids[i] for i in base_case_solve(cur)}

    for depth in reversed(range(len(levels))):
        step, cur, ids, after, after_ids = levels[depth]
        r.undo(step.deleted, step.gained)
        assert all(r.adjacency[v] == {ids[j] for j in cur.adjacency[i]} for i, v in enumerate(ids))
        sub = set(s)
        assert all(step.labels[x] in sub for x in step.rule.required)
        s = sub | step.addback
        # The lift grows the set by every vertex it adds back.
        exact = len(s) == len(sub) + len(step.addback)
        assert (steps[depth]["size_after_lift"], steps[depth]["size_exact"]) == (len(s), exact)
        misses["size_exact"] += not exact
        window = step.window
        rank = {v: i for i, v in enumerate(ids)}
        after_rank = {v: i for i, v in enumerate(after_ids)}

        def local(sol):
            return not r.lift_failures(window, sol, step.n, step.k)

        def full(sol):
            return certify(cur, [rank[v] for v in sol]).certified

        assert local(s) and full(s)
        # One window vertex dropped or added, while the reduced graph's part
        # of the set stays certified there (the check's precondition).
        for w in sorted(window):
            reduced = sub ^ ({w} & set(after_ids))
            if certify(after, [after_rank[v] for v in reduced]).certified:
                assert local(s ^ {w}) == full(s ^ {w}), (step.rule.rule_id, w)
    soft = trace.soft_failures()
    assert {key: soft[key] for key in misses} == misses
    return len(levels)


def test_every_level_of_the_band_matches_the_oracles():
    levels = sum(check_every_level(g) for n in range(9, 12) for g in enumerate_all(n))
    assert levels > 6721


def test_every_level_of_the_random_set_matches_the_oracles():
    levels = sum(check_every_level(random_mop(n, seed)) for n, seed in RANDOM_CASES)
    assert levels > 500


def test_every_level_of_the_size_exact_miss_matches_the_oracles():
    # random/145/n21 of the strict campaign that STRESS_DIGEST pins: its
    # case_2_3b step adds back a vertex that the reduced solution holds.
    g = build_mop(21, SIZE_EXACT_MISS)
    assert solve_bound(g).trace.soft_failures()["size_exact"] == 1
    assert check_every_level(g) > 0


def test_soft_failures_count_what_to_obj_spells_out():
    graphs = [g for n in range(9, 12) for g in enumerate_all(n)]
    graphs += [random_mop(n, seed) for n, seed in RANDOM_CASES]
    graphs.append(build_mop(21, SIZE_EXACT_MISS))
    total = {"telescope": 0, "size_exact": 0, "printed_k": 0}
    for g in graphs:
        trace = solve_bound(g).trace
        steps = trace.to_obj()
        want = {
            "telescope": sum(not step["telescope_ok"] for step in steps),
            "size_exact": sum(not step["size_exact"] for step in steps),
            "printed_k": sum(step["printed_ok"] is False for step in steps),
        }
        assert trace.soft_failures() == want
        for key in total:
            total[key] += want[key]
    assert total["size_exact"] >= 1 and total["printed_k"] > 0


def test_engine_walks_through_the_traced_binding(monkeypatch):
    # The benchmark counts leaf walks by patching this module attribute, so
    # the engine must reach the classifier through it, once per walk.
    calls = []
    classify = c.match_branch_shape

    def counted(*args):
        calls.append(args[2])
        return classify(*args)

    monkeypatch.setattr(c, "match_branch_shape", counted)
    res = solve_bound(random_mop(400, 0))
    assert (len(calls), res.trace.depth) == (264, 151)


# --- local MOP validity against reduce_graph ------------------------------------


@st.composite
def reductions(draw):
    n = draw(st.integers(5, 16))
    g = random_mop(n, draw(st.integers(0, 2**32)))
    v = st.integers(0, n - 1)
    kind = draw(st.sampled_from(["any", "run", "degree2"]))
    if kind == "run":
        start, length = draw(v), draw(st.integers(1, n - 3))
        delete = {(start + i) % n for i in range(length)}
        ends = [((start - 1) % n, (start + length) % n)]
    elif kind == "degree2":
        delete = set(draw(st.sets(st.sampled_from(g.degree2_vertices()), min_size=1)))
        ends = []
    else:
        delete = draw(st.sets(v, min_size=1, max_size=n))
        ends = []
    chords = draw(st.lists(st.tuples(v, v), max_size=2)) + draw(st.sampled_from([[], ends]))
    return g, sorted(delete), chords


@settings(max_examples=600, deadline=None)
@given(reductions())
def test_plan_matches_reduce_graph(case):
    g, delete, chords = case
    r = c._Reducer(g, bad_vertices(g).k)
    try:
        ref, _ = reduce_graph(g, delete, chords)
    except ResultNotMaximalOuterplanar:
        ref = None
    try:
        dele, gained = r.plan(delete, chords)
    except ResultNotMaximalOuterplanar:
        assert ref is None
        return
    assert ref is not None
    if ref.n < 4:
        return  # the engine skips such candidates before editing
    before = [set(x) for x in r.adjacency]
    r.apply(dele, gained)
    got, ids = r.level_graph()
    assert got == ref
    assert r.k == bad_vertices(ref).k
    if ref.n > c.BASE_MAX_N:
        assert engine_walks(r) == rebuilt_walks(ref, ids)
    r.undo(dele, gained)
    assert r.adjacency == before


def test_plan_rejects_crossing_chords():
    # Deleting a degree-4 vertex leaves a quadrilateral face next to the new
    # cycle edge; one added chord closes the count, and it is valid only if
    # it crosses nothing.
    crossing = 0
    for g in enumerate_all(8):
        r = c._Reducer(g, bad_vertices(g).k)
        for v in (v for v in range(8) if len(g.adjacency[v]) == 4):
            for x in range(8):
                for y in range(x + 1, 8):
                    if v in (x, y) or y in g.adjacency[x]:
                        continue
                    try:
                        reduce_graph(g, [v], [(x, y)])
                        valid = True
                    except ResultNotMaximalOuterplanar as exc:
                        valid = False
                        crossing += "cross" in str(exc)
                    if valid:
                        r.plan([v], [(x, y)])
                    else:
                        with pytest.raises(ResultNotMaximalOuterplanar):
                            r.plan([v], [(x, y)])
    assert crossing > 100
