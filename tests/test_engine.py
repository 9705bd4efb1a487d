"""The in-place engine against the rebuild-per-level oracles.

At every level of every graph checked, the engine's graph relabelled by rank
must equal ``apply_rule``'s, its leaf walks must equal a full rebuild's, its
bad-vertex count must equal ``bad_vertices``, and the trace's step for the
level must carry the level's labels by rank.  The dual tree it starts from
must equal ``build_dual_tree``'s.  The level's candidates must come in the
documented order, read off the walks alone, and the engine's plain-call
pick must be the first of them.  At every lift, the local
lift check must give the verdict ``certify`` gives on that level's graph,
also when one window vertex is dropped from the lifted set or added to it,
and the trace's soft checks, the declared k movement included, must match
a count taken from the reference graphs and the lifted sets.  A property
test holds the local MOP-validity check to ``reduce_graph``.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopdom import (
    BranchShape,
    ResultNotMaximalOuterplanar,
    RuleMismatch,
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
# The larger graphs of tests/test_golden.py.
LARGE_CASES = [(200, 2000), (300, 2001), (400, 2002), (500, 2003), (650, 2004), (800, 2005)]
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
        r = c._Reducer(g, bad_vertices(g).k)
        assert all(len(set(nbrs)) == len(nbrs) for nbrs in r.dual.values())
        assert {key: set(nbrs) for key, nbrs in r.dual.items()} == want
        assert r.adjacency == [set(nb) for nb in g.adjacency]
        assert r.nxt == [(v + 1) % g.n for v in range(g.n)]
        assert r.prv == [(v - 1) % g.n for v in range(g.n)]


def test_solve_builds_no_adjacency_cache():
    # The engine reads the fans and certify counts from the chords, so a
    # solve leaves MopGraph.adjacency unbuilt.
    graphs = [g for n in range(9, 12) for g in enumerate_all(n)]
    graphs.append(random_mop(400, 0))
    for g in graphs:
        assert solve_bound(g).certified
        assert "adjacency" not in vars(g)


def test_prewarmed_adjacency_changes_nothing():
    for n, seed in [*RANDOM_CASES, (400, 0)]:
        cold, warm = random_mop(n, seed), random_mop(n, seed)
        warm.adjacency
        a, b = solve_bound(cold), solve_bound(warm)
        assert a.to_obj() == b.to_obj()
        assert a.trace.to_obj() == b.trace.to_obj()


def _reference_shared_roles(a, b):
    ea = {a.labels[r]: r for r in a.entry_chord_roles}
    eb = {b.labels[r]: r for r in b.entry_chord_roles}
    common = set(ea) & set(eb)
    if len(common) != 1:
        return None
    x = common.pop()
    return ea[x], eb[x]


def _reference_normalize_d1(labels, shared_role, want):
    if shared_role == want:
        return labels, shared_role
    out = dict(labels)
    out["u2"], out["u3"] = labels["u3"], labels["u2"]
    return out, want


def _reference_pair_candidate(a, b):
    """The site-pair matcher as it was written with label dicts copied."""
    _, sites = c.load_rules()
    orders = [(a, b), (b, a)] if a.dist == b.dist else [(a, b)]
    for s, t in orders:
        roles = _reference_shared_roles(s, t)
        if roles is None:
            continue
        role_s, role_t = roles
        s_labels = dict(s.labels)
        t_labels = dict(t.labels)
        if s.dist == 1:
            s_labels, role_s = _reference_normalize_d1(s_labels, role_s, "u3")
        if t.dist == 1:
            t_labels, role_t = _reference_normalize_d1(t_labels, role_t, "u2")
        config = (role_s, "v" + role_t[1:])
        for rule in sites.get((s.dist, t.dist), ()):
            if rule.shared == config:
                merged = dict(s_labels)
                merged.update({"v" + key[1:]: val for key, val in t_labels.items()})
                return rule, merged
    return None


def _reference_candidates(r):
    """Every candidate of a level in the documented order, from the walks
    alone: deviating leaves ascending; else anchors ascending, each with its
    pairs of clean walks ordered by (distance, leaf)."""
    deviations, _ = c.load_rules()
    walks = r.walks
    devs = sorted(leaf for leaf, w in walks.items() if not isinstance(w, BranchShape))
    if devs:
        return [(deviations[walks[leaf].variant], walks[leaf].witness_labels) for leaf in devs]
    groups = {}
    for w in walks.values():
        groups.setdefault(w.anchor, []).append(w)
    out = []
    for anchor in sorted(groups):
        group = sorted(groups[anchor], key=lambda sh: (sh.dist, sh.leaf))
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                cand = _reference_pair_candidate(group[i], group[j])
                if cand is not None:
                    out.append(cand)
    return out


def _items(cand):
    """A candidate with its labels as a list, so that key order counts."""
    return None if cand is None else (cand[0], list(cand[1].items()))


def check_level(r):
    g, ids = r.level_graph()
    assert r.n == g.n
    assert r.k == bad_vertices(g).k
    if g.n > c.BASE_MAX_N:
        assert engine_walks(r) == rebuilt_walks(g, ids)
    return g, ids


def printed_ok(spec, cur, after, labels):
    """Whether the k movement that ``spec`` declares holds from cur to after
    (labels in cur); None if it declares none or cannot be evaluated."""
    kind = spec.get("kind") if spec else None
    k_cur, k_after = bad_vertices(cur).k, bad_vertices(after).k
    if kind in ("eq", "le"):
        want = k_cur + spec["delta"]
        return k_after == want if kind == "eq" else k_after <= want
    if kind == "conditional" and spec["pivot"] in labels and spec["other"] in labels:
        # k drops by one exactly when the pivot's cycle neighbour other than
        # ``other`` has degree 2 in cur.
        pivot = labels[spec["pivot"]]
        away = {(pivot - 1) % cur.n, (pivot + 1) % cur.n} - {labels[spec["other"]]}
        if len(away) == 1:
            return k_after == k_cur - (len(cur.adjacency[away.pop()]) == 2)
    return None


def check_every_level(g):
    trace = solve_bound(g).trace
    steps = trace.to_obj()
    r = c._Reducer(g, bad_vertices(g).k)
    levels = []
    misses = {"telescope": 0, "size_exact": 0, "printed_k": 0}
    cur, ids = check_level(r)
    while r.n > c.BASE_MAX_N:
        # The candidates come in the documented order, and the plain-call
        # pick is the first of them.
        cands = [_items(x) for x in c._candidates(r)]
        assert cands == [_items(x) for x in _reference_candidates(r)]
        assert _items(c._first_candidate(r)) == (cands[0] if cands else None)
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
        # The declared k movement, from the reference graphs alone.
        printed = printed_ok(step.rule.k_printed, cur, after, labels)
        assert traced["printed_ok"] is printed
        levels.append((step, cur, ids, after, after_ids))
        misses["telescope"] += not telescope
        misses["printed_k"] += printed is False
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
    assert trace.soft_failures() == misses
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


def engine_levels(g):
    """The levels the engine applies to g, outermost first."""
    r = c._Reducer(g, bad_vertices(g).k)
    levels = []
    while r.n > c.BASE_MAX_N and isinstance(step := c._next_step(r, permissive=False), c._Level):
        levels.append(step)
    return levels


def test_each_rule_keeps_one_order_of_label_roles():
    # The packed trace keeps a rule's label roles once, from its first level.
    graphs = [g for n in range(9, 12) for g in enumerate_all(n)]
    graphs += [random_mop(n, seed) for n, seed in RANDOM_CASES + LARGE_CASES]
    roles = {}
    for g in graphs:
        for level in engine_levels(g):
            got = tuple(level.labels)
            assert roles.setdefault(id(level.rule), got) == got, level.rule.rule_id
        trace = solve_bound(g).trace
        assert len(trace.keys) == len(trace.rules) and trace.keys[-1] == ()
        assert all(trace.keys[i] == roles[id(rule)] for i, rule in enumerate(trace.rules[:-1]))
    assert len(roles) == 27  # rule objects applied (26 rule ids)


def test_pack_rejects_a_rule_with_two_orders_of_label_roles():
    n, seed = RANDOM_CASES[0]
    level = engine_levels(random_mop(n, seed))[0]
    flipped = replace(level, labels=dict(reversed(level.labels.items())))
    with pytest.raises(RuleMismatch, match=level.rule.rule_id):
        c._pack(n, [level, flipped], [3, 2, 1], "base_case", level.k)


def test_pack_reads_eq_and_le_declarations_apart():
    # No pinned graph has an `eq` rule ending below its declared k, so only
    # synthetic levels tell `k after == want` from `k after <= want`.
    n, seed = RANDOM_CASES[0]
    level = engine_levels(random_mop(n, seed))[0]
    want = level.k + 1
    for kind, k_after, ok in (
        ("eq", want - 1, False),
        ("eq", want, True),
        ("eq", want + 1, False),
        ("le", want - 1, True),
        ("le", want, True),
        ("le", want + 1, False),
    ):
        declared = replace(level, printed=(kind, want))
        trace = c._pack(n, [declared], [3, 2], "base_case", k_after)
        assert trace.to_obj()[0]["printed_ok"] is ok, (kind, k_after)
        assert trace.soft_failures()["printed_k"] == (not ok)
    undeclared = c._pack(n, [replace(level, printed=(None, 0))], [3, 2], "base_case", level.k)
    assert undeclared.to_obj()[0]["printed_ok"] is None


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


# --- candidate selection ----------------------------------------------------------


def test_a_failed_first_candidate_gives_way_to_the_next_in_order(monkeypatch):
    # No benchmark graph reaches this path: there, plan never rejects the
    # first candidate.  Reject plan's first call at one deviation level and
    # one site level that offer a second candidate, and check that the
    # engine takes that one.
    plan = c._Reducer.plan
    seen = set()
    graphs = [random_mop(n, seed) for n, seed in RANDOM_CASES]
    graphs += [g for n in range(10, 12) for g in enumerate_all(n)]
    for g in graphs:
        r = c._Reducer(g, bad_vertices(g).k)
        while r.n > c.BASE_MAX_N and seen != {"deviation", "site"}:
            cands = list(c._candidates(r))
            kind = cands[0][0].kind
            if kind not in seen and len(cands) > 1 and cands[1][0].kind == kind:
                rule, labels = cands[1]
                dele, _ = r.plan([labels[x] for x in rule.delete],
                                 [(labels[a], labels[b]) for a, b in rule.add_chords])
                if r.n - len(dele) >= 4:
                    calls = []

                    def reject_first(self, delete, chords):
                        calls.append(sorted(delete))
                        if len(calls) == 1:
                            raise ResultNotMaximalOuterplanar("rejected by the test")
                        return plan(self, delete, chords)

                    monkeypatch.setattr(c._Reducer, "plan", reject_first)
                    step = c._next_step(r, permissive=False)
                    monkeypatch.undo()
                    first_rule, first_labels = cands[0]
                    assert calls[0] == sorted(first_labels[x] for x in first_rule.delete)
                    assert len(calls) == 2
                    assert (step.rule, list(step.labels.items())) == _items(cands[1])
                    seen.add(kind)
                    break
            step = c._next_step(r, permissive=False)
            if not isinstance(step, c._Level):
                break
        if seen == {"deviation", "site"}:
            break
    assert seen == {"deviation", "site"}


def test_site_pairs_match_the_reference_matcher():
    pairs = matched = 0
    for n in range(9, 12):
        for g in enumerate_all(n):
            r = c._Reducer(g, bad_vertices(g).k)
            for group in r.site_groups():
                for a, b in permutations(group, 2):
                    assert c._shared_roles(a, b) == _reference_shared_roles(a, b)
                    if a.dist > b.dist:
                        continue
                    want = _reference_pair_candidate(a, b)
                    got = c._pair_candidate(a, b)
                    assert _items(got) == _items(want)
                    assert want is None or got[0] is want[0]
                    pairs += 1
                    matched += want is not None
    assert pairs > 1000 and matched > 500


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
