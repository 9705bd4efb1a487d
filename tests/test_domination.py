import functools
import gc
import itertools
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopdom import (
    CSV_COLUMNS,
    BoundReport,
    DominationMode,
    Infeasible,
    MopGraph,
    TooSmall,
    bad_vertices,
    bound_report,
    build_mop,
    coverage_counts,
    csv_header,
    enumerate_all,
    exact_min_double_dom,
    exact_min_two_dom,
    fan,
    fixture,
    is_double_dominating,
    random_mop,
    snake,
    solve_bound,
    to_csv_row,
)
from mopdom import domination

import fold_reference
from naive_oracle import is_double_dom, min_double_dom
from test_golden import EXACT_RANDOM_CASES


# --- predicates ---------------------------------------------


def test_coverage_counts():
    g = build_mop(5, [(0, 2), (0, 3)])
    assert coverage_counts(g, []) == (0, 0, 0, 0, 0)
    assert coverage_counts(g, [0]) == (1, 1, 1, 1, 1)
    assert coverage_counts(g, [0, 2]) == (2, 2, 2, 2, 1)


@st.composite
def graph_and_subset(draw):
    g = random_mop(draw(st.integers(4, 60)), draw(st.integers(0, 2**32)))
    s = draw(st.sets(st.integers(0, g.n - 1)))
    if draw(st.booleans()):  # large sets too, so both verdicts occur
        s = set(range(g.n)) - s
    return g, s


@settings(max_examples=300, deadline=None)
@given(graph_and_subset())
def test_predicate_matches_coverage_counts(case):
    g, s = case
    counts = coverage_counts(g, s)
    assert is_double_dominating(g, s, "standard") == all(c >= 2 for c in counts)
    assert is_double_dominating(g, s, "literal") == all(
        c >= 2 for v, c in enumerate(counts) if v not in s
    )


@settings(max_examples=200, deadline=None)
@given(graph_and_subset(), st.sets(st.sampled_from(["low", "n", "far"]), min_size=1))
def test_ids_outside_the_graph_are_ignored(case, picks):
    # -1, n and n + 5 are no vertex: they count for nobody, in either mode.
    # -1 in particular must not alias vertex n - 1.
    g, s = case
    extra = {{"low": -1, "n": g.n, "far": g.n + 5}[p] for p in picks}
    assert coverage_counts(g, s | extra) == coverage_counts(g, s)
    for mode in ("literal", "standard"):
        assert is_double_dominating(g, s | extra, mode) == is_double_dominating(g, s, mode)


def test_minus_one_is_not_the_last_vertex():
    g = snake(6)  # vertex 5, which -1 would alias, completes {1, 3, 4} in literal mode
    s = [1, 3, 4]
    assert not is_double_dominating(g, s, "literal")
    assert is_double_dominating(g, s + [5], "literal")
    for ids in ([-1], [6], [11], [-1, 6, 11]):
        assert coverage_counts(g, ids) == (0,) * 6
        assert coverage_counts(g, s + ids) == coverage_counts(g, s)
        for mode in ("literal", "standard"):
            assert not is_double_dominating(g, s + ids, mode)


def test_literal_ignores_members_standard_does_not():
    g = snake(6)
    # (0, 1, 3) leaves member 0 with a single supporter
    assert is_double_dominating(g, [0, 1, 3], "literal")
    assert not is_double_dominating(g, [0, 1, 3], "standard")
    assert is_double_dominating(g, [0, 1, 2, 3], DominationMode.standard)
    assert not is_double_dominating(g, [0, 1], "literal")


def test_predicates_match_naive_oracle():
    for g in enumerate_all(6):
        edges = g.edges()
        for r in range(g.n + 1):
            for s in itertools.combinations(range(g.n), r):
                assert is_double_dominating(g, s, "literal") == is_double_dom(
                    g.n, edges, s
                )
                assert is_double_dominating(g, s, "standard") == is_double_dom(
                    g.n, edges, s, standard=True
                )


# --- bad vertices ---------------------------------------------


def test_bad_vertices_requires_n_at_least_4():
    with pytest.raises(TooSmall):
        bad_vertices(build_mop(3, []))


def test_bad_vertices_gaps_wrap_and_sum():
    for n in range(4, 12):
        for g in enumerate_all(n, dedup=True):
            rep = bad_vertices(g)
            assert rep.deg2 == tuple(sorted(rep.deg2))
            assert sum(rep.succ_dist) == n
            assert rep.t == len(rep.deg2) >= 2
            assert rep.k == sum(rep.bad) <= rep.t
            for gap, b in zip(rep.succ_dist, rep.bad):
                assert b == (gap >= 3)


@settings(max_examples=150, deadline=None)
@given(st.integers(4, 60), st.integers(0, 2**32))
def test_degree2_and_bad_vertices_match_a_degree_count(n, seed):
    g = random_mop(n, seed)
    degree = [2] * n
    for a, b in g.chords:
        degree[a] += 1
        degree[b] += 1
    deg2 = tuple(v for v in range(n) if degree[v] == 2)
    assert g.degree2_vertices() == deg2
    assert g.degree2_vertices() is g.degree2_vertices()
    rep = bad_vertices(g)
    gaps = tuple((deg2[(i + 1) % len(deg2)] - v) % n for i, v in enumerate(deg2))
    assert (rep.deg2, rep.succ_dist, rep.t) == (deg2, gaps, len(deg2))
    assert rep.bad == tuple(d >= 3 for d in gaps)
    assert rep.k == sum(d >= 3 for d in gaps)


def test_bad_vertices_known_graphs():
    rep = bad_vertices(snake(6))
    assert (rep.deg2, rep.succ_dist, rep.t, rep.k) == ((0, 3), (3, 3), 2, 2)

    rep = bad_vertices(fixture("aziz_gap"))
    assert rep.deg2 == (1, 4)
    assert rep.succ_dist == (3, 2)
    assert rep.bad == (True, False)
    assert rep.k == 1

    rep = bad_vertices(fixture("triforce9"))
    assert (rep.deg2, rep.t, rep.k) == ((1, 4, 7), 3, 3)

    rep = bad_vertices(fan(3))  # hub fan: one long gap around the rim
    assert (rep.deg2, rep.succ_dist, rep.k) == ((1, 9), (8, 2), 1)


# --- exact solver ---------------------------------------------


def test_exact_matches_naive_scan_exhaustively():
    for n in range(4, 8):
        for g in enumerate_all(n):
            edges = g.edges()
            for standard in (False, True):
                mode = "standard" if standard else "literal"
                size, witness = exact_min_double_dom(g, mode)
                assert (size, witness) == min_double_dom(n, edges, standard=standard)
            size, witness = exact_min_double_dom(g, forbid_deg2=True)
            assert (size, witness) == min_double_dom(
                n, edges, forbidden=g.degree2_vertices()
            )


def test_exact_known_values():
    assert exact_min_double_dom(snake(6)) == (3, (0, 1, 3))
    assert exact_min_double_dom(snake(6), "standard") == (4, (0, 1, 2, 3))
    assert exact_min_double_dom(snake(6), forbid_deg2=True) == (4, (1, 2, 4, 5))
    assert exact_min_double_dom(fixture("triforce9")) == (5, (0, 1, 3, 5, 7))
    assert exact_min_double_dom(fixture("triforce9"), "standard") == (
        6,
        (0, 1, 3, 4, 6, 7),
    )
    assert exact_min_two_dom(snake(9)) == (4, (0, 1, 4, 6))


def test_fan_minimum_is_blades_plus_one():
    for k in range(1, 5):
        g = fan(k)
        for mode in ("literal", "standard"):
            size, witness = exact_min_double_dom(g, mode)
            assert size == k + 1
            assert is_double_dominating(g, witness, mode)


def test_chain_of_modes():
    for g in enumerate_all(8, dedup=True):
        lit, _ = exact_min_double_dom(g, "literal")
        std, _ = exact_min_double_dom(g, "standard")
        two, _ = exact_min_two_dom(g)
        assert (g.n + 4) // 3 <= two == lit <= std


def test_infeasible_triangle():
    with pytest.raises(Infeasible):
        exact_min_double_dom(build_mop(3, []), forbid_deg2=True)
    # unforbidden triangle is fine
    assert exact_min_double_dom(build_mop(3, []))[0] == 2


def test_witnesses_are_sorted_valid_and_lex_min():
    g = snake(10)
    size, witness = exact_min_double_dom(g)
    assert witness == tuple(sorted(witness))
    assert is_double_dominating(g, witness)
    assert (size, witness) == min_double_dom(10, g.edges())


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_mop(400, 0),
        lambda: random_mop(400, 1),
        lambda: random_mop(400, 2),
        lambda: fan(333),
        lambda: snake(2000),
    ],
    ids=["random400-0", "random400-1", "random400-2", "fan333", "snake2000"],
)
def test_exact_far_beyond_the_limit_brackets_the_engine(make):
    recursion_limit = sys.getrecursionlimit()
    g = make()
    lit, lit_w = exact_min_double_dom(g, "literal")
    std, std_w = exact_min_double_dom(g, "standard")
    fbd, fbd_w = exact_min_double_dom(g, "literal", forbid_deg2=True)
    for size, witness in ((lit, lit_w), (std, std_w), (fbd, fbd_w)):
        assert witness == tuple(sorted(set(witness))) and len(witness) == size
    assert is_double_dominating(g, lit_w, "literal")
    assert is_double_dominating(g, std_w, "standard")
    assert is_double_dominating(g, fbd_w, "literal")
    assert not set(fbd_w) & set(g.degree2_vertices())
    engine = len(solve_bound(g).solution)
    assert (g.n + 4) // 3 <= lit <= fbd <= engine <= (g.n + bad_vertices(g).k) / 2
    assert lit <= std
    assert sys.getrecursionlimit() == recursion_limit


# --- bounds and reports ---------------------------------------------


def test_bound_report_values():
    r = bound_report(snake(6))
    assert (r.n, r.t, r.k) == (6, 2, 2)
    assert (r.bound_zhuang_23, r.bound_zhuang_nt, r.bound_main) == (4.0, 4.0, 4.0)
    assert r.lower_bound == 3
    assert (r.exact_literal, r.exact_standard, r.exact_2dom) == (3, 4, 3)
    assert r.flags == {
        "ok_zhuang_23": True,
        "ok_zhuang_nt": True,
        "ok_main": True,
        "ok_lower": True,
    }


def test_bound_report_without_exact():
    r = bound_report(snake(20), with_exact=False)
    assert r.exact_literal is None and r.flags is None
    assert r.bound_main == (20 + r.k) / 2


def test_csv_round():
    assert csv_header() == ",".join(CSV_COLUMNS)
    assert (
        to_csv_row(bound_report(snake(6)))
        == "6,2,2,4,4,4,3,3,4,3,1,1,1,1"
    )
    assert (
        to_csv_row(bound_report(snake(6), with_exact=False))
        == "6,2,2,4,4,4,3,,,,,,,"
    )


REPORT_TEXT = {
    (6, True): (
        "BoundReport(n=6, t=2, k=2, exact_literal=3, exact_standard=4)",
        "6,2,2,4,4,4,3,3,4,3,1,1,1,1",
    ),
    (7, True): (
        "BoundReport(n=7, t=2, k=2, exact_literal=3, exact_standard=4)",
        "7,2,2,4.66667,4.5,4.5,3,3,4,3,1,1,1,1",
    ),
    (7, False): (
        "BoundReport(n=7, t=2, k=2, exact_literal=None, exact_standard=None)",
        "7,2,2,4.66667,4.5,4.5,3,,,,,,,",
    ),
}


@pytest.mark.parametrize("n, with_exact", list(REPORT_TEXT))
def test_bound_report_is_a_light_immutable_record(n, with_exact):
    r = bound_report(snake(n), with_exact=with_exact)
    text, row = REPORT_TEXT[n, with_exact]
    assert repr(r) == text and to_csv_row(r) == row
    lit, std = (3, 4) if with_exact else (None, None)
    assert r == BoundReport(n=n, t=2, k=2, exact_literal=lit, exact_standard=std)
    assert r == (n, 2, 2, lit, std) and tuple(r) == (n, 2, 2, lit, std)
    half = (n + 2) / 2
    bounds = {"bound_zhuang_23": 2 * n / 3, "bound_zhuang_nt": half, "bound_main": half}
    values = {"n": n, "t": 2, "k": 2, **bounds, "lower_bound": 3}
    values.update(exact_literal=lit, exact_standard=std, exact_2dom=lit)
    flags = dict.fromkeys(("ok_zhuang_23", "ok_zhuang_nt", "ok_main", "ok_lower"), True)
    assert r.flags == (flags if with_exact else None)
    assert r.to_obj() == ({**values, **flags} if with_exact else values)
    assert list(r.to_obj()) == list(CSV_COLUMNS[: len(r.to_obj())])
    with pytest.raises(AttributeError):
        r.n = 5
    with pytest.raises(AttributeError):
        r.extra = 1


def test_all_bounds_hold_on_a_slice():
    for g in enumerate_all(9, dedup=True):
        r = bound_report(g)
        assert r.flags is not None and all(r.flags.values())


def test_bound_reports_retain_little():
    graphs = [random_mop(18 + i % 5, 5000 + i) for i in range(200)]
    # The exact solver's memo is shared by the whole process, so one pass
    # over the same graphs fills it first; what stays after that is the
    # reports' own memory.
    for g in graphs:
        bound_report(g)
    tracemalloc.start()
    try:
        # A full collection also empties the interpreter's free lists, which
        # would otherwise count memory the reports have already given back.
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        reports = [bound_report(g) for g in graphs]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(reports) == len(graphs)
    assert retained <= 400 * len(graphs), retained / len(graphs)
    assert not any("adjacency" in vars(g) for g in graphs)


def test_size_only_reports_match_the_witness_pass():
    graphs = [g for n in range(4, 12) for g in enumerate_all(n)]
    graphs += [random_mop(n, seed) for n, seed in EXACT_RANDOM_CASES]
    # Far beyond the old limit of 22, and hub-heavy.
    graphs += [random_mop(n, 9000 + n) for n in range(23, 1001, 41)] + [random_mop(1000, 1)]
    graphs += [fan(333), snake(2000)]
    for g in graphs:
        r = bound_report(g)
        rep = bad_vertices(g)
        assert (r.t, r.k) == (rep.t, rep.k)
        assert r.exact_literal == exact_min_double_dom(g, "literal")[0]
        assert r.exact_standard == exact_min_double_dom(g, "standard")[0]


# --- the exact solver's memo ---------------------------------------------

VARIANTS = [(mode, forbid) for mode in ("literal", "standard") for forbid in (False, True)]


@pytest.fixture
def fresh_memo(monkeypatch):
    """Empty memos for the test, and the process's own back afterwards.
    Returns the registry itself, so it shows the memos that solves replace."""
    memos = {modes: domination._Classes(c.rules) for modes, c in domination._MEMOS.items()}
    monkeypatch.setattr(domination, "_MEMOS", memos)
    return memos


def solves(g):
    """Each exact solve of g with the memo it folds over: every variant's
    witness solve over its mode's memo, then the bound report's size-only
    pass over the memo of both modes."""
    for mode, forbid in VARIANTS:
        yield (mode == "standard",), functools.partial(exact_min_double_dom, g, mode, forbid)
    yield (False, True), functools.partial(bound_report, g)


def solve_all(graphs):
    return [run() for g in graphs for _, run in solves(g)]


def test_exact_memo_stays_under_its_cap(fresh_memo, monkeypatch):
    graphs = [random_mop(12 + i % 60, 6000 + i) for i in range(150)] + [fan(333), snake(2000)]
    want = solve_all(graphs)
    cap = 300
    monkeypatch.setattr(domination, "_MEMO_CAP", cap)
    got = []
    drops = dict.fromkeys(fresh_memo, 0)
    for g in graphs:
        for modes, run in solves(g):
            memo = fresh_memo[modes]
            got.append(run())
            # A solve drops a memo above the cap before it starts, and adds
            # at most one join per triangle.
            after = fresh_memo[modes]
            drops[modes] += after is not memo
            assert len(after.joins) <= cap + g.n - 2
    assert sum(drops.values()) > 10 and all(drops.values()), drops
    assert got == want


def test_hub_graphs_intern_no_new_classes(fresh_memo):
    def sizes(graphs):
        solve_all(graphs)
        return {modes: (len(c.tables), len(c.joins)) for modes, c in fresh_memo.items()}

    seen = sizes([fan(333), snake(2000)])
    # Pruned, the classes of hub sides close: once fan(333) and snake(2000)
    # have met them, longer fans and snakes add no class and no join, in any
    # memo.
    assert sizes([fan(1000), snake(8000), fan(333)]) == seen


def test_repeat_hub_solves_join_nothing(fresh_memo, monkeypatch):
    graphs = [fan(1000), snake(8000)]
    want = solve_all(graphs)
    calls = []
    real = domination._Classes.join

    def counted(self, a, b):
        calls.append((a, b))
        return real(self, a, b)

    monkeypatch.setattr(domination._Classes, "join", counted)
    assert solve_all(graphs) == want
    assert calls == []


def test_threads_share_the_memo(fresh_memo, monkeypatch):
    graphs = [random_mop(12 + i % 11, 7000 + i) for i in range(40)]

    def work():
        return [
            (exact_min_double_dom(g, "literal"), exact_min_double_dom(g, "standard"), bound_report(g))
            for g in graphs
        ]

    want = work()
    # A small cap makes the solves replace the memos under each other.
    monkeypatch.setattr(domination, "_MEMO_CAP", 40)
    fresh_memo.update((modes, domination._Classes(c.rules)) for modes, c in fresh_memo.items())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(work) for _ in range(4)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [want] * 4


def leaf_classes(g, forbid_deg2):
    """The leaf class of each outer-cycle edge (lo, lo + 1), as the witness
    solve sets them up."""
    top = [3] * g.n
    if forbid_deg2:
        for v in g.degree2_vertices():
            top[v] &= 1
            top[v - 1] &= 2
    return top


def test_chord_run_fold_joins_as_the_fan_fold_did(monkeypatch):
    fans = MopGraph.higher_neighbours

    def no_fans(self):
        raise AssertionError("the exact solver reads its fans off the chords")

    monkeypatch.setattr(MopGraph, "higher_neighbours", no_fans)
    graphs = [g for n in range(4, 12) for g in enumerate_all(n)]
    graphs += [random_mop(n, seed) for n, seed in EXACT_RANDOM_CASES]
    graphs += [random_mop(n, 9000 + n) for n in range(23, 1001, 41)] + [random_mop(1000, 1)]
    graphs += [fan(333), snake(2000)]
    # Separate fresh memos for the two folds: equal class ids after the same
    # graphs in the same order mean that both joined the same pairs in the
    # same order.
    new = {modes: domination._Classes(c.rules) for modes, c in domination._MEMOS.items()}
    old = {modes: domination._Classes(c.rules) for modes, c in new.items()}
    monkeypatch.setattr(domination, "_MEMOS", new)
    for g in graphs:
        up = fans(g)
        for modes in new:
            for forbid in (False, True):
                top, ref_top = leaf_classes(g, forbid), leaf_classes(g, forbid)
                _, root, offsets, back = domination._fold(modes, g.chords, top)
                _, ref_root, ref_offsets, ref_back = fold_reference.fold(old, modes, up, ref_top)
                assert (root, offsets, back) == (ref_root, ref_offsets, ref_back), (g, modes, forbid)
                assert top[: g.n - 1] == ref_top[: g.n - 1]
    assert all(len(c.tables) > 4 for c in new.values())
    assert [len(c.tables) for c in new.values()] == [len(c.tables) for c in old.values()]
    for g in graphs[-6:] + graphs[:200]:
        bound_report(g)
        for mode, forbid in VARIANTS:
            exact_min_double_dom(g, mode, forbid)


# --- the exact solver's dominance pruning ---------------------------------------------


def spelled_out_covers(standard):
    """{(e2, e): flips} for every end state e2 that covers state e, e itself
    included: with the same membership more supporters cover fewer, and
    _IN + 1 covers _IN; a member covers a non-member at one flip, in
    literal mode always, in standard mode as _IN + 1 always and as _IN over
    states 0 and 1 only."""
    IN = domination._IN
    top = IN + standard
    outs, ins = range(IN), range(IN, top + 1)
    cov = {}
    for group in (outs, ins):
        cov.update({(e2, e): 0 for e in group for e2 in group if e2 >= e})
    cov.update({(e2, e): 1 for e in outs for e2 in ins if not standard or e2 == top or e < 2})
    return cov


@pytest.mark.parametrize("standard", [False, True], ids=["literal", "standard"])
def test_covering_is_monotone_under_the_rules(standard):
    rules = domination._Rules(standard)
    states, join, done, inc = rules.states, rules.join, rules.done, rules.inc
    cov = spelled_out_covers(standard)
    for key in range(states * states):
        a, b = divmod(key, states)
        want = sorted(
            (a2 * states + b2, cov[a2, a] + cov[b2, b])
            for a2 in range(states)
            for b2 in range(states)
            if (a2, a) in cov and (b2, b) in cov and (a2, b2) != (a, b)
        )
        assert sorted(rules.covers[key]) == want

    def joined(lo, p, q, hi):
        return join[lo * states + p][q * states + hi]

    for (e2, e), flips in cov.items():
        assert done[e2] or not done[e]
        assert cov.get((inc[e2], inc[e])) == flips
        for x, p, q in itertools.product(range(states), repeat=3):
            # The cover at the lo end, then at the hi end: the row stays
            # defined, and its output covers at the same flips.
            for end, first, second in (
                (0, joined(e, p, q, x), joined(e2, p, q, x)),
                (1, joined(x, p, q, e), joined(x, p, q, e2)),
            ):
                if first is None:
                    continue
                assert second is not None and second[1] == first[1]
                out, out2 = divmod(first[0], states), divmod(second[0], states)
                assert out2[1 - end] == out[1 - end]
                assert cov.get((out2[end], out[end])) == flips
    # The apex: when a cover on one side puts it into S, the other side's
    # state with the apex put in, or any state that covers that, joins it.
    outs = range(domination._IN)
    put_in = {e: domination._IN + min(e, int(standard)) for e in outs}
    for a, p, q, b in itertools.product(range(states), outs, outs, range(states)):
        first = joined(a, p, q, b)
        if first is None:
            continue
        for (p2, p1), f in cov.items():
            for (q2, q1), g in cov.items():
                if (p1, q1, f, g) in ((p, put_in[q], 1, 0), (put_in[p], q, 0, 1)):
                    second = joined(a, p2, q2, b)
                    assert second is not None and second[1]
                    out, out2 = divmod(first[0], states), divmod(second[0], states)
                    assert cov.get((out2[0], out[0])) == 0
                    assert cov.get((out2[1], out[1])) == 0


def test_pruned_tables_stay_narrow(fresh_memo, monkeypatch):
    # Every class stays in the memo, so the check below sees them all.
    monkeypatch.setattr(domination, "_MEMO_CAP", 1 << 30)
    graphs = [g for n in range(4, 12) for g in enumerate_all(n)]
    graphs += [random_mop(12 + i % 69, 8000 + i) for i in range(100)] + [fan(1000), snake(5000)]
    solve_all(graphs)
    widest = {domination._LITERAL: 2, domination._STANDARD: 3}
    for memo in fresh_memo.values():
        assert len(memo.tables) > 4
        for tables in memo.tables:
            for rules, table in zip(memo.rules, tables, strict=True):
                m = len(table) // 3
                assert max(table[m : 2 * m], default=0) <= widest[rules]
