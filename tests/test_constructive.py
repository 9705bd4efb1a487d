import gc
import json
import re
import sys
import tracemalloc
from collections import Counter

import pytest

from mopdom import (
    BASE_MAX_N,
    BoundViolated,
    CertificationFailed,
    Deviation,
    NoRuleApplies,
    RuleMismatch,
    TooLarge,
    TooSmall,
    apply_rule,
    bad_vertices,
    base_case_solve,
    build_dual_tree,
    build_mop,
    certify,
    enumerate_all,
    exact_min_double_dom,
    fan,
    fixture,
    is_double_dominating,
    load_rules,
    match_branch_shape,
    random_mop,
    snake,
    solve_bound,
)
from mopdom import constructive

ROLE = re.compile(r"^[uv]\d+$")

# graphs engineered to exercise rules that almost never fire in the wild
SHARED_CORNER_9 = [(1, 3), (0, 3), (3, 5), (3, 6), (6, 8), (0, 6)]
THREE_MEDIUM_17 = [
    (1, 3), (0, 3), (0, 4), (0, 5), (7, 9), (7, 10), (6, 10), (5, 10),
    (5, 11), (5, 12), (14, 16), (0, 14), (0, 13), (0, 12),
]
PINWHEEL_21 = [
    (2, 4), (2, 5), (1, 5), (0, 5), (0, 6), (0, 7), (9, 11), (9, 12),
    (8, 12), (7, 12), (7, 13), (7, 14), (16, 18), (16, 19), (15, 19),
    (14, 19), (14, 20), (0, 14),
]


class TestRuleManifest:
    def test_every_deviation_variant_has_a_rule(self):
        deviations, _ = load_rules()
        assert set(deviations) == {
            "C2-1", "C2-2", "C3", "C4", "C5a", "C5b",
            "C6a", "C6b", "C6c", "C6d",
        }
        for variant, rule in deviations.items():
            assert rule.rule_id == variant

    def test_direct_rule(self):
        deviations, _ = load_rules()
        direct = deviations["C6b"]
        assert direct.kind == "direct"
        assert direct.direct == ("u2", "u3", "u6", "u8")
        assert not direct.delete

    def test_every_distance_pair_is_covered(self):
        _, sites = load_rules()
        assert set(sites) == {
            (1, 1), (1, 2), (1, 4), (1, 6), (2, 2), (2, 4),
            (2, 6), (4, 4), (4, 6), (6, 6),
        }
        for (ds, dt), rules in sites.items():
            assert ds <= dt
            for rule in rules:
                assert rule.kind == "site"
                assert rule.shared is not None
                assert rule.shared[0].startswith("u")
                assert rule.shared[1].startswith("v")

    def test_roles_are_well_formed(self):
        deviations, sites = load_rules()
        every = list(deviations.values()) + [r for rs in sites.values() for r in rs]
        # one rule id may list several shared-corner configurations, but the
        # (id, configuration) pair pins down a unique manifest entry
        keys = [(r.rule_id, r.shared) for r in every]
        assert len(set(keys)) == len(keys)
        for rule in every:
            for role in (
                rule.delete + rule.required + rule.addback + rule.direct
                + tuple(x for pair in rule.add_chords for x in pair)
            ):
                assert ROLE.match(role), (rule.rule_id, role)
            if rule.k_printed is not None:
                assert rule.k_printed["kind"] in ("eq", "le", "conditional")


class TestBaseCase:
    def test_matches_restricted_exact_solver(self):
        for n in range(4, 7):
            for g in enumerate_all(n):
                s = base_case_solve(g)
                size, witness = exact_min_double_dom(g, forbid_deg2=True)
                assert s == set(witness) and len(s) == size

    def test_solution_properties(self):
        g = snake(BASE_MAX_N)
        s = base_case_solve(g)
        assert is_double_dominating(g, s)
        assert not s & set(g.degree2_vertices())
        assert 2 * len(s) <= g.n + bad_vertices(g).k

    def test_size_gates(self):
        with pytest.raises(TooSmall):
            base_case_solve(build_mop(3, []))
        with pytest.raises(TooLarge):
            base_case_solve(snake(BASE_MAX_N + 1))


class TestApplyRule:
    def _first_deviation(self, variant):
        for g in enumerate_all(9):
            t = build_dual_tree(g)
            for leaf in t.leaves():
                res = match_branch_shape(g, t, leaf)
                if isinstance(res, Deviation) and res.variant == variant:
                    return g, res
        raise AssertionError(f"no {variant} deviation at n=9")

    def test_single_branch_reduction(self):
        deviations, _ = load_rules()
        g, dev = self._first_deviation("C2-1")
        rule = deviations["C2-1"]
        g2, remap = apply_rule(g, rule, dev.witness_labels)
        assert g2.n == g.n - len(rule.delete)
        assert sorted(remap) == sorted(
            v for v in range(g.n)
            if v not in {dev.witness_labels[r] for r in rule.delete}
        )

    def test_direct_rule_cannot_reduce(self):
        deviations, _ = load_rules()
        with pytest.raises(RuleMismatch):
            apply_rule(snake(9), deviations["C6b"], {"u2": 1})

    def test_missing_labels_rejected(self):
        deviations, _ = load_rules()
        with pytest.raises(RuleMismatch):
            apply_rule(snake(9), deviations["C2-1"], {"u3": 2})


class TestCertify:
    def test_accepts_good_solution(self):
        res = certify(snake(6), [1, 2, 4, 5])
        assert res.certified and res.reasons == ()
        assert res.k == 2 and res.bound == 4.0

    def test_rejects_low_coverage(self):
        res = certify(snake(6), [1, 2])
        assert not res.certified
        assert res.reasons == ("not double dominating",)

    def test_rejects_degree2_members(self):
        res = certify(snake(6), [0, 1, 3])  # valid cover, but 0 and 3 are tips
        assert not res.certified
        assert len(res.reasons) == 1 and "degree-2" in res.reasons[0]

    def test_rejects_oversized(self):
        res = certify(snake(9), [1, 2, 3, 5, 6, 7, 8])
        assert not res.certified
        assert len(res.reasons) == 1 and "exceeds" in res.reasons[0]

    def test_rejects_out_of_range(self):
        res = certify(snake(6), [1, 2, 4, 9])
        assert not res.certified and "outside" in res.reasons[0]

    def test_to_obj(self):
        obj = certify(snake(6), [1, 2, 4, 5]).to_obj()
        assert obj == {
            "n": 6, "k": 2, "bound": 4.0, "size": 4,
            "solution": [1, 2, 4, 5], "certified": True,
        }


class TestSolveBound:
    def test_small_graphs_use_base_case(self):
        for n in range(4, BASE_MAX_N + 1):
            res = solve_bound(snake(n))
            assert res.certified
            assert res.trace.rule_ids() == ("base_case",)
            assert res.trace.depth == 0

    def test_too_small(self):
        with pytest.raises(TooSmall):
            solve_bound(build_mop(3, []))

    def test_snakes_and_fans(self):
        for g in [snake(12), snake(25), snake(40), fan(3), fan(5), fan(8)]:
            res = solve_bound(g)
            assert res.certified
            assert is_double_dominating(g, res.solution)
            assert not res.solution & set(g.degree2_vertices())
            assert 2 * len(res.solution) <= g.n + res.k

    def test_known_traces(self):
        res = solve_bound(snake(12))
        assert sorted(res.solution) == [1, 3, 5, 7, 9, 11]
        assert res.trace.rule_ids() == ("C4", "base_case")

        res = solve_bound(fixture("triforce9"))
        assert len(res.solution) == 6 and res.bound == 6.0
        assert res.trace.rule_ids() == ("case_2_1a", "base_case")

        res = solve_bound(fan(4))
        assert res.trace.rule_ids() == ("C3", "C3", "C3", "base_case")

    def test_deep_recursion(self):
        res = solve_bound(snake(150))
        assert res.certified and len(res.solution) == 76
        assert res.trace.depth == 36

    def test_deep_inputs_ignore_the_recursion_limit(self):
        # One vertex of the fan has degree n - 1 = 9 999.
        limit = sys.getrecursionlimit()
        for g in (snake(10_000), fan(3333)):
            assert g.n == 10_000
            assert solve_bound(g).certified
        assert sys.getrecursionlimit() == limit

    def test_result_footprint(self):
        # Memory a caller keeps per result, the input graph excluded; about
        # 5.3 KB on Python 3.11.  The caches are warmed by a first solve.
        g = random_mop(400, 0)
        g.adjacency
        solve_bound(g)
        gc.collect()
        tracemalloc.start()
        try:
            res = solve_bound(g)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert res.certified
        assert kept <= 6 * 1024

    def test_engineered_rule_witnesses(self):
        res = solve_bound(build_mop(9, SHARED_CORNER_9))
        assert res.trace.rule_ids()[0] == "case_2_1_shared_u2v2"
        assert res.certified

        res = solve_bound(build_mop(17, THREE_MEDIUM_17))
        assert res.trace.rule_ids()[0] == "case_3_1c"
        assert res.certified

        res = solve_bound(build_mop(21, PINWHEEL_21))
        assert res.trace.rule_ids()[0] == "case_4"
        assert res.certified

    def test_exhaustive_small_sweep(self):
        soft = Counter()
        rules = Counter()
        for n in (9, 10):
            for g in enumerate_all(n):
                res = solve_bound(g)
                assert res.certified
                for key, v in res.trace.soft_failures().items():
                    soft[key] += v
                for rid in res.trace.rule_ids():
                    rules[rid] += 1
        assert soft["telescope"] == 0
        assert soft["size_exact"] == 0
        # the declared k movement for the two-tip merge (one bad vertex
        # lost) is wrong: k actually stays put, so its soft counter fires
        # exactly once per application of that rule
        assert soft["printed_k"] == rules["case_1_1"] == 133

    def test_trace_serializes(self):
        res = solve_bound(build_mop(21, PINWHEEL_21))
        steps = json.loads(res.trace.to_json())
        assert [s["rule"] for s in steps] == list(res.trace.rule_ids())
        for s in steps:
            assert s["n_before"] - s["n_after"] == len(s["deleted"])
            assert s["telescope_ok"] is True
        obj = res.to_obj()
        assert obj["certified"] is True
        assert obj["soft_failures"]["printed_k"] == 1  # one two-tip merge


class TestPermissiveFallback:
    def _gut_rules(self, monkeypatch):
        monkeypatch.setattr(constructive, "load_rules", lambda: ({}, {}))

    def test_strict_mode_raises(self, monkeypatch):
        self._gut_rules(monkeypatch)
        with pytest.raises(NoRuleApplies):
            solve_bound(snake(12))

    def test_permissive_mode_falls_back_to_exact(self, monkeypatch):
        self._gut_rules(monkeypatch)
        # The fallback has no size limit: 40 is beyond the old one of 22.
        for n in (12, 40):
            res = solve_bound(snake(n), permissive=True)
            assert res.certified
            assert res.trace.rule_ids() == ("exact_fallback",)


def test_bound_violated_is_unreachable_for_real_inputs():
    # no 4 <= n <= 8 graph can push the restricted optimum past (n+k)/2
    for n in range(4, BASE_MAX_N + 1):
        for g in enumerate_all(n, dedup=True):
            try:
                base_case_solve(g)
            except BoundViolated:  # pragma: no cover
                pytest.fail(f"bound violated on {g}")
