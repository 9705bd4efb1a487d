"""Acceptance suite: one test per shipped claim, run with

    pytest tests/test_acceptance.py -v

Each test prints a one-line summary (visible with -s or in the captured
output section); the suite is intentionally heavier than the unit tests and
re-derives every number it checks from scratch.
"""

import time
from collections import Counter

import numpy as np
import pytest
import scipy.stats

from mopdom import (
    DominationMode,
    Infeasible,
    bad_vertices,
    base_case_solve,
    build_dual_tree,
    build_mop,
    canonical_form,
    catalan,
    enumerate_all,
    exact_min_double_dom,
    exact_min_two_dom,
    fan,
    fixture,
    is_double_dominating,
    match_branch_shape,
    random_mop,
    recognize_mop,
    snake,
    solve_bound,
)

from naive_oracle import min_double_dom


def _report(line: str) -> None:
    print(line, flush=True)


def test_criterion_1_fan_exactness():
    t0 = time.time()
    for k in range(1, 7):
        g = fan(k)
        for mode in (DominationMode.literal, DominationMode.standard):
            size, witness = exact_min_double_dom(g, mode)
            assert size == k + 1, (k, mode, size)
            assert is_double_dominating(g, witness, mode)
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(f"criterion 1: PASS - fan k=1..6 both modes equal k+1 ({elapsed:.1f}s)")


def test_criterion_2_bounds_exhaustive_4_to_12():
    t0 = time.time()
    graphs = 0
    for n in range(4, 13):
        for g in enumerate_all(n):
            graphs += 1
            rep = bad_vertices(g)
            lit, _ = exact_min_double_dom(g, DominationMode.literal)
            assert 2 * lit <= g.n + rep.k, (g, lit)
            assert 2 * lit <= g.n + rep.t
            assert 3 * lit <= 2 * g.n
            assert lit >= (g.n + 4) // 3
            std, _ = exact_min_double_dom(g, DominationMode.standard)
            assert 2 * std <= g.n + rep.k, (g, std)
    elapsed = time.time() - t0
    assert graphs == 23712
    assert elapsed < 15 * 60
    _report(
        f"criterion 2: PASS - all bounds hold on {graphs} graphs, the standard-mode "
        f"(n+k)/2 included ({elapsed:.1f}s)"
    )


def test_criterion_3_restricted_minimum_fits_bound():
    t0 = time.time()
    graphs = 0
    for n in range(4, 9):
        for g in enumerate_all(n):
            graphs += 1
            s = base_case_solve(g)  # raises BoundViolated if the claim fails
            assert is_double_dominating(g, s)
            assert not s & set(g.degree2_vertices())
    elapsed = time.time() - t0
    assert graphs == 195
    _report(
        f"criterion 3: PASS - degree-2-avoiding minimum fits (n+k)/2 "
        f"on all {graphs} graphs with 4 <= n <= 8 ({elapsed:.1f}s)"
    )


def test_criterion_4_engine_strict_campaign():
    t0 = time.time()
    checked = 0

    def full_check(g):
        nonlocal checked
        res = solve_bound(g)  # strict: NoRuleApplies/CertificationFailed escalate
        assert res.certified
        assert is_double_dominating(g, res.solution)
        assert not res.solution & set(g.degree2_vertices())
        assert 2 * len(res.solution) <= g.n + res.k
        checked += 1

    for n in range(9, 14):
        for g in enumerate_all(n):
            full_check(g)
    exhaustive_elapsed = time.time() - t0
    assert checked == 82303
    assert exhaustive_elapsed < 30 * 60

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(1234567)))
    for _ in range(500):
        ni = int(rng.integers(14, 151))
        full_check(random_mop(ni, int(rng.integers(0, 1 << 63))))
    elapsed = time.time() - t0
    _report(
        f"criterion 4: PASS - engine certified {checked} instances "
        f"(exhaustive 9..13 in {exhaustive_elapsed:.1f}s, total {elapsed:.1f}s)"
    )


def test_criterion_5_tight_families():
    snake6, tri9 = snake(6), fixture("triforce9")
    results = {}
    for name, g in (("snake6", snake6), ("triforce9", tri9)):
        edges = g.edges()
        bound = (g.n + bad_vertices(g).k) / 2
        std = min_double_dom(g.n, edges, standard=True)
        restricted = min_double_dom(g.n, edges, forbidden=g.degree2_vertices())
        unrestricted = min_double_dom(g.n, edges)
        assert std is not None and restricted is not None and unrestricted is not None
        assert std[0] == bound, (name, std, bound)
        assert restricted[0] == bound, (name, restricted, bound)
        # the package solvers must agree with the naive scan
        assert exact_min_double_dom(g, "standard") == std
        assert exact_min_double_dom(g, forbid_deg2=True) == restricted
        assert exact_min_double_dom(g) == unrestricted
        results[name] = (g.n, int(bound), std[0], restricted[0], unrestricted[0])
    _report(
        "criterion 5: PASS - snake6 and triforce9 meet (n+k)/2 with equality "
        "in standard and degree-2-avoiding modes; unrestricted minima are "
        f"{results['snake6'][4]} and {results['triforce9'][4]} (reported)"
    )


def test_criterion_6_exact_solver_vs_naive_scan():
    t0 = time.time()
    compared = 0
    for n in range(3, 10):
        for g in enumerate_all(n):
            edges = g.edges()
            for standard in (False, True):
                mode = DominationMode.standard if standard else DominationMode.literal
                got = exact_min_double_dom(g, mode)
                assert got == min_double_dom(n, edges, standard=standard)
            two = exact_min_two_dom(g)
            assert two == min_double_dom(n, edges)
            forbidden = g.degree2_vertices()
            want = min_double_dom(n, edges, forbidden=forbidden)
            if want is None:
                with pytest.raises(Infeasible):
                    exact_min_double_dom(g, forbid_deg2=True)
            else:
                assert exact_min_double_dom(g, forbid_deg2=True) == want
            compared += 1
    elapsed = time.time() - t0
    assert compared == 625
    _report(
        f"criterion 6: PASS - exact solver matches the subset scan on all "
        f"{compared} graphs with n <= 9, every mode and flag ({elapsed:.1f}s)"
    )


def test_criterion_7_generators():
    t0 = time.time()
    for n in range(3, 13):
        assert sum(1 for _ in enumerate_all(n)) == catalan(n - 2)

    # uniformity: chi-square over the 14 labelled graphs on 6 vertices
    samples = 14000
    tally = Counter(random_mop(6, 12345 + i).chords for i in range(samples))
    assert len(tally) == 14
    _, p = scipy.stats.chisquare(list(tally.values()))
    assert p >= 0.001, f"uniformity rejected: p={p:.5f}"

    # recognition inverts generation for every instance
    roundtrips = 0
    for n in range(3, 13):
        for g in enumerate_all(n):
            canon, _ = recognize_mop(g.edges())
            assert canon.chords == canonical_form(g)[0].chords
            roundtrips += 1
    elapsed = time.time() - t0
    _report(
        f"criterion 7: PASS - Catalan counts n <= 12, uniform sampling "
        f"(chi-square p={p:.4f}), {roundtrips} recognition round-trips ({elapsed:.1f}s)"
    )


def test_criterion_8_dual_structure():
    t0 = time.time()
    for n in range(4, 13):
        for g in enumerate_all(n):
            t = build_dual_tree(g)
            assert len(t.leaves()) == len(g.degree2_vertices())
            internal = sum(1 for tr in t.triangles if tr.kind == "internal")
            deg3 = sum(1 for i in range(n - 2) if t.degree(i) == 3)
            assert internal == deg3
    matched = 0
    for n in range(9, 13):
        for g in enumerate_all(n):
            t = build_dual_tree(g)
            for leaf in t.leaves():
                match_branch_shape(g, t, leaf)  # must never raise
                matched += 1
    elapsed = time.time() - t0
    _report(
        f"criterion 8: PASS - leaves == degree-2 vertices and internal "
        f"triangles == degree-3 dual nodes (4 <= n <= 12); branch matching "
        f"total on {matched} leaf walks ({elapsed:.1f}s)"
    )
