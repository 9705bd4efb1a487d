from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopdom import graph_core
from mopdom import (
    CrossingChords,
    DuplicateOrDegenerateChord,
    EmptyOrDisconnected,
    MopGraph,
    NotMaximalOuterplanar,
    ResultNotMaximalOuterplanar,
    VertexOutOfRange,
    WrongChordCount,
    build_mop,
    canonical_form,
    enumerate_all,
    fan,
    from_json,
    neighbors,
    parse_edge_list,
    random_mop,
    recognize_mop,
    reduce_graph,
    same_up_to_relabelling,
    snake,
    to_dot,
    to_edge_list,
    to_json,
)

mops = st.builds(
    random_mop,
    st.integers(min_value=4, max_value=40),
    st.integers(min_value=0, max_value=2**63),
)


# --- construction and validation ---------------------------------------------


def test_triangle_has_no_chords():
    g = build_mop(3, [])
    assert g.n == 3 and g.chords == ()
    assert g.degree2_vertices() == (0, 1, 2)


def test_square_needs_exactly_one_chord():
    g = build_mop(4, [(0, 2)])
    assert g.m == 5
    with pytest.raises(WrongChordCount):
        build_mop(4, [])
    with pytest.raises(WrongChordCount):
        build_mop(4, [(0, 2), (1, 3)])


def test_chord_validation_errors():
    with pytest.raises(VertexOutOfRange):
        build_mop(5, [(0, 2), (1, 5)])
    with pytest.raises(DuplicateOrDegenerateChord):
        build_mop(5, [(0, 2), (2, 2)])
    with pytest.raises(DuplicateOrDegenerateChord):
        build_mop(5, [(0, 2), (3, 4)])  # outer-cycle edge
    with pytest.raises(DuplicateOrDegenerateChord):
        build_mop(6, [(0, 2), (2, 0), (2, 4)])
    with pytest.raises(CrossingChords):
        build_mop(5, [(0, 2), (1, 3)])


def _brute_crossing(chords):
    """First interleaving pair of a sorted chord list, by the plain pair scan."""
    for i, (a, b) in enumerate(chords):
        for c, d in chords[i + 1 :]:
            if a < c < b < d or c < a < d < b:
                return (a, b), (c, d)
    return None


@st.composite
def chord_sets(draw):
    """Distinct non-side chords of an n-gon, n in 4..16: either the chords of
    a random triangulation with some swapped for arbitrary ones, or a plain
    random selection."""
    n = draw(st.integers(min_value=4, max_value=16))
    every = [(a, b) for a in range(n) for b in range(a + 2, n) if (a, b) != (0, n - 1)]
    if draw(st.booleans()):
        chords = set(random_mop(n, draw(st.integers(0, 2**32))).chords)
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            if chords:
                chords.discard(draw(st.sampled_from(sorted(chords))))
                chords.add(draw(st.sampled_from(every)))
    else:
        chords = set(draw(st.lists(st.sampled_from(every), max_size=n)))
    return n, sorted(chords)


@settings(max_examples=400, deadline=None)
@given(chord_sets())
def test_fast_crossing_check_agrees_with_pair_scan(case):
    n, chords = case
    expected = _brute_crossing(chords)
    assert graph_core._non_crossing(chords) == (expected is None)
    if len(chords) == n - 3:
        if expected is None:
            assert build_mop(n, chords).chords == tuple(chords)
        else:
            with pytest.raises(CrossingChords) as exc:
                build_mop(n, reversed(chords))
            assert str(exc.value) == f"chords {expected[0]!r} and {expected[1]!r} cross"


def test_crossing_messages_name_the_first_pair():
    with pytest.raises(CrossingChords, match=r"^chords \(0, 3\) and \(1, 4\) cross$"):
        build_mop(6, [(0, 3), (1, 4), (2, 5)])
    with pytest.raises(CrossingChords, match=r"^chords \(0, 4\) and \(1, 5\) cross$"):
        build_mop(8, [(2, 6), (0, 4), (1, 5), (3, 7), (5, 7)])


def test_chords_are_normalized_and_sorted():
    g = build_mop(6, [(4, 2), (5, 1), (1, 4)])
    assert g.chords == ((1, 4), (1, 5), (2, 4))


def test_n_below_three_always_fails():
    with pytest.raises(WrongChordCount):
        build_mop(2, [])


@given(mops)
@settings(max_examples=60, deadline=None)
def test_edge_count_invariant(g: MopGraph):
    assert g.m == 2 * g.n - 3
    assert len(g.edges()) == g.m


@given(mops)
@settings(max_examples=60, deadline=None)
def test_degree2_iff_chordless(g: MopGraph):
    in_chord = {v for c in g.chords for v in c}
    for v in range(g.n):
        assert (len(neighbors(g, v)) == 2) == (v not in in_chord)


# --- reduction ---------------------------------------------


def test_reduce_relabels_by_rank():
    g = snake(8)
    g2, remap = reduce_graph(g, [0, 3])
    assert g2.n == 6
    assert remap == {1: 0, 2: 1, 4: 2, 5: 3, 6: 4, 7: 5}


def test_reduce_added_chord_may_become_cycle_edge():
    # deleting vertex 1 makes {0, 2} consecutive, so the added chord
    # silently turns into an outer-cycle edge of the result
    g = build_mop(5, [(0, 2), (0, 3)])
    g2, _ = reduce_graph(g, [1], [(0, 2)])
    assert g2.n == 4


def test_reduce_rejects_non_mop_results():
    with pytest.raises(ResultNotMaximalOuterplanar):
        reduce_graph(snake(6), [0, 1, 2, 3])  # 2 survivors
    # removing the fan hub strands the rim with no chords at all
    with pytest.raises(ResultNotMaximalOuterplanar):
        reduce_graph(fan(2), [0])


# --- recognition ---------------------------------------------


def test_recognize_roundtrip_with_scrambled_ids():
    g = snake(7)
    renamed = [(f"x{a}", f"x{b}") for a, b in g.edges()]
    canon, labelling = recognize_mop(renamed)
    assert same_up_to_relabelling(canon, g)
    assert sorted(labelling) == sorted(f"x{v}" for v in range(7))
    # the labelling must map the edge list onto the canonical graph
    canon_edges = set(canon.edges())
    for a, b in renamed:
        x, y = labelling[a], labelling[b]
        assert (min(x, y), max(x, y)) in canon_edges


def test_recognize_rejects_k23_plus_edge():
    # right edge count, right degree sequence start, but not outerplanar
    edges = [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    with pytest.raises(NotMaximalOuterplanar):
        recognize_mop(edges)


def test_recognize_rejects_wrong_count_and_disconnected():
    with pytest.raises(NotMaximalOuterplanar):
        recognize_mop([(0, 1), (1, 2), (2, 0), (0, 3)])
    with pytest.raises(EmptyOrDisconnected):
        recognize_mop([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 2)])
    with pytest.raises(EmptyOrDisconnected):
        recognize_mop([])


@given(mops)
@settings(max_examples=40, deadline=None)
def test_recognize_inverts_edge_lists(g: MopGraph):
    canon, _ = recognize_mop(g.edges())
    assert canon.chords == canonical_form(g)[0].chords


def _oracle_mop(edges):
    """The canonical MOP of an edge list by brute force, or None: try every
    Hamiltonian cycle of the edges and let build_mop judge the other edges."""
    distinct = {frozenset(e) for e in edges}
    verts = sorted({v for e in distinct for v in e}, key=repr)
    n = len(verts)
    for rest in itertools.permutations(verts[1:]):
        order = (verts[0], *rest)
        if any(frozenset((order[i - 1], order[i])) not in distinct for i in range(n)):
            continue
        pos = {v: i for i, v in enumerate(order)}
        cycle = {frozenset((order[i - 1], order[i])) for i in range(n)}
        chords = [sorted(pos[v] for v in e) for e in distinct - cycle]
        try:
            return canonical_form(build_mop(n, chords))[0]
        except (WrongChordCount, DuplicateOrDegenerateChord, CrossingChords):
            continue
    return None


def _connected(edges) -> bool:
    reached = {edges[0][0]}
    while grown := {v for e in edges if reached & set(e) for v in e} - reached:
        reached |= grown
    return all(a in reached for a, _ in edges)


def _random_edge_set(rng: random.Random) -> list:
    n = rng.randint(3, 7)
    pairs = list(itertools.combinations(range(n), 2))
    kind = rng.randrange(5)
    if kind == 0:  # a MOP under a random labelling
        g = random_mop(n, rng.randrange(2**32)) if n > 3 else build_mop(3, [])
        perm = list(range(g.n))
        rng.shuffle(perm)
        edges = [(perm[a], perm[b]) for a, b in g.edges()]
    elif kind == 1:  # a MOP with one edge moved elsewhere
        g = random_mop(max(n, 4), rng.randrange(2**32))
        edges = g.edges()
        free = [p for p in itertools.combinations(range(g.n), 2) if p not in edges]
        edges.remove(rng.choice(edges))
        edges.append(rng.choice(free))
    elif kind == 2:  # any 2n - 3 distinct pairs
        edges = rng.sample(pairs, min(2 * n - 3, len(pairs)))
    elif kind == 3:  # a count off by one
        edges = rng.sample(pairs, min(2 * n - 3 + rng.choice((-1, 1)), len(pairs)))
    else:  # a MOP and a separate edge
        k = min(n, 5)
        g = random_mop(k, rng.randrange(2**32)) if k > 3 else build_mop(3, [])
        edges = g.edges() + [(k, k + 1)]
    edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]
    if rng.random() < 0.2:
        edges += [e[::-1] for e in rng.sample(edges, rng.randint(1, min(3, len(edges))))]
    if rng.random() < 0.3:
        edges = [(f"v{a}", f"v{b}") for a, b in edges]
    rng.shuffle(edges)
    return edges


def test_recognize_agrees_with_brute_force_oracle():
    rng = random.Random(2024)
    accepted = 0
    for _ in range(3000):
        edges = _random_edge_set(rng)
        expected = _oracle_mop(edges)
        if expected is None:
            error = NotMaximalOuterplanar if _connected(edges) else EmptyOrDisconnected
            with pytest.raises(error):
                recognize_mop(edges)
            continue
        accepted += 1
        canon, labelling = recognize_mop(edges)
        assert canon == expected, edges
        assert {tuple(sorted((labelling[a], labelling[b]))) for a, b in edges} == set(
            canon.edges()
        )
    assert 800 < accepted < 2200  # both verdicts are well exercised


def test_recognize_roundtrips_every_small_mop():
    rng = random.Random(7)
    for n in range(3, 11):
        for g in enumerate_all(n):
            names = [f"id{i}" for i in range(n)]
            rng.shuffle(names)
            edges = [(names[a], names[b]) for a, b in g.edges()]
            rng.shuffle(edges)
            canon, labelling = recognize_mop(edges)
            assert canon == canonical_form(g)[0]
            canon_edges = set(canon.edges())
            for a, b in edges:
                x, y = labelling[a], labelling[b]
                assert (min(x, y), max(x, y)) in canon_edges


# --- canonical form ---------------------------------------------


def test_canonical_is_idempotent_and_dihedral():
    for g in enumerate_all(7):
        canon, mapping = canonical_form(g)
        assert canonical_form(canon)[0].chords == canon.chords
        assert sorted(mapping.values()) == list(range(7))
        assert same_up_to_relabelling(g, canon)


def _canonical_by_full_scan(g):
    """canonical_form's reference: all 2n rotations and reflections, the
    smallest chord tuple winning, ties to the smallest (reflection, rotation)."""
    n = g.n
    best, best_rr = None, None
    for refl in (0, 1):
        for rot in range(n):
            cand = graph_core._transformed_chords(n, g.chords, rot, bool(refl))
            if best is None or cand < best:
                best, best_rr = cand, (refl, rot)
    refl, rot = best_rr
    mapping = {v: ((rot - v) if refl else (v - rot)) % n for v in range(n)}
    return MopGraph(n=n, chords=best), mapping


def test_canonical_form_equals_the_full_scan():
    graphs = [g for n in range(3, 12) for g in enumerate_all(n)]
    graphs += [fan(40), snake(41)]
    graphs += [random_mop(n, seed) for n in (12, 13, 25, 64, 150, 300) for seed in range(4)]
    for g in graphs:
        assert canonical_form(g) == _canonical_by_full_scan(g)
    assert canonical_form(build_mop(3, [])) == (build_mop(3, []), {0: 0, 1: 1, 2: 2})


def test_same_up_to_relabelling_distinguishes():
    a = build_mop(6, [(0, 2), (0, 3), (0, 4)])  # fan-like
    b = snake(6)
    assert not same_up_to_relabelling(a, b)
    assert same_up_to_relabelling(a, a)


# --- serialization ---------------------------------------------


@given(mops)
@settings(max_examples=40, deadline=None)
def test_json_roundtrip(g: MopGraph):
    assert from_json(to_json(g)) == g


def test_from_json_rejects_garbage():
    with pytest.raises(NotMaximalOuterplanar):
        from_json('{"nodes": 5}')


def test_edge_list_roundtrip():
    g = snake(9)
    text = to_edge_list(g)
    pairs = parse_edge_list("# comment\n" + text + "\n\n")
    canon, _ = recognize_mop(pairs)
    assert same_up_to_relabelling(canon, g)


def test_dot_mentions_every_edge():
    g = build_mop(5, [(0, 2), (2, 4)])
    dot = to_dot(g)
    assert dot.count(" -- ") == g.m
    assert "style=dashed" in dot
