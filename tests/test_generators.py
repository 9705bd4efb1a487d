import hashlib
import random
import subprocess
import sys
from pathlib import Path

import pytest

from mopdom import (
    MAX_ENUMERATE_N,
    BadParameter,
    UnknownFixture,
    build_mop,
    canonical_form,
    catalan,
    enumerate_all,
    fan,
    fixture,
    fixture_names,
    random_mop,
    snake,
    solve_bound,
)
from mopdom.generators import Philox, _seed_key

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]

# dihedral equivalence classes of n-gon triangulations, cross-checked by an
# independent orbit count over the 2n symmetries
DEDUP_COUNTS = {3: 1, 4: 1, 5: 1, 6: 3, 7: 4, 8: 12, 9: 27, 10: 82}


def test_catalan_values():
    assert [catalan(i) for i in range(11)] == CATALAN


def test_fan_shape():
    g = fan(2)
    assert g.n == 7
    assert g.chords == ((0, 2), (0, 3), (0, 4), (0, 5))
    for k in (1, 3, 5):
        f = fan(k)
        assert f.n == 3 * k + 1
        assert f.degree2_vertices() == (1, f.n - 1)
        assert len(f.adjacency[0]) == f.n - 1  # hub sees everyone
    with pytest.raises(BadParameter):
        fan(0)


def test_snake_shape():
    assert snake(4).chords == ((1, 3),)
    assert snake(7).chords == ((1, 5), (1, 6), (2, 4), (2, 5))
    for n in range(4, 20):
        s = snake(n)
        assert s.n == n and len(s.chords) == n - 3
        # serpentine: every vertex degree is at most 4
        assert max(len(s.adjacency[v]) for v in range(n)) <= 4
    with pytest.raises(BadParameter):
        snake(3)


def test_fixtures():
    assert fixture_names() == ("aziz_gap", "triforce9")
    assert fixture("triforce9").n == 9
    assert fixture("aziz_gap").chords == ((0, 2), (0, 3))
    with pytest.raises(UnknownFixture):
        fixture("nope")


def test_enumeration_counts_are_catalan():
    for n in range(3, 10):
        graphs = list(enumerate_all(n))
        assert len(graphs) == catalan(n - 2)
        assert len({g.chords for g in graphs}) == len(graphs)


def test_enumeration_yields_valid_graphs():
    for g in enumerate_all(7):
        # rebuilding through the validating constructor must agree
        assert build_mop(g.n, g.chords) == g


def test_enumeration_range_checks():
    with pytest.raises(BadParameter):
        list(enumerate_all(2))
    with pytest.raises(BadParameter):
        list(enumerate_all(MAX_ENUMERATE_N + 1))


def test_dedup_counts_and_canonicity():
    for n, expected in DEDUP_COUNTS.items():
        reps = list(enumerate_all(n, dedup=True))
        assert len(reps) == expected
        for g in reps:
            assert canonical_form(g)[0].chords == g.chords


def test_random_mop_is_deterministic():
    a = random_mop(12, 999)
    assert a == random_mop(12, 999)
    assert a.chords == (
        (0, 9), (0, 10), (1, 3), (1, 4), (1, 8), (1, 9), (4, 6), (4, 7), (4, 8),
    )
    assert random_mop(12, 1000) != a


def test_random_mop_produces_valid_graphs():
    for seed in range(25):
        g = random_mop(4 + seed, seed)
        assert build_mop(g.n, g.chords) == g


def test_random_mop_covers_all_labelled_graphs():
    # every one of the Catalan(4) = 14 labelled graphs on 6 vertices shows up
    seen = {random_mop(6, s).chords for s in range(1400)}
    assert len(seen) == 14


def test_random_mop_rejects_bad_parameters():
    with pytest.raises(BadParameter):
        random_mop(3, 1)
    with pytest.raises(BadParameter):
        random_mop(10, "seed")  # type: ignore[arg-type]


# --- pinned random output ----------------------------------------------------
#
# random_mop's chords depend only on (n, seed).  These digests were taken from
# the generator that drew its words from NumPy's Philox and scanned every
# region from the left, so any later rewrite must reproduce them exactly.

EDGE_SEEDS = (
    0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1, -1, -(2**40) - 3, 2**64, 2**64 + 5, 2**70 + 11,
)


def _chords_digest(cases):
    h = hashlib.sha256()
    for n, seed in cases:
        h.update(f"{n},{seed}:{random_mop(n, seed).chords}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "cases, digest",
    [
        ([(n, s) for n in range(4, 41) for s in (0, 1, 2, 3, 7, 999)],
         "371c99ee096d2c7ef5c74e17832475275e037510bf6ad3c862feb462066a6649"),
        ([(400, s) for s in range(4)] + [(1000, s) for s in range(3)],
         "d3e87a155e10d1519fc1a75e4bafa44afbbb34dededf55eff15fa50c81ab8e57"),
        ([(n, s) for n in (4, 5, 9, 30, 120) for s in EDGE_SEEDS],
         "a8b6c07bb6bb51be6870950662b1b6741d27c8df00f7d64d6718a445e53759c9"),
    ],
    ids=["n4_40", "n400_1000", "edge_seeds"],
)
def test_random_mop_chords_pinned(cases, digest):
    assert _chords_digest(cases) == digest


def test_seed_is_masked_to_64_bits():
    for n in (9, 40):
        assert random_mop(n, -1) == random_mop(n, 2**64 - 1)
        assert random_mop(n, 2**64 + 5) == random_mop(n, 5)


# --- the Philox stream against NumPy (tests only; the package never imports it)

_pick = random.Random(17)
STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1] + [
    _pick.getrandbits(_pick.randrange(1, 65)) for _ in range(200)
]


def test_philox_words_match_numpy():
    np = pytest.importorskip("numpy")
    for seed in STREAM_SEEDS:
        state = np.random.SeedSequence(seed).generate_state(2, np.uint64)
        assert _seed_key(seed) == tuple(int(w) for w in state)
        expected = [int(w) for w in np.random.Philox(np.random.SeedSequence(seed)).random_raw(23)]
        assert Philox(seed).random_raw(23) == expected
        # draws that straddle block boundaries read the same words
        stream = Philox(seed)
        assert [w for m in (1, 2, 3, 5, 1, 11) for w in stream.random_raw(m)] == expected


# (lo, hi) pairs for integers(lo, hi): no draw, 32-bit Lemire with and without
# frequent rejection, the integers(0, 2**32) boundary that still draws 32
# bits, and 64-bit Lemire including the campaign's integers(0, 1 << 63).
INTEGER_RANGES = [
    (10, 11), (4, 201), (14, 61), (3, 2**31 + 10), (0, 2**32 - 1), (0, 2**32),
    (-5, 2**32 - 5), (0, 2**32 + 1), (0, 1 << 63), (-(2**62), 2**62 + 5), (-(2**63), 2**63 - 1),
]


def test_integers_match_numpy():
    np = pytest.importorskip("numpy")
    for seed in STREAM_SEEDS[:6] + list(range(300)):
        ours = Philox(seed)
        theirs = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        pick = random.Random(seed)
        for _ in range(50):
            lo, hi = pick.choice(INTEGER_RANGES)
            assert ours.integers(lo, hi) == int(theirs.integers(lo, hi)), (seed, lo, hi)
            if pick.random() < 0.2:
                # raw 64-bit words leave a kept 32-bit half for the next 32-bit draw
                m = pick.randrange(1, 6)
                expected = [int(w) for w in theirs.integers(0, 2**64, size=m, dtype=np.uint64)]
                assert ours.random_raw(m) == expected, (seed, m)


# --- numpy stays out, and large n is cheap ------------------------------------


@pytest.mark.parametrize(
    "code",
    [
        "from mopdom import random_mop; random_mop(400, 1)",
        "from mopdom.cli import run; "
        "run(['stress', '--n-min', '9', '--n-max', '9', '--random-count', '3'])",
    ],
    ids=["random_mop", "stress"],
)
def test_numpy_is_never_imported(code):
    src = Path(__file__).resolve().parents[1] / "src"
    probe = f"import sys; sys.path.insert(0, {str(src)!r}); {code}; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "False"


def test_random_mop_scales_to_ten_thousand():
    g = random_mop(10_000, 3)
    assert build_mop(g.n, g.chords) == g
    assert solve_bound(g).certified

