"""Graph families, named fixtures, exhaustive enumeration, uniform sampling."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator

from .errors import BadParameter, UnknownFixture
from .graph_core import Chord, MopGraph, _unchecked, build_mop

if TYPE_CHECKING:
    import numpy as np

MAX_ENUMERATE_N = 16


def fan(k: int) -> MopGraph:
    """Fan F_k on n = 3k + 1 vertices: hub 0, chords from 0 to 2..n-2.

    Its two degree-2 vertices are 1 and n-1; its exact double domination
    number is k + 1 in both modes."""
    if k < 1:
        raise BadParameter(f"fan needs k >= 1, got {k}")
    n = 3 * k + 1
    return build_mop(n, [(0, i) for i in range(2, n - 1)])


def snake(n: int) -> MopGraph:
    """Serpentine triangulation: chords zig-zag between low and high labels."""
    if n < 4:
        raise BadParameter(f"snake needs n >= 4, got {n}")
    chords: list[Chord] = [(1, n - 1)]
    lo, hi, move_hi = 1, n - 1, True
    while len(chords) < n - 3:
        if move_hi:
            hi -= 1
        else:
            lo += 1
        chords.append((lo, hi))
        move_hi = not move_hi
    return build_mop(n, chords)


_FIXTURES = {
    # Three fans of three glued onto a central triangle {2, 5, 8}; its three
    # degree-2 vertices are pairwise far apart (all gaps are 3), so k = 3 and
    # the main bound (9 + 3) / 2 = 6 is met with equality.
    "triforce9": lambda: build_mop(9, [(0, 2), (2, 5), (2, 8), (3, 5), (5, 8), (6, 8)]),
    # Smallest graph on which deleting all degree-2 vertices misbehaves for
    # the earlier reduction strategy: vertex 2 keeps degree 2 in the residue,
    # its outer neighbour 0 has degree 4, and {4, 3} are already adjacent.
    "aziz_gap": lambda: build_mop(5, [(0, 2), (0, 3)]),
}


def fixture(name: str) -> MopGraph:
    """Named fixture graphs used throughout the tests and docs."""
    try:
        make = _FIXTURES[name]
    except KeyError:
        raise UnknownFixture(f"unknown fixture {name!r}; have {sorted(_FIXTURES)}") from None
    return make()


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(_FIXTURES))


# --- enumeration ---------------------------------------------------------------


def _regions(lo: int, hi: int) -> Iterator[tuple[Chord, ...]]:
    """Chord sets of all triangulations of the polygon arc lo..hi closed by
    the edge (lo, hi)."""
    if hi - lo < 2:
        yield ()
        return
    for apex in range(lo + 1, hi):
        extra: list[Chord] = []
        if apex - lo > 1:
            extra.append((lo, apex))
        if hi - apex > 1:
            extra.append((apex, hi))
        for left in _regions(lo, apex):
            for right in _regions(apex, hi):
                yield left + right + tuple(extra)


def catalan(i: int) -> int:
    return math.comb(2 * i, i) // (i + 1)


def enumerate_all(n: int, dedup: bool = False) -> Iterator[MopGraph]:
    """Stream all labelled MOPs on n vertices (Catalan(n-2) of them).

    With dedup=True only dihedral canonical representatives are yielded: a
    graph is emitted iff it equals its own canonical form."""
    if not 3 <= n <= MAX_ENUMERATE_N:
        raise BadParameter(f"enumerate_all supports 3 <= n <= {MAX_ENUMERATE_N}, got {n}")
    from .graph_core import canonical_form

    for chords in _regions(0, n - 1):
        g = _unchecked(n, chords)
        if dedup and canonical_form(g)[0].chords != g.chords:
            continue
        yield g


# --- uniform random sampling ------------------------------------------------------


def _uniform_below(rng: np.random.Generator, bound: int) -> int:
    """Uniform integer in [0, bound) for arbitrary-precision bounds."""
    import numpy as np

    if bound <= 1:
        return 0
    bits = bound.bit_length()
    words = (bits + 63) // 64
    while True:
        x = 0
        for w in rng.integers(0, 2**64, size=words, dtype=np.uint64):
            x = (x << 64) | int(w)
        x >>= words * 64 - bits
        if x < bound:
            return x


def random_mop(n: int, seed: int) -> MopGraph:
    """Uniform random labelled MOP on n vertices.

    Sampling recursively picks the apex of each region's base edge with
    probability proportional to Catalan(left) * Catalan(right), using a
    Philox counter-based generator keyed by the seed, so results depend only
    on (n, seed)."""
    if n < 4:
        raise BadParameter(f"random_mop needs n >= 4, got {n}")
    if not isinstance(seed, int):
        raise BadParameter(f"seed must be an int, got {type(seed).__name__}")
    import numpy as np  # imported here so that importing the package stays light

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed & (2**64 - 1))))
    cat = [catalan(i) for i in range(n)]

    chords: list[Chord] = []
    stack = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        size = hi - lo - 1
        u = _uniform_below(rng, cat[size])
        apex = lo + 1
        for j in range(lo + 1, hi):
            w = cat[j - lo - 1] * cat[hi - j - 1]
            if u < w:
                apex = j
                break
            u -= w
        if apex - lo > 1:
            chords.append((lo, apex))
        if hi - apex > 1:
            chords.append((apex, hi))
        stack.append((lo, apex))
        stack.append((apex, hi))
    return _unchecked(n, chords)
