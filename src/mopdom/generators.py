"""Graph families, named fixtures, exhaustive enumeration, uniform sampling."""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from .errors import BadParameter, UnknownFixture
from .graph_core import Chord, MopGraph, _unchecked, build_mop

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


_LISTED = 9  # arcs of at most this many edges have at most Catalan(8) = 1430 chord sets


def _regions(lo: int, hi: int, listed: dict) -> Iterable[tuple[Chord, ...]]:
    """Chord sets of all triangulations of the polygon arc lo..hi closed by
    the edge (lo, hi).  An arc of at most _LISTED edges is walked once per
    enumeration and kept in ``listed``; a longer one is walked again for
    each chord set on its left, so that memory stays small."""
    if hi - lo > _LISTED:
        return _walk_regions(lo, hi, listed)
    got = listed.get((lo, hi))
    if got is None:
        got = listed[lo, hi] = list(_walk_regions(lo, hi, listed))
    return got


def _walk_regions(lo: int, hi: int, listed: dict) -> Iterator[tuple[Chord, ...]]:
    if hi - lo < 2:
        yield ()
        return
    for apex in range(lo + 1, hi):
        extra: list[Chord] = []
        if apex - lo > 1:
            extra.append((lo, apex))
        if hi - apex > 1:
            extra.append((apex, hi))
        tail = tuple(extra)
        for left in _regions(lo, apex, listed):
            for right in _regions(apex, hi, listed):
                yield left + right + tail


def catalan(i: int) -> int:
    return math.comb(2 * i, i) // (i + 1)


def enumerate_all(n: int, dedup: bool = False) -> Iterator[MopGraph]:
    """Stream all labelled MOPs on n vertices (Catalan(n-2) of them).

    With dedup=True only dihedral canonical representatives are yielded: a
    graph is emitted iff it equals its own canonical form."""
    if not 3 <= n <= MAX_ENUMERATE_N:
        raise BadParameter(f"enumerate_all supports 3 <= n <= {MAX_ENUMERATE_N}, got {n}")
    from .graph_core import canonical_form

    for chords in _regions(0, n - 1, {}):
        g = _unchecked(n, chords)
        if dedup and canonical_form(g)[0].chords != g.chords:
            continue
        yield g


# --- uniform random sampling ------------------------------------------------------

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


def _seed_key(seed: int) -> tuple[int, int]:
    """The Philox key NumPy derives from ``SeedSequence(seed)`` for
    0 <= seed < 2**64: O'Neill's seed_seq hash mixes the seed's 32-bit words
    into a pool of four, and ``generate_state(2, uint64)`` reads two
    little-endian word pairs out of it."""
    entropy = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    mult = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal mult
        value ^= mult
        mult = mult * 0x931E8875 & _MASK32
        value = value * mult & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src])) & _MASK32
                pool[dst] = mixed ^ mixed >> 16
    mult = 0x8B51F9DD
    state = []
    for word in pool:
        word ^= mult
        mult = mult * 0x58F38DED & _MASK32
        word = word * mult & _MASK32
        state.append(word ^ word >> 16)
    return state[0] | state[1] << 32, state[2] | state[3] << 32


class Philox:
    """Philox4x64-10 (Salmon et al., SC'11) drawn exactly as NumPy's
    ``Generator(Philox(SeedSequence(seed & (2**64 - 1))))`` draws it, so a
    seed gives the same graphs with or without NumPy installed.

    The 256-bit counter starts at 0 and is bumped before each block; a
    block yields four 64-bit words in order.  A 32-bit draw takes the low
    half of a fresh word and keeps the high half for the next 32-bit draw;
    64-bit draws leave that half alone."""

    __slots__ = ("_keys", "_ctr", "_buf", "_half")

    def __init__(self, seed: int) -> None:
        k0, k1 = _seed_key(seed & _MASK64)
        # the key is bumped by the Weyl constants between the ten rounds
        self._keys = tuple(
            ((k0 + r * 0x9E3779B97F4A7C15) & _MASK64, (k1 + r * 0xBB67AE8584CAA73B) & _MASK64)
            for r in range(10)
        )
        self._ctr = 0
        self._buf: list[int] = []
        self._half: int | None = None

    def _block(self) -> list[int]:
        self._ctr += 1
        c = self._ctr
        c0, c1, c2, c3 = c & _MASK64, c >> 64 & _MASK64, c >> 128 & _MASK64, c >> 192 & _MASK64
        for k0, k1 in self._keys:
            p0 = 0xD2E7470EE14C6C93 * c0
            p1 = 0xCA5A826395121157 * c2
            c0, c1, c2, c3 = p1 >> 64 ^ c1 ^ k0, p1 & _MASK64, p0 >> 64 ^ c3 ^ k1, p0 & _MASK64
        return [c0, c1, c2, c3]

    def random_raw(self, count: int) -> list[int]:
        """The next ``count`` 64-bit words of the stream."""
        buf = self._buf
        while len(buf) < count:
            buf += self._block()
        self._buf = buf[count:]
        return buf[:count]

    def _next64(self) -> int:
        return self.random_raw(1)[0]

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _MASK32

    def integers(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi), as NumPy's scalar
        ``Generator.integers(lo, hi)``: Lemire's multiply-and-reject on
        32-bit draws when hi - 1 - lo fits in 32 bits, on 64-bit draws
        otherwise, and no draw at all when lo == hi - 1.  At a full range
        (hi - lo == 2**32 or 2**64) the draw is returned as it is."""
        rng = hi - 1 - lo
        if rng == 0:
            return lo
        bits, draw = (32, self._next32) if rng <= _MASK32 else (64, self._next64)
        mask = (1 << bits) - 1
        excl = rng + 1
        m = draw() * excl
        if m & mask < excl:
            threshold = (mask - rng) % excl
            while m & mask < threshold:
                m = draw() * excl
        return lo + (m >> bits)


def _uniform_below(rng: Philox, bound: int) -> int:
    """Uniform integer in [0, bound) for arbitrary-precision bounds: the top
    bits of just enough words, first word most significant, rejected until
    below ``bound``."""
    if bound <= 1:
        return 0
    bits = bound.bit_length()
    words = (bits + 63) // 64
    while True:
        x = 0
        for w in rng.random_raw(words):
            x = x << 64 | w
        x >>= words * 64 - bits
        if x < bound:
            return x


def random_mop(n: int, seed: int) -> MopGraph:
    """Uniform random labelled MOP on n vertices.

    Sampling recursively picks the apex of each region's base edge with
    probability proportional to Catalan(left) * Catalan(right), using a
    Philox counter-based generator keyed by the seed, so results depend only
    on (n, seed).  Apex weights are U-shaped, so a draw in the upper half of
    the total is located by scanning from the right end instead; the apex
    is the same either way, and the scan is short."""
    if n < 4:
        raise BadParameter(f"random_mop needs n >= 4, got {n}")
    if not isinstance(seed, int):
        raise BadParameter(f"seed must be an int, got {type(seed).__name__}")
    rng = Philox(seed)
    cat = [1]
    for i in range(n - 1):
        cat.append(cat[i] * 2 * (2 * i + 1) // (i + 2))

    chords: list[Chord] = []
    stack = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        size = hi - lo - 1
        total = cat[size]
        u = _uniform_below(rng, total)
        from_right = 2 * u >= total
        if from_right:
            u = total - 1 - u
        t = 0
        w = cat[0] * cat[size - 1]
        while u >= w:
            u -= w
            t += 1
            w = cat[t] * cat[size - 1 - t]
        apex = hi - 1 - t if from_right else lo + 1 + t
        if apex - lo > 1:
            chords.append((lo, apex))
        if hi - apex > 1:
            chords.append((apex, hi))
        stack.append((lo, apex))
        stack.append((apex, hi))
    return _unchecked(n, chords)
