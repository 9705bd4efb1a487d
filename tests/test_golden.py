"""Golden output: engine solutions and traces, and exact minima with their
witnesses, must stay byte-identical.

The engine digests below were computed from the engine before its per-level
optimisations, ``EXACT_DIGEST`` from the branch-and-bound exact solver
that preceded the dynamic program, and ``STRESS_DIGEST`` (the stdout of a
strict campaign, so its aggregated soft counters) before the engine's
per-solve set-up was cut.  A refactor must leave them unchanged; a
change that means to alter solutions, traces or witnesses must say so and
update them.

    PYTHONPATH=src python tests/test_golden.py   # print the current digests
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

from mopdom import enumerate_all, exact_min_double_dom, random_mop, solve_bound
from mopdom.cli import run

STRESS_ARGV = ["stress", "--n-min", "9", "--n-max", "12", "--random-count", "300", "--strict"]

BAND_DIGEST = "79d3f5980035c4bdd4016e41863df931d567488cf94b732adc1cd04eecef9a75"
RANDOM_DIGEST = "a198a17236e4a1bb41e4f68bd8937e9ac3b1f58acce5caf39a64e6c8297e951e"
LARGE_DIGEST = "ae828b4037045059aea3945e09175bce70337c01dd99cc70ae6e19dd395e6f43"
EXACT_DIGEST = "5eb295521fdafc16f0d8c5539c7d7511680354d00a92d9521dd33741663f835f"
STRESS_DIGEST = "faad99c5e4f4fda8b640b755eee1a30a2d6a777bc34f9c07ac21342882566749"

# 20 fixed (n, seed) pairs with n spread over 20..150.
RANDOM_CASES = [(20 + (130 * i) // 19, 1000 + i) for i in range(20)]
# 6 larger graphs, where a reduction can invalidate leaf walks far from it.
LARGE_CASES = [(200, 2000), (300, 2001), (400, 2002), (500, 2003), (650, 2004), (800, 2005)]
# 40 fixed (n, seed) pairs with n cycling through 12..22, the exact-size limit.
EXACT_RANDOM_CASES = [(12 + i % 11, 3000 + i) for i in range(40)]
EXACT_VARIANTS = [(mode, forbid) for mode in ("literal", "standard") for forbid in (False, True)]


def _digest(graphs) -> str:
    h = hashlib.sha256()
    for g in graphs:
        res = solve_bound(g)
        h.update(json.dumps([g.n, sorted(res.solution), res.trace.to_obj()]).encode())
    return h.hexdigest()


def band_digest() -> str:
    """Every triangulation of the 9-, 10- and 11-gon (6 721 graphs)."""
    return _digest(g for n in range(9, 12) for g in enumerate_all(n))


def random_digest() -> str:
    return _digest(random_mop(n, seed) for n, seed in RANDOM_CASES)


def large_digest() -> str:
    return _digest(random_mop(n, seed) for n, seed in LARGE_CASES)


def exact_digest() -> str:
    """Every graph with n = 4..11 and the fixed random set, in both modes,
    with and without degree-2 vertices forbidden."""
    graphs = [g for n in range(4, 12) for g in enumerate_all(n)]
    graphs += [random_mop(n, seed) for n, seed in EXACT_RANDOM_CASES]
    h = hashlib.sha256()
    for g in graphs:
        for mode, forbid in EXACT_VARIANTS:
            size, witness = exact_min_double_dom(g, mode, forbid_deg2=forbid)
            h.update(json.dumps([g.n, g.chords, mode, forbid, size, witness]).encode())
    return h.hexdigest()


def stress_digest() -> str:
    """The stdout of ``mopdom stress`` on the n = 9..12 band and 300 random
    graphs: per-n totals and soft counters."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run(STRESS_ARGV)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_exhaustive_band_output_unchanged():
    assert band_digest() == BAND_DIGEST


def test_random_output_unchanged():
    assert random_digest() == RANDOM_DIGEST


def test_large_output_unchanged():
    assert large_digest() == LARGE_DIGEST


def test_exact_output_unchanged():
    assert exact_digest() == EXACT_DIGEST


def test_stress_output_unchanged():
    assert stress_digest() == STRESS_DIGEST


if __name__ == "__main__":
    print("BAND_DIGEST =", repr(band_digest()))
    print("RANDOM_DIGEST =", repr(random_digest()))
    print("LARGE_DIGEST =", repr(large_digest()))
    print("EXACT_DIGEST =", repr(exact_digest()))
    print("STRESS_DIGEST =", repr(stress_digest()))
