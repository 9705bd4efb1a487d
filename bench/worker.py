"""One benchmark process: set up a workload, run it, check every output.

Started by run.py with one JSON argument (see ``main``).  The process
imports the package from the checkout's ``src``, builds its inputs from the
seed, then calls the package as a closed loop with one caller: the next
input is sent only after the previous call returns.  Outputs are checked
after the timed loop.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import random
import re
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import Any

import layers
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]


def _certified(n: int, chords: Any, solution: list[int]) -> bool:
    """The theorem's claim, from the definitions alone: every vertex outside
    S has two neighbours in S, S avoids degree-2 vertices, and
    2|S| <= n + k, where a degree-2 vertex is bad when the next degree-2
    vertex clockwise is at least 3 cycle edges away."""
    adj = [{(v - 1) % n, (v + 1) % n} for v in range(n)]
    for a, b in chords:
        adj[a].add(b)
        adj[b].add(a)
    s = set(solution)
    if not s <= set(range(n)):
        return False
    if any(len(adj[v] & s) < 2 for v in range(n) if v not in s):
        return False
    deg2 = [v for v in range(n) if len(adj[v]) == 2]
    if s.intersection(deg2):
        return False
    k = sum(1 for i, v in enumerate(deg2) if (deg2[(i + 1) % len(deg2)] - v) % n >= 3)
    return 2 * len(s) <= n + k


def _reference() -> float:
    """Time a fixed pure-Python loop (median of three), which tracks how fast
    the shared host runs this process at the moment."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        s = 0
        for i in range(20000):
            s += i * i % 7
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(63) for _ in range(count)]


class EngineLarge:
    """solve_bound on uniform random MOPs of one size."""

    def __init__(self, seed: int, sizes: dict[str, int]) -> None:
        self.constructive = importlib.import_module("mopdom.constructive")
        generators = importlib.import_module("mopdom.generators")
        self.graphs = [generators.random_mop(sizes["n"], s) for s in _seeds(seed, sizes["graphs"])]
        self.inputs = len(self.graphs)
        self.graphs_per_unit = 1

    def run(self, i: int) -> Any:
        return self.constructive.solve_bound(self.graphs[i])

    def check(self, i: int, res: Any) -> tuple[int, Any]:
        g = self.graphs[i]
        sol = sorted(res.solution)
        ok = (
            res.certified
            and self.constructive.certify(g, sol).certified
            and _certified(g.n, g.chords, sol)
        )
        return int(not ok), [g.n, sol, list(res.trace.rule_ids())]


class ExactOracle:
    """bound_report (what ``mopdom report`` runs per graph), n cycling through a range."""

    def __init__(self, seed: int, sizes: dict[str, int]) -> None:
        self.domination = importlib.import_module("mopdom.domination")
        generators = importlib.import_module("mopdom.generators")
        span = sizes["n_max"] - sizes["n_min"] + 1
        self.graphs = [
            generators.random_mop(sizes["n_min"] + i % span, s)
            for i, s in enumerate(_seeds(seed, sizes["graphs"]))
        ]
        self.inputs = len(self.graphs)
        self.graphs_per_unit = 1

    def run(self, i: int) -> Any:
        return self.domination.bound_report(self.graphs[i])

    def check(self, i: int, r: Any) -> tuple[int, Any]:
        ok = (
            r.lower_bound <= r.exact_literal == r.exact_2dom <= r.exact_standard
            and r.flags["ok_main"]
            and r.flags["ok_lower"]
        )
        item = [r.n, r.t, r.k, r.lower_bound, r.exact_literal, r.exact_standard, r.exact_2dom]
        return int(not ok), item + [r.flags[f] for f in sorted(r.flags)]


_TOTAL = re.compile(r"total: (\d+)/(\d+) ok, (\d+) violations")


class CampaignBand:
    """One ``mopdom stress`` invocation over the exhaustive band; the seed
    plays no part, since the band is every triangulation of each n."""

    def __init__(self, seed: int, sizes: dict[str, int]) -> None:
        self.cli = importlib.import_module("mopdom.cli")
        lo, hi = sizes["n_min"], sizes["n_max"]
        self.argv = ["stress", "--n-min", str(lo), "--n-max", str(hi), "--jobs", "1", "--strict"]
        self.inputs = 1
        # Catalan(n - 2) triangulations of each n-gon.
        self.graphs_per_unit = sum(math.comb(2 * n - 4, n - 2) // (n - 1) for n in range(lo, hi + 1))

    def run(self, i: int) -> Any:
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            code = self.cli.run(self.argv)
        return code, buf.getvalue()

    def check(self, i: int, res: Any) -> tuple[int, Any]:
        """Graphs that failed: the violations the campaign reports, or all
        of them if its summary line is missing, miscounted or contradicts
        the exit code."""
        code, text = res
        lines = text.splitlines()
        m = _TOTAL.fullmatch(lines[-1]) if lines else None
        expect = self.graphs_per_unit
        if m is None or int(m[2]) != expect or int(m[1]) + int(m[3]) != expect:
            return expect, text
        violations = int(m[3])
        if (code == 0) != (violations == 0):
            return expect, text
        return violations, text


WORKLOADS = {"engine_large": EngineLarge, "campaign_band": CampaignBand, "exact_oracle": ExactOracle}


def main() -> None:
    """Argument: JSON with workload, seed, sizes, spawn_t (time.monotonic()
    of the parent just before the spawn; CLOCK_MONOTONIC is system-wide on
    Linux), setup_only, trace and seconds.  The inputs are run in passes,
    input i % inputs as the i-th call, until every input has run once and
    ``seconds`` have passed.  The wall time of every call is reported, with
    the reference loop's time before the first call and after each call."""
    cfg = json.loads(sys.argv[1])
    import mopdom

    if not Path(mopdom.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"worker: mopdom imported from {mopdom.__file__}, not from the checkout")
    tracer = Tracer() if cfg["trace"] else None
    absent = layers.install(tracer) if tracer else []
    importlib.import_module("mopdom.constructive").load_rules()
    workload = WORKLOADS[cfg["workload"]](cfg["seed"], cfg["sizes"])
    out: dict[str, Any] = {"setup_s": time.monotonic() - cfg["spawn_t"]}
    if cfg["setup_only"]:
        print(json.dumps(out))
        return

    inputs = workload.inputs
    results: list[Any] = []
    walls: list[float] = []
    errors: list[str] = []
    refs = [_reference()]
    deadline = perf_counter() + cfg["seconds"]
    while len(results) < inputs or perf_counter() < deadline:
        t0 = perf_counter()
        try:
            res = workload.run(len(results) % inputs)
        except Exception as exc:  # noqa: BLE001 - a failed call is counted, not fatal
            res = None
            errors.append(f"{type(exc).__name__}: {exc}")
        walls.append(perf_counter() - t0)
        results.append(res)
        refs.append(_reference())
    if tracer is not None:
        out["layers"], out["absent"] = layers.collect(tracer, absent)

    # Output checks, outside the timed region.  The digest covers the first
    # pass, so it does not depend on how many passes fitted in the time.
    digest = hashlib.sha256()
    failed = []
    for i, res in enumerate(results):
        bad = workload.graphs_per_unit
        if res is not None:
            try:
                bad, item = workload.check(i % inputs, res)
                if i < inputs:
                    digest.update(json.dumps(item).encode())
            except Exception as exc:  # noqa: BLE001 - a malformed output is a failure
                errors.append(f"check {i}: {type(exc).__name__}: {exc}")
        failed.append(bad)

    out.update(
        walls=walls,
        refs=refs,
        inputs=inputs,
        graphs_per_unit=workload.graphs_per_unit,
        failed=failed,
        errors=errors[:5],
        digest=digest.hexdigest(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
