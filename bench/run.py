"""mopdom benchmark: end-to-end and per-layer metrics for three workloads.

    python3 bench/run.py --workload engine_large --seed 1 --seconds 30 --trace 0

Workloads (BENCHMARK.json says why each is there):
  engine_large   solve_bound on 8 uniform random_mop(400, seed_i) graphs
  campaign_band  `mopdom stress --n-min 9 --n-max 11 --jobs 1 --strict`
  exact_oracle   bound_report on 360 random_mop(n, seed_i), n cycling 18..22

Each workload runs in fresh processes as a closed loop with one caller: the
next graph (for campaign_band, the next stress invocation, each in its own
process) is sent only after the previous one returns.  Nothing runs in
parallel.  The inputs are run in passes until --seconds have passed.  Every
output is checked after the timed loop; a raise, an uncertified result, a
failed check or a non-zero stress exit counts as a failure.

Times are normalized to a nominal CPU speed.  On a shared 2-core VM a fixed
pure-Python loop runs up to ~45% slower for stretches from milliseconds to
minutes, and raw wall times of the same code spread by 15-35% between
30-second runs.  So each worker times a fixed reference loop (about 1.5 ms
on an idle core) before and after every call, and a call's time is its wall
time times NOMINAL_REF_S over the mean of those two readings: the time the
call would take where the loop takes exactly NOMINAL_REF_S.  Each input's
time is the median over its passes.  The raw wall-clock figures are printed
as well.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s       median over several fresh processes of the time from spawn
                to ready (interpreter start, import mopdom, load_rules(),
                input generation); the base-case cache starts cold
  graphs_per_s  verified graphs of one pass over the inputs, per second of
                their normalized times
  solve_ms_p50  median over the inputs of the normalized time per graph; on
                campaign_band the input is the whole band, so this is the
                median invocation's ms per graph
  peak_rss_mb   peak RSS of the workload's process (median over processes)
solve_ms_p90 (where at least 10 inputs lie beyond it), failed_frac and the
raw wall-clock graphs_per_s and solve_ms_p50 are printed too, but are not in
the result line: p90 exists on exact_oracle only, failed_frac is 0 when the
program is correct, and raw times are too noisy on a shared host to gate.

--trace 1 runs one pass over the inputs twice in fresh processes, untraced
and then traced, and reports per-layer self time and counts
(bench/layers.py) plus trace_overhead_frac, the traced over the untraced
normalized time of the calls, minus 1.  The counts repeat exactly for a
given seed.

--smoke shrinks every input for the self-test (bench/selftest.py).

The lines before the last describe the run, including a `record` line with
the environment, sample counts and a digest of the first pass's checked
outputs.  The last line is the result: {"correct", "attempted", "failed",
"metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import layers

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"

SIZES: dict[str, dict[str, int]] = {
    "engine_large": {"n": 400, "graphs": 8},
    "campaign_band": {"n_min": 9, "n_max": 11},
    "exact_oracle": {"n_min": 18, "n_max": 22, "graphs": 360},
}
SMOKE: dict[str, dict[str, int]] = {
    "engine_large": {"n": 40, "graphs": 3},
    "campaign_band": {"n_min": 9, "n_max": 9},
    "exact_oracle": {"n_min": 10, "n_max": 12, "graphs": 6},
}
SETUP_SAMPLES = 9  # fresh processes whose set-up time setup_s is the median of
TIME_LIMIT_S = 170.0  # the whole run, children included
NOMINAL_REF_S = 0.0015  # the reference loop's time at the nominal CPU speed

END_TO_END_UNITS = {"setup_s": "s", "graphs_per_s": "1/s", "solve_ms_p50": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


class Spawner:
    """Starts worker processes one at a time under a shared deadline."""

    def __init__(self, workload: str, seed: int, sizes: dict[str, int]) -> None:
        self.base = {"workload": workload, "seed": seed, "sizes": sizes}
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        # The exact solver's size limit must stay at its default of 22.
        self.env.pop("MOPDOM_EXACT_LIMIT", None)

    def __call__(self, **cfg: Any) -> dict[str, Any]:
        cfg = {**self.base, "setup_only": False, "trace": False, **cfg}
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("time limit reached")
        cfg["spawn_t"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), json.dumps(cfg)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError("worker ran past the time limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1])


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _tally(children: list[dict[str, Any]]) -> tuple[int, int, list[str]]:
    attempted = sum(c["graphs_per_unit"] * len(c["walls"]) for c in children)
    failed = sum(sum(c["failed"]) for c in children)
    errors = [e for c in children for e in c["errors"]]
    return attempted, failed, errors


def _normalized(child: dict[str, Any]) -> list[float]:
    """Each call's wall time at the nominal CPU speed."""
    refs = child["refs"]
    return [w * 2 * NOMINAL_REF_S / (refs[i] + refs[i + 1]) for i, w in enumerate(child["walls"])]


def measure(spawn: Spawner, seconds: float, campaign: bool) -> tuple[dict, dict, dict]:
    if campaign:
        # One stress invocation per process, as on the command line.
        children: list[dict[str, Any]] = []
        start = time.monotonic()
        while not children or time.monotonic() - start < seconds:
            children.append(spawn(seconds=0))
    else:
        children = [spawn(seconds=seconds)]
    setups = [c["setup_s"] for c in children]
    setups += [spawn(setup_only=True, seconds=0)["setup_s"] for _ in range(SETUP_SAMPLES - len(setups))]

    per_unit = children[0]["graphs_per_unit"]
    norm: dict[int, list[float]] = {}
    failed_inputs: set[int] = set()
    for c in children:
        for i, (t, bad) in enumerate(zip(_normalized(c), c["failed"])):
            norm.setdefault(i % c["inputs"], []).append(t)
            if bad:
                failed_inputs.add(i % c["inputs"])
    cost = [statistics.median(v) for v in norm.values()]
    per_graph_ms = [t * 1000.0 / per_unit for t in cost]
    metrics = {
        "setup_s": statistics.median(setups),
        "graphs_per_s": (len(cost) - len(failed_inputs)) * per_unit / sum(cost),
        "solve_ms_p50": statistics.median(per_graph_ms),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }
    walls = [w for c in children for w in c["walls"]]
    attempted, failed, errors = _tally(children)
    extra: dict[str, Any] = {
        "failed_frac": failed / attempted,
        "raw_graphs_per_s": (attempted - failed) / sum(walls),
        "raw_solve_ms_p50": statistics.median(w * 1000.0 / per_unit for w in walls),
    }
    if len(per_graph_ms) >= 2:
        p90 = statistics.quantiles(per_graph_ms, n=10)[8]
        if sum(1 for x in per_graph_ms if x > p90) >= 10:
            extra["solve_ms_p90"] = p90
    # Every process ran the same inputs first, so their outputs must agree.
    same = len({c["digest"] for c in children}) == 1
    if not same:
        errors.append("processes disagree on the outputs of the same inputs")
    record = {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and same,
        "inputs": len(cost),
        "timed_calls": len(walls),
        "setup_s": setups,
        "processes": len(children),
        "digest": children[0]["digest"],
        "errors": errors[:5],
    }
    return metrics, extra, record


def trace(spawn: Spawner) -> tuple[dict, dict]:
    plain = spawn(seconds=0)
    traced = spawn(seconds=0, trace=True)
    metrics = dict(traced["layers"])
    metrics["trace_overhead_frac"] = sum(_normalized(traced)) / sum(_normalized(plain)) - 1.0
    attempted, failed, errors = _tally([plain, traced])
    same = plain["digest"] == traced["digest"]
    if not same:
        errors.append("traced outputs differ from untraced outputs")
    return metrics, {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and same,
        "inputs": traced["inputs"],
        "digest": traced["digest"],
        "absent": traced["absent"],
        "errors": errors[:5],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mopdom" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'mopdom'}", file=sys.stderr)
        return 2
    sizes = (SMOKE if args.smoke else SIZES)[args.workload]
    spawn = Spawner(args.workload, args.seed, sizes)
    try:
        if args.trace:
            metrics, record = trace(spawn)
            units = layers.PER_LAYER_UNITS
            extra: dict[str, Any] = {}
        else:
            metrics, extra, record = measure(spawn, args.seconds, args.workload == "campaign_band")
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        sizes=sizes,
        band_n_max=(SMOKE if args.smoke else SIZES)["campaign_band"]["n_max"],
        python=platform.python_version(),
        nproc=os.cpu_count(),
        commit=_git_commit(),
    )
    for name, value in metrics.items():
        print(f"{args.workload}  {name} = {value:.6g} {units[name]}")
    for name, value in extra.items():
        unit = {"raw_graphs_per_s": "1/s", "failed_frac": "ratio"}.get(name, "ms")
        print(f"{args.workload}  {name} = {value:.6g} {unit}  (printed only)")
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": record.pop("correct"),
        "attempted": record.pop("attempted"),
        "failed": record.pop("failed"),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
