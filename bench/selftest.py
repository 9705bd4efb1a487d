"""Self-test of the benchmark on tiny inputs (about a minute).

    python3 bench/selftest.py

Checks that BENCHMARK.json names exactly the metrics run.py emits, with the
same units; that every end-to-end and per-layer metric is emitted (or, for
a layer, listed as absent) on every workload, with correct outputs; that
every count repeats exactly across two traced runs with the same seed; and
that the benchmark fails without printing a result when the package source
is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import layers
import run

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent


def _run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    record = json.loads(next(ln for ln in lines if ln.startswith("record "))[len("record "):])
    return json.loads(lines[-1]), record


def _check_result(result: dict, units: dict[str, str], absent: list[str]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) | set(absent) == set(units), sorted(set(units) ^ set(result["metrics"]))
    for name, m in result["metrics"].items():
        assert m["unit"] == units[name], (name, m)
        assert isinstance(m["value"], (int, float)), (name, m)


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.SIZES)

    for workload in run.SIZES:
        result, record = _run(workload, 0)
        _check_result(result, run.END_TO_END_UNITS, [])
        for key in ("python", "nproc", "commit", "seed", "band_n_max", "inputs", "timed_calls", "digest"):
            assert key in record, key

        first, rec1 = _run(workload, 1)
        second, rec2 = _run(workload, 1)
        _check_result(first, layers.PER_LAYER_UNITS, rec1["absent"])
        _check_result(second, layers.PER_LAYER_UNITS, rec2["absent"])
        assert rec1["digest"] == rec2["digest"], workload
        for name in layers.DETERMINISTIC:
            a, b = first["metrics"].get(name), second["metrics"].get(name)
            assert a == b, f"{workload}: {name} differs across traced runs: {a} vs {b}"
        print(f"ok  {workload}")

    bare = ROOT / ".bench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "engine_large", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  fails without the package source")


if __name__ == "__main__":
    main()
