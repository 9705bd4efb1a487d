"""Command-line interface for the mopdom package.

Graphs travel as JSON objects ``{"n": ..., "chords": [[a, b], ...]}``, one
per line (NDJSON); ``-`` means stdin.  Exit codes: 0 success, 1 negative
outcome (invalid set under ``verify``, violations under ``stress``), 2 bad
usage or a domain error (malformed graph, a graph too small for the
command, ...).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from .constructive import solve_bound
from .domination import (
    DominationMode,
    bound_report,
    csv_header,
    exact_min_double_dom,
    is_double_dominating,
    to_csv_row,
)
from .errors import BadParameter, MopError, NotMaximalOuterplanar, UnreadableInput
from .generators import (
    MAX_ENUMERATE_N,
    Philox,
    catalan,
    enumerate_all,
    fan,
    fixture,
    fixture_names,
    random_mop,
    snake,
)
from .graph_core import (
    MopGraph,
    from_json,
    parse_edge_list,
    recognize_mop,
    to_dot,
    to_edge_list,
    to_json,
)

# A --jobs pool holds a few chunks of graphs at a time; capping their size
# keeps a campaign's memory flat however many graphs it checks.
_MAX_CHUNK = 256


# --- input helpers ---------------------------------------------------------------


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UnreadableInput(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise UnreadableInput(
            f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from exc


def _parse_graphs(lines: Iterable[str]) -> Iterator[MopGraph]:
    """One graph per non-blank line of NDJSON, parsed as it is read; ``#``
    starts a comment line.  A bad line raises, naming its line number."""
    found = False
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            g = from_json(line)
        except MopError as exc:
            raise type(exc)(f"line {number}: {exc}") from exc
        found = True
        yield g
    if not found:
        raise NotMaximalOuterplanar("input holds no graphs")


def _read_graphs(path: str) -> Iterator[MopGraph]:
    """The graphs of an NDJSON file, or of stdin for ``-``, read line by line
    so that memory stays flat in the input size.  Lines are split as
    ``str.splitlines`` splits them."""
    stdin = path == "-"
    try:
        with contextlib.nullcontext(sys.stdin) if stdin else open(path, encoding="utf-8") as f:
            yield from _parse_graphs(line for raw in f for line in raw.splitlines())
    except OSError as exc:
        raise UnreadableInput(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise UnreadableInput(f"{path} is not UTF-8 text: {exc.reason}") from exc


def _emit(obj: Any) -> None:
    print(json.dumps(obj))


# --- gen ---------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "fan":
        _emit_graph(fan(args.k))
    elif args.kind == "snake":
        _emit_graph(snake(args.n))
    elif args.kind == "fixture":
        _emit_graph(fixture(args.name))
    elif args.kind == "enumerate":
        for g in enumerate_all(args.n, dedup=args.dedup):
            _emit_graph(g)
    else:  # random
        if args.count < 0:
            raise BadParameter(f"bad --count {args.count}: must be >= 0")
        for i in range(args.count):
            _emit_graph(random_mop(args.n, args.seed + i))
    return 0


def _emit_graph(g: MopGraph) -> None:
    print(to_json(g))


# --- solve / exact / verify / report ------------------------------------------------


def _cmd_solve(args: argparse.Namespace) -> int:
    for g in _read_graphs(args.input):
        res = solve_bound(g, permissive=args.permissive)
        obj = res.to_obj()
        if args.trace and res.trace is not None:
            obj["trace"] = res.trace.to_obj()
        _emit(obj)
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    # 2-domination is literal double domination under another name.
    mode = DominationMode.literal if args.mode == "twodom" else DominationMode(args.mode)
    for g in _read_graphs(args.input):
        size, witness = exact_min_double_dom(g, mode, forbid_deg2=args.forbid_deg2)
        _emit({"n": g.n, "mode": args.mode, "size": size, "witness": list(witness)})
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        chosen = sorted({int(x) for x in args.set.split(",") if x.strip() != ""})
    except ValueError:
        print(f"error: --set must be comma-separated integers, got {args.set!r}", file=sys.stderr)
        return 2
    all_valid = True
    for g in _read_graphs(args.input):
        valid = all(0 <= v < g.n for v in chosen) and is_double_dominating(
            g, chosen, DominationMode(args.mode)
        )
        all_valid = all_valid and valid
        _emit({"n": g.n, "set": chosen, "mode": args.mode, "valid": valid})
    return 0 if all_valid else 1


def _cmd_report(args: argparse.Namespace) -> int:
    csv = args.format == "csv"
    for i, g in enumerate(_read_graphs(args.input)):
        report = bound_report(g, with_exact=not args.no_exact)
        if csv and i == 0:  # only once a row follows it
            print(csv_header())
        print(to_csv_row(report) if csv else json.dumps(report.to_obj()))
    return 0


# --- stress ---------------------------------------------------------------


def _stress_one(payload: tuple[str, MopGraph]) -> dict[str, Any]:
    """Solve one campaign graph.  Only a record that can be a violation (an
    engine error or a telescope/size soft miss) carries the graph's JSON."""
    origin, g = payload
    try:
        res = solve_bound(g)
    except Exception as exc:  # noqa: BLE001 - campaign must record, not die
        return {
            "origin": origin,
            "n": g.n,
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "graph": to_json(g),
        }
    assert res.trace is not None
    soft = res.trace.soft_failures()
    record = {
        "origin": origin,
        "n": g.n,
        "ok": True,
        "size": len(res.members),
        "k": res.k,
        "soft": soft,
    }
    if soft["telescope"] or soft["size_exact"]:
        record["graph"] = to_json(g)
    return record


def _campaign(args: argparse.Namespace) -> Iterator[tuple[str, MopGraph]]:
    """The campaign's graphs, drawn one at a time: the exhaustive band, then
    the random phase from one Philox stream keyed by ``--seed``."""
    for n in range(args.n_min, args.n_max + 1):
        for i, g in enumerate(enumerate_all(n)):
            yield f"exhaustive/n{n}/{i}", g
    if args.random_count:
        lo, hi = args.random_n_range
        rng = Philox(args.seed)
        for i in range(args.random_count):
            ni = rng.integers(lo, hi + 1)
            seed_i = rng.integers(0, 1 << 63)
            yield f"random/{i}/n{ni}", random_mop(ni, seed_i)


def _campaign_error(args: argparse.Namespace) -> str | None:
    """Why the campaign cannot run, or None.  Generation is lazy, so every
    check has to happen here, before the first graph is drawn."""
    if args.n_min < 4:
        return f"bad --n-min {args.n_min}: the engine needs n >= 4"
    if args.n_max > MAX_ENUMERATE_N:
        return f"bad --n-max {args.n_max}: exhaustive enumeration stops at n = {MAX_ENUMERATE_N}"
    if args.jobs < 1:
        return f"bad --jobs {args.jobs}: must be >= 1"
    if args.random_count < 0:
        return f"bad --random-count {args.random_count}: must be >= 0"
    lo, hi = args.random_n_range
    if args.random_count and (lo < 4 or hi < lo):
        return f"bad --random-n-range {lo},{hi}"
    if args.n_max < args.n_min and not args.random_count:
        return (
            f"empty campaign: --n-min {args.n_min} > --n-max {args.n_max}"
            " and --random-count 0"
        )
    return None


def _cmd_stress(args: argparse.Namespace) -> int:
    error = _campaign_error(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    per_n: dict[int, dict[str, int]] = {}
    violations: list[dict[str, Any]] = []
    with contextlib.ExitStack() as stack:
        if args.jobs == 1:
            results = map(_stress_one, _campaign(args))
        else:
            import multiprocessing  # only a pool needs it, and it slows every start

            pool = stack.enter_context(multiprocessing.Pool(args.jobs))
            count = args.random_count + sum(
                catalan(n - 2) for n in range(args.n_min, args.n_max + 1)
            )
            chunk = min(_MAX_CHUNK, max(1, count // (args.jobs * 8)))
            results = pool.imap(_stress_one, _campaign(args), chunksize=chunk)
        # Aggregate each record as it arrives; only violations are kept.
        for r in results:
            agg = per_n.setdefault(
                r["n"], {"total": 0, "ok": 0, "telescope": 0, "size_exact": 0, "printed_k": 0}
            )
            agg["total"] += 1
            if r["ok"]:
                agg["ok"] += 1
                soft = r["soft"]
                for key in ("telescope", "size_exact", "printed_k"):
                    agg[key] += soft[key]
                if args.strict and (soft["telescope"] or soft["size_exact"]):
                    violations.append(r)
            else:
                violations.append(r)

    for n in sorted(per_n):
        agg = per_n[n]
        print(
            f"n={n}: {agg['ok']}/{agg['total']} ok"
            f"  soft: telescope={agg['telescope']}"
            f" size_exact={agg['size_exact']} printed_k={agg['printed_k']}"
        )
    total = sum(agg["total"] for agg in per_n.values())
    print(f"total: {total - len(violations)}/{total} ok, {len(violations)} violations")

    if violations and args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for i, r in enumerate(violations):
            (out / f"violation_{i:04d}.json").write_text(json.dumps(r, indent=2))
        print(f"violation reports written to {out}", file=sys.stderr)
    return 1 if violations else 0


# --- convert ---------------------------------------------------------------


def _cmd_convert(args: argparse.Namespace) -> int:
    text = _read_text(args.input)
    if text.lstrip().startswith("{"):
        graphs = list(_parse_graphs(text.splitlines()))
    else:
        g, _ = recognize_mop(parse_edge_list(text))
        graphs = [g]
    for i, g in enumerate(graphs):
        if args.to == "json":
            print(to_json(g))
        elif args.to == "edges":
            sys.stdout.write(to_edge_list(g))
        else:
            sys.stdout.write(to_dot(g, name=f"mop{i}" if len(graphs) > 1 else "mop"))
    return 0


# --- parser ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mopdom",
        description="Double domination on maximal outerplanar graphs: "
        "constructive (n+k)/2 engine, exact solvers, generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate graphs as NDJSON")
    gensub = gen.add_subparsers(dest="kind", required=True)
    g_fan = gensub.add_parser("fan", help="fan F_k on 3k+1 vertices")
    g_fan.add_argument("k", type=int)
    g_snake = gensub.add_parser("snake", help="zig-zag triangulation on n vertices")
    g_snake.add_argument("n", type=int)
    g_fix = gensub.add_parser("fixture", help="named fixture graph")
    g_fix.add_argument("name", choices=list(fixture_names()))
    g_enum = gensub.add_parser("enumerate", help="every triangulation of an n-gon")
    g_enum.add_argument("n", type=int)
    g_enum.add_argument("--dedup", action="store_true", help="drop rotations/reflections")
    g_rand = gensub.add_parser("random", help="uniform random triangulations")
    g_rand.add_argument("n", type=int)
    g_rand.add_argument("--seed", type=int, default=0)
    g_rand.add_argument("--count", type=int, default=1, help="graphs to emit (seed increments)")
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="run the constructive (n+k)/2 engine")
    solve.add_argument("input", nargs="?", default="-")
    solve.add_argument("--trace", action="store_true", help="include the reduction trace")
    solve.add_argument(
        "--permissive",
        action="store_true",
        help="fall back to the exact solver when no rule applies",
    )
    solve.set_defaults(func=_cmd_solve)

    exact = sub.add_parser("exact", help="exact minimum double/2-domination")
    exact.add_argument("input", nargs="?", default="-")
    exact.add_argument(
        "--mode",
        choices=["literal", "standard", "twodom"],
        default="literal",
        help="twodom is literal under its 2-domination name",
    )
    exact.add_argument(
        "--forbid-deg2", action="store_true", help="exclude degree-2 vertices from S"
    )
    exact.set_defaults(func=_cmd_exact)

    verify = sub.add_parser("verify", help="check a vertex set against each graph")
    verify.add_argument("input", nargs="?", default="-")
    verify.add_argument("--set", required=True, help="comma-separated vertex ids")
    verify.add_argument("--mode", choices=["literal", "standard"], default="literal")
    verify.set_defaults(func=_cmd_verify)

    report = sub.add_parser("report", help="bounds and exact values per graph")
    report.add_argument("input", nargs="?", default="-")
    report.add_argument("--no-exact", action="store_true", help="skip the exact solver")
    report.add_argument("--format", choices=["csv", "json"], default="csv")
    report.set_defaults(func=_cmd_report)

    stress = sub.add_parser(
        "stress", help="exhaustive + randomized campaign over the engine"
    )
    stress.add_argument("--n-min", type=int, default=4)
    stress.add_argument("--n-max", type=int, default=10)
    stress.add_argument("--random-count", type=int, default=0)
    stress.add_argument(
        "--random-n-range",
        type=_int_pair,
        default=(14, 60),
        metavar="LO,HI",
        help="vertex range for the random phase (default 14,60)",
    )
    stress.add_argument("--seed", type=int, default=0)
    stress.add_argument("--jobs", type=int, default=1)
    stress.add_argument(
        "--strict",
        action="store_true",
        help="count telescoping/size soft-check misses as violations",
    )
    stress.add_argument("--out-dir", default="", help="directory for violation reports")
    stress.set_defaults(func=_cmd_stress)

    convert = sub.add_parser("convert", help="convert between json, edge list and dot")
    convert.add_argument("input", nargs="?", default="-")
    convert.add_argument("--to", choices=["json", "edges", "dot"], required=True)
    convert.set_defaults(func=_cmd_convert)

    return parser


def _int_pair(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected LO,HI integers, got {text!r}") from exc
    return lo, hi


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except MopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # pragma: no cover - piping into head is fine
        return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
