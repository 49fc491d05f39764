"""Restore benchmark: one command for every workload and metric.

    python3 bench/run.py --workload occluder-vga --seed 1 --seconds 20 --trace 0

Runs one workload (or `all`) from the root of a checkout, importing
the program from the checkout's own `src/`. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics
from a traced run with --trace 1. A full record (environment, output
hash, samples and, when traced, every span) goes to bench/results/.
--smoke runs 64x48 frames instead of the full sizes.

Exits 2 without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"


def program_importable() -> bool:
    """True when `depthrestore` resolves to this checkout's sources."""
    spec = importlib.util.find_spec("depthrestore")
    return (spec is not None and spec.origin is not None
            and Path(spec.origin).resolve().parent.parent == SRC.resolve())


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads(SPEC_PATH.read_text())
    return spec["per_layer" if trace else "end_to_end"]


def summary(record: dict, declared: list[dict]) -> dict:
    """The result object: declared metrics in declared order, with units.

    Metrics that need a passing operation (output quality, per-layer
    spans) are left out when operations failed, so a failing program
    still gets a result that says so.
    """
    metrics = record["metrics"]
    missing = [d["name"] for d in declared if d["name"] not in metrics]
    if missing and not record["failed"]:
        raise KeyError(f"{record['workload']}: metrics not measured: {missing}")
    return {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
            for d in declared if d["name"] in metrics}


def print_table(record: dict, result: dict, declared: list[dict]) -> None:
    env = record["environment"]
    print(f"== {record['workload']} {record['frame'][0]}x{record['frame'][1]} "
          f"threads={env['threads']} seed={env['seed']} ops={record['attempted']}")
    for d in declared:
        if d["name"] not in result:
            print(f"  {d['name']:40s} {'-':>14s} {d['unit']:8s} (not measured)")
            continue
        value = result[d["name"]]["value"]
        print(f"  {d['name']:40s} {value:14.6g} {d['unit']:8s} ({d['better']} is better)")
    print(f"  {'ops_failed':40s} {record['ops_failed']:14.6g} {'ratio':8s} (lower is better)")
    print(f"  {'holes_unfilled':40s} {record['holes_unfilled']!s:>14s} {'count':8s} "
          f"(lower is better)")
    print(f"  output_sha256 {record['output_sha256']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the closed loop measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run 64x48 frames")
    args = parser.parse_args(argv)

    if not program_importable():
        print(f"error: depthrestore sources not found under {SRC}", file=sys.stderr)
        return 2
    import harness

    names = list(harness.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in harness.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{sorted(harness.WORKLOADS)} or 'all'", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    declared = declared_metrics(trace)
    results = {}
    for name in names:
        record = harness.run_workload(harness.WORKLOADS[name], args.seed, args.seconds,
                                      trace, smoke=args.smoke)
        path = harness.write_result(record, trace)
        result = summary(record, declared)
        print_table(record, result, declared)
        print(f"  record {path.relative_to(BENCH_DIR.parent)}")
        results[name] = (record, result)

    records = [r for r, _ in results.values()]
    if len(names) == 1:
        metrics = results[names[0]][1]
    else:
        metrics = {f"{n}.{k}": v for n, (_, res) in results.items() for k, v in res.items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
