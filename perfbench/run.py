"""Benchmark of the nervedecode decoder, measured from outside the package.

    python3 perfbench/run.py --workload {replay,serve,match,calibrate} \\
        --seed N --seconds S --trace {0,1}

Builds the workload's inputs from the seed, sets up, measures, checks the
outputs against a computation made apart from the program, and prints a
readable report followed by one JSON line: `correct`, `attempted`, `failed`
and `metrics` (every end-to-end metric of BENCHMARK.json with --trace 0,
every per-layer metric with --trace 1). A traced run also writes its spans
to perfbench/out/. README.md describes the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import common

UNITS_FILE = common.ROOT / "BENCHMARK.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("replay", "serve", "match", "calibrate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    common.use_source_tree()
    # One BLAS thread, inherited by the service process: on two cores a
    # second spinning BLAS thread competes with the client (serve) or with
    # any other process, and turned 30 s calibrations into 110 s ones.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import workloads
    from tracing import write_spans

    spec = json.loads(UNITS_FILE.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    common.OUT.mkdir(exist_ok=True)

    out = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    values = out.layers if args.trace else out.metrics
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared}
    correct = all(ok for _, ok, _ in out.checks)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(common.environment(), sort_keys=True))
    for name, ok, detail in out.checks:
        print(f"check {name:<22} {'PASS' if ok else 'FAIL'}  {detail}")
    for name, value in out.info.items():
        print(f"info  {name:<30} {value:.6g}")
    for name, m in metrics.items():
        print(f"{'layer' if args.trace else 'e2e':<5} {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"operations attempted {out.attempted}  failed {out.failed}")
    if args.trace:
        spans_path = common.OUT / f"spans_{args.workload}_{args.seed}.jsonl"
        write_spans(out.spans, spans_path)
        print(f"spans {len(out.spans)} written to {spans_path.relative_to(common.ROOT)}")
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
