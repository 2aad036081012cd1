"""Decoding service for the `serve` workload, run as a process of its own.

    python3 perfbench/server.py --model perfbench/bench_model.ndm [--spans FILE]

Loads the checkpoint, binds 127.0.0.1 on a free port through `engine.serve`,
prints `READY <port>` once it listens, serves one connection and exits. The
last stdout line is a JSON object with the CPU seconds the process spent
between READY and exit, its peak RSS and, with --spans, the engine's own
summed end-to-end time; the spans of the traced layers go to FILE.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import threading

import common

# A client that never connects or never finishes must not keep the process.
DEADLINE_S = 150.0


def _cpu_s() -> float:
    use = resource.getrusage(resource.RUSAGE_SELF)
    return use.ru_utime + use.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    common.use_source_tree()
    from nervedecode import checkpoint, engine

    params = checkpoint.load_checkpoint_file(args.model)
    cfg = engine.EngineConfig.for_params(params)
    from tracing import Tracer, write_spans

    tracer = Tracer(only=None if args.spans else ())
    stop = threading.Event()
    timer = threading.Timer(DEADLINE_S, stop.set)
    timer.daemon = True
    timer.start()
    ready_cpu = []

    def on_ready(sockname):
        ready_cpu.append(_cpu_s())
        print(f"READY {sockname[1]}", flush=True)

    with tracer:
        engine.serve("127.0.0.1:0", params, cfg, stop=stop, max_connections=1,
                     on_ready=on_ready)
    timer.cancel()
    result = {"cpu_s": _cpu_s() - ready_cpu[0],
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "engine_e2e_us": tracer.engine_e2e_us}
    if args.spans:
        write_spans(tracer.spans, args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
