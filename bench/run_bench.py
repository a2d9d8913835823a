"""Benchmark of cotune: one workload per call, result as JSON on stdout.

    python3 bench/run_bench.py --workload coevolve --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports cotune from its ``src/``.
The workload's inputs come from --seed. Set-up is repeated and timed, then
whole rounds of ops run until --seconds have passed, then every output is
checked against the benchmark's own reference computations (see oracle.py).
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1. The line before it gives
the workload's behaviour digest. Exits 1 when a check fails and 2 when the
sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5


def _import_cotune():
    src = ROOT / "src"
    if not (src / "cotune" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import cotune
    import cotune.cli  # noqa: F401 - loads every submodule
    return cotune


def measure(workload, seconds: float, tracer) -> dict:
    """Set up, run whole rounds for `seconds`, and return the raw figures."""
    setup = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the previous set-up's garbage is not this one's cost
        start = time.perf_counter()
        workload.setup()
        setup.append(time.perf_counter() - start)
    if tracer is not None:
        tracer.reset()
    gc.collect()
    durations, errors = [], []
    start = time.perf_counter()
    round_index = 0
    while True:
        for op in workload.ops:
            try:
                durations.append(workload.run(op, round_index))
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                errors.append(f"round {round_index}, op {op}: {exc!r}")
        round_index += 1
        if (time.perf_counter() - start >= seconds
                and workloads.tail_ready(len(durations), workload.TAIL_Q)):
            break
    wall = time.perf_counter() - start
    return {
        "setup_s": statistics.median(setup),
        "durations": durations,
        "errors": errors,
        "wall": wall,
        "rounds": round_index,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cotune = _import_cotune()
    if cotune is None:
        print(f"no cotune sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work_dir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        workload = workloads.WORKLOADS[args.workload](cotune, args.seed,
                                                      work_dir)
        if tracer is not None:
            tracer.install(cotune)
        try:
            raw = measure(workload, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        problems = workload.check()
        quality = workload.quality()
        digest = workload.digest()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    ops = len(raw["durations"]) + len(raw["errors"])
    if tracer is not None:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in tracer.metrics(ops).items()}
    else:
        ms = [1000 * d for d in raw["durations"]]
        metrics = {
            "setup_s": {"value": raw["setup_s"], "unit": "s"},
            "op_ms_p50": {"value": statistics.median(ms), "unit": "ms"},
            "op_ms_tail": {"value": workloads.tail(ms, workload.TAIL_Q),
                           "unit": "ms"},
            "ops_per_s": {"value": len(ms) / raw["wall"], "unit": "1/s"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
            "best_score_mean": {"value": quality["best_score_mean"],
                                "unit": "score"},
            "evals_to_best_p50": {"value": quality["evals_to_best_p50"],
                                  "unit": "evaluations"},
        }
    for error in raw["errors"][:20]:
        print(f"op failed: {error}", file=sys.stderr)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload}: {ops} ops in {raw['rounds']} rounds, "
          f"{raw['wall']:.2f} s; tail is p{round(100 * workload.TAIL_Q)}; "
          f"{len(raw['errors'])} failed ops; {len(problems)} check failures",
          file=sys.stderr)
    print(f"digest {args.workload} {digest}")
    print(json.dumps({"correct": not problems, "attempted": ops,
                      "failed": len(raw["errors"]),
                      "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
