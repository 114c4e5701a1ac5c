"""End-to-end benchmark of the reproduction: one workload per invocation.

    python3 e2ebench/run.py --workload report_cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Progress goes to stderr; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). Scratch files live in ``.e2ebench_work/`` and are removed
when the run ends. Without the program's sources next to it the benchmark
exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import layers
import proc
import workloads

END_TO_END = {"setup_s": "s", "op_s": "s", "op_cpu_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics the benchmark itself measures, beyond the layer probes.
BENCH_LAYER = {
    "read_p50_ms": "ms",
    "read_tail_ms": "ms",
    "read_tail_pct": "%",
    "read_samples": "count",
    "server_cpu_s": "s",
    "loadgen.lateness_p99_ms": "ms",
    "loadgen.reads_offered": "count",
    "loadgen.reads_done": "count",
    "probe.failed": "count",
    "trace.overhead_pct": "%",
}
PER_LAYER = {**layers.LAYER_METRICS, **BENCH_LAYER}


def parse(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny-scale plans, for the benchmark's self-tests")
    return ap.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse(argv)
    if not (proc.ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"no program sources under {proc.ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(proc.ROOT / "src"))
    proc.pin_benchmark()
    work = proc.ROOT / ".e2ebench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run, plan, smoke_plan = workloads.WORKLOADS[args.workload]
        res = run(work, args.seed, args.seconds, bool(args.trace),
                  smoke_plan if args.smoke else plan)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for note in res.notes:
        print(note, file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    values = {name: res.layer.get(name, 0.0) for name in units} if args.trace else res.metrics
    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
