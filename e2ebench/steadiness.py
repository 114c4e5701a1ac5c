"""Run each workload under several seeds and record each metric's spread.

    python3 e2ebench/steadiness.py --runs 10 --seconds 36 --out record.json \
        [--workload report_cold ...] [--first-seed 1]

The spread of a metric is the distance between its first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of its median.
The output maps workload -> metric -> {median, q1, q3, spread, values}.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def one_run(workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=RUN.parent.parent, capture_output=True, text=True, timeout=900,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    record = {}
    for workload in args.workload or list(workloads.WORKLOADS):
        docs = []
        for i in range(args.runs):
            doc = one_run(workload, args.first_seed + i, args.seconds)
            if not doc["correct"]:
                raise RuntimeError(f"{workload} run {i} was not correct")
            docs.append(doc)
            print(workload, i, {k: round(v["value"], 4) for k, v in doc["metrics"].items()},
                  file=sys.stderr, flush=True)
        record[workload] = {
            name: spread([d["metrics"][name]["value"] for d in docs])
            for name in docs[0]["metrics"]
        }
        for name, s in record[workload].items():
            print(f"{workload} {name}: median {s['median']:.4g} spread {s['spread']:.3f}",
                  file=sys.stderr, flush=True)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
