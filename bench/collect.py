"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --workloads search linear --seeds 1-10 --out runs.json

Each run is a separate ``bench/run.py`` process, one after another. For every
workload and metric the summary gives the median and quartiles of the runs
(``statistics.quantiles(values, n=4)``), the spread (quartile distance over the
median) and, for end-to-end metrics, the bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report: dict = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            env, result = json.loads(lines[-2])["env"], json.loads(lines[-1])
            runs.append({"seed": seed, "env": env, "result": result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
        names = list(runs[0]["result"]["metrics"])
        metrics = {}
        for name in names:
            summary = summarise([r["result"]["metrics"][name]["value"] for r in runs])
            summary["unit"] = runs[0]["result"]["metrics"][name]["unit"]
            if name in bounds:
                summary["bound"] = bounds[name]
            metrics[name] = summary
            bound = f" bound {bounds[name]}" if name in bounds else ""
            print(f"  {workload:10s} {name:44s} median {summary['median']:.6g} "
                  f"spread {summary['spread']:.3f}{bound}", file=sys.stderr)
        report["workloads"][workload] = {
            "correct": all(r["result"]["correct"] for r in runs),
            "metrics": metrics,
            "runs": runs,
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
