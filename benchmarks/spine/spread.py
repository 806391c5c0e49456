"""Calibration: is the benchmark steady enough to gate on?

    python benchmarks/spine/spread.py [--workload NAME ...] [--runs 10]

Runs the command in BENCHMARK.json the way its driver does — one process
per run, a different ``--seed`` each time — and prints, per workload and
end-to-end metric, the median and the quartile spread (Q3 − Q1 of
``statistics.quantiles(values, n=4)`` as a share of the median) next to
the metric's bound.  A spread above a third of the bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]


def run_once(contract: Dict[str, object], workload: str, seed: int) -> Dict[str, object]:
    command = list(contract["command"]) + [  # type: ignore[call-overload]
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(contract["run_seconds"]), "--trace", "0"]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stdout}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def main() -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", type=Path, help="write every run's values to this JSON file")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    saved: Dict[str, Dict[str, List[float]]] = {}
    loud = 0
    for workload in args.workload or [w["name"] for w in contract["workloads"]]:
        values: Dict[str, List[float]] = {name: [] for name in bounds}
        walls: List[float] = []
        for index in range(args.runs):
            result = run_once(contract, workload, args.first_seed + index)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {args.first_seed + index}: {result}")
            walls.append(result["wall_s"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        saved[workload] = {**values, "wall_s": walls}
        print(f"== {workload}: {args.runs} runs, {statistics.median(walls):.1f} s each (max {max(walls):.1f})")
        for name, series in values.items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            spread = (q3 - q1) / median
            flag = ""
            if spread > bounds[name]:
                flag = "  OVER BOUND" if name != "setup_s" else "  (set-up spread is not gated)"
            elif spread > bounds[name] / 3:
                flag = "  over a third of the bound"
            loud += bool(flag) and name != "setup_s"
            print(f"  {name:<22} median {median:>10.4f}  spread {spread:6.1%}  bound {bounds[name]:.0%}{flag}")
    if args.save:
        args.save.write_text(json.dumps(saved, indent=1) + "\n", encoding="utf-8")
    return 1 if loud else 0


if __name__ == "__main__":
    sys.exit(main())
