"""Benchmark spine: one command, every metric by name.

    python3 benchmarks/spine/run.py [--workload NAME] [--seed N] [--traced] [--smoke] [--out DIR]

Sets up a served Sapphire in child process(es), replays a seeded request
list over real sockets with the repo's own HTTP clients, checks every
answer, and prints every metric with its unit.  The last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``) — the form ``BENCHMARK.json``'s driver reads; it passes
``--workload --seed --seconds --trace``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
# The benchmark measures the checkout it sits in: ``src`` for the program,
# ``benchmarks`` so this directory imports as the package ``spine``.
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from spine import env, layers, measure, workloads  # noqa: E402


def load_contract() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def check_golden(record: Dict[str, object], golden_dir: Path, update: bool) -> Optional[str]:
    """Compare the run's request and answer digests with the committed
    ones (default seed only: other seeds have no golden).  Returns a
    mismatch description, or None."""
    if record["seed"] != workloads.DEFAULT_SEED:
        return None
    path = golden_dir / f"{record['workload']}.json"
    golden = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    mine = {"seed": record["seed"], "requests": record["requests"]["digest"],  # type: ignore[index]
            "answers": record["answers_digest"]}
    sizing = str(record["sizing"])
    if update:
        golden[sizing] = mine
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return None
    if golden.get(sizing) != mine:
        return f"golden {path.name}[{sizing}] = {golden.get(sizing)} but this run gave {mine}"
    return None


def print_metrics(record: Dict[str, object], units: Dict[str, str]) -> None:
    print(f"== {record['workload']}  seed={record['seed']}  sizing={record['sizing']}  "
          f"{'traced' if record['traced'] else 'untraced'}")
    counts = record.get("sample_counts", {})
    raw = record.get("raw", {})
    for name, value in record["metrics"].items():  # type: ignore[union-attr]
        note = ""
        if name in raw:  # type: ignore[operator]
            note = f"   clock read {raw[name]:.4f}"  # type: ignore[index]
        if name in counts:  # type: ignore[operator]
            note += "   n=%(samples)d, %(beyond)d beyond" % counts[name]  # type: ignore[index]
            if counts[name]["beyond"] < 10:  # type: ignore[index]
                note += "  UNDERSAMPLED"
        print(f"  {name:<44} {value:>14.4f} {units.get(name, ''):<8}{note}")
    for problem in record["problems"]:  # type: ignore[union-attr]
        print(f"  PROBLEM: {problem}")
    guard = record["noise_guard"]
    print("  machine speed %.2f of nominal (%.2f in the first second, %.2f in the last)%s"
          % (guard["speed_mean"], guard["speed_before"], guard["speed_after"],  # type: ignore[index]
             "  NOISY" if guard["noisy"] else ""))  # type: ignore[index]


def driver_line(record: Dict[str, object], names: List[str], units: Dict[str, str]) -> str:
    metrics = record["metrics"]
    return json.dumps({
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}  # type: ignore[index]
                    for name in names},
    })


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="default: all four, in BENCHMARK.json order")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),  # type: ignore[arg-type]
                        help="measured time per workload (untraced)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (per-layer metrics) instead of the end-to-end one")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1, help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny dataset, one pass: exercises every code path in seconds")
    parser.add_argument("--out", type=Path, default=ROOT / ".benchmarks" / "spine",
                        help="directory for the result file and span JSONL")
    parser.add_argument("--golden", type=Path, default=HERE / "golden")
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)

    traced = bool(args.trace)
    sizing = workloads.SMOKE if args.smoke else workloads.TRACED if traced else workloads.FULL
    seconds = 0.0 if args.smoke else args.seconds
    group = "per_layer" if traced else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}  # type: ignore[operator]
    units.setdefault("failed_share", "share")
    names = [m["name"] for m in contract[group]]  # type: ignore[union-attr]
    selected = [args.workload] if args.workload else [w["name"] for w in contract["workloads"]]  # type: ignore[union-attr]
    args.out.mkdir(parents=True, exist_ok=True)
    scratch_root = str(args.out / "tmp")

    records = []
    for name in selected:
        workload = workloads.WORKLOADS[name]
        if traced:
            record = layers.run_traced(workload, args.seed, sizing, scratch_root, args.out)
        else:
            record = measure.run_untraced(workload, args.seed, seconds, sizing, scratch_root)
        problems: List[str] = []
        if record["failed"]:
            problems.append(f"{record['failed']} of {record['attempted']} requests failed; "
                            f"first: {record['failures'][:3]}")
        problems += [f"reconcile: {text}" for text in record["reconcile_mismatches"]]
        if record["warmup_mismatches"]:
            problems.append(f"{record['warmup_mismatches']} warm-up answers differ from the reference")
        golden_problem = check_golden(record, args.golden, args.update_golden)
        if golden_problem:
            problems.append(golden_problem)
        missing = [metric for metric in names if metric not in record["metrics"]]
        if missing:
            problems.append(f"metrics not measured: {missing}")
        record["problems"] = problems
        records.append(record)
        print_metrics(record, units)

    stamp = time.strftime("%Y%m%dT%H%M%S")
    result_path = args.out / f"spine-{stamp}-{os.getpid()}-{'traced' if traced else 'untraced'}.json"
    result_path.write_text(json.dumps({
        "fingerprint": env.fingerprint(ROOT), "argv": sys.argv[1:], "runs": records,
    }, indent=1) + "\n", encoding="utf-8")
    print(f"results: {result_path}")
    for record in records:
        if not any(p.startswith("metrics not measured") for p in record["problems"]):
            print(driver_line(record, names, units))
    return 1 if any(record["problems"] for record in records) else 0


#: Set in the environment of the process that does the work (``main``).
_SUPERVISED = "SPINE_SUPERVISED"
_PR_SET_CHILD_SUBREAPER = 36
#: How long a process left behind may take to end by itself before it is killed.
_GRACE_S = 20.0


def _child_pids() -> List[int]:
    mine = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text(encoding="ascii", errors="replace")
            except OSError:
                continue  # ended meanwhile
            # ``pid (comm) state ppid ...`` — comm may hold spaces and brackets.
            if int(stat.rpartition(")")[2].split()[1]) == os.getpid():
                mine.append(int(entry))
    return mine


def supervise(argv: List[str]) -> int:
    """Run the benchmark in a child process and return its exit code only
    once every process it started has ended, on every path out.

    ``main`` stops and joins what it spawns, but not all it causes to be
    spawned: ``multiprocessing`` gives each spawning process a resource
    tracker that ends a moment *after* its owner, and a killed ``main``
    joins nothing.  This process makes itself the one orphans are handed
    to (``PR_SET_CHILD_SUBREAPER``), so it can wait for them all; what has
    not ended by itself after ``_GRACE_S`` is killed and waited for.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")

    def _terminated(signum, frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, _terminated)

    worker = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), *argv],
                              env={**os.environ, _SUPERVISED: "1"})
    try:
        return worker.wait()
    finally:
        if worker.poll() is None:
            worker.terminate()  # its children see their pipes close and tear down
        deadline = time.monotonic() + _GRACE_S
        while True:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break  # none left
            if pid == 0:
                if time.monotonic() > deadline:
                    for straggler in _child_pids():
                        try:
                            os.kill(straggler, signal.SIGKILL)
                        except ProcessLookupError:
                            pass  # ended meanwhile
                time.sleep(0.01)


if __name__ == "__main__":
    sys.exit(main() if os.environ.get(_SUPERVISED) else supervise(sys.argv[1:]))
