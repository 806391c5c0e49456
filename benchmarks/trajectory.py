"""The trajectory: a change against its parent, on the spine, in pairs.

    python3 benchmarks/trajectory.py [--base REV] [--workload NAME ...] [--seed N] [--pairs N]

Checks ``--base`` (default ``HEAD~1``) out with ``git worktree add`` in a
temporary directory, then runs ``benchmarks/spine/run.py --workload W
--seed N`` there and in this checkout — its working tree as it stands,
committed or not — for ``--pairs`` pairs, alternating which side goes
first.  From each run it reads the JSON on the last line of stdout.

It appends one record to ``benchmarks/trajectory.jsonl``: the change's
commit (``+dirty`` when the working tree differs from it) and the base's,
its ``kind`` (``pr`` when the base is the change's parent, ``creep``
otherwise; see :func:`run_kind`), the spine's environment fingerprint,
and for each workload and end-to-end metric each side's median, its
[Q1, Q3], the pairs the change won and the spine's verdict
(``spine/compare.py``: ``worse``, ``better``, ``unresolved`` or
``same``).  Then it prints the comparison table.  Exit 1
when a metric reads ``worse`` or a run was not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, TypeVar

ROOT = Path(__file__).resolve().parents[1]
TRAJECTORY = ROOT / "benchmarks" / "trajectory.jsonl"
sys.path.insert(0, str(ROOT / "benchmarks"))

from spine import env  # noqa: E402
from spine.compare import quartiles, verdict  # noqa: E402

#: Each run's limit, as ``spine/spread.py`` allows.
RUN_TIMEOUT_S = 900

T = TypeVar("T")


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


@contextmanager
def worktree(rev: str) -> Iterator[Path]:
    """``rev`` checked out with ``git worktree add`` in a temporary
    directory, for as long as the block runs."""
    with tempfile.TemporaryDirectory(prefix="trajectory-") as scratch:
        tree = Path(scratch) / "base"
        _git("worktree", "add", "--detach", str(tree), rev)
        try:
            yield tree
        finally:
            _git("worktree", "remove", "--force", str(tree))


def alternated(pairs: int, base_tree: Path, run: Callable[[Path], T]) -> Dict[str, List[T]]:
    """``run(tree)`` for ``pairs`` pairs of the base tree and this
    checkout, alternating which side goes first: each side's results."""
    runs: Dict[str, List[T]] = {"base": [], "change": []}
    for index in range(pairs):
        sides = [("base", base_tree), ("change", ROOT)]
        for side, tree in sides if index % 2 == 0 else sides[::-1]:
            runs[side].append(run(tree))
    return runs


def short(rev: str) -> str:
    """``rev``'s abbreviated commit hash."""
    return _git("rev-parse", "--short", rev)


def run_kind(dirty: bool, base: str, head: str, head_parent: Optional[str]) -> str:
    """``"pr"`` when ``base`` is the change's parent, ``"creep"`` otherwise.

    The change is the working tree when it is ``dirty`` (its parent is
    ``head``), else the commit ``head`` (its parent is ``head_parent``,
    ``None`` for a root commit).  All three are full commit hashes.
    """
    return "pr" if base == (head if dirty else head_parent) else "creep"


def spine_run(tree: Path, workload: str, seed: int) -> Dict[str, object]:
    """One untraced spine run in ``tree``: the driver's JSON line."""
    command = [sys.executable, "benchmarks/spine/run.py", "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{' '.join(command)} in {tree} exited {done.returncode}:\n"
                         f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def compare(base: Sequence[Dict[str, object]], change: Sequence[Dict[str, object]],
            end_to_end: Sequence[Dict[str, object]]) -> Dict[str, Dict[str, object]]:
    """Per end-to-end metric: each side's median and [Q1, Q3], the pairs
    the change won (the i-th run of each side form a pair) and the verdict
    against the metric's bound."""
    rows: Dict[str, Dict[str, object]] = {}
    for spec in end_to_end:
        name = str(spec["name"])
        a = [float(run["metrics"][name]["value"]) for run in base]  # type: ignore[index]
        b = [float(run["metrics"][name]["value"]) for run in change]  # type: ignore[index]
        sign = 1.0 if spec["better"] == "lower" else -1.0
        label, _ = verdict(a, b, str(spec["better"]), float(spec["bound"]))  # type: ignore[arg-type]
        rows[name] = {
            "base": summary(a),
            "change": summary(b),
            "won": sum(1 for x, y in zip(a, b) if sign * y < sign * x),
            "pairs": len(a),
            "verdict": label,
        }
    return rows


def flagged(rows: Dict[str, Dict[str, object]]) -> List[str]:
    """The metrics the change made worse than their bound allows."""
    return [name for name, row in rows.items() if row["verdict"] == "worse"]


def summary(values: Sequence[float]) -> Dict[str, object]:
    """``values``' median and [Q1, Q3]."""
    q1, _, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1_q3": [q1, q3]}


def print_table(record: Dict[str, object]) -> None:
    print(f"== {record['commit']} against {record['parent']}, seed {record['seed']}, "
          f"{record['pairs']} pairs")
    for workload, block in record["workloads"].items():  # type: ignore[union-attr]
        print(f"-- {workload}   incorrect runs: base {block['incorrect']['base']}, "
              f"change {block['incorrect']['change']}")
        for name, row in block["metrics"].items():
            a, b = row["base"], row["change"]
            shift = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
            print(f"  {name:<20} base {a['median']:10.4f} [{a['q1_q3'][0]:.4f}, {a['q1_q3'][1]:.4f}]"
                  f"  change {b['median']:10.4f} [{b['q1_q3'][0]:.4f}, {b['q1_q3'][1]:.4f}]"
                  f"  {shift:+7.1%}  won {row['won']}/{row['pairs']}  {row['verdict']}")


def main(argv: Sequence[str] | None = None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD~1", help="the revision to compare against")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in contract["workloads"]],
                        help="repeatable; default: all four")
    # The spine's default seed: the one its golden answer digests pin.
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    head_parents = _git("rev-parse", "HEAD^@").split()  # none for a root commit
    kind = run_kind(dirty, _git("rev-parse", args.base), _git("rev-parse", "HEAD"),
                    head_parents[0] if head_parents else None)
    record: Dict[str, object] = {
        "commit": short("HEAD") + ("+dirty" if dirty else ""),
        "parent": short(args.base),
        "kind": kind,
        "fingerprint": env.fingerprint(ROOT),
        "seed": args.seed,
        "pairs": args.pairs,
        "workloads": {},
    }
    with worktree(args.base) as base_tree:
        for workload in args.workload or [w["name"] for w in contract["workloads"]]:
            runs = alternated(args.pairs, base_tree,
                              lambda tree: spine_run(tree, workload, args.seed))
            record["workloads"][workload] = {  # type: ignore[index]
                "incorrect": {side: sum(1 for run in done if not run["correct"])
                              for side, done in runs.items()},
                "metrics": compare(runs["base"], runs["change"], contract["end_to_end"]),
            }
    with TRAJECTORY.open("a", encoding="utf-8") as out:
        out.write(json.dumps(record, sort_keys=True) + "\n")
    print_table(record)
    blocks = record["workloads"].values()  # type: ignore[union-attr]
    bad = any(flagged(b["metrics"]) or any(b["incorrect"].values()) for b in blocks)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
