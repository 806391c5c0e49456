"""The set-up budget: where a served system's set-up time and memory go.

    python3 benchmarks/setup_budget.py [--base REV]

The set-up counterpart of ``round_budget.py``.  It builds what the
spine's ``session_mix`` child builds — ``build_dataset`` →
``SparqlEndpoint`` → ``SapphireServer.register_endpoint`` →
``SparqlHttpServer`` — at ``small`` and ``medium``, each run in a fresh
interpreter, through public calls only: nothing under ``src/`` is
patched or wrapped.  After each stage a run records its seconds,
``VmRSS`` and ``VmHWM`` (MB).  The stages:

* ``import``        — ``import repro``;
* ``build_dataset`` — the store loaded, its writes in the pending log;
* ``fold``          — the first read, which folds the log into the
  memory store's permutations;
* each stage of ``InitializationReport.stage_seconds`` (Section 5's
  crawl, ``index``, ``qsm-vocabulary``), in the order the report lists
  them; their memory is read off a 2 ms sampler thread, as the last
  sample before the stage's end;
* ``serve``         — ``SparqlHttpServer.start()``: the server is ready.

``coverage`` is the share of the child's wall time (its first line to
ready) the stages account for; ``ready`` holds ``VmRSS``, ``VmHWM`` and
their difference at ready, the memory set-up took and gave back.  Five
runs a scale give medians.  One more run per scale traces the fold alone
with ``tracemalloc``: ``peak_mb`` is its traced peak, ``kept_mb`` what
is still allocated after it (the layout), ``ratio`` the two's quotient.
The record is printed and appended to ``benchmarks/trajectory.jsonl`` as
``"kind": "setup_budget"``.

The replica record (``--child SCALE --replica``; ``medium`` by default,
under ``"replica"``) builds what the spine's ``replica_mix`` child
builds, also through public calls only: ``prepare_snapshots`` (the
dataset, its 2-shard SQLite snapshot, Section 5 and the cache file)
then ``PreforkServer.start`` with 2 workers.  Before them it builds the
same dataset and times the snapshot copy alone, the step
``prepare_snapshots`` takes from the dataset store to the shards.  Its
stages: ``import``, ``build_dataset``, ``snapshot_copy``,
``prepare_snapshots``, ``prefork_start``, and ``worker_boot`` — the
longest of the workers' factory calls, which ``prefork_start`` holds and
``coverage`` does not count again, so ``prefork_start − worker_boot`` is
what starting the processes costs.  Each worker times its own call of
``build_backend_from_spec`` (:func:`timed_backend`, the factory this
script hands the pool), so trees that predate the ready message's
``boot_s`` are timed the same way.

Seconds from two runs of the script compare only loosely: one commit has
read 1.7x apart from one run to the next.  ``--base REV`` makes the
record paired: ``REV`` is checked out in a ``git worktree``
(``trajectory.py``'s helpers) and its own ``setup_budget.py`` children
alternate with this checkout's, run by run, so both sides see the same
machine.  Each scale then holds a ``base`` and a ``change`` block, each
stage with its median seconds and their [Q1, Q3].  A replica child of
either side is this script run on that tree's ``src`` (``--src``), so a
base that predates the replica record is timed the same way; its
snapshot copy is ``copy_into`` where the tree has it, else the
``add_all(store.triples())`` that ``prepare_snapshots`` made there.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # the child's wall time counts from here

import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Sequence, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
TRAJECTORY = ROOT / "benchmarks" / "trajectory.jsonl"
SCALES = ("small", "medium")
REPLICA_SCALES = ("medium",)
RUNS = 5
#: What the spine's ``session_mix`` child serves with.
TREE_CAPACITY = 2000
TIMEOUT_S = 2.0
SAMPLE_S = 0.002
#: What the spine's ``replica_mix`` child serves with.
REPLICA_TREE_CAPACITY = 300
N_WORKERS = 2
N_SHARDS = 2


def memory_mb() -> Tuple[float, float]:
    """This process's ``(VmRSS, VmHWM)`` in MB."""
    found = {}
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(("VmRSS:", "VmHWM:")):
                found[line[:5]] = int(line.split()[1]) / 1024.0
    return found["VmRSS"], found["VmHWM"]


class _Sampler(threading.Thread):
    """``(time, VmRSS, VmHWM)`` every :data:`SAMPLE_S` until stopped."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.samples: List[Tuple[float, float, float]] = [(time.perf_counter(), *memory_mb())]
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.wait(SAMPLE_S):
            self.samples.append((time.perf_counter(), *memory_mb()))

    def at(self, moment: float) -> Tuple[float, float]:
        """Memory as last sampled before ``moment``."""
        return [sample for sample in self.samples if sample[0] <= moment][-1][1:]


class _Stages:
    """A run's stage rows: each call closes a stage at now (or after
    ``seconds``), with ``VmRSS`` / ``VmHWM`` now (or ``memory``)."""

    def __init__(self) -> None:
        self.rows: List[Dict[str, object]] = []
        self.mark = STARTED

    def __call__(self, name: str, seconds: Optional[float] = None, memory=None) -> None:
        now = time.perf_counter()
        rss, hwm = memory if memory is not None else memory_mb()
        self.rows.append({"stage": name, "s": round(now - self.mark if seconds is None else seconds, 5),
                          "rss_mb": round(rss, 2), "hwm_mb": round(hwm, 2)})
        self.mark = now

    def within(self, name: str, seconds: float) -> None:
        """A part of the stage just closed: a row ``coverage`` skips."""
        rss, hwm = memory_mb()
        self.rows.append({"stage": name, "s": round(seconds, 5), "within": self.rows[-1]["stage"],
                          "rss_mb": round(rss, 2), "hwm_mb": round(hwm, 2)})

    def record(self) -> Dict[str, object]:
        """The run: its stages, its wall time and their coverage of it."""
        wall = time.perf_counter() - STARTED
        covered = sum(row["s"] for row in self.rows if "within" not in row)  # type: ignore[misc]
        return {"stages": self.rows, "wall_s": round(wall, 5), "coverage": round(covered / wall, 4)}


def child(scale: str, traced: bool) -> Dict[str, object]:
    """One run in this fresh interpreter: its stages, or (``traced``) the
    fold's traced peak and kept bytes."""
    stage = _Stages()
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    stage("import")
    dataset = repro.build_dataset(getattr(repro.DatasetConfig, scale)())
    stage("build_dataset")
    backend = dataset.store.backend
    if traced:
        tracemalloc.start()
        backend.has_match(None, None, None)  # the first read folds
        kept, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return {"peak_mb": round(peak / 2**20, 3), "kept_mb": round(kept / 2**20, 3),
                "ratio": round(peak / kept, 3)}
    backend.has_match(None, None, None)
    stage("fold")
    sampler = _Sampler()
    sampler.start()
    endpoint = repro.SparqlEndpoint(dataset.store, repro.EndpointConfig(timeout_s=TIMEOUT_S),
                                    name=f"dbpedia-{scale}")
    sapphire = repro.SapphireServer(repro.SapphireConfig(suffix_tree_capacity=TREE_CAPACITY))
    report = sapphire.register_endpoint(endpoint)
    registered = time.perf_counter()
    sampler.done.set()
    sampler.join()
    # The report's stages ran back to back and end with the call.
    moment = registered - sum(report.stage_seconds.values())
    for name, seconds in report.stage_seconds.items():
        moment += seconds
        stage(name, seconds, sampler.at(moment))
    stage.mark = registered
    server = repro.SparqlHttpServer(sapphire, max_workers=8, queue_limit=32).start()
    stage("serve")
    record = stage.record()
    server.stop()
    return record


def timed_backend(spec: Dict[str, object]):
    """A replica run's pool factory: ``build_backend_from_spec``, timed in
    the worker, its seconds left in ``spec["boot_dir"]`` under its pid."""
    from repro.net import build_backend_from_spec

    started = time.perf_counter()
    backend = build_backend_from_spec(spec)
    (Path(str(spec["boot_dir"])) / str(os.getpid())).write_text(repr(time.perf_counter() - started))
    return backend


def replica_child(scale: str, src: Path) -> Dict[str, object]:
    """One replica set-up in this fresh interpreter, on ``src``: the
    snapshot copy alone, then ``prepare_snapshots`` and the pool's start."""
    import tempfile

    stage = _Stages()
    sys.path.insert(0, str(src))
    import repro
    from repro.net import PreforkServer, prepare_snapshots
    from repro.store import create_sharded_backend

    stage("import")
    dataset = repro.build_dataset(getattr(repro.DatasetConfig, scale)())
    dataset.store.backend.has_match(None, None, None)  # the first read folds
    stage("build_dataset")
    with tempfile.TemporaryDirectory(prefix="setup-budget-") as scratch:
        backend = create_sharded_backend(N_SHARDS, "sqlite", str(Path(scratch) / "copy"))
        target = repro.TripleStore(backend=backend)
        if hasattr(dataset.store, "copy_into"):
            dataset.store.copy_into(target)
        else:
            target.add_all(dataset.store.triples())
        backend.close()
        stage("snapshot_copy")
        spec = {"scale": scale, "sapphire": True, "n_shards": N_SHARDS,
                "tree_capacity": REPLICA_TREE_CAPACITY, "timeout_s": TIMEOUT_S}
        prepared = prepare_snapshots(spec, str(Path(scratch) / "snapshot"))
        stage("prepare_snapshots")
        boot_dir = Path(scratch) / "boot"
        boot_dir.mkdir()
        pool = PreforkServer(timed_backend, {**prepared, "boot_dir": str(boot_dir)},
                             n_workers=N_WORKERS).start()
        stage("prefork_start")
        stage.within("worker_boot", max(float(path.read_text()) for path in boot_dir.iterdir()))
        record = stage.record()
        pool.stop()
    return record


def _spawn(scale: str, traced: bool, tree: Path = ROOT, replica: bool = False) -> Dict[str, object]:
    """One child run of ``tree``'s own copy of this script, on its own
    ``src``; a replica run is this script on ``tree``'s ``src``."""
    if replica:
        args = [sys.executable, str(Path(__file__).resolve()), "--child", scale, "--replica",
                "--src", str(tree / "src")]
    else:
        script = tree / "benchmarks" / Path(__file__).name
        args = [sys.executable, str(script), "--child", scale] + (["--traced"] if traced else [])
    done = subprocess.run(args, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _trajectory():
    """``trajectory.py``, imported on first use (a child does without)."""
    if str(ROOT / "benchmarks") not in sys.path:
        sys.path.insert(0, str(ROOT / "benchmarks"))
    import trajectory

    return trajectory


def _median(values: Sequence[float]) -> float:
    return round(statistics.median(values), 4)


def summary(runs: List[Dict[str, object]],
            fold: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """Per stage the median seconds, VmRSS and VmHWM over ``runs``; the
    wall time, coverage and ready memory likewise; the traced fold, if
    there is one (a replica record has none)."""
    names = [row["stage"] for row in runs[0]["stages"]]  # type: ignore[index]
    by_stage = {name: [row for run in runs for row in run["stages"] if row["stage"] == name]  # type: ignore[attr-defined]
                for name in names}
    ready = [run["stages"][-1] for run in runs]  # type: ignore[index]
    stages = {name: {key: _median([row[key] for row in rows]) for key in ("s", "rss_mb", "hwm_mb")}
              for name, rows in by_stage.items()}
    for name, rows in by_stage.items():
        q1_q3 = _trajectory().summary([row["s"] for row in rows])["q1_q3"]
        stages[name]["s_q1_q3"] = [round(q, 4) for q in q1_q3]
    return {
        "stages": stages,
        "wall_s": _median([run["wall_s"] for run in runs]),  # type: ignore[misc]
        "coverage": _median([run["coverage"] for run in runs]),  # type: ignore[misc]
        "ready": {"rss_mb": _median([row["rss_mb"] for row in ready]),
                  "hwm_mb": _median([row["hwm_mb"] for row in ready]),
                  "hwm_minus_rss_mb": _median([row["hwm_mb"] - row["rss_mb"] for row in ready])},
        **({"fold_traced": fold} if fold is not None else {}),
        "runs": runs,
    }


def run(scales: Sequence[str] = SCALES, runs: int = RUNS,
        base: Optional[Tuple[str, Path]] = None,
        replica_scales: Sequence[str] = ()) -> Dict[str, object]:
    """The full record (not yet written anywhere); with ``base`` — a
    revision and its checkout — paired: ``runs`` pairs of that tree's
    children and this checkout's.  ``replica_scales`` adds a replica
    record per scale."""
    trajectory = _trajectory()
    from round_budget import _dirty
    from spine import env

    fingerprint = env.fingerprint(ROOT)
    record: Dict[str, object] = {
        "kind": "setup_budget",
        "commit": f"{fingerprint['commit']}{'+dirty' if _dirty() else ''}",
        "fingerprint": fingerprint,
        "runs": runs,
        "scales": {},
    }
    if base is not None:
        record["base"], base_tree = base
    for scale in scales:
        if base is None:
            block = summary([_spawn(scale, False) for _ in range(runs)], _spawn(scale, True))
        else:
            sides = trajectory.alternated(runs, base_tree, lambda tree: _spawn(scale, False, tree))
            trees = {"base": base_tree, "change": ROOT}
            block = {side: summary(done, _spawn(scale, True, trees[side])) for side, done in sides.items()}
        record["scales"][scale] = block  # type: ignore[index]
    if replica_scales:
        record["replica"] = {}
    for scale in replica_scales:
        if base is None:
            block = summary([_spawn(scale, False, replica=True) for _ in range(runs)])
        else:
            sides = trajectory.alternated(
                runs, base_tree, lambda tree: _spawn(scale, False, tree, replica=True))
            block = {side: summary(done) for side, done in sides.items()}
        record["replica"][scale] = block  # type: ignore[index]
    return record


def print_record(record: Dict[str, object]) -> None:
    if "base" in record:
        print_paired(record)
        return
    print(f"== set-up budget, {record['runs']} runs a scale (medians), commit {record['commit']}")
    for scale, block in _blocks(record):
        ready = block["ready"]
        print(f"-- {scale}: {block['wall_s']:.3f} s to ready, stages cover {block['coverage']:.1%}; "
              f"at ready VmRSS {ready['rss_mb']:.1f} MB, VmHWM {ready['hwm_mb']:.1f} MB "
              f"(+{ready['hwm_minus_rss_mb']:.2f})")
        for name, row in block["stages"].items():
            print(f"  {name:<17} {row['s']:8.4f} s  VmRSS {row['rss_mb']:6.1f}  VmHWM {row['hwm_mb']:6.1f}")
        fold = block.get("fold_traced")
        if fold is not None:
            print(f"  fold, traced: peak {fold['peak_mb']:.2f} MB, kept {fold['kept_mb']:.2f} MB, "
                  f"ratio {fold['ratio']:.2f}")


def _blocks(record: Dict[str, object]):
    """``(label, block)`` per scale, the replica scales after the others."""
    yield from record["scales"].items()  # type: ignore[union-attr]
    for scale, block in record.get("replica", {}).items():  # type: ignore[union-attr]
        yield f"replica {scale}", block


def print_paired(record: Dict[str, object]) -> None:
    print(f"== set-up budget, {record['runs']} pairs a scale (medians [Q1, Q3]), "
          f"commit {record['commit']} against {record['base']}")
    for scale, block in _blocks(record):
        base, change = block["base"], block["change"]
        print(f"-- {scale}: {base['wall_s']:.3f} -> {change['wall_s']:.3f} s to ready")
        for name, row in change["stages"].items():
            was = base["stages"].get(name)
            if was is None:
                continue
            shift = (row["s"] - was["s"]) / was["s"] if was["s"] else 0.0
            print(f"  {name:<17} {was['s']:8.4f} [{was['s_q1_q3'][0]:.4f}, {was['s_q1_q3'][1]:.4f}]"
                  f"  {row['s']:8.4f} [{row['s_q1_q3'][0]:.4f}, {row['s_q1_q3'][1]:.4f}]  {shift:+7.1%}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["--child"]:
        if "--replica" in argv:
            print(json.dumps(replica_child(argv[1], Path(argv[argv.index("--src") + 1]))))
        else:
            print(json.dumps(child(argv[1], "--traced" in argv)))
        return 0
    if argv and argv[0] != "--base" or len(argv) not in (0, 2):
        raise SystemExit(f"usage: {Path(__file__).name} [--base REV]")
    if argv:
        trajectory = _trajectory()
        with trajectory.worktree(argv[1]) as base_tree:
            record = run(base=(trajectory.short(argv[1]), base_tree),
                         replica_scales=REPLICA_SCALES)
    else:
        record = run(replica_scales=REPLICA_SCALES)
    with TRAJECTORY.open("a", encoding="utf-8") as out:
        out.write(json.dumps(record, sort_keys=True) + "\n")
    print_record(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
