"""The repair-round budget: where a QSM round's time goes, in process.

    python3 benchmarks/round_budget.py [--base REV]

Replays the 156 ``qsm_repair`` requests (52 gold questions x {gold,
literal typo, predicate typo}, the spine's default seed) as
``SapphireServer.run_query(text, suggest=True)`` calls on three servers:

* ``memory_small``   — the in-memory server ``qsm_repair`` serves
  (``small``, suffix-tree capacity 2000);
* ``memory_medium``  — the same at ``medium``;
* ``replica_medium`` — a worker of ``replica_mix``: a 2-shard read-only
  SQLite snapshot and a read-only tiered cache (capacity 300).

``run(scale)`` puts all three on one dataset instead (the test runs
``tiny``).  Each server gets one warm-up pass, then three plain passes
(``ms_per_round``: their median) alternating with three timed passes.
A timed pass wraps named functions — nothing under ``src/`` changes —
and books each one's time, less that of the wrapped calls under it, to
its part:

* ``scan``        — ``AlternativeTermsFinder.candidate_positions``;
* ``match_loop``  — ``similarity._jaro_given``, the Jaro match loop
  inside the scan, on its own line;
* ``planning``    — ``QueryPlanner.plan``;
* ``proofs``      — ``ProbeBatcher.shipped``;
* ``probes``      — ``ProbeBatcher.run`` and ``AlternativeTermsFinder.
  suggest``: probe execution and the per-candidate finish;
* ``relaxation``  — ``StructureRelaxer.ground_literals`` / ``relax``;
* ``query``       — ``FederatedQueryProcessor.run`` outside the parts
  above: the user's own query (inside a part, a run is that part's);
* ``text``        — ``parse_query`` / ``serialize_query`` as
  ``run_query`` calls them: the user's query in and out.

``coverage`` is the share of a round's wall time (``run_query``) the
parts account for.  A last pass counts calls: plans, ``encode_pattern``,
dictionary lookups (``TermDictionary.lookup``) and ``has_match`` on the
store's backend.  The record is printed and appended to
``benchmarks/trajectory.jsonl`` as ``"kind": "round_budget"``.

Milliseconds from two runs of the script compare only loosely (one
commit has read 1.7x apart).  ``--base REV`` makes the record paired:
``REV`` is checked out in a ``git worktree`` (``trajectory.py``'s
helpers), and :data:`PAIRS` runs of its own ``run()`` and of this
checkout's alternate, each in a fresh interpreter.  Each server
then holds a ``base`` and a ``change`` block: ``ms_per_round`` and
``timed_ms_per_round`` as median and [Q1, Q3] over the runs, each
part's median share, and the last run's counts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import ExitStack
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
TRAJECTORY = ROOT / "benchmarks" / "trajectory.jsonl"
sys.path.insert(0, str(ROOT / "benchmarks"))
sys.path.insert(0, str(ROOT / "src"))

from repro.core.probes import ProbeBatcher  # noqa: E402
from repro.core.qsm_relax import StructureRelaxer  # noqa: E402
from repro.core.qsm_terms import AlternativeTermsFinder  # noqa: E402
from repro.core import sapphire  # noqa: E402
from repro.core.sapphire import SapphireServer  # noqa: E402
from repro.federation.fedx import FederatedQueryProcessor  # noqa: E402
from repro.net.prefork import build_backend_from_spec, prepare_snapshots  # noqa: E402
from repro.sparql.plan import QueryPlanner  # noqa: E402
from repro.store.dictionary import TermDictionary  # noqa: E402
from repro.store.triplestore import TripleStore  # noqa: E402
from repro.text import similarity  # noqa: E402
from spine import env  # noqa: E402
from spine.serve import build_memory_sapphire, prefork_spec  # noqa: E402
from spine.workloads import FULL, WORKLOADS  # noqa: E402

SEED = 2016
PASSES = 3
#: Runs a side of a paired record (each ~30 s at the default scales).
PAIRS = 3

#: (owner, attribute, part, inherit): an ``inherit`` wrapper books its
#: time to the part it runs inside, and to its own only at the top.
PARTS: Tuple[Tuple[object, str, str, bool], ...] = (
    (AlternativeTermsFinder, "candidate_positions", "scan", False),
    (similarity, "_jaro_given", "match_loop", False),
    (QueryPlanner, "plan", "planning", False),
    (ProbeBatcher, "shipped", "proofs", False),
    (ProbeBatcher, "run", "probes", False),
    (AlternativeTermsFinder, "suggest", "probes", False),
    (StructureRelaxer, "ground_literals", "relaxation", False),
    (StructureRelaxer, "relax", "relaxation", False),
    (FederatedQueryProcessor, "run", "query", True),
    (sapphire, "parse_query", "text", False),
    (sapphire, "serialize_query", "text", False),
)
ROUND = "round"


def repair_queries() -> List[str]:
    """The ``qsm_repair`` mix's query texts, in the order it sends them."""
    return [str(request["query"]) for request in WORKLOADS["qsm_repair"].mix(SEED, FULL)]


def _patch(patches: ExitStack, owner: object, name: str, wrap: Callable) -> None:
    """Replace ``owner.name`` by ``wrap`` of it until ``patches`` closes."""
    patches.enter_context(mock.patch.object(owner, name, wrap(getattr(owner, name))))


def _timed_pass(server: SapphireServer, queries: Sequence[str]) -> Dict[str, float]:
    """Seconds per part over one pass, each call's own time less that of
    the wrapped calls under it; ``round`` is what no part claims."""
    totals: Dict[str, float] = defaultdict(float)
    stack: List[List[object]] = []  # [part, seconds spent in wrapped calls below]
    clock = time.perf_counter

    def booking(part: str, inherit: bool):
        def wrap(original):
            def timed(*args, **kwargs):
                mine = part
                if inherit and stack and stack[-1][0] != ROUND:
                    mine = stack[-1][0]
                frame = [mine, 0.0]
                stack.append(frame)
                started = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    spent = clock() - started
                    stack.pop()
                    totals[mine] += spent - frame[1]  # type: ignore[operator]
                    if stack:
                        stack[-1][1] += spent  # type: ignore[operator]
            return timed
        return wrap

    with ExitStack() as patches:
        for owner, name, part, inherit in PARTS:
            _patch(patches, owner, name, booking(part, inherit))
        _patch(patches, SapphireServer, "run_query", booking(ROUND, False))
        for text in queries:
            server.run_query(text, suggest=True)
    return dict(totals)


def _counted_pass(server: SapphireServer, queries: Sequence[str]) -> Dict[str, int]:
    counts: Dict[str, int] = defaultdict(int)

    def counting(key: str):
        def wrap(original):
            def counted(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)
            return counted
        return wrap

    backend = server.endpoints[0].store.backend
    with ExitStack() as patches:
        _patch(patches, QueryPlanner, "plan", counting("plans"))
        _patch(patches, TripleStore, "encode_pattern", counting("encode_pattern"))
        _patch(patches, TermDictionary, "lookup", counting("dictionary_lookups"))
        _patch(patches, type(backend), "has_match", counting("has_match"))
        for text in queries:
            server.run_query(text, suggest=True)
    return {key: counts[key] for key in ("plans", "encode_pattern", "dictionary_lookups", "has_match")}


def _plain_pass(server: SapphireServer, queries: Sequence[str]) -> float:
    started = time.perf_counter()
    for text in queries:
        server.run_query(text, suggest=True)
    return time.perf_counter() - started


def budget(server: SapphireServer, queries: Sequence[str]) -> Dict[str, object]:
    """One server's record: ms per round, each part's ms per round and
    share of a timed round, the parts' coverage, and the counts."""
    n = len(queries)
    _plain_pass(server, queries)  # warm-up: what a first round builds
    plain: List[float] = []
    timed: List[Dict[str, float]] = []
    for _ in range(PASSES):
        plain.append(_plain_pass(server, queries))
        timed.append(_timed_pass(server, queries))
    names = sorted({part for pass_ in timed for part in pass_})
    per_part = {name: statistics.median(pass_.get(name, 0.0) for pass_ in timed) for name in names}
    wall = statistics.median(sum(pass_.values()) for pass_ in timed)
    parts = {
        name: {"ms": round(1000 * seconds / n, 4), "share": round(seconds / wall, 4)}
        for name, seconds in per_part.items() if name != ROUND
    }
    return {
        "ms_per_round": round(1000 * statistics.median(plain) / n, 4),
        "timed_ms_per_round": round(1000 * wall / n, 4),
        "parts": parts,
        "plan_plus_proof_ms": round(
            sum(parts.get(name, {"ms": 0.0})["ms"] for name in ("planning", "proofs")), 4),
        "coverage": round(1.0 - per_part.get(ROUND, 0.0) / wall, 4),
        "counts": _counted_pass(server, queries),
    }


def servers(scale: Optional[str], scratch: str) -> List[Tuple[str, Callable[[], SapphireServer]]]:
    """``(name, build)`` of the three servers; ``scale`` overrides each
    one's dataset."""
    small, medium = scale or "small", scale or "medium"

    def replica() -> SapphireServer:
        spec = prepare_snapshots(prefork_spec(medium, WORKLOADS["replica_mix"].tree_capacity),
                                 os.path.join(scratch, "snapshot"))
        return build_backend_from_spec(spec)

    return [
        ("memory_small", lambda: build_memory_sapphire(small, WORKLOADS["qsm_repair"].tree_capacity)),
        ("memory_medium", lambda: build_memory_sapphire(medium, WORKLOADS["qsm_repair"].tree_capacity)),
        ("replica_medium", replica),
    ]


def run(scale: Optional[str] = None) -> Dict[str, object]:
    """The full record (not yet written anywhere)."""
    queries = repair_queries()
    fingerprint = env.fingerprint(ROOT)
    record: Dict[str, object] = {
        "kind": "round_budget",
        "commit": f"{fingerprint['commit']}{'+dirty' if _dirty() else ''}",
        "fingerprint": fingerprint,
        "seed": SEED,
        "rounds": len(queries),
        "scale": scale,
        "servers": {},
    }
    with tempfile.TemporaryDirectory(prefix="round-budget-") as scratch:
        for name, build in servers(scale, scratch):
            server = build()
            record["servers"][name] = budget(server, queries)  # type: ignore[index]
            server.cache.close()
            for endpoint in server.endpoints:
                endpoint.store.close()
    return record


#: A child of :func:`paired`: one :func:`run` of the checkout it runs in.
CHILD = ("import json, sys; sys.path.insert(0, 'benchmarks'); import round_budget; "
         "print(json.dumps(round_budget.run(sys.argv[1] or None)))")


def _spawn(tree: Path, scale: Optional[str]) -> Dict[str, object]:
    done = subprocess.run([sys.executable, "-c", CHILD, scale or ""], cwd=tree,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def paired(base: str, base_tree: Path, scale: Optional[str] = None, pairs: int = PAIRS) -> Dict[str, object]:
    """The paired record: ``pairs`` runs of ``base_tree``'s :func:`run`
    alternating with this checkout's, each side summarized per server."""
    from trajectory import alternated, summary

    sides = alternated(pairs, base_tree, lambda tree: _spawn(tree, scale))
    change = sides["change"][-1]
    servers: Dict[str, Dict[str, object]] = {}
    for name in change["servers"]:  # type: ignore[union-attr]
        servers[name] = {}
        for side, runs in sides.items():
            blocks = [run["servers"][name] for run in runs]  # type: ignore[index]
            parts = sorted({part for block in blocks for part in block["parts"]})
            servers[name][side] = {
                "ms_per_round": summary([block["ms_per_round"] for block in blocks]),
                "timed_ms_per_round": summary([block["timed_ms_per_round"] for block in blocks]),
                "coverage": statistics.median(block["coverage"] for block in blocks),
                "shares": {part: statistics.median(block["parts"].get(part, {"share": 0.0})["share"]
                                                   for block in blocks) for part in parts},
                "counts": blocks[-1]["counts"],
                "runs": blocks,
            }
    return {key: change[key] for key in ("kind", "commit", "fingerprint", "seed", "rounds", "scale")} | {
        "base": base, "base_commit": sides["base"][-1]["commit"], "pairs": pairs, "servers": servers,
    }


def _dirty() -> bool:
    """Whether the working tree differs from its commit (as
    ``trajectory.py`` marks a change that is not committed yet)."""
    done = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                          capture_output=True, text=True, check=False)
    return bool(done.stdout.strip())


def print_record(record: Dict[str, object]) -> None:
    if "base" in record:
        print_paired(record)
        return
    print(f"== round budget, {record['rounds']} rounds, commit {record['commit']}")
    for name, block in record["servers"].items():  # type: ignore[union-attr]
        print(f"-- {name}: {block['ms_per_round']:.3f} ms/round "
              f"(timed {block['timed_ms_per_round']:.3f}), parts cover {block['coverage']:.1%}")
        for part, row in sorted(block["parts"].items(), key=lambda item: -item[1]["ms"]):
            print(f"  {part:<12} {row['ms']:8.4f} ms  {row['share']:6.1%}")
        print(f"  plan+proof   {block['plan_plus_proof_ms']:8.4f} ms")
        print("  counts: " + ", ".join(f"{key} {value:,}" for key, value in block["counts"].items()))


def print_paired(record: Dict[str, object]) -> None:
    print(f"== round budget, {record['rounds']} rounds, {record['pairs']} pairs (medians [Q1, Q3]), "
          f"commit {record['commit']} against {record['base']}")
    for name, block in record["servers"].items():  # type: ignore[union-attr]
        base, change = block["base"], block["change"]
        a, b = base["ms_per_round"], change["ms_per_round"]
        shift = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
        print(f"-- {name}: {a['median']:.3f} [{a['q1_q3'][0]:.3f}, {a['q1_q3'][1]:.3f}] -> "
              f"{b['median']:.3f} [{b['q1_q3'][0]:.3f}, {b['q1_q3'][1]:.3f}] ms/round  {shift:+.1%}")
        for part in sorted(change["shares"], key=lambda part: -change["shares"][part]):
            print(f"  {part:<12} share {base['shares'].get(part, 0.0):6.1%} -> {change['shares'][part]:6.1%}")
        print("  counts: " + ", ".join(f"{key} {base['counts'][key]:,} -> {value:,}"
                                       for key, value in change["counts"].items()))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="pair the record with this revision's runs")
    args = parser.parse_args(argv)
    if args.base is None:
        record = run()
    else:
        from trajectory import short, worktree

        with worktree(args.base) as base_tree:
            record = paired(short(args.base), base_tree)
    with TRAJECTORY.open("a", encoding="utf-8") as out:
        out.write(json.dumps(record, sort_keys=True) + "\n")
    print_record(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
