"""Closed-loop HTTP replay with the repo's own clients, retries off.

One client = one thread that sends its requests in order and waits for
each reply before the next (the paper's user study: a user reads the
completions before the next keystroke).  Latencies are raw
``perf_counter`` samples — the ±6 % buckets of ``LatencyHistogram`` are
too coarse to compare two runs — taken around the client call, so they
include the client-side decode a real caller also pays.
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.endpoint.endpoint import EndpointError, EndpointTimeout, QueryRejected
from repro.eval.replay import ReplayLedger
from repro.net.client import ConnectionFailed, HttpSapphireClient, HttpSparqlEndpoint
from repro.sparql.errors import SparqlError

from . import answers
from .workloads import ROUTE_OF, Request

CLIENT_TIMEOUT_S = 20.0


def _outcome_of(error: Exception) -> str:
    """The ledger category ``repro.eval.replay.reconcile`` expects."""
    if isinstance(error, ConnectionFailed):
        return "unreachable"
    if isinstance(error, QueryRejected):
        return "rejected"
    if isinstance(error, EndpointTimeout):
        return "timeouts"
    if isinstance(error, SparqlError):
        return "client_errors"
    return "server_errors"


@dataclass
class Sample:
    request: Request
    started: float              # perf_counter at send
    seconds: float
    outcome: str
    response: object = None     # parsed client-side result, dropped after checking
    ok: bool = False            # outcome ok AND answer equals the reference


@dataclass
class LaneRun:
    """What one client did in one pass."""

    samples: List[Sample] = field(default_factory=list)
    ledger: ReplayLedger = field(default_factory=ReplayLedger)
    finished_at: float = 0.0


def _replay_lane(requests: Sequence[Request], url: str, start: threading.Barrier,
                 run: LaneRun) -> None:
    endpoint = HttpSparqlEndpoint(url, timeout_s=CLIENT_TIMEOUT_S, max_retries=0,
                                  rng=random.Random(0))
    clients: Dict[Optional[str], HttpSapphireClient] = {}
    start.wait()
    for request in requests:
        kind = str(request["kind"])
        caller: object = endpoint
        if kind != "sparql":
            session = request.get("session")
            caller = clients.get(session)  # type: ignore[arg-type]
            if caller is None:
                caller = clients[session] = HttpSapphireClient(  # type: ignore[index]
                    url, session=session, timeout_s=CLIENT_TIMEOUT_S,  # type: ignore[arg-type]
                    max_retries=0, rng=random.Random(0))
        response, outcome, rows = None, "ok", 0
        started = time.perf_counter()
        try:
            if kind == "complete":
                response = caller.complete(str(request["text"]), int(request["k"]))  # type: ignore[union-attr,arg-type]
            elif kind == "sparql":
                response = endpoint.select(str(request["query"]))
                rows = len(response.rows)
            else:
                response = caller.suggest(str(request["query"]),  # type: ignore[union-attr]
                                          suggest=kind == "suggest_fix")
        except (EndpointError, SparqlError) as error:
            outcome = _outcome_of(error)
        except ValueError:
            pass  # a 200 whose body does not parse: server-side ok, fails its check
        seconds = time.perf_counter() - started
        run.ledger.note(ROUTE_OF[kind], outcome, seconds, rows=rows,
                        worker=caller.last_worker)  # type: ignore[union-attr]
        run.samples.append(Sample(request, started, seconds, outcome, response))
    endpoint.reset_log()
    run.finished_at = time.perf_counter()


@dataclass
class PassResult:
    started: float              # perf_counter at the barrier release
    wall_s: float               # barrier release -> last client done
    samples: List[Sample]
    ledger: ReplayLedger


def replay_pass(lanes: Sequence[Sequence[Request]], url: str,
                reference: Optional[Sequence[str]]) -> PassResult:
    """Replay each lane on its own client thread, concurrently; then check
    every answer against ``reference`` (digests by request id)."""
    lanes = [lane for lane in lanes if lane]
    if not lanes:
        return PassResult(0.0, 0.0, [], ReplayLedger())
    runs = [LaneRun() for _ in lanes]
    barrier = threading.Barrier(len(lanes) + 1)
    threads = [threading.Thread(target=_replay_lane, args=(lane, url, barrier, run),
                                name=f"spine-client-{index}")
               for index, (lane, run) in enumerate(zip(lanes, runs))]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall_s = max(run.finished_at for run in runs) - started
    ledger = ReplayLedger()
    samples: List[Sample] = []
    for run in runs:
        ledger.merge(run.ledger)
        samples.extend(run.samples)
    for sample in samples:
        if sample.response is not None and sample.outcome == "ok":
            got = answers.digest(answers.canonical_http(sample.request, sample.response))
            sample.ok = reference is None or got == reference[int(sample.request["id"])]  # type: ignore[arg-type]
            sample.response = got
    return PassResult(started, wall_s, samples, ledger)


def split_lanes(requests: Sequence[Request], clients: int) -> List[List[Request]]:
    """Deal ``requests`` to ``clients`` closed-loop clients: whole sessions
    round-robin in order of first appearance, session-less requests one
    by one."""
    lanes: List[List[Request]] = [[] for _ in range(clients)]
    owner: Dict[object, int] = {}
    for request in requests:
        key = request.get("session") or request["id"]
        lanes[owner.setdefault(key, len(owner) % clients)].append(request)
    return lanes


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Percentile of an ascending sample, interpolated between the two
    closest ranks (so the p50 of an even count is the mean of the middle
    two, as ``statistics.median`` has it)."""
    position = fraction * (len(sorted_values) - 1)
    below = math.floor(position)
    above = min(below + 1, len(sorted_values) - 1)
    return sorted_values[below] + (sorted_values[above] - sorted_values[below]) * (position - below)


def samples_beyond(count: int, fraction: float) -> int:
    """How many samples lie above the ``fraction`` percentile."""
    return count - max(1, math.ceil(fraction * count))
