"""Session-replay load harness: deterministic scripts, live replay.

The paper's headline claims are about *interactive, many-user*
workloads — users typing into the QCM, reading suggestions, issuing a
broken query, accepting a QSM fix and re-issuing — yet micro-benchmarks
exercise each subsystem in isolation.  This module closes that gap in
two deterministic halves:

Script generation (offline, no I/O, no wall clock)
    :func:`generate_scripts` samples zipfian personas
    (:class:`~repro.eval.userstudy.Participant`) and questions
    (:mod:`repro.data.questions`) into **interaction scripts**: flat
    lists of timestamped events — keystroke-cadence ``/complete``
    streams (with persona-rate typos and corrections), a broken-literal
    ``/suggest`` round (the paper's Figure 2 scenario), the gold-query
    re-issue, and a closing ``/sparql`` query.  All randomness flows
    through explicit seeded :class:`random.Random` instances and events
    carry rng-drawn *offsets*, never wall-clock times, so two runs with
    the same config produce byte-identical scripts
    (:func:`scripts_to_json` is canonical JSON).

Replay (online, over real sockets)
    :func:`run_replay` partitions scripts across worker processes, each
    driving :class:`~repro.net.client.HttpSparqlEndpoint` /
    :class:`~repro.net.client.HttpSapphireClient` against one live
    server with retries *disabled* — one script event is exactly one
    HTTP request, so the client-side :class:`ReplayLedger` reconciles
    exactly against the server's per-route ``/stats`` counters
    (:func:`reconcile`).  While workers replay, the driver polls
    ``/stats/series`` each tick, building the per-route latency
    histogram time series the benchmark gate and
    :func:`repro.eval.reporting.format_route_series` consume.
"""

from __future__ import annotations

import json
import random
import re
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..data.questions import Question, user_study_questions
from ..endpoint.endpoint import EndpointError, EndpointTimeout, QueryRejected
from ..net.client import (
    ConnectionFailed,
    HttpSapphireClient,
    HttpSparqlEndpoint,
    fetch_stats,
    fetch_stats_series,
)
from ..net.metrics import LatencyHistogram, route_deltas
from ..sparql.errors import SparqlError
from .userstudy import Participant, camelize

__all__ = [
    "ReplayConfig",
    "SessionScript",
    "ReplayLedger",
    "ReplayReport",
    "generate_scripts",
    "scripts_to_json",
    "scripts_from_json",
    "run_replay",
    "replay_scripts",
    "reconcile",
]

#: Ledger outcome categories, in reconciliation order.
OUTCOMES = ("ok", "rejected", "timeouts", "client_errors",
            "server_errors", "unreachable")

#: Connections a replay must open against a pool before all of its
#: responses landing on one worker counts as a reconciliation mismatch.
SPREAD_MIN_CONNECTIONS = 11

_LITERAL_RE = re.compile(r'"([^"\n]{2,})"@en')


# ----------------------------------------------------------------------
# Script generation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ReplayConfig:
    """Everything that determines a generated workload, and nothing else.

    Two configs that compare equal generate byte-identical scripts.
    """

    seed: int = 2016
    n_sessions: int = 20
    #: Zipf skew for persona and question popularity (weight 1/rank^s).
    zipf_s: float = 1.1
    #: Distinct personas to draw sessions from (rank 1 = most frequent).
    persona_pool: int = 16
    #: Upper bound on /complete keystroke events per typed keyword.
    max_keystrokes: int = 6
    #: Completions requested per keystroke (the paper's k).
    complete_k: int = 5
    #: Base think-time bounds between composing steps, seconds.
    think_min_s: float = 0.5
    think_max_s: float = 2.0
    #: Base inter-keystroke cadence bounds, seconds.
    key_min_s: float = 0.08
    key_max_s: float = 0.35

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "n_sessions": self.n_sessions,
            "zipf_s": self.zipf_s,
            "persona_pool": self.persona_pool,
            "max_keystrokes": self.max_keystrokes,
            "complete_k": self.complete_k,
            "think_min_s": self.think_min_s,
            "think_max_s": self.think_max_s,
            "key_min_s": self.key_min_s,
            "key_max_s": self.key_max_s,
        }


@dataclass
class SessionScript:
    """One user session as a flat list of timestamped interaction events.

    Events are plain dicts with ``at`` (seconds since session start,
    rng-drawn, monotonically non-decreasing) and ``route`` plus the
    route's payload:

    * ``{"at", "route": "complete", "text", "k"}``
    * ``{"at", "route": "suggest", "query", "suggest"}``
    * ``{"at", "route": "sparql", "query"}``
    """

    session: str
    pid: int
    qid: str
    events: List[Dict[str, object]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "session": self.session,
            "pid": self.pid,
            "qid": self.qid,
            "events": self.events,
        }

    @classmethod
    def from_dict(cls, document: Dict[str, object]) -> "SessionScript":
        return cls(
            session=str(document["session"]),
            pid=int(document["pid"]),  # type: ignore[arg-type]
            qid=str(document["qid"]),
            events=list(document["events"]),  # type: ignore[arg-type]
        )

    def counts(self) -> Dict[str, int]:
        """Events per route — the client-side expectation for /stats."""
        out = {"complete": 0, "suggest": 0, "sparql": 0}
        for event in self.events:
            out[str(event["route"])] += 1
        return out


def _zipf_index(rng: random.Random, n: int, s: float) -> int:
    """A rank in [0, n) drawn with probability ∝ 1/(rank+1)^s."""
    weights = [1.0 / ((rank + 1) ** s) for rank in range(n)]
    total = sum(weights)
    draw = rng.random() * total
    acc = 0.0
    for index, weight in enumerate(weights):
        acc += weight
        if draw < acc:
            return index
    return n - 1


def _typo(word: str, rng: random.Random) -> str:
    """One keyboard-plausible corruption of ``word``."""
    if len(word) < 2:
        return word + "x"
    pos = rng.randrange(1, len(word))
    if rng.random() < 0.5:
        return word[:pos] + word[pos] + word[pos:]      # doubled letter
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    wrong = alphabet[rng.randrange(len(alphabet))]
    return word[:pos] + wrong + word[pos + 1:]          # substituted letter


def corrupt_literal(query: str, rng: random.Random) -> Optional[str]:
    """``query`` with its first English literal misspelled, or None.

    Reproduces the paper's Figure 2 entry point: the user runs a query
    whose literal doesn't match the data, gets zero answers, and the
    QSM proposes the cached alternative spelling.
    """
    match = _LITERAL_RE.search(query)
    if match is None:
        return None
    literal = match.group(1)
    words = literal.split(" ")
    index = rng.randrange(len(words))
    words[index] = _typo(words[index], rng)
    corrupted = " ".join(words)
    return query[: match.start(1)] + corrupted + query[match.end(1):]


def _keyword_events(keyword: str, persona: Participant, config: ReplayConfig,
                    rng: random.Random, at: float,
                    events: List[Dict[str, object]]) -> float:
    """Append the /complete keystroke stream for one typed keyword."""
    text = keyword.strip().lower()
    if not text:
        return at
    start = min(2, len(text))
    prefixes = [text[:length] for length in range(start, len(text) + 1)]
    if len(prefixes) > config.max_keystrokes:
        # A fast typist outruns the completion popup: keep the first
        # few and the last few keystrokes, drop the middle.
        head = config.max_keystrokes // 2
        prefixes = prefixes[:head] + prefixes[-(config.max_keystrokes - head):]
    typo_done = False
    for prefix in prefixes:
        at += rng.uniform(config.key_min_s, config.key_max_s) * persona.speed
        if not typo_done and len(prefix) >= 3 and rng.random() < persona.typo_rate:
            # Mistype, see the (useless) completions, then correct: two
            # extra /complete rounds, exactly what a real UI would send.
            events.append({"at": round(at, 3), "route": "complete",
                           "text": _typo(prefix, rng), "k": config.complete_k})
            at += rng.uniform(config.key_min_s, config.key_max_s) * persona.speed
            typo_done = True
        events.append({"at": round(at, 3), "route": "complete",
                       "text": prefix, "k": config.complete_k})
    return at


def _session_script(index: int, persona: Participant, question: Question,
                    closing: Question, config: ReplayConfig,
                    rng: random.Random) -> SessionScript:
    script = SessionScript(session=f"s{index:04d}", pid=persona.pid,
                           qid=question.qid)
    at = rng.uniform(0.0, 0.5)

    # Compose the query: type each sketch keyword into the QCM.  Two
    # keywords per triple at most (predicate + literal/class), like the
    # user-study policy.
    for triple in question.sketch[:2]:
        for token in triple:
            if token.startswith("?"):
                continue
            kind, _, keyword = token.partition(":")
            if kind == "p":
                keyword = camelize(keyword)
            at = _keyword_events(keyword, persona, config, rng, at,
                                 script.events)
            at += rng.uniform(config.think_min_s, config.think_max_s) * persona.speed

    # Issue a misspelled-literal variant and read the QSM's suggestions
    # (Figure 2), then re-issue the gold query accepting the fix.
    broken = corrupt_literal(question.gold_query, rng)
    if broken is not None:
        script.events.append({"at": round(at, 3), "route": "suggest",
                              "query": broken, "suggest": True})
        at += rng.uniform(config.think_min_s, config.think_max_s) * persona.speed
    script.events.append({"at": round(at, 3), "route": "suggest",
                          "query": question.gold_query, "suggest": False})

    # Close with a plain protocol query (a different zipf-popular
    # question), the path a dashboard or API consumer takes.
    at += rng.uniform(config.think_min_s, config.think_max_s) * persona.speed
    script.events.append({"at": round(at, 3), "route": "sparql",
                          "query": closing.gold_query})
    return script


def generate_scripts(config: ReplayConfig,
                     questions: Optional[Sequence[Question]] = None,
                     ) -> List[SessionScript]:
    """Deterministically expand ``config`` into interaction scripts.

    The master rng only *derives* per-session seeds and zipf draws, so
    adding a session never perturbs earlier sessions' contents.
    """
    pool = list(questions) if questions is not None else user_study_questions()
    if not pool:
        raise ValueError("question pool is empty")
    master = random.Random(config.seed)
    personas = [Participant.sample(pid, master)
                for pid in range(config.persona_pool)]
    scripts: List[SessionScript] = []
    for index in range(config.n_sessions):
        persona = personas[_zipf_index(master, len(personas), config.zipf_s)]
        question = pool[_zipf_index(master, len(pool), config.zipf_s)]
        closing = pool[_zipf_index(master, len(pool), config.zipf_s)]
        session_rng = random.Random(master.getrandbits(63))
        scripts.append(_session_script(index, persona, question, closing,
                                       config, session_rng))
    return scripts


def scripts_to_json(scripts: Sequence[SessionScript],
                    config: Optional[ReplayConfig] = None) -> str:
    """Canonical JSON for a script set — byte-stable across runs."""
    document: Dict[str, object] = {
        "scripts": [script.to_dict() for script in scripts],
    }
    if config is not None:
        document["config"] = config.to_dict()
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def scripts_from_json(text: str) -> List[SessionScript]:
    document = json.loads(text)
    return [SessionScript.from_dict(item) for item in document["scripts"]]


# ----------------------------------------------------------------------
# The client-side ledger
# ----------------------------------------------------------------------


class ReplayLedger:
    """Per-route request accounting on the client side of a replay.

    Replay clients run with retries disabled, so one ledger attempt is
    exactly one HTTP request — the invariant :func:`reconcile` checks
    against the server's counters.  ``unreachable`` attempts
    (:class:`~repro.net.client.ConnectionFailed`) never reached the
    server and are subtracted before comparing.
    """

    def __init__(self) -> None:
        self.routes: Dict[str, Dict[str, int]] = {}
        self.latency: Dict[str, LatencyHistogram] = {}
        self.rows = 0
        self.sessions = 0
        self.session_ok_calls = 0   # 200s on /complete+/suggest (token'd)
        #: Server-visible responses per pre-fork worker id (the
        #: ``X-Repro-Worker`` echo) — empty against single-process
        #: servers.  Reconciliation uses this to validate that a worker
        #: pool actually spread the load.
        self.workers: Dict[str, int] = {}

    def _route(self, route: str) -> Dict[str, int]:
        counters = self.routes.get(route)
        if counters is None:
            counters = self.routes[route] = {
                "attempts": 0, **{outcome: 0 for outcome in OUTCOMES},
            }
            self.latency[route] = LatencyHistogram()
        return counters

    def note(self, route: str, outcome: str, seconds: float,
             rows: int = 0, worker: Optional[str] = None) -> None:
        counters = self._route(route)
        counters["attempts"] += 1
        counters[outcome] += 1
        if worker is not None and outcome != "unreachable":
            self.workers[worker] = self.workers.get(worker, 0) + 1
        if outcome == "ok":
            self.rows += rows
            self.latency[route].record(seconds)
            if route in ("complete", "suggest"):
                self.session_ok_calls += 1

    def merge(self, other: "ReplayLedger") -> None:
        for route, counters in other.routes.items():
            mine = self._route(route)
            for key, value in counters.items():
                mine[key] += value
            self.latency[route].merge(other.latency[route])
        self.rows += other.rows
        self.sessions += other.sessions
        self.session_ok_calls += other.session_ok_calls
        for worker, count in other.workers.items():
            self.workers[worker] = self.workers.get(worker, 0) + count

    def total(self, field_name: str) -> int:
        return sum(counters.get(field_name, 0)
                   for counters in self.routes.values())

    @property
    def attempts(self) -> int:
        return self.total("attempts")

    def server_visible(self, route: str) -> int:
        """Attempts the server must have counted (reached the socket)."""
        counters = self.routes.get(route)
        if counters is None:
            return 0
        return counters["attempts"] - counters["unreachable"]

    def to_dict(self) -> Dict[str, object]:
        return {
            "routes": {
                route: {**counters,
                        "latency": self.latency[route].to_dict()}
                for route, counters in sorted(self.routes.items())
            },
            "rows": self.rows,
            "sessions": self.sessions,
            "session_ok_calls": self.session_ok_calls,
            "workers": dict(sorted(self.workers.items())),
        }

    @classmethod
    def from_dict(cls, document: Dict[str, object]) -> "ReplayLedger":
        ledger = cls()
        for route, counters in document.get("routes", {}).items():  # type: ignore[union-attr]
            mine = ledger._route(route)
            for key, value in counters.items():
                if key == "latency":
                    ledger.latency[route] = LatencyHistogram.from_dict(value)
                else:
                    mine[key] = int(value)
        ledger.rows = int(document.get("rows", 0))  # type: ignore[arg-type]
        ledger.sessions = int(document.get("sessions", 0))  # type: ignore[arg-type]
        ledger.session_ok_calls = int(
            document.get("session_ok_calls", 0))  # type: ignore[arg-type]
        ledger.workers = {
            str(worker): int(count)  # type: ignore[arg-type]
            for worker, count in document.get("workers", {}).items()  # type: ignore[union-attr]
        }
        return ledger


# ----------------------------------------------------------------------
# Replay execution
# ----------------------------------------------------------------------


def _classify(error: Exception) -> str:
    if isinstance(error, ConnectionFailed):
        return "unreachable"
    if isinstance(error, QueryRejected):
        return "rejected"
    if isinstance(error, EndpointTimeout):
        return "timeouts"
    if isinstance(error, SparqlError):
        return "client_errors"
    if isinstance(error, EndpointError):
        return "server_errors"
    raise error


def replay_session(script: SessionScript, url: str, ledger: ReplayLedger,
                   pace: float = 0.0, timeout_s: float = 30.0) -> None:
    """Replay one session script against a live server.

    ``pace`` scales the script's think/keystroke offsets into real
    sleeps (1.0 = scripted cadence, 0.0 = as fast as possible).
    Retries are disabled so ledger attempts equal HTTP requests.
    """
    endpoint = HttpSparqlEndpoint(
        url, timeout_s=timeout_s, max_retries=0,
        rng=random.Random(0),
    )
    client = HttpSapphireClient(
        url, session=script.session, timeout_s=timeout_s, max_retries=0,
        rng=random.Random(0),
    )
    previous_at = 0.0
    for event in script.events:
        at = float(event["at"])  # type: ignore[arg-type]
        if pace > 0.0 and at > previous_at:
            time.sleep((at - previous_at) * pace)
        previous_at = at
        route = str(event["route"])
        caller = endpoint if route == "sparql" else client
        started = time.perf_counter()
        rows = 0
        try:
            if route == "complete":
                client.complete(str(event["text"]),
                                int(event["k"]))  # type: ignore[arg-type]
            elif route == "suggest":
                client.suggest(str(event["query"]),
                               suggest=bool(event["suggest"]))
            else:
                result = endpoint.select(str(event["query"]))
                rows = len(result.rows)
        except Exception as error:  # noqa: BLE001 — classified, never dropped
            ledger.note(route, _classify(error),
                        time.perf_counter() - started,
                        worker=caller.last_worker)
        else:
            ledger.note(route, "ok", time.perf_counter() - started,
                        rows=rows, worker=caller.last_worker)
    ledger.sessions += 1


def replay_scripts(scripts: Sequence[SessionScript], url: str,
                   pace: float = 0.0, timeout_s: float = 30.0) -> ReplayLedger:
    """Replay scripts sequentially in this process; returns the ledger."""
    ledger = ReplayLedger()
    for script in scripts:
        replay_session(script, url, ledger, pace=pace, timeout_s=timeout_s)
    return ledger


def _worker_main(index: int, scripts_json: str, url: str, pace: float,
                 timeout_s: float, result_queue) -> None:
    """Multiprocessing entry point (module-level for spawn pickling):
    replays its share and reports ``(index, ledger)``."""
    scripts = scripts_from_json(scripts_json)
    ledger = replay_scripts(scripts, url, pace=pace, timeout_s=timeout_s)
    result_queue.put((index, ledger.to_dict()))


@dataclass
class ReplayReport:
    """Everything one replay run produced, reconciliation included."""

    ledger: ReplayLedger
    before: Dict[str, object]
    after: Dict[str, object]
    deltas: Dict[str, Dict[str, int]]
    mismatches: List[str]
    series: List[Dict[str, object]]
    wall_s: float
    processes: int

    @property
    def throughput_rps(self) -> float:
        return self.ledger.attempts / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "ledger": self.ledger.to_dict(),
            "before": self.before,
            "after": self.after,
            "deltas": self.deltas,
            "mismatches": self.mismatches,
            "series": self.series,
            "wall_s": round(self.wall_s, 6),
            "processes": self.processes,
            "throughput_rps": round(self.throughput_rps, 3),
        }


def reconcile(before: Dict[str, object], after: Dict[str, object],
              ledger: ReplayLedger,
              check_sessions: bool = True) -> List[str]:
    """Compare the server's ``/stats`` deltas against the client ledger.

    Returns human-readable mismatch descriptions (empty = reconciled).
    Assumes the replay was the only traffic between the two snapshots.
    """
    mismatches: List[str] = []
    deltas = route_deltas(before, after, routes=sorted(ledger.routes))
    pairs = (("requests", None), ("ok", "ok"), ("rejected", "rejected"),
             ("timeouts", "timeouts"), ("client_errors", "client_errors"),
             ("server_errors", "server_errors"))
    for route in sorted(ledger.routes):
        delta = deltas[route]
        for server_field, ledger_field in pairs:
            expected = (ledger.server_visible(route)
                        if ledger_field is None
                        else ledger.routes[route][ledger_field])
            got = delta[server_field]
            if got != expected:
                mismatches.append(
                    f"{route}.{server_field}: server {got} != client "
                    f"{expected}")
    server_rows = (int(after.get("rows_served", 0))  # type: ignore[arg-type]
                   - int(before.get("rows_served", 0)))  # type: ignore[arg-type]
    if server_rows != ledger.rows:
        mismatches.append(
            f"rows_served: server {server_rows} != client {ledger.rows}")
    if check_sessions:
        activity = (int(after.get("session_activity", 0))  # type: ignore[arg-type]
                    - int(before.get("session_activity", 0)))  # type: ignore[arg-type]
        if activity != ledger.session_ok_calls:
            mismatches.append(
                f"session_activity: server {activity} != client "
                f"{ledger.session_ok_calls}")
    # Load spreading: against a pre-fork pool (the coordinator's /stats
    # carries n_workers) the kernel balances per *connection*, and the
    # server recycles a keep-alive connection after
    # RESPONSES_PER_CONNECTION responses.  k connections all land on one
    # of n workers by chance with probability n^(1-k), so all-on-one
    # worker says the pool is not balancing only once the replay opened
    # SPREAD_MIN_CONNECTIONS (under 0.1 % for two workers).
    n_workers = int(after.get("n_workers", 1))  # type: ignore[arg-type]
    attributed = sum(ledger.workers.values())
    accepted = (int((after.get("connections") or {}).get("accepted", 0))  # type: ignore[union-attr]
                - int((before.get("connections") or {}).get("accepted", 0)))  # type: ignore[union-attr]
    if n_workers > 1 and attributed and accepted >= SPREAD_MIN_CONNECTIONS:
        spread = sum(1 for count in ledger.workers.values() if count > 0)
        if spread < 2:
            mismatches.append(
                f"worker spread: all {attributed} attributed responses "
                f"over {accepted} connections landed on one of "
                f"{n_workers} workers")
    return mismatches


def run_replay(scripts: Sequence[SessionScript], url: str, *,
               processes: int = 0, pace: float = 0.0,
               tick_s: float = 0.25, timeout_s: float = 30.0,
               check_sessions: bool = True,
               stats_url: Optional[str] = None) -> ReplayReport:
    """Replay ``scripts`` against a live server and reconcile.

    ``processes=0`` replays inline in this process (fast, deterministic
    ordering — what tests use).  ``processes>=1`` partitions sessions
    round-robin across that many spawned worker processes, all loading
    one server concurrently; the parent polls ``/stats/series`` every
    ``tick_s`` while they run, so the report's time series has one
    point per tick.

    ``stats_url`` points reconciliation at a different observability
    address than the query ``url`` — against a pre-fork pool it must be
    the coordinator's merged ``/stats`` (one worker's counters only
    cover that worker's share of the load).
    """
    stats_url = stats_url or url
    before = fetch_stats(stats_url, timeout_s=timeout_s)
    started = time.perf_counter()
    lost: List[str] = []

    if processes <= 0:
        ledger = ReplayLedger()
        sample_every = max(1, len(scripts) // 8)
        for index, script in enumerate(scripts):
            replay_session(script, url, ledger, pace=pace,
                           timeout_s=timeout_s)
            if (index + 1) % sample_every == 0:
                fetch_stats_series(stats_url, timeout_s=timeout_s)
    else:
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        result_queue = context.Queue()
        partitions: List[List[SessionScript]] = [[] for _ in range(processes)]
        for index, script in enumerate(scripts):
            partitions[index % processes].append(script)
        workers = [
            context.Process(
                target=_worker_main,
                args=(index, scripts_to_json(partition), url, pace, timeout_s,
                      result_queue),
                daemon=True,
            )
            for index, partition in enumerate(p for p in partitions if p)
        ]
        for worker in workers:
            worker.start()
        ledger = ReplayLedger()
        pending = set(range(len(workers)))

        def receive(timeout: float) -> bool:
            try:
                index, document = result_queue.get(timeout=timeout)
            except Exception:  # noqa: BLE001 — queue.Empty
                return False
            ledger.merge(ReplayLedger.from_dict(document))
            pending.discard(index)
            return True

        while pending:
            if receive(tick_s):
                continue
            if all(not worker.is_alive() for worker in workers):
                # A worker died without reporting (crash, kill): drain
                # what made it onto the queue, then stop waiting — a
                # hang would report nothing at all.
                while pending and receive(0.1):
                    pass
                break
            try:
                fetch_stats_series(stats_url, timeout_s=timeout_s)
            except EndpointError:
                pass  # the server may be mid-restart (chaos tests)
        for worker in workers:
            worker.join(timeout=30.0)
        # A ledger that never arrived is a mismatch of its own: the
        # server's counters cannot show the sessions it never saw.
        lost = [f"client process {index} sent no ledger "
                f"(exitcode {workers[index].exitcode})"
                for index in sorted(pending)]

    wall_s = time.perf_counter() - started
    after = fetch_stats(stats_url, timeout_s=timeout_s)
    series_document = fetch_stats_series(stats_url, timeout_s=timeout_s)
    deltas = route_deltas(before, after, routes=sorted(ledger.routes))
    mismatches = lost + reconcile(before, after, ledger,
                                  check_sessions=check_sessions)
    return ReplayReport(
        ledger=ledger, before=before, after=after, deltas=deltas,
        mismatches=mismatches,
        series=list(series_document.get("points", [])),
        wall_s=wall_s, processes=max(0, processes),
    )
