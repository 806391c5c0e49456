"""The traced run: where a request's time goes, layer by layer.

End-to-end numbers are always taken untraced (:mod:`spine.measure`).
This run builds the same backend in the benchmark's own process and
measures every layer from outside, through public functions:

1. *layer probes* — one timed call (or a small fixed loop) per set-up and
   storage layer, at the workload's dataset scale;
2. a *peeled pass* — each request of the workload's list is handed to
   successively outer public entry points (``parse_query`` →
   ``QueryEvaluator.evaluate`` → ``SparqlEndpoint.select`` →
   ``FederatedQueryProcessor.run`` → ``SapphireServer.run_query`` →
   ``SparqlWsgiApp.__call__``) with a span around each, so a layer's
   self time is its span minus its child's; inside ``run_query`` the
   program's own public ``Tracer`` already marks ``qsm-terms`` /
   ``qsm-relax`` / ``qsm-probe-batch`` and is read instead;
3. a *plain pass* of bare in-process WSGI calls — the reference answers
   and the yardstick the peeled spans must add up to;
4. one serial and one 2-client HTTP pass against the served system, for
   what the socket adds and what a second client costs.

No wrapper or patch is installed under ``src/``.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import statistics
import time
import urllib.parse
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import DatasetConfig, SapphireConfig, build_dataset, parse_query
from repro.core.persistence import load_cache, load_store, save_cache, save_store
from repro.eval.replay import ReplayLedger, reconcile
from repro.net.client import fetch_stats
from repro.net.formats import MIME_JSON, parse_json, write_json
from repro.net.metrics import LatencyHistogram
from repro.net.prefork import build_backend_from_spec
from repro.net.suggest import (
    MIME_JSON_BODY,
    completion_document,
    dump_document,
    outcome_document,
    parse_completion,
    parse_outcome,
)
from repro.net.wsgi import MIME_FORM, SparqlWsgiApp
from repro.rdf import Literal
from repro.rdf.namespaces import DBO, DBR, FOAF, RDF_TYPE
from repro.sparql.algebra import normalize, translate_query
from repro.sparql.evaluator import QueryEvaluator
from repro.sparql.trace import Tracer
from repro.store import CostMeter, TripleStore, create_sharded_backend, shard_path
from repro.text.similarity import jaro_winkler
from repro.text.suffix_tree import GeneralizedSuffixTree

from . import answers, env, measure, serve
from .replay import PassResult, percentile, replay_pass, split_lanes
from .spans import Recorder, self_times
from .workloads import ROUTE_OF, Request, Sizing, Workload, requests_digest

ROUTES = ("complete", "suggest", "sparql")


def _timed(call: Callable[[], object]) -> Tuple[float, object]:
    started = time.perf_counter()
    result = call()
    return time.perf_counter() - started, result


# ----------------------------------------------------------------------
# 1. Layer probes
# ----------------------------------------------------------------------

def _match_columns_us_per_row(store: TripleStore) -> float:
    """Six fixed patterns through ``backend.match_columns`` on a backend
    nothing has scanned yet: the index -> ID-column materialisation.  (A
    repeat is served from the backend's column cache at memcpy speed,
    ~0.01 us/row on every backend, and would measure nothing.)"""
    lookup = store.dictionary.lookup
    type_id, person = lookup(RDF_TYPE), lookup(DBO.term("Person"))
    patterns = (
        (None, type_id, None, (0, 2)),
        (None, type_id, person, (0,)),
        (None, lookup(DBO.term("birthPlace")), None, (0, 2)),
        (None, lookup(FOAF.term("name")), None, (0, 2)),
        (lookup(DBR.term("Tom_Hanks")), None, None, (1, 2)),
        (None, None, None, (0, 1, 2)),
    )
    backend = store.backend

    def scan() -> int:
        return sum(len(batch[0]) for s, p, o, positions in patterns
                   for batch in backend.match_columns(s, p, o, positions))

    seconds, rows = _timed(scan)
    return seconds * 1e6 / rows  # type: ignore[operator]


def layer_probes(workload: Workload, sizing: Sizing, scratch: str, needles: Sequence[str],
                 metrics: Dict[str, float]):
    """Time the set-up and storage layers; returns the in-memory
    SapphireServer it built on the way (the peeled pass reuses it)."""
    scale = workload.scale(sizing)
    metrics["data.build_s"], fresh = _timed(lambda: build_dataset(getattr(DatasetConfig, scale)()))
    timings: Dict[str, float] = {}
    sapphire = serve.build_memory_sapphire(scale, workload.tree_capacity, timings)
    metrics["core.initialization.register_s"] = timings["core.initialization.register_s"]
    metrics["core.initialization.queries"] = timings["core.initialization.queries"]
    store = sapphire.endpoints[0].store
    triples = len(store)

    # store: write the sharded snapshot a replica boots from; scan it back.
    base = os.path.join(scratch, "probe-snapshot")

    def load_sharded() -> None:
        backend = create_sharded_backend(serve.N_SHARDS, "sqlite", base)
        TripleStore(backend=backend).add_all(store.triples())
        backend.close()

    metrics["store.load_s"], _ = _timed(load_sharded)
    metrics["store.snapshot_bytes_per_triple"] = sum(
        os.path.getsize(shard_path(base, shard)) for shard in range(serve.N_SHARDS)) / triples
    flat = os.path.join(scratch, "probe-flat.sqlite")
    save_store(store, flat)
    sharded = TripleStore(backend=create_sharded_backend(serve.N_SHARDS, "sqlite", base, read_only=True))
    for name, probed in (("memory", fresh.store),  # type: ignore[union-attr]
                         ("sqlite", load_store(flat)), ("sharded", sharded)):
        metrics[f"store.match_columns_us_per_row.{name}"] = _match_columns_us_per_row(probed)
        probed.backend.close()

    # text: the suffix tree over the surfaces the cache really holds.
    cache = sapphire.cache
    strings = list(cache.tree.strings)
    metrics["text.suffix_tree.build_s"], tree = _timed(lambda: GeneralizedSuffixTree(strings))
    seconds, _ = _timed(lambda: [tree.find_ids(needle, limit=10) for needle in needles])  # type: ignore[union-attr]
    metrics["text.suffix_tree.search_us"] = seconds * 1e6 / len(needles)
    surfaces = [entry.surface for entry in cache.predicates() + cache.classes()]
    surfaces += cache.literal_surfaces()
    forms = ("spuse", "birth place", "kennedys", "tom hanks", "populaton total", "alma mater")
    seconds, _ = _timed(lambda: [jaro_winkler(form, surface) for form in forms for surface in surfaces])
    metrics["text.similarity.jaro_winkler_us"] = seconds * 1e6 / (len(forms) * len(surfaces))

    # core.persistence + text.term_index: the cache file a replica opens.
    cache_path = os.path.join(scratch, "probe-cache.sqlite")
    metrics["core.persistence.save_cache_s"], _ = _timed(lambda: save_cache(cache, cache_path))
    metrics["core.persistence.cache_bytes"] = float(os.path.getsize(cache_path))
    config = SapphireConfig(suffix_tree_capacity=workload.tree_capacity)
    metrics["core.persistence.load_cache_s"], tiered = _timed(
        lambda: load_cache(cache_path, config, read_only=True))
    seconds, _ = _timed(lambda: [
        tiered.residual_candidates(needle, len(needle), len(needle) + config.gamma,  # type: ignore[union-attr]
                                   1, None, limit=10) for needle in needles])
    metrics["text.term_index.lookup_ms"] = seconds * 1e3 / len(needles)
    tiered.close()  # type: ignore[union-attr]
    return sapphire


# ----------------------------------------------------------------------
# 2 + 3. In-process passes
# ----------------------------------------------------------------------

def _environ(request: Request) -> Dict[str, object]:
    """The WSGI environ the bundled HTTP handler would build for what the
    repo's clients send."""
    kind = request["kind"]
    if kind == "sparql":
        body = urllib.parse.urlencode({"query": request["query"]}).encode("utf-8")
        content_type, accept = MIME_FORM, MIME_JSON
    else:
        document: Dict[str, object] = (
            {"text": request["text"], "k": request["k"]} if kind == "complete"
            else {"query": request["query"], "suggest": kind == "suggest_fix"})
        document["session"] = request["session"]
        body = json.dumps(document).encode("utf-8")
        content_type = accept = MIME_JSON_BODY
    return {"REQUEST_METHOD": "POST", "PATH_INFO": "/" + ROUTE_OF[str(kind)], "QUERY_STRING": "",
            "CONTENT_TYPE": content_type, "CONTENT_LENGTH": str(len(body)),
            "HTTP_ACCEPT": accept, "wsgi.input": io.BytesIO(body)}


def _call_wsgi(app: SparqlWsgiApp, request: Request) -> bytes:
    statuses: List[str] = []
    payload = b"".join(app(_environ(request), lambda status, headers: statuses.append(status)))
    if not statuses[0].startswith("200"):
        raise RuntimeError(f"in-process {request['kind']} #{request['id']}: {statuses[0]} {payload[:200]!r}")
    return payload


_DECODERS = {"complete": parse_completion, "suggest_fix": parse_outcome,
             "suggest_run": parse_outcome, "sparql": parse_json}


def plain_pass(app: SparqlWsgiApp, requests: Sequence[Request]) -> Tuple[List[float], List[str]]:
    """Bare WSGI calls: per-request wall and the reference answer digests."""
    walls: List[float] = []
    digests: List[str] = []
    for request in requests:
        seconds, payload = _timed(lambda: _call_wsgi(app, request))
        walls.append(seconds)
        decoded = _DECODERS[str(request["kind"])](payload)
        digests.append(answers.digest(answers.canonical_http(request, decoded)))
    return walls, digests


def _literals(query) -> List[Literal]:
    seen: List[Literal] = []
    for pattern in query.where.patterns:
        seen += [term for term in pattern.as_tuple() if isinstance(term, Literal) and term not in seen]
    return seen


class Peeler:
    """Hands one request to each layer's public entry point in turn."""

    def __init__(self, sapphire, app: SparqlWsgiApp, recorder: Recorder) -> None:
        self.sapphire = sapphire
        self.app = app
        self.recorder = recorder
        self.endpoint = sapphire.endpoints[0]
        self.evaluator = QueryEvaluator(self.endpoint.store)
        #: Counts behind the ratio metrics.
        self.counts: Dict[str, float] = defaultdict(float)

    def peel(self, request: Request) -> None:
        rid = int(request["id"])  # type: ignore[arg-type]
        with self.recorder.span("wsgi", rid) as root:
            payload = _call_wsgi(self.app, request)
        kind = str(request["kind"])
        if kind == "complete":
            self._complete(request, rid, root)
        elif kind == "sparql":
            self._sparql(request, rid, root)
        else:
            self._suggest(request, rid, root, fix=kind == "suggest_fix")
        with self.recorder.span("client.decode", rid):
            _DECODERS[kind](payload)

    def _complete(self, request: Request, rid: int, root: int) -> None:
        span = self.recorder.span
        with span("core.qcm.complete", rid, root) as complete:
            result = self.sapphire.complete(str(request["text"]), int(request["k"]))  # type: ignore[arg-type]
        start = float(self.recorder.spans[complete]["start"])  # type: ignore[arg-type]
        self.recorder.add("core.qcm.tree", rid, complete, start, start + result.tree_seconds)
        self.recorder.add("core.qcm.bins", rid, complete, start, start + result.bins_seconds)
        with span("net.suggest.encode", rid, root):
            dump_document(completion_document(result))

    def _sparql(self, request: Request, rid: int, root: int) -> None:
        span = self.recorder.span
        text = str(request["query"])
        with span("sparql.parse", rid, root):
            parsed = parse_query(text)
        with span("sparql.algebra", rid):  # a probe of its own: evaluate() plans from the AST
            normalize(translate_query(parsed))
        queries_before = self.endpoint.query_count
        with span("federation", rid, root) as federation:
            result = self.sapphire.federation.run(parsed)
        self.counts["federation.subqueries"] += self.endpoint.query_count - queries_before
        self.counts["federation.queries"] += 1
        with span("endpoint", rid, federation) as endpoint:
            self.endpoint.select(parsed)
        with span("sparql.evaluate", rid, endpoint):
            self.evaluator.evaluate(parsed, CostMeter(self.endpoint.config.cost_budget))
        self.counts["sparql.rows"] += len(result.rows)
        # Was the plan cached when the query arrived?  Serving parses every
        # request anew, so: a fresh parse, under the program's own tracer,
        # and only the first plan-cache event (a traced evaluation plans
        # twice and always hits the second time).
        tracer = Tracer(query=text)
        self.endpoint.select(parse_query(text), tracer)
        first = next((node for node in tracer.finish().walk() if node.name == "plan-cache"), None)
        if first is not None:
            self.counts["plan_cache.events"] += 1
            self.counts["plan_cache.hits"] += bool(first.attrs.get("hit"))
        with span("net.formats.write_json", rid, root):
            encoded = write_json(result)
        self.counts["net.formats.bytes"] += len(encoded.encode("utf-8"))
        with span("net.formats.parse_json", rid):
            parse_json(encoded)

    def _relax_alone(self, query) -> int:
        """Structure relaxation called on its own (grounding, then ``relax``
        seeded with each literal's alternatives, as ``run_query`` seeds
        it): how many endpoint queries one round of it sends."""
        finder, relaxer = self.sapphire.terms_finder, self.sapphire.relaxer
        seeds = {literal: [entry.term for entry, _ in finder.literal_alternatives(literal)
                           if isinstance(entry.term, Literal)]
                 for literal in _literals(query)}
        before = self.endpoint.query_count
        list(relaxer.ground_literals(query))
        list(relaxer.relax(query, seeds))
        return self.endpoint.query_count - before

    def _suggest(self, request: Request, rid: int, root: int, fix: bool) -> None:
        span = self.recorder.span
        text = str(request["query"])
        tracer = Tracer(query=text)
        with span("core.sapphire.run_query", rid, root) as run_query:
            outcome = self.sapphire.run_query(text, suggest=fix, tracer=tracer)
        trace = tracer.finish()
        if fix:
            self.counts["qsm.rounds"] += 1
            self.counts["qsm_relax.queries"] += self._relax_alone(outcome.query)
        origin = float(self.recorder.spans[run_query]["start"])  # type: ignore[arg-type]
        names = {"qsm-terms": "core.qsm_terms.suggest", "qsm-relax": "core.qsm_relax.relax"}
        qsm_start = None
        for top in trace.spans:
            name = names.get(top.name)
            if name is None:
                continue
            if qsm_start is None:
                qsm_start = top.start_ms
            begin = origin + top.start_ms / 1e3
            phase = self.recorder.add(name, rid, run_query, begin, begin + top.wall_ms / 1e3)
            for node in top.walk():
                if node.name == "qsm-probe-batch":
                    inner = origin + node.start_ms / 1e3
                    self.recorder.add("core.qsm_terms.probe", rid, phase, inner, inner + node.wall_ms / 1e3)
                    self.counts["qsm.probes"] += 1
            if top.name == "qsm-terms":
                self.counts["qsm.suggestions_kept"] += len(outcome.term_suggestions)
                with span("core.qsm_terms.alternatives", rid, phase):
                    positions = self.sapphire.terms_finder.candidate_positions(outcome.query)
                self.counts["qsm.candidates"] += sum(len(found) for _, _, _, found in positions)
        # Everything run_query did before the QSM phases is the federated
        # execution of the query itself.
        executed = (qsm_start if qsm_start is not None else trace.wall_ms) / 1e3
        self.recorder.add("federation", rid, run_query, origin, origin + executed)
        with span("net.suggest.encode", rid, root):
            dump_document(outcome_document(outcome))


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------

def _mean_ms(values: Sequence[float]) -> Optional[float]:
    return statistics.fmean(values) * 1e3 if values else None


def _route_walls(requests: Sequence[Request], walls: Sequence[float]) -> Dict[str, List[float]]:
    by_route: Dict[str, List[float]] = {route: [] for route in ROUTES}
    for request, wall in zip(requests, walls):
        by_route[ROUTE_OF[str(request["kind"])]].append(wall)
    return by_route


def run_traced(workload: Workload, seed: int, sizing: Sizing, scratch_root: str,
               out_dir: Path) -> Dict[str, object]:
    mix, block = workload.lists(seed, sizing)
    requests = mix + block   # every route on every workload: each layer gets its requests
    scratch = os.path.join(scratch_root, f"scratch-{os.getpid()}")
    serve.empty_dir(scratch)
    metrics: Dict[str, float] = {}
    sentinel = env.Sentinel()
    needles = [str(request["text"]).lower() for request in requests if request["kind"] == "complete"][:400]
    replica = served = None
    try:
        sapphire = layer_probes(workload, sizing, scratch, needles, metrics)

        # The pre-fork path boots in every traced run: its set-up and
        # spread metrics do not depend on which workload is replayed.
        pool_dir = os.path.join(scratch, "pool")
        os.makedirs(pool_dir)
        replica_workload = workload if workload.serving == "prefork" else None
        pool = serve.Child({"serving": "prefork", "serve": True, "scale": workload.scale(sizing),
                            "tree_capacity": workload.tree_capacity, "scratch": pool_dir})
        try:
            pool_info = pool.wait_ready()
            measure.check_canaries(str(pool_info["url"]))
            metrics["net.prefork.boot_s"] = pool_info["timings"]["net.prefork.boot_s"]  # type: ignore[index]
            if replica_workload is not None:
                replica = sapphire = build_backend_from_spec(pool_info["replica_spec"])  # type: ignore[arg-type]
                served = pool
            else:
                spread = replay_pass(split_lanes(requests[:400], 2), str(pool_info["url"]), None)
                metrics["net.prefork.worker_share_min"] = _worker_share_min(spread.ledger)
        finally:
            if served is None:
                pool.stop()

        app = SparqlWsgiApp(sapphire, **serve.APP_KWARGS)
        plain_pass(app, requests)  # warm caches and lazy modules, like the untraced warm-up
        plain_walls, reference = plain_pass(app, requests)
        recorder = Recorder()
        peeler = Peeler(sapphire, app, recorder)
        peel_started = time.perf_counter()
        for request in requests:
            peeler.peel(request)
        peeled_s = time.perf_counter() - peel_started
        _layer_metrics(recorder, peeler, requests, plain_walls, peeled_s, metrics)

        if served is None:
            served, _, _ = measure.start_served(workload, sizing, os.path.join(scratch, "served"))
        url, stats_url = str(served.info["url"]), str(served.info["stats_url"])
        replay_pass(split_lanes(requests, 1), url, reference)  # HTTP warm-up
        stats_before = fetch_stats(stats_url)
        serial = replay_pass(split_lanes(requests, 1), url, reference)
        paired = replay_pass(split_lanes(requests, 2), url, reference)
        stats_after = fetch_stats(stats_url)
        ledger = ReplayLedger()
        ledger.merge(serial.ledger)
        ledger.merge(paired.ledger)
        mismatches = reconcile(stats_before, stats_after, ledger)
        if replica_workload is not None:
            metrics["net.prefork.worker_share_min"] = _worker_share_min(ledger)
        _http_metrics(requests, plain_walls, serial, stats_after, metrics)
        own_pass = paired if workload.clients == 2 else serial
        for name, kind, fraction in measure.LATENCY_METRICS:
            values = sorted(s.seconds for s in own_pass.samples if s.ok and s.request["kind"] == kind)
            if name.startswith("client.") and values:
                metrics[name] = percentile(values, fraction) * 1e3
    finally:
        if served is not None:
            served.stop()
        if replica is not None:
            replica.cache.close()
        shutil.rmtree(scratch, ignore_errors=True)
        speed = sentinel.stop()
    # Two walls taken a pass apart, on a machine whose speed changes within
    # seconds: each is brought to nominal speed before they are divided.
    metrics["net.concurrency_penalty"] = (
        paired.wall_s * speed.speed(paired.started, paired.started + paired.wall_s)
        / (serial.wall_s * speed.speed(serial.started, serial.started + serial.wall_s)))

    spans_path = out_dir / f"spans-{workload.name}-seed{seed}-{sizing.name}.jsonl"
    recorder.write_jsonl(spans_path)
    samples = serial.samples + paired.samples
    failed = sum(1 for sample in samples if not sample.ok)
    return {
        "workload": workload.name, "seed": seed, "sizing": sizing.name, "traced": True,
        "metrics": metrics,
        "attempted": len(samples), "failed": failed,
        "failures": [{"id": s.request["id"], "kind": s.request["kind"], "outcome": s.outcome,
                      "got": s.response, "expected": reference[int(s.request["id"])]}  # type: ignore[arg-type]
                     for s in samples if not s.ok][:20],
        "requests": {"digest": requests_digest(requests), "count": len(requests)},
        "answers_digest": answers.digest_all(reference),
        "warmup_mismatches": 0,
        "reconcile_mismatches": mismatches,
        "spans": {"file": spans_path.name, "count": len(recorder.spans)},
        "noise_guard": speed.noise_guard(),
    }


def _worker_share_min(ledger: ReplayLedger) -> float:
    """Smallest share of attributed responses any pre-fork worker served
    (0.5 = two workers perfectly balanced)."""
    counts = [ledger.workers.get(str(index), 0) for index in range(serve.N_WORKERS)]
    return min(counts) / sum(counts) if sum(counts) else 0.0


def _layer_metrics(recorder: Recorder, peeler: Peeler, requests: Sequence[Request],
                   plain_walls: Sequence[float], peeled_s: float, metrics: Dict[str, float]) -> None:
    route_of = {int(request["id"]): ROUTE_OF[str(request["kind"])] for request in requests}  # type: ignore[arg-type]
    kind_of = {int(request["id"]): str(request["kind"]) for request in requests}  # type: ignore[arg-type]
    own = self_times(recorder.spans)
    durations: Dict[Tuple[str, str], List[float]] = defaultdict(list)   # (span name, route)
    selfs: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    fix_only: Dict[str, List[float]] = defaultdict(list)
    tree_self: Dict[Tuple[str, str], float] = defaultdict(float)   # summed self time of peeled spans
    for span in recorder.spans:
        rid, name, span_id = int(span["request"]), str(span["name"]), int(span["id"])  # type: ignore[arg-type]
        route = route_of[rid]
        durations[(name, route)].append(recorder.duration(span_id))
        selfs[(name, route)].append(own[span_id])
        if kind_of[rid] == "suggest_fix":
            fix_only[name].append(recorder.duration(span_id))
            fix_only[name + "#self"].append(own[span_id])
        if span["parent"] is not None or name == "wsgi":
            tree_self[(name, route)] += own[span_id]

    def put(metric: str, value: Optional[float]) -> None:
        if value is not None:
            metrics[metric] = value

    put("sparql.parse_ms", _mean_ms(durations[("sparql.parse", "sparql")]))
    put("sparql.algebra_ms", _mean_ms(durations[("sparql.algebra", "sparql")]))
    put("sparql.evaluate_ms", _mean_ms(durations[("sparql.evaluate", "sparql")]))
    evaluate_s = sum(durations[("sparql.evaluate", "sparql")])
    counts = peeler.counts
    if evaluate_s:
        metrics["sparql.rows_per_s"] = counts["sparql.rows"] / evaluate_s
    if counts["plan_cache.events"]:
        metrics["sparql.plan_cache_hit_ratio"] = counts["plan_cache.hits"] / counts["plan_cache.events"]
    put("endpoint.overhead_ms", _mean_ms(selfs[("endpoint", "sparql")]))
    put("federation.overhead_ms", _mean_ms(selfs[("federation", "sparql")]))
    endpoint_s = sum(durations[("endpoint", "sparql")])
    if endpoint_s:
        metrics["federation.overhead_ratio"] = sum(durations[("federation", "sparql")]) / endpoint_s
    if counts["federation.queries"]:
        metrics["federation.subqueries_per_query"] = counts["federation.subqueries"] / counts["federation.queries"]

    put("core.qcm.complete_ms", _mean_ms(durations[("core.qcm.complete", "complete")]))
    put("core.qcm.tree_ms", _mean_ms(durations[("core.qcm.tree", "complete")]))
    put("core.qcm.bins_ms", _mean_ms(durations[("core.qcm.bins", "complete")]))
    put("core.qsm_terms.suggest_ms", _mean_ms(fix_only["core.qsm_terms.suggest"]))
    put("core.qsm_terms.alternatives_ms", _mean_ms(fix_only["core.qsm_terms.alternatives"]))
    rounds = counts["qsm.rounds"]
    if rounds:
        metrics["core.qsm_terms.probe_ms"] = sum(fix_only["core.qsm_terms.probe"]) * 1e3 / rounds
        metrics["core.qsm_terms.probes_per_suggest"] = counts["qsm.probes"] / rounds
        metrics["core.qsm_relax.queries_per_relax"] = counts["qsm_relax.queries"] / rounds
    if counts["qsm.candidates"]:
        metrics["core.qsm_terms.useful_ratio"] = counts["qsm.suggestions_kept"] / counts["qsm.candidates"]
    put("core.qsm_relax.relax_ms", _mean_ms(fix_only["core.qsm_relax.relax"]))
    put("core.sapphire.run_query_self_ms", _mean_ms(fix_only["core.sapphire.run_query#self"]))

    put("net.formats.write_json_ms", _mean_ms(durations[("net.formats.write_json", "sparql")]))
    put("net.formats.parse_json_ms", _mean_ms(durations[("net.formats.parse_json", "sparql")]))
    if counts["sparql.rows"]:
        metrics["net.formats.bytes_per_row"] = counts["net.formats.bytes"] / counts["sparql.rows"]
    put("net.suggest.encode_ms", _mean_ms(durations[("net.suggest.encode", "suggest")]))
    put("net.suggest.decode_ms", _mean_ms(durations[("client.decode", "suggest")]))
    # Peeled spans telescope to the request span by construction; what can
    # go wrong is a layer whose children, called on their own, took longer
    # than the layer that contains them.  Coverage is the share of the
    # route's wall free of such negative layer self time (summed over the
    # pass, as the layer metrics are: one request's jitter cancels).
    for route in ROUTES:
        put(f"net.wsgi.self_ms.{route}", _mean_ms(selfs[("wsgi", route)]))
        wall = sum(durations[("wsgi", route)])
        if wall:
            negative = sum(-total for (_, where), total in tree_self.items() if where == route and total < 0)
            metrics[f"trace.coverage_ratio.{route}"] = 1.0 - negative / wall
    metrics["trace.coverage_ratio"] = min(
        value for name, value in metrics.items() if name.startswith("trace.coverage_ratio."))
    metrics["trace.overhead_ratio"] = peeled_s / sum(plain_walls)


def _http_metrics(requests: Sequence[Request], plain_walls: Sequence[float], serial: PassResult,
                  stats: Dict[str, object], metrics: Dict[str, float]) -> None:
    plain = _route_walls(requests, plain_walls)
    http = _route_walls([sample.request for sample in serial.samples],
                        [sample.seconds for sample in serial.samples])
    for route in ROUTES:
        if plain[route] and http[route]:
            metrics[f"net.http.overhead_ms.{route}"] = (
                statistics.fmean(http[route]) - statistics.fmean(plain[route])) * 1e3
        latency = (stats.get("routes", {}) or {}).get(route, {}).get("latency")  # type: ignore[union-attr]
        if latency:
            metrics[f"net.server.route_p50_ms.{route}"] = (
                LatencyHistogram.from_dict(latency).percentile(0.50) * 1e3)
    metrics["net.server.queued_peak"] = float(stats.get("queued_peak", 0))  # type: ignore[arg-type]
    metrics["net.server.in_flight_peak"] = float(stats.get("in_flight_peak", 0))  # type: ignore[arg-type]
    metrics["net.server.rejected"] = float(stats.get("rejected", 0))  # type: ignore[arg-type]
    cache = stats.get("cache") or {}
    lookups = cache.get("lookups", 0)  # type: ignore[union-attr]
    if lookups:
        metrics["core.qcm.tree_hit_ratio"] = cache["tree_hits"] / lookups  # type: ignore[index]
        metrics["core.cache.index_hit_ratio"] = cache["index_hits"] / lookups  # type: ignore[index]
        metrics["core.cache.miss_ratio"] = cache["misses"] / lookups  # type: ignore[index]
