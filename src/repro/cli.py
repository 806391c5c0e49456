"""Command-line interface.

Exposes the library's main entry points without writing Python::

    python -m repro.cli stats                 # dataset + cache summary
    python -m repro.cli complete Kenn         # QCM suggestions
    python -m repro.cli complete Kenn --url http://host:8890   # remote QCM
    python -m repro.cli suggest 'SELECT ?w WHERE { ... }'      # QSM round
    python -m repro.cli query 'SELECT ?w WHERE { ... }'
    python -m repro.cli table1                # the Table 1 comparison
    python -m repro.cli study --participants 8
    python -m repro.cli init --save cache.sqlite
    python -m repro.cli serve --port 8890    # SPARQL 1.1 Protocol endpoint
    python -m repro.cli serve --sapphire     # + /complete and /suggest
    python -m repro.cli replay --sessions 50 --processes 4   # load harness

Most commands stand up the synthetic dataset behind a simulated endpoint
(``--scale tiny|small|medium``, ``--seed N``) and run Section 5
initialization, exactly like :func:`repro.quickstart_server`; with
``--url`` the ``complete``/``suggest`` commands instead drive a *remote*
Sapphire over the HTTP suggestion API (``repro serve --sapphire``).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from typing import Iterator, List, Optional, Tuple

from . import SapphireConfig, quickstart_server
from .data import DatasetConfig
from .sparql.errors import SparqlError
from .sparql.results import AskResult

__all__ = ["main", "build_parser"]

_SCALES = {
    "tiny": DatasetConfig.tiny,
    "small": DatasetConfig.small,
    "medium": DatasetConfig.medium,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sapphire reproduction: SPARQL query assistance over RDF",
    )
    parser.add_argument("--scale", choices=sorted(_SCALES), default="tiny",
                        help="synthetic dataset size (default: tiny)")
    parser.add_argument("--seed", type=int, default=42,
                        help="dataset seed (default: 42)")
    parser.add_argument("--tree-capacity", type=int, default=500,
                        help="suffix-tree capacity (default: 500)")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("stats", help="print dataset and cache statistics")

    complete = commands.add_parser("complete", help="QCM auto-completion")
    complete.add_argument("term", help="the partially typed term")
    complete.add_argument("-k", type=int, default=10, help="max suggestions")
    complete.add_argument("--url", default=None, metavar="URL",
                          help="drive a remote Sapphire over HTTP "
                               "(a 'repro serve --sapphire' base URL) "
                               "instead of building a local one")
    complete.add_argument("--session", default=None,
                          help="session token to send with --url calls")

    suggest = commands.add_parser(
        "suggest", help="run a query and print the QSM suggestion round"
    )
    suggest.add_argument("sparql", help="the query text")
    suggest.add_argument("--url", default=None, metavar="URL",
                         help="drive a remote Sapphire over HTTP instead "
                              "of building a local one")
    suggest.add_argument("--session", default=None,
                         help="session token to send with --url calls")

    query = commands.add_parser("query", help="run a SPARQL query + QSM")
    query.add_argument("sparql", help="the query text")
    query.add_argument("--no-suggest", action="store_true",
                       help="skip QSM suggestions")
    query.add_argument("--max-rows", type=int, default=20)
    query.add_argument("--explain", action="store_true",
                       help="print the query plan before the answers")
    query.add_argument("--analyze", action="store_true",
                       help="EXPLAIN ANALYZE: execute under an operator "
                            "tracer and print the span tree (per-operator "
                            "wall time, rows, est→actual) after the answers")
    query.add_argument("--format", choices=("table", "json", "csv", "tsv", "xml"),
                       default="table",
                       help="result format: the human table (default) or a "
                            "W3C SPARQL results serialization (machine "
                            "formats imply --no-suggest)")

    explain = commands.add_parser(
        "explain", help="show the query plan without executing the query"
    )
    explain.add_argument("sparql", help="the query text")
    explain.add_argument("--analyze", action="store_true",
                         help="also execute the query and append the "
                              "measured operator trace to the plan dump")
    explain.add_argument("--probes", action="store_true",
                         help="also show the QSM's batched VALUES probe "
                              "queries and their federated plans")

    commands.add_parser("table1", help="run the Table 1 system comparison")

    study = commands.add_parser("study", help="run the simulated user study")
    study.add_argument("--participants", type=int, default=16)
    study.add_argument("--study-seed", type=int, default=7)

    init = commands.add_parser("init", help="initialize and optionally save the cache")
    init.add_argument("--save", metavar="PATH", default=None,
                      help="persist the cache to PATH (one SQLite file "
                           "with the on-disk term index; replicas boot "
                           "from it without rebuilding)")

    cache_info = commands.add_parser(
        "cache-info", help="inspect a persisted cache file"
    )
    cache_info.add_argument("path", help="a save_cache/--save output file")

    serve = commands.add_parser(
        "serve",
        help="serve the dataset over HTTP (SPARQL 1.1 Protocol)",
        description="Expose the synthetic dataset's endpoint at "
                    "http://HOST:PORT/sparql, with /health and /stats. "
                    "GET ?query= and both POST forms are accepted; results "
                    "negotiate between JSON, XML, CSV and TSV.",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8890,
                       help="bind port, 0 for ephemeral (default: 8890)")
    serve.add_argument("--max-workers", type=int, default=8,
                       help="concurrent query executions (default: 8)")
    serve.add_argument("--queue-limit", type=int, default=16,
                       help="requests allowed to wait for a worker before "
                            "503s start (default: 16)")
    serve.add_argument("--timeout-s", type=float, default=2.0,
                       help="endpoint query timeout in seconds (default: 2.0)")
    serve.add_argument("--trace-sample-rate", type=float, default=0.01,
                       metavar="RATE",
                       help="fraction of requests traced into the "
                            "slow-query log without analyze=true "
                            "(default: 0.01)")
    serve.add_argument("--slow-threshold-s", type=float, default=0.5,
                       metavar="SECONDS",
                       help="wall-clock threshold marking a traced query "
                            "slow (default: 0.5)")
    serve.add_argument("--sapphire", action="store_true",
                       help="serve a full Sapphire server (runs Section 5 "
                            "initialization first): queries federate and "
                            "the /complete + /suggest suggestion API is "
                            "enabled")
    serve.add_argument("--workers", type=int, default=1,
                       help="pre-fork worker processes sharing the port; "
                            ">1 serves through a PreforkServer pool over "
                            "read-only SQLite snapshots, with a merged "
                            "/stats coordinator (default: 1)")
    serve.add_argument("--shards", type=int, default=1,
                       help="hash-partition the store across N shards by "
                            "subject ID; scatter-gather scans show up in "
                            "EXPLAIN as ShardScan nodes (default: 1)")
    serve.add_argument("--smoke", action="store_true",
                       help="boot, answer one probe query through the "
                            "pooled client, read /stats, drain, and exit "
                            "(used by CI; exit 1 if the drain waited 5 s "
                            "or more on the idle probe connection)")

    replay = commands.add_parser(
        "replay",
        help="session-replay load harness against a live server",
        description="Generate a deterministic multi-user interaction "
                    "workload (keystroke /complete streams, /suggest "
                    "rounds, /sparql queries) and replay it over real "
                    "sockets, reconciling the client ledger against the "
                    "server's per-route /stats counters.  Without --url "
                    "a Sapphire server is stood up in-process on an "
                    "ephemeral port first.",
    )
    replay.add_argument("--sessions", type=int, default=50,
                        help="simulated user sessions (default: 50)")
    replay.add_argument("--processes", type=int, default=2,
                        help="client worker processes; 0 replays inline "
                             "in this process (default: 2)")
    replay.add_argument("--replay-seed", type=int, default=2016,
                        help="workload seed — same seed, byte-identical "
                             "scripts (default: 2016)")
    replay.add_argument("--pace", type=float, default=0.0,
                        help="scale scripted think-time into real sleeps "
                             "(1.0 = human cadence, 0 = as fast as "
                             "possible; default: 0)")
    replay.add_argument("--tick-s", type=float, default=0.25,
                        help="driver /stats/series sampling tick "
                             "(default: 0.25)")
    replay.add_argument("--url", default=None, metavar="URL",
                        help="replay against this running server "
                             "('repro serve --sapphire') instead of an "
                             "in-process one")
    replay.add_argument("--workers", type=int, default=1,
                        help="serve the in-process server from this many "
                             "pre-fork workers (sharded SQLite snapshots; "
                             "reconciliation runs against the merged "
                             "coordinator /stats; default: 1)")
    replay.add_argument("--shards", type=int, default=1,
                        help="shard count for the in-process server's "
                             "store (default: 1)")
    replay.add_argument("--emit-scripts", metavar="PATH", default=None,
                        help="write the generated scripts as canonical "
                             "JSON and exit without replaying")
    replay.add_argument("--json", metavar="PATH", default=None,
                        help="write the full replay report (ledger, "
                             "deltas, time series) as JSON")
    return parser


def _make_server(args) -> tuple:
    return quickstart_server(
        _SCALES[args.scale](seed=args.seed),
        SapphireConfig(suffix_tree_capacity=args.tree_capacity),
    )


def _cmd_stats(args) -> int:
    server, dataset = _make_server(args)
    from .store import compute_stats

    stats = compute_stats(dataset.store)
    print(f"dataset: {stats.n_triples:,} triples, {stats.n_predicates} predicates, "
          f"{stats.n_literals:,} distinct literals, {stats.n_entities:,} entities")
    print(f"literal languages: {dict(sorted(stats.literal_language_counts.items()))}")
    report = server.reports["dbpedia-mini"]
    print(f"initialization: {report.total_queries} queries, "
          f"{report.n_timeouts} timeouts, "
          f"{report.simulated_seconds:.1f} simulated endpoint-seconds")
    for key, value in server.cache_stats().items():
        print(f"cache {key}: {value}")
    return 0


def _cmd_complete(args) -> int:
    if args.url:
        from .net import HttpSapphireClient

        client = HttpSapphireClient(args.url, session=args.session)
        result = client.complete(args.term, k=args.k)
    else:
        server, _ = _make_server(args)
        result = server.complete(args.term, k=args.k)
    if not result.completions:
        print(f"no completions for {args.term!r}")
        return 1
    source = "suffix tree" if result.tree_hit else "residual bins"
    print(f"{len(result.completions)} completions for {args.term!r} "
          f"(first hit from the {source}):")
    for completion in result.completions:
        kinds = "/".join(completion.kinds)
        print(f"  {completion.surface}   [{kinds}]")
    return 0


def _answer_line(answers) -> str:
    """``true``/``false`` for an ASK, ``N answers`` for a SELECT."""
    return str(answers.value).lower() if isinstance(answers, AskResult) else f"{len(answers)} answers"


def _cmd_suggest(args) -> int:
    if args.url:
        from .net import HttpSapphireClient

        client = HttpSapphireClient(args.url, session=args.session)
        outcome = client.suggest(args.sparql)
    else:
        server, _ = _make_server(args)
        outcome = server.run_query(args.sparql)
    print(_answer_line(outcome.answers))
    suggestions = outcome.all_suggestions
    if not suggestions:
        print("no QSM suggestions")
        return 0 if outcome.answers else 1
    print("QSM suggestions:")
    for i, suggestion in enumerate(suggestions):
        print(f"  [{i}] {suggestion.message()}")
    return 0


def _cmd_explain(args) -> int:
    server, _ = _make_server(args)
    print(server.explain(args.sparql, analyze=args.analyze))
    if args.probes:
        print("\n== QSM batched probes ==")
        print(server.explain_suggestions(args.sparql))
    return 0


def _cmd_query(args) -> int:
    server, _ = _make_server(args)
    machine_format = args.format != "table"
    if args.explain:
        # With a machine format on stdout the plan goes to stderr so
        # the JSON/CSV/TSV/XML stream stays parseable.
        stream = sys.stderr if machine_format else sys.stdout
        print(server.explain(args.sparql), file=stream)
        print(file=stream)
    trace = None
    if args.analyze:
        outcome, trace = server.analyze(
            args.sparql, suggest=not (args.no_suggest or machine_format)
        )
    else:
        outcome = server.run_query(
            args.sparql, suggest=not (args.no_suggest or machine_format)
        )
    if machine_format:
        # The SPARQL 1.1 Protocol writers: the CLI and the HTTP server
        # can never disagree on a serialization.
        from .net import formats

        writer = {
            "json": formats.write_json,
            "csv": formats.write_csv,
            "tsv": formats.write_tsv,
            "xml": formats.write_xml,
        }[args.format]
        rendered = writer(outcome.answers)
        print(rendered, end="" if rendered.endswith("\n") else "\n")
        if trace is not None:
            # Machine format on stdout: the trace tree goes to stderr.
            from .eval.reporting import format_trace

            print(format_trace(trace), file=sys.stderr)
        return 0 if outcome.answers else 1
    print(_answer_line(outcome.answers))
    if outcome.answers and not isinstance(outcome.answers, AskResult):
        from .core.answer_table import AnswerTable

        print(AnswerTable(outcome.answers).to_text(max_rows=args.max_rows))
    if outcome.all_suggestions:
        print("\nQSM suggestions:")
        for i, suggestion in enumerate(outcome.all_suggestions):
            print(f"  [{i}] {suggestion.message()}")
    if trace is not None:
        from .eval.reporting import format_trace

        print(f"\n{format_trace(trace)}")
    return 0 if outcome.answers else 1


def _cmd_table1(args) -> int:
    server, dataset = _make_server(args)
    from .eval import format_table, run_comparison

    comparison = run_comparison(server, dataset.store)
    print(format_table(comparison.table_rows(include_published=True),
                       "Table 1 — QALD-style comparison"))
    return 0


def _cmd_study(args) -> int:
    server, dataset = _make_server(args)
    from .baselines import QAKiS
    from .data.corpus import RELATIONAL_PATTERNS
    from .eval import UserStudy, format_grouped_bars

    qakis = QAKiS(dataset.store, RELATIONAL_PATTERNS)
    results = UserStudy(server, qakis, n_participants=args.participants,
                        seed=args.study_seed).run()
    groups = {
        d: {"QAKiS": results.success_rate("qakis", d),
            "Sapphire": results.success_rate("sapphire", d)}
        for d in ("easy", "medium", "difficult")
    }
    print(format_grouped_bars(groups, "Figure 8 — success rate (%)", unit="%"))
    usage = results.qsm_usage()
    print("\nQSM usage: " + ", ".join(f"{k} {v:.0f}%" for k, v in usage.items()))
    return 0


def _cmd_init(args) -> int:
    server, _ = _make_server(args)
    report = server.reports["dbpedia-mini"]
    print(f"initialized: {report.total_queries} queries, "
          f"{report.n_timeouts} timeouts")
    print("stages: " + ", ".join(
        f"{stage} {seconds:.3f}s" for stage, seconds in report.stage_seconds.items()))
    print(f"cache: {server.cache_stats()}")
    if args.save:
        from .core.persistence import save_cache

        info = save_cache(server.cache, args.save)
        print(f"cache written to {args.save} "
              f"(v{info['version']}, substring index "
              f"{'fts5' if info['fts'] else 'window scan'}, "
              f"built in {info['built_s']:.3f}s)")
    return 0


def _cmd_cache_info(args) -> int:
    """Inspect a persisted cache: version, index tier, size gauges."""
    import os

    from .core.persistence import load_cache

    try:
        cache = load_cache(args.path)
    except (ValueError, FileNotFoundError) as refused:
        print(refused, file=sys.stderr)
        return 1
    try:
        report = cache.load_report
        print(f"file:    {args.path} "
              f"({os.path.getsize(args.path):,} bytes)")
        print(f"load:    {report.get('mode')} "
              f"in {report.get('seconds', 0.0):.3f}s")
        print(f"stats:   {cache.stats()}")
        gauges = cache.index_gauges()
        backend = "fts5" if gauges["index_fts"] else "window scan"
        print(f"index:   {gauges['index_surfaces']:,} surfaces, "
              f"{gauges['index_bytes']:,} bytes on disk ({backend})")
    finally:
        cache.close()
    return 0


def _app_settings(args) -> dict:
    """The served app's settings from the flags, the same for both
    topologies."""
    return {
        "max_workers": args.max_workers,
        "queue_limit": args.queue_limit,
        "trace_sample_rate": args.trace_sample_rate,
        "slow_query_threshold_s": args.slow_threshold_s,
    }


@contextlib.contextmanager
def _served(args, sapphire: bool, timeout_s: float, host: str = "127.0.0.1",
            port: int = 0, **app_kwargs) -> Iterator[Tuple[object, str]]:
    """The one way ``serve`` and ``replay`` stand a server up.

    ``--workers 1``: the :func:`~repro.net.build_backend_from_spec`
    backend behind a :class:`~repro.net.SparqlHttpServer`; more: sharded
    SQLite snapshots (:func:`~repro.net.prepare_snapshots`) behind a
    :class:`~repro.net.PreforkServer`.  Yields the started server and the
    base URL of its ``/stats`` (for a pool, the coordinator's merged
    view); stops the server on exit.
    """
    import os
    import tempfile

    from .net import (PreforkServer, SparqlHttpServer, build_backend_from_spec,
                      prepare_snapshots, server_root)

    spec = {"scale": args.scale, "seed": args.seed, "timeout_s": timeout_s,
            "tree_capacity": args.tree_capacity, "sapphire": sapphire,
            "n_shards": args.shards}
    with contextlib.ExitStack() as stack:
        if args.workers == 1:
            backend = build_backend_from_spec(spec)
            if sapphire:
                report = next(iter(backend.reports.values()))
                print(f"initialized: {report.total_queries} queries, "
                      f"cache {backend.cache_stats()}")
            server = stack.enter_context(
                SparqlHttpServer(backend, host, port, **app_kwargs))
            stats_url = server_root(server.url)
            processes = f"in-process, pid {os.getpid()}"
        else:
            print(f"preparing {args.shards} SQLite snapshot shard(s) "
                  f"({args.scale}, seed {args.seed}) ...")
            tmp = stack.enter_context(tempfile.TemporaryDirectory(prefix="repro-serve-"))
            spec = prepare_snapshots(spec, os.path.join(tmp, "data.sqlite"))
            server = stack.enter_context(PreforkServer(
                build_backend_from_spec, spec, n_workers=args.workers,
                host=host, port=port, app_kwargs=app_kwargs))
            stats_url = server.stats_url
            processes = "pids " + ", ".join(str(view["pid"]) for view in server.workers_view())
        print(f"workers:  {args.workers} ({processes})")
        print(f"shards:   {args.shards} (subject-hash), {args.scale} dataset, seed {args.seed}")
        print(f"endpoint: {server.url}")
        print(f"stats:    {stats_url}/stats"
              + ("  (merged across workers)" if args.workers > 1 else ""))
        print(f"health:   {stats_url}/health")
        if sapphire:
            root = server_root(server.url)
            print(f"complete: {root}/complete")
            print(f"suggest:  {root}/suggest")
        yield server, stats_url


def _cmd_serve(args) -> int:
    if args.workers < 1 or args.shards < 1:
        print("--workers and --shards must be >= 1", file=sys.stderr)
        return 2
    with _served(args, args.sapphire, args.timeout_s, args.host, args.port,
                 **_app_settings(args)) as (server, stats_url):
        if args.smoke:
            return _smoke(server, stats_url)
        print("serving — Ctrl+C to stop")
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
    return 0


def _smoke(server, stats_url: str) -> int:
    """``serve --smoke``: probe, read ``/stats``, stop, time the drain."""
    from .net import HttpSparqlEndpoint, fetch_stats

    # The probe's pooled keep-alive connection stays open on the server
    # (the /stats read reuses it in-process): the drain must close it,
    # not wait it out.
    HttpSparqlEndpoint(server.url, timeout_s=10.0).ask("ASK { ?s ?p ?o }")
    stats = fetch_stats(stats_url)
    started = time.perf_counter()
    server.stop()
    drain_s = time.perf_counter() - started
    print(f"smoke: probe ok, /stats reached {stats.get('n_workers', 1)} worker(s), "
          f"{stats['connections']['open']} connection(s) open; "
          f"drained in {drain_s:.1f}s")
    if drain_s >= 5.0:
        print("smoke: FAILED — the drain waited on an idle connection",
              file=sys.stderr)
        return 1
    return 0


def _cmd_replay(args) -> int:
    import json as json_module

    from .eval.replay import ReplayConfig, generate_scripts, run_replay
    from .eval.reporting import format_route_series

    if args.workers < 1 or args.shards < 1:
        print("--workers and --shards must be >= 1", file=sys.stderr)
        return 2
    config = ReplayConfig(seed=args.replay_seed, n_sessions=args.sessions)
    scripts = generate_scripts(config)
    if args.emit_scripts:
        from .eval.replay import scripts_to_json

        with open(args.emit_scripts, "w", encoding="utf-8") as handle:
            handle.write(scripts_to_json(scripts, config))
        print(f"{len(scripts)} session scripts written to {args.emit_scripts}")
        return 0

    with contextlib.ExitStack() as stack:
        if args.url:
            url, stats_url = args.url, None
        else:
            # Sample a slice of replayed requests into the slow-query
            # log so the run produces traces to report on.  A pool's
            # reconciliation reads the coordinator's merged /stats: any
            # single worker only accounts for its share of requests.
            server, stats_url = stack.enter_context(
                _served(args, True, 2.0, trace_sample_rate=0.05))
            url = server.url

        report = run_replay(
            scripts, url, processes=args.processes, pace=args.pace,
            tick_s=args.tick_s, stats_url=stats_url,
        )
        try:
            from .net import fetch_slow_log

            slow_log = fetch_slow_log(url)
        except Exception:  # noqa: BLE001 — pre-tracing remote servers
            slow_log = None

    ledger = report.ledger
    print(f"replayed {ledger.sessions} sessions / {ledger.attempts} requests "
          f"from {max(1, report.processes)} process(es) "
          f"in {report.wall_s:.2f}s ({report.throughput_rps:.0f} req/s)")
    for route in sorted(ledger.routes):
        counters = ledger.routes[route]
        p50 = ledger.latency[route].percentile(0.50) * 1e3
        print(f"  {route}: {counters['attempts']} attempts, "
              f"{counters['ok']} ok, {counters['rejected']} rejected, "
              f"{counters['timeouts']} timeouts, client p50 {p50:.1f}ms")
    if ledger.workers:
        spread = ", ".join(f"#{wid}: {count}"
                           for wid, count in sorted(ledger.workers.items()))
        print(f"  per-worker responses: {spread}")
    if report.mismatches:
        print("RECONCILIATION MISMATCHES:")
        for mismatch in report.mismatches:
            print(f"  {mismatch}")
    else:
        print("client/server reconciliation: clean "
              "(/stats deltas match the ledger exactly)")
    print()
    print(format_route_series(report.series))
    worst = (slow_log or {}).get("entries") or []
    if worst:
        entry = worst[0]
        print(f"\nslow-query log: {len(worst)} traced request(s), worst "
              f"{entry['wall_s'] * 1e3:.1f}ms on /{entry['route']}")
    if args.json:
        payload = report.to_dict()
        if slow_log is not None:
            payload["slow_queries"] = slow_log
            payload["worst_trace"] = worst[0]["trace"] if worst else None
        with open(args.json, "w", encoding="utf-8") as handle:
            json_module.dump(payload, handle, indent=2, sort_keys=True)
        print(f"\nreport written to {args.json}")
    return 1 if report.mismatches else 0


_COMMANDS = {
    "stats": _cmd_stats,
    "complete": _cmd_complete,
    "suggest": _cmd_suggest,
    "query": _cmd_query,
    "explain": _cmd_explain,
    "table1": _cmd_table1,
    "study": _cmd_study,
    "init": _cmd_init,
    "cache-info": _cmd_cache_info,
    "serve": _cmd_serve,
    "replay": _cmd_replay,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SparqlError as refused:  # the query text, not the program
        print(f"error: {refused}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
