"""SPARQL 1.1 Protocol over the network: HTTP server, wire formats, client.

The paper's Sapphire talks to *real* remote endpoints (DBpedia's
``/sparql`` and friends).  This package is the network layer that makes
the reproduction do the same, stdlib-only:

* :mod:`repro.net.formats` — SPARQL Results JSON/XML/CSV/TSV writers and
  JSON and TSV parsers (each term encoded once and decoded once: a memo
  under the writer, an interning reader), plus Accept-header content
  negotiation;
* :mod:`repro.net.wsgi` — the protocol logic as a WSGI app with
  admission control (bounded workers, bounded queue → 503; deadlines →
  504) and ``/health`` + ``/stats`` + ``/stats/series`` observability;
* :mod:`repro.net.metrics` — per-route serving counters with fixed
  log-scale latency histograms, queue gauges, and the bounded stats
  time series behind ``/stats/series``;
* :mod:`repro.net.server` — a ``ThreadingHTTPServer`` harness binding
  the app to a socket (``repro serve`` uses it);
* :mod:`repro.net.http11` — HTTP/1.1 message framing for both ends;
* :mod:`repro.net.client` — :class:`HttpSparqlEndpoint`, a drop-in
  endpoint whose queries go over the wire, so the federation engine
  federates live HTTP endpoints unchanged; and
  :class:`HttpSapphireClient`, which drives a remote Sapphire's
  Predictive User Model through the ``/complete``/``/suggest`` routes;
* :mod:`repro.net.suggest` — the suggestion API's canonical JSON wire
  format (shared by server and client, so loopback responses are
  byte-identical to in-process results).
"""

from .client import (
    ConnectionFailed,
    HttpSapphireClient,
    HttpSparqlEndpoint,
    fetch_slow_log,
    fetch_stats,
    fetch_stats_series,
    server_root,
)
from .formats import (
    MIME_CSV,
    MIME_JSON,
    MIME_TSV,
    MIME_XML,
    FormatError,
    NotAcceptable,
    negotiate,
    parse_json,
    parse_tsv,
    result_from_document,
    result_to_document,
    write_csv,
    write_json,
    write_tsv,
    write_xml,
)
from .metrics import (
    LatencyHistogram,
    SlowQueryLog,
    StatsTimeSeries,
    merge_stats_bodies,
    route_deltas,
)
from .prefork import PreforkServer, build_backend_from_spec, prepare_snapshots
from .server import SparqlHttpServer
from .suggest import (
    RemoteCompletion,
    RemoteCompletionResult,
    RemoteOutcome,
    RemoteSuggestion,
    completion_document,
    dump_document,
    outcome_document,
    parse_completion,
    parse_outcome,
)
from .wsgi import ServerStats, SparqlWsgiApp

__all__ = [
    "HttpSparqlEndpoint",
    "HttpSapphireClient",
    "ConnectionFailed",
    "LatencyHistogram",
    "SlowQueryLog",
    "StatsTimeSeries",
    "route_deltas",
    "fetch_slow_log",
    "fetch_stats",
    "fetch_stats_series",
    "server_root",
    "RemoteCompletion",
    "RemoteCompletionResult",
    "RemoteOutcome",
    "RemoteSuggestion",
    "completion_document",
    "outcome_document",
    "dump_document",
    "parse_completion",
    "parse_outcome",
    "SparqlHttpServer",
    "SparqlWsgiApp",
    "ServerStats",
    "PreforkServer",
    "build_backend_from_spec",
    "prepare_snapshots",
    "merge_stats_bodies",
    "FormatError",
    "NotAcceptable",
    "negotiate",
    "parse_json",
    "parse_tsv",
    "write_json",
    "result_to_document",
    "result_from_document",
    "write_xml",
    "write_csv",
    "write_tsv",
    "MIME_JSON",
    "MIME_XML",
    "MIME_CSV",
    "MIME_TSV",
]
