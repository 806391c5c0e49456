"""Serving observability: per-route latency histograms and time series.

This module is the telemetry substrate the load harness
(:mod:`repro.eval.replay`) gates against and the one later learned
components (ranker / cost model) will consume:

* :class:`LatencyHistogram` — a **fixed log-scale bucket** histogram.
  Unlike the reservoir the server used before, a histogram never drops
  samples, merges across routes and processes by integer addition, and
  serializes to a compact JSON shape whose buckets are stable across
  runs (the bucket boundaries are a module constant, not data).
* :class:`ServerStats` — thread-safe serving counters, now **per
  route** (``sparql`` / ``complete`` / ``suggest``), each route with
  its own outcome counters and served-latency histogram, plus
  queue-depth/admission high-water gauges.
* :class:`StatsTimeSeries` — a bounded series of stats snapshots; the
  WSGI app appends one point per ``GET /stats/series`` call, so a load
  driver's tick *is* the sampling clock and two drivers never fight
  over a server-side timer.

Latency percentiles cover **served (200) requests only** — mixing in
microsecond 503 rejects would collapse p50 toward zero exactly when the
server is overloaded and the numbers matter (regression-tested in
``tests/test_replay.py``).
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "BUCKET_BOUNDS_S",
    "LatencyHistogram",
    "ServerStats",
    "SlowQueryLog",
    "StatsTimeSeries",
    "ROUTES",
    "merge_stats_bodies",
]

#: Request routes the server accounts separately.
ROUTES = ("sparql", "complete", "suggest")


def _log_bounds(start_s: float = 1e-4, stop_s: float = 120.0,
                per_decade: int = 20) -> Tuple[float, ...]:
    """Bucket upper bounds from ``start_s`` growing 10^(1/per_decade)."""
    growth = 10.0 ** (1.0 / per_decade)
    bounds: List[float] = []
    value = start_s
    while value < stop_s:
        bounds.append(value)
        value *= growth
    bounds.append(value)
    return tuple(bounds)


#: Fixed log-scale bucket upper bounds, in seconds: 0.1 ms → 120 s at
#: 20 buckets per decade (~12% resolution).  Identical in every process,
#: so histograms from driver workers and the server merge bucket-wise.
BUCKET_BOUNDS_S: Tuple[float, ...] = _log_bounds()

_GROWTH = 10.0 ** (1.0 / 20.0)


class LatencyHistogram:
    """Streaming latency distribution over the fixed log-scale buckets.

    Not internally locked: callers that share an instance across
    threads must serialize access (``ServerStats`` guards its route
    histograms with its own lock; the replay driver's per-worker
    ledgers do the same).
    """

    __slots__ = ("counts", "overflow", "total", "sum_s", "max_s")

    def __init__(self) -> None:
        self.counts = [0] * len(BUCKET_BOUNDS_S)
        self.overflow = 0
        self.total = 0
        self.sum_s = 0.0
        self.max_s = 0.0

    def record(self, seconds: float) -> None:
        seconds = max(0.0, seconds)
        index = bisect_left(BUCKET_BOUNDS_S, seconds)
        if index >= len(BUCKET_BOUNDS_S):
            self.overflow += 1
        else:
            self.counts[index] += 1
        self.total += 1
        self.sum_s += seconds
        if seconds > self.max_s:
            self.max_s = seconds

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other``'s buckets into this histogram (same bounds)."""
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.overflow += other.overflow
        self.total += other.total
        self.sum_s += other.sum_s
        self.max_s = max(self.max_s, other.max_s)

    @staticmethod
    def merged(histograms: Iterable["LatencyHistogram"]) -> "LatencyHistogram":
        out = LatencyHistogram()
        for histogram in histograms:
            out.merge(histogram)
        return out

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile estimate in seconds.

        Returns the geometric midpoint of the bucket holding the rank
        (≤ ~6% off for the 20-per-decade bounds); 0.0 when empty.
        """
        if self.total == 0:
            return 0.0
        # Nearest rank: the smallest bucket whose cumulative count
        # reaches ceil(fraction * total).
        rank = max(1, -(-int(fraction * self.total * 1_000_000) // 1_000_000))
        rank = min(rank, self.total)
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                upper = BUCKET_BOUNDS_S[index]
                return upper / (_GROWTH ** 0.5)
        return self.max_s  # rank lives in the overflow bucket

    @property
    def mean_s(self) -> float:
        return self.sum_s / self.total if self.total else 0.0

    # ------------------------------------------------------------------
    # Wire shape
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Compact JSON shape: only non-empty buckets travel.

        ``buckets`` pairs are ``[upper_bound_ms, count]``; bounds come
        from the shared table so two processes' histograms line up.
        """
        buckets = [
            [round(BUCKET_BOUNDS_S[index] * 1e3, 4), count]
            for index, count in enumerate(self.counts)
            if count
        ]
        return {
            "count": self.total,
            "overflow": self.overflow,
            "mean_ms": round(self.mean_s * 1e3, 3),
            "max_ms": round(self.max_s * 1e3, 3),
            "p50_ms": round(self.percentile(0.50) * 1e3, 3),
            "p90_ms": round(self.percentile(0.90) * 1e3, 3),
            "p99_ms": round(self.percentile(0.99) * 1e3, 3),
            "buckets": buckets,
        }

    @classmethod
    def from_dict(cls, document: Dict[str, object]) -> "LatencyHistogram":
        """Rebuild a histogram from :meth:`to_dict` output (bucket
        bounds are matched back to the shared table by value)."""
        histogram = cls()
        for upper_ms, count in document.get("buckets", ()):  # type: ignore[union-attr]
            # Wire bounds are rounded to 4 decimals (ms), so snap to the
            # *nearest* table bound — adjacent bounds are ~12% apart,
            # far beyond any rounding error.
            upper_s = float(upper_ms) / 1e3
            index = min(bisect_left(BUCKET_BOUNDS_S, upper_s),
                        len(BUCKET_BOUNDS_S) - 1)
            if index > 0 and (upper_s - BUCKET_BOUNDS_S[index - 1]
                              < BUCKET_BOUNDS_S[index] - upper_s):
                index -= 1
            histogram.counts[index] += int(count)
            histogram.total += int(count)
        histogram.overflow = int(document.get("overflow", 0))  # type: ignore[arg-type]
        histogram.total += histogram.overflow
        histogram.sum_s = (
            float(document.get("mean_ms", 0.0)) / 1e3 * histogram.total  # type: ignore[arg-type]
        )
        histogram.max_s = float(document.get("max_ms", 0.0)) / 1e3  # type: ignore[arg-type]
        return histogram


class _RouteStats:
    """Counters + served-latency histogram for one route.

    Plain data guarded by the owning :class:`ServerStats` lock.
    """

    __slots__ = ("requests", "ok", "rejected", "timeouts", "client_errors",
                 "server_errors", "rows_served", "latency")

    def __init__(self) -> None:
        self.requests = 0
        self.ok = 0
        self.rejected = 0
        self.timeouts = 0
        self.client_errors = 0
        self.server_errors = 0
        self.rows_served = 0
        self.latency = LatencyHistogram()

    def record(self, status: int, seconds: float, rows: int) -> None:
        self.requests += 1
        if status == 200:
            self.ok += 1
            self.rows_served += rows
            self.latency.record(seconds)
        elif status == 503:
            self.rejected += 1
        elif status == 504:
            self.timeouts += 1
        elif 400 <= status < 500:
            self.client_errors += 1
        else:
            self.server_errors += 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "ok": self.ok,
            "rejected": self.rejected,
            "timeouts": self.timeouts,
            "client_errors": self.client_errors,
            "server_errors": self.server_errors,
            "rows_served": self.rows_served,
            "latency": self.latency.to_dict(),
        }


class ServerStats:
    """Thread-safe per-route serving counters and latency histograms.

    The aggregate surface (``snapshot()['requests']``, ``ok``,
    ``latency_p50_ms``, …) is unchanged from the reservoir era so
    existing dashboards and tests keep working; per-route detail lives
    under ``snapshot()['routes']`` and queue/admission high-water marks
    under ``queued_peak`` / ``in_flight_peak``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._routes: Dict[str, _RouteStats] = {}
        self.queued_peak = 0
        self.in_flight_peak = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(self, status: int, seconds: float, rows: int = 0,
               route: str = "sparql") -> None:
        with self._lock:
            stats = self._routes.get(route)
            if stats is None:
                stats = self._routes[route] = _RouteStats()
            stats.record(status, seconds, rows)

    def observe_queue(self, queued: int, in_flight: int) -> None:
        """Track admission-control high-water marks (gauge peaks)."""
        with self._lock:
            if queued > self.queued_peak:
                self.queued_peak = queued
            if in_flight > self.in_flight_peak:
                self.in_flight_peak = in_flight

    # ------------------------------------------------------------------
    # Aggregate counters (sum over routes)
    # ------------------------------------------------------------------

    def _sum(self, field: str) -> int:
        return sum(getattr(stats, field) for stats in self._routes.values())

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            merged = LatencyHistogram.merged(
                stats.latency for stats in self._routes.values()
            )
            return {
                "requests": self._sum("requests"),
                "ok": self._sum("ok"),
                "rejected": self._sum("rejected"),
                "timeouts": self._sum("timeouts"),
                "client_errors": self._sum("client_errors"),
                "server_errors": self._sum("server_errors"),
                "rows_served": self._sum("rows_served"),
                "latency_p50_ms": round(merged.percentile(0.50) * 1e3, 3),
                "latency_p99_ms": round(merged.percentile(0.99) * 1e3, 3),
                "queued_peak": self.queued_peak,
                "in_flight_peak": self.in_flight_peak,
                "routes": {
                    route: stats.to_dict()
                    for route, stats in sorted(self._routes.items())
                },
            }


#: Entries the serving slow-query log keeps (``/stats`` → ``slow_queries``).
SLOW_LOG_SIZE = 32


class SlowQueryLog:
    """Bounded top-N log of the slowest traced requests.

    Thread-safe.  Every *traced* request is offered (sampling already
    thinned the stream); the log keeps the ``capacity`` entries with the
    largest wall time, so a burst of fast queries can never evict the
    slow outlier the log exists to explain.  Entries at or above
    ``threshold_s`` are flagged ``slow`` — the log still keeps the
    slowest entries below the threshold, because "nothing is slow yet"
    traces are how the threshold gets tuned.

    Entries are plain dicts (query snippet, route, wall seconds, flag,
    and the full trace in :meth:`~repro.sparql.trace.QueryTrace.to_dict`
    form) so ``GET /stats/slow`` serves them verbatim.
    """

    def __init__(self, capacity: int = SLOW_LOG_SIZE, threshold_s: float = 0.5) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.threshold_s = threshold_s
        self._lock = threading.Lock()
        self._entries: List[Dict[str, object]] = []
        self._offered = 0

    def offer(
        self,
        query: str,
        wall_s: float,
        trace: Dict[str, object],
        route: str = "sparql",
    ) -> bool:
        """Consider one traced request; returns True if it was kept."""
        entry: Dict[str, object] = {
            "query": query[:500],
            "route": route,
            "wall_s": round(wall_s, 6),
            "slow": wall_s >= self.threshold_s,
            "trace": trace,
        }
        with self._lock:
            self._offered += 1
            if len(self._entries) < self.capacity:
                self._entries.append(entry)
                self._entries.sort(key=lambda e: e["wall_s"], reverse=True)  # type: ignore[arg-type,return-value]
                return True
            if wall_s <= self._entries[-1]["wall_s"]:  # type: ignore[operator]
                return False
            self._entries[-1] = entry
            self._entries.sort(key=lambda e: e["wall_s"], reverse=True)  # type: ignore[arg-type,return-value]
            return True

    def snapshot(self) -> Dict[str, object]:
        """Wire form: entries sorted slowest-first plus summary counters."""
        with self._lock:
            entries = [dict(entry) for entry in self._entries]
            return {
                "capacity": self.capacity,
                "threshold_s": self.threshold_s,
                "offered": self._offered,
                "slow_count": sum(1 for entry in entries if entry["slow"]),
                "entries": entries,
            }


class StatsTimeSeries:
    """A bounded, append-only series of stats snapshots.

    Sampling is caller-driven: the WSGI app appends one point per
    ``GET /stats/series``, so the load driver's tick is the clock.
    Bounded (drop-oldest) so an unattended server cannot grow without
    limit under a polling monitor.
    """

    def __init__(self, max_points: int = 4096,
                 clock=time.time) -> None:
        self._lock = threading.Lock()
        self._points: List[Dict[str, object]] = []
        self.max_points = max_points
        self._clock = clock
        self._started = clock()

    def sample(self, body: Dict[str, object]) -> List[Dict[str, object]]:
        """Append one point built from a ``/stats`` body; returns the
        whole series (a copy)."""
        now = self._clock()
        point = dict(body)
        point["t"] = round(now, 6)
        point["elapsed_s"] = round(now - self._started, 6)
        with self._lock:
            self._points.append(point)
            if len(self._points) > self.max_points:
                del self._points[: len(self._points) - self.max_points]
            point["tick"] = len(self._points) - 1
            return list(self._points)

    def points(self) -> List[Dict[str, object]]:
        with self._lock:
            return list(self._points)

    def __len__(self) -> int:
        with self._lock:
            return len(self._points)


def route_deltas(before: Dict[str, object], after: Dict[str, object],
                 fields: Sequence[str] = ("requests", "ok", "rejected",
                                          "timeouts", "client_errors",
                                          "server_errors", "rows_served"),
                 routes: Optional[Sequence[str]] = None) -> Dict[str, Dict[str, int]]:
    """Per-route counter deltas between two ``/stats`` bodies.

    The reconciliation primitive: a load driver snapshots ``/stats``
    before and after a run and compares these deltas against its own
    ledger.  Routes absent from a snapshot contribute zero.
    """
    before_routes = before.get("routes", {}) or {}
    after_routes = after.get("routes", {}) or {}
    names = routes if routes is not None else sorted(
        set(before_routes) | set(after_routes)  # type: ignore[arg-type]
    )
    deltas: Dict[str, Dict[str, int]] = {}
    for name in names:
        b = before_routes.get(name, {})  # type: ignore[union-attr]
        a = after_routes.get(name, {})  # type: ignore[union-attr]
        deltas[name] = {
            field: int(a.get(field, 0)) - int(b.get(field, 0))
            for field in fields
        }
    return deltas


#: Counter fields summed across workers when merging ``/stats`` bodies.
_MERGE_SUM_FIELDS = ("requests", "ok", "rejected", "timeouts",
                     "client_errors", "server_errors", "rows_served",
                     "in_flight", "queued", "sessions", "session_activity")
_MERGE_MAX_FIELDS = ("queued_peak", "in_flight_peak")

#: Suggestion-cache counters summed across workers; the per-tier hit
#: rates are *recomputed* from the summed counters (averaging per-worker
#: rates would weight an idle worker like a busy one), and the index
#: size gauges take the max (workers serve the same on-disk index).
#: The residual-window gauges sum: each worker keeps its own bins.
_CACHE_SUM_FIELDS = ("lookups", "tree_hits", "bin_hits", "index_hits",
                     "misses", "served",
                     "window_rows_resident", "window_bin_loads")
_CACHE_MAX_FIELDS = ("index_surfaces", "index_bytes", "index_fts")


def _merge_cache_blocks(blocks: List[Dict[str, object]]) -> Dict[str, object]:
    merged: Dict[str, object] = {field: 0 for field in _CACHE_SUM_FIELDS}
    for field in _CACHE_MAX_FIELDS:
        merged[field] = 0
    for block in blocks:
        for field in _CACHE_SUM_FIELDS:
            merged[field] += int(block.get(field, 0))  # type: ignore[arg-type,operator]
        for field in _CACHE_MAX_FIELDS:
            merged[field] = max(merged[field],  # type: ignore[type-var]
                                int(block.get(field, 0)))  # type: ignore[arg-type]
    lookups = int(merged["lookups"])  # type: ignore[arg-type]
    for tier in ("tree", "bin", "index"):
        hits = int(merged[f"{tier}_hits"])  # type: ignore[arg-type]
        merged[f"{tier}_hit_rate"] = hits / lookups if lookups else 0.0
    return merged


def merge_stats_bodies(bodies: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """One coordinator-view ``/stats`` body from per-worker bodies.

    Counters and gauges sum (the ``federation``, ``connections`` and
    ``formats`` blocks' too), high-water marks take the max, and
    per-route latency histograms merge **bucket-wise** through
    :meth:`LatencyHistogram.from_dict` / :meth:`~LatencyHistogram.merge`
    — so the merged view's percentiles are computed over the union of
    all workers' samples, not averaged per worker.  The output has the
    same shape :func:`route_deltas` and the replay reconciliation
    consume, which is what makes client-vs-coordinator reconciliation
    possible in multi-worker mode.
    """
    merged: Dict[str, object] = {field: 0 for field in _MERGE_SUM_FIELDS}
    for field in _MERGE_MAX_FIELDS:
        merged[field] = 0
    route_counts: Dict[str, Dict[str, int]] = {}
    route_latency: Dict[str, LatencyHistogram] = {}
    cache_blocks: List[Dict[str, object]] = []
    summed_blocks: Dict[str, Dict[str, int]] = {}
    for body in bodies:
        cache = body.get("cache")
        if isinstance(cache, dict):
            cache_blocks.append(cache)
        for block in ("federation", "connections", "formats"):
            for name, count in (body.get(block) or {}).items():  # type: ignore[union-attr]
                summed = summed_blocks.setdefault(block, {})
                summed[name] = summed.get(name, 0) + int(count)
        for field in _MERGE_SUM_FIELDS:
            merged[field] += int(body.get(field, 0))  # type: ignore[arg-type,operator]
        for field in _MERGE_MAX_FIELDS:
            merged[field] = max(merged[field],  # type: ignore[type-var]
                                int(body.get(field, 0)))  # type: ignore[arg-type]
        for route, stats in (body.get("routes", {}) or {}).items():  # type: ignore[union-attr]
            counts = route_counts.setdefault(
                route, {field: 0 for field in _MERGE_SUM_FIELDS[:7]})
            for field in _MERGE_SUM_FIELDS[:7]:
                counts[field] += int(stats.get(field, 0))
            histogram = route_latency.setdefault(route, LatencyHistogram())
            latency = stats.get("latency")
            if latency:
                histogram.merge(LatencyHistogram.from_dict(latency))
    overall = LatencyHistogram.merged(route_latency.values())
    merged["latency_p50_ms"] = round(overall.percentile(0.50) * 1e3, 3)
    merged["latency_p99_ms"] = round(overall.percentile(0.99) * 1e3, 3)
    merged["routes"] = {
        route: {**route_counts[route],
                "latency": route_latency[route].to_dict()}
        for route in sorted(route_counts)
    }
    if cache_blocks:
        merged["cache"] = _merge_cache_blocks(cache_blocks)
    merged.update(summed_blocks)
    return merged
