"""The untraced run: timed set-ups, a discarded warm-up pass, measured
passes of the identical request list, answer checks, reconciliation.

Everything a user of the served system would see comes from here; the
per-layer budget is :mod:`spine.layers`.

Latency percentiles are taken over the ``perf_counter`` samples of all
measured passes pooled; ``throughput_rps`` is the median of the per-pass
values.  Both are reported twice: as the clock read them (``raw``) and with
every duration brought to nominal machine speed (``metrics`` — what
BENCHMARK.json gates; :mod:`spine.env` says why).
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from typing import Dict, List, Tuple

from repro.eval.replay import ReplayLedger, reconcile
from repro.net.client import HttpSapphireClient, HttpSparqlEndpoint, fetch_stats

from . import answers, env, serve
from .replay import CLIENT_TIMEOUT_S, PassResult, percentile, replay_pass, samples_beyond, split_lanes
from .workloads import KINDS, Sizing, Workload, requests_digest

#: (metric, latency family, percentile) — the names are the contract.
#: ISSUE 11's three tails did not repeat closely enough to gate on
#: (README.md, "Calibration"), so by the issue's rule they are reported as
#: ``client.*`` per-layer metrics and gate nothing.
LATENCY_METRICS = (
    ("complete_p50_ms", "complete", 0.50),
    ("client.complete_p95_ms", "complete", 0.95),
    ("suggest_fix_p50_ms", "suggest_fix", 0.50),
    ("client.suggest_fix_p90_ms", "suggest_fix", 0.90),
    ("suggest_run_p50_ms", "suggest_run", 0.50),
    ("sparql_p50_ms", "sparql", 0.50),
    ("client.sparql_p90_ms", "sparql", 0.90),
)


def _raw(one: PassResult) -> Dict[str, object]:
    """What the clock read in one pass, in request order: when the pass
    started (``perf_counter``), each request's send time after that, and
    its latency (None = failed), in ms."""
    samples = sorted(one.samples, key=lambda sample: sample.request["id"])
    return {"started_s": one.started,
            "sent_ms": [round((sample.started - one.started) * 1e3, 3) for sample in samples],
            "latency_ms": [round(sample.seconds * 1e3, 4) if sample.ok else None for sample in samples]}


_CANARY_QUERY = ('SELECT ?w WHERE { ?t foaf:name "Tom Hanks"@en . ?t dbo:spouse ?w }')


def check_canaries(url: str) -> None:
    """One fixed request per route with an answer the dataset fixture
    guarantees — "the server is up" means all three routes answer right."""
    client = HttpSapphireClient(url, timeout_s=CLIENT_TIMEOUT_S, max_retries=0)
    endpoint = HttpSparqlEndpoint(url, timeout_s=CLIENT_TIMEOUT_S, max_retries=0)
    surfaces = client.complete("Kenn", 5).surfaces()
    if not any("kennedy" in surface.lower() for surface in surfaces):
        raise RuntimeError(f"canary /complete 'Kenn' returned {surfaces!r}")
    rows = endpoint.select(_CANARY_QUERY).rows
    if not any(row["w"].n3().endswith("Rita_Wilson>") for row in rows):
        raise RuntimeError(f"canary /sparql returned {len(rows)} rows, none Rita_Wilson")
    if not client.suggest(_CANARY_QUERY, suggest=False).has_answers:
        raise RuntimeError("canary /suggest returned no answers")


def start_served(workload: Workload, sizing: Sizing, scratch: str):
    """Spawn the served system; returns ``(child, started, setup_s)`` where
    ``setup_s`` runs from spawn to the last checked canary answer."""
    serve.empty_dir(scratch)
    started = time.perf_counter()
    child = serve.Child(serve.serving_spec(workload, sizing, scratch))
    try:
        info = child.wait_ready()
        check_canaries(str(info["url"]))
    except BaseException:
        child.stop()
        raise
    return child, started, time.perf_counter() - started


def run_untraced(workload: Workload, seed: int, seconds: float, sizing: Sizing,
                 scratch_root: str) -> Dict[str, object]:
    mix, block = workload.lists(seed, sizing)
    scratch = os.path.join(scratch_root, f"scratch-{os.getpid()}")
    sentinel = env.Sentinel()

    setups: List[Tuple[float, float]] = []      # (started, seconds)
    children: List[serve.Child] = []
    try:
        for index in range(sizing.setups):
            if children:
                # Told to stop now, joined at the end: a teardown is a
                # second and a half of waiting on poll intervals.
                children[-1].request_stop()
            child, started, setup_s = start_served(workload, sizing, os.path.join(scratch, f"setup-{index}"))
            children.append(child)
            setups.append((started, setup_s))
        url, stats_url = str(child.info["url"]), str(child.info["stats_url"])
        # The reference child answers both lists by direct calls while
        # the warm-up pass (discarded either way) runs over HTTP.
        reference_child = serve.Child(serve.reference_spec(workload, sizing, child.info, mix + block))
        try:
            warmups = [replay_pass(split_lanes(mix, workload.clients), url, None),
                       replay_pass([block], url, None)]
            reference_child.wait_ready()
            reference = reference_child.take_answers()
        finally:
            reference_child.stop()
        warmup_mismatches = sum(
            1 for one in warmups for sample in one.samples
            if sample.response != reference[int(sample.request["id"])])  # type: ignore[arg-type]

        stats_before = fetch_stats(stats_url)
        # The off-mix block (workloads.py says what it is) is measured
        # once before the mix and once after: two sittings seconds apart
        # do not share one spell of the machine.
        block_passes = [replay_pass([block], url, reference)] if block else []
        # Whole passes of the mix for ``seconds``: another one starts only
        # if, going by the last, it would end in time.
        mix_passes: List[PassResult] = []
        started = time.perf_counter()
        while True:
            mix_passes.append(replay_pass(split_lanes(mix, workload.clients), url, reference))
            measured_s = time.perf_counter() - started
            if measured_s + mix_passes[-1].wall_s > seconds:
                break
        peak_rss_mb = child.peak_rss_mb()
        if block:
            block_passes.append(replay_pass([block], url, reference))
        stats_after = fetch_stats(stats_url)
    finally:
        for started_child in children:
            started_child.stop()
        shutil.rmtree(scratch, ignore_errors=True)
        trace = sentinel.stop()

    ledger = ReplayLedger()
    pooled: Dict[str, List[Tuple[float, float]]] = {kind: [] for kind in KINDS}   # (raw, at nominal speed)
    by_tag: Dict[str, List[float]] = {}
    failures: List[Dict[str, object]] = []
    attempted = failed = 0
    for index, one in enumerate(mix_passes + block_passes):
        ledger.merge(one.ledger)
        for sample in one.samples:
            attempted += 1
            request = sample.request
            if sample.ok:
                speed = trace.speed(sample.started, sample.started + sample.seconds, env.WINDOW_S)
                pooled[str(request["kind"])].append((sample.seconds, sample.seconds * speed))
                if index < len(mix_passes):
                    by_tag.setdefault(str(request["tag"]), []).append(sample.seconds)
            else:
                failed += 1
                if len(failures) < 20:
                    failures.append({"id": request["id"], "kind": request["kind"],
                                     "outcome": sample.outcome, "got": sample.response,
                                     "expected": reference[int(request["id"])]})  # type: ignore[arg-type]
    mismatches = reconcile(stats_before, stats_after, ledger)

    pass_rps = [sum(1 for sample in one.samples if sample.ok) / one.wall_s for one in mix_passes]
    pass_speed = [trace.speed(one.started, one.started + one.wall_s) for one in mix_passes]
    # ``raw`` is what the clock read; ``metrics`` is the same estimator on
    # durations brought to nominal machine speed (env.py says why).
    raw: Dict[str, float] = {
        "setup_s": statistics.median(seconds for _, seconds in setups),
        "throughput_rps": statistics.median(pass_rps),
    }
    metrics: Dict[str, float] = {
        "setup_s": statistics.median(seconds * trace.speed(started, started + seconds)
                                     for started, seconds in setups),
        "throughput_rps": statistics.median(rps / speed for rps, speed in zip(pass_rps, pass_speed)),
        "failed_share": failed / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    sample_counts: Dict[str, Dict[str, int]] = {}
    for name, kind, fraction in LATENCY_METRICS:
        if pooled[kind]:
            raw[name] = percentile(sorted(seconds for seconds, _ in pooled[kind]), fraction) * 1e3
            metrics[name] = percentile(sorted(nominal for _, nominal in pooled[kind]), fraction) * 1e3
            sample_counts[name] = {"samples": len(pooled[kind]),
                                   "beyond": samples_beyond(len(pooled[kind]), fraction)}

    total_s = sum(sum(values) for values in by_tag.values())
    return {
        "workload": workload.name, "seed": seed, "sizing": sizing.name, "traced": False,
        "metrics": metrics,
        "raw": raw,
        "attempted": attempted, "failed": failed,
        "sample_counts": sample_counts,
        "pass_rps": pass_rps, "pass_speed": pass_speed,
        "setups_s": [seconds for _, seconds in setups],
        "passes": len(mix_passes), "measured_s": measured_s,
        "clients": workload.clients,
        "requests": {"digest": requests_digest(mix + block), "mix": len(mix), "off_mix": len(block)},
        "answers_digest": answers.digest_all(reference),
        "warmup_mismatches": warmup_mismatches,
        "reconcile_mismatches": mismatches,
        "failures": failures,
        "tags": {tag: {"count": len(values), "mean_ms": statistics.fmean(values) * 1e3,
                       "time_share": sum(values) / total_s}
                 for tag, values in sorted(by_tag.items())},
        "served": {key: child.info.get(key) for key in ("triples", "cache", "timings")},
        "server_stats": {"cache": stats_after.get("cache"),
                         "queued_peak": stats_after.get("queued_peak"),
                         "in_flight_peak": stats_after.get("in_flight_peak")},
        "noise_guard": trace.noise_guard(),
        "raw_samples": {"mix": [_raw(one) for one in mix_passes],
                        "off_mix": [_raw(one) for one in block_passes]},
        # (perf_counter, loop s, steal ticks, busy ticks) — env.Reading.
        "sentinel": [[round(at, 4), round(loop_s, 6), steal, busy]
                     for at, loop_s, steal, busy in trace.readings],
    }
