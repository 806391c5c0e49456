"""The benchmark spine checks itself: ``run.py --smoke`` end to end.

Run with ``python -m pytest benchmarks/spine -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from spine import compare, env, replay, spans, workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_spine(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)


def printed_metrics(stdout: str) -> dict:
    """``name -> unit`` for every metric line of the human-readable part."""
    found = {}
    for line in stdout.splitlines():
        parts = line.split()
        if line.startswith("  ") and len(parts) >= 3 and parts[0] != "PROBLEM:":
            found[parts[0]] = parts[2]
    return found


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    out = tmp_path_factory.mktemp("untraced")
    done = run_spine("--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    done.out = out
    return done


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    done = run_spine("--traced", "--workload", "session_mix", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return done, out


def test_every_workload_prints_every_end_to_end_metric(untraced):
    blocks = untraced.stdout.split("== ")[1:]
    assert [block.split()[0] for block in blocks] == [w["name"] for w in CONTRACT["workloads"]]
    for block in blocks:
        printed = printed_metrics(block)
        for metric in CONTRACT["end_to_end"]:
            assert printed.get(metric["name"]) == metric["unit"], (block.split()[0], metric)


def test_driver_lines_follow_the_contract(untraced):
    lines = [json.loads(line) for line in untraced.stdout.splitlines() if line.startswith("{")]
    assert len(lines) == len(CONTRACT["workloads"])
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
        assert all(entry["value"] > 0 for entry in line["metrics"].values())


def test_result_file_keeps_every_raw_sample_and_the_machine_speed(untraced):
    (path,) = untraced.out.glob("spine-*.json")
    document = json.loads(path.read_text())
    assert {"commit", "nproc", "python", "sqlite", "fts5_trigram"} <= set(document["fingerprint"])
    for run in document["runs"]:
        n_mix, n_block = run["requests"]["mix"], run["requests"]["off_mix"]
        kept = {group: [len(one["latency_ms"]) for one in passes]
                for group, passes in run["raw_samples"].items()}
        assert kept == {"mix": [n_mix] * run["passes"], "off_mix": [n_block] * (2 if n_block else 0)}
        assert run["attempted"] == n_mix * run["passes"] + 2 * n_block
        assert len(run["sentinel"]) == run["noise_guard"]["readings"] > 10
        assert set(run["raw"]) <= set(run["metrics"])


def test_traced_run_prints_every_per_layer_metric(traced):
    done, _ = traced
    printed = printed_metrics(done.stdout)
    for metric in CONTRACT["per_layer"]:
        assert printed.get(metric["name"]) == metric["unit"], metric
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}


def test_span_parents_resolve_and_self_times_sum_to_the_request(traced):
    _, out = traced
    (path,) = out.glob("spans-*.jsonl")
    recorded = [json.loads(line) for line in path.read_text().splitlines()]
    by_id = {span["id"]: span for span in recorded}
    assert len(by_id) == len(recorded) > 0
    own = spans.self_times(recorded)
    tree_self = defaultdict(float)
    for span in recorded:
        root = span
        while root["parent"] is not None:
            parent = by_id[root["parent"]]           # resolves
            assert parent["request"] == span["request"]
            root = parent
        if root["name"] == "wsgi":
            tree_self[root["id"]] += own[span["id"]]
    assert tree_self
    for root_id, total in tree_self.items():
        root = by_id[root_id]
        assert total == pytest.approx(root["end"] - root["start"], abs=1e-9)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_request_lists_are_a_function_of_the_seed(name):
    workload = workloads.WORKLOADS[name]
    first, again, other = (workload.lists(seed, workloads.SMOKE) for seed in (5, 5, 6))
    assert workloads.requests_json(first[0]) == workloads.requests_json(again[0])
    assert workloads.requests_json(first[0]) != workloads.requests_json(other[0])
    # The off-mix block is a fixture: the same on every seed.
    assert workloads.requests_json(first[1]) == workloads.requests_json(other[1])
    assert {r["kind"] for r in first[1]}.isdisjoint(r["kind"] for r in first[0])


def test_clients_get_whole_sessions():
    mix, _ = workloads.WORKLOADS["session_mix"].lists(5, workloads.SMOKE)
    lanes = replay.split_lanes(mix, 2)
    assert sorted(r["id"] for lane in lanes for r in lane) == [r["id"] for r in mix]
    assert {r["session"] for r in lanes[0]}.isdisjoint(r["session"] for r in lanes[1])


def test_speed_trace_averages_the_readings_around_an_interval():
    full, half = env.NOMINAL_LOOP_S, 2 * env.NOMINAL_LOOP_S
    # (time, loop seconds, steal ticks, busy ticks): the CPU halves its speed
    # at t=2, and in the last second the host takes a tick in four away.
    trace = env.SpeedTrace([(0.0, full, 0, 0), (1.0, full, 0, 100),
                            (2.0, half, 0, 200), (3.0, half, 25, 275)])
    assert trace.speed(0.0, 1.0) == pytest.approx(1.0)
    assert trace.speed(0.0, 2.0) == pytest.approx(5 / 6)
    assert trace.speed(1.4, 1.6, pad=0.5) == pytest.approx(0.75)        # widened to both neighbours
    assert trace.speed(1.1, 1.2) == pytest.approx(1.0)                  # none inside: the nearest
    assert trace.speed(2.0, 3.0) == pytest.approx(0.5 * 0.75)           # slower and partly taken away
    guard = trace.noise_guard()
    assert guard["noisy"] and guard["drift"] == pytest.approx(1.0 / 0.375 - 1.0)


def test_percentile_interpolates_between_ranks():
    assert replay.percentile([1.0, 2.0, 3.0, 10.0], 0.5) == 2.5
    assert replay.percentile([7.0], 0.9) == 7.0
    assert replay.percentile([0.0, 10.0], 0.9) == pytest.approx(9.0)


def test_corrupted_golden_digest_fails_the_run(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(HERE / "golden", golden)
    path = golden / "qsm_repair.json"
    document = json.loads(path.read_text())
    document["smoke"]["answers"] = "0" * 16
    path.write_text(json.dumps(document))
    done = run_spine("--workload", "qsm_repair", "--golden", str(golden), "--out", str(tmp_path / "out"))
    assert done.returncode != 0
    assert "golden qsm_repair.json[smoke]" in done.stdout
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is False


def test_no_process_outlives_the_run(tmp_path):
    """Not a zombie either: multiprocessing's resource trackers end a moment
    after the processes that own them, and run.py has to wait for those too."""
    done = subprocess.Popen([sys.executable, str(HERE / "run.py"), "--smoke", "--workload", "replica_mix",
                             "--out", str(tmp_path)], cwd=ROOT, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    assert done.wait(timeout=300) == 0
    left = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                fields = (entry / "stat").read_text(errors="replace").rpartition(")")[2].split()
            except OSError:
                continue  # ended meanwhile
            if int(fields[3]) == done.pid:  # its session
                left.append((entry.name, fields[0]))
    assert not left


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    assert compare.verdict(steady, steady, "lower", 0.1)[0] == "same"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "lower", 0.1)[0] == "worse"
    assert compare.verdict(steady, [v * 0.8 for v in steady], "lower", 0.1)[0] == "better"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "higher", 0.1)[0] == "better"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare.verdict(noisy, [v * 1.02 for v in noisy], "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(steady[:3], [v * 0.8 for v in steady[:3]], "lower", 0.1)[0] == "better"
