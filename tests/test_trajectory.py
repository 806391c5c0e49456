"""``benchmarks/trajectory.py``'s comparison, on synthetic spine runs."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import trajectory  # noqa: E402

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def runs(scale=1.0, pairs=10):
    """Driver lines with a little run-to-run spread; every latency-like
    metric times ``scale``, and throughput divided by it."""
    out = []
    for index in range(pairs):
        jitter = 1.0 + 0.01 * ((index * 7) % 5 - 2)
        metrics = {}
        for spec in END_TO_END:
            factor = scale if spec["better"] == "lower" else 1.0 / scale
            metrics[spec["name"]] = {"value": 10.0 * jitter * factor, "unit": spec["unit"]}
        out.append({"correct": True, "attempted": 100, "failed": 0, "metrics": metrics})
    return out


def test_identical_sides_flag_nothing():
    rows = trajectory.compare(runs(), runs(), END_TO_END)
    assert trajectory.flagged(rows) == []
    assert {row["verdict"] for row in rows.values()} == {"same"}
    assert {row["won"] for row in rows.values()} == {0}


def test_a_twice_slower_change_flags_every_metric():
    rows = trajectory.compare(runs(), runs(scale=2.0), END_TO_END)
    assert trajectory.flagged(rows) == [spec["name"] for spec in END_TO_END]


def test_a_clear_gain_reads_better_with_quartiles_and_pairs():
    rows = trajectory.compare(runs(), runs(scale=0.9), END_TO_END)
    row = rows["peak_rss_mb"]
    assert row["verdict"] == "better"
    assert row["won"] == row["pairs"] == 10
    q1, q3 = row["base"]["q1_q3"]
    assert q1 <= row["base"]["median"] <= q3
    assert row["change"]["median"] < q1


HEAD, PARENT, OLDER = "c" * 40, "b" * 40, "a" * 40


def test_a_change_against_its_parent_is_a_pr_row():
    assert trajectory.run_kind(True, HEAD, HEAD, PARENT) == "pr"  # dirty tree vs HEAD
    assert trajectory.run_kind(False, PARENT, HEAD, PARENT) == "pr"  # HEAD vs HEAD~1


def test_any_other_base_is_a_creep_row():
    assert trajectory.run_kind(True, PARENT, HEAD, PARENT) == "creep"  # dirty vs HEAD~1
    assert trajectory.run_kind(False, HEAD, HEAD, PARENT) == "creep"  # HEAD vs itself
    assert trajectory.run_kind(False, OLDER, HEAD, PARENT) == "creep"
    assert trajectory.run_kind(True, OLDER, HEAD, PARENT) == "creep"
    assert trajectory.run_kind(False, OLDER, HEAD, None) == "creep"  # a root commit
