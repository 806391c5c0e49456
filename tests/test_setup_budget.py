"""``benchmarks/setup_budget.py`` at ``tiny``: its stages explain a set-up."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import setup_budget  # noqa: E402


def test_the_stages_cover_a_set_up(capsys):
    record = json.loads(json.dumps(setup_budget.run(["tiny"], runs=1)))
    assert record["kind"] == "setup_budget" and set(record["scales"]) == {"tiny"}
    check_block(record["scales"]["tiny"])
    setup_budget.print_record(record)
    assert "stages cover" in capsys.readouterr().out


def check_block(block):
    assert block["coverage"] >= 0.9, block["stages"]
    stages = list(block["stages"])
    assert stages[:3] == ["import", "build_dataset", "fold"] and stages[-1] == "serve"
    assert {"significance", "index", "qsm-vocabulary"} <= set(stages)
    assert all(row["hwm_mb"] >= row["rss_mb"] > 0 for row in block["stages"].values())
    assert all(low <= row["s"] <= high for row in block["stages"].values()
               for low, high in [row["s_q1_q3"]])
    assert block["ready"]["hwm_mb"] >= block["ready"]["rss_mb"]
    assert block["fold_traced"]["kept_mb"] > 0 and block["fold_traced"]["ratio"] >= 1


def test_a_paired_record_holds_both_sides(capsys):
    """``--base`` alternates the base tree's children with this
    checkout's; here the base is this checkout itself."""
    record = json.loads(json.dumps(setup_budget.run(["tiny"], runs=2, base=("self", ROOT))))
    assert record["base"] == "self" and record["runs"] == 2
    block = record["scales"]["tiny"]
    assert set(block) == {"base", "change"}
    for side in block.values():
        assert len(side["runs"]) == 2
        check_block(side)
    setup_budget.print_record(record)
    out = capsys.readouterr().out
    assert "against self" in out and "significance" in out


def check_replica_block(block):
    assert block["coverage"] >= 0.9, block["stages"]
    assert list(block["stages"]) == [
        "import", "build_dataset", "snapshot_copy", "prepare_snapshots", "prefork_start",
        "worker_boot"]
    assert 0 < block["stages"]["worker_boot"]["s"] < block["stages"]["prefork_start"]["s"]
    assert all(row["hwm_mb"] >= row["rss_mb"] > 0 for row in block["stages"].values())
    assert all(low <= row["s"] <= high for row in block["stages"].values()
               for low, high in [row["s_q1_q3"]])
    assert "fold_traced" not in block


def test_a_replica_record_times_the_copy_and_the_pool(capsys):
    """The replica scale: the snapshot copy alone, ``prepare_snapshots``
    and a 2-worker ``PreforkServer.start``, paired like the others."""
    record = json.loads(json.dumps(
        setup_budget.run([], runs=1, base=("self", ROOT), replica_scales=["tiny"])))
    assert record["scales"] == {} and set(record["replica"]) == {"tiny"}
    block = record["replica"]["tiny"]
    assert set(block) == {"base", "change"}
    for side in block.values():
        assert len(side["runs"]) == 1
        check_replica_block(side)
    setup_budget.print_record(record)
    out = capsys.readouterr().out
    assert "replica tiny" in out and "snapshot_copy" in out and "prefork_start" in out
    assert "worker_boot" in out
