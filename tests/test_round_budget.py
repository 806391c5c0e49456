"""``benchmarks/round_budget.py`` at ``tiny``: its parts explain a round."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import pytest  # noqa: E402
import round_budget  # noqa: E402


def test_the_parts_cover_a_round(capsys, monkeypatch):
    record = json.loads(json.dumps(round_budget.run("tiny")))
    assert record["kind"] == "round_budget" and record["rounds"] == 156
    assert set(record["servers"]) == {"memory_small", "memory_medium", "replica_medium"}
    for name, block in record["servers"].items():
        assert block["coverage"] >= 0.9, (name, block["parts"])
        assert {"scan", "match_loop", "planning", "proofs", "probes", "relaxation"} <= set(block["parts"])
        assert all(block["counts"][key] > 0 for key in
                   ("plans", "encode_pattern", "dictionary_lookups", "has_match")), name
    round_budget.print_record(record)
    assert "parts cover" in capsys.readouterr().out

    # ``--base``: runs of the base tree's ``run()`` alternate with this
    # checkout's; each child's record is this one here.
    trees = []
    monkeypatch.setattr(round_budget, "_spawn", lambda tree, scale: trees.append(tree) or record)
    paired = json.loads(json.dumps(round_budget.paired("self", Path("/base"), "tiny", pairs=2)))
    assert trees == [Path("/base"), ROOT, ROOT, Path("/base")]
    assert paired["base"] == "self" and paired["pairs"] == 2 and paired["rounds"] == 156
    assert set(paired["servers"]) == set(record["servers"])
    for name, block in paired["servers"].items():
        assert set(block) == {"base", "change"}
        for side in block.values():
            one = record["servers"][name]
            assert side["ms_per_round"]["median"] == one["ms_per_round"]
            assert side["ms_per_round"]["q1_q3"] == pytest.approx([one["ms_per_round"]] * 2)
            assert side["shares"]["probes"] == one["parts"]["probes"]["share"]
            assert side["counts"] == one["counts"] and len(side["runs"]) == 2
    round_budget.print_record(paired)
    assert "against self" in capsys.readouterr().out
