"""``benchmarks/round_budget.py`` at ``tiny``: its parts explain a round."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import round_budget  # noqa: E402


def test_the_parts_cover_a_round(capsys):
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
