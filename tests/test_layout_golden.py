"""``MemoryBackend``'s folded layout against a golden, field by field.

``TestMemoryLayout`` (``test_store.py``) checks what a scan returns as a
multiset and the order of keys at both levels; it does not see the order
of a group's leaves, which the answer digests and the gold bodies pin.
This golden does: for each case it holds a sha256 over every
``_Permutation`` field of SPO, POS and OSP — the ``keys`` items and the
``starts``, ``blocks``, ``dir_b``, ``dir_lo``, ``dir_hi``, ``col_b`` and
``col_c`` arrays.  The cases are the ``tiny`` and ``small`` datasets as
their loaders fold them, and a write–read–write–read sequence whose second
read refolds every permutation from its own rows followed by the log.
Regenerate ``tests/memory_layout_golden.json`` with
``PYTHONPATH=src python tests/test_layout_golden.py`` only on purpose: a
changed digest means a changed row order.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain
from pathlib import Path

import pytest

from repro.data import DatasetConfig, build_dataset
from repro.store import MemoryBackend

GOLDEN = Path(__file__).with_name("memory_layout_golden.json")

FIELDS = ("keys", "starts", "blocks", "dir_b", "dir_lo", "dir_hi", "col_b", "col_c")
PERMUTATIONS = ("spo", "pos", "osp")


def _digest(values) -> str:
    return hashlib.sha256(",".join(map(str, values)).encode("ascii")).hexdigest()


def layout_digests(backend: MemoryBackend):
    """A sha256 per field of each permutation, the first read folding the log."""
    digests = {}
    for name, perm in zip(PERMUTATIONS, backend._read()):
        for field in FIELDS:
            values = getattr(perm, field)
            digests[f"{name}.{field}"] = _digest(chain.from_iterable(values.items()) if field == "keys" else values)
    return digests


def case(name):
    """The digests one case records: per read, for the sequence."""
    if name in ("tiny", "small"):
        return layout_digests(build_dataset(getattr(DatasetConfig, name)()).store.backend)
    triples = list(build_dataset(DatasetConfig.tiny()).store.backend.match_ids(None, None, None))
    backend = MemoryBackend()
    reads = []
    for half in (triples[::2], triples[1::2]):  # the second half reuses the first half's keys
        backend.add_many(iter(half))
        reads.append(layout_digests(backend))
    return reads


CASES = ("tiny", "small", "write_read_write_read")


@pytest.mark.parametrize("name", CASES)
def test_layout_matches_golden(name):
    assert case(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: case(name) for name in CASES}, indent=1, sort_keys=True) + "\n")
