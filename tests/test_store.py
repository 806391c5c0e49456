"""Unit tests for the dictionary-encoded triple store.

The whole module runs twice — once per storage backend (in-memory and
SQLite) — since the two must be behaviourally identical behind the
``StorageBackend`` seam.
"""

import gc
import json
import sys
import threading
import tracemalloc
from collections import Counter
from dataclasses import astuple
from itertools import chain, groupby, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import DatasetConfig, build_dataset
from repro.rdf import IRI, Literal, Triple, TriplePattern, Variable
from repro.sparql import evaluate
from repro.store import (
    CostMeter,
    MemoryBackend,
    QueryAborted,
    ShardedBackend,
    SQLiteBackend,
    StorageBackend,
    TripleStore,
    compute_stats,
    create_sharded_backend,
)
from repro.store import backends
from repro.store.backends import COLUMN_BATCH_SIZE

A, B, C = IRI("http://x/a"), IRI("http://x/b"), IRI("http://x/c")
P, Q = IRI("http://x/p"), IRI("http://x/q")
V = Variable

BACKENDS = ["memory", "sqlite"]


def _make_backend(name):
    if name == "sharded":
        return create_sharded_backend(2, "memory")
    return MemoryBackend() if name == "memory" else SQLiteBackend(":memory:")


@pytest.fixture(params=BACKENDS)
def make_store(request):
    def factory(triples=None):
        return TripleStore(triples, backend=_make_backend(request.param))

    return factory


@pytest.fixture
def small_store(make_store):
    store = make_store()
    store.add(Triple(A, P, B))
    store.add(Triple(A, P, C))
    store.add(Triple(A, Q, Literal("label a", lang="en")))
    store.add(Triple(B, P, C))
    store.add(Triple(B, Q, Literal("label b", lang="en")))
    return store


class TestMutation:
    def test_add_and_len(self, small_store):
        assert len(small_store) == 5

    def test_add_duplicate_noop(self, small_store):
        assert small_store.add(Triple(A, P, B)) is False
        assert len(small_store) == 5

    def test_contains(self, small_store):
        assert Triple(A, P, B) in small_store
        assert Triple(C, P, A) not in small_store

    def test_add_all_counts_new_only(self, make_store):
        store = make_store()
        n = store.add_all([Triple(A, P, B), Triple(A, P, B), Triple(A, P, C)])
        assert n == 2

    def test_constructor_accepts_triples(self, make_store):
        store = make_store([Triple(A, P, B)])
        assert len(store) == 1


class TestMatching:
    @pytest.mark.parametrize(
        "pattern,expected",
        [
            (TriplePattern(A, P, B), 1),
            (TriplePattern(A, P, V("o")), 2),
            (TriplePattern(V("s"), P, C), 2),
            (TriplePattern(A, V("p"), C), 1),
            (TriplePattern(A, V("p"), V("o")), 3),
            (TriplePattern(V("s"), P, V("o")), 3),
            (TriplePattern(V("s"), V("p"), C), 2),
            (TriplePattern(V("s"), V("p"), V("o")), 5),
        ],
    )
    def test_all_eight_shapes(self, small_store, pattern, expected):
        assert small_store.count(pattern) == expected
        assert sum(1 for _ in small_store.match(pattern)) == expected

    def test_match_absent_constant(self, small_store):
        assert small_store.count(TriplePattern(C, V("p"), V("o"))) == 0

    def test_match_unknown_term(self, small_store):
        """A term the dictionary never interned matches nothing."""
        ghost = IRI("http://x/ghost")
        assert small_store.count(TriplePattern(ghost, V("p"), V("o"))) == 0
        assert not list(small_store.match(TriplePattern(ghost, P, V("o"))))

    def test_repeated_variable_filtered(self, make_store):
        store = make_store()
        store.add(Triple(A, P, A))
        store.add(Triple(A, P, B))
        pattern = TriplePattern(V("x"), P, V("x"))
        assert [t.object for t in store.match(pattern)] == [A]

    def test_repeated_variable_count(self, make_store):
        store = make_store()
        store.add(Triple(A, P, A))
        store.add(Triple(A, P, B))
        assert store.count(TriplePattern(V("x"), P, V("x"))) == 1

    def test_match_yields_ground_triples(self, small_store):
        for triple in small_store.match(TriplePattern(V("s"), V("p"), V("o"))):
            assert triple in small_store

    def test_triples_iterates_everything(self, small_store):
        assert len(list(small_store.triples())) == 5


class TestCostMetering:
    def test_meter_accumulates(self, small_store):
        meter = CostMeter()
        list(small_store.match(TriplePattern(V("s"), V("p"), V("o")), meter))
        assert meter.cost == 5

    def test_budget_aborts(self, small_store):
        meter = CostMeter(budget=2)
        with pytest.raises(QueryAborted):
            list(small_store.match(TriplePattern(V("s"), V("p"), V("o")), meter))

    def test_reset(self):
        meter = CostMeter(budget=10)
        meter.charge(5)
        meter.reset()
        assert meter.cost == 0

    def test_unlimited_budget(self, small_store):
        meter = CostMeter(budget=None)
        list(small_store.match(TriplePattern(V("s"), V("p"), V("o")), meter))
        assert meter.cost == 5

    def test_concrete_probe_charges_once_even_on_miss(self, small_store):
        meter = CostMeter()
        list(small_store.match(TriplePattern(A, P, IRI("http://x/nope")), meter))
        assert meter.cost == 1


class TestEstimationIsFree:
    """Regression: counting and estimation must never charge a meter.

    Join planning runs many estimates per query and the endpoint's
    admission control estimates before executing; if either billed the
    meter, planning could trip the very timeout it tries to avoid.
    """

    def test_count_ignores_meter(self, small_store):
        meter = CostMeter(budget=0)  # any charge would raise immediately
        assert small_store.count(TriplePattern(V("s"), V("p"), V("o")), meter) == 5
        assert meter.cost == 0

    def test_count_with_repeated_variables_ignores_meter(self, make_store):
        store = make_store()
        store.add(Triple(A, P, A))
        store.add(Triple(A, P, B))
        meter = CostMeter(budget=0)
        assert store.count(TriplePattern(V("x"), P, V("x")), meter) == 1
        assert meter.cost == 0

    def test_cardinality_estimate_ignores_meter(self, small_store):
        meter = CostMeter(budget=0)
        for pattern in (
            TriplePattern(V("s"), V("p"), V("o")),
            TriplePattern(A, P, V("o")),
            TriplePattern(A, P, B),
        ):
            small_store.cardinality_estimate(pattern, meter)
        assert meter.cost == 0

    def test_evaluation_charges_only_enumeration(self, small_store):
        """Planning (ordering + estimates) must add nothing on top of the
        per-candidate charges of the actual index scans."""
        meter = CostMeter()
        evaluate(small_store, "SELECT ?s ?o WHERE { ?s <http://x/p> ?o }", meter)
        assert meter.cost == 3  # exactly the three ?s p ?o candidates


class TestEstimates:
    def test_estimate_full_scan(self, small_store):
        assert small_store.cardinality_estimate(TriplePattern(V("s"), V("p"), V("o"))) == 5

    def test_estimate_sp(self, small_store):
        assert small_store.cardinality_estimate(TriplePattern(A, P, V("o"))) == 2

    def test_estimate_po(self, small_store):
        assert small_store.cardinality_estimate(TriplePattern(V("s"), P, C)) == 2

    def test_estimate_exact_triple(self, small_store):
        assert small_store.cardinality_estimate(TriplePattern(A, P, B)) == 1

    def test_estimate_unknown_term_is_zero(self, small_store):
        ghost = IRI("http://x/ghost")
        assert small_store.cardinality_estimate(TriplePattern(ghost, P, V("o"))) == 0

    def test_estimate_tracks_mutations(self, make_store):
        """Cached fan-outs (SQLite) must invalidate on add."""
        store = make_store()
        pattern = TriplePattern(V("s"), P, V("o"))
        assert store.cardinality_estimate(pattern) == 0
        store.add(Triple(A, P, B))
        store.add(Triple(A, P, C))
        assert store.cardinality_estimate(pattern) == 2

    @pytest.mark.parametrize("make_store", BACKENDS + ["sharded"], indirect=True)
    def test_one_position_estimates_are_exact_through_mutations(self, make_store):
        """With only the subject, the predicate or the object bound the
        estimate is that position's triple count — on the memory backend
        the length of one block's row range — through ``add``, ``add_all``
        and a duplicate.  The predicate
        statistics behind the estimates are free between mutations (the
        same object on every read) and fresh after each one — on the
        sharded backend too, whose merge of its shards' is cached."""
        store = make_store()
        shapes = [
            TriplePattern(A, V("p"), V("o")),
            TriplePattern(V("s"), P, V("o")),
            TriplePattern(V("s"), V("p"), C),
        ]

        def fresh_stats():
            backend = store.backend
            if isinstance(backend, ShardedBackend):  # a new façade merges anew
                return ShardedBackend(backend.shards).predicate_stats()
            triples = list(backend.match_ids(None, None, None))
            return {
                p: (
                    sum(1 for t in triples if t[1] == p),
                    len({t[0] for t in triples if t[1] == p}),
                    len({t[2] for t in triples if t[1] == p}),
                )
                for p in {t[1] for t in triples}
            }

        def check():
            for pattern in shapes:
                assert store.cardinality_estimate(pattern) == store.count(pattern)
            stats = store.predicate_stats_ids()
            assert stats is store.predicate_stats_ids()
            assert stats == fresh_stats()

        store.add_all([Triple(A, P, B), Triple(A, P, C), Triple(B, P, C), Triple(A, Q, C)])
        check()
        assert not store.add(Triple(A, P, C))  # a duplicate counts once
        check()
        assert store.add(Triple(C, Q, B))
        check()

    def test_estimate_upper_bounds_truth(self, small_store):
        for pattern in (
            TriplePattern(A, V("p"), V("o")),
            TriplePattern(V("s"), Q, V("o")),
            TriplePattern(V("s"), V("p"), C),
        ):
            assert small_store.cardinality_estimate(pattern) >= small_store.count(pattern)


class TestAccessors:
    def test_predicates(self, small_store):
        assert set(compute_stats(small_store).predicate_frequencies) == {P, Q}

    def test_predicate_frequencies(self, small_store):
        freqs = compute_stats(small_store).predicate_frequencies
        assert freqs[P] == 3
        assert freqs[Q] == 2

    def test_literals(self, small_store):
        # "label a"@en and "label b"@en: two distinct literals of length 7.
        stats = compute_stats(small_store)
        assert stats.n_literals == 2
        assert stats.literal_length_histogram == {7: 2}
        assert stats.literal_language_counts == {"en": 2}

    def test_entity_in_degrees(self, small_store):
        # C has in-degree 2, B 1, and the subject-only A is an entity of
        # degree 0: three entities, the largest 2, summing to 3.
        stats = compute_stats(small_store)
        assert stats.n_entities == 3
        assert stats.max_in_degree == 2
        assert stats.mean_in_degree == 1.0


class TestStatsGolden:
    """``compute_stats`` on ``tiny`` against ``dataset_stats_tiny.json``,
    captured from the implementation that asked the backends for their
    subject, predicate and object IDs and fan-outs one question at a
    time.  Dicts are written as sorted pairs.  A 2-shard store's distinct
    objects per predicate are its merged upper bound, so that one field
    has its own golden list."""

    GOLDEN = json.loads((Path(__file__).parent / "dataset_stats_tiny.json").read_text())

    @staticmethod
    def _written(stats):
        def pairs(mapping, key=lambda k: k):
            return sorted([key(k), v] for k, v in mapping.items())

        return {
            "n_triples": stats.n_triples,
            "n_subjects": stats.n_subjects,
            "n_predicates": stats.n_predicates,
            "n_literals": stats.n_literals,
            "n_entities": stats.n_entities,
            "literal_length_histogram": pairs(stats.literal_length_histogram),
            "literal_language_counts": pairs(stats.literal_language_counts),
            "predicate_frequencies": pairs(stats.predicate_frequencies, lambda p: p.value),
            "predicate_stats": pairs(
                {p: list(astuple(stat)) for p, stat in stats.predicate_stats.items()},
                lambda p: p.value,
            ),
            "max_in_degree": stats.max_in_degree,
            "mean_in_degree": stats.mean_in_degree,
        }

    @pytest.fixture(scope="class")
    def dataset(self):
        return build_dataset(DatasetConfig.tiny())

    @pytest.mark.parametrize("name", ["memory", "sqlite", "sharded"])
    def test_matches_the_golden(self, dataset, name):
        store = dataset.store
        if name != "memory":
            store = TripleStore(dataset.store.triples(), backend=_make_backend(name))
        expected = dict(self.GOLDEN)
        sharded_stats = expected.pop("predicate_stats_2_shards")
        if name == "sharded":
            expected["predicate_stats"] = sharded_stats
        assert self._written(compute_stats(store)) == expected
        store.close()

    def test_sqlite_memoizes_no_scan_longer_than_one_batch(self, dataset):
        """``compute_stats`` reads both columns of every triple in one
        scan: the scan is served, not kept, while a predicate's scan that
        fits in one batch still is."""
        backend = SQLiteBackend(":memory:")
        store = TripleStore(dataset.store.triples(), backend=backend)
        compute_stats(store)
        name = store.dictionary.lookup(IRI("http://xmlns.com/foaf/0.1/name"))
        rows = sum(len(s) for s, _ in backend.match_columns(None, name, None, (0, 2)))
        assert 0 < rows <= COLUMN_BATCH_SIZE < len(store)
        assert (None, name, None, (0, 2)) in backend._col_cache
        assert all(len(cols[0]) <= COLUMN_BATCH_SIZE for cols in backend._col_cache.values())
        store.close()


class TestEncodingSeam:
    def test_ids_are_dense_and_stable(self, small_store):
        dictionary = small_store.dictionary
        ids = {dictionary.lookup(term) for term in (A, B, C, P, Q)}
        assert all(i >= 0 for i in ids)
        assert len(ids) == 5
        assert dictionary.decode(dictionary.lookup(A)) == A

    def test_match_ids_round_trip(self, small_store):
        s, p, o = small_store.encode_pattern(TriplePattern(A, P, V("o")))
        rows = list(small_store.match_ids(s, p, None))
        objects = {small_store.decode_id(row[2]) for row in rows}
        assert objects == {B, C}


class TestProtocol:
    #: What a backend answers, one method per question.
    METHODS = {
        "add", "add_many", "size", "match_ids", "match_columns", "count_ids", "has_match",
        "predicate_stats", "subject_predicate_sets", "set_meta", "meta_items", "close",
    }

    def test_the_seam_is_twelve_methods(self):
        declared = {name for name in vars(StorageBackend) if not name.startswith("_")}
        assert declared == self.METHODS

    @pytest.mark.parametrize("backend_class", [MemoryBackend, SQLiteBackend, ShardedBackend])
    def test_every_backend_defines_every_method(self, backend_class):
        assert self.METHODS <= set(vars(backend_class))


class TestMemoryLayout:
    """``MemoryBackend``'s clustered permutations and pending log against
    a brute-force filter of the inserted triples."""

    #: An ID no drawn triple carries.
    ABSENT = 9

    @staticmethod
    def _shapes(triple):
        """The eight pattern shapes over one triple's IDs."""
        return {
            tuple(value if bound else None for value, bound in zip(triple, mask))
            for mask in product((True, False), repeat=3)
        }

    def _check_shapes(self, backend, inserted, probes):
        for pattern in set().union(*map(self._shapes, probes)):
            expected = Counter(
                t for t in inserted if all(v is None or v == t[i] for i, v in enumerate(pattern))
            )
            n = sum(expected.values())
            assert Counter(backend.match_ids(*pattern)) == expected
            assert backend.count_ids(*pattern) == n
            assert backend.has_match(*pattern) is (n > 0)
            free = [i for i, v in enumerate(pattern) if v is None]
            if not free:
                assert backend.has_match(*pattern) is (n == 1)
                continue
            positions = free[::-1]  # any order of the free positions
            for batch_size in (1, 3, 1024):
                batches = list(backend.match_columns(*pattern, positions, batch_size))
                assert all(0 < len(batch[0]) <= batch_size for batch in batches)
                rows = Counter(chain.from_iterable(zip(*batch) for batch in batches))
                assert rows == Counter(tuple(t[i] for i in positions) for t in expected)

    @staticmethod
    def _check_key_order(backend, inserted):
        """Keys at both levels come out contiguous and in first-insertion
        order: ``groupby`` runs equal the first-seen list only then."""

        def first_seen(values):
            return list(dict.fromkeys(values))

        def runs(values):
            return [key for key, _ in groupby(values)]

        assert runs(t[0] for t in backend.match_ids(None, None, None)) == first_seen(t[0] for t in inserted)
        assert list(backend.predicate_stats()) == first_seen(t[1] for t in inserted)
        for bound in range(3):  # the single-bound scans: SPO, POS, OSP
            second = (bound + 1) % 3
            for key in {t[bound] for t in inserted}:
                pattern = [None, None, None]
                pattern[bound] = key
                want = first_seen(t[second] for t in inserted if t[bound] == key)
                assert runs(t[second] for t in backend.match_ids(*pattern)) == want
                batches = backend.match_columns(*pattern, [second], 3)
                assert runs(chain.from_iterable(batch[0] for batch in batches)) == want

    @settings(max_examples=150, deadline=None)
    @given(st.lists(
        st.tuples(st.tuples(*[st.integers(0, 4)] * 3), st.booleans()), max_size=60,
    ))
    def test_every_shape_matches_brute_force(self, steps):
        """Writes and reads interleaved: a read folds the pending log, a
        later write starts a new one, and every shape still answers the
        inserted multiset — duplicates counted once."""
        backend = MemoryBackend()
        inserted = []
        for triple, read_after in steps:
            assert backend.add(*triple) is (triple not in inserted)
            if triple not in inserted:
                inserted.append(triple)
            if read_after:
                self._check_shapes(backend, inserted, [triple])
                self._check_key_order(backend, inserted)
        assert backend.size() == len(inserted)
        self._check_shapes(backend, inserted, inserted + [(self.ABSENT,) * 3])
        self._check_key_order(backend, inserted)

    @pytest.mark.parametrize("name", ["sqlite", "sharded"])
    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.tuples(st.tuples(*[st.integers(0, 4)] * 3), st.booleans()), max_size=40,
    ))
    def test_other_backends_match_brute_force(self, name, steps):
        """The same brute-force check on an SQLite ``:memory:`` backend
        and a 2-shard one: ``has_match`` and the batched and cached
        ``match_columns`` included, with writes between reads."""
        backend = _make_backend(name)
        try:
            inserted = []
            for triple, read_after in steps:
                assert backend.add(*triple) is (triple not in inserted)
                if triple not in inserted:
                    inserted.append(triple)
                if read_after:
                    self._check_shapes(backend, inserted, [triple])
            assert backend.size() == len(inserted)
            self._check_shapes(backend, inserted, inserted + [(self.ABSENT,) * 3])
        finally:
            backend.close()

    def test_group_by_tie_returns_the_group_inserted_first(self):
        """Under ``ORDER BY DESC(COUNT)`` a tie goes to the group whose key
        the scan met first — here the key with the larger ID, so a layout
        sorted by ID would answer the other one."""
        store = TripleStore(backend=MemoryBackend())
        older, newer = IRI("http://x/older"), IRI("http://x/newer")
        store.add(Triple(older, Q, C))  # interns ``older`` first
        for index, city in enumerate((newer, older, newer, older)):
            store.add(Triple(IRI(f"http://x/s{index}"), P, city))
        assert store.term_id(older) < store.term_id(newer)
        result = evaluate(
            store,
            "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s <http://x/p> ?c } "
            "GROUP BY ?c ORDER BY DESC(?n) LIMIT 1",
        )
        assert [(row["c"], row["n"].lexical) for row in result.rows] == [(newer, "2")]

    def test_racing_first_reads_all_see_the_fold(self, monkeypatch):
        """The fold drops the log's tuples before it builds a permutation.
        Held right there, with the log already empty, it makes every
        other reader wait on the fold lock until the layout is published;
        all of them then see every triple."""
        backend = MemoryBackend()
        backend.add_many((s, p, o) for s in range(60) for p in range(4) for o in range(5))
        held, release = threading.Event(), threading.Event()

        class HeldPermutation(backends._Permutation):
            def __init__(self, *args):
                if not held.is_set():  # the fold's first permutation
                    held.set()
                    release.wait(timeout=30)
                super().__init__(*args)

        monkeypatch.setattr(backends, "_Permutation", HeldPermutation)
        seen = []

        def read():
            seen.append(sum(1 for _ in backend.match_ids(None, 2, None)))

        folding = threading.Thread(target=read)
        waiting = [threading.Thread(target=read) for _ in range(4)]
        folding.start()
        try:
            assert held.wait(timeout=30)
            assert backend._pending == {}  # the log is released
            for reader in waiting:
                reader.start()
            waiting[-1].join(timeout=0.2)
            assert all(reader.is_alive() for reader in waiting) and seen == []  # blocked on the lock
        finally:
            release.set()
            for reader in [folding, *waiting]:
                if reader.ident is not None:  # started
                    reader.join(timeout=30)
        assert not any(reader.is_alive() for reader in [folding, *waiting])
        assert seen == [300] * 5

    def test_bytes_per_triple_at_small(self):
        """What the backend retains per triple at ``small``, the term
        dictionary excluded: ~670 B as nested dicts of sets, ~140 B as
        clustered columns."""
        dataset = build_dataset(DatasetConfig.small())
        triples = list(dataset.store.backend.match_ids(None, None, None))
        gc.collect()
        tracemalloc.start()
        try:
            backend = MemoryBackend(dataset.store.dictionary)
            backend.add_many(iter(triples))
            backend.predicate_stats()  # the first read folds; the planner's cache
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert backend.size() == len(triples)
        assert retained / len(triples) <= 250

    def test_first_read_at_small_peaks_under_twice_what_it_keeps(self):
        """The fold's transient: the traced peak of the first read at
        ``small`` over what the three permutations keep.  A fold through a
        dict of dicts of lists and a directory of 4-tuples peaked at 3.6×;
        one that builds each array once, at its final size, with one
        block's groups at a time as its largest temporary, at ~1.5×."""
        backend = build_dataset(DatasetConfig.small()).store.backend
        gc.collect()
        tracemalloc.start()
        try:
            layout = backend._read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        fields = ("keys", "starts", "blocks", "dir_b", "dir_lo", "dir_hi", "col_b", "col_c")
        kept = sum(sys.getsizeof(getattr(perm, field)) for perm in layout for field in fields)
        assert peak <= 2.0 * kept
