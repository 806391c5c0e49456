"""Columnar batch execution: parity, paging cuts, metering, API.

The batch pipeline must be invisible semantically: at every batch size
``batches()`` must produce the row multiset the term-space reference (the ``reference_evaluate`` fixture) produces, for
every operator shape on both storage backends; DISTINCT/LIMIT/OFFSET
must cut mid-batch exactly; and the cost meter must charge the same
total whatever the batch size.
"""

import re
from collections import Counter

import pytest

from repro.rdf import DBO, IRI, RDF_TYPE, Triple
from repro.sparql import QueryPlanner, explain_plan, parse_query
from repro.sparql.evaluator import QueryEvaluator
from repro.sparql.plan import (
    Batch,
    DEFAULT_BATCH_SIZE,
    PlanNode,
    ScanNode,
    UNBOUND,
    _chunked,
    _raw_rows,
)
from repro.store import CostMeter, QueryAborted, SQLiteBackend, TripleStore, create_sharded_backend

from plan_rows import plan_rows

BATCH_SIZES = [1, 2, 3, 7, DEFAULT_BATCH_SIZE]

#: Shapes the tentpole names (star, chain, bound-object large scan) plus
#: every operator with a native columnar producer.
PARITY_QUERIES = [
    # star
    "SELECT ?s ?n ?g WHERE { ?s foaf:surname ?n . ?s foaf:givenName ?g . ?s dbo:birthDate ?d }",
    # chain
    "SELECT ?b ?k WHERE { ?b dbo:author ?a . ?a dbo:birthPlace ?c . ?c dbo:country ?k }",
    # bound-object large scan
    "SELECT ?s WHERE { ?s a dbo:Person }",
    # full wildcard scan
    "SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
    # selective bind join
    'SELECT ?w WHERE { ?t foaf:name "Tom Hanks"@en . ?t dbo:spouse ?w }',
    # union with branch-local variables (UNBOUND padding)
    "SELECT ?x ?n ?c WHERE { { ?x foaf:name ?n } UNION { ?x dbo:country ?c } }",
    # minus
    "SELECT ?s WHERE { ?s a dbo:Person . MINUS { ?s dbo:spouse ?o } }",
    # values joined into a scan
    "SELECT ?s ?n WHERE { VALUES ?g { \"Tom\"@en } ?s foaf:givenName ?g . ?s foaf:surname ?n }",
    # filter evaluated batch-wise
    'SELECT ?s ?n WHERE { ?s foaf:surname ?n . FILTER (STRSTARTS(STR(?n), "K")) }',
]


@pytest.fixture(scope="module", params=["memory", "sqlite"])
def parity_store(request, tiny_dataset):
    if request.param == "memory":
        yield tiny_dataset.store
        return
    store = TripleStore(tiny_dataset.store.triples(), backend=SQLiteBackend(":memory:"))
    yield store
    store.close()


@pytest.fixture(scope="module", params=["memory", "sqlite", "sharded"])
def metered_store(request, tiny_dataset):
    """``(kind, store)`` over the tiny dataset, three shards for ``sharded``."""
    if request.param == "memory":
        yield request.param, tiny_dataset.store
        return
    backend = (
        SQLiteBackend(":memory:") if request.param == "sqlite" else create_sharded_backend(3, "memory")
    )
    store = TripleStore(tiny_dataset.store.triples(), backend=backend)
    yield request.param, store
    store.close()


def _assert_same_rows(batched, reference):
    assert len(batched.rows) == len(reference.rows)
    assert sorted(
        tuple(sorted((k, v.n3()) for k, v in row.items())) for row in batched.rows
    ) == sorted(
        tuple(sorted((k, v.n3()) for k, v in row.items())) for row in reference.rows
    )


def _plan(store, query_text):
    plan = QueryPlanner(store).plan(parse_query(query_text).where)
    assert plan is not None, query_text
    return plan


def _reference_rows(reference_evaluate, store, plan, query_text):
    """The reference's solutions of the query's WHERE group, as ID
    tuples in ``plan.variables`` order (what the plan itself yields)."""
    where = query_text[query_text.index("{") : query_text.rindex("}") + 1]
    solutions = reference_evaluate(store, f"SELECT * WHERE {where}").rows
    return Counter(
        tuple(
            store.term_id(row[name]) if name in row else UNBOUND
            for name in plan.variables
        )
        for row in solutions
    )


class TestBatchRowParity:
    @pytest.mark.parametrize("query", PARITY_QUERIES)
    def test_batches_match_reference(self, parity_store, query, reference_evaluate):
        plan = _plan(parity_store, query)
        baseline = _reference_rows(reference_evaluate, parity_store, plan, query)
        assert baseline
        for batch_size in BATCH_SIZES:
            batched = Counter(plan_rows(plan, parity_store, batch_size=batch_size))
            assert batched == baseline, (query, batch_size)

    @pytest.mark.parametrize("query", PARITY_QUERIES)
    def test_rows_adapter_matches_reference(self, parity_store, query, reference_evaluate):
        """The row-at-a-time operators' adapters — ``_raw_rows`` reading a
        child row by row, ``_chunked`` re-batching the rows — round-trip
        the plan's answer, in full chunks but the last."""
        plan = _plan(parity_store, query)
        baseline = _reference_rows(reference_evaluate, parity_store, plan, query)
        for batch_size in BATCH_SIZES:
            rows = _raw_rows(plan, parity_store, None, batch_size, None)
            assert Counter(rows) == baseline, (query, batch_size)
            chunks = list(
                _chunked(_raw_rows(plan, parity_store, None, batch_size, None), batch_size)
            )
            assert all(len(chunk) == batch_size for chunk in chunks[:-1])
            assert Counter(row for chunk in chunks for row in chunk.iter_raw()) == baseline

    def test_duplicate_variable_scan_keeps_parity(self, reference_evaluate):
        store = TripleStore()
        loop = IRI("http://ex/loop")
        other = IRI("http://ex/other")
        link = IRI("http://ex/link")
        store.add(Triple(loop, link, loop))
        store.add(Triple(loop, link, other))
        store.add(Triple(other, link, other))
        query = "SELECT ?s WHERE { ?s <http://ex/link> ?s }"
        plan = _plan(store, query)
        baseline = _reference_rows(reference_evaluate, store, plan, query)
        assert len(baseline) == 2  # the self-loops: the checks path is exercised
        for batch_size in BATCH_SIZES:
            assert Counter(plan_rows(plan, store, batch_size=batch_size)) == baseline

    @pytest.mark.parametrize("query", PARITY_QUERIES)
    def test_meter_total_is_batch_size_independent(self, parity_store, query):
        plan = _plan(parity_store, query)
        totals = set()
        for batch_size in BATCH_SIZES:
            meter = CostMeter()
            list(plan.batches(parity_store, meter, batch_size))
            totals.add(meter.cost)
        assert len(totals) == 1 and totals.pop() > 0


class TestStorageColumnSeam:
    SHAPES = [
        (True, False, False), (False, True, False), (False, False, True),
        (True, True, False), (True, False, True), (False, True, True),
        (False, False, False),
    ]

    @pytest.mark.parametrize("bound", SHAPES)
    def test_match_columns_matches_match_ids(self, parity_store, bound):
        row0 = next(iter(parity_store.match_ids(None, None, None)))
        probe = tuple(row0[i] if flag else None for i, flag in enumerate(bound))
        positions = tuple(i for i, flag in enumerate(bound) if not flag)
        expected = sorted(
            tuple(row[i] for i in positions)
            for row in parity_store.match_ids(*probe)
        )
        for batch_size in (1, 7, 1024):
            got = []
            for batch in parity_store.match_columns(
                *probe, positions, batch_size=batch_size
            ):
                assert all(len(col) == len(batch[0]) for col in batch)
                assert len(batch[0]) <= batch_size
                got.extend(zip(*batch))
            assert sorted(got) == expected

    def test_match_columns_honours_position_order(self, parity_store):
        forward = [
            tuple(zip(*batch))
            for batch in parity_store.match_columns(None, None, None, (0, 2))
        ]
        reverse = [
            tuple(zip(*batch))
            for batch in parity_store.match_columns(None, None, None, (2, 0))
        ]
        flat_f = sorted(row for chunk in forward for row in chunk)
        flat_r = sorted((b, a) for chunk in reverse for (a, b) in chunk)
        assert flat_f == flat_r

    def test_match_columns_rejects_bound_positions(self, parity_store):
        row0 = next(iter(parity_store.match_ids(None, None, None)))
        with pytest.raises(ValueError):
            list(parity_store.backend.match_columns(row0[0], None, None, (0,)))
        with pytest.raises(ValueError):
            list(parity_store.backend.match_columns(None, None, None, ()))


class TestPagingCuts:
    """DISTINCT / OFFSET / LIMIT must cut mid-batch exactly."""

    CUT_QUERIES = [
        "SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 13",
        "SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 13 OFFSET 5",
        "SELECT DISTINCT ?p WHERE { ?s ?p ?o } LIMIT 5",
        "SELECT DISTINCT ?p WHERE { ?s ?p ?o } LIMIT 4 OFFSET 3",
        "SELECT ?s WHERE { ?s a dbo:Person } OFFSET 7",
    ]

    #: ``SelectResult.cost`` on (memory, SQLite, 3-shard) stores at batch
    #: sizes (1, 3, 1024): what a budgeted endpoint times out on and what
    #: Section 5's simulated seconds add up.  ``LIMIT 0`` pulls no batch;
    #: ``?zz`` is bound by no pattern, so its one distinct key never
    #: fills the page and the plan drains.
    PINNED_COSTS = {
        CUT_QUERIES[0]: [(13, 15, 13)] * 3,
        CUT_QUERIES[1]: [(18, 18, 18)] * 3,
        CUT_QUERIES[2]: [(80, 81, 80), (711, 711, 715), (34, 36, 35)],
        CUT_QUERIES[3]: [(119, 120, 119), (719, 720, 721), (51, 51, 56)],
        CUT_QUERIES[4]: [(117, 117, 117)] * 3,
        "SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 0 OFFSET 3": [(0, 0, 0)] * 3,
        "SELECT DISTINCT ?zz WHERE { ?s a dbo:Person } LIMIT 2": [(117, 117, 117)] * 3,
    }

    @pytest.mark.parametrize("query", CUT_QUERIES)
    @pytest.mark.parametrize("batch_size", [1, 3, 1024])
    def test_cuts_match_reference(self, parity_store, query, batch_size, reference_evaluate):
        parsed = parse_query(query)
        batched = QueryEvaluator(parity_store, batch_size=batch_size).evaluate(parsed)
        reference = reference_evaluate(parity_store, parsed)
        assert len(batched.rows) == len(reference.rows)
        assert sorted(
            tuple(sorted((k, v.n3()) for k, v in row.items())) for row in batched.rows
        ) == sorted(
            tuple(sorted((k, v.n3()) for k, v in row.items())) for row in reference.rows
        )

    @pytest.mark.parametrize("query", PINNED_COSTS)
    def test_meter_charges_are_pinned(self, metered_store, query):
        kind, store = metered_store
        expected = self.PINNED_COSTS[query][["memory", "sqlite", "sharded"].index(kind)]
        charged = tuple(
            QueryEvaluator(store, batch_size=batch_size).evaluate(parse_query(query)).cost
            for batch_size in (1, 3, 1024)
        )
        assert charged == expected

    def test_expression_projection_is_clamped_to_the_page(
        self, metered_store, reference_evaluate
    ):
        """An expression projection under LIMIT pulls page-sized batches
        like a bare one: 3 units on ``tiny``, where whole batches cost up
        to 117."""
        query = parse_query("SELECT ?n (STRLEN(?n) AS ?n) WHERE { ?s foaf:surname ?n } LIMIT 3")
        _, store = metered_store
        for batch_size in (1, 3, 1024):
            result = QueryEvaluator(store, batch_size=batch_size).evaluate(query)
            assert result.cost == 3
            _assert_same_rows(result, reference_evaluate(store, query))

    def test_distinct_expression_stops_at_its_page(self, metered_store, reference_evaluate):
        """DISTINCT over an expression is keyed by the evaluated value,
        which the tail counts as the batches arrive: the pull stops once
        the page holds three distinct lengths, where draining the plan
        costs 117, and the rows are the reference's."""
        query = parse_query(
            "SELECT DISTINCT (STRLEN(?n) AS ?l) WHERE { ?s foaf:surname ?n } LIMIT 3"
        )
        kind, store = metered_store
        pinned = {"memory": (21, 21, 21), "sqlite": (3, 3, 3), "sharded": (10, 12, 12)}[kind]
        for batch_size, cost in zip((1, 3, 1024), pinned):
            result = QueryEvaluator(store, batch_size=batch_size).evaluate(query)
            assert result.cost == cost
            assert len(result.rows) == 3
            _assert_same_rows(result, reference_evaluate(store, query))

    def test_distinct_keys_on_the_cells_it_shows(self, metered_store, reference_evaluate):
        """``?s`` is projected twice and the later item wins, so DISTINCT
        and the pull's page count key on the surname alone, not on the
        (subject, surname) pair."""
        query = parse_query("SELECT DISTINCT ?s (?n AS ?s) WHERE { ?s foaf:surname ?n } LIMIT 4")
        _, store = metered_store
        for batch_size in (1, 3, 1024):
            result = QueryEvaluator(store, batch_size=batch_size).evaluate(query)
            assert len({row["s"] for row in result.rows}) == 4
            _assert_same_rows(result, reference_evaluate(store, query))

    def test_row_at_a_time_root_is_metered_for_its_page(self, metered_store):
        """A per-solution OPTIONAL at the root pulls its base plan at the
        page's batch size, as every operator pulls its children: LIMIT 3
        costs about three base rows' probes, not a 1,024-row base batch
        (357 units), nor the whole answer."""
        text = (
            "SELECT * WHERE { ?s a dbo:Person . ?s foaf:name ?n "
            "OPTIONAL { ?s dbo:spouse ?w OPTIONAL { ?w foaf:name ?n } } }"
        )
        kind, store = metered_store
        drained = QueryEvaluator(store).evaluate(parse_query(text))
        answers = {tuple(sorted(row.items())) for row in drained.rows}
        for batch_size in (1, 3, 1024):
            paged = QueryEvaluator(store, batch_size=batch_size).evaluate(
                parse_query(text + " LIMIT 3")
            )
            assert (paged.cost, drained.cost) == ({"memory": 129}.get(kind, 128), 526)
            assert len(paged.rows) == 3
            assert all(tuple(sorted(row.items())) in answers for row in paged.rows)

    def test_limit_cost_stays_page_sized(self, parity_store):
        parsed = parse_query("SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 10")
        batched = QueryEvaluator(parity_store).evaluate(parsed)
        # The root batch size is clamped to LIMIT+OFFSET, so the scan
        # charges for the page it returns and not for a whole batch.
        assert batched.cost == 10


class TestClampedFilterReads:
    """A filtered scan under a page clamp (a batch size below the
    default) reads ahead in growing store reads and releases its rows
    window by window: the batches, the charges and the window a timeout
    fires at are a one-window-at-a-time scan's."""

    FILTERED = [
        "SELECT ?s ?o WHERE { ?s foaf:name ?o "
        "FILTER (isliteral(?o) && lang(?o) = 'en' && strlen(str(?o)) < 12) }",
        'SELECT ?s ?n WHERE { ?s foaf:surname ?n . FILTER (regex(?n, "^[A-H]")) }',
    ]

    @staticmethod
    def _windows(store, plan, batch_size):
        """The scan one window at a time: each window's rows, and the
        rows the FILTERs keep (those of the unclamped plan)."""
        kept = set(plan_rows(plan, store))
        windows = [list(zip(*columns)) for columns in store.match_columns(
            *plan.probe, plan.out_positions, None, batch_size)]
        return windows, kept

    @pytest.mark.parametrize("query", FILTERED)
    @pytest.mark.parametrize("batch_size", [1, 2, 3, 5])
    def test_batches_and_charges_are_the_windows(self, metered_store, query, batch_size):
        _, store = metered_store
        plan = _plan(store, query)
        assert isinstance(plan, ScanNode) and plan.filters
        windows, kept = self._windows(store, plan, batch_size)
        expected = [[row for row in window if row in kept] for window in windows]
        meter = CostMeter()
        batches = [list(batch.iter_raw()) for batch in plan.batches(store, meter, batch_size)]
        assert batches == [rows for rows in expected if rows]
        assert any(len(rows) < len(window) for rows, window in zip(expected, windows))
        assert meter.cost == sum(map(len, windows))
        # A budget trips at the same window, with the same rows released.
        budget = meter.cost // 2
        meter, released = CostMeter(budget), []
        with pytest.raises(QueryAborted):
            for batch in plan.batches(store, meter, batch_size):
                released.append(list(batch.iter_raw()))
        charged, tripped = 0, 0
        while charged <= budget:
            charged += len(windows[tripped])
            tripped += 1
        assert meter.cost == charged
        assert released == [rows for rows in expected[:tripped - 1] if rows]

    def test_q5_probes_read_the_store_in_growing_reads(self, monkeypatch):
        """Section 5's Q5 probes (``LIMIT 1`` over a FILTERed scan) at
        ``medium``: store reads counted by wrapping the backend's
        ``match_columns``; a one-row window a read made 5,350."""
        from repro import EndpointConfig, SapphireConfig, SparqlEndpoint
        from repro.core.initialization import EndpointInitializer, initialize_endpoint
        from repro.data import DatasetConfig, build_dataset

        store = build_dataset(DatasetConfig.medium()).store
        reads, probing = [0], [False]
        scan = store.backend.match_columns

        def counting_scan(*args, **kwargs):
            for columns in scan(*args, **kwargs):
                reads[0] += probing[0]
                yield columns

        probe = EndpointInitializer._probe_predicates

        def probing_predicates(self, predicates):
            probing[0] = True
            try:
                return probe(self, predicates)
            finally:
                probing[0] = False

        monkeypatch.setattr(store.backend, "match_columns", counting_scan)
        monkeypatch.setattr(EndpointInitializer, "_probe_predicates", probing_predicates)
        report = initialize_endpoint(SparqlEndpoint(store, EndpointConfig()), SapphireConfig())[1]
        assert report.n_setup_queries > 0
        assert 0 < reads[0] <= 535


class TestBatchType:
    def test_iter_raw_keeps_unbound(self):
        from array import array

        batch = Batch((array("q", [1, UNBOUND]), array("q", [2, 3])), 2, True)
        assert list(batch.iter_raw()) == [(1, 2), (UNBOUND, 3)]

    def test_zero_column_batch_keeps_length(self):
        batch = Batch((), 3)
        assert len(batch) == 3
        assert list(batch.iter_raw()) == [(), (), ()]

    def test_explain_annotates_estimates(self, store):
        evaluator = QueryEvaluator(store)
        text = evaluator.explain(
            "SELECT * WHERE { ?s foaf:surname ?n . ?s foaf:givenName ?g }"
        )
        assert all(re.search(r"  \[est=\d+\]$", line) for line in text.splitlines()[1:])

    def test_explain_has_no_producer_marker(self, store):
        plan = _plan(store, "SELECT ?s WHERE { ?s a dbo:Person }")
        pattern = f"?s {RDF_TYPE.n3()} {DBO.Person.n3()}"
        assert explain_plan(plan) == f"Scan({pattern})  [est={plan.est_rows}]"


def _plan_node_classes():
    import repro.federation.remote  # noqa: F401 — registers the remote operators

    found, frontier = [], [PlanNode]
    while frontier:
        for cls in frontier.pop().__subclasses__():
            found.append(cls)
            frontier.append(cls)
    return found


class TestOneProducerPerOperator:
    def test_every_operator_is_covered(self):
        names = {cls.__name__ for cls in _plan_node_classes()}
        assert {"ScanNode", "HashJoinNode", "LeftJoinNode", "RemoteBindJoinNode"} <= names

    @pytest.mark.parametrize("cls", _plan_node_classes(), ids=lambda cls: cls.__name__)
    def test_produces_batches_and_nothing_else(self, cls):
        """One contract: each operator, remote ones included, overrides
        ``_produce_batches``; no row-wise producer or row adapter exists."""
        assert cls._produce_batches is not PlanNode._produce_batches
        assert not hasattr(cls, "_produce") and not hasattr(cls, "rows")


class TestEvaluatorConstruction:
    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_is_rejected(self, store, batch_size):
        with pytest.raises(ValueError):
            QueryEvaluator(store, batch_size=batch_size)

    def test_batch_size_is_the_only_parameter(self, store):
        with pytest.raises(TypeError):
            QueryEvaluator(store, True)
