"""Unit tests for endpoint initialization (Section 5 / Appendix A)."""

import pytest

from repro.core import SapphireConfig, initialize_endpoint
from repro.data import DatasetConfig, build_dataset
from repro.endpoint import EndpointConfig, SparqlEndpoint
from repro.store import compute_stats


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(DatasetConfig.tiny())


def make_endpoint(dataset, **kwargs):
    defaults = dict(timeout_s=1.0, cost_units_per_second=20_000)
    defaults.update(kwargs)
    return SparqlEndpoint(dataset.store, EndpointConfig(**defaults), name="ep")


class TestFederatedInitialization:
    def test_caches_all_predicates(self, dataset):
        endpoint = make_endpoint(dataset)
        cache, report = initialize_endpoint(endpoint, SapphireConfig(suffix_tree_capacity=300))
        assert cache.n_predicates == compute_stats(dataset.store).n_predicates

    def test_caches_classes_from_hierarchy(self, dataset):
        endpoint = make_endpoint(dataset)
        cache, _ = initialize_endpoint(endpoint, SapphireConfig(suffix_tree_capacity=300))
        surfaces = {e.surface for e in cache.classes()}
        assert {"Scientist", "City", "Book"} <= surfaces

    def test_literal_filters_enforced(self, dataset):
        endpoint = make_endpoint(dataset)
        config = SapphireConfig(suffix_tree_capacity=300)
        cache, _ = initialize_endpoint(endpoint, config)
        for surface in cache.literal_surfaces():
            assert len(surface) < config.literal_max_length

    def test_foreign_language_literals_excluded(self, dataset):
        endpoint = make_endpoint(dataset)
        cache, _ = initialize_endpoint(endpoint, SapphireConfig(suffix_tree_capacity=300))
        for bucket_surface in cache.literal_surfaces():
            assert "(de)" not in bucket_surface
            assert "(fr)" not in bucket_surface

    def test_significant_literals_found(self, dataset):
        """Hub city labels (many incoming birthPlace edges) must carry
        positive significance (Definition 1)."""
        endpoint = make_endpoint(dataset)
        cache, _ = initialize_endpoint(endpoint, SapphireConfig(suffix_tree_capacity=300))
        assert cache.significance_of("New York") > 0

    def test_report_counters_consistent(self, dataset):
        endpoint = make_endpoint(dataset)
        _, report = initialize_endpoint(endpoint)
        assert report.total_queries == endpoint.query_count
        assert report.n_timeouts == endpoint.timeout_count
        assert report.architecture == "federated"
        assert report.simulated_seconds > 0

    def test_tight_timeout_forces_descent(self, dataset):
        """With a stingy endpoint, root-class queries time out and the
        initializer descends to subclasses — more queries, some timeouts,
        but the cache still fills."""
        generous = make_endpoint(dataset)
        _, easy_report = initialize_endpoint(generous, SapphireConfig(suffix_tree_capacity=300))

        stingy = make_endpoint(dataset, timeout_s=0.01, cost_units_per_second=20_000)
        cache, hard_report = initialize_endpoint(stingy, SapphireConfig(suffix_tree_capacity=300))
        assert hard_report.n_timeouts > 0
        assert hard_report.total_queries > easy_report.total_queries
        assert cache.n_literals > 0

    def test_query_limit_respected(self, dataset):
        endpoint = make_endpoint(dataset)
        config = SapphireConfig(init_query_limit=20, suffix_tree_capacity=300)
        _, report = initialize_endpoint(endpoint, config)
        assert report.total_queries <= 20
        assert report.query_limit_hit

    def test_query_limit_prioritizes_frequent_predicates(self, dataset):
        """With a tight budget the cache covers the most frequent literal
        predicates first (labels before rare ones)."""
        endpoint = make_endpoint(dataset)
        config = SapphireConfig(init_query_limit=45, suffix_tree_capacity=300)
        cache, _ = initialize_endpoint(endpoint, config)
        sources = {
            e.source_predicate.local_name()
            for bucket in [cache.entries_for_surface(s) for s in cache.literal_surfaces()]
            for e in bucket
            if e.kind == "literal" and e.source_predicate is not None
        }
        assert "label" in sources or "name" in sources


class TestWarehouseInitialization:
    def test_warehouse_single_pass(self, dataset):
        endpoint = SparqlEndpoint(dataset.store, EndpointConfig.warehouse(), name="wh")
        cache, report = initialize_endpoint(endpoint, warehouse=True)
        assert report.architecture == "warehouse"
        assert report.n_timeouts == 0
        assert cache.n_literals > 0
        # Warehouse needs far fewer queries than the federated flow.
        assert report.total_queries < 10

    def test_warehouse_and_federated_agree_on_predicates(self, dataset):
        warehouse_ep = SparqlEndpoint(dataset.store, EndpointConfig.warehouse())
        federated_ep = make_endpoint(dataset)
        wh_cache, _ = initialize_endpoint(warehouse_ep, warehouse=True)
        fed_cache, _ = initialize_endpoint(federated_ep)
        wh = {e.term for e in wh_cache.predicates()}
        fed = {e.term for e in fed_cache.predicates()}
        assert wh == fed

    def test_warehouse_covers_at_least_federated_literals(self, dataset):
        warehouse_ep = SparqlEndpoint(dataset.store, EndpointConfig.warehouse())
        federated_ep = make_endpoint(dataset)
        wh_cache, _ = initialize_endpoint(warehouse_ep, warehouse=True)
        fed_cache, _ = initialize_endpoint(federated_ep)
        assert set(fed_cache.literal_surfaces()) <= set(wh_cache.literal_surfaces())

    def test_warehouse_significance(self, dataset):
        endpoint = SparqlEndpoint(dataset.store, EndpointConfig.warehouse())
        cache, _ = initialize_endpoint(endpoint, warehouse=True)
        assert cache.significance_of("New York") > 0


class TestIndexesBuilt:
    def test_cache_comes_back_indexed(self, dataset):
        endpoint = make_endpoint(dataset)
        cache, _ = initialize_endpoint(endpoint)
        assert cache.is_indexed
        assert cache.tree is not None

    def test_report_cache_stats_populated(self, dataset):
        endpoint = make_endpoint(dataset)
        _, report = initialize_endpoint(endpoint)
        assert report.cache_stats["predicates"] > 0
        assert report.cache_stats["tree_strings"] > 0


# What the registration measured at the commit before expressions were
# compiled and the index was built once (4dbdf3e), recorded as literals:
# (tree capacity, endpoint timeout, report counters, simulated seconds,
# cache statistics, the first three cold-cache completions of the
# Figure 2 keystrokes).  Neither change may move any of it.
_PARENT_REGISTRATIONS = {
    "tiny": (500, 1.0, (77, 17, 30, 30, 0), 4.477149999999998,
             {"predicates": 37, "classes": 33, "literals": 381, "tree_strings": 447,
              "residual_literals": 0, "residual_bins": 0},
             {"Ken": ["The Broken Lost", "The Broken Night", "Robert F. Kennedy"],
              "Kenn": ["Robert F. Kennedy", "Jennifer Kennedy", "Richard Kennedy"]}),
    "small": (1000, 2.0, (79, 17, 30, 32, 0), 6.669950000000001,
              {"predicates": 37, "classes": 33, "literals": 948, "tree_strings": 1000,
               "residual_literals": 14, "residual_bins": 6},
              {"Ken": ["The Mountain Broken", "The Journey Broken", "The Summer Broken"],
               "Kenn": ["Robert F. Kennedy", "Patricia Kennedy", "Jennifer Kennedy"]}),
    "medium": (2000, 2.0, (91, 17, 35, 39, 0), 21.52465,
               {"predicates": 37, "classes": 33, "literals": 2331, "tree_strings": 2000,
                "residual_literals": 397, "residual_bins": 11},
               {"Ken": ["The House Broken", "The First Broken", "The Song Broken"],
                "Kenn": ["Patricia Kennedy", "Jennifer Kennedy", "William Kennedy"]}),
}


class TestRegistrationFidelity:
    @pytest.mark.parametrize("scale", sorted(_PARENT_REGISTRATIONS))
    def test_counters_cost_cache_and_completions_are_the_parents(self, scale):
        from repro import SapphireServer

        capacity, timeout_s, counters, simulated, stats, completions = (
            _PARENT_REGISTRATIONS[scale])
        store = build_dataset(getattr(DatasetConfig, scale)()).store
        server = SapphireServer(SapphireConfig(suffix_tree_capacity=capacity))
        report = server.register_endpoint(
            SparqlEndpoint(store, EndpointConfig(timeout_s=timeout_s), name=scale))
        assert (report.total_queries, report.n_setup_queries, report.n_literal_queries,
                report.n_significance_queries, report.n_timeouts) == counters
        assert report.simulated_seconds == pytest.approx(simulated, abs=1e-9)
        assert report.stages_completed == [
            "predicates", "hierarchy", "probes", "literals", "significance"]
        assert server.cache_stats() == stats == report.cache_stats
        for prefix, first in completions.items():
            assert server.complete(prefix).surfaces()[:3] == first
        for prefix, only in (("Tom H", "Tom Hanks"), ("spou", "spouse"), ("surn", "surname")):
            assert server.complete(prefix).surfaces() == [only]

    def test_stage_seconds_cover_the_completed_stages_and_the_index(self, dataset):
        cache, report = initialize_endpoint(make_endpoint(dataset))
        assert list(report.stage_seconds) == report.stages_completed + ["index"]
        assert all(seconds >= 0.0 for seconds in report.stage_seconds.values())
        assert cache.is_indexed and report.cache_stats == cache.stats()

    def test_a_stage_that_never_succeeded_has_no_seconds(self, dataset):
        _, report = initialize_endpoint(
            make_endpoint(dataset), SapphireConfig(init_query_limit=1))
        assert report.stages_completed == ["predicates"]
        assert list(report.stage_seconds) == ["predicates", "index"]
