"""Unit tests for residual bins and Algorithm 1 task assignment."""

import pytest

from repro.text import LiteralBins, assign_tasks


class TestAssignTasks:
    def test_single_process_gets_everything(self):
        tasks = assign_tasks([5, 3, 2], processes=1)
        assert all(t.process_id == 0 for t in tasks)
        assert sum(t.size for t in tasks) == 10

    def test_every_literal_assigned_exactly_once(self):
        bin_sizes = [7, 1, 12, 0, 5, 3]
        tasks = assign_tasks(bin_sizes, processes=4)
        covered = {}
        for task in tasks:
            for index in range(task.start, task.end):
                key = (task.bin_index, index)
                assert key not in covered, "literal assigned twice"
                covered[key] = task.process_id
        assert len(covered) == sum(bin_sizes)

    def test_load_balanced_within_ceiling(self):
        bin_sizes = [10, 10, 10, 10]
        tasks = assign_tasks(bin_sizes, processes=4)
        loads = {}
        for task in tasks:
            loads[task.process_id] = loads.get(task.process_id, 0) + task.size
        capacity = -(-sum(bin_sizes) // 4)
        assert all(load <= capacity for load in loads.values())

    def test_bin_split_across_processes(self):
        """One big bin must be divided among processes (the paper's 'process
        assigned remaining capacity' branch)."""
        tasks = assign_tasks([100], processes=4)
        assert len({t.process_id for t in tasks}) == 4
        assert sum(t.size for t in tasks) == 100

    def test_process_spans_multiple_bins(self):
        tasks = assign_tasks([2, 2, 2, 2], processes=2)
        by_process = {}
        for task in tasks:
            by_process.setdefault(task.process_id, set()).add(task.bin_index)
        assert any(len(bins) > 1 for bins in by_process.values())

    def test_empty_bins(self):
        assert assign_tasks([0, 0], processes=3) == []
        assert assign_tasks([], processes=2) == []

    def test_more_processes_than_literals(self):
        tasks = assign_tasks([2], processes=8)
        assert sum(t.size for t in tasks) == 2

    def test_zero_processes_rejected(self):
        with pytest.raises(ValueError):
            assign_tasks([1], processes=0)

    def test_ranges_contiguous_in_bin_order(self):
        tasks = assign_tasks([6, 6], processes=3)
        per_bin = {}
        for task in tasks:
            per_bin.setdefault(task.bin_index, []).append((task.start, task.end))
        for ranges in per_bin.values():
            ranges.sort()
            position = 0
            for start, end in ranges:
                assert start == position
                position = end


class TestLiteralBins:
    @pytest.fixture
    def bins(self):
        return LiteralBins(["a", "bb", "cc", "ddd", "eee", "ffff", "kennedy", "kennedys"])

    def test_bin_keyed_by_length(self, bins):
        assert [b.literals for b in bins.window(2, 2)] == [["bb", "cc"]]
        assert [b.literals for b in bins.window(7, 7)] == [["kennedy"]]

    def test_len_and_bin_count(self, bins):
        assert len(bins) == 8
        assert bins.bin_count == 6

    def test_bin_sizes(self, bins):
        sizes = bins.bin_sizes()
        assert sizes[3] == 2
        assert sizes[8] == 1

    def test_window_ascending(self, bins):
        assert [b.literals for b in bins.window(2, 3)] == [["bb", "cc"], ["ddd", "eee"]]

    def test_scan_contains(self, bins):
        hits = bins.scan_keyed(1, 10, lambda s: "enne" in s)
        assert hits == [(6, "kennedy"), (7, "kennedys")]

    def test_scan_respects_window(self, bins):
        hits = bins.scan_keyed(8, 8, lambda s: "enne" in s)
        assert hits == [(7, "kennedys")]

    def test_scan_empty_window(self, bins):
        assert bins.scan_keyed(20, 30, lambda s: True) == []

    def test_selectivity_fraction_eliminated(self, bins):
        # Window [7, 8] keeps 2 of 8 literals: 75% eliminated.
        assert bins.selectivity(7, 8) == pytest.approx(0.75)

    def test_selectivity_empty_bins(self):
        assert LiteralBins().selectivity(0, 10) == 0.0

    def test_scan_scored_threshold_and_order(self, bins):
        from repro.text import ThresholdScorer

        results, scanned = bins.scan_scored(ThresholdScorer("kennedys", 0.7), 0.7, 5, 10)
        assert scanned == 2  # the window's literals, whatever the bound drops
        assert [r[1] for r in results][0] == "kennedys"
        assert all(score >= 0.7 for _, _, score in results)
        scores = [score for _, _, score in results]
        assert scores == sorted(scores, reverse=True)

    def test_scan_scored_matches_plain_jaro_winkler(self, bins):
        """Whole range, keys and all: ``(key, literal, score)`` by
        ``(-score, length, literal)``, keys the insertion index."""
        from repro.text import ThresholdScorer, jaro_winkler

        results, scanned = bins.scan_scored(ThresholdScorer("kennedy", 0.5), 0.5)
        literals = ["a", "bb", "cc", "ddd", "eee", "ffff", "kennedy", "kennedys"]
        expected = [
            (key, literal, jaro_winkler("kennedy", literal))
            for key, literal in enumerate(literals)
            if jaro_winkler("kennedy", literal) >= 0.5
        ]
        expected.sort(key=lambda hit: (-hit[2], len(hit[1]), hit[1]))
        assert results == expected and [hit[0] for hit in results] == [6, 7, 4]
        assert scanned == len(bins)

    def test_scan_scored_returns_the_callers_keys(self):
        from repro.text import ThresholdScorer

        bins = LiteralBins()
        for key, literal in ((40, "kennedy"), (7, "kennedys"), (19, "kennel"), (3, "zzzzzzz")):
            bins.add(literal, key=key)
        results, _ = bins.scan_scored(ThresholdScorer("kennedy", 0.7), 0.7, 6, 8)
        assert [(key, literal) for key, literal, _ in results] == [
            (40, "kennedy"), (7, "kennedys"), (19, "kennel"),
        ]

    def test_scan_scored_filters_on_the_callers_threshold(self, bins):
        """A scorer may hand back more than the caller keeps (the plain
        reference of ``tests/test_qsm_parity.py`` hands back everything)."""
        from repro.text import jaro_winkler

        class Everything:
            def score_bin(self, candidates, signatures, by_first):
                assert len(candidates) == len(signatures) == sum(map(len, by_first.values()))
                return [(at, jaro_winkler("kennedy", c)) for at, c in enumerate(candidates)]

        results, scanned = bins.scan_scored(Everything(), 0.9)
        assert [literal for _, literal, _ in results] == ["kennedy", "kennedys"]
        assert scanned == 8
