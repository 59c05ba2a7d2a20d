"""Unit tests for the obs metrics registry primitives."""

from __future__ import annotations

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    split_prefixed,
)


class TestPrimitives:
    def test_counter_inc(self):
        counter = Counter("solver.queries")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_gauge_set(self):
        gauge = Gauge("cache.entries")
        gauge.set(17)
        assert gauge.value == 17

    def test_histogram_observe_and_snapshot(self):
        hist = Histogram("span.solver.check")
        for value in (0.5, 2.0, 1.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(3.5)
        assert snap["min"] == pytest.approx(0.5)
        assert snap["max"] == pytest.approx(2.0)

    def test_histogram_slowest_capture_is_capped_and_sorted(self):
        hist = Histogram("span.solver.check", keep_slowest=3)
        for i in range(10):
            hist.observe(float(i), label=f"query-{i}")
        slowest = hist.snapshot()["slowest"]
        assert len(slowest) == 3
        assert [label for _v, label in slowest] == ["query-9", "query-8", "query-7"]


class TestRegistry:
    def test_create_or_return_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_name_collision_across_types_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_is_flat_and_detached(self):
        registry = MetricsRegistry()
        registry.counter("solver.queries").inc(3)
        registry.gauge("cache.entries").set(2)
        registry.histogram("span.check").observe(0.25)
        snap = registry.snapshot()
        assert snap["solver.queries"] == 3
        assert snap["cache.entries"] == 2
        assert snap["span.check"]["count"] == 1
        registry.counter("solver.queries").inc()
        assert snap["solver.queries"] == 3  # snapshot is a copy


class TestAttach:
    def test_snapshot_reads_attached_attributes_when_taken(self):
        class Stats:
            def __init__(self):
                self.queries = 0
                self.sat = 0

        registry = MetricsRegistry()
        stats = Stats()
        registry.attach("solver", stats, ("queries", "sat"))
        stats.queries += 3
        before = registry.snapshot()
        stats.queries += 1
        stats.sat = 2
        after = registry.snapshot()
        assert before == {"solver.queries": 3, "solver.sat": 0}  # detached copy
        assert after == {"solver.queries": 4, "solver.sat": 2}

    def test_duplicate_prefix_raises(self):
        registry = MetricsRegistry()
        registry.attach("engine", object(), ())
        with pytest.raises(TypeError):
            registry.attach("engine", object(), ())

    def test_session_metrics_report_every_attached_field(self):
        from repro.api import Session
        from repro.lowlevel.executor import _ENGINE_STAT_FIELDS
        from repro.solver.cache import _COUNTER_FIELDS
        from repro.solver.csp import _STAT_FIELDS

        session = Session("pylite", 's = sym_string("ab")\nif s[0] == "a":\n    print(1)\n')
        session.run()
        names = set(session.metrics())
        expected = (
            {f"engine.{field}" for field in _ENGINE_STAT_FIELDS}
            | {f"solver.{field}" for field in _STAT_FIELDS}
            | {f"cache.{field}" for field in _COUNTER_FIELDS}
            | {"cache.entries"}
        )
        assert expected <= names


class TestSnapshotAlgebra:
    def test_merge_adds_numbers_and_folds_histograms(self):
        merged = merge_snapshots(
            [
                {"solver.queries": 3, "span.check": {"count": 2, "sum": 1.0, "min": 0.25, "max": 0.75, "slowest": [[0.75, "a"]]}},
                {"solver.queries": 4, "span.check": {"count": 1, "sum": 2.0, "min": 2.0, "max": 2.0, "slowest": [[2.0, "b"]]}},
            ]
        )
        assert merged["solver.queries"] == 7
        assert merged["span.check"]["count"] == 3
        assert merged["span.check"]["sum"] == pytest.approx(3.0)
        assert merged["span.check"]["min"] == pytest.approx(0.25)
        assert merged["span.check"]["max"] == pytest.approx(2.0)
        assert merged["span.check"]["slowest"][0][0] == pytest.approx(2.0)

    def test_merge_of_disjoint_keys_unions(self):
        merged = merge_snapshots([{"a": 1}, {"b": 2}])
        assert merged == {"a": 1, "b": 2}

    def test_split_prefixed_strips_prefix(self):
        snap = {"solver.queries": 5, "cache.hits": 2, "engine.forks": 1}
        assert split_prefixed(snap, "solver") == {"queries": 5}
        assert split_prefixed(snap, "cache") == {"hits": 2}
