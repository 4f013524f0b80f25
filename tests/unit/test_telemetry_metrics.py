"""Unit tests for the telemetry metrics primitives and exporters.

The metrics layer underpins the cross-mode determinism guarantee
(sequential == pooled == batched snapshots), so merge semantics —
especially histogram merge associativity and the counter/gauge rules —
are pinned with hypothesis alongside the plain behavioural cases.
"""

import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import (
    NS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    prometheus_name,
    prometheus_text,
    summary,
    write_json_snapshot,
    write_prometheus,
)


class TestCounter:
    def test_starts_at_zero_and_adds(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_merge_adds(self):
        a, b = Counter("c", 3), Counter("c", 7)
        a.merge(b)
        assert a.value == 10


class TestGauge:
    def test_set_and_merge_other_wins_when_set(self):
        a, b = Gauge("g"), Gauge("g")
        a.set(1.0)
        b.set(2.0)
        a.merge(b)
        assert a.value == 2.0

    def test_merge_unset_other_keeps_mine(self):
        a, b = Gauge("g"), Gauge("g")
        a.set(1.0)
        a.merge(b)
        assert a.value == 1.0 and a.is_set


class TestHistogram:
    def test_bounds_must_be_strictly_increasing(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            Histogram("h", bounds=())

    def test_record_tracks_sum_count_min_max(self):
        histogram = Histogram("h", bounds=(10.0, 100.0))
        for value in (5, 50, 500):
            histogram.record(value)
        assert histogram.count == 3
        assert histogram.sum == 555
        assert histogram.min == 5 and histogram.max == 500
        assert histogram.counts == [1, 1, 1]  # one per bucket + overflow

    def test_bucket_edges_are_inclusive_upper(self):
        histogram = Histogram("h", bounds=(10.0, 100.0))
        histogram.record(10.0)
        histogram.record(10.1)
        assert histogram.counts == [1, 1, 0]

    def test_quantile_is_bucket_resolution(self):
        histogram = Histogram("h", bounds=(10.0, 100.0))
        for _ in range(99):
            histogram.record(5)
        histogram.record(1000)
        assert histogram.quantile(0.5) == 10.0
        assert histogram.quantile(1.0) == 1000  # overflow bucket → max
        assert Histogram("h").quantile(0.5) == 0.0

    def test_merge_requires_equal_bounds(self):
        a = Histogram("h", bounds=(1.0, 2.0))
        b = Histogram("h", bounds=(1.0, 3.0))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_record_many_empty_is_noop(self):
        histogram = Histogram("h")
        histogram.record_many([])
        assert histogram.count == 0 and histogram.min is None

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2 * 10**9), max_size=200))
    def test_record_many_equals_per_sample_record(self, values):
        one_shot = Histogram("h")
        one_shot.record_many(values)
        looped = Histogram("h")
        for value in values:
            looped.record(value)
        assert one_shot.to_dict() == looped.to_dict()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2 * 10**9), max_size=200))
    def test_record_many_numpy_fast_path_equals_record(self, values):
        numpy = pytest.importorskip("numpy")
        one_shot = Histogram("h")
        one_shot.record_many(numpy.asarray(values, dtype=numpy.int64))
        looped = Histogram("h")
        for value in values:
            looped.record(value)
        assert one_shot.to_dict() == looped.to_dict()

    def test_record_many_numpy_out_of_range_falls_back(self):
        numpy = pytest.importorskip("numpy")
        histogram = Histogram("h", bounds=(10.0, 100.0))
        histogram.record_many(numpy.asarray([5, 2**41], dtype=numpy.int64))
        assert histogram.count == 2
        assert histogram.counts == [1, 0, 1]
        assert histogram.min == 5 and histogram.max == 2**41

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(min_value=0, max_value=1e9, allow_nan=False), max_size=30),
            min_size=3,
            max_size=3,
        )
    )
    def test_merge_is_associative(self, groups):
        def build(values):
            histogram = Histogram("h")
            for value in values:
                histogram.record(value)
            return histogram

        a1, b1, c1 = (build(group) for group in groups)
        a2, b2, c2 = (build(group) for group in groups)
        # (a ⊕ b) ⊕ c
        a1.merge(b1)
        a1.merge(c1)
        # a ⊕ (b ⊕ c)
        b2.merge(c2)
        a2.merge(b2)
        assert a1.counts == a2.counts
        assert a1.count == a2.count
        assert a1.min == a2.min and a1.max == a2.max
        assert a1.sum == pytest.approx(a2.sum)

    def test_float_sums_merge_to_the_same_bits_in_any_grouping(self):
        """Chunk snapshots merged in any grouping hold the sum one
        histogram of every sample holds (a float sum drifts by ULPs)."""
        values = [7.999999999999874] * 8  # eight run durations of 800 steps

        def merged(sizes):
            registry = MetricsRegistry()
            start = 0
            for size in sizes:
                chunk = MetricsRegistry()
                for value in values[start:start + size]:
                    chunk.histogram("run.duration_s").record(value)
                registry.merge(chunk.snapshot())
                start += size
            return registry.snapshot()

        whole = merged([8])
        assert merged([2, 2, 2, 2]) == whole
        assert merged([4, 4]) == whole
        assert merged([1] * 8) == whole
        assert whole["histograms"]["run.duration_s"]["sum"] == float(
            sum(Fraction(value) for value in values)
        )


class TestMetricsRegistry:
    def test_create_on_first_use_and_kind_mismatch(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        assert registry.counter("x") is counter
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_merge_register_and_snapshot_roundtrip(self):
        a = MetricsRegistry()
        a.counter("runs").inc(3)
        a.gauge("rate").set(1.5)
        a.histogram("lat").record(500)
        b = MetricsRegistry.from_snapshot(a.snapshot())
        assert b.snapshot() == a.snapshot()
        a.merge(b)
        assert a.counter("runs").value == 6
        assert a.histogram("lat").count == 2

    def test_merge_accepts_snapshot_dicts(self):
        a = MetricsRegistry()
        a.counter("runs").inc(1)
        b = MetricsRegistry()
        b.counter("runs").inc(2)
        a.merge(b.snapshot())
        assert a.counter("runs").value == 3

    def test_merge_kind_conflict_raises(self):
        a = MetricsRegistry()
        a.counter("x").inc()
        b = MetricsRegistry()
        b.gauge("x").set(1.0)
        with pytest.raises(TypeError):
            a.merge(b)

    def test_merge_in_task_order_is_deterministic(self):
        # Simulates the executor: chunk snapshots merged in chunk order
        # give the same view as sequential accumulation.
        sequential = MetricsRegistry()
        chunks = []
        for chunk_index in range(4):
            chunk = MetricsRegistry()
            for value in range(chunk_index + 1):
                sequential.counter("n").inc()
                sequential.histogram("h").record(value * 1000)
                chunk.counter("n").inc()
                chunk.histogram("h").record(value * 1000)
            chunks.append(chunk.snapshot())
        merged = MetricsRegistry()
        for snapshot in chunks:
            merged.merge(snapshot)
        assert merged.snapshot() == sequential.snapshot()

    def test_pickle_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("runs").inc(2)
        registry.histogram("lat").record(123)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.snapshot() == registry.snapshot()

    def test_deterministic_snapshot_drops_perf_namespace(self):
        registry = MetricsRegistry()
        registry.counter("runs.completed").inc()
        registry.counter("perf.run.busy_ns").inc(10)
        registry.gauge("perf.run.steps_per_s").set(1.0)
        registry.histogram("perf.stage.sense.ns").record(5)
        registry.histogram("run.duration_s", bounds=(1.0,)).record(0.5)
        deterministic = registry.deterministic_snapshot()
        assert list(deterministic["counters"]) == ["runs.completed"]
        assert deterministic["gauges"] == {}
        assert list(deterministic["histograms"]) == ["run.duration_s"]


class TestExports:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("runs.completed").inc(4)
        registry.gauge("perf.run.steps_per_s").set(123.4)
        histogram = registry.histogram("perf.stage.sense.ns")
        for value in (800, 1500, 3e6, 2e9):
            histogram.record(value)
        return registry

    def test_prometheus_name_sanitizes(self):
        assert prometheus_name("perf.stage.sense.ns") == "repro_perf_stage_sense_ns"

    def test_prometheus_text_format(self):
        text = prometheus_text(self._registry())
        assert "# TYPE repro_runs_completed counter" in text
        assert "repro_runs_completed 4" in text
        assert "# TYPE repro_perf_stage_sense_ns histogram" in text
        assert 'repro_perf_stage_sense_ns_bucket{le="+Inf"} 4' in text
        assert "repro_perf_stage_sense_ns_count 4" in text
        # Bucket counts are cumulative: every value ≤ +Inf.
        bucket_counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_perf_stage_sense_ns_bucket")
        ]
        assert bucket_counts == sorted(bucket_counts)

    def test_write_prometheus_and_json(self, tmp_path):
        registry = self._registry()
        prom = tmp_path / "m.prom"
        write_prometheus(registry, str(prom))
        assert prom.read_text() == prometheus_text(registry)
        snapshot = tmp_path / "m.json"
        write_json_snapshot(registry, str(snapshot), extra={"runs": 4})
        payload = json.loads(snapshot.read_text())
        assert payload["runs"] == 4
        assert payload["counters"]["runs.completed"] == 4

    def test_summary_table(self):
        text = summary(self._registry(), title="unit")
        assert text.startswith("=== unit ===")
        assert "runs.completed" in text
        assert "perf.stage.sense.ns" in text
        assert "us" in text  # ns histograms scale to µs
        assert summary(MetricsRegistry()).endswith("(nothing recorded)")

    def test_default_ns_buckets_cover_1us_to_1s(self):
        assert NS_BUCKETS[0] == 1e3
        assert NS_BUCKETS[-1] == 1e9
        assert list(NS_BUCKETS) == sorted(NS_BUCKETS)
