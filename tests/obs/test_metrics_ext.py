"""Tests for the service-facing metrics extensions.

Covers labelled metric names, time-window bucketing, nearest-rank
percentiles and the registry snapshot protocol added for the ingest
service's SLO tracking and checkpoint/resume.
"""

from __future__ import annotations

import pickle

import pytest

from repro.obs import MetricsRegistry, labelled, metrics_summary, window_bucket
from repro.obs.metrics import Histogram


class TestLabelled:
    def test_keys_sorted_regardless_of_call_order(self) -> None:
        a = labelled("m", tenant="t7", cls="fast")
        b = labelled("m", cls="fast", tenant="t7")
        assert a == b == "m{cls=fast,tenant=t7}"

    def test_no_labels_is_identity(self) -> None:
        assert labelled("plain") == "plain"


class TestWindowBucket:
    def test_buckets_floor_and_zero_pad(self) -> None:
        assert window_bucket("m", 0.0, 3600.0) == "m[000000]"
        assert window_bucket("m", 3599.9, 3600.0) == "m[000000]"
        assert window_bucket("m", 3600.0, 3600.0) == "m[000001]"
        assert window_bucket("m", 47 * 3600.0, 3600.0) == "m[000047]"

    def test_windows_sort_numerically_in_summary(self) -> None:
        names = [window_bucket("m", h * 3600.0, 3600.0) for h in range(12)]
        assert names == sorted(names)

    def test_rejects_bad_width(self) -> None:
        with pytest.raises(ValueError):
            window_bucket("m", 1.0, 0.0)


class TestPercentile:
    def test_nearest_rank(self) -> None:
        hist = Histogram("h", [float(v) for v in range(1, 101)])
        assert hist.percentile(50) == 50.0
        assert hist.percentile(95) == 95.0
        assert hist.percentile(99) == 99.0
        assert hist.percentile(100) == 100.0
        assert hist.percentile(0) == 1.0

    def test_small_samples(self) -> None:
        hist = Histogram("h", [3.0, 1.0, 2.0])
        assert hist.percentile(50) == 2.0
        assert hist.percentile(99) == 3.0

    def test_empty_and_bounds(self) -> None:
        assert Histogram("h").percentile(99) == 0.0
        with pytest.raises(ValueError):
            Histogram("h", [1.0]).percentile(101)
        with pytest.raises(ValueError):
            Histogram("h", [1.0]).percentile(-1)


class TestSnapshotProtocol:
    def _populated(self) -> MetricsRegistry:
        metrics = MetricsRegistry(enabled=True)
        metrics.count("c", 2.0)
        metrics.gauge("g", +3.0)
        metrics.gauge("g", -1.0)
        metrics.observe("h", 1.5)
        metrics.observe("h", 0.5)
        return metrics

    def test_export_restore_round_trips_summary(self) -> None:
        source = self._populated()
        state = pickle.loads(pickle.dumps(source.export_state()))
        target = MetricsRegistry(enabled=False)
        target.restore_state(state)
        assert metrics_summary(target) == metrics_summary(source)
        # Restored instruments keep accumulating, not just rendering.
        target.count("c")
        assert target.counter_value("c") == 3.0
        assert target.histogram("h").count == 2

    def test_restore_overwrites_prior_contents(self) -> None:
        target = self._populated()
        target.count("stale")
        target.restore_state(MetricsRegistry(enabled=True).export_state())
        assert target.counter_value("stale") == 0.0
        assert metrics_summary(target) == metrics_summary(
            MetricsRegistry(enabled=True)
        )


class TestPublishEnvHealth:
    def test_single_heap_env_has_no_window_gauges(self) -> None:
        """The environment publishes exactly its two heap-health keys,
        which the golden metrics summaries pin."""
        from repro.obs.metrics import publish_env_health
        from repro.sim import Environment

        env = Environment()
        env.run(until=env.timeout(1.0))
        registry = MetricsRegistry(enabled=True)
        publish_env_health(env, registry)
        names = {gauge.name for gauge in registry.gauges()}
        assert names == {
            "sim.env.events_dispatched",
            "sim.env.heap_high_water",
        }
