"""Unit tests for timeline instrumentation."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import ClusterConfig, simulate
from repro.cluster.config import ServicePerturbation
from repro.cluster.results import Timeline
from repro.distributions import Deterministic
from repro.errors import ConfigurationError
from repro.experiments.setups import paper_single_class_config
from repro.types import QuerySpec, ServiceClass


@pytest.fixture
def gold():
    return ServiceClass("gold", slo_ms=100.0)


class TestTimelineSampling:
    def test_disabled_by_default(self, small_config):
        assert simulate(small_config).timeline is None

    def test_interval_validation(self, small_config):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="finite"):
                replace(small_config, timeline_interval_ms=bad)

    def test_sample_spacing(self, gold):
        specs = [QuerySpec(0, 0.0, 1, gold, servers=(0,))]
        config = ClusterConfig(
            n_servers=1, policy="fifo", specs=specs,
            server_cdfs={0: Deterministic(10.0)},
            warmup_fraction=0.0, timeline_interval_ms=2.0,
        )
        timeline = simulate(config).timeline
        assert np.allclose(np.diff(timeline.time), 2.0)
        # Samples at 2..10 ms; the t=10 sample reflects the state just
        # *before* the completion event at t=10, so all five show busy.
        assert list(timeline.busy_servers) == [1, 1, 1, 1, 1]

    def test_queue_depth_observed(self, gold):
        # Three tasks to one server, deterministic 10 ms service: at
        # t=5 two are queued, at t=15 one, at t=25 none.
        specs = [QuerySpec(i, 0.0, 1, gold, servers=(0,)) for i in range(3)]
        config = ClusterConfig(
            n_servers=1, policy="fifo", specs=specs,
            server_cdfs={0: Deterministic(10.0)},
            warmup_fraction=0.0, timeline_interval_ms=10.0,
        )
        timeline = simulate(config).timeline
        by_time = dict(zip(timeline.time, timeline.queued_tasks))
        assert by_time[10.0] == 2  # sampled just before the t=10 dequeue
        assert by_time[20.0] == 1

    def test_busy_tracks_load(self):
        config = replace(
            paper_single_class_config("masstree", 1.0,
                                      n_queries=20_000).at_load(0.4),
            timeline_interval_ms=2.0,
        )
        timeline = simulate(config).timeline
        assert timeline.mean_busy() == pytest.approx(40.0, abs=4.0)

    def test_perturbation_visible_in_timeline(self):
        base = paper_single_class_config("masstree", 1.0,
                                         n_queries=20_000).at_load(0.4)
        probe = simulate(base)
        horizon = float(probe.arrival.max())
        window = (horizon / 3, 2 * horizon / 3)
        config = replace(
            base,
            timeline_interval_ms=horizon / 200,
            perturbations=(
                ServicePerturbation(tuple(range(30)), window[0],
                                    window[1], 3.0),
            ),
        )
        timeline = simulate(config).timeline
        calm = timeline.between(0.0, window[0])
        stormy = timeline.between(window[0] + (window[1] - window[0]) / 2,
                                  window[1])
        assert stormy.queued_tasks.mean() > 3 * max(
            calm.queued_tasks.mean(), 0.5
        )


class TestTimelineContainer:
    def test_between_filters(self):
        timeline = Timeline(
            time=np.asarray([1.0, 2.0, 3.0]),
            queued_tasks=np.asarray([5, 6, 7]),
            busy_servers=np.asarray([1, 2, 3]),
        )
        window = timeline.between(1.5, 3.0)
        assert list(window.time) == [2.0]
        assert window.peak_queue() == 6

    def test_empty_timeline(self):
        empty = Timeline(np.asarray([]), np.asarray([]), np.asarray([]))
        assert len(empty) == 0
        assert empty.peak_queue() == 0
        assert empty.mean_busy() == 0.0
