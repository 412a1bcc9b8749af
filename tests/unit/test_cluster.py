"""Unit tests for cluster config, simulation and results."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, simulate
from repro.core.deadline import DeadlineEstimator
from repro.distributions import Deterministic
from repro.errors import ConfigurationError
from repro.types import QuerySpec, ServiceClass
from repro.workloads import (
    PoissonArrivals,
    Workload,
    get_workload,
    inverse_proportional_fanout,
    single_class_mix,
)


@pytest.fixture
def gold():
    return ServiceClass("gold", slo_ms=10.0)


class TestClusterConfig:
    def test_needs_workload_or_specs(self, gold):
        with pytest.raises(ConfigurationError):
            ClusterConfig(n_servers=10, policy="fifo")

    def test_workload_and_specs_mutually_exclusive(self, small_workload, gold):
        specs = [QuerySpec(0, 0.0, 1, gold)]
        with pytest.raises(ConfigurationError):
            ClusterConfig(n_servers=10, policy="fifo",
                          workload=small_workload, specs=specs)

    def test_warmup_fraction_bounds(self, small_workload):
        with pytest.raises(ConfigurationError):
            ClusterConfig(n_servers=10, policy="fifo",
                          workload=small_workload, warmup_fraction=1.0)

    def test_at_load_sets_offered_load(self, small_workload):
        config = ClusterConfig(n_servers=100, policy="fifo",
                               workload=small_workload).at_load(0.37)
        assert config.workload.load(100) == pytest.approx(0.37)

    def test_at_load_requires_workload(self, gold):
        specs = [QuerySpec(0, 0.0, 1, gold)]
        config = ClusterConfig(n_servers=10, policy="fifo", specs=specs,
                               server_cdfs={i: Deterministic(1.0)
                                            for i in range(10)})
        with pytest.raises(ConfigurationError):
            config.at_load(0.4)

    def test_server_cdfs_must_cover_cluster(self, small_workload):
        config = ClusterConfig(n_servers=10, policy="fifo",
                               workload=small_workload,
                               server_cdfs={0: Deterministic(1.0)})
        with pytest.raises(ConfigurationError):
            config.resolve_server_cdfs()

    def test_spec_driven_requires_server_cdfs(self, gold):
        specs = [QuerySpec(0, 0.0, 1, gold)]
        config = ClusterConfig(n_servers=10, policy="fifo", specs=specs)
        with pytest.raises(ConfigurationError):
            config.resolve_server_cdfs()


class TestSimulateBasics:
    def test_deterministic_single_server(self, gold):
        """Three queries, one server, deterministic 1 ms service."""
        specs = [QuerySpec(i, float(i) * 0.1, 1, gold, servers=(0,))
                 for i in range(3)]
        config = ClusterConfig(
            n_servers=1, policy="fifo", specs=specs,
            server_cdfs={0: Deterministic(1.0)}, warmup_fraction=0.0,
        )
        result = simulate(config)
        # Arrivals at 0.0/0.1/0.2; completions at 1.0/2.0/3.0.
        assert np.allclose(sorted(result.latency), [1.0, 1.9, 2.8])
        assert result.tasks_total == 3
        assert result.busy_time_total == pytest.approx(3.0)

    def test_fanout_latency_is_max_of_tasks(self, gold):
        specs = [QuerySpec(0, 0.0, 2, gold, servers=(0, 1))]
        config = ClusterConfig(
            n_servers=2, policy="fifo", specs=specs,
            server_cdfs={0: Deterministic(1.0), 1: Deterministic(3.0)},
            warmup_fraction=0.0,
        )
        result = simulate(config)
        assert result.latency[0] == pytest.approx(3.0)

    def test_seed_reproducibility(self, small_config):
        a = simulate(small_config)
        b = simulate(small_config)
        assert np.array_equal(a.latency, b.latency)
        assert a.tasks_missed_deadline == b.tasks_missed_deadline

    def test_different_seeds_differ(self, small_config):
        from dataclasses import replace

        a = simulate(small_config)
        b = simulate(replace(small_config, seed=small_config.seed + 1))
        assert not np.array_equal(a.latency, b.latency)

    def test_fanout_larger_than_cluster_rejected(self, gold):
        specs = [QuerySpec(0, 0.0, 5, gold)]
        config = ClusterConfig(
            n_servers=2, policy="fifo", specs=specs,
            server_cdfs={0: Deterministic(1.0), 1: Deterministic(1.0)},
        )
        with pytest.raises(ConfigurationError):
            simulate(config)

    def test_utilization_tracks_offered_load(self, small_config):
        result = simulate(small_config)
        assert result.utilization() == pytest.approx(0.30, abs=0.05)

    def test_custom_placement_hook(self, gold):
        placed = []

        def placement(spec, rng):
            placed.append(spec.query_id)
            return (0,)

        specs = None
        workload = Workload(
            "w", PoissonArrivals(0.1), inverse_proportional_fanout([1]),
            single_class_mix(gold), Deterministic(1.0),
        )
        config = ClusterConfig(n_servers=2, policy="fifo", workload=workload,
                               n_queries=5, placement=placement)
        result = simulate(config)
        assert placed == [0, 1, 2, 3, 4]
        assert result.tasks_total == 5

    def test_placement_wrong_size_rejected(self, gold):
        workload = Workload(
            "w", PoissonArrivals(0.1), inverse_proportional_fanout([1]),
            single_class_mix(gold), Deterministic(1.0),
        )
        config = ClusterConfig(
            n_servers=2, policy="fifo", workload=workload, n_queries=2,
            placement=lambda spec, rng: (0, 1),
        )
        with pytest.raises(ConfigurationError):
            simulate(config)

    def test_calendar_loop_captures_no_locals(self):
        """A closure, generator expression or (before Python 3.12)
        comprehension in the loop that reads its state turns those hot
        locals into cell variables, slower on every event."""
        from repro.cluster.simulation import _fast_loop

        assert _fast_loop.__code__.co_cellvars == ()

    def test_duplicate_class_names_rejected(self):
        a = ServiceClass("same", 1.0)
        b = ServiceClass("same", 2.0)
        specs = [QuerySpec(0, 0.0, 1, a), QuerySpec(1, 0.5, 1, b)]
        config = ClusterConfig(n_servers=1, policy="fifo", specs=specs,
                               server_cdfs={0: Deterministic(0.1)})
        with pytest.raises(ConfigurationError):
            simulate(config)


class TestSimulationResult:
    def test_per_type_tails_keys(self, small_config):
        result = simulate(small_config)
        assert set(result.types()) <= {("single", 1), ("single", 10),
                                       ("single", 100)}

    def test_tail_unknown_class(self, small_config):
        result = simulate(small_config)
        with pytest.raises(ConfigurationError):
            result.tail(99.0, "ghost")

    def test_warmup_excluded_from_measurement(self, small_config):
        result = simulate(small_config)
        warmup_count = int(len(result.latency) * 0.1)
        assert result.measured[:warmup_count].sum() == 0

    def test_meets_all_slos_generous(self, small_config):
        result = simulate(small_config)  # SLO 1.0 at load 0.3 is feasible
        assert result.meets_all_slos(min_samples=30)

    def test_meets_all_slos_impossible(self, small_workload):
        from dataclasses import replace

        tight = ServiceClass("single", slo_ms=0.05)
        workload = replace(small_workload,
                           class_mix=single_class_mix(tight))
        config = ClusterConfig(n_servers=100, policy="tailguard",
                               workload=workload, n_queries=2_000,
                               seed=3).at_load(0.3)
        result = simulate(config)
        assert not result.meets_all_slos(min_samples=30)

    def test_summary_fields(self, small_config):
        summary = simulate(small_config).summary()
        assert {"offered_load", "utilization", "deadline_miss_ratio",
                "rejection_ratio", "queries_measured"} <= set(summary)

    def test_deadline_miss_ratio_bounds(self, small_config):
        result = simulate(small_config)
        assert 0.0 <= result.deadline_miss_ratio() <= 1.0


class TestEstimatorOverride:
    def test_custom_estimator_used(self, small_workload):
        """A grossly pessimistic estimator forces negative budgets, so
        all tasks miss their (absurd) deadlines under TailGuard."""
        bench = get_workload("masstree")
        pessimistic = DeadlineEstimator(
            bench.service_time.scaled(1000.0), n_servers=100
        )
        config = ClusterConfig(
            n_servers=100, policy="tailguard", workload=small_workload,
            n_queries=1_000, seed=2, estimator=pessimistic,
        ).at_load(0.2)
        result = simulate(config)
        assert result.deadline_miss_ratio() == 1.0
