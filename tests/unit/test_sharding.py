"""Unit tests for the shard map and sharded placement."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, simulate
from repro.errors import ConfigurationError
from repro.types import QuerySpec, ServiceClass
from repro.workloads.sharding import ShardMap, ShardedPlacement


@pytest.fixture
def rng():
    return np.random.default_rng(303)


@pytest.fixture
def gold():
    return ServiceClass("gold", slo_ms=10.0)


class TestShardMap:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ShardMap(0, 10)
        with pytest.raises(ConfigurationError):
            ShardMap(10, 4, replication=5)

    def test_replica_count(self):
        shard_map = ShardMap(100, 10, replication=3)
        for shard in range(100):
            replicas = shard_map.replicas(shard)
            assert len(set(replicas)) == 3

    def test_replicas_within_cluster(self):
        shard_map = ShardMap(40, 8, replication=2)
        for shard in range(40):
            assert all(0 <= s < 8 for s in shard_map.replicas(shard))

    def test_unknown_shard(self):
        with pytest.raises(ConfigurationError):
            ShardMap(4, 4).replicas(10)

    def test_negative_shard_does_not_wrap(self):
        # Python list indexing would silently resolve -1; the explicit
        # bound check must reject it.
        with pytest.raises(ConfigurationError, match="outside"):
            ShardMap(4, 4).replicas(-1)
        with pytest.raises(ConfigurationError, match="outside"):
            ShardMap(4, 4).shards_on(-1)

    def test_validate_cluster(self):
        shard_map = ShardMap(40, 8)
        shard_map.validate_cluster(8)  # exact match passes
        with pytest.raises(ConfigurationError, match="covers 8 servers"):
            shard_map.validate_cluster(16)
        with pytest.raises(ConfigurationError, match="covers 8 servers"):
            shard_map.validate_cluster(4)

    def test_shards_on_inverse(self):
        shard_map = ShardMap(20, 5, replication=2)
        for server in range(5):
            for shard in shard_map.shards_on(server):
                assert server in shard_map.replicas(shard)

    def test_balanced_without_replication(self):
        shard_map = ShardMap(100, 10)
        counts = [len(shard_map.shards_on(server)) for server in range(10)]
        assert max(counts) - min(counts) <= 1


class TestShardedPlacement:
    def test_distinct_servers(self, rng, gold):
        placement = ShardedPlacement(ShardMap(200, 20, replication=2))
        spec = QuerySpec(0, 0.0, 8, gold)
        servers = placement(spec, rng)
        assert len(servers) == 8
        assert len(set(servers)) == 8

    def test_fanout_exceeding_cluster(self, rng, gold):
        placement = ShardedPlacement(ShardMap(10, 4))
        with pytest.raises(ConfigurationError):
            placement(QuerySpec(0, 0.0, 5, gold), rng)

    def test_full_fanout_covers_cluster(self, rng, gold):
        placement = ShardedPlacement(ShardMap(64, 8))
        servers = placement(QuerySpec(0, 0.0, 8, gold), rng)
        assert sorted(servers) == list(range(8))

    def test_popularity_skews_load(self, rng):
        uniform = ShardedPlacement(ShardMap(100, 10))
        skewed = ShardedPlacement(ShardMap(100, 10), popularity_alpha=1.5)
        load_uniform = uniform.server_load_profile(20_000, rng)
        load_skewed = skewed.server_load_profile(20_000, rng)
        assert max(load_skewed.values()) > 1.5 * max(load_uniform.values())

    def test_invalid_alpha(self):
        with pytest.raises(ConfigurationError):
            ShardedPlacement(ShardMap(10, 4), popularity_alpha=0.0)

    def test_end_to_end_simulation(self, gold):
        """A sharded placement drives the cluster simulator."""
        from repro.workloads import (
            PoissonArrivals,
            Workload,
            inverse_proportional_fanout,
            single_class_mix,
        )
        from repro.workloads import get_workload

        bench = get_workload("masstree")
        workload = Workload(
            "sharded", PoissonArrivals(1.0),
            inverse_proportional_fanout([1, 4, 16]),
            single_class_mix(gold), bench.service_time,
        )
        placement = ShardedPlacement(ShardMap(160, 16, replication=2),
                                     popularity_alpha=1.2)
        config = ClusterConfig(
            n_servers=16, policy="tailguard", workload=workload,
            n_queries=3_000, seed=4, placement=placement,
        ).at_load(0.3)
        result = simulate(config)
        assert result.count() > 0
        assert not np.isnan(result.latencies()).any()

    def test_least_loaded_requires_depths(self, rng, gold):
        placement = ShardedPlacement(ShardMap(40, 8, replication=2),
                                     select="least-loaded")
        with pytest.raises(ConfigurationError):
            placement(QuerySpec(0, 0.0, 2, gold), rng)

    def test_invalid_select(self):
        with pytest.raises(ConfigurationError):
            ShardedPlacement(ShardMap(10, 4), select="shortest-job")

    def test_least_loaded_picks_emptier_replica(self, rng, gold):
        shard_map = ShardMap(8, 4, replication=2)
        placement = ShardedPlacement(shard_map, select="least-loaded")
        # Server 0 is deeply queued; any shard with a free alternative
        # replica should avoid it.
        depths = (50, 0, 0, 0)
        picks = [
            placement(QuerySpec(i, 0.0, 1, gold), rng, depths)[0]
            for i in range(200)
        ]
        share_of_zero = picks.count(0) / len(picks)
        uniform_share = np.mean([
            1.0 / len(shard_map.replicas(s)) if 0 in shard_map.replicas(s)
            else 0.0
            for s in range(shard_map.n_shards)
        ])
        assert share_of_zero < uniform_share / 2

    def test_least_loaded_reduces_tail_under_skew(self, gold):
        """Power-of-choices replica selection beats random selection on
        hot shards — the §II.B replica-selection idea, composable with
        TailGuard."""
        from repro.workloads import (
            PoissonArrivals,
            Workload,
            get_workload,
            inverse_proportional_fanout,
            single_class_mix,
        )

        bench = get_workload("masstree")
        workload = Workload(
            "sharded", PoissonArrivals(1.0),
            inverse_proportional_fanout([1, 4]),
            single_class_mix(gold), bench.service_time,
        )

        def tail_for(select):
            placement = ShardedPlacement(
                ShardMap(160, 16, replication=3),
                popularity_alpha=1.5, select=select,
            )
            config = ClusterConfig(
                n_servers=16, policy="tailguard", workload=workload,
                n_queries=20_000, seed=4, placement=placement,
            ).at_load(0.45)
            return simulate(config).tail(99.0)

        assert tail_for("least-loaded") < tail_for("random")

    def test_hot_shards_concentrate_tail(self, gold):
        """Skewed shard popularity raises tails versus uniform placement
        at the same offered load — the §I outlier source."""
        from repro.workloads import (
            PoissonArrivals,
            Workload,
            get_workload,
            inverse_proportional_fanout,
            single_class_mix,
        )

        bench = get_workload("masstree")
        workload = Workload(
            "sharded", PoissonArrivals(1.0),
            inverse_proportional_fanout([1, 4]),
            single_class_mix(gold), bench.service_time,
        )

        def tail_for(placement):
            config = ClusterConfig(
                n_servers=16, policy="tailguard", workload=workload,
                n_queries=15_000, seed=4, placement=placement,
            ).at_load(0.5)
            return simulate(config).tail(99.0)

        uniform_tail = tail_for(ShardedPlacement(ShardMap(160, 16)))
        skewed_tail = tail_for(
            ShardedPlacement(ShardMap(160, 16), popularity_alpha=1.5)
        )
        assert skewed_tail > uniform_tail


class TestPlacementBoundsInKernel:
    """The simulators reject placements that escape the flat server
    index instead of crashing (or silently wrapping) deep in the
    engine — e.g. a ShardMap built for a different cluster size."""

    def _config(self, gold, placement, faults=None):
        from repro.workloads import (
            PoissonArrivals,
            Workload,
            get_workload,
            inverse_proportional_fanout,
            single_class_mix,
        )

        bench = get_workload("masstree")
        workload = Workload(
            "sharded", PoissonArrivals(1.0),
            inverse_proportional_fanout([1, 4]),
            single_class_mix(gold), bench.service_time,
        )
        return ClusterConfig(
            n_servers=8, policy="fifo", workload=workload,
            n_queries=200, seed=4, placement=placement, faults=faults,
        ).at_load(0.3)

    def test_oversized_shard_map_rejected_by_simulator(self, gold):
        # Map for 16 servers driving an 8-server cluster: emits ids >= 8.
        placement = ShardedPlacement(ShardMap(64, 16))
        with pytest.raises(ConfigurationError, match="outside"):
            simulate(self._config(gold, placement))

    def test_oversized_shard_map_rejected_under_faults(self, gold):
        from repro.faults import CrashProcess, FaultPlan

        placement = ShardedPlacement(ShardMap(64, 16))
        plan = FaultPlan(crashes=CrashProcess(mtbf_ms=1e9, mttr_ms=1.0))
        with pytest.raises(ConfigurationError, match="outside"):
            simulate(self._config(gold, placement, faults=plan))

    def test_wrong_arity_rejected(self, gold):
        def two_servers(spec, rng):
            return (0, 1)

        with pytest.raises(ConfigurationError, match="for fanout"):
            simulate(self._config(gold, two_servers))


class TestPreassignedSpecsInKernel:
    """Caller-supplied specs (e.g. a replayed trace) are validated on
    both calendars: a negative server id must not wrap to ``n - 1``,
    and an out-of-range id or a NaN arrival must not surface as a stray
    IndexError."""

    def _simulate(self, gold, spec, faulted):
        from repro.distributions import Exponential
        from repro.faults import CrashProcess, FaultPlan

        first = QuerySpec(query_id=0, arrival_time=0.0, fanout=1,
                          service_class=gold, servers=(0,))
        plan = (FaultPlan(crashes=CrashProcess(mtbf_ms=1e9, mttr_ms=1.0))
                if faulted else None)
        simulate(ClusterConfig(
            n_servers=8, policy="tailguard", specs=(first, spec), faults=plan,
            server_cdfs={sid: Exponential(rate=1.0) for sid in range(8)},
        ))

    @pytest.mark.parametrize("faulted", [False, True],
                             ids=["no-faults", "faults"])
    @pytest.mark.parametrize("sid", [-1, 8])
    def test_server_outside_cluster_rejected(self, gold, faulted, sid):
        spec = QuerySpec(query_id=1, arrival_time=1.0, fanout=2,
                         service_class=gold, servers=(3, sid))
        with pytest.raises(ConfigurationError, match=r"outside \[0, 8\)"):
            self._simulate(gold, spec, faulted)

    @pytest.mark.parametrize("faulted", [False, True],
                             ids=["no-faults", "faults"])
    def test_nan_arrival_rejected(self, gold, faulted):
        spec = QuerySpec(query_id=1, arrival_time=float("nan"), fanout=1,
                         service_class=gold, servers=(2,))
        with pytest.raises(ConfigurationError, match="not finite"):
            self._simulate(gold, spec, faulted)
