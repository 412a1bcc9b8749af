"""A one-shard federation is the bare cluster simulation, bit for bit.

The federation front tier generates specs from the federation seed with
the same spawn discipline the cluster kernel uses, and each shard run
derives all remaining randomness from its template's seed — so pushing
a single shard through ``simulate_federation`` must reproduce
``simulate`` exactly: same latencies, same rejection/measured masks,
same counters, same metadata.  This is the property that makes the
federation a *composition* of the golden-pinned kernels rather than a
new simulator.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import (
    CrashProcess,
    FaultPlan,
    FederationConfig,
    RetryPolicy,
    simulate,
    simulate_federation,
)
from repro.experiments.setups import paper_single_class_config
from repro.workloads import PoissonArrivals
from tests.integration.test_replica_equivalence import (
    controller_fingerprint,
    workload_config as replica_config,
)


def _shard(policy: str, *, faults=None, seed: int = 7):
    config = paper_single_class_config(
        "masstree", 5.0, policy=policy, n_servers=120, n_queries=2_500,
        seed=seed,
    ).at_load(0.55)
    if faults is not None:
        config = config.with_faults(faults)
    return config


def _fault_plan():
    return FaultPlan(
        crashes=CrashProcess(mtbf_ms=800.0, mttr_ms=5.0, seed=3),
        retry=RetryPolicy(max_retries=2, backoff_ms=0.1),
    )


def _assert_bit_identical(fed_result, bare):
    merged = fed_result.merged
    assert np.array_equal(merged.latency, bare.latency, equal_nan=True)
    assert np.array_equal(merged.arrival, bare.arrival)
    assert np.array_equal(merged.fanout, bare.fanout)
    assert np.array_equal(merged.class_index, bare.class_index)
    assert np.array_equal(merged.rejected, bare.rejected)
    assert np.array_equal(merged.measured, bare.measured)
    if bare.failed is None:
        assert merged.failed is None
    else:
        assert np.array_equal(merged.failed, bare.failed)
    assert merged.classes == bare.classes
    assert merged.policy_name == bare.policy_name
    assert merged.n_servers == bare.n_servers
    assert merged.seed == bare.seed
    assert merged.offered_load == bare.offered_load
    assert merged.mean_service_ms == bare.mean_service_ms
    assert merged.tasks_total == bare.tasks_total
    assert merged.tasks_missed_deadline == bare.tasks_missed_deadline
    assert merged.busy_time_total == bare.busy_time_total
    assert merged.duration == bare.duration
    assert merged.tasks_failed == bare.tasks_failed
    assert merged.tasks_retried == bare.tasks_retried
    assert merged.server_failures == bare.server_failures


@pytest.mark.parametrize("policy", ["tailguard", "fifo"])
def test_one_shard_federation_matches_bare_cluster(policy):
    shard = _shard(policy)
    fed = FederationConfig((shard,), workload=shard.workload,
                           n_queries=shard.n_queries, seed=shard.seed)
    _assert_bit_identical(simulate_federation(fed), simulate(shard))


@pytest.mark.parametrize("policy", ["tailguard", "fifo"])
def test_one_shard_federation_matches_under_fault_plan(policy):
    shard = _shard(policy, faults=_fault_plan())
    fed = FederationConfig((shard,), workload=shard.workload,
                           n_queries=shard.n_queries, seed=shard.seed)
    _assert_bit_identical(simulate_federation(fed), simulate(shard))


@pytest.mark.parametrize("router", ["jsq", "p2c", "least-slack", "tenant"])
def test_one_shard_identity_holds_for_every_router(router):
    # With one shard every router has exactly one choice; the identity
    # must not depend on which policy nominally made it.
    shard = _shard("tailguard")
    fed = FederationConfig((shard,), workload=shard.workload,
                           n_queries=shard.n_queries, seed=shard.seed,
                           router=router)
    _assert_bit_identical(simulate_federation(fed), simulate(shard))


def test_one_shard_federation_matches_through_worker_pool():
    shard = _shard("tailguard")
    fed = FederationConfig((shard,), workload=shard.workload,
                           n_queries=shard.n_queries, seed=shard.seed)
    _assert_bit_identical(simulate_federation(fed, workers=2),
                          simulate(shard))


def test_multi_shard_merge_restores_global_arrival_order():
    shard = _shard("tailguard")
    fed = FederationConfig(
        tuple(shard.with_seed(s) for s in range(3)),
        workload=shard.workload, n_queries=3_000, seed=11,
    )
    outcome = simulate_federation(fed)
    merged = outcome.merged
    assert np.all(np.diff(merged.arrival) >= 0)
    assert merged.latency.size == 3_000
    assert merged.n_servers == fed.total_servers
    # Every query landed on exactly the shard the router recorded, and
    # the per-shard results cover the stream exactly once.
    counts = outcome.shard_query_counts()
    assert counts.sum() == 3_000
    for s, result in enumerate(outcome.shards):
        if result is None:
            assert counts[s] == 0
        else:
            assert result.latency.size == counts[s]


def test_multi_shard_replica_counters_survive_worker_pool():
    """Per-shard replica counters come home from the pool intact.

    Four shards running a replica policy (suppression plus adaptive
    hedging) over a busy fault plan: every shard runs in a worker, so
    a result field the pool fails to carry shows up as a per-shard or
    merged mismatch against the serial run.
    """
    template = replica_config()
    fed = FederationConfig(
        tuple(template.with_seed(s) for s in range(4)),
        workload=replace(template.workload,
                         arrivals=PoissonArrivals(4 * 2.6)),
        n_queries=4_000, seed=5,
    )
    serial = simulate_federation(fed)
    pooled = simulate_federation(fed, workers=2)
    serial_counts = [r.hedges_suppressed for r in serial.shards]
    assert all(count > 0 for count in serial_counts)
    assert [r.hedges_suppressed for r in pooled.shards] == serial_counts
    assert pooled.merged.hedges_suppressed == serial.merged.hedges_suppressed
    for s, p in zip(serial.shards, pooled.shards):
        assert controller_fingerprint(p.replicas) == (
            controller_fingerprint(s.replicas))
