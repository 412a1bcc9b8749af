"""Unit tests for the federation config, router and result layers."""

import numpy as np
import pytest

from repro import ClusterConfig, ConfigurationError, ServiceClass
from repro.distributions import Exponential
from repro.federation import (
    ROUTERS,
    FederationConfig,
    FrontTier,
    RouteOutcome,
    SpillPolicy,
    route_queries,
    simulate_federation,
)
from repro.obs import TraceRecorder
from repro.replicas import ReplicaScorer
from repro.workloads import (
    PoissonArrivals,
    Workload,
    single_class_mix,
)
from repro.workloads.fanout import UniformFanout


def make_workload(slo_ms: float = 50.0, mean_ms: float = 1.0,
                  max_fanout: int = 4) -> Workload:
    return Workload(
        "unit", PoissonArrivals(2.0), UniformFanout(1, max_fanout),
        single_class_mix(ServiceClass("gold", slo_ms=slo_ms)),
        Exponential(mean_ms),
    )


def make_shard(n_servers: int = 4, policy: str = "fifo",
               workload: Workload = None, seed: int = 0) -> ClusterConfig:
    return ClusterConfig(n_servers, policy,
                         workload=workload or make_workload(), seed=seed)


def make_fed(n_shards: int = 2, n_servers: int = 4, **kwargs):
    workload = kwargs.pop("workload", make_workload())
    shards = tuple(
        make_shard(n_servers, workload=workload, seed=s)
        for s in range(n_shards)
    )
    kwargs.setdefault("workload", workload)
    kwargs.setdefault("n_queries", 500)
    return FederationConfig(shards, **kwargs)


class TestSpillPolicy:
    def test_negative_margin_rejected(self):
        with pytest.raises(ConfigurationError):
            SpillPolicy(margin_ms=-0.1)

    def test_defaults(self):
        assert SpillPolicy().margin_ms == 0.0


class TestFederationConfig:
    def test_needs_at_least_one_shard(self):
        with pytest.raises(ConfigurationError, match="at least one shard"):
            FederationConfig((), workload=make_workload())

    def test_shards_must_be_cluster_configs(self):
        with pytest.raises(ConfigurationError, match="not a ClusterConfig"):
            FederationConfig(("nope",), workload=make_workload())

    def test_spec_driven_shard_rejected(self):
        from repro.types import QuerySpec
        gold = ServiceClass("gold", slo_ms=1.0)
        shard = ClusterConfig(
            2, "fifo",
            specs=[QuerySpec(0, 0.0, 1, gold)],
            server_cdfs={0: Exponential(1.0), 1: Exponential(1.0)},
        )
        with pytest.raises(ConfigurationError, match="spec-driven"):
            FederationConfig((shard,), workload=make_workload())

    def test_workload_required(self):
        with pytest.raises(ConfigurationError, match="workload"):
            FederationConfig((make_shard(),))

    def test_unknown_router_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown router"):
            make_fed(router="round-robin")

    def test_bad_scalars_rejected(self):
        with pytest.raises(ConfigurationError):
            make_fed(n_queries=0)
        with pytest.raises(ConfigurationError):
            make_fed(n_tenants=0)
        with pytest.raises(ConfigurationError):
            make_fed(tenant_alpha=0.0)

    def test_recorder_clash_rejected(self):
        workload = make_workload()
        shard = make_shard(workload=workload).with_recorder(TraceRecorder())
        with pytest.raises(ConfigurationError, match="recorder"):
            FederationConfig((shard,), workload=workload,
                             recorder=TraceRecorder())

    def test_scorer_requires_least_slack_router(self):
        with pytest.raises(ConfigurationError, match="least-slack"):
            make_fed(scorer=ReplicaScorer())

    def test_scorer_type_checked(self):
        with pytest.raises(ConfigurationError, match="ReplicaScorer"):
            make_fed(router="least-slack", scorer=object())

    def test_shards_coerced_to_tuple(self):
        workload = make_workload()
        fed = FederationConfig([make_shard(workload=workload)],
                               workload=workload)
        assert isinstance(fed.shards, tuple)

    def test_shape_properties(self):
        workload = make_workload()
        fed = FederationConfig(
            (make_shard(2, workload=workload),
             make_shard(3, workload=workload),
             make_shard(5, workload=workload)),
            workload=workload,
        )
        assert fed.n_shards == 3
        assert fed.total_servers == 10
        assert fed.server_offsets() == (0, 2, 5)

    def test_builders_are_evolve_wrappers(self):
        fed = make_fed()
        assert fed.with_seed(9).seed == 9
        assert fed.with_router("p2c").router == "p2c"
        spill = SpillPolicy(margin_ms=1.0)
        assert fed.with_spill(spill).spill is spill
        assert fed.with_spill(spill).with_spill(None).spill is None
        recorder = TraceRecorder()
        assert fed.with_recorder(recorder).recorder is recorder
        assert fed.evolve(n_queries=7).n_queries == 7

    def test_evolve_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown config field"):
            make_fed().evolve(n_serverz=4)

    def test_evolve_revalidates(self):
        with pytest.raises(ConfigurationError):
            make_fed().evolve(router="nope")

    def test_at_load_rates_total_capacity(self):
        fed = make_fed(n_shards=3, n_servers=4).at_load(0.5)
        assert fed.workload.load(fed.total_servers) == pytest.approx(0.5)


class TestFrontTier:
    def test_backlog_drains_at_capacity(self):
        tier = FrontTier((make_shard(2), make_shard(4)))
        tier.assign(0, 4)  # 4 tasks x 1ms mean = 4 server-ms
        assert tier.delays()[0] == pytest.approx(2.0)  # 4 / 2 servers
        tier.advance(1.0)  # drains 2 server-ms on shard 0
        assert tier.delays()[0] == pytest.approx(1.0)
        tier.advance(100.0)
        assert tier.work[0] == 0.0  # clamped, never negative


def run_router(fed, m=400, fanout_value=1, spacing=0.05, seed=0):
    classes = [fed.workload.class_mix.classes[0]]
    return route_queries(
        fed, classes,
        np.zeros(m, dtype=np.int64),
        np.full(m, fanout_value, dtype=np.int64),
        np.arange(m) * spacing,
        np.random.default_rng(seed),
    )


class TestRouters:
    def test_router_names_pinned(self):
        assert ROUTERS == ("jsq", "p2c", "least-slack", "tenant")

    @pytest.mark.parametrize("router", ["jsq", "p2c"])
    def test_load_aware_routers_balance_identical_shards(self, router):
        fed = make_fed(n_shards=4, router=router)
        outcome = run_router(fed)
        counts = np.bincount(outcome.shard_of, minlength=4)
        assert counts.min() > 0
        assert counts.max() / counts.min() < 3.0

    def test_fanout_respects_shard_capacity(self):
        # Shards of 2 and 8 servers: fanout-8 queries only fit shard 1.
        workload = make_workload()
        fed = FederationConfig(
            (make_shard(2, workload=workload),
             make_shard(8, workload=workload)),
            workload=workload, router="jsq",
        )
        outcome = run_router(fed, fanout_value=8)
        assert np.all(outcome.shard_of == 1)

    def test_fanout_too_large_for_every_shard_raises(self):
        fed = make_fed(n_shards=2, n_servers=4)
        with pytest.raises(ConfigurationError, match="exceeds every shard"):
            run_router(fed, fanout_value=5)

    def test_tenant_router_pins_tenants_to_home_shards(self):
        fed = make_fed(n_shards=4, router="tenant", n_tenants=16)
        outcome = run_router(fed)
        assert outcome.tenant_of is not None
        assert np.array_equal(outcome.shard_of,
                              outcome.tenant_of % fed.n_shards)

    def test_tenant_skew_concentrates_load(self):
        fed = make_fed(n_shards=4, router="tenant", n_tenants=4,
                       tenant_alpha=3.0)
        counts = np.bincount(run_router(fed).shard_of, minlength=4)
        # Zipf alpha=3 over 4 tenants: the hot tenant's home shard
        # dominates.
        assert counts.max() > counts.sum() / 2

    def test_least_slack_prefers_tightest_feasible_fit(self):
        # Identical budgets, zero backlog: best-fit keeps packing the
        # first shard until its slack drops below the others'.
        fed = make_fed(n_shards=3, router="least-slack")
        outcome = run_router(fed, m=50, spacing=0.0)
        assert np.all(outcome.shard_of == 0)

    def test_scored_least_slack_prefers_fast_tail_shard(self):
        # One fast shard (mean 1 ms) and one slow (mean 4 ms).  Plain
        # least-slack is a tightest-fit packer: the slow shard's smaller
        # budget means smaller slack, so it fills first.  With a
        # tail-weighted ReplicaScorer the ranking flips — zero backlog
        # makes the score the tail term alone, and the fast shard wins.
        workload = make_workload()
        # NB make_workload's mean_ms is Exponential's *rate*: 0.25 -> a
        # 4 ms mean, four times slower than the default shard.
        shards = (make_shard(4, workload=workload),
                  make_shard(4, workload=make_workload(mean_ms=0.25)))
        plain = FederationConfig(shards, workload=workload,
                                 router="least-slack")
        scored = plain.with_scorer(ReplicaScorer(tail_weight=1.0))
        assert run_router(plain, m=50).shard_of[0] == 1
        outcome = run_router(scored, m=200)
        assert outcome.shard_of[0] == 0
        counts = np.bincount(outcome.shard_of, minlength=2)
        assert counts[0] > counts[1]

    def test_outcome_shapes(self):
        fed = make_fed(n_shards=2)
        outcome = run_router(fed, m=123)
        assert isinstance(outcome, RouteOutcome)
        assert outcome.shard_of.shape == (123,)
        assert outcome.spilled.shape == (123,)
        assert not outcome.spilled.any()


class TestSpill:
    def test_hot_home_shard_spills_to_slack(self):
        # One tenant, every query to shard 0, arrivals far faster than
        # the shard drains: backlog exceeds the budget and spill kicks
        # in — strictly after the backlog has had time to build.
        fed = make_fed(n_shards=2, n_servers=2, router="tenant",
                       n_tenants=1, spill=SpillPolicy())
        outcome = run_router(fed, m=600, spacing=0.0)
        assert outcome.spilled.sum() > 0
        assert not outcome.spilled[:50].any()
        # Spilled queries went off-home (home is shard 0 for tenant 0).
        assert np.all(outcome.shard_of[outcome.spilled] == 1)

    def test_margin_delays_spill_onset(self):
        # A larger margin tolerates more backlog before the first
        # overflow hop (the eventual steady-state split is symmetric,
        # so the onset index is the observable).
        fed_tight = make_fed(n_shards=2, n_servers=2, router="tenant",
                             n_tenants=1, spill=SpillPolicy(margin_ms=0.0))
        fed_loose = fed_tight.with_spill(SpillPolicy(margin_ms=100.0))
        tight = run_router(fed_tight, m=600, spacing=0.0)
        loose = run_router(fed_loose, m=600, spacing=0.0)
        assert tight.spilled.any() and loose.spilled.any()
        assert (np.flatnonzero(loose.spilled)[0]
                > np.flatnonzero(tight.spilled)[0])

    def test_spill_never_picks_ineligible_shard(self):
        workload = make_workload(slo_ms=0.5)  # infeasible budgets
        fed = FederationConfig(
            (make_shard(2, workload=workload),
             make_shard(8, workload=workload)),
            workload=workload, router="jsq", spill=SpillPolicy(),
        )
        outcome = run_router(fed, m=200, fanout_value=4, spacing=0.0)
        assert np.all(outcome.shard_of == 1)


class TestFederationResult:
    def test_summary_and_shard_rows(self):
        fed = make_fed(n_shards=3, router="jsq", n_queries=900)
        result = simulate_federation(fed)
        summary = result.summary()
        for key in ("offered_load", "utilization", "n_shards",
                    "total_servers", "spilled", "spill_ratio",
                    "shard_imbalance"):
            assert key in summary
        assert summary["n_shards"] == 3.0
        rows = result.shard_rows()
        assert len(rows) == 3
        assert sum(row["queries"] for row in rows) == 900
        assert result.spill_ratio() == 0.0
        assert result.shard_imbalance() >= 1.0

    def test_empty_shard_yields_none_result(self):
        workload = make_workload()
        # Fanout-4 queries cannot fit a 2-server shard under jsq.
        fed = FederationConfig(
            (make_shard(2, workload=workload),
             make_shard(8, workload=workload)),
            workload=Workload(
                "fixed", PoissonArrivals(2.0), UniformFanout(4, 4),
                workload.class_mix, workload.service_time,
            ),
            n_queries=300,
        )
        result = simulate_federation(fed)
        assert result.shards[0] is None
        assert result.shards[1] is not None
        assert result.merged.latency.size == 300
        assert result.merged.n_servers == 10  # includes the idle shard

    def test_federation_recorder_carries_shard_dimension(self):
        recorder = TraceRecorder()
        fed = make_fed(n_shards=2, n_servers=4, n_queries=600,
                       recorder=recorder)
        result = simulate_federation(fed)
        assert result.merged.obs is recorder
        server_ids = {
            event.server_id for event in recorder.events
            if event.server_id >= 0
        }
        # Servers from both shards appear under the merged flat index.
        assert any(sid >= 4 for sid in server_ids)
        assert all(0 <= sid < 8 for sid in server_ids)
        query_ids = {
            event.query_id for event in recorder.events
            if event.query_id >= 0
        }
        assert max(query_ids) < 600
        # Attribution and SLO accounting work at federation scope.
        table = result.attribution().mechanism_table()
        assert "queueing" in table
        from repro.obs import SLOAccountant
        accountant = SLOAccountant.from_result(result.merged)
        assert accountant.burn_rates()

    def test_federation_merge_is_each_shard_stream_remapped(self):
        """The merged stream is shard 0's events, then shard 1's, each
        exactly as its shard recorded it, with server ids offset into
        the flat index, query ids mapped through the routed indices
        and ``seq`` renumbered."""
        recorder = TraceRecorder()
        fed = make_fed(n_shards=2, n_servers=4, n_queries=600,
                       recorder=recorder)
        result = simulate_federation(fed)
        offsets = fed.server_offsets()
        expected = []
        for s, shard in enumerate(result.shards):
            routed = np.flatnonzero(result.shard_of == s)
            for event in shard.obs.events:
                row = event.to_dict()
                row["seq"] = len(expected)
                if "server_id" in row:
                    row["server_id"] += offsets[s]
                if "query_id" in row:
                    row["query_id"] = int(routed[row["query_id"]])
                expected.append(row)
        assert all(shard.obs is not recorder for shard in result.shards)
        assert len(expected) > 1000
        assert [event.to_dict() for event in recorder.events] == expected
