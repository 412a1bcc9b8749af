"""Unit tests for the fault-model layer (repro.faults.plan)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    CrashProcess,
    Downtime,
    FaultPlan,
    HedgePolicy,
    RetryPolicy,
    StragglerEpisode,
    fault_horizon,
    pick_server,
)
from repro.faults.plan import FAIL, RECOVER
from repro.replicas import (
    AdaptiveHedgePolicy,
    HedgeSuppressionPolicy,
    ReplicaScorer,
)


class TestValidation:
    def test_downtime_rejects_bad_window(self):
        with pytest.raises(ConfigurationError):
            Downtime(0, 5.0, 5.0)
        with pytest.raises(ConfigurationError):
            Downtime(0, -1.0, 5.0)
        with pytest.raises(ConfigurationError):
            Downtime(-1, 0.0, 5.0)

    def test_crash_process_rejects_bad_rates(self):
        with pytest.raises(ConfigurationError):
            CrashProcess(mtbf_ms=0.0, mttr_ms=1.0)
        with pytest.raises(ConfigurationError):
            CrashProcess(mtbf_ms=1.0, mttr_ms=-1.0)

    def test_straggler_rejects_speedup(self):
        with pytest.raises(ConfigurationError):
            StragglerEpisode((0,), 0.0, 10.0, 0.5)
        with pytest.raises(ConfigurationError):
            StragglerEpisode((), 0.0, 10.0, 2.0)

    def test_retry_policy_bounds(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_ms=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout_ms=0.0)

    def test_hedge_policy_bounds(self):
        with pytest.raises(ConfigurationError):
            HedgePolicy(quantile=1.0)
        with pytest.raises(ConfigurationError):
            HedgePolicy(delay_ms=0.0)
        with pytest.raises(ConfigurationError):
            HedgePolicy(max_hedges=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("build", [
        lambda v: RetryPolicy(backoff_ms=v),
        lambda v: RetryPolicy(timeout_ms=v),
        lambda v: HedgePolicy(delay_ms=v),
        lambda v: CrashProcess(mtbf_ms=v, mttr_ms=1.0),
        lambda v: CrashProcess(mtbf_ms=1.0, mttr_ms=v),
        lambda v: StragglerEpisode((0,), 0.0, 10.0, v),
        lambda v: ReplicaScorer(tail_weight=v),
        lambda v: HedgeSuppressionPolicy(pressure_threshold_ms=v),
        lambda v: AdaptiveHedgePolicy(max_duplicate_fraction=v),
    ], ids=["backoff", "timeout", "hedge-delay", "mtbf", "mttr",
            "straggler-factor", "tail-weight", "pressure-threshold",
            "duplicate-budget"])
    def test_non_finite_values_rejected(self, build, value):
        # ``x < 0``-style checks are False for NaN; each field must say
        # so up front instead of corrupting event times downstream.
        with pytest.raises(ConfigurationError, match="finite"):
            build(value)

    def test_overlapping_windows_rejected(self):
        plan = FaultPlan(downtimes=(Downtime(0, 0.0, 10.0),
                                    Downtime(0, 5.0, 15.0)))
        with pytest.raises(ConfigurationError):
            plan.materialize(4, 100.0)

    def test_downtime_beyond_cluster_rejected(self):
        plan = FaultPlan(downtimes=(Downtime(9, 0.0, 10.0),))
        with pytest.raises(ConfigurationError):
            plan.materialize(4, 100.0)


class TestActivity:
    def test_empty_plan_is_inactive(self):
        assert not FaultPlan().active

    def test_retry_alone_is_inactive(self):
        # Mitigations without a failure source change nothing.
        assert not FaultPlan(retry=RetryPolicy()).active

    def test_hedge_alone_is_active(self):
        # Hedging cuts the tail even without crashes.
        assert FaultPlan(hedge=HedgePolicy(delay_ms=1.0)).active

    def test_kill_mode_follows_retry(self):
        assert not FaultPlan(downtimes=(Downtime(0, 1.0, 2.0),)).kill_mode
        assert FaultPlan(downtimes=(Downtime(0, 1.0, 2.0),),
                         retry=RetryPolicy()).kill_mode


class TestCrashProcess:
    def test_materialize_is_deterministic(self):
        process = CrashProcess(mtbf_ms=50.0, mttr_ms=5.0, seed=3)
        first = process.materialize(4, 1000.0)
        second = process.materialize(4, 1000.0)
        assert first == second

    def test_different_seeds_differ(self):
        a = CrashProcess(mtbf_ms=50.0, mttr_ms=5.0, seed=3)
        b = CrashProcess(mtbf_ms=50.0, mttr_ms=5.0, seed=4)
        assert a.materialize(4, 1000.0) != b.materialize(4, 1000.0)

    def test_windows_respect_horizon_and_servers(self):
        process = CrashProcess(mtbf_ms=20.0, mttr_ms=2.0,
                               server_ids=(1, 2), seed=0)
        for window in process.materialize(4, 500.0):
            assert window.server_id in (1, 2)
            assert window.start_ms < 500.0


class TestMaterialized:
    def plan(self):
        return FaultPlan(
            downtimes=(Downtime(0, 10.0, 20.0), Downtime(1, 15.0, 25.0)),
            stragglers=(StragglerEpisode((1,), 0.0, 50.0, 2.0),),
        )

    def test_transitions_sorted(self):
        transitions = self.plan().materialize(4, 100.0).transitions()
        assert transitions == [
            (10.0, 0, FAIL), (15.0, 1, FAIL),
            (20.0, 0, RECOVER), (25.0, 1, RECOVER),
        ]

    def test_is_down(self):
        mf = self.plan().materialize(4, 100.0)
        assert not mf.is_down(0, 9.9)
        assert mf.is_down(0, 10.0)
        assert mf.is_down(0, 19.9)
        assert not mf.is_down(0, 20.0)
        assert not mf.is_down(3, 12.0)

    def test_straggler_factor(self):
        mf = self.plan().materialize(4, 100.0)
        assert mf.straggler_factor(1, 25.0) == 2.0
        assert mf.straggler_factor(1, 50.0) == 1.0
        assert mf.straggler_factor(0, 25.0) == 1.0


class TestPickServer:
    def test_least_loaded_wins(self):
        assert pick_server([3, 1, 2], [True, True, True]) == 1

    def test_ties_break_low(self):
        assert pick_server([2, 1, 1], [True, True, True]) == 1

    def test_down_and_excluded_skipped(self):
        assert pick_server([0, 1, 2], [False, True, True], exclude=(1,)) == 2

    def test_no_candidate(self):
        assert pick_server([0, 0], [False, False]) == -1


class TestHedgeDelay:
    def test_explicit_delay_wins(self):
        from repro.distributions import Deterministic
        policy = HedgePolicy(quantile=0.9, delay_ms=4.0)
        assert policy.delay_for(Deterministic(100.0)) == 4.0

    def test_quantile_delay(self):
        from repro.distributions import Deterministic
        policy = HedgePolicy(quantile=0.9)
        assert policy.delay_for(Deterministic(3.0)) == 3.0


def test_fault_horizon_formula():
    assert fault_horizon(0.0) == 1000.0
    assert fault_horizon(100.0) == 1150.0
