"""Determinism of the parallel experiment runner.

The whole point of :mod:`repro.experiments.parallel` is that fanning
independent ``simulate()`` calls over worker processes never changes a
result: seeds are pinned per task *before* anything is submitted, so
``workers=4`` must reproduce ``workers=1`` bit for bit.  These tests
pin that contract on miniature fig4/fig6 grids (small enough for the
CI box; the parallel paths still genuinely cross process boundaries).
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.cluster import ClusterConfig, simulate
from repro.cluster.results import SimulationResult, Timeline
from repro.core import AdmissionFactory, DeadlineMissRatioAdmission
from repro.errors import ExperimentError
from repro.experiments import (
    find_max_load,
    load_sweep,
    run_simulations,
)
from repro.experiments.parallel import resolve_workers
from repro.experiments.setups import (
    paper_oldi_config,
    paper_single_class_config,
)
from repro.obs import TraceRecorder
from tests.integration.test_replica_equivalence import (
    controller_fingerprint,
    workload_config as replica_config,
)


def assert_same_result(got: SimulationResult, want: SimulationResult):
    """Every ``SimulationResult`` field of ``got`` equals ``want``'s.

    Walks ``dataclasses.fields`` so a field added later is compared
    without anyone listing it here.  Live controller objects compare
    by their observable state, the recorder by its aggregates.
    """
    for field in dataclasses.fields(SimulationResult):
        name = field.name
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if b is None:
            continue
        if name == "replicas":
            assert controller_fingerprint(a) == controller_fingerprint(b)
        elif name == "overload":
            assert a.probability_trace == b.probability_trace
        elif name == "obs":
            assert a.counters == b.counters
            assert len(a.events) == len(b.events)
            assert a.latency_hist.snapshot() == b.latency_hist.snapshot()
        elif name == "timeline":
            for column in dataclasses.fields(Timeline):
                np.testing.assert_array_equal(getattr(a, column.name),
                                              getattr(b, column.name))
        elif isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b, equal_nan=True), name
        else:
            assert a == b, name


@pytest.fixture(scope="module")
def fig4_mini() -> ClusterConfig:
    return paper_single_class_config("masstree", 0.8, n_queries=3_000)


@pytest.fixture(scope="module")
def fig6_mini() -> ClusterConfig:
    return paper_oldi_config("masstree", 1.0, 1.5, n_queries=600)


class TestResolveWorkers:
    def test_serial_spellings(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(1) == 1

    def test_explicit_count_passes_through(self):
        assert resolve_workers(4) == 4

    def test_minus_one_means_all_cpus(self):
        assert resolve_workers(-1) >= 1

    def test_other_negatives_rejected(self):
        with pytest.raises(ExperimentError):
            resolve_workers(-2)


class TestMaxLoadDeterminism:
    def test_workers_match_serial_probe_for_probe(self, fig4_mini):
        kwargs = dict(lo=0.2, hi=0.6, tol=0.05, seeds=(1, 2))
        serial = find_max_load(fig4_mini, **kwargs)
        parallel = find_max_load(fig4_mini, workers=4, **kwargs)
        assert parallel.max_load == serial.max_load
        # Not just the answer: the entire probe history (loads probed,
        # feasibility votes, order) must be identical.
        assert parallel.history == serial.history

    def test_speculative_stays_within_tol(self, fig4_mini):
        kwargs = dict(lo=0.2, hi=0.6, tol=0.05, seeds=(1, 2))
        plain = find_max_load(fig4_mini, **kwargs)
        spec = find_max_load(fig4_mini, workers=4, speculative=3, **kwargs)
        # Speculative bisection probes a different (deterministic) load
        # sequence, so the boundary may shift by at most one bracket.
        assert abs(spec.max_load - plain.max_load) <= kwargs["tol"]
        # The returned load must itself have probed feasible (or be lo).
        feasible = {load for load, ok in spec.history if ok}
        assert spec.max_load in feasible or spec.max_load == kwargs["lo"]

    def test_speculative_validation(self, fig4_mini):
        with pytest.raises(ExperimentError):
            find_max_load(fig4_mini, speculative=0)


class TestSweepDeterminism:
    def test_workers_match_serial_bit_for_bit(self, fig6_mini):
        loads = (0.3, 0.5)
        serial = load_sweep(fig6_mini, loads, seed=3)
        parallel = load_sweep(fig6_mini, loads, seed=3, workers=4)
        # SweepPoint is a frozen dataclass of floats/dicts: equality
        # here is bit-identity of every tail, ratio and load.
        assert parallel == serial

    def test_seed_none_falls_back_to_config_seed(self, fig6_mini):
        loads = (0.3,)
        first = load_sweep(fig6_mini, loads, seed=None)
        second = load_sweep(fig6_mini, loads, seed=None, workers=2)
        assert first == second

    def test_parallel_rejects_shared_admission_controller(self, fig6_mini):
        from dataclasses import replace

        shared = replace(
            fig6_mini, admission=DeadlineMissRatioAdmission(threshold=0.05))
        with pytest.raises(ExperimentError):
            load_sweep(shared, (0.3, 0.5), seed=1, workers=2)

    def test_parallel_admission_factory_matches_serial(self, fig4_mini):
        factory = AdmissionFactory(
            DeadlineMissRatioAdmission,
            {"threshold": 0.05, "min_samples": 200},
        )
        loads = (0.4, 0.6)
        serial = load_sweep(fig4_mini, loads, seed=2,
                            admission_factory=factory)
        parallel = load_sweep(fig4_mini, loads, seed=2,
                              admission_factory=factory, workers=2)
        assert parallel == serial

    def test_admission_factory_is_picklable(self):
        factory = AdmissionFactory(DeadlineMissRatioAdmission,
                                   {"threshold": 0.01})
        clone = pickle.loads(pickle.dumps(factory))
        controller = clone()
        assert isinstance(controller, DeadlineMissRatioAdmission)


class TestRunSimulations:
    def test_seed_stability_arrays_identical_across_workers(self, fig6_mini):
        """Same config + seed => every ``SimulationResult`` field is
        identical whether run with 1 worker or 4: raw arrays, scalar
        counters, the replica controller and the timeline, not just
        the derived statistics.  The replica-policy and timeline
        configs sit after the first, so a field the pool fails to
        carry home cannot hide behind a result built in the parent."""
        from repro.faults import CrashProcess, FaultPlan, RetryPolicy

        plan = FaultPlan(crashes=CrashProcess(mtbf_ms=80.0, mttr_ms=5.0,
                                              seed=11),
                         retry=RetryPolicy(max_retries=1, backoff_ms=0.7))
        configs = [
            fig6_mini.at_load(0.5).with_seed(13),
            replica_config(seed=12),
            fig6_mini.at_load(0.7).with_seed(13),
            fig6_mini.at_load(0.5).with_seed(13).with_faults(plan),
            fig6_mini.at_load(0.6).with_seed(13).evolve(
                timeline_interval_ms=2.0),
        ]
        serial = run_simulations(configs, workers=1)
        assert serial[1].hedges_suppressed > 0
        assert serial[4].timeline is not None
        parallel = run_simulations(configs, workers=4)
        for s, p in zip(serial, parallel):
            assert_same_result(p, s)

    def test_preserves_input_order(self, fig6_mini):
        configs = [fig6_mini.at_load(load).with_seed(7)
                   for load in (0.3, 0.45, 0.6)]
        serial = run_simulations(configs)
        parallel = run_simulations(configs, workers=4)
        assert len(parallel) == len(configs)
        for s, p in zip(serial, parallel):
            assert p.per_type_tails() == s.per_type_tails()
            assert p.deadline_miss_ratio() == s.deadline_miss_ratio()

    def test_empty_configs_rejected(self):
        with pytest.raises(ExperimentError):
            run_simulations([])

    def test_obs_merged_home_matches_serial(self, fig6_mini):
        """A shared recorder ends with the serial aggregates: two configs
        sharing it, a recorder that already holds one run, and sixteen
        configs sharing it in pool chunks of two (both used to count
        the shared recorder's contents twice)."""
        from dataclasses import replace

        def run(workers, loads, held):
            recorder = TraceRecorder()
            for load in held:
                simulate(replace(fig6_mini.at_load(load).with_seed(5),
                                 recorder=recorder))
            configs = [
                replace(fig6_mini.at_load(load).with_seed(5),
                        recorder=recorder)
                for load in loads
            ]
            run_simulations(configs, workers=workers)
            return recorder

        # (loads, runs the recorder already holds, exact histogram sum):
        # a merge adds whole-run sums, which can round differently from
        # one running sum, so the later cases compare the sum to 1e-12.
        cases = [
            ((0.3, 0.5), (), True),
            ((0.5,), (0.3,), False),
            (tuple(0.2 + 0.025 * i for i in range(16)), (), False),
        ]
        for loads, held, exact_sum in cases:
            serial = run(None, loads, held)
            merged = run(2, loads, held)
            assert merged.counters == serial.counters
            merged_hist = merged.latency_hist.snapshot()
            serial_hist = serial.latency_hist.snapshot()
            if not exact_sum:
                assert merged_hist.pop("sum") == pytest.approx(
                    serial_hist.pop("sum"), rel=1e-12)
            assert merged_hist == serial_hist
            assert len(merged.events) == len(serial.events)

    def test_results_rebound_to_parent_recorder(self, fig6_mini):
        from dataclasses import replace

        recorder = TraceRecorder()
        config = replace(fig6_mini.at_load(0.3).with_seed(5),
                         recorder=recorder)
        result = run_simulations([config], workers=2)[0]
        assert result.obs is recorder

    def test_overload_and_attribution_survive_pool(self, fig6_mini):
        """coverage/degraded arrays, the overload controller and the
        attr_* columns must come home from a worker unchanged: an
        overloaded, traced, degrading run fanned out with workers=2
        reproduces the serial result and attribution bit for bit."""
        from repro.overload import (
            AdaptiveAdmissionPolicy,
            DegradePolicy,
            OverloadPolicy,
        )

        policy = OverloadPolicy(
            admission=AdaptiveAdmissionPolicy(
                target_miss_ratio=0.05, window_tasks=300, window_ms=40.0,
                min_samples=50, ctl_interval_ms=2.0),
            degrade=DegradePolicy(min_coverage=0.5, pressure_alpha=0.1,
                                  safety=1.0),
        )

        def run(workers):
            recorder = TraceRecorder()
            overloaded = fig6_mini.at_load(1.4).with_seed(7).evolve(
                recorder=recorder, overload=policy)
            plain = fig6_mini.at_load(0.4).with_seed(7)
            return run_simulations([overloaded, plain], workers=workers)

        serial = run(None)
        parallel = run(2)
        for s, p in zip(serial, parallel):
            assert_same_result(p, s)
        hot_s, hot_p = serial[0], parallel[0]
        assert hot_s.degraded_queries > 0
        assert hot_p.attribution_summary() == hot_s.attribution_summary()

    def test_repeat_calls_reuse_pool_and_stay_identical(self, fig6_mini):
        """The persistent pool must not leak state between calls:
        back-to-back fan-outs of the same grid agree bit for bit."""
        configs = [fig6_mini.at_load(load).with_seed(3)
                   for load in (0.3, 0.5, 0.7)]
        first = run_simulations(configs, workers=2)
        second = run_simulations(configs, workers=2)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.latency, b.latency)
            assert a.busy_time_total == b.busy_time_total
