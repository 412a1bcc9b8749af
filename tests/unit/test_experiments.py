"""Unit tests for the experiment harness: reports, max-load search,
sweeps and the registry."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.errors import ExperimentError
from repro.experiments import find_max_load, load_sweep
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment
from repro.experiments.report import ExperimentReport
from repro.experiments.setups import (
    multi_class_config,
    paper_oldi_config,
    paper_single_class_config,
    paper_two_class_config,
)


class TestExperimentReport:
    def test_add_row_validates_columns(self):
        report = ExperimentReport("x", "t", columns=["a", "b"])
        with pytest.raises(ExperimentError):
            report.add_row(a=1)
        report.add_row(a=1, b=2)
        assert report.rows == [{"a": 1, "b": 2}]

    def test_column_extraction(self):
        report = ExperimentReport("x", "t", columns=["a"])
        report.add_row(a=1)
        report.add_row(a=2)
        assert report.column("a") == [1, 2]
        with pytest.raises(ExperimentError):
            report.column("ghost")

    def test_select_filters(self):
        report = ExperimentReport("x", "t", columns=["policy", "v"])
        report.add_row(policy="fifo", v=1)
        report.add_row(policy="tailguard", v=2)
        assert report.select(policy="tailguard") == [
            {"policy": "tailguard", "v": 2}
        ]

    def test_format_table_contains_data(self):
        report = ExperimentReport("x", "demo", columns=["a"], notes="hello")
        report.add_row(a=0.123456)
        text = report.format_table()
        assert "demo" in text
        assert "0.1235" in text
        assert "hello" in text

    def test_to_dict_roundtrip_fields(self):
        report = ExperimentReport("x", "t", parameters={"n": 1},
                                  columns=["a"])
        report.add_row(a=1)
        data = report.to_dict()
        assert data["experiment_id"] == "x"
        assert data["rows"] == [{"a": 1}]


class TestSetups:
    def test_single_class_setup(self):
        config = paper_single_class_config("masstree", 1.0, n_queries=100)
        assert config.n_servers == 100
        assert len(config.workload.class_mix) == 1
        assert config.workload.fanout.support() == (1, 10, 100)

    def test_two_class_setup_ratio(self):
        config = paper_two_class_config("masstree", 1.0, ratio=1.5)
        slos = sorted(c.slo_ms for c in config.workload.class_mix.classes)
        assert slos == [1.0, 1.5]

    def test_oldi_setup_fixed_fanout(self):
        config = paper_oldi_config("xapian", 10.0, 15.0, n_servers=50)
        assert config.workload.fanout.support() == (50,)

    def test_multi_class_setup(self):
        config = multi_class_config("masstree", [1.0, 2.0, 3.0])
        assert len(config.workload.class_mix) == 3

    def test_pareto_arrivals_option(self):
        from repro.workloads import ParetoArrivals

        config = paper_two_class_config("masstree", 1.0, arrival="pareto")
        assert isinstance(config.workload.arrivals, ParetoArrivals)

    def test_mmpp_arrivals_option(self):
        from repro.workloads import MMPPArrivals

        config = paper_two_class_config("masstree", 1.0, arrival="mmpp")
        assert isinstance(config.workload.arrivals, MMPPArrivals)

    def test_unknown_arrival_rejected(self):
        with pytest.raises(ExperimentError):
            paper_single_class_config("masstree", 1.0, arrival="weibull")


class TestMaxLoad:
    def test_finds_boundary_between_feasible_and_not(self):
        config = paper_single_class_config("masstree", 1.0,
                                           n_queries=4_000, seed=3)
        outcome = find_max_load(config, lo=0.05, hi=0.9, tol=0.05)
        assert 0.05 < outcome.max_load < 0.9
        assert outcome.policy_name == "tailguard"
        assert outcome.probes >= 3

    def test_infeasible_slo_gives_zero(self):
        config = paper_single_class_config("masstree", 0.05,
                                           n_queries=1_000, seed=3)
        outcome = find_max_load(config, lo=0.05, hi=0.5, tol=0.05)
        assert outcome.max_load == 0.0

    def test_trivial_slo_returns_hi(self):
        config = paper_single_class_config("masstree", 1000.0,
                                           n_queries=1_000, seed=3)
        outcome = find_max_load(config, lo=0.05, hi=0.5, tol=0.05)
        assert outcome.max_load == 0.5

    def test_parameter_validation(self):
        config = paper_single_class_config("masstree", 1.0, n_queries=100)
        with pytest.raises(ExperimentError):
            find_max_load(config, lo=0.5, hi=0.2)
        with pytest.raises(ExperimentError):
            find_max_load(config, tol=0.0)
        # With no seed every probe was vacuously feasible, a NaN tol
        # ended the search after two probes, and with an infinite hi
        # the search never ended.
        with pytest.raises(ExperimentError):
            find_max_load(config, seeds=())
        with pytest.raises(ExperimentError):
            find_max_load(config, tol=float("nan"))
        with pytest.raises(ExperimentError):
            find_max_load(config, hi=float("inf"))


class TestLoadSweep:
    def test_sweep_points_per_load(self):
        config = paper_two_class_config("masstree", 1.0, n_queries=2_000,
                                        seed=3)
        points = load_sweep(config, [0.2, 0.4], seed=3)
        assert [p.offered_load for p in points] == [0.2, 0.4]
        assert set(points[0].class_tails_ms) == {"class-I", "class-II"}

    def test_tails_increase_with_load(self):
        config = paper_two_class_config("masstree", 1.0, n_queries=6_000,
                                        seed=3)
        points = load_sweep(config, [0.2, 0.6], seed=3)
        assert points[1].tail("class-I") > points[0].tail("class-I")

    def test_empty_loads_rejected(self):
        config = paper_two_class_config("masstree", 1.0, n_queries=100)
        with pytest.raises(ExperimentError):
            load_sweep(config, [])

    def test_unknown_class_tail_raises(self):
        config = paper_two_class_config("masstree", 1.0, n_queries=1_000)
        points = load_sweep(config, [0.2], seed=1)
        with pytest.raises(ExperimentError):
            points[0].tail("ghost")


class TestRegistry:
    def test_registry_complete(self):
        expected = {
            "fig3", "table2", "fig4", "table3", "fig5", "fig6",
            "fig6_summary", "fig7", "fig9a", "fig9", "fig9_summary",
            "ext_scale", "ext_fault_sweep", "ext_four_classes",
            "ext_overload_sweep", "ext_request_decomposition",
            "ext_arrival_burstiness", "ext_replica_selection",
            "ext_tail_attribution", "ext_federation",
            "ablation_inaccurate_cdf", "ablation_online_updating",
            "ablation_admission_threshold", "ablation_server_slowdown",
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            get_experiment("fig99")

    def test_fig3_runs_instantly(self):
        report = run_experiment("fig3", quick=True)
        assert report.experiment_id == "fig3"
        workloads = set(report.column("workload"))
        assert workloads == {"masstree", "shore", "xapian"}

    def test_table2_matches_paper_within_tolerance(self):
        report = run_experiment("table2", quick=True)
        for row in report.rows:
            assert row["model_ms"] == pytest.approx(row["paper_ms"], rel=0.01)

    def test_fig9a_matches_paper(self):
        report = run_experiment("fig9a", quick=True)
        for row in report.rows:
            assert row["model_ms"] == pytest.approx(row["paper_ms"], rel=0.01)


class TestSweepSeedPrecedence:
    """seed=None must fall back to config.seed, pinned per point
    *before* any simulation runs — so sweeps with per-point admission
    controllers are reproducible without an explicit seed argument."""

    def test_seed_none_reproducible_from_config_seed(self):
        from repro.core import AdmissionFactory, DeadlineMissRatioAdmission

        config = paper_single_class_config("masstree", 1.0,
                                           n_queries=1_500, seed=11)
        factory = AdmissionFactory(DeadlineMissRatioAdmission,
                                   {"threshold": 0.05, "min_samples": 100})
        first = load_sweep(config, [0.3, 0.5], seed=None,
                           admission_factory=factory)
        second = load_sweep(config, [0.3, 0.5], seed=None,
                            admission_factory=factory)
        assert first == second

    def test_explicit_seed_overrides_config_seed(self):
        a = paper_single_class_config("masstree", 1.0,
                                      n_queries=1_500, seed=3)
        b = paper_single_class_config("masstree", 1.0,
                                      n_queries=1_500, seed=9)
        # Same explicit seed -> identical points despite different
        # config seeds; different config seeds alone -> different.
        assert load_sweep(a, [0.4], seed=7) == load_sweep(b, [0.4], seed=7)
        assert load_sweep(a, [0.4], seed=None) != load_sweep(b, [0.4],
                                                             seed=None)
