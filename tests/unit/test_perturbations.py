"""Unit tests for failure injection (service perturbations)."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, simulate
from repro.cluster.config import ServicePerturbation
from repro.distributions import Deterministic
from repro.errors import ConfigurationError
from repro.types import QuerySpec, ServiceClass


@pytest.fixture
def gold():
    return ServiceClass("gold", slo_ms=100.0)


class TestServicePerturbation:
    def test_validation(self, gold):
        with pytest.raises(ConfigurationError):
            ServicePerturbation((), 0.0, 1.0, 2.0)
        with pytest.raises(ConfigurationError):
            ServicePerturbation((0,), 5.0, 1.0, 2.0)
        with pytest.raises(ConfigurationError):
            ServicePerturbation((0,), 0.0, 1.0, 0.0)
        for factor in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ConfigurationError, match="finite"):
                ServicePerturbation((0,), 0.0, 1.0, factor)
        # Server ids outside [0, n) would silently never apply.
        for sid in (100, 500, -1):
            with pytest.raises(ConfigurationError, match="outside"):
                ClusterConfig(
                    n_servers=100, policy="fifo",
                    specs=[QuerySpec(0, 0.0, 1, gold, servers=(0,))],
                    server_cdfs={s: Deterministic(1.0) for s in range(100)},
                    perturbations=(
                        ServicePerturbation((0, sid), 0.0, 1.0, 2.0),),
                )

    def test_applies_window_and_servers(self):
        perturbation = ServicePerturbation((1, 2), 10.0, 20.0, 3.0)
        assert perturbation.applies(1, 15.0)
        assert not perturbation.applies(0, 15.0)
        assert not perturbation.applies(1, 9.9)
        assert not perturbation.applies(1, 20.0)  # half-open interval


class TestPerturbedSimulation:
    def _specs(self, gold, times):
        return [QuerySpec(i, t, 1, gold, servers=(0,))
                for i, t in enumerate(times)]

    def test_slowdown_scales_service_times(self, gold):
        """Queries served inside the window take factor x longer."""
        specs = self._specs(gold, [0.0, 10.0, 30.0])
        perturbation = ServicePerturbation((0,), 9.0, 20.0, 5.0)
        config = ClusterConfig(
            n_servers=1, policy="fifo", specs=specs,
            server_cdfs={0: Deterministic(1.0)},
            warmup_fraction=0.0,
            perturbations=(perturbation,),
        )
        result = simulate(config)
        assert result.latency[0] == pytest.approx(1.0)   # before window
        assert result.latency[1] == pytest.approx(5.0)   # inside window
        assert result.latency[2] == pytest.approx(1.0)   # after window

    def test_unaffected_server_untouched(self, gold):
        specs = [QuerySpec(0, 10.0, 1, gold, servers=(1,))]
        perturbation = ServicePerturbation((0,), 0.0, 100.0, 5.0)
        config = ClusterConfig(
            n_servers=2, policy="fifo", specs=specs,
            server_cdfs={0: Deterministic(1.0), 1: Deterministic(1.0)},
            warmup_fraction=0.0,
            perturbations=(perturbation,),
        )
        result = simulate(config)
        assert result.latency[0] == pytest.approx(1.0)

    def test_speedup_factor(self, gold):
        specs = [QuerySpec(0, 10.0, 1, gold, servers=(0,))]
        perturbation = ServicePerturbation((0,), 0.0, 100.0, 0.5)
        config = ClusterConfig(
            n_servers=1, policy="fifo", specs=specs,
            server_cdfs={0: Deterministic(2.0)},
            warmup_fraction=0.0,
            perturbations=(perturbation,),
        )
        result = simulate(config)
        assert result.latency[0] == pytest.approx(1.0)

    def test_tail_between_windows(self, gold):
        """Windowed tail analysis separates the transient."""
        times = np.linspace(0.0, 100.0, 200)
        specs = self._specs(gold, list(times))
        perturbation = ServicePerturbation((0,), 40.0, 60.0, 10.0)
        config = ClusterConfig(
            n_servers=1, policy="fifo", specs=specs,
            server_cdfs={0: Deterministic(0.2)},
            warmup_fraction=0.0,
            perturbations=(perturbation,),
        )
        result = simulate(config)
        calm = result.tail_between(0.0, 35.0, 95.0)
        stormy = result.tail_between(40.0, 60.0, 95.0)
        assert stormy > calm

    def test_tail_between_validation(self, gold):
        specs = self._specs(gold, [0.0])
        config = ClusterConfig(
            n_servers=1, policy="fifo", specs=specs,
            server_cdfs={0: Deterministic(1.0)}, warmup_fraction=0.0,
        )
        result = simulate(config)
        with pytest.raises(ConfigurationError):
            result.tail_between(5.0, 1.0)
        with pytest.raises(ConfigurationError):
            result.tail_between(500.0, 600.0)
