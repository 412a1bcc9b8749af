"""Unit tests for arrival processes."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workloads import DeterministicArrivals, ParetoArrivals, PoissonArrivals


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestPoissonArrivals:
    def test_rate_validation(self):
        with pytest.raises(ConfigurationError):
            PoissonArrivals(0.0)
        # NaN drew NaN arrival times; inf put every arrival at t=0.
        for rate in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="finite"):
                PoissonArrivals(rate)

    def test_mean_interarrival(self, rng):
        process = PoissonArrivals(4.0)
        times = process.arrival_times(rng, 100_000)
        gaps = np.diff(np.concatenate([[0.0], times]))
        assert np.mean(gaps) == pytest.approx(0.25, rel=0.02)

    def test_times_are_increasing(self, rng):
        times = PoissonArrivals(1.0).arrival_times(rng, 1000)
        assert np.all(np.diff(times) > 0)

    def test_start_offset(self, rng):
        times = PoissonArrivals(1.0).arrival_times(rng, 10, start=100.0)
        assert times[0] > 100.0

    def test_with_rate(self):
        process = PoissonArrivals(1.0).with_rate(5.0)
        assert process.rate == 5.0
        assert isinstance(process, PoissonArrivals)

    def test_zero_count(self, rng):
        assert PoissonArrivals(1.0).arrival_times(rng, 0).size == 0


class TestParetoArrivals:
    def test_mean_rate_preserved(self, rng):
        process = ParetoArrivals(2.0)
        times = process.arrival_times(rng, 200_000)
        gaps = np.diff(np.concatenate([[0.0], times]))
        assert np.mean(gaps) == pytest.approx(0.5, rel=0.05)

    def test_burstier_than_poisson(self, rng):
        """Pareto interarrivals have a higher coefficient of variation."""
        poisson_gaps = np.diff(PoissonArrivals(1.0).arrival_times(rng, 100_000))
        pareto_gaps = np.diff(ParetoArrivals(1.0).arrival_times(rng, 100_000))
        cv_poisson = np.std(poisson_gaps) / np.mean(poisson_gaps)
        cv_pareto = np.std(pareto_gaps) / np.mean(pareto_gaps)
        assert cv_pareto > cv_poisson * 1.5

    def test_with_rate_preserves_shape(self):
        process = ParetoArrivals(1.0, shape=1.3, spread=500.0).with_rate(2.0)
        assert process.shape == 1.3
        assert process.spread == 500.0
        assert process.rate == 2.0

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            ParetoArrivals(1.0, shape=0.0)
        with pytest.raises(ConfigurationError):
            ParetoArrivals(1.0, spread=0.5)


class TestDeterministicArrivals:
    def test_evenly_spaced(self):
        times = DeterministicArrivals(2.0).arrival_times(None, 4)
        assert np.allclose(times, [0.5, 1.0, 1.5, 2.0])

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            DeterministicArrivals(1.0).arrival_times(None, -1)
