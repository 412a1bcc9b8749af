"""Query arrival processes.

The paper models arrivals as Poisson by default and uses a burstier
Pareto interarrival process for the sensitivity case in §IV.B
(Fig. 5b).  An arrival process here is just a named interarrival
distribution with a rate; the simulator asks for blocks of arrival
times.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.distributions import BoundedPareto, Deterministic, Distribution, Exponential
from repro.errors import ConfigurationError


class ArrivalProcess:
    """Renewal arrival process defined by an interarrival distribution."""

    def __init__(self, rate: float) -> None:
        if not 0 < rate < math.inf:
            raise ConfigurationError(
                f"arrival rate must be finite and positive, got {rate}")
        self.rate = float(rate)

    def interarrival_distribution(self) -> Distribution:
        raise NotImplementedError

    def arrival_times(self, rng: np.random.Generator, n: int,
                      start: float = 0.0) -> np.ndarray:
        """``n`` arrival timestamps starting after ``start``."""
        if n < 0:
            raise ConfigurationError(f"n must be >= 0, got {n}")
        gaps = np.asarray(self.interarrival_distribution().sample(rng, n),
                          dtype=float)
        return start + np.cumsum(gaps)

    def with_rate(self, rate: float) -> "ArrivalProcess":
        """A copy of this process re-parameterized to a new mean rate.

        The max-load bisection sweeps the rate while keeping the
        process *shape* fixed, which is what this hook provides.
        """
        raise NotImplementedError

    @property
    def name(self) -> str:
        return type(self).__name__


class PoissonArrivals(ArrivalProcess):
    """Poisson process: exponential interarrivals with mean ``1/rate``."""

    def interarrival_distribution(self) -> Distribution:
        return Exponential(self.rate)

    def with_rate(self, rate: float) -> "PoissonArrivals":
        return PoissonArrivals(rate)


class ParetoArrivals(ArrivalProcess):
    """Bursty renewal process with bounded-Pareto interarrivals.

    ``shape`` close to 1 gives strong burstiness; the bounds keep the
    mean finite so a load can be defined.  ``spread`` is the ratio of
    the longest to the shortest possible gap.
    """

    def __init__(self, rate: float, shape: float = 1.1,
                 spread: float = 1000.0) -> None:
        super().__init__(rate)
        if shape <= 0:
            raise ConfigurationError(f"shape must be positive, got {shape}")
        if spread <= 1:
            raise ConfigurationError(f"spread must exceed 1, got {spread}")
        self.shape = float(shape)
        self.spread = float(spread)
        self._dist = BoundedPareto.from_mean(1.0 / rate, shape, spread)

    def interarrival_distribution(self) -> Distribution:
        return self._dist

    def with_rate(self, rate: float) -> "ParetoArrivals":
        return ParetoArrivals(rate, self.shape, self.spread)


class MMPPArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process.

    The process alternates between a *calm* and a *burst* state with
    exponentially distributed sojourns; arrivals are Poisson at the
    state's rate.  Unlike the (renewal) Pareto process, an MMPP has
    *correlated* interarrival times — consecutive arrivals cluster in
    burst episodes — which probes a different kind of burstiness than
    Fig. 5(b).

    Parameters
    ----------
    rate:
        Long-run mean arrival rate.
    burst_factor:
        Ratio of the burst-state rate to the calm-state rate.
    burst_fraction:
        Long-run fraction of time spent in the burst state.
    mean_cycle_arrivals:
        Mean number of arrivals per calm+burst cycle — sets the sojourn
        time scale relative to the arrival rate.
    """

    def __init__(
        self,
        rate: float,
        burst_factor: float = 5.0,
        burst_fraction: float = 0.2,
        mean_cycle_arrivals: float = 500.0,
    ) -> None:
        super().__init__(rate)
        if burst_factor <= 1:
            raise ConfigurationError(
                f"burst_factor must exceed 1, got {burst_factor}"
            )
        if not 0 < burst_fraction < 1:
            raise ConfigurationError(
                f"burst_fraction must be in (0, 1), got {burst_fraction}"
            )
        if mean_cycle_arrivals <= 0:
            raise ConfigurationError(
                f"mean_cycle_arrivals must be positive, got {mean_cycle_arrivals}"
            )
        self.burst_factor = float(burst_factor)
        self.burst_fraction = float(burst_fraction)
        self.mean_cycle_arrivals = float(mean_cycle_arrivals)
        # Long-run rate = (1-f)·r_calm + f·r_burst with r_burst = b·r_calm.
        f, b = self.burst_fraction, self.burst_factor
        self._rate_calm = rate / (1.0 - f + f * b)
        self._rate_burst = b * self._rate_calm
        cycle_ms = mean_cycle_arrivals / rate
        self._sojourn_calm = cycle_ms * (1.0 - f)
        self._sojourn_burst = cycle_ms * f

    def interarrival_distribution(self) -> Distribution:
        raise ConfigurationError(
            "an MMPP is not a renewal process; use arrival_times()"
        )

    def arrival_times(self, rng: np.random.Generator, n: int,
                      start: float = 0.0) -> np.ndarray:
        if n < 0:
            raise ConfigurationError(f"n must be >= 0, got {n}")
        times = np.empty(n)
        t = start
        in_burst = bool(rng.random() < self.burst_fraction)
        switch_at = t + rng.exponential(
            self._sojourn_burst if in_burst else self._sojourn_calm
        )
        produced = 0
        while produced < n:
            rate = self._rate_burst if in_burst else self._rate_calm
            candidate = t + rng.exponential(1.0 / rate)
            if candidate < switch_at:
                t = candidate
                times[produced] = t
                produced += 1
            else:
                t = switch_at
                in_burst = not in_burst
                switch_at = t + rng.exponential(
                    self._sojourn_burst if in_burst else self._sojourn_calm
                )
        return times

    def with_rate(self, rate: float) -> "MMPPArrivals":
        return MMPPArrivals(rate, self.burst_factor, self.burst_fraction,
                            self.mean_cycle_arrivals)


class DeterministicArrivals(ArrivalProcess):
    """Evenly spaced arrivals — useful for deterministic tests."""

    def interarrival_distribution(self) -> Distribution:
        return Deterministic(1.0 / self.rate)

    def arrival_times(self, rng: Optional[np.random.Generator], n: int,
                      start: float = 0.0) -> np.ndarray:
        if n < 0:
            raise ConfigurationError(f"n must be >= 0, got {n}")
        return start + (np.arange(1, n + 1) / self.rate)

    def with_rate(self, rate: float) -> "DeterministicArrivals":
        return DeterministicArrivals(rate)
