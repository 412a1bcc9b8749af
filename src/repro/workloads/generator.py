"""Workload assembly and query generation.

A :class:`Workload` bundles the three ingredients of §IV.A (arrival
process, fanout distribution, service-time distribution) plus the
service-class mix, and knows how to re-rate itself to a target offered
load.  :func:`generate_queries` materializes query specs for the
simulator or for trace recording.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, List, Tuple

import numpy as np

from repro.distributions import Distribution
from repro.errors import ConfigurationError
from repro.types import QuerySpec
from repro.workloads.arrivals import ArrivalProcess
from repro.workloads.classes import ClassMix
from repro.workloads.fanout import FanoutDistribution


def arrival_rate_for_load(
    load: float,
    n_servers: int,
    mean_service_ms: float,
    mean_fanout: float,
) -> float:
    """Query arrival rate (queries/ms) producing the given offered load.

    Offered load is the standard utilization ``ρ = λ·E[k_f]·E[S] / N``:
    each query contributes ``E[k_f]`` tasks of mean service ``E[S]``
    spread over ``N`` servers.
    """
    if not 0 < load < math.inf:
        raise ConfigurationError(f"load must be finite and positive, got {load}")
    if n_servers < 1:
        raise ConfigurationError(f"need >= 1 server, got {n_servers}")
    if mean_service_ms <= 0 or mean_fanout <= 0:
        raise ConfigurationError("mean service time and fanout must be positive")
    return load * n_servers / (mean_fanout * mean_service_ms)


def offered_load(
    arrival_rate: float,
    n_servers: int,
    mean_service_ms: float,
    mean_fanout: float,
) -> float:
    """Inverse of :func:`arrival_rate_for_load`."""
    return arrival_rate * mean_fanout * mean_service_ms / n_servers


@dataclass(frozen=True)
class Workload:
    """A complete DU workload specification."""

    name: str
    arrivals: ArrivalProcess
    fanout: FanoutDistribution
    class_mix: ClassMix
    service_time: Distribution

    def mean_service_ms(self) -> float:
        return self.service_time.mean()

    def load(self, n_servers: int) -> float:
        """Offered load of this workload on ``n_servers`` servers."""
        return offered_load(self.arrivals.rate, n_servers,
                            self.mean_service_ms(), self.fanout.mean())

    def at_load(self, load: float, n_servers: int) -> "Workload":
        """A copy re-rated so its offered load on ``n_servers`` is ``load``."""
        rate = arrival_rate_for_load(load, n_servers, self.mean_service_ms(),
                                     self.fanout.mean())
        return replace(self, arrivals=self.arrivals.with_rate(rate))


def generate_query_arrays(
    workload: Workload,
    n: int,
    rng: np.random.Generator,
    start: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The array form of :func:`generate_queries`.

    Returns ``(arrival_times, fanouts, class_indices)`` drawn with the
    exact same RNG consumption as :func:`generate_queries` (which is
    implemented on top of this), so consumers that only need columns —
    notably the simulation kernel's generated-workload fast path — skip
    materializing ``n`` :class:`~repro.types.QuerySpec` objects without
    perturbing any seeded trace.  ``class_indices`` index into
    ``workload.class_mix.classes``.
    """
    if n < 0:
        raise ConfigurationError(f"n must be >= 0, got {n}")
    arrival_rng, fanout_rng, class_rng = rng.spawn(3)
    times = np.asarray(
        workload.arrivals.arrival_times(arrival_rng, n, start),
        dtype=np.float64,
    )
    fanouts = np.asarray(workload.fanout.sample(fanout_rng, n), dtype=np.int64)
    class_indices = np.asarray(
        workload.class_mix.sample_indices(class_rng, n), dtype=np.int64
    )
    return times, fanouts, class_indices


def generate_queries(
    workload: Workload,
    n: int,
    rng: np.random.Generator,
    start: float = 0.0,
) -> List[QuerySpec]:
    """Materialize ``n`` query specs (arrival time, fanout, class).

    Separate child RNG streams per component keep comparisons between
    queuing policies paired: re-running with the same seed produces the
    same queries regardless of how the consumer draws service times.
    """
    times, fanouts, class_indices = generate_query_arrays(
        workload, n, rng, start
    )
    classes = workload.class_mix.classes
    return [
        QuerySpec(
            query_id=i,
            arrival_time=float(times[i]),
            fanout=int(fanouts[i]),
            service_class=classes[class_indices[i]],
        )
        for i in range(n)
    ]


class QueryStream:
    """Lazy query generator for open-ended (time-bounded) simulations."""

    def __init__(self, workload: Workload, rng: np.random.Generator,
                 start: float = 0.0, block: int = 4096) -> None:
        self._workload = workload
        self._rng = rng
        self._clock = start
        self._block = block
        self._next_id = 0
        self._pending: List[QuerySpec] = []

    def __iter__(self) -> Iterator[QuerySpec]:
        return self

    def __next__(self) -> QuerySpec:
        if not self._pending:
            batch = generate_queries(self._workload, self._block, self._rng,
                                     start=self._clock)
            batch = [
                QuerySpec(
                    query_id=spec.query_id + self._next_id,
                    arrival_time=spec.arrival_time,
                    fanout=spec.fanout,
                    service_class=spec.service_class,
                )
                for spec in batch
            ]
            self._next_id += len(batch)
            self._clock = batch[-1].arrival_time
            self._pending = list(reversed(batch))
        return self._pending.pop()
