"""Workload assembly and query generation.

A :class:`Workload` bundles the three ingredients of §IV.A (arrival
process, fanout distribution, service-time distribution) plus the
service-class mix, and knows how to re-rate itself to a target offered
load.  :class:`QueryStream` is the columnar query stream both
simulation kernels and the federation front tier run on;
:func:`generate_queries` materializes the same draws as query specs
(trace recording, the DES kernel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.distributions import Distribution
from repro.errors import ConfigurationError
from repro.types import QuerySpec, ServiceClass
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
    notably :meth:`QueryStream.generate` — skip materializing ``n``
    :class:`~repro.types.QuerySpec` objects without perturbing any
    seeded trace.  ``class_indices`` index into
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
    """A columnar query stream: one row per query, as parallel arrays.

    ``arrival`` holds arrival times (float64 ms); ``fanout`` and
    ``class_index`` hold each query's fanout and its index into
    ``classes``, in the simulation kernels' int32.  ``servers`` is
    ``None`` when the simulator places every query, else a list with
    each query's pre-assigned server tuple (``None`` where the
    simulator places it).  ``query_ids`` is ``None`` when the ids are
    the row positions, else the caller's id per row.

    A stream comes from three places: :meth:`generate` draws one from a
    workload, :meth:`from_specs` packs a :class:`~repro.types.QuerySpec`
    sequence (trace replay), and :meth:`take` slices another stream
    with NumPy indexing (the federation front tier hands each shard its
    slice this way).  :meth:`spec` rebuilds one row as a ``QuerySpec``
    for the placement hook.
    """

    __slots__ = ("arrival", "fanout", "class_index", "classes", "servers",
                 "query_ids")

    def __init__(self, arrival, fanout, class_index,
                 classes: Sequence[ServiceClass],
                 servers: Optional[List[Optional[Tuple[int, ...]]]] = None,
                 query_ids: Optional[np.ndarray] = None) -> None:
        self.arrival = np.asarray(arrival, dtype=np.float64)
        self.fanout = np.asarray(fanout, dtype=np.int32)
        self.class_index = np.asarray(class_index, dtype=np.int32)
        self.classes = tuple(classes)
        self.servers = servers
        self.query_ids = query_ids

    @classmethod
    def generate(cls, workload: Workload, n: int, rng: np.random.Generator,
                 start: float = 0.0) -> "QueryStream":
        """``n`` queries drawn from ``workload``, with the RNG draws of
        :func:`generate_query_arrays` (and so of
        :func:`generate_queries`)."""
        times, fanouts, class_indices = generate_query_arrays(
            workload, n, rng, start)
        return cls(times, fanouts, class_indices, workload.class_mix.classes)

    @classmethod
    def from_specs(cls, specs: Sequence[QuerySpec]) -> "QueryStream":
        """Pack a spec sequence, in its given order, keeping each spec's
        id and pre-assigned servers.  The class table lists each
        distinct class object once, in first-appearance order."""
        m = len(specs)
        arrival = np.empty(m, dtype=np.float64)
        fanout = np.empty(m, dtype=np.int32)
        class_index = np.empty(m, dtype=np.int32)
        query_ids = np.empty(m, dtype=np.int64)
        servers: List[Optional[Tuple[int, ...]]] = []
        classes: List[ServiceClass] = []
        index_of: Dict[int, int] = {}
        for i, spec in enumerate(specs):
            cls_ = spec.service_class
            idx = index_of.get(id(cls_))
            if idx is None:
                idx = index_of[id(cls_)] = len(classes)
                classes.append(cls_)
            arrival[i] = spec.arrival_time
            fanout[i] = spec.fanout
            class_index[i] = idx
            query_ids[i] = spec.query_id
            servers.append(spec.servers)
        if all(placed is None for placed in servers):
            servers = None
        return cls(arrival, fanout, class_index, classes, servers, query_ids)

    def __len__(self) -> int:
        return int(self.arrival.shape[0])

    def take(self, idx: np.ndarray) -> "QueryStream":
        """The rows at positions ``idx``, in that order.  Rows keep
        their ids: a slice of a stream without ids takes the positions
        as ids."""
        idx = np.asarray(idx, dtype=np.int64)
        servers = self.servers
        if servers is not None:
            servers = [servers[i] for i in idx.tolist()]
        ids = self.query_ids
        return QueryStream(self.arrival[idx], self.fanout[idx],
                           self.class_index[idx], self.classes, servers,
                           idx if ids is None else ids[idx])

    def query_id(self, i: int) -> int:
        """The id of row ``i``."""
        return i if self.query_ids is None else int(self.query_ids[i])

    def spec(self, i: int) -> QuerySpec:
        """Row ``i`` as a :class:`~repro.types.QuerySpec`."""
        return QuerySpec(
            query_id=self.query_id(i),
            arrival_time=float(self.arrival[i]),
            fanout=int(self.fanout[i]),
            service_class=self.classes[self.class_index[i]],
            servers=None if self.servers is None else self.servers[i],
        )
