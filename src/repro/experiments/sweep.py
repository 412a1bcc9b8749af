"""Tail-latency-versus-load sweeps (paper Figs. 6, 7, 9)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.config import ClusterConfig
from repro.core.admission import AdmissionController
from repro.cluster.results import SimulationResult
from repro.cluster.simulation import simulate
from repro.errors import ExperimentError
from repro.experiments.parallel import get_pool, resolve_workers


@dataclass(frozen=True)
class SweepPoint:
    """Per-class tails (and admission stats) at one offered load."""

    offered_load: float
    policy_name: str
    #: class name -> measured tail at the class's SLO percentile.
    class_tails_ms: Dict[str, float]
    accepted_load: float
    rejection_ratio: float
    deadline_miss_ratio: float

    def tail(self, class_name: str) -> float:
        try:
            return self.class_tails_ms[class_name]
        except KeyError:
            raise ExperimentError(f"no class {class_name!r} in sweep point") from None


def _point(result: SimulationResult, load: float) -> SweepPoint:
    tails = {
        cls.name: result.tail(cls.percentile, cls.name)
        for cls in result.classes
        if result.count(cls.name) > 0
    }
    return SweepPoint(
        offered_load=load,
        policy_name=result.policy_name,
        class_tails_ms=tails,
        accepted_load=result.accepted_load(),
        rejection_ratio=result.rejection_ratio(),
        deadline_miss_ratio=result.deadline_miss_ratio(),
    )


def _sweep_point_task(args) -> SweepPoint:
    """One load point; the admission controller (if any) is built here,
    *worker-side*, so each point gets fresh state no matter which
    process runs it."""
    config, load, admission_factory = args
    if admission_factory is not None:
        config = config.with_admission(admission_factory())
    return _point(simulate(config), load)


def load_sweep(
    config: ClusterConfig,
    loads: Sequence[float],
    seed: Optional[int] = None,
    admission_factory: Optional[Callable[[], AdmissionController]] = None,
    workers: Optional[int] = None,
) -> Tuple[SweepPoint, ...]:
    """Simulate at each load and collect per-class tails.

    Admission controllers are stateful, so sweeps that use admission
    control pass ``admission_factory`` and get a fresh controller per
    load instead of carrying one in ``config``.  With ``workers > 1``
    the factory is invoked worker-side, so it must be picklable — use
    :class:`repro.core.admission.AdmissionFactory` rather than a
    lambda.

    **Seed precedence:** the explicit ``seed`` argument wins; when it
    is ``None``, every load point runs with ``config.seed``.  Either
    way the effective seed is pinned per point before any simulation
    runs, so a sweep is reproducible (and identical under any
    ``workers`` value) whenever ``seed`` *or* ``config.seed`` is set —
    including sweeps that build fresh admission controllers per point.

    ``workers`` runs all load points concurrently over a process pool;
    the default (``None``/``1``) is serial and bit-identical to the
    historical behavior.
    """
    if not loads:
        raise ExperimentError("need at least one load")
    effective_seed = config.seed if seed is None else seed

    tasks = []
    for load in loads:
        rated = config.at_load(load).with_seed(effective_seed)
        tasks.append((rated, load, admission_factory))

    n_workers = resolve_workers(workers)
    if n_workers == 1:
        return tuple(_sweep_point_task(task) for task in tasks)

    if config.admission is not None and len(loads) > 1:
        raise ExperimentError(
            "parallel load_sweep cannot share one stateful admission "
            "controller across load points (the serial sweep threads its "
            "state through points in order); pass admission_factory to "
            "build a fresh controller per point instead"
        )
    if config.recorder is not None and getattr(config.recorder, "enabled",
                                               False):
        raise ExperimentError(
            "parallel load_sweep returns compact SweepPoints and drops "
            "recorders; use repro.experiments.parallel.run_simulations "
            "to fan out traced runs with obs merging"
        )
    pool = get_pool(n_workers)
    points: List[SweepPoint] = list(pool.map(_sweep_point_task, tasks))
    return tuple(points)
