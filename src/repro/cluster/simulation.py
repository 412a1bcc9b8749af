"""The optimized event-calendar simulation of the TailGuard model.

Semantics are identical to composing :class:`repro.core.handler.QueryHandler`
with :class:`repro.core.server.TaskServer` on the DES kernel (an
integration test asserts equal latencies on a shared trace), but the
implementation is a flat two-stream merge — sorted arrivals against a
completion heap — which runs large parameter sweeps in minutes.

:func:`simulate` runs every fault-free config through one loop,
:func:`_fast_loop`.  It inlines the FIFO queue as a raw deque and the
EDF-family queues as raw heaps, keeps the policy's queue objects for
PRIQ, WRR and policies added to the registry, and guards tracing, the
placement hook, admission, timeline and series sampling, online
estimation and perturbations with one local flag each.  Configs with
faults, overload protection or replicas go to the one loop of
:mod:`repro.cluster.faultsim` instead.

Model recap (paper Fig. 2):

* a query arrives, passes admission control, fans out ``k_f`` tasks to
  distinct servers, all stamped with one queuing deadline ``t_D``
  (Eq. 6);
* each server serves one task at a time from a policy-ordered queue;
* deadline misses are observed at dequeue time (central queuing);
* a query completes when its slowest task does.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, List, Tuple

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.results import SimulationResult, Timeline
from repro.core.deadline import DeadlineEstimator
from repro.core.policies import FIFOPolicy, TEDFPolicy, TFEDFPolicy
from repro.distributions import SampleStream
from repro.errors import ConfigurationError
from repro.obs.events import (
    CDF_UPDATE,
    DEADLINE_MISS,
    QUERY_ARRIVE,
    QUERY_COMPLETE,
    QUERY_REJECTED,
    SERVER_BUSY,
    SERVER_IDLE,
    TASK_COMPLETE,
    TASK_DEQUEUE,
    TASK_ENQUEUE,
)
from repro.types import ServiceClass
from repro.workloads.generator import generate_queries, generate_query_arrays


def _prepare_specs(config: ClusterConfig, spec_rng: np.random.Generator):
    """Materialize the spec list and its per-query arrays.

    Shared by both calendars through :func:`_prepare_stream`, so they
    see byte-identical traces for a given config.  Caller-supplied
    specs (trace replay) are checked here: pre-assigned servers must
    lie in ``[0, n)`` and arrival times must be finite.
    """
    if config.specs is not None:
        specs = sorted(config.specs, key=lambda s: s.arrival_time)
    else:
        specs = generate_queries(config.workload, config.n_queries, spec_rng)
    if not specs:
        raise ConfigurationError("no queries to simulate")

    n = config.n_servers
    m = len(specs)
    classes: List[ServiceClass] = []
    class_of: Dict[str, int] = {}
    class_index = np.empty(m, dtype=np.int32)
    fanout = np.empty(m, dtype=np.int32)
    arrival = np.empty(m, dtype=np.float64)
    for i, spec in enumerate(specs):
        cls = spec.service_class
        idx = class_of.get(cls.name)
        if idx is None:
            idx = len(classes)
            class_of[cls.name] = idx
            classes.append(cls)
        elif classes[idx] != cls:
            raise ConfigurationError(f"two different classes named {cls.name!r}")
        class_index[i] = idx
        fanout[i] = spec.fanout
        arrival[i] = spec.arrival_time
        if spec.fanout > n:
            raise ConfigurationError(
                f"query {spec.query_id}: fanout {spec.fanout} > {n} servers"
            )
        if spec.servers is not None:
            for sid in spec.servers:
                if not 0 <= sid < n:
                    raise ConfigurationError(
                        f"query {spec.query_id}: server {sid} outside "
                        f"[0, {n})"
                    )
    finite = np.isfinite(arrival)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ConfigurationError(
            f"query {specs[bad].query_id}: arrival time {arrival[bad]} "
            f"is not finite"
        )
    return specs, classes, class_index, fanout, arrival


def _prepare_query_arrays(config: ClusterConfig,
                          spec_rng: np.random.Generator):
    """Array-form twin of :func:`_prepare_specs` for generated workloads.

    Consumes the exact same RNG variates as the spec path (``generate_queries``
    is itself built on :func:`generate_query_arrays`) but never
    materializes :class:`~repro.types.QuerySpec` objects — the dominant
    setup cost of large generated runs.  The class table is deduplicated
    in first-appearance order, matching the spec loop, so ``class_index``
    values and the ``classes`` tuple come out bit-identical.
    """
    times, fanouts, class_indices = generate_query_arrays(
        config.workload, config.n_queries, spec_rng)
    m = times.shape[0]
    if m == 0:
        raise ConfigurationError("no queries to simulate")
    n = config.n_servers
    if int(fanouts.max()) > n:
        bad = int(np.argmax(fanouts > n))
        raise ConfigurationError(
            f"query {bad}: fanout {int(fanouts[bad])} > {n} servers"
        )
    mix_classes = config.workload.class_mix.classes
    uniq, first_pos, inverse = np.unique(
        class_indices, return_index=True, return_inverse=True)
    order = np.argsort(first_pos)
    remap = np.empty(uniq.shape[0], dtype=np.int32)
    remap[order] = np.arange(uniq.shape[0], dtype=np.int32)
    class_index = remap[inverse]
    classes = [mix_classes[int(uniq[i])] for i in order]
    return classes, class_index, fanouts.astype(np.int32), times


def _prepare_stream(config: ClusterConfig, spec_rng: np.random.Generator):
    """The query stream for either calendar: ``(specs, servers_list,
    classes, class_index, fanout, arrival)``.

    Array form (``specs`` and ``servers_list`` are ``None``) unless a
    spec list or a placement hook needs the :class:`QuerySpec` objects;
    both forms draw the same RNG variates.
    """
    if config.specs is None and config.placement is None:
        classes, class_index, fanout, arrival = _prepare_query_arrays(
            config, spec_rng)
        return None, None, classes, class_index, fanout, arrival
    specs, classes, class_index, fanout, arrival = _prepare_specs(
        config, spec_rng)
    servers_list = [spec.servers for spec in specs]
    return specs, servers_list, classes, class_index, fanout, arrival


def _budget_array(estimator: DeadlineEstimator, classes,
                  class_index: np.ndarray, fanout: np.ndarray,
                  n: int, servers_list=None) -> List[float]:
    """Hoisted deadline budgets for the static homogeneous fast path.

    Budgets depend only on the (class, fanout) pair, so evaluate the
    whole table once — one ``budget_table()`` call per class over the
    distinct fanouts, gathered into a per-query array.  Stamping ``t_D``
    then costs an indexed add instead of an estimator call per query.
    ``servers_list`` holds each query's pre-placed servers (or ``None``
    when the simulator places it); omit it when every query is free.
    Returns ``[]`` when no query is eligible (all pre-placed).
    """
    m = len(class_index)
    if servers_list is None:
        free = np.ones(m, dtype=bool)
    else:
        free = np.fromiter((servers is None for servers in servers_list),
                           dtype=bool, count=m)
    if not free.any():
        return []
    codes = class_index.astype(np.int64) * (np.int64(n) + 1) + fanout
    uniq_codes, inverse = np.unique(codes[free], return_inverse=True)
    fanouts_by_class: Dict[int, List[int]] = {}
    for code in uniq_codes:
        ci, k = divmod(int(code), n + 1)
        fanouts_by_class.setdefault(ci, []).append(k)
    budget_by_code: Dict[int, float] = {}
    for ci, ks in fanouts_by_class.items():
        for k, value in estimator.budget_table(classes[ci], ks).items():
            budget_by_code[ci * (n + 1) + k] = value
    table = np.array([budget_by_code[int(code)] for code in uniq_codes])
    budgets = np.full(m, np.nan)
    budgets[free] = table[inverse]
    return budgets.tolist()


def _server_streams(config: ClusterConfig, server_cdfs,
                    service_rng: np.random.Generator) -> List[SampleStream]:
    """One block sampler per distinct service-time distribution object."""
    streams: Dict[int, SampleStream] = {}
    server_stream: List[SampleStream] = []
    for sid in range(config.n_servers):
        dist = server_cdfs[sid]
        stream = streams.get(id(dist))
        if stream is None:
            stream = SampleStream(dist, service_rng.spawn(1)[0])
            streams[id(dist)] = stream
        server_stream.append(stream)
    return server_stream


class _ServerTally:
    """Per-server accounting behind a traced run's events and series."""

    __slots__ = ("tasks", "misses", "busy_ms", "busy_since")

    def __init__(self, n: int) -> None:
        self.tasks = [0] * n          # dequeued tasks per server
        self.misses = [0] * n         # deadline misses per server
        self.busy_ms = [0.0] * n      # completed service time per server
        self.busy_since = [0.0] * n   # start of the in-flight task

    def complete(self, rec, now: float, sid: int, qidx: int,
                 class_name: str, duration: float, online: bool) -> None:
        """Trace a task completion (plus the online estimator's update)."""
        self.busy_ms[sid] += duration
        rec.emit(TASK_COMPLETE, now, server_id=sid, query_id=qidx,
                 class_name=class_name, extra={"duration": duration})
        if online:
            rec.emit(CDF_UPDATE, now, server_id=sid,
                     extra={"observation": duration})

    def start(self, rec, now: float, sid: int, qidx: int, class_name: str,
              k: int, deadline: float, queue_len: int) -> None:
        """Trace a task entering service: TASK_DEQUEUE, plus
        DEADLINE_MISS when it starts after its deadline."""
        self.tasks[sid] += 1
        self.busy_since[sid] = now
        rec.inc("tasks_dequeued")
        rec.emit(TASK_DEQUEUE, now, server_id=sid, query_id=qidx,
                 class_name=class_name, fanout=k, deadline=deadline,
                 slack=deadline - now, extra={"queue_len": queue_len})
        if now > deadline:
            self.misses[sid] += 1
            rec.inc("deadline_misses")
            rec.emit(DEADLINE_MISS, now, server_id=sid, query_id=qidx,
                     deadline=deadline, slack=deadline - now)

    def sample(self, rec, t: float, queues, busy) -> None:
        """One sample of the recorder's per-server series at time ``t``."""
        tasks, misses = self.tasks, self.misses
        busy_ms, busy_since = self.busy_ms, self.busy_since
        rec.sample_servers(
            t,
            [len(queue) for queue in queues],
            [1 if flag else 0 for flag in busy],
            [min(1.0, (busy_ms[sid]
                       + (t - busy_since[sid] if busy[sid] else 0.0)) / t)
             for sid in range(len(busy))],
            [misses[sid] / tasks[sid] if tasks[sid] else 0.0
             for sid in range(len(busy))],
        )


def _heap_reorder_depth(queue, key: float) -> int:
    """Queued tasks with a strictly later key on an inlined EDF heap;
    counting after the push is exact, as the new entry ties its key."""
    return sum(1 for entry in queue if key < entry[0])


def _queue_depths(queues, busy) -> Tuple[int, ...]:
    """Per-server depth for a placement hook: queued tasks, plus one
    for the task in service."""
    return tuple(len(queue) + (1 if flag else 0)
                 for queue, flag in zip(queues, busy))


def _place(placement, spec, placement_rng, depths, n: int, k: int,
           qidx: int):
    """Run a custom placement hook (with the queue depths, when given)
    and check that it returns ``k`` servers in ``[0, n)``.  Shared by
    both calendars."""
    if depths is None:
        servers = placement(spec, placement_rng)
    else:
        servers = placement(spec, placement_rng, depths)
    if len(servers) != k:
        raise ConfigurationError(
            f"placement returned {len(servers)} servers for fanout {k}"
        )
    for sid in servers:
        if not 0 <= sid < n:
            raise ConfigurationError(
                f"placement returned server {sid} outside "
                f"[0, {n}) for query {qidx}; shard maps must "
                f"cover exactly the cluster's servers"
            )
    return servers


def _fast_loop(policy, n: int, m: int, classes, class_index, fanout, arrival,
               specs, servers_list, query_budget, estimator, online: bool,
               admission, placement, server_stream, perturbations,
               perturbed_servers, placement_rng, sample_interval, rec):
    """The no-fault calendar: sorted arrivals merged against a
    completion heap, with plain-list state.

    FIFO queues are raw ``deque`` objects and the EDF family raw
    ``(key, seq, qidx, deadline)`` heaps; PRIQ, WRR and policies added
    to the registry keep the policy's queue objects.  Completions up to
    the next arrival drain as one batched run, and service samples are
    read straight from the sampler's block buffer.  Tracing (``rec`` is
    a recorder or ``None``), the placement hook, admission, sampling,
    online estimation and perturbations cost one local flag check per
    site when off; no closure or comprehension here reads loop state
    (that would make hot locals cell variables), so traced and
    placement work goes through module-level helpers.  RNG call order
    and float accumulation order are fixed; the golden-master corpus
    pins them.
    """
    heappush, heappop = heapq.heappush, heapq.heappop
    infinity = float("inf")
    nan = float("nan")

    is_fifo = type(policy) is FIFOPolicy
    inline_heap = type(policy) in (TEDFPolicy, TFEDFPolicy)
    queue_objects = not is_fifo and not inline_heap
    key_is_deadline = type(policy) is TFEDFPolicy
    queue_key = policy.queue_key
    arrival_l = arrival.tolist()
    fanout_l = fanout.tolist()
    class_index_l = class_index.tolist()
    slo_by_class = [cls.slo_ms for cls in classes]
    class_names = [cls.name for cls in classes]
    est_homogeneous = estimator.homogeneous
    est_deadline = estimator.deadline
    est_record = estimator.record
    admit = admission.admit if admission is not None else None
    record_task = admission.record_task if admission is not None else None
    use_budget = query_budget is not None
    has_perturb = bool(perturbed_servers)
    wants_depths = bool(getattr(placement, "needs_queue_depths", False))

    # One block buffer indexed inline when every server shares a stream
    # (the homogeneous common case); bound ``next`` methods otherwise.
    single_stream = len({id(stream) for stream in server_stream}) == 1
    stream0 = server_stream[0]
    nexts = [stream.next for stream in server_stream]
    sbuf: List[float] = []
    sidx = 0
    slen = 0

    new_queue = (deque if is_fifo else list if inline_heap
                 else policy.create_queue)
    queues = []
    for _ in range(n):
        queues.append(new_queue())
    busy = [False] * n
    all_servers = tuple(range(n))
    pr_integers = placement_rng.integers
    pr_choice = placement_rng.choice

    heap: List[Tuple[float, int, int, float]] = []
    latency_l = [nan] * m
    remaining = list(fanout_l)
    rejected_idx: List[int] = []
    seq = 0
    qi = 0
    now = 0.0
    busy_total = 0.0
    tasks_total = 0
    tasks_missed = 0

    tracing = rec is not None
    tally = _ServerTally(n) if tracing else None
    obs_interval = rec.sample_interval_ms if tracing else None
    # Timeline and series samples share one flag; whichever is off
    # keeps its next sample time at infinity.  State between events is
    # constant, so each event first samples every boundary it passed.
    sampling = sample_interval is not None or obs_interval is not None
    next_sample = sample_interval if sample_interval is not None else infinity
    next_obs = obs_interval if obs_interval is not None else infinity
    sample_times: List[float] = []
    sample_queued: List[int] = []
    sample_busy: List[int] = []
    queued_tasks = 0
    busy_servers = 0

    while True:
        next_arrival = arrival_l[qi] if qi < m else infinity
        # Run down every completion at or before the next arrival.
        while heap:
            head = heap[0]
            now = head[0]
            if now > next_arrival:
                break
            if sampling:
                while next_sample <= now:
                    sample_times.append(next_sample)
                    sample_queued.append(queued_tasks)
                    sample_busy.append(busy_servers)
                    next_sample += sample_interval
                while next_obs <= now:
                    tally.sample(rec, next_obs, queues, busy)
                    next_obs += obs_interval
            heappop(heap)
            sid = head[1]
            qidx = head[2]
            if online:
                est_record(sid, head[3])
            if tracing:
                tally.complete(rec, now, sid, qidx,
                               class_names[class_index_l[qidx]], head[3],
                               online)
            left = remaining[qidx] - 1
            remaining[qidx] = left
            if not left:
                latency_l[qidx] = now - arrival_l[qidx]
                if tracing:
                    rec.observe_latency(latency_l[qidx])
                    rec.inc("queries_completed")
                    rec.emit(QUERY_COMPLETE, now, query_id=qidx,
                             class_name=class_names[class_index_l[qidx]],
                             fanout=fanout_l[qidx],
                             extra={"latency": latency_l[qidx]})
            queue = queues[sid]
            if queue:
                if is_fifo:
                    task_qidx, task_deadline = queue.popleft()
                elif queue_objects:
                    task_qidx, task_deadline = queue.pop()
                else:
                    entry = heappop(queue)
                    task_qidx = entry[2]
                    task_deadline = entry[3]
                tasks_total += 1
                if now > task_deadline:
                    tasks_missed += 1
                    if record_task is not None:
                        record_task(True, now)
                elif record_task is not None:
                    record_task(False, now)
                if sampling:
                    queued_tasks -= 1
                if tracing:
                    tally.start(rec, now, sid, task_qidx,
                                class_names[class_index_l[task_qidx]],
                                fanout_l[task_qidx], task_deadline,
                                len(queue))
                if single_stream:
                    if sidx == slen:
                        sbuf = stream0.drain_block()
                        slen = len(sbuf)
                        sidx = 0
                    next_duration = sbuf[sidx]
                    sidx += 1
                else:
                    next_duration = nexts[sid]()
                if has_perturb and sid in perturbed_servers:
                    for perturbation in perturbations:
                        if perturbation.applies(sid, now):
                            next_duration *= perturbation.factor
                busy_total += next_duration
                heappush(heap, (now + next_duration, sid, task_qidx,
                                next_duration))
            else:
                busy[sid] = False
                if sampling:
                    busy_servers -= 1
                if tracing:
                    rec.emit(SERVER_IDLE, now, server_id=sid)

        if qi >= m:
            break  # calendar drained, no arrivals left

        # ----- query arrival -------------------------------------------
        now = next_arrival
        if sampling:
            while next_sample <= now:
                sample_times.append(next_sample)
                sample_queued.append(queued_tasks)
                sample_busy.append(busy_servers)
                next_sample += sample_interval
            while next_obs <= now:
                tally.sample(rec, next_obs, queues, busy)
                next_obs += obs_interval
        qidx = qi
        qi += 1
        k = fanout_l[qidx]
        if tracing:
            class_name = class_names[class_index_l[qidx]]
            rec.inc("queries_arrived")
            rec.emit(QUERY_ARRIVE, now, query_id=qidx,
                     class_name=class_name, fanout=k)
        if admit is not None and not admit(now):
            rejected_idx.append(qidx)
            if tracing:
                rec.inc("queries_rejected")
                rec.emit(QUERY_REJECTED, now, query_id=qidx,
                         class_name=class_name, fanout=k,
                         extra={"miss_ratio": admission.miss_ratio()})
            continue

        pre = servers_list[qidx] if servers_list is not None else None
        if pre is not None:
            servers = pre
        elif placement is not None:
            servers = _place(placement, specs[qidx], placement_rng,
                             _queue_depths(queues, busy) if wants_depths
                             else None, n, k, qidx)
        elif k == n:
            servers = all_servers
        elif k == 1:
            servers = (int(pr_integers(n)),)
        else:
            servers = pr_choice(n, size=k, replace=False).tolist()

        if use_budget and pre is None:
            deadline = now + query_budget[qidx]
        elif est_homogeneous:
            deadline = est_deadline(now, classes[class_index_l[qidx]],
                                    fanout=k)
        else:
            deadline = est_deadline(now, classes[class_index_l[qidx]],
                                    servers=servers)
        if not is_fifo:
            if queue_objects:
                keyval = queue_key(now, classes[class_index_l[qidx]],
                                   deadline)
            else:
                keyval = (deadline if key_is_deadline
                          else now + slo_by_class[class_index_l[qidx]])

        for sid in servers:
            if busy[sid]:
                queue = queues[sid]
                if is_fifo:
                    queue.append((qidx, deadline))
                elif queue_objects:
                    if tracing:
                        depth = queue.reorder_depth(keyval)
                    queue.push((qidx, deadline), keyval)
                else:
                    heappush(queue, (keyval, seq, qidx, deadline))
                    seq += 1
                if sampling:
                    queued_tasks += 1
                if tracing:
                    if is_fifo:
                        depth = 0
                    elif inline_heap:
                        depth = _heap_reorder_depth(queue, keyval)
                    rec.emit(TASK_ENQUEUE, now, server_id=sid,
                             query_id=qidx, class_name=class_name, fanout=k,
                             deadline=deadline, slack=deadline - now,
                             extra={"queue_len": len(queue),
                                    "reorder_depth": depth})
            else:
                busy[sid] = True
                tasks_total += 1
                if sampling:
                    busy_servers += 1
                if now > deadline:
                    tasks_missed += 1
                    if record_task is not None:
                        record_task(True, now)
                elif record_task is not None:
                    record_task(False, now)
                if tracing:
                    rec.emit(SERVER_BUSY, now, server_id=sid)
                    tally.start(rec, now, sid, qidx, class_name, k,
                                deadline, 0)
                if single_stream:
                    if sidx == slen:
                        sbuf = stream0.drain_block()
                        slen = len(sbuf)
                        sidx = 0
                    duration = sbuf[sidx]
                    sidx += 1
                else:
                    duration = nexts[sid]()
                if has_perturb and sid in perturbed_servers:
                    for perturbation in perturbations:
                        if perturbation.applies(sid, now):
                            duration *= perturbation.factor
                busy_total += duration
                heappush(heap, (now + duration, sid, qidx, duration))

    latency = np.asarray(latency_l, dtype=np.float64)
    rejected = np.zeros(m, dtype=bool)
    if rejected_idx:
        rejected[rejected_idx] = True
    return (latency, rejected, busy_total, tasks_total, tasks_missed, now,
            sample_times, sample_queued, sample_busy)


def _finalize(config: ClusterConfig, policy, n: int, server_cdfs, classes,
              class_index, fanout, arrival, latency, rejected,
              busy_total: float, tasks_total: int, tasks_missed: int,
              now: float, sample_times, sample_queued, sample_busy,
              rec, tracing: bool, **fault_fields) -> SimulationResult:
    """Shared wrap-up: warmup mask, timeline, load, result assembly.

    Used by every loop on both calendars; the fault calendar passes its
    outcome counters and masks through as ``fault_fields``.
    """
    m = len(class_index)
    warmup_count = int(m * config.warmup_fraction)
    measured = np.zeros(m, dtype=bool)
    measured[warmup_count:] = True

    timeline = None
    if config.timeline_interval_ms is not None:
        timeline = Timeline(
            time=np.asarray(sample_times),
            queued_tasks=np.asarray(sample_queued, dtype=np.int64),
            busy_servers=np.asarray(sample_busy, dtype=np.int64),
        )

    mean_service = float(
        np.mean([server_cdfs[sid].mean() for sid in range(n)])
    )
    if config.workload is not None:
        offered = config.workload.load(n)
    else:
        span = float(arrival.max() - arrival.min())
        offered = (
            float(fanout.sum()) * mean_service / (n * span) if span > 0 else 0.0
        )

    if tracing:
        rec.set_gauge("utilization",
                      busy_total / (n * now) if now > 0 else 0.0)
        rec.set_gauge("deadline_miss_ratio",
                      tasks_missed / tasks_total if tasks_total else 0.0)
        rec.set_gauge("duration_ms", now)

    return SimulationResult(
        policy_name=policy.name,
        n_servers=n,
        seed=config.seed,
        offered_load=offered,
        classes=tuple(classes),
        class_index=class_index,
        fanout=fanout,
        arrival=arrival,
        latency=latency,
        rejected=rejected,
        measured=measured,
        tasks_total=tasks_total,
        tasks_missed_deadline=tasks_missed,
        busy_time_total=busy_total,
        duration=now,
        mean_service_ms=mean_service,
        timeline=timeline,
        obs=rec if tracing else None,
        **fault_fields,
    )


def simulate(config: ClusterConfig) -> SimulationResult:
    """Run one simulation and collect per-query statistics.

    Fault-free configs run the two-stream merge in :func:`_fast_loop`;
    configs with an active :class:`~repro.faults.FaultPlan`, an active
    :class:`~repro.overload.OverloadPolicy`, or an active
    :class:`~repro.replicas.ReplicaPolicy` route through the
    fault-aware event calendar in :mod:`repro.cluster.faultsim` (same
    semantics contract, plus crash/recovery, retries, hedging,
    overload protection, and adaptive redundancy).
    """
    if ((config.faults is not None and config.faults.active)
            or (config.overload is not None and config.overload.active)
            or (config.replicas is not None and config.replicas.active)):
        from repro.cluster.faultsim import simulate_with_faults

        return simulate_with_faults(config)

    policy = config.resolve_policy()
    root_rng = np.random.default_rng(config.seed)
    spec_rng, placement_rng, service_rng = root_rng.spawn(3)

    n = config.n_servers
    server_cdfs = config.resolve_server_cdfs()
    server_stream = _server_streams(config, server_cdfs, service_rng)

    estimator = config.estimator
    if estimator is None:
        estimator = DeadlineEstimator(dict(server_cdfs))

    rec = config.recorder
    tracing = rec is not None and rec.enabled
    placement = config.placement

    specs, servers_list, classes, class_index, fanout, arrival = (
        _prepare_stream(config, spec_rng))

    perturbations = tuple(config.perturbations)
    perturbed_servers = (
        frozenset().union(*(p.server_ids for p in perturbations))
        if perturbations else frozenset()
    )

    online = estimator.online_enabled
    query_budget: List[float] = []
    if estimator.homogeneous and not online and placement is None:
        query_budget = _budget_array(estimator, classes, class_index,
                                     fanout, n, servers_list)

    (latency, rejected, busy_total, tasks_total, tasks_missed, now,
     sample_times, sample_queued, sample_busy) = _fast_loop(
        policy, n, len(class_index), classes, class_index, fanout, arrival,
        specs, servers_list, query_budget or None, estimator, online,
        config.admission, placement, server_stream, perturbations,
        perturbed_servers, placement_rng, config.timeline_interval_ms,
        rec if tracing else None)
    return _finalize(config, policy, n, server_cdfs, classes, class_index,
                     fanout, arrival, latency, rejected, busy_total,
                     tasks_total, tasks_missed, now, sample_times,
                     sample_queued, sample_busy, rec, tracing)
