"""Fault-aware event-calendar simulation (the fast path under faults).

:func:`repro.cluster.simulation.simulate` routes here when the config
carries an active :class:`~repro.faults.plan.FaultPlan`, an active
:class:`~repro.overload.OverloadPolicy` or an active
:class:`~repro.replicas.ReplicaPolicy` (overload- and replica-only
runs use an empty fault plan).  One loop, :func:`_fault_loop`, layers
crash/recovery transitions, pause/kill semantics, retry-with-backoff
requeues, queued-copy timeouts, hedged requests, and the overload
controller (adaptive admission, circuit breakers, partial-fanout
degradation, CDF drift re-bootstrap) on top of the model the no-fault
calendar runs, and shares that calendar's stream preparation, budget,
placement-check and wrap-up helpers, so the underlying trace is
byte-identical.

The loop keeps slot records as plain lists, inlines the FIFO queue as
a deque and the EDF family as a lazy-deletion heap (PRIQ, WRR and
registry policies keep the policy's queue objects), and files
constant-delay mitigation timers on two pre-sorted deques beside the
main heap.  Tracing, the overload controller, admission, the placement
hook and caller-supplied specs, per-query deadline stamping, online
estimation, per-server service streams, per-primary hedge delays,
timeline sampling and perturbations each cost one local flag check
per site when off.  The golden-master corpus pins event order, RNG
consumption and float accumulation order.

Event ordering at equal timestamps (the contract the DES-kernel fault
path mirrors; see ``docs/faults.md``):

1. crash/recovery transitions,
2. task completions,
3. retry requeues and queued-copy timeouts,
4. hedge timers,
5. query arrivals.

Ties *within* a rank replay in creation order (a monotone sequence
number), matching the kernel's (time, priority, insertion-order) rule.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.results import SimulationResult
from repro.cluster.simulation import (
    _budget_array,
    _finalize,
    _place,
    _prepare_stream,
    _server_streams,
)
from repro.core.deadline import DeadlineEstimator
from repro.core.policies import FIFOPolicy, TEDFPolicy, TFEDFPolicy
from repro.faults.plan import FAIL, FaultPlan, fault_horizon, pick_server
from repro.obs.events import (
    DEADLINE_MISS,
    QUERY_ARRIVE,
    QUERY_COMPLETE,
    QUERY_REJECTED,
    QUERY_TIMEOUT,
    SERVER_FAIL,
    SERVER_RECOVER,
    TASK_CANCEL,
    TASK_COMPLETE,
    TASK_DEQUEUE,
    TASK_ENQUEUE,
    TASK_HEDGE,
    TASK_RETRY,
)

#: Heap ranks (ordered processing at equal times).
_R_TRANSITION = 0
_R_COMPLETE = 1
_R_RETRY = 2
_R_HEDGE = 3

#: Integer event codes.  FAIL/RECOVER share rank 0 — the unique
#: sequence number breaks their ties, so codes are never compared by
#: the heap.
_E_FAIL = 0
_E_RECOVER = 1
_E_COMPLETE = 2
_E_REQUEUE = 3
_E_TIMEOUT = 4
_E_HEDGE = 5


def _task_started(rec, admission, ctrl, now: float, sid: int, slot: list,
                  class_names, class_index, fanout_l) -> None:
    """Admission, trace and overload feeds for a copy's first service
    start, in that order (``rec`` is a recorder or ``None``)."""
    qidx = slot[0]
    deadline = slot[1]
    missed = now > deadline
    if admission is not None:
        admission.record_task(missed, now)
    if rec is not None:
        rec.inc("tasks_dequeued")
        rec.emit(TASK_DEQUEUE, now, server_id=sid, query_id=qidx,
                 class_name=class_names[class_index[qidx]],
                 fanout=fanout_l[qidx], deadline=deadline,
                 slack=deadline - now, extra={"slot": slot[9]})
        if missed:
            rec.inc("deadline_misses")
            rec.emit(DEADLINE_MISS, now, server_id=sid, query_id=qidx,
                     deadline=deadline, slack=deadline - now)
    if ctrl is not None:
        ctrl.record_task(sid, qidx, missed, deadline - now, now)


def _breaker_retry_pick(ctrl, rc, depth, up_l, exclude, now: float):
    """Retry target under an overload controller: least-loaded (or
    scored) among breaker-permitted up servers, falling back to every
    up server — failing the slot outright would turn a brown-out into
    an outage.  Returns ``(target, fellback)`` so the trace can mark
    retries that knowingly overrode breaker state."""
    eff = ctrl.mitigation_up(up_l, now)
    if rc is not None:
        target = rc.pick(depth, eff, exclude)
        if target < 0 and eff is not up_l:
            target = rc.pick(depth, up_l, exclude)
            return target, target >= 0
        return target, False
    target = pick_server(depth, eff, exclude)
    if target < 0 and eff is not up_l:
        target = pick_server(depth, up_l, exclude)
        return target, target >= 0
    return target, False


def _sample_timeline(now: float, next_sample: float, interval: float,
                     queues, busy, times, queued, busy_counts) -> float:
    """Record every timeline sample at or before ``now`` and return the
    next sample time.  The state is the one just before the event at
    ``now``: queued copies (phantoms and dead heap entries included,
    as every queue length here counts them) and busy servers."""
    n_queued = 0
    for queue in queues:
        n_queued += len(queue)
    n_busy = 0
    for cid in busy:
        if cid >= 0:
            n_busy += 1
    while next_sample <= now:
        times.append(next_sample)
        queued.append(n_queued)
        busy_counts.append(n_busy)
        next_sample += interval
    return next_sample


def _fault_loop(policy, n: int, m: int, classes, class_index, fanout,
                arrival, specs, servers_list, query_budget, estimator,
                online: bool, admission, placement, server_stream,
                perturbations, perturbed_servers, placement_rng,
                sample_interval, rec, transitions, strag_eps,
                straggling: bool, kill_mode: bool, retry, hedge, ctrl, rc):
    """The fault calendar: sorted arrivals merged against an event heap
    and two timer deques, with plain-list state.

    Each task slot is a list ``[qidx, deadline, key, done, failed,
    attempts, hedges, pending, live, slot_index]``.  FIFO queues are
    raw deques and PRIQ, WRR and registry policies keep the policy's
    queue objects, both with a phantom set for cancelled copies; the
    EDF family is a lazy-deletion heap of ``[key, seq, cid, slot,
    live]`` entries mirroring ``LazyEDFTaskQueue``, per-queue sequence
    counters included.  Completions carry their slot in the heap
    payload.

    Queued-copy timeouts, and hedge timers whose delay is one constant
    for the whole run, go on the ``tq``/``hq`` deques: event time never
    decreases, so their due times arrive sorted.  A hedge delay that
    varies (an adaptive replica controller, quantile delays per primary
    server, or an estimator that refreshes or re-bootstraps) puts hedge
    timers on the main heap with their base delay in the payload.

    ``rec`` (a recorder or ``None``), ``ctrl`` (an overload controller
    or ``None``), ``rc`` (a replica controller or ``None``), admission,
    the placement hook, pre-assigned servers, per-query deadlines,
    online estimation, per-server streams, sampling and perturbations
    cost one local flag check per site when off.  Traced start-of-service
    work and breaker-aware retry picks go through module-level helpers.
    Every heap push happens at a fixed call site in a fixed order, so
    event order and RNG consumption are deterministic.

    Without retry and hedge (a pause-only plan, or a replica policy
    alone) no timer is ever armed and no copy is ever cancelled: each
    slot keeps its single primary copy, and a crash pauses it until the
    server recovers.
    """
    heappush, heappop = heapq.heappush, heapq.heappop
    infinity = float("inf")

    is_fifo = type(policy) is FIFOPolicy
    inline_heap = type(policy) in (TEDFPolicy, TFEDFPolicy)
    queue_objects = not is_fifo and not inline_heap
    key_is_slo = type(policy) is TEDFPolicy
    queue_key = policy.queue_key
    arrival_l = arrival.tolist()
    fanout_l = fanout.tolist()
    class_names = [cls.name for cls in classes]
    slo_by_class = [cls.slo_ms for cls in classes]
    admit = admission.admit if admission is not None else None
    wants_depths = bool(getattr(placement, "needs_queue_depths", False))
    has_perturb = bool(perturbed_servers)
    tracing = rec is not None
    start_hooks = tracing or admission is not None or ctrl is not None
    win_feeds = online or ctrl is not None

    has_retry = retry is not None
    max_retries = retry.max_retries if has_retry else 0
    backoff_ms = retry.backoff_ms if has_retry else 0.0
    has_timeout = has_retry and retry.timeout_ms is not None
    timeout_ms = retry.timeout_ms if has_timeout else 0.0
    has_hedge = hedge is not None
    max_hedges = hedge.max_hedges if has_hedge else 0
    adaptive = rc is not None and rc.adaptive_delay
    scored_fanout = rc is not None and rc.scorer.scored_fanout
    # The hedge delay is one constant unless quantile-mode delays differ
    # per primary server or move with the estimator.  Routed through the
    # estimator's quantile memo, as every per-slot delay is.
    fixed_delay = has_hedge and (
        hedge.delay_ms is not None
        or (estimator.homogeneous and not online
            and (ctrl is None or ctrl.policy.drift is None)))
    hedge_delay = hedge.delay_via(estimator, 0) if fixed_delay else 0.0
    hedge_lane = fixed_delay and not adaptive

    # Deadlines and queue keys are stamped up front when every query
    # takes the hoisted budget: elementwise float64 adds, bit-identical
    # to the scalar ``now + budget`` stamps.
    prestamped = (query_budget is not None and servers_list is None
                  and ctrl is None)
    if prestamped:
        deadline_l = (arrival + np.asarray(query_budget)).tolist()
        if key_is_slo:
            key_l = (arrival + np.asarray(slo_by_class)[class_index]).tolist()
        else:
            # TF-EDFQ orders by the stamped deadline; FIFO ignores keys
            # and queue objects take the policy's key per query.
            key_l = deadline_l

    new_queue = (deque if is_fifo else list if inline_heap
                 else policy.create_queue)
    queues = []
    pops = []
    for _ in range(n):
        queue = new_queue()
        queues.append(queue)
        if not inline_heap:
            pops.append(queue.popleft if is_fifo else queue.pop)
    qseq = [0] * n
    qentry: Dict[int, List] = {}       # queued copy id -> its heap entry
    cancelled: set = set()             # phantoms (lazy removal)
    discard: set = set()               # in-service losers (result void)
    hedged: set = set()                # hedge-launched copy ids

    # Timer calendars.  Entries share the main heap's (time, rank, seq,
    # code, ...) shape and the global seq counter, so the three-way
    # merge below reproduces the single-heap processing order exactly.
    tq: deque = deque()                # queued-copy timeout timers
    hq: deque = deque()                # hedge timers (constant delay)

    busy = [-1] * n
    busy_slot: List[Optional[list]] = [None] * n
    paused_cid = [-1] * n
    paused_slot: List[Optional[list]] = [None] * n
    down = [False] * n
    up_l = [True] * n
    epoch = [0] * n
    depth = [0] * n
    service_start = [0.0] * n
    all_servers = tuple(range(n))
    pr_integers = placement_rng.integers
    pr_choice = placement_rng.choice
    # One block buffer indexed inline when every server shares a stream;
    # bound ``next`` methods otherwise.
    single_stream = len({id(stream) for stream in server_stream}) == 1
    drain = server_stream[0].drain_block
    nexts = [stream.next for stream in server_stream]
    sbuf: List[float] = []
    sidx = 0
    slen = 0

    remaining = list(fanout_l)
    failed_l = [False] * m
    rejected = np.zeros(m, dtype=bool)
    coverage_q: Optional[np.ndarray] = None
    degraded_q: Optional[np.ndarray] = None
    if ctrl is not None:
        coverage_q = np.full(m, np.nan)
        degraded_q = np.zeros(m, dtype=bool)
    comp_idx: List[int] = []
    comp_time: List[float] = []

    heap: List[Tuple] = []
    seq = 0
    for t, sid, kind in transitions:
        heap.append((t, _R_TRANSITION, seq,
                     _E_FAIL if kind == FAIL else _E_RECOVER, sid))
        seq += 1

    busy_total = 0.0
    tasks_total = 0
    tasks_missed = 0
    tasks_failed = 0
    tasks_retried = 0
    tasks_hedged = 0
    tasks_cancelled = 0
    server_failures = 0
    next_cid = 0
    now = 0.0
    qi = 0

    # Timeline samples: state between events is constant, so each event
    # first records every sample boundary it passed.
    sampling = sample_interval is not None
    next_sample = sample_interval if sampling else infinity
    sample_times: List[float] = []
    sample_queued: List[int] = []
    sample_busy: List[int] = []

    def enqueue_copy(sid: int, cid: int, slot: list) -> bool:
        """Queue or start a fresh copy.  Returns True when it queued —
        a copy that enters service immediately can never time out, so
        callers skip arming its (provably no-op) timeout timer."""
        nonlocal seq, tasks_total, tasks_missed, sbuf, sidx, slen
        if busy[sid] >= 0 or down[sid]:
            if inline_heap:
                entry = [slot[2], qseq[sid], cid, slot, True]
                qseq[sid] += 1
                qentry[cid] = entry
                heappush(queues[sid], entry)
            elif is_fifo:
                queues[sid].append((cid, slot))
            else:
                queues[sid].push((cid, slot), slot[2])
            depth[sid] += 1
            if tracing:
                rec.emit(TASK_ENQUEUE, now, server_id=sid, query_id=slot[0],
                         deadline=slot[1], slack=slot[1] - now,
                         extra={"queue_len": len(queues[sid])})
            return True
        # ----- immediate service start (inlined) ----------------------
        busy[sid] = cid
        busy_slot[sid] = slot
        depth[sid] += 1
        service_start[sid] = now
        if single_stream:
            if sidx == slen:
                sbuf = drain()
                slen = len(sbuf)
                sidx = 0
            duration = sbuf[sidx]
            sidx += 1
        else:
            duration = nexts[sid]()
        if straggling:
            eps = strag_eps[sid]
            if eps:
                factor = 1.0
                for start_ms, end_ms, fac in eps:
                    if start_ms <= now < end_ms:
                        factor *= fac
                duration *= factor
        if has_perturb and sid in perturbed_servers:
            for perturbation in perturbations:
                if perturbation.applies(sid, now):
                    duration *= perturbation.factor
        tasks_total += 1
        if now > slot[1]:
            tasks_missed += 1
        if start_hooks:
            _task_started(rec, admission, ctrl, now, sid, slot, class_names,
                          class_index, fanout_l)
        if rc is not None:
            rc.on_task_start(sid, slot[1] - now)
        heappush(heap, (now + duration, _R_COMPLETE, seq, _E_COMPLETE,
                        sid, cid, duration, epoch[sid], slot))
        seq += 1
        return False

    def pick(exclude) -> int:
        # pick_server inlined: least-loaded up server, ties -> lowest id.
        best = -1
        best_depth = -1
        if exclude:
            for sid in all_servers:
                if not up_l[sid] or sid in exclude:
                    continue
                if best < 0 or depth[sid] < best_depth:
                    best = sid
                    best_depth = depth[sid]
        else:
            for sid in all_servers:
                if up_l[sid] and (best < 0 or depth[sid] < best_depth):
                    best = sid
                    best_depth = depth[sid]
        return best

    def slot_fail(slot: list) -> None:
        nonlocal tasks_failed
        slot[4] = True
        tasks_failed += 1
        if rc is not None and slot[6] > 0:
            rc.record_hedge_outcome(False, now)
        qidx = slot[0]
        if tracing and not failed_l[qidx]:
            # First slot loss: the query just became permanently failed.
            rec.inc("queries_timed_out")
            rec.emit(QUERY_TIMEOUT, now, query_id=qidx,
                     class_name=class_names[class_index[qidx]],
                     fanout=fanout_l[qidx])
        failed_l[qidx] = True
        remaining[qidx] -= 1

    def schedule_requeue(slot: list, reason: str) -> None:
        nonlocal seq
        if not has_retry or slot[5] >= max_retries:
            slot_fail(slot)
            return
        slot[5] += 1
        slot[7] += 1
        heappush(heap, (now + backoff_ms * slot[5], _R_RETRY, seq,
                        _E_REQUEUE, slot, reason))
        seq += 1

    while qi < m or heap or tq or hq:
        next_arrival = arrival_l[qi] if qi < m else infinity

        # Three-way merge: main heap + the two timer deques.  Entries
        # share one (time, rank, seq, ...) ordering, so picking the
        # smallest head replays the single-heap order exactly.
        while True:
            # Purge dead timer heads before the merge: deadness is
            # monotone (done/failed stick, hedge counts only grow), so a
            # timer that would no-op at dispatch no-ops forever and can
            # be dropped without paying the full dispatch ceremony.
            while hq:
                entry = hq[0]
                slot = entry[4]
                if slot[3] or slot[4] or slot[6] >= max_hedges:
                    hq.popleft()
                else:
                    break
            while tq:
                entry = tq[0]
                slot = entry[5]
                if slot[3] or slot[4]:
                    tq.popleft()
                else:
                    break
            if heap:
                head = heap[0]
                src = 0
            else:
                head = None
                src = -1
            if tq:
                entry = tq[0]
                if head is None or entry < head:
                    head = entry
                    src = 1
            if hq:
                entry = hq[0]
                if head is None or entry < head:
                    head = entry
                    src = 2
            if head is None:
                break
            now = head[0]
            if now > next_arrival:
                break
            if sampling and next_sample <= now:
                next_sample = _sample_timeline(
                    now, next_sample, sample_interval, queues, busy,
                    sample_times, sample_queued, sample_busy)
            if src == 0:
                heappop(heap)
            elif src == 1:
                tq.popleft()
            else:
                hq.popleft()
            code = head[3]

            if code == _E_COMPLETE:
                sid = head[4]
                if head[7] != epoch[sid]:
                    continue  # stale: the server crashed mid-service
                cid = head[5]
                duration = head[6]
                busy_total += duration
                busy[sid] = -1
                depth[sid] -= 1
                if cid in discard:
                    discard.discard(cid)
                else:
                    slot = head[8]
                    slot[3] = True
                    live = slot[8]
                    live.pop(cid, None)
                    if win_feeds:
                        if online:
                            estimator.record(sid, duration)
                        if ctrl is not None:
                            ctrl.on_task_complete(sid, duration, now)
                    if rc is not None:
                        # Winners only: losers are cancelled/discarded
                        # and never reach the tail EWMA, matching the
                        # estimator/controller feed rule.
                        rc.on_task_complete(sid, duration)
                        if slot[6] > 0:
                            rc.record_hedge_outcome(cid in hedged, now)
                    if tracing:
                        rec.emit(TASK_COMPLETE, now, server_id=sid,
                                 query_id=slot[0],
                                 class_name=class_names[
                                     class_index[slot[0]]],
                                 extra={"duration": duration,
                                        "slot": slot[9]})
                        for other_sid in live.values():
                            rec.emit(TASK_CANCEL, now, server_id=other_sid,
                                     query_id=slot[0],
                                     extra={"reason": "hedge_lost",
                                            "slot": slot[9]})
                    if live:
                        for other_cid, other_sid in live.items():
                            if busy[other_sid] == other_cid:
                                discard.add(other_cid)
                            elif paused_cid[other_sid] == other_cid:
                                # A paused loser evaporates: nothing to
                                # restart at its server's recovery.
                                paused_cid[other_sid] = -1
                                paused_slot[other_sid] = None
                            elif inline_heap:
                                entry = qentry.pop(other_cid)
                                entry[4] = False
                            else:
                                cancelled.add(other_cid)
                            tasks_cancelled += 1
                        live.clear()
                    qidx = slot[0]
                    left = remaining[qidx] - 1
                    remaining[qidx] = left
                    if not left and not failed_l[qidx]:
                        comp_idx.append(qidx)
                        comp_time.append(now)
                        if tracing:
                            latency = now - arrival_l[qidx]
                            rec.observe_latency(latency)
                            rec.inc("queries_completed")
                            rec.emit(QUERY_COMPLETE, now, query_id=qidx,
                                     class_name=class_names[
                                         class_index[qidx]],
                                     fanout=fanout_l[qidx],
                                     extra={"latency": latency})
                if down[sid]:
                    continue
                # ----- next live queued copy (inlined, hot path) -------
                queue = queues[sid]
                if inline_heap:
                    popped = 0
                    qitem = None
                    while queue:
                        qitem = heappop(queue)
                        popped += 1
                        if qitem[4]:
                            break
                        qitem = None
                    depth[sid] -= popped
                    if qitem is None:
                        continue
                    cid = qitem[2]
                    slot = qitem[3]
                    del qentry[cid]
                else:
                    pop = pops[sid]
                    cid = -1
                    while queue:
                        cid, slot = pop()
                        depth[sid] -= 1
                        if cid not in cancelled:
                            break
                        cancelled.discard(cid)
                        cid = -1
                    if cid < 0:
                        continue
                busy[sid] = cid
                busy_slot[sid] = slot
                depth[sid] += 1
                service_start[sid] = now
                if single_stream:
                    if sidx == slen:
                        sbuf = drain()
                        slen = len(sbuf)
                        sidx = 0
                    duration = sbuf[sidx]
                    sidx += 1
                else:
                    duration = nexts[sid]()
                if straggling:
                    eps = strag_eps[sid]
                    if eps:
                        factor = 1.0
                        for start_ms, end_ms, fac in eps:
                            if start_ms <= now < end_ms:
                                factor *= fac
                        duration *= factor
                if has_perturb and sid in perturbed_servers:
                    for perturbation in perturbations:
                        if perturbation.applies(sid, now):
                            duration *= perturbation.factor
                tasks_total += 1
                if now > slot[1]:
                    tasks_missed += 1
                if start_hooks:
                    _task_started(rec, admission, ctrl, now, sid, slot,
                                  class_names, class_index, fanout_l)
                if rc is not None:
                    rc.on_task_start(sid, slot[1] - now)
                heappush(heap, (now + duration, _R_COMPLETE, seq,
                                _E_COMPLETE, sid, cid, duration,
                                epoch[sid], slot))
                seq += 1

            elif code == _E_HEDGE:
                slot = head[4]
                if slot[3] or slot[4] or slot[6] >= max_hedges:
                    continue
                live = slot[8]
                if rc is not None:
                    # Budget/pressure/score gating + scored pick; a
                    # suppressed hedge re-arms without consuming a
                    # max_hedges slot.  Breaker-refused servers are
                    # never hedge targets (duplicates are optional).
                    target = rc.hedge_target(
                        depth, up_l if ctrl is None
                        else ctrl.mitigation_up(up_l, now),
                        live.values(), now, slot[0])
                elif ctrl is None:
                    target = pick(live.values())
                else:
                    target = pick_server(
                        depth, ctrl.mitigation_up(up_l, now), live.values())
                if target >= 0:
                    slot[6] += 1
                    tasks_hedged += 1
                    if tracing:
                        rec.emit(TASK_HEDGE, now, server_id=target,
                                 query_id=slot[0], deadline=slot[1],
                                 extra={"hedge": slot[6], "slot": slot[9]})
                    cid = next_cid
                    next_cid += 1
                    live[cid] = target
                    if rc is not None:
                        hedged.add(cid)
                    if enqueue_copy(target, cid, slot) and has_timeout:
                        tq.append((now + timeout_ms, _R_RETRY, seq,
                                   _E_TIMEOUT, cid, slot))
                        seq += 1
                    if slot[6] >= max_hedges:
                        continue
                if hedge_lane:
                    hq.append((now + hedge_delay, _R_HEDGE, seq,
                               _E_HEDGE, slot))
                else:
                    base = head[5]
                    heappush(heap, (now + base * rc.delay_scale()
                                    if adaptive else now + base,
                                    _R_HEDGE, seq, _E_HEDGE, slot, base))
                seq += 1

            elif code == _E_REQUEUE:
                slot = head[4]
                slot[7] -= 1
                if slot[3] or slot[4]:
                    continue
                live = slot[8]
                fellback = False
                if ctrl is not None:
                    target, fellback = _breaker_retry_pick(
                        ctrl, rc, depth, up_l, live.values(), now)
                elif rc is not None:
                    target = rc.pick(depth, up_l, live.values())
                else:
                    target = pick(live.values())
                if target < 0:
                    slot_fail(slot)
                    continue
                tasks_retried += 1
                if rc is not None:
                    rc.record_launch()
                if tracing:
                    extra = {"attempt": slot[5], "reason": head[5],
                             "slot": slot[9]}
                    if fellback:
                        extra["fallback"] = True
                    rec.emit(TASK_RETRY, now, server_id=target,
                             query_id=slot[0], deadline=slot[1], extra=extra)
                cid = next_cid
                next_cid += 1
                live[cid] = target
                if enqueue_copy(target, cid, slot) and has_timeout:
                    tq.append((now + timeout_ms, _R_RETRY, seq,
                               _E_TIMEOUT, cid, slot))
                    seq += 1

            elif code == _E_TIMEOUT:
                cid = head[4]
                slot = head[5]
                if slot[3] or slot[4]:
                    continue
                live = slot[8]
                sid = live.get(cid, -1)
                if sid < 0 or busy[sid] == cid:
                    continue  # no longer queued / in (or past) service
                if slot[5] >= max_retries:
                    continue  # budget exhausted: leave it queued
                del live[cid]
                if inline_heap:
                    entry = qentry.pop(cid)
                    entry[4] = False
                else:
                    cancelled.add(cid)
                tasks_cancelled += 1
                if tracing:
                    rec.emit(TASK_CANCEL, now, server_id=sid,
                             query_id=slot[0],
                             extra={"reason": "timeout", "slot": slot[9]})
                schedule_requeue(slot, "timeout")

            elif code == _E_FAIL:
                sid = head[4]
                server_failures += 1
                down[sid] = True
                up_l[sid] = False
                epoch[sid] += 1
                if tracing:
                    rec.emit(SERVER_FAIL, now, server_id=sid)
                if ctrl is not None:
                    ctrl.on_server_fail(sid, now)
                victims: List[Tuple[int, list]] = []
                cid = busy[sid]
                if cid >= 0:
                    busy_total += now - service_start[sid]
                    busy[sid] = -1
                    depth[sid] -= 1
                    if cid in discard:
                        discard.discard(cid)
                    elif kill_mode:
                        victims.append((cid, busy_slot[sid]))
                    else:
                        paused_cid[sid] = cid
                        paused_slot[sid] = busy_slot[sid]
                if kill_mode:
                    queue = queues[sid]
                    if inline_heap:
                        popped = 0
                        while queue:
                            entry = heappop(queue)
                            popped += 1
                            if entry[4]:
                                del qentry[entry[2]]
                                victims.append((entry[2], entry[3]))
                        depth[sid] -= popped
                    else:
                        pop = pops[sid]
                        while queue:
                            vcid, vslot = pop()
                            depth[sid] -= 1
                            if vcid in cancelled:
                                cancelled.discard(vcid)
                                continue
                            victims.append((vcid, vslot))
                    for vcid, vslot in victims:
                        if vslot[3] or vslot[4]:
                            continue
                        vlive = vslot[8]
                        vsid = vlive.pop(vcid, -1)
                        if vlive or vslot[7]:
                            tasks_cancelled += 1
                            if tracing:
                                rec.emit(TASK_CANCEL, now, server_id=vsid,
                                         query_id=vslot[0],
                                         extra={"reason": "server_fail",
                                                "slot": vslot[9]})
                            continue
                        schedule_requeue(vslot, "server_fail")

            else:                                # ----- _E_RECOVER
                sid = head[4]
                down[sid] = False
                up_l[sid] = True
                if tracing:
                    rec.emit(SERVER_RECOVER, now, server_id=sid)
                if ctrl is not None:
                    ctrl.on_server_recover(sid, now)
                cid = paused_cid[sid]
                if cid >= 0:
                    paused_cid[sid] = -1
                    slot = paused_slot[sid]
                    paused_slot[sid] = None
                    # ----- restart paused task (inlined, no recount) ---
                    busy[sid] = cid
                    busy_slot[sid] = slot
                    depth[sid] += 1
                    service_start[sid] = now
                    if single_stream:
                        if sidx == slen:
                            sbuf = drain()
                            slen = len(sbuf)
                            sidx = 0
                        duration = sbuf[sidx]
                        sidx += 1
                    else:
                        duration = nexts[sid]()
                    if straggling:
                        eps = strag_eps[sid]
                        if eps:
                            factor = 1.0
                            for start_ms, end_ms, fac in eps:
                                if start_ms <= now < end_ms:
                                    factor *= fac
                            duration *= factor
                    if has_perturb and sid in perturbed_servers:
                        for perturbation in perturbations:
                            if perturbation.applies(sid, now):
                                duration *= perturbation.factor
                    heappush(heap, (now + duration, _R_COMPLETE, seq,
                                    _E_COMPLETE, sid, cid, duration,
                                    epoch[sid], slot))
                    seq += 1
                    continue
                # The idle server takes its next live queued copy.
                queue = queues[sid]
                if inline_heap:
                    popped = 0
                    while queue:
                        entry = heappop(queue)
                        popped += 1
                        if entry[4]:
                            break
                    else:
                        entry = None
                    depth[sid] -= popped
                    if entry is not None:
                        del qentry[entry[2]]
                        enqueue_copy(sid, entry[2], entry[3])
                else:
                    pop = pops[sid]
                    while queue:
                        cid, slot = pop()
                        depth[sid] -= 1
                        if cid not in cancelled:
                            enqueue_copy(sid, cid, slot)
                            break
                        cancelled.discard(cid)

        if qi >= m:
            break  # heap fully drained, no arrivals left

        # ----- query arrival -------------------------------------------
        now = next_arrival
        if sampling and next_sample <= now:
            next_sample = _sample_timeline(
                now, next_sample, sample_interval, queues, busy,
                sample_times, sample_queued, sample_busy)
        qidx = qi
        qi += 1
        k = fanout_l[qidx]
        if tracing:
            rec.inc("queries_arrived")
            rec.emit(QUERY_ARRIVE, now, query_id=qidx,
                     class_name=class_names[class_index[qidx]], fanout=k)
        if admit is not None and not admit(now):
            rejected[qidx] = True
            if tracing:
                rec.inc("queries_rejected")
                rec.emit(QUERY_REJECTED, now, query_id=qidx,
                         class_name=class_names[class_index[qidx]],
                         fanout=k,
                         extra={"miss_ratio": admission.miss_ratio()})
            continue

        pre = servers_list[qidx] if servers_list is not None else None
        if pre is not None:
            servers = pre
        elif placement is not None:
            servers = _place(placement, specs[qidx], placement_rng,
                             tuple(depth) if wants_depths else None,
                             n, k, qidx)
        elif k == n:
            servers = all_servers
        elif k == 1:
            servers = (int(pr_integers(n)),)
        else:
            servers = pr_choice(n, size=k, replace=False).tolist()
        if scored_fanout and pre is None and placement is None:
            # The nominal uniform draw above still consumed the RNG, so
            # downstream streams are unperturbed; the slots just go to
            # the k best-scored servers instead.
            servers = rc.place_fanout(k, depth)

        if prestamped:
            deadline = deadline_l[qidx]
            keyval = key_l[qidx]
        else:
            cls = classes[class_index[qidx]]
            if ctrl is not None:
                decision = ctrl.route_query(now, qidx, cls, servers, depth)
                if decision is None:
                    rejected[qidx] = True
                    if tracing:
                        rec.inc("queries_rejected")
                        rec.emit(QUERY_REJECTED, now, query_id=qidx,
                                 class_name=cls.name, fanout=k,
                                 extra={"miss_ratio": ctrl.miss_ratio()})
                    continue
                servers = decision.servers
                deadline = decision.deadline
                coverage_q[qidx] = decision.coverage
                degraded_q[qidx] = decision.degraded
                remaining[qidx] = len(servers)
            elif query_budget is not None and pre is None:
                deadline = now + query_budget[qidx]
            elif estimator.homogeneous:
                deadline = estimator.deadline(now, cls, fanout=k)
            else:
                deadline = estimator.deadline(now, cls, servers=servers)
            keyval = (now + slo_by_class[class_index[qidx]] if key_is_slo
                      else deadline)
        if queue_objects:
            keyval = queue_key(now, classes[class_index[qidx]], deadline)

        for j, sid in enumerate(servers):
            slot = [qidx, deadline, keyval, False, False, 0, 0, 0, {}, j]
            target = sid
            if kill_mode and down[sid]:
                # Dispatch-time redirect away from a down server (free:
                # no retry budget consumed).
                target = pick(())
                if target < 0:
                    slot_fail(slot)
                    continue
                tasks_retried += 1
                if tracing:
                    rec.emit(TASK_RETRY, now, server_id=target,
                             query_id=qidx, deadline=deadline,
                             extra={"attempt": 0, "reason": "redirect",
                                    "slot": j})
            cid = next_cid
            next_cid += 1
            slot[8][cid] = target
            if rc is not None:
                rc.record_launch()
            if enqueue_copy(target, cid, slot) and has_timeout:
                tq.append((now + timeout_ms, _R_RETRY, seq,
                           _E_TIMEOUT, cid, slot))
                seq += 1
            if has_hedge:
                # Heap timers carry their base delay: re-arms keep the
                # primary server's delay, rescaled by an adaptive
                # controller each time.
                if hedge_lane:
                    hq.append((now + hedge_delay, _R_HEDGE, seq,
                               _E_HEDGE, slot))
                elif fixed_delay:
                    heappush(heap, (now + hedge_delay * rc.delay_scale(),
                                    _R_HEDGE, seq, _E_HEDGE, slot,
                                    hedge_delay))
                else:
                    base = hedge.delay_via(estimator, sid)
                    heappush(heap, (now + base * rc.delay_scale()
                                    if adaptive else now + base,
                                    _R_HEDGE, seq, _E_HEDGE, slot, base))
                seq += 1

    latency = np.full(m, np.nan)
    if comp_idx:
        # Deferred completion stamps, applied in one vectorized pass:
        # elementwise float64 subtraction, bit-identical to scalar
        # ``now - arrival[qidx]`` writes.
        idx = np.asarray(comp_idx, dtype=np.intp)
        latency[idx] = np.asarray(comp_time) - arrival[idx]
    failed_q = np.asarray(failed_l, dtype=bool)
    return (latency, rejected, failed_q, coverage_q, degraded_q, busy_total,
            tasks_total, tasks_missed, tasks_failed, tasks_retried,
            tasks_hedged, tasks_cancelled, server_failures, now,
            sample_times, sample_queued, sample_busy)


def simulate_with_faults(config: ClusterConfig) -> SimulationResult:
    """Run one fault-injected simulation.

    Same statistics contract as the no-fault loop, plus fault outcome
    counters and the per-query ``failed`` mask (failed queries keep
    ``latency`` = NaN and are excluded from latency statistics).
    """
    plan = config.faults
    overload_policy = config.overload
    overload_active = overload_policy is not None and overload_policy.active
    replica_policy = config.replicas
    replicas_active = replica_policy is not None and replica_policy.active
    assert ((plan is not None and plan.active) or overload_active
            or replicas_active)
    if plan is None:
        # Overload/replica-only run: an empty (inactive) plan keeps the
        # fault machinery inert without special-casing the loop.
        plan = FaultPlan()
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

    materialized = plan.materialize(n, fault_horizon(float(arrival[-1])))

    ctrl = None
    if overload_active:
        ctrl = overload_policy.build(n, estimator, config.recorder)
    rc = None
    if replicas_active:
        rc = replica_policy.build(n, config.recorder)
    perturbations = tuple(config.perturbations)
    perturbed_servers = (
        frozenset().union(*(p.server_ids for p in perturbations))
        if perturbations else frozenset()
    )

    online = estimator.online_enabled
    # A drift re-bootstrap can swap CDFs mid-run, and an overload
    # controller stamps its own deadlines anyway — no hoisted budgets
    # whenever one is active.
    query_budget: List[float] = []
    if (estimator.homogeneous and not online and placement is None
            and ctrl is None):
        query_budget = _budget_array(
            estimator, classes, class_index, fanout, n, servers_list)

    (latency, rejected, failed_q, coverage_q, degraded_q, busy_total,
     tasks_total, tasks_missed, tasks_failed, tasks_retried, tasks_hedged,
     tasks_cancelled, server_failures, now, sample_times, sample_queued,
     sample_busy) = _fault_loop(
        policy, n, len(class_index), classes, class_index, fanout, arrival,
        specs, servers_list, query_budget or None, estimator, online,
        config.admission, placement, server_stream, perturbations,
        perturbed_servers, placement_rng, config.timeline_interval_ms,
        rec if tracing else None, materialized.transitions(),
        [materialized.straggler_episodes(sid) for sid in range(n)],
        bool(plan.stragglers), plan.kill_mode, plan.retry, plan.hedge,
        ctrl, rc)

    return _finalize(
        config, policy, n, server_cdfs, classes, class_index, fanout,
        arrival, latency, rejected, busy_total, tasks_total, tasks_missed,
        now, sample_times, sample_queued, sample_busy, rec, tracing,
        failed=failed_q, tasks_failed=tasks_failed,
        tasks_retried=tasks_retried, tasks_hedged=tasks_hedged,
        tasks_cancelled=tasks_cancelled, server_failures=server_failures,
        coverage=coverage_q, degraded=degraded_q,
        degraded_queries=ctrl.degraded_queries if ctrl is not None else 0,
        shed_tasks=ctrl.shed_tasks if ctrl is not None else 0,
        breaker_trips=ctrl.breaker_trips if ctrl is not None else 0,
        cdf_rebootstraps=ctrl.cdf_rebootstraps if ctrl is not None else 0,
        overload=ctrl,
        hedges_suppressed=rc.hedges_suppressed if rc is not None else 0,
        replicas=rc)
