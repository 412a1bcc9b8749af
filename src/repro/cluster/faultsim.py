"""Fault-aware event-calendar simulation (the fast path under faults).

:func:`repro.cluster.simulation.simulate` routes here when the config
carries an active :class:`~repro.faults.plan.FaultPlan` or an active
:class:`~repro.overload.OverloadPolicy` (overload-only runs use an
empty fault plan).  The no-fault loops stay untouched; these loops
layer crash/recovery transitions, pause/kill semantics,
retry-with-backoff requeues, queued-copy timeouts, hedged requests,
and the overload controller (adaptive admission, circuit breakers,
partial-fanout degradation, CDF drift re-bootstrap) on top of the same
model, sharing the spec/budget preparation helpers so the underlying
trace is byte-identical.

Like the no-fault kernel, :func:`simulate_with_faults` picks one of
two loops.  The common benchmarking shape — untraced, homogeneous,
offline estimator, default placement, FIFO/T-EDFQ/TF-EDFQ, no overload
controller — runs :func:`_fault_loop_mitigated`, with the policy
queues, slot records, and mitigation timers inlined as plain lists.
It serves every plan of that shape: pause-only plans (no retry, no
hedge) and replica-only runs take it too, and simply never arm a timer.
Everything else runs the generic loop.  The specialized loop is pinned
bit-identical to the generic one by the golden-master corpus: event
order, RNG consumption, and float accumulation order are exactly the
generic loop's — only the bookkeeping around them is specialized
(block-drained service samples, int event codes, hoisted hedge delays,
vectorized deadline/key precomputation).

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
from repro.core.deadline import DeadlineEstimator
from repro.core.policies import FIFOPolicy, TEDFPolicy, TFEDFPolicy
from repro.errors import ConfigurationError
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

#: Integer event codes used by the specialized loop (the generic loop
#: keeps its one-character strings).  FAIL/RECOVER share rank 0 — the
#: unique sequence number breaks their ties, so codes are never
#: compared by the heap.
_E_FAIL = 0
_E_RECOVER = 1
_E_COMPLETE = 2
_E_REQUEUE = 3
_E_TIMEOUT = 4
_E_HEDGE = 5


class _Slot:
    """Mitigation state of one (query, slot) pair — the fast-path twin
    of :class:`repro.faults.kernel._Slot`."""

    __slots__ = ("qidx", "slot", "key", "deadline", "primary_sid", "done",
                 "failed", "attempts", "hedges", "pending", "live")

    def __init__(self, qidx: int, slot: int, key: Tuple, deadline: float,
                 primary_sid: int) -> None:
        self.qidx = qidx
        self.slot = slot
        self.key = key
        self.deadline = deadline
        self.primary_sid = primary_sid
        self.done = False
        self.failed = False
        self.attempts = 0
        self.hedges = 0
        self.pending = 0
        self.live: Dict[int, int] = {}  # copy id -> server id

    @property
    def open(self) -> bool:
        return not self.done and not self.failed


def _fault_loop_mitigated(is_fifo: bool, n: int, m: int, arrival, arrival_l,
                          fanout_l, deadline_l, key_l, transitions, stream0,
                          placement_rng, strag_eps, straggling: bool,
                          kill_mode: bool, retry, hedge, hedge_delay: float,
                          rc=None):
    """Specialized loop for every fast-eligible plan.

    The generic loop's ``_Slot`` objects become plain lists
    (``[qidx, deadline, key, done, failed, attempts, hedges, pending,
    live]``), the policy queues inline to a deque + phantom set (FIFO)
    or a lazy-deletion heap of ``[key, seq, cid, slot, live]`` entries
    (EDF family, mirroring ``LazyEDFTaskQueue`` including its per-queue
    sequence counters), completions carry their slot in the heap
    payload (no copy-id indirection dict), and the base hedge delay —
    constant under the homogeneous single-stream precondition — is
    hoisted out of the timer path.  Every heap push happens at the same
    call site in the same order as the generic loop, so event order and
    RNG consumption are bit-identical.

    ``rc`` (a :class:`repro.replicas.ReplicaController` or None) steers
    retry/hedge target picks, gates duplicates, and — when its policy
    adapts the hedge delay — moves hedge timers from the pre-sorted
    ``hq`` deque onto the main heap, because a delay that changes
    between arms breaks the deque's sortedness invariant.

    Without retry and hedge (a pause-only plan, or a replica policy
    alone) no timer is ever armed and no copy is ever cancelled: each
    slot keeps its single primary copy, and a crash pauses it until the
    server recovers.
    """
    heappush, heappop = heapq.heappush, heapq.heappop
    infinity = float("inf")

    has_retry = retry is not None
    max_retries = retry.max_retries if has_retry else 0
    backoff_ms = retry.backoff_ms if has_retry else 0.0
    has_timeout = has_retry and retry.timeout_ms is not None
    timeout_ms = retry.timeout_ms if has_timeout else 0.0
    has_hedge = hedge is not None
    max_hedges = hedge.max_hedges if has_hedge else 0

    queues = ([deque() for _ in range(n)] if is_fifo
              else [[] for _ in range(n)])
    qseq = [0] * n
    qentry: Dict[int, List] = {}       # queued copy id -> its heap entry
    cancelled: set = set()             # FIFO phantoms (lazy removal)
    discard: set = set()               # in-service losers (result void)
    hedged: set = set()                # hedge-launched copy ids
    adaptive = rc is not None and rc.adaptive_delay
    scored_fanout = rc is not None and rc.scorer.scored_fanout

    # Timer calendars.  Both mitigation delays are constants and event
    # time is globally non-decreasing, so due times arrive pre-sorted —
    # plain deques replace ~2 heap operations per armed timer.  Entries
    # share the main heap's (time, rank, seq, code, ...) shape and the
    # global seq counter, so the three-way merge below reproduces the
    # single-heap processing order exactly.  An *adaptive* hedge delay
    # is not constant, so those timers go on the main heap instead.
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
    drain = stream0.drain_block
    sbuf: List[float] = []
    sidx = 0
    slen = 0

    remaining = list(fanout_l)
    failed_l = [False] * m
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

    def start_next(sid: int) -> None:
        nonlocal seq, tasks_total, tasks_missed, sbuf, sidx, slen
        queue = queues[sid]
        if is_fifo:
            while True:
                if not queue:
                    return
                cid, slot = queue.popleft()
                depth[sid] -= 1
                if cid not in cancelled:
                    break
                cancelled.discard(cid)
        else:
            popped = 0
            entry = None
            while queue:
                entry = heappop(queue)
                popped += 1
                if entry[4]:
                    break
                entry = None
            depth[sid] -= popped
            if entry is None:
                return
            cid = entry[2]
            slot = entry[3]
            del qentry[cid]
        # ----- service start (dequeue path, inlined) ------------------
        busy[sid] = cid
        busy_slot[sid] = slot
        depth[sid] += 1
        service_start[sid] = now
        if sidx == slen:
            sbuf = drain()
            slen = len(sbuf)
            sidx = 0
        duration = sbuf[sidx]
        sidx += 1
        if straggling:
            eps = strag_eps[sid]
            if eps:
                factor = 1.0
                for start_ms, end_ms, fac in eps:
                    if start_ms <= now < end_ms:
                        factor *= fac
                duration *= factor
        tasks_total += 1
        if now > slot[1]:
            tasks_missed += 1
        if rc is not None:
            rc.on_task_start(sid, slot[1] - now)
        heappush(heap, (now + duration, _R_COMPLETE, seq, _E_COMPLETE,
                        sid, cid, duration, epoch[sid], slot))
        seq += 1

    def enqueue_copy(sid: int, cid: int, slot: list) -> bool:
        """Queue or start a fresh copy.  Returns True when it queued —
        a copy that enters service immediately can never time out, so
        callers skip arming its (provably no-op) timeout timer."""
        nonlocal seq, tasks_total, tasks_missed, sbuf, sidx, slen
        if busy[sid] >= 0 or down[sid]:
            if is_fifo:
                queues[sid].append((cid, slot))
            else:
                entry = [slot[2], qseq[sid], cid, slot, True]
                qseq[sid] += 1
                qentry[cid] = entry
                heappush(queues[sid], entry)
            depth[sid] += 1
            return True
        # ----- immediate service start (inlined) ----------------------
        busy[sid] = cid
        busy_slot[sid] = slot
        depth[sid] += 1
        service_start[sid] = now
        if sidx == slen:
            sbuf = drain()
            slen = len(sbuf)
            sidx = 0
        duration = sbuf[sidx]
        sidx += 1
        if straggling:
            eps = strag_eps[sid]
            if eps:
                factor = 1.0
                for start_ms, end_ms, fac in eps:
                    if start_ms <= now < end_ms:
                        factor *= fac
                duration *= factor
        tasks_total += 1
        if now > slot[1]:
            tasks_missed += 1
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
        failed_l[qidx] = True
        remaining[qidx] -= 1

    def schedule_requeue(slot: list) -> None:
        nonlocal seq
        if not has_retry or slot[5] >= max_retries:
            slot_fail(slot)
            return
        slot[5] += 1
        slot[7] += 1
        heappush(heap, (now + backoff_ms * slot[5], _R_RETRY, seq,
                        _E_REQUEUE, slot))
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
                busy_total += head[6]
                busy[sid] = -1
                depth[sid] -= 1
                if cid in discard:
                    discard.discard(cid)
                else:
                    slot = head[8]
                    slot[3] = True
                    live = slot[8]
                    live.pop(cid, None)
                    if rc is not None:
                        rc.on_task_complete(sid, head[6])
                        if slot[6] > 0:
                            rc.record_hedge_outcome(cid in hedged, now)
                    if live:
                        for other_cid, other_sid in live.items():
                            if busy[other_sid] == other_cid:
                                discard.add(other_cid)
                            elif paused_cid[other_sid] == other_cid:
                                # A paused loser evaporates: nothing to
                                # restart at its server's recovery.
                                paused_cid[other_sid] = -1
                                paused_slot[other_sid] = None
                            elif is_fifo:
                                cancelled.add(other_cid)
                            else:
                                entry = qentry.pop(other_cid)
                                entry[4] = False
                            tasks_cancelled += 1
                        live.clear()
                    qidx = slot[0]
                    left = remaining[qidx] - 1
                    remaining[qidx] = left
                    if not left and not failed_l[qidx]:
                        comp_idx.append(qidx)
                        comp_time.append(now)
                if down[sid]:
                    continue
                # ----- start_next inlined (hot path) -------------------
                queue = queues[sid]
                if is_fifo:
                    cid = -1
                    while queue:
                        cid, slot = queue.popleft()
                        depth[sid] -= 1
                        if cid not in cancelled:
                            break
                        cancelled.discard(cid)
                        cid = -1
                    if cid < 0:
                        continue
                else:
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
                busy[sid] = cid
                busy_slot[sid] = slot
                depth[sid] += 1
                service_start[sid] = now
                if sidx == slen:
                    sbuf = drain()
                    slen = len(sbuf)
                    sidx = 0
                duration = sbuf[sidx]
                sidx += 1
                if straggling:
                    eps = strag_eps[sid]
                    if eps:
                        factor = 1.0
                        for start_ms, end_ms, fac in eps:
                            if start_ms <= now < end_ms:
                                factor *= fac
                        duration *= factor
                tasks_total += 1
                if now > slot[1]:
                    tasks_missed += 1
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
                    # max_hedges slot.
                    target = rc.hedge_target(depth, up_l, live.values(),
                                             now, slot[0])
                else:
                    target = pick(live.values())
                if target >= 0:
                    slot[6] += 1
                    tasks_hedged += 1
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
                if adaptive:
                    heappush(heap, (now + hedge_delay * rc.delay_scale(),
                                    _R_HEDGE, seq, _E_HEDGE, slot))
                else:
                    hq.append((now + hedge_delay, _R_HEDGE, seq,
                               _E_HEDGE, slot))
                seq += 1

            elif code == _E_REQUEUE:
                slot = head[4]
                slot[7] -= 1
                if slot[3] or slot[4]:
                    continue
                live = slot[8]
                if rc is not None:
                    target = rc.pick(depth, up_l, live.values())
                else:
                    target = pick(live.values())
                if target < 0:
                    slot_fail(slot)
                    continue
                tasks_retried += 1
                if rc is not None:
                    rc.record_launch()
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
                if is_fifo:
                    cancelled.add(cid)
                else:
                    entry = qentry.pop(cid)
                    entry[4] = False
                tasks_cancelled += 1
                schedule_requeue(slot)

            elif code == _E_FAIL:
                sid = head[4]
                server_failures += 1
                down[sid] = True
                up_l[sid] = False
                epoch[sid] += 1
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
                    if is_fifo:
                        while queue:
                            vcid, vslot = queue.popleft()
                            depth[sid] -= 1
                            if vcid in cancelled:
                                cancelled.discard(vcid)
                                continue
                            victims.append((vcid, vslot))
                    else:
                        popped = 0
                        while queue:
                            entry = heappop(queue)
                            popped += 1
                            if entry[4]:
                                del qentry[entry[2]]
                                victims.append((entry[2], entry[3]))
                        depth[sid] -= popped
                    for vcid, vslot in victims:
                        if vslot[3] or vslot[4]:
                            continue
                        vlive = vslot[8]
                        vlive.pop(vcid, None)
                        if vlive or vslot[7]:
                            tasks_cancelled += 1
                            continue
                        schedule_requeue(vslot)

            else:                                # ----- _E_RECOVER
                sid = head[4]
                down[sid] = False
                up_l[sid] = True
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
                    if sidx == slen:
                        sbuf = drain()
                        slen = len(sbuf)
                        sidx = 0
                    duration = sbuf[sidx]
                    sidx += 1
                    if straggling:
                        eps = strag_eps[sid]
                        if eps:
                            factor = 1.0
                            for start_ms, end_ms, fac in eps:
                                if start_ms <= now < end_ms:
                                    factor *= fac
                            duration *= factor
                    heappush(heap, (now + duration, _R_COMPLETE, seq,
                                    _E_COMPLETE, sid, cid, duration,
                                    epoch[sid], slot))
                    seq += 1
                else:
                    start_next(sid)

        if qi >= m:
            break  # heap fully drained, no arrivals left

        # ----- query arrival -------------------------------------------
        now = next_arrival
        qidx = qi
        qi += 1
        k = fanout_l[qidx]
        deadline = deadline_l[qidx]
        keyval = key_l[qidx]
        if k == n:
            servers = all_servers
        elif k == 1:
            servers = (int(pr_integers(n)),)
        else:
            servers = pr_choice(n, size=k, replace=False).tolist()
        if scored_fanout:
            # The nominal uniform draw above still consumed the RNG, so
            # downstream streams are unperturbed; the slots just go to
            # the k best-scored servers instead.
            servers = rc.place_fanout(k, depth)
        for sid in servers:
            slot = [qidx, deadline, keyval, False, False, 0, 0, 0, {}]
            if kill_mode and down[sid]:
                # Dispatch-time redirect away from a down server (free:
                # no retry budget consumed).
                target = pick(())
                if target < 0:
                    slot_fail(slot)
                    continue
                tasks_retried += 1
                sid = target
            cid = next_cid
            next_cid += 1
            slot[8][cid] = sid
            if rc is not None:
                rc.record_launch()
            if enqueue_copy(sid, cid, slot) and has_timeout:
                tq.append((now + timeout_ms, _R_RETRY, seq,
                           _E_TIMEOUT, cid, slot))
                seq += 1
            if has_hedge:
                if adaptive:
                    heappush(heap, (now + hedge_delay * rc.delay_scale(),
                                    _R_HEDGE, seq, _E_HEDGE, slot))
                else:
                    hq.append((now + hedge_delay, _R_HEDGE, seq,
                               _E_HEDGE, slot))
                seq += 1

    latency = np.full(m, np.nan)
    if comp_idx:
        idx = np.asarray(comp_idx, dtype=np.intp)
        latency[idx] = np.asarray(comp_time) - arrival[idx]
    failed_q = np.asarray(failed_l, dtype=bool)
    return (latency, failed_q, busy_total, tasks_total, tasks_missed,
            tasks_failed, tasks_retried, tasks_hedged, tasks_cancelled,
            server_failures, now)


def simulate_with_faults(config: ClusterConfig) -> SimulationResult:
    """Run one fault-injected simulation.

    Same statistics contract as the no-fault loop, plus fault outcome
    counters and the per-query ``failed`` mask (failed queries keep
    ``latency`` = NaN and are excluded from latency statistics).
    """
    from repro.cluster.simulation import (
        _budget_array,
        _finalize,
        _prepare_query_arrays,
        _prepare_specs,
        _server_streams,
    )

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
    admission = config.admission
    placement = config.placement

    # Array-form spec preparation whenever no caller-supplied spec list
    # or placement hook needs the QuerySpec objects themselves — the
    # same RNG variates, none of the per-query object churn.
    specs = None
    servers_list: Optional[List] = None
    if config.specs is None and placement is None:
        classes, class_index, fanout, arrival = _prepare_query_arrays(
            config, spec_rng)
    else:
        specs, classes, class_index, fanout, arrival = _prepare_specs(
            config, spec_rng)
        servers_list = [spec.servers for spec in specs]
    m = len(class_index)

    # ------------------------------------------------------------------
    # Fault machinery.
    # ------------------------------------------------------------------
    materialized = plan.materialize(n, fault_horizon(float(arrival[-1])))
    kill_mode = plan.kill_mode
    retry = plan.retry
    hedge = plan.hedge
    straggling = bool(plan.stragglers)
    straggler_factor = materialized.straggler_factor

    ctrl = None
    if overload_active:
        ctrl = overload_policy.build(n, estimator, config.recorder)
    rc = None
    if replicas_active:
        rc = replica_policy.build(n, config.recorder)
    perturbations = tuple(config.perturbations)

    online = estimator.online_enabled
    # A drift re-bootstrap can swap CDFs mid-run, and an overload
    # controller stamps its own deadlines anyway — skip the
    # precomputed-budget fast path whenever one is active.
    homogeneous_fast = (estimator.homogeneous and not online
                        and placement is None and ctrl is None)
    query_budget: List[float] = []
    if homogeneous_fast:
        query_budget = _budget_array(
            estimator, classes, class_index, fanout, n, servers_list)
    use_budget_array = bool(query_budget)

    sample_interval = config.timeline_interval_ms
    single_stream = len({id(stream) for stream in server_stream}) == 1

    # The specialized loop covers the common benchmarking shape —
    # untraced, no overload controller, no admission, default placement,
    # hoisted budgets, one shared service stream, no sampling, no
    # perturbations, and a policy whose queue inlines — whatever the
    # plan's mitigations and replica policy.  Everything else runs the
    # generic loop below, unchanged.
    fast = (not tracing and ctrl is None and admission is None
            and placement is None and config.specs is None
            and use_budget_array and single_stream
            and sample_interval is None and not perturbations
            and type(policy) in (FIFOPolicy, TEDFPolicy, TFEDFPolicy))

    if fast:
        is_fifo = type(policy) is FIFOPolicy
        arrival_l = arrival.tolist()
        fanout_l = fanout.tolist()
        # Vectorized deadline/key precomputation: elementwise float64
        # adds, bit-identical to the scalar ``now + budget`` stamps.
        deadline_l = (arrival + np.asarray(query_budget)).tolist()
        if type(policy) is TEDFPolicy:
            slo_arr = np.asarray([cls.slo_ms for cls in classes])
            key_l = (arrival + slo_arr[class_index]).tolist()
        else:
            # TF-EDFQ orders by the stamped deadline; FIFO ignores keys.
            key_l = deadline_l
        transitions = materialized.transitions()
        strag_eps = [materialized.straggler_episodes(sid)
                     for sid in range(n)]
        # Homogeneous single stream => every server shares one CDF
        # object, so the per-slot base hedge delay is one constant.
        # Routed through the estimator's quantile memo so a drift
        # re-bootstrap would invalidate it (here the estimator never
        # re-bootstraps — ctrl is None — so it stays a constant).
        hedge_delay = (hedge.delay_via(estimator, 0)
                       if hedge is not None else 0.0)
        (latency, failed_q, busy_total, tasks_total, tasks_missed,
         tasks_failed, tasks_retried, tasks_hedged, tasks_cancelled,
         server_failures, now) = _fault_loop_mitigated(
            is_fifo, n, m, arrival, arrival_l, fanout_l, deadline_l,
            key_l, transitions, server_stream[0], placement_rng, strag_eps,
            straggling, kill_mode, retry, hedge, hedge_delay, rc)
        return _finalize(
            config, policy, n, server_cdfs, classes, class_index, fanout,
            arrival, latency, np.zeros(m, dtype=bool), busy_total,
            tasks_total, tasks_missed, now, [], [], [], rec, tracing,
            failed=failed_q, tasks_failed=tasks_failed,
            tasks_retried=tasks_retried, tasks_hedged=tasks_hedged,
            tasks_cancelled=tasks_cancelled,
            server_failures=server_failures,
            hedges_suppressed=rc.hedges_suppressed if rc is not None else 0,
            replicas=rc)

    # Hot-loop mirrors: plain Python lists for the per-event scalar
    # reads/writes (list indexing beats numpy scalar indexing by ~5x);
    # the numpy originals stay around for the vectorized wrap-up.
    arrival_l = arrival.tolist()
    fanout_l = fanout.tolist()
    class_index_l = class_index.tolist()
    remaining = fanout_l.copy()
    latency = np.full(m, np.nan)
    rejected = np.zeros(m, dtype=bool)
    failed_q = np.zeros(m, dtype=bool)
    coverage_q: Optional[np.ndarray] = None
    degraded_q: Optional[np.ndarray] = None
    if overload_active:
        coverage_q = np.full(m, np.nan)
        degraded_q = np.zeros(m, dtype=bool)

    # ------------------------------------------------------------------
    # Server state.  ``busy[sid]`` holds the in-service copy id or -1;
    # ``epoch`` invalidates completions scheduled before a crash.
    # ------------------------------------------------------------------
    queues = [policy.create_queue() for _ in range(n)]
    busy = [-1] * n
    down = [False] * n
    epoch = [0] * n
    service_start = [0.0] * n
    paused: List[Optional[int]] = [None] * n
    all_servers = tuple(range(n))

    # Incrementally maintained load signals (the retry/hedge target
    # rule and the overload router read them on every decision;
    # rebuilding n-element lists per event dominated those paths).
    # ``depth[sid]`` = len(queues[sid]) + (1 if busy) with phantoms
    # included, ``up_l[sid]`` mirrors ``not down[sid]``.
    depth = [0] * n
    up_l = [True] * n

    copy_slot: Dict[int, _Slot] = {}   # copy id -> its slot
    started: set = set()               # copies that entered service once
    cancelled: set = set()             # queued phantoms (lazy removal)
    discard: set = set()               # in-service losers (result void)
    hedged: set = set()                # hedge-launched copy ids
    scored_fanout = rc is not None and rc.scorer.scored_fanout
    next_cid = 0
    # Queues advertising supports_cancel (LazyEDFTaskQueue) take
    # cancellations in-place; ``qitem`` maps a queued copy to the exact
    # entry object pushed so cancel-by-identity can find it.  Other
    # queue types fall back to the ``cancelled`` phantom set.
    q_cancels = bool(queues) and getattr(queues[0], "supports_cancel", False)
    qitem: Dict[int, Tuple[int, int]] = {}

    # Completions deferred for one vectorized latency stamp at the end
    # (tracing runs stamp inline — the recorder needs the value live).
    comp_idx: List[int] = []
    comp_time: List[float] = []

    heap: List[Tuple] = []  # (time, rank, seq, kind, payload...)
    seq = 0
    push, pop = heapq.heappush, heapq.heappop
    for time, sid, kind in materialized.transitions():
        push(heap, (time, _R_TRANSITION, seq,
                    "F" if kind == FAIL else "R", sid))
        seq += 1

    placement_wants_depths = bool(
        placement is not None and getattr(placement, "needs_queue_depths",
                                          False)
    )

    busy_total = 0.0
    tasks_total = 0
    tasks_missed = 0
    tasks_failed = 0
    tasks_retried = 0
    tasks_hedged = 0
    tasks_cancelled = 0
    server_failures = 0
    now = 0.0
    qi = 0
    infinity = float("inf")

    next_sample = sample_interval if sample_interval is not None else infinity
    sample_times: List[float] = []
    sample_queued: List[int] = []
    sample_busy: List[int] = []
    queued_tasks = 0
    busy_servers = 0

    # ------------------------------------------------------------------
    # Helpers (closures over the state above).
    # ------------------------------------------------------------------
    def sample_duration(sid: int) -> float:
        duration = server_stream[sid].next()
        if straggling:
            duration *= straggler_factor(sid, now)
        for perturbation in perturbations:
            if perturbation.applies(sid, now):
                duration *= perturbation.factor
        return duration

    def start_service(sid: int, cid: int, restart: bool = False) -> None:
        nonlocal seq, tasks_total, tasks_missed, busy_servers
        slot = copy_slot[cid]
        busy[sid] = cid
        busy_servers += 1
        depth[sid] += 1
        service_start[sid] = now
        duration = sample_duration(sid)
        if not restart:
            started.add(cid)
            tasks_total += 1
            missed = now > slot.deadline
            if missed:
                tasks_missed += 1
            if admission is not None:
                admission.record_task(missed, now)
            if tracing:
                rec.inc("tasks_dequeued")
                rec.emit(TASK_DEQUEUE, now, server_id=sid,
                         query_id=slot.qidx,
                         class_name=classes[class_index[slot.qidx]].name,
                         fanout=int(fanout[slot.qidx]),
                         deadline=slot.deadline, slack=slot.deadline - now,
                         extra={"slot": slot.slot})
                if missed:
                    rec.inc("deadline_misses")
                    rec.emit(DEADLINE_MISS, now, server_id=sid,
                             query_id=slot.qidx, deadline=slot.deadline,
                             slack=slot.deadline - now)
            if ctrl is not None:
                ctrl.record_task(sid, slot.qidx, missed,
                                 slot.deadline - now, now)
            if rc is not None:
                rc.on_task_start(sid, slot.deadline - now)
        push(heap, (now + duration, _R_COMPLETE, seq, "C", sid, cid,
                    duration, epoch[sid]))
        seq += 1

    def start_next(sid: int) -> bool:
        """Pull the next live queued copy, skipping phantoms."""
        queue = queues[sid]
        nonlocal queued_tasks
        if q_cancels:
            item, popped = queue.pop_live()
            queued_tasks -= popped
            depth[sid] -= popped
            if item is None:
                return False
            del qitem[item[1]]
            start_service(sid, item[1])
            return True
        while len(queue) > 0:
            qidx, cid = queue.pop()
            queued_tasks -= 1
            depth[sid] -= 1
            if cid in cancelled:
                cancelled.discard(cid)
                continue
            start_service(sid, cid)
            return True
        return False

    def enqueue_copy(sid: int, cid: int) -> None:
        nonlocal queued_tasks
        slot = copy_slot[cid]
        if busy[sid] >= 0 or down[sid]:
            item = (slot.qidx, cid)
            queues[sid].push(item, slot.key)
            if q_cancels:
                qitem[cid] = item
            queued_tasks += 1
            depth[sid] += 1
            if tracing:
                rec.emit(TASK_ENQUEUE, now, server_id=sid,
                         query_id=slot.qidx, deadline=slot.deadline,
                         slack=slot.deadline - now,
                         extra={"queue_len": len(queues[sid])})
        else:
            start_service(sid, cid)

    def new_copy(slot: _Slot, sid: int) -> int:
        nonlocal next_cid
        cid = next_cid
        next_cid += 1
        copy_slot[cid] = slot
        slot.live[cid] = sid
        return cid

    def arm_timeout(cid: int) -> None:
        nonlocal seq
        if retry is not None and retry.timeout_ms is not None:
            push(heap, (now + retry.timeout_ms, _R_RETRY, seq, "T", cid))
            seq += 1

    def arm_hedge(slot: _Slot) -> None:
        nonlocal seq
        if hedge is not None:
            # Base delay via the estimator's versioned quantile memo —
            # a drift re-bootstrap invalidates the cached inversion, so
            # post-rebootstrap hedges fire on the refreshed tail.  The
            # timer payload carries the *base*: an adaptive controller
            # rescales it at every (re-)arm.
            base = hedge.delay_via(estimator, slot.primary_sid)
            delay = rc.hedge_delay(base) if rc is not None else base
            push(heap, (now + delay, _R_HEDGE, seq, "H", slot, base))
            seq += 1

    def pick_mitigation(exclude, allow_fallback: bool):
        """Least-loaded/scored pick that respects open breakers.

        With an overload controller the candidate set first drops
        servers whose breaker refuses work; a *retry* with no
        breaker-permitted server left falls back to the unfiltered up
        set (failing the slot outright would turn a brown-out into an
        outage), while a hedge (duplicate work) simply stays unsent.
        Returns ``(target, fellback)`` so the trace can mark retries
        that knowingly overrode breaker state.
        """
        eff = ctrl.mitigation_up(up_l, now) if ctrl is not None else up_l
        fellback = False
        if rc is not None:
            target = rc.pick(depth, eff, exclude)
            if target < 0 and allow_fallback and eff is not up_l:
                target = rc.pick(depth, up_l, exclude)
                fellback = target >= 0
        else:
            target = pick_server(depth, eff, exclude=exclude)
            if target < 0 and allow_fallback and eff is not up_l:
                target = pick_server(depth, up_l, exclude=exclude)
                fellback = target >= 0
        return target, fellback

    def slot_fail(slot: _Slot) -> None:
        nonlocal tasks_failed
        slot.failed = True
        tasks_failed += 1
        if rc is not None and slot.hedges > 0:
            rc.record_hedge_outcome(False, now)
        if tracing and not failed_q[slot.qidx]:
            # First slot loss: the query just became permanently failed.
            rec.inc("queries_timed_out")
            rec.emit(QUERY_TIMEOUT, now, query_id=slot.qidx,
                     class_name=classes[class_index[slot.qidx]].name,
                     fanout=int(fanout[slot.qidx]))
        failed_q[slot.qidx] = True
        remaining[slot.qidx] -= 1

    def schedule_requeue(slot: _Slot, reason: str) -> None:
        nonlocal seq
        if retry is None or slot.attempts >= retry.max_retries:
            slot_fail(slot)
            return
        slot.attempts += 1
        slot.pending += 1
        push(heap, (now + retry.backoff_ms * slot.attempts, _R_RETRY, seq,
                    "Q", slot, reason))
        seq += 1

    def handle_kill(cid: int) -> None:
        nonlocal tasks_cancelled
        slot = copy_slot[cid]
        if not slot.open:
            return
        sid = slot.live.pop(cid, -1)
        if slot.live or slot.pending:
            tasks_cancelled += 1
            if tracing:
                rec.emit(TASK_CANCEL, now, server_id=sid,
                         query_id=slot.qidx,
                         extra={"reason": "server_fail", "slot": slot.slot})
            return
        schedule_requeue(slot, "server_fail")

    # ------------------------------------------------------------------
    # Main loop: heap events (transitions, completions, timers) merge
    # with sorted arrivals; heap wins ties, matching the no-fault loop.
    # Between consecutive arrivals the heap is drained as one batched
    # run — same-timestamp events pop back-to-back with no per-event
    # re-evaluation of the arrival cursor — and completion latencies
    # are deferred to a single vectorized stamp at the end of the run
    # loop (processing order, and hence every RNG draw and float
    # accumulation, is unchanged; only the array writes are batched).
    # ------------------------------------------------------------------
    has_sampling = sample_interval is not None
    while qi < m or heap:
        next_arrival = arrival_l[qi] if qi < m else infinity

        # ----- heap drain: every event at or before the next arrival --
        while heap:
            head = heap[0]
            now = head[0]
            if now > next_arrival:
                break
            if has_sampling:
                while next_sample <= now:
                    sample_times.append(next_sample)
                    sample_queued.append(queued_tasks)
                    sample_busy.append(busy_servers)
                    next_sample += sample_interval
            pop(heap)
            kind = head[3]

            if kind == "F":                      # ----- server crash
                sid = head[4]
                server_failures += 1
                down[sid] = True
                up_l[sid] = False
                epoch[sid] += 1
                if tracing:
                    rec.emit(SERVER_FAIL, now, server_id=sid)
                if ctrl is not None:
                    ctrl.on_server_fail(sid, now)
                victims: List[int] = []
                cid = busy[sid]
                if cid >= 0:
                    busy_total += now - service_start[sid]
                    busy[sid] = -1
                    busy_servers -= 1
                    depth[sid] -= 1
                    if cid in discard:
                        discard.discard(cid)
                    elif kill_mode:
                        victims.append(cid)
                    else:
                        paused[sid] = cid
                if kill_mode:
                    queue = queues[sid]
                    if q_cancels:
                        while True:
                            item, popped = queue.pop_live()
                            queued_tasks -= popped
                            depth[sid] -= popped
                            if item is None:
                                break
                            del qitem[item[1]]
                            victims.append(item[1])
                    else:
                        while len(queue) > 0:
                            _, qcid = queue.pop()
                            queued_tasks -= 1
                            depth[sid] -= 1
                            if qcid in cancelled:
                                cancelled.discard(qcid)
                                continue
                            victims.append(qcid)
                    for victim in victims:
                        handle_kill(victim)

            elif kind == "R":                    # ----- server recovery
                sid = head[4]
                down[sid] = False
                up_l[sid] = True
                if tracing:
                    rec.emit(SERVER_RECOVER, now, server_id=sid)
                if ctrl is not None:
                    ctrl.on_server_recover(sid, now)
                if paused[sid] is not None:
                    cid, paused[sid] = paused[sid], None
                    start_service(sid, cid, restart=True)
                else:
                    start_next(sid)

            elif kind == "C":                    # ----- task completion
                sid = head[4]
                cid = head[5]
                if head[7] != epoch[sid]:
                    continue  # stale: the server crashed mid-service
                duration = head[6]
                busy_total += duration
                busy[sid] = -1
                busy_servers -= 1
                depth[sid] -= 1
                if cid in discard:
                    discard.discard(cid)
                else:
                    slot = copy_slot[cid]
                    slot.done = True
                    slot.live.pop(cid, None)
                    if online:
                        estimator.record(sid, duration)
                    if ctrl is not None:
                        ctrl.on_task_complete(sid, duration, now)
                    if rc is not None:
                        # Winners only: losers are cancelled/discarded
                        # and never reach the tail EWMA, matching the
                        # estimator/controller feed rule.
                        rc.on_task_complete(sid, duration)
                        if slot.hedges > 0:
                            rc.record_hedge_outcome(cid in hedged, now)
                    if tracing:
                        rec.emit(TASK_COMPLETE, now, server_id=sid,
                                 query_id=slot.qidx,
                                 class_name=classes[class_index[slot.qidx]].name,
                                 extra={"duration": duration,
                                        "slot": slot.slot})
                    for other_cid, other_sid in slot.live.items():
                        if busy[other_sid] == other_cid:
                            discard.add(other_cid)
                        elif paused[other_sid] == other_cid:
                            # A paused loser evaporates: nothing to
                            # restart at its server's recovery.
                            paused[other_sid] = None
                        elif q_cancels:
                            queues[other_sid].cancel(qitem.pop(other_cid))
                        else:
                            cancelled.add(other_cid)
                        tasks_cancelled += 1
                        if tracing:
                            rec.emit(TASK_CANCEL, now, server_id=other_sid,
                                     query_id=slot.qidx,
                                     extra={"reason": "hedge_lost",
                                            "slot": slot.slot})
                    slot.live.clear()
                    qidx = slot.qidx
                    remaining[qidx] -= 1
                    if remaining[qidx] == 0 and not failed_q[qidx]:
                        if tracing:
                            latency[qidx] = now - arrival_l[qidx]
                            rec.observe_latency(latency[qidx])
                            rec.inc("queries_completed")
                            rec.emit(QUERY_COMPLETE, now, query_id=qidx,
                                     class_name=classes[class_index[qidx]].name,
                                     fanout=int(fanout[qidx]),
                                     extra={"latency": latency[qidx]})
                        else:
                            comp_idx.append(qidx)
                            comp_time.append(now)
                if not down[sid]:
                    start_next(sid)

            elif kind == "Q":                    # ----- retry requeue
                slot, reason = head[4], head[5]
                slot.pending -= 1
                if not slot.open:
                    continue
                target, fellback = pick_mitigation(list(slot.live.values()),
                                                   allow_fallback=True)
                if target < 0:
                    slot_fail(slot)
                    continue
                tasks_retried += 1
                if rc is not None:
                    rc.record_launch()
                if tracing:
                    extra = {"attempt": slot.attempts,
                             "reason": reason, "slot": slot.slot}
                    if fellback:
                        extra["fallback"] = True
                    rec.emit(TASK_RETRY, now, server_id=target,
                             query_id=slot.qidx, deadline=slot.deadline,
                             extra=extra)
                cid = new_copy(slot, target)
                enqueue_copy(target, cid)
                arm_timeout(cid)

            elif kind == "T":                    # ----- queued-copy timeout
                cid = head[4]
                slot = copy_slot[cid]
                if not slot.open or cid not in slot.live:
                    continue
                if cid in started:
                    continue  # in (or past) service
                if slot.attempts >= retry.max_retries:
                    continue  # budget exhausted: leave it queued
                sid = slot.live.pop(cid)
                if q_cancels:
                    queues[sid].cancel(qitem.pop(cid))
                else:
                    cancelled.add(cid)
                tasks_cancelled += 1
                if tracing:
                    rec.emit(TASK_CANCEL, now, server_id=sid,
                             query_id=slot.qidx,
                             extra={"reason": "timeout", "slot": slot.slot})
                schedule_requeue(slot, "timeout")

            else:                                # ----- hedge timer ("H")
                slot, base = head[4], head[5]
                if not slot.open or slot.hedges >= hedge.max_hedges:
                    continue
                if rc is not None:
                    # The controller gates the duplicate (budget,
                    # pressure, score) and picks the scored target; a
                    # suppressed hedge re-arms without consuming a
                    # max_hedges slot.  Breaker-refused servers are
                    # never hedge targets (no fallback: duplicates are
                    # optional work).
                    up_eff = (ctrl.mitigation_up(up_l, now)
                              if ctrl is not None else up_l)
                    target = rc.hedge_target(depth, up_eff,
                                             slot.live.values(), now,
                                             slot.qidx)
                else:
                    target, _ = pick_mitigation(list(slot.live.values()),
                                                allow_fallback=False)
                if target >= 0:
                    slot.hedges += 1
                    tasks_hedged += 1
                    if tracing:
                        rec.emit(TASK_HEDGE, now, server_id=target,
                                 query_id=slot.qidx, deadline=slot.deadline,
                                 extra={"hedge": slot.hedges,
                                        "slot": slot.slot})
                    cid = new_copy(slot, target)
                    if rc is not None:
                        hedged.add(cid)
                    enqueue_copy(target, cid)
                    arm_timeout(cid)
                    if slot.hedges >= hedge.max_hedges:
                        continue
                delay = rc.hedge_delay(base) if rc is not None else base
                push(heap, (now + delay, _R_HEDGE, seq, "H", slot, base))
                seq += 1

        if qi >= m:
            break  # heap fully drained, no arrivals left

        # ----- query arrival -------------------------------------------
        now = next_arrival
        if has_sampling:
            while next_sample <= now:
                sample_times.append(next_sample)
                sample_queued.append(queued_tasks)
                sample_busy.append(busy_servers)
                next_sample += sample_interval
        qidx = qi
        qi += 1
        if tracing:
            rec.inc("queries_arrived")
            rec.emit(QUERY_ARRIVE, now, query_id=qidx,
                     class_name=classes[class_index[qidx]].name,
                     fanout=int(fanout[qidx]))
        if admission is not None and not admission.admit(now):
            rejected[qidx] = True
            if tracing:
                rec.inc("queries_rejected")
                rec.emit(QUERY_REJECTED, now, query_id=qidx,
                         class_name=classes[class_index[qidx]].name,
                         fanout=int(fanout[qidx]),
                         extra={"miss_ratio": admission.miss_ratio()})
            continue

        k = fanout_l[qidx]
        cls = classes[class_index_l[qidx]]
        pre = servers_list[qidx] if servers_list is not None else None

        if pre is not None:
            servers = pre
        elif placement is not None:
            spec = specs[qidx]
            if placement_wants_depths:
                servers = placement(spec, placement_rng, tuple(depth))
            else:
                servers = placement(spec, placement_rng)
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
        elif k == n:
            servers = all_servers
        elif k == 1:
            servers = (int(placement_rng.integers(n)),)
        else:
            servers = tuple(
                placement_rng.choice(n, size=k, replace=False).tolist()
            )
        if scored_fanout and pre is None and placement is None:
            # The nominal uniform draw above still consumed the RNG, so
            # downstream streams are unperturbed; the slots just go to
            # the k best-scored servers instead.
            servers = tuple(rc.place_fanout(k, depth))

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
        elif use_budget_array and pre is None:
            deadline = now + query_budget[qidx]
        elif estimator.homogeneous:
            deadline = estimator.deadline(now, cls, fanout=k)
        else:
            deadline = estimator.deadline(now, cls, servers=servers)

        key = policy.queue_key(now, cls, deadline)
        for j, sid in enumerate(servers):
            slot = _Slot(qidx, j, key, deadline, sid)
            if kill_mode and down[sid]:
                # Dispatch-time redirect away from a down server (free:
                # no retry budget consumed).
                target = pick_server(depth, up_l)
                if target < 0:
                    slot_fail(slot)
                    continue
                tasks_retried += 1
                if tracing:
                    rec.emit(TASK_RETRY, now, server_id=target,
                             query_id=qidx, deadline=deadline,
                             extra={"attempt": 0, "reason": "redirect",
                                    "slot": j})
                sid = target
            cid = new_copy(slot, sid)
            if rc is not None:
                rc.record_launch()
            enqueue_copy(sid, cid)
            arm_timeout(cid)
            arm_hedge(slot)

    # ------------------------------------------------------------------
    # Wrap up.
    # ------------------------------------------------------------------
    if comp_idx:
        # Deferred completion stamps, applied in one vectorized pass.
        # Elementwise float64 subtraction — bit-identical to the scalar
        # ``now - arrival[qidx]`` writes it replaces.
        idx = np.asarray(comp_idx, dtype=np.intp)
        latency[idx] = np.asarray(comp_time) - arrival[idx]

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
