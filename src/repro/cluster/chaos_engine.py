"""Fault-injection engines for the rack simulator (oracle + kernel).

Both engines simulate the same perturbed dynamics: a
:class:`~repro.cluster.faults.FaultTimeline` steps fleet capacity up and
down (crashes kill the in-flight requests with the latest completions
and shrink capacity; recoveries dispatch the backlog), slowdown windows
scale service times, and a :class:`~repro.cluster.faults.RetryPolicy`
times out queued requests, re-injects failed attempts with backoff, and
hedges started requests with a backup copy.

Same-timestamp events follow a strict rank order, extending the base
simulator's ``arrival < tick < completion`` rule:

    fault < timeout < arrival (trace before injected) < tick < completion

with completions tie-broken by start order, exactly as the event queue's
insertion order resolves them in the fault-free oracle.  One reference
oracle, one chunked kernel:

- :func:`run_chaos_event` — the reference oracle: one explicit
  ``(time, rank, counter)`` heap, a
  :class:`~repro.cluster.policy_keys.KeyedQueue` with cancellation for
  timed-out entries, one handler per event kind.
- :func:`run_chaos_chunked` — a next-event loop over five primitive
  event sources (trace arrivals, injected re-arrivals, timeout timers,
  fault events, completions).  Fault events partition the timeline into
  capacity epochs; within an epoch, contention-free stretches run
  through the same adaptively chunked pass A as the fault-free engines
  (:func:`contention_free_chunk`: ``completion = arrival + service``,
  ``searchsorted`` occupancy checks, tentative-draw RNG rollback via
  :class:`~repro.cluster.fast_engine._ServicePools`), and congested
  stretches step serially through the keyed-dispatch kernel.  It reads
  the trace chunk by chunk and hands its event columns to a sink once
  per chunk, so the same kernel serves ``engine="vectorized"`` (a
  :class:`~repro.cluster.streaming.SeriesSink`) and
  ``engine="streaming"`` (a :class:`~repro.cluster.streaming.StreamedSink`).

Failure handling is crash-only and loss-free in accounting terms: every
trace request ends as exactly one completion or one reasoned drop
(``queue_full`` / ``timeout`` / ``crashed``), which
``tests/test_fault_property.py`` asserts for every engine and seed.
``tests/test_fault_equivalence.py`` proves the oracle and the kernel
bit-identical — series, per-reason drops, chaos counters, RNG end
state — and that a zero-fault timeline reproduces the fault-free
engines exactly.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count, repeat
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

import numpy as np

from repro.cluster.fast_engine import (
    _CHUNK_MAX,
    _CHUNK_MIN,
    _ServicePools,
    sample_tick_times,
)
from repro.cluster.faults import (
    REASON_CRASHED,
    REASON_QUEUE_FULL,
    REASON_TIMEOUT,
    FaultTimeline,
    RetryPolicy,
)
from repro.cluster.policy_keys import KeyedQueue
from repro.errors import SchedulingError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.cluster.schedulers import KeyedPolicy
    from repro.cluster.simulation import RackSimulation, SimulationSeries
    from repro.cluster.streaming import _KernelSink
    from repro.cluster.trace import RequestTrace

_INF = float("inf")

# Same-timestamp event ranks (see module docstring).
_RANK_FAULT = 0
_RANK_TIMER = 1
_RANK_ARRIVAL = 2
_RANK_TICK = 3
_RANK_COMPLETION = 4


def run_chaos_event(
    sim: "RackSimulation",
    policy: "KeyedPolicy",
    trace: "RequestTrace",
    sample_interval_seconds: float,
    timeline: FaultTimeline,
    retry: RetryPolicy,
) -> "SimulationSeries":
    """The fault-injection reference oracle (explicit ranked event heap).

    Requests are ``(qseq, orig_seq, attempt, app_name, orig_arrival)``
    tuples: ``qseq`` is the admission sequence the policy key tie-breaks
    on (trace index for first attempts, ``n + retry#`` for re-arrivals,
    so retries never jump ahead of equal-key originals), ``orig_seq``
    indexes the trace request (and the jitter hash), and latency is
    always measured from ``orig_arrival``.
    """
    from repro.cluster.simulation import SimulationSeries

    n = len(trace)
    if n and float(trace.arrival_seconds[0]) < 0:
        raise SimulationError(
            f"event scheduled at negative time {float(trace.arrival_seconds[0])}"
        )
    cap = timeline.initial_capacity
    qmax = sim._queue_depth
    timeout = retry.timeout_seconds
    hedge = retry.hedge_after_seconds
    max_retries = retry.max_retries
    multiplier_at = timeline.multiplier_at
    observe_app = policy.observe_app
    key_for = policy.key.key_for
    service_time = sim._service_time

    # (time, rank, counter, kind, payload); counter is global push order,
    # so equal-(time, rank) events fire in push order — trace arrivals
    # before injected re-arrivals, completions in start order.
    events: List[tuple] = []
    counter = count()

    queue = KeyedQueue()
    queued: Set[int] = set()  # qseqs live in the queue
    handles: Dict[int, object] = {}
    in_flight: Dict[int, tuple] = {}  # start_seq -> (completion, request)
    killed: Set[int] = set()
    busy = 0
    start_counter = 0
    retry_counter = 0

    dropped = 0
    drop_times: List[float] = []
    drop_reasons: List[int] = []
    latencies: List[float] = []
    completion_times: List[float] = []
    sample_times: List[float] = []
    queue_series: List[int] = []
    busy_series: List[int] = []
    retries = timeouts = crash_kills = 0
    hedges_launched = hedge_wins = 0

    def start_service(request: tuple, now: float) -> None:
        nonlocal busy, start_counter, hedges_launched, hedge_wins
        app_name = request[3]
        sample = service_time(app_name)
        mult = multiplier_at(now)
        effective = mult * sample
        if hedge is not None:
            backup = service_time(app_name)
            alternative = hedge + mult * backup
            if effective > hedge:
                hedges_launched += 1
            if alternative < effective:
                hedge_wins += 1
                effective = alternative
        done = now + effective
        seq = start_counter
        start_counter += 1
        in_flight[seq] = (done, request)
        busy += 1
        heappush(
            events, (done, _RANK_COMPLETION, next(counter), _on_completion, seq)
        )

    def fail(request: tuple, reason: int, now: float) -> None:
        nonlocal dropped, retries, retry_counter
        if request[2] < max_retries:
            retries += 1
            delay = retry.backoff_seconds(request[1], request[2])
            reattempt = (
                n + retry_counter,
                request[1],
                request[2] + 1,
                request[3],
                request[4],
            )
            retry_counter += 1
            heappush(
                events,
                (now + delay, _RANK_ARRIVAL, next(counter), _on_arrival, reattempt),
            )
        else:
            dropped += 1
            drop_times.append(now)
            drop_reasons.append(reason)

    def dispatch(now: float) -> None:
        request = queue.pop()
        queued.discard(request[0])
        start_service(request, now)

    def _on_arrival(request: tuple, now: float) -> None:
        if busy < cap:
            observe_app(request[3])
            start_service(request, now)
        elif len(queue) < qmax:
            observe_app(request[3])
            qseq = request[0]
            handles[qseq] = queue.push((*key_for(request[3]), qseq), request)
            queued.add(qseq)
            if timeout is not None:
                heappush(
                    events,
                    (now + timeout, _RANK_TIMER, next(counter), _on_timer, request),
                )
        else:
            fail(request, REASON_QUEUE_FULL, now)

    def _on_timer(request: tuple, now: float) -> None:
        nonlocal timeouts
        qseq = request[0]
        if qseq not in queued:
            return  # already served (or failed); stale timer is a no-op
        queue.cancel(handles.pop(qseq))
        queued.discard(qseq)
        timeouts += 1
        fail(request, REASON_TIMEOUT, now)

    def _on_fault(new_cap: int, now: float) -> None:
        nonlocal cap, busy, crash_kills
        if new_cap < busy:
            # Kill the in-flight requests that would finish last,
            # largest (completion, start order) first — a deterministic
            # choice both engines make identically.
            victims = sorted(
                (done, seq) for seq, (done, _) in in_flight.items()
            )[new_cap - busy:]
            for _, seq in reversed(victims):
                _, request = in_flight.pop(seq)
                killed.add(seq)
                busy -= 1
                crash_kills += 1
                fail(request, REASON_CRASHED, now)
        cap = new_cap
        while busy < cap and len(queue):
            dispatch(now)

    def _on_completion(seq: int, now: float) -> None:
        nonlocal busy
        if seq in killed:
            killed.discard(seq)
            return
        _, request = in_flight.pop(seq)
        busy -= 1
        latencies.append(now - request[4])
        completion_times.append(now)
        if len(queue) and busy < cap:
            dispatch(now)

    def _on_sample(_: object, now: float) -> None:
        sample_times.append(now)
        queue_series.append(len(queue))
        busy_series.append(busy)

    for sequence, (arrival, app_name) in enumerate(
        zip(trace.arrival_seconds, trace.app_names)
    ):
        arrival = float(arrival)
        request = (sequence, sequence, 0, app_name, arrival)
        heappush(
            events, (arrival, _RANK_ARRIVAL, next(counter), _on_arrival, request)
        )
    for t, capacity in zip(
        timeline.times.tolist(), timeline.capacities.tolist()
    ):
        heappush(events, (t, _RANK_FAULT, next(counter), _on_fault, int(capacity)))
    ticks = sample_tick_times(trace.duration_seconds, sample_interval_seconds)
    for tick in ticks.tolist():
        heappush(events, (tick, _RANK_TICK, next(counter), _on_sample, None))

    while events:
        when, _, _, handler, payload = heappop(events)
        handler(payload, when)

    return SimulationSeries(
        sample_times=ticks,
        queue_depth=np.array(queue_series),
        busy_instances=np.array(busy_series),
        completed_latency_seconds=np.array(latencies),
        completed_times=np.array(completion_times),
        dropped_requests=dropped,
        total_requests=n,
        dropped_times=np.array(drop_times),
        dropped_reasons=np.array(drop_reasons, dtype=np.int8),
        retries=retries,
        timeouts=timeouts,
        crash_kills=crash_kills,
        hedges_launched=hedges_launched,
        hedge_wins=hedge_wins,
    )


def contention_free_chunk(
    pools: _ServicePools,
    timeline: FaultTimeline,
    hedge,
    arr: np.ndarray,
    ids: np.ndarray,
    pending: List[Tuple[float, int]],
    busy: int,
    cap: int,
    n_apps: int,
) -> Tuple[int, np.ndarray, int, int]:
    """Pass A: start the longest prefix of ``arr`` that never queues.

    Draws every request's service time tentatively (first sample, plus a
    backup under hedging), scales it by the slowdown multiplier at the
    arrival, and counts the requests in flight at each arrival
    (``searchsorted`` over live and tentative completions).  The prefix
    ends before the first arrival that would find the fleet full; RNG
    and pool draws beyond it are rolled back.  Returns ``(cut,
    completions, hedges launched, hedge wins)``; ``cut >= 1`` whenever
    ``busy < cap``.
    """
    if hedge is not None:
        draw_ids = np.repeat(ids, 2)
        values, events, snapshot = pools.peek(draw_ids)
        first = values[0::2]
        backup = values[1::2]
    else:
        draw_ids = ids
        values, events, snapshot = pools.peek(ids)
        first = values
    if len(timeline.slow_starts):
        mults = timeline.multipliers(arr)
        first = mults * first
        if hedge is not None:
            backup = mults * backup
    if hedge is not None:
        alternative = hedge + backup
        comps = arr + np.minimum(first, alternative)
    else:
        comps = arr + first
    pend_times = np.sort(
        np.fromiter((e[0] for e in pending), dtype=np.float64,
                    count=len(pending))
    )
    in_flight = (
        busy
        + np.arange(len(arr))
        - np.searchsorted(pend_times, arr, side="left")
        - np.searchsorted(np.sort(comps), arr, side="left")
    )
    crossing = np.nonzero(in_flight >= cap)[0]
    cut = int(crossing[0]) if crossing.size else len(arr)
    pools.commit(
        draw_ids, 2 * cut if hedge is not None else cut, events, snapshot,
        n_apps,
    )
    if hedge is None:
        return cut, comps, 0, 0
    launched = int(np.count_nonzero(first[:cut] > hedge))
    wins = int(np.count_nonzero(alternative[:cut] < first[:cut]))
    return cut, comps, launched, wins


def run_chaos_chunked(
    sim: "RackSimulation",
    policy: "KeyedPolicy",
    source,
    sample_interval_seconds: float,
    timeline: FaultTimeline,
    retry: RetryPolicy,
    sink: "_KernelSink",
):
    """The chaos kernel: pass-A chunking inside capacity epochs.

    A next-event loop over five sources (faults, timers, trace arrivals,
    injected re-arrivals, completions), ordered by the module's rank
    rule.  Whenever the next event is a trace arrival with an empty
    queue and fleet headroom, a whole contention-free chunk is processed
    at once (:func:`contention_free_chunk`) — cut at the first arrival
    that would queue, at the next fault event, and at the next injected
    re-arrival — and everything else steps serially through the
    keyed-dispatch kernel.

    The trace is read from ``source`` chunk by chunk; events go to the
    ``sink``'s per-chunk columns, flushed at every chunk boundary, and
    ``sink.close`` returns the result (see
    :mod:`repro.cluster.streaming`).  Live starts are held in ``flight``
    only, and completions are recorded at pending-heap pops, which are
    already in canonical (completion, start order).  Bit-identical to
    :func:`run_chaos_event`.
    """
    n = source.total_requests
    cap = timeline.initial_capacity
    qmax = sim._queue_depth
    timeout = retry.timeout_seconds
    hedge = retry.hedge_after_seconds
    max_retries = retry.max_retries
    multiplier_at = timeline.multiplier_at
    observe_app = policy.observe_app
    service_time = sim._service_time

    app_names = list(source.app_catalog)
    n_apps = len(app_names)
    known = np.array(
        [name in sim._applications for name in app_names], dtype=bool
    )
    pools = _ServicePools(sim, app_names)
    prefixes = [policy.key.key_for(name) for name in app_names]

    fault_times = timeline.times.tolist()
    fault_caps = timeline.capacities.tolist()
    n_faults = len(fault_times)

    sink.open(
        sample_tick_times(source.duration_seconds, sample_interval_seconds),
        n,
        tuple(app_names),
    )
    start_pre = sink.starts_pre.append
    start_post = sink.starts_post.append
    enqueued = sink.enqueues.append
    dequeued_pre = sink.deq_pre.append
    dequeued_post = sink.deq_post.append
    killed = sink.kills.append
    completed = sink.comp_times.append
    completed_lat = sink.comp_lats.append
    dropped_at = sink.drop_times.append
    dropped_why = sink.drop_reasons.append

    # Queue entries: ``prefix + request`` where a request is the tuple
    # ``(qseq, app_id, orig_seq, attempt, orig_arrival)``.  ``qseq`` is
    # unique, so heap sifts never compare past it.
    qheap: List[tuple] = []
    queued: Set[int] = set()
    timers: List[tuple] = []  # (deadline, push order, request)
    injected: List[tuple] = []  # (time, push order, request)
    pending: List[Tuple[float, int]] = []  # (completion, start_seq)
    # Live starts only: seq -> (done, orig_arrival, orig_seq, attempt,
    # app_id).
    flight: Dict[int, Tuple[float, float, int, int, int]] = {}
    timer_counter = count()
    injected_counter = count()
    busy = 0
    start_counter = 0
    retry_counter = 0
    retries = timeouts = crash_kills = 0
    hedges_launched = hedge_wins = 0

    def start(
        app_id: int,
        now: float,
        orig_arrival: float,
        orig_seq: int,
        attempt: int,
        pre_tick: bool,
    ) -> None:
        nonlocal busy, start_counter, hedges_launched, hedge_wins
        sample = service_time(app_names[app_id])
        mult = multiplier_at(now)
        effective = mult * sample
        if hedge is not None:
            backup = service_time(app_names[app_id])
            alternative = hedge + mult * backup
            if effective > hedge:
                hedges_launched += 1
            if alternative < effective:
                hedge_wins += 1
                effective = alternative
        done = now + effective
        seq = start_counter
        start_counter += 1
        flight[seq] = (done, orig_arrival, orig_seq, attempt, app_id)
        heappush(pending, (done, seq))
        busy += 1
        (start_pre if pre_tick else start_post)(now)

    def fail(
        app_id: int, orig_seq: int, attempt: int, orig_arrival: float,
        reason: int, now: float,
    ) -> None:
        nonlocal retries, retry_counter
        if attempt < max_retries:
            retries += 1
            delay = retry.backoff_seconds(orig_seq, attempt)
            reattempt = (
                n + retry_counter, app_id, orig_seq, attempt + 1,
                orig_arrival,
            )
            retry_counter += 1
            heappush(
                injected, (now + delay, next(injected_counter), reattempt)
            )
        else:
            dropped_at(now)
            dropped_why(reason)

    def dispatch(now: float, pre_tick: bool) -> None:
        while True:
            entry = heappop(qheap)
            request = entry[-5:]
            if request[0] in queued:
                break
        queued.discard(request[0])
        (dequeued_pre if pre_tick else dequeued_post)(now)
        start(request[1], now, request[4], request[2], request[3], pre_tick)

    def admit(request: tuple, now: float) -> None:
        qseq, app_id, orig_seq, attempt, orig_arrival = request
        if busy < cap:
            observe_app(app_names[app_id])
            start(app_id, now, orig_arrival, orig_seq, attempt, True)
        elif len(queued) < qmax:
            observe_app(app_names[app_id])
            heappush(qheap, prefixes[app_id] + request)
            queued.add(qseq)
            enqueued(now)
            if timeout is not None:
                heappush(
                    timers, (now + timeout, next(timer_counter), request)
                )
        else:
            fail(
                app_id, orig_seq, attempt, orig_arrival,
                REASON_QUEUE_FULL, now,
            )

    feed = sink.read(source, pools)
    chunk_arr = chunk_ids = None
    arr_list: List[float] = []
    ids_list: List[int] = []
    n_chunk = base = i = 0  # buffered chunk: its size, first index, cursor
    k = 0
    chunk_size = _CHUNK_MIN
    while True:
        # Timers whose entries were served (or already failed) are dead;
        # with an empty queue every timer is.
        if not queued:
            if timers:
                timers.clear()
        else:
            while timers and timers[0][2][0] not in queued:
                heappop(timers)

        if i < n_chunk:
            t_trace = arr_list[i]
        else:
            chunk = next(feed, None)
            if chunk is None:
                t_trace = _INF
            else:
                base, chunk_arr, chunk_ids, arr_list, ids_list = chunk
                n_chunk = len(arr_list)
                i = 0
                t_trace = arr_list[0]
        t_fault = fault_times[k] if k < n_faults else _INF
        t_timer = timers[0][0] if timers else _INF
        t_injected = injected[0][0] if injected else _INF
        t_next = min(t_fault, t_timer, t_trace, t_injected)

        # Completions strictly before the next ranked event fire first
        # (equal timestamps fire after: completion has the last rank),
        # each freeing a server for the current min-key queued request.
        while pending and pending[0][0] < t_next:
            done, seq = heappop(pending)
            busy -= 1
            completed(done)
            completed_lat(done - flight.pop(seq)[1])
            if queued and busy < cap:
                dispatch(done, False)
        if t_next == _INF:
            break

        # ---- Fault event: capacity step -----------------------------
        if t_fault == t_next:
            new_cap = int(fault_caps[k])
            k += 1
            if new_cap < busy:
                # Kill the in-flight requests that would finish last,
                # largest (completion, start order) first.
                victims = sorted(
                    (rec[0], seq) for seq, rec in flight.items()
                )[new_cap - busy:]
                doomed = {seq for _, seq in victims}
                for _, seq in reversed(victims):
                    rec = flight.pop(seq)
                    busy -= 1
                    crash_kills += 1
                    killed(t_fault)
                    fail(
                        rec[4], rec[2], rec[3], rec[1],
                        REASON_CRASHED, t_fault,
                    )
                pending = [e for e in pending if e[1] not in doomed]
                heapify(pending)
            cap = new_cap
            while queued and busy < cap:
                dispatch(t_fault, True)
            continue

        # ---- Timeout timer ------------------------------------------
        if t_timer == t_next:
            _, _, request = heappop(timers)
            if request[0] in queued:  # may have been served by the drain
                queued.discard(request[0])
                dequeued_pre(t_timer)
                timeouts += 1
                fail(
                    request[1], request[2], request[3], request[4],
                    REASON_TIMEOUT, t_timer,
                )
            continue

        # ---- Trace arrival (before an injected one at the same time) -
        if t_trace == t_next and t_trace <= t_injected:
            if not queued and busy < cap:
                # Pass A, cut at the next fault (rank before arrivals:
                # equal-time arrivals excluded) and the next injected
                # re-arrival (rank after trace arrivals: equal-time
                # trace arrivals included).
                hi = min(n_chunk, i + chunk_size)
                if k < n_faults:
                    hi = i + int(np.searchsorted(
                        chunk_arr[i:hi], t_fault, side="left"
                    ))
                if injected:
                    hi = i + int(np.searchsorted(
                        chunk_arr[i:hi], t_injected, side="right"
                    ))
                unknown = np.nonzero(~known[chunk_ids[i:hi]])[0]
                if unknown.size:
                    if unknown[0] == 0:
                        raise SchedulingError(
                            f"unknown application {app_names[ids_list[i]]!r}"
                        )
                    hi = i + int(unknown[0])
                m = hi - i
                arr = chunk_arr[i:hi]
                ids = chunk_ids[i:hi]
                cut, comps, launched, wins = contention_free_chunk(
                    pools, timeline, hedge, arr, ids, pending, busy, cap,
                    n_apps,
                )
                # Observation is coalesced per app per chunk (the
                # documented set-like contract).
                for committed_id in np.unique(ids[:cut]):
                    observe_app(app_names[committed_id])
                hedges_launched += launched
                hedge_wins += wins
                started = arr_list[i:i + cut]
                done_list = comps[:cut].tolist()
                seqs = range(start_counter, start_counter + cut)
                flight.update(zip(seqs, zip(
                    done_list, started, range(base + i, base + i + cut),
                    repeat(0), ids_list[i:i + cut],
                )))
                pending.extend(zip(done_list, seqs))
                heapify(pending)
                sink.starts_pre.extend(started)
                start_counter += cut
                busy += cut
                i += cut
                chunk_size = (
                    min(chunk_size * 2, _CHUNK_MAX) if cut == m else _CHUNK_MIN
                )
            else:
                admit((base + i, ids_list[i], base + i, 0, t_trace), t_trace)
                i += 1
            continue

        # ---- Injected re-arrival ------------------------------------
        _, _, request = heappop(injected)
        admit(request, t_injected)

    return sink.close(
        retries=retries,
        timeouts=timeouts,
        crash_kills=crash_kills,
        hedges_launched=hedges_launched,
        hedge_wins=hedge_wins,
    )
