"""The keyed kernel: index-priority scheduling policies, chunked.

:mod:`repro.cluster.fast_engine` batches FCFS by exploiting that service
order equals arrival order.  Under a keyed policy (SJF, criticality,
DAG-aware — any :class:`~repro.cluster.schedulers.KeyedPolicy`) that
only breaks *inside congestion*: while the system is below capacity
every request starts the moment it arrives, so the policy never gets to
reorder anything.  :func:`run_keyed_chunked` exploits exactly that
split, as one chunked kernel serving both ``engine="vectorized"`` and
``engine="streaming"``:

- **Pass A (contention-free chunks).**  While the queue is empty and the
  fleet has headroom, arrivals are processed in adaptively sized numpy
  chunks exactly like the FCFS kernel's pass A: ``completion = arrival +
  service`` plus ``searchsorted`` occupancy checks, with tentative
  service draws rolled back when a chunk is cut at the first arrival
  that would have to queue.
- **Keyed dispatch (congested stretches).**  Once the fleet saturates,
  each completion dispatches the queued request minimizing
  ``(*key, sequence)``.  The kernel runs two primitive heaps — float
  completion times and raw key tuples — with no event objects, no
  callbacks, and no per-event queue scans, which is what makes policy
  sweeps at paper scale feasible.  Service times are drawn through
  ``RackSimulation._service_time`` at each dispatch, i.e. in exactly the
  oracle's order.  Once arrivals stop, the backlog drains in pure key
  order with one batched draw.
- **Columns, not callbacks.**  Starts, enqueues, dispatches and
  completions (recorded at the start, in start order) go to the typed
  columns of a sink (:mod:`repro.cluster.streaming`), which rebuilds the
  tick series with ``searchsorted`` and hands completions on in the
  oracle's (completion time, start order) order, once per trace chunk —
  concatenated by a :class:`~repro.cluster.streaming.SeriesSink`,
  folded by a :class:`~repro.cluster.streaming.StreamedSink`.

FCFS is the zero-width key, so this kernel also serves FCFS — bit for
bit, but slower than the dedicated FCFS kernel, which is why both stay.
The event-driven path in :mod:`repro.cluster.simulation` remains the
reference oracle: for every keyed policy this kernel is bit-identical
to it — same drops, same latencies, same series, same RNG end state,
same service-pool state (enforced by ``tests/test_policy_equivalence.py``,
the keyed twin of ``tests/test_rack_equivalence.py``).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace
from typing import TYPE_CHECKING, List

import numpy as np

from repro.cluster.fast_engine import (
    _CHUNK_MAX,
    _CHUNK_MIN,
    _ServicePools,
    sample_tick_times,
)
from repro.cluster.faults import REASON_QUEUE_FULL

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.cluster.schedulers import KeyedPolicy
    from repro.cluster.simulation import RackSimulation
    from repro.cluster.streaming import _KernelSink


def run_keyed_chunked(
    sim: "RackSimulation",
    policy: "KeyedPolicy",
    source,
    sample_interval_seconds: float,
    sink: "_KernelSink",
):
    """The keyed kernel: pass A and keyed dispatch over each trace chunk.

    The trace is read from ``source`` chunk by chunk through ``sink``
    (see :mod:`repro.cluster.streaming`).  A request's completion is
    recorded when it starts, in start order; the sink restores the
    canonical completion order.  ``sink.close`` returns the result.
    """
    c = sim._max_instances
    qmax = sim._queue_depth

    app_names = list(source.app_catalog)
    n_apps = len(app_names)
    known = np.array(
        [name in sim._applications for name in app_names], dtype=bool
    )
    pools = _ServicePools(sim, app_names)
    # Static per-app key prefixes; a queued request's full sort key is
    # ``prefix + (sequence, arrival, app_id)`` — the trailing payload
    # never influences ordering because sequences are unique.  Plain
    # python-float tuples (not a numpy round-trip): heap sifts compare
    # these on every congested dispatch.
    prefixes = [policy.key.key_for(name) for name in app_names]
    sink.open(
        sample_tick_times(source.duration_seconds, sample_interval_seconds),
        source.total_requests,
        tuple(app_names),
    )
    extend = sink.extend
    start_pre = sink.starts_pre.append
    start_post = sink.starts_post.append
    enqueued = sink.enqueues.append
    completed = sink.comp_times.append
    completed_lat = sink.comp_lats.append

    # Primitive-heap state: ``pending`` holds in-service completion
    # times (len == busy instances), ``queue`` the keyed entries.
    pending: List[float] = []
    queue: List[tuple] = []
    service_time = sim._service_time
    observe_app = policy.observe_app

    def dispatch(now: float) -> None:
        """Serve the min-key queued request on the server freed at now."""
        entry = heappop(queue)
        service = service_time(app_names[entry[-1]])
        completion = now + service
        heappush(pending, completion)
        start_post(now)
        completed(completion)
        completed_lat(completion - entry[-2])

    chunk_size = _CHUNK_MIN
    for base, arrivals, app_ids, arrivals_list, ids_list in sink.read(
        source, pools
    ):
        n = len(arrivals_list)
        i = 0
        while i < n:
            now = arrivals_list[i]
            # Completions strictly before this arrival fire first (equal
            # timestamps fire after: arrival < tick < completion), each
            # one handing its server to the current min-key queued
            # request.
            while pending and pending[0] < now:
                freed_at = heappop(pending)
                if queue:
                    dispatch(freed_at)
            busy = len(pending)

            # ---- Pass A: contention-free chunk (all starts immediate)
            if not queue and busy < c:
                hi = min(n, i + chunk_size)
                unknown = np.nonzero(~known[app_ids[i:hi]])[0]
                if unknown.size:
                    # Cut before the first unknown app; the serial step
                    # below reproduces the oracle's failure exactly.
                    hi = i + int(unknown[0])
                if hi > i:
                    chunk = slice(i, hi)
                    m = hi - i
                    arr = arrivals[chunk]
                    values, events, snapshot = pools.peek(app_ids[chunk])
                    pend_sorted = np.sort(np.asarray(pending))
                    dep_pend = np.searchsorted(pend_sorted, arr, side="left")
                    comp_opt = arr + values
                    dep_chunk = np.searchsorted(
                        np.sort(comp_opt), arr, side="left"
                    )
                    n_before = busy + np.arange(m) - dep_pend - dep_chunk
                    crossing = np.nonzero(n_before >= c)[0]
                    cut = int(crossing[0]) if crossing.size else m
                    pools.commit(
                        app_ids[chunk], cut, events, snapshot, n_apps
                    )
                    # cut >= 1 here: with busy < c the first arrival
                    # always fits, so the chunk never commits empty.
                    # Observation is coalesced to one call per app per
                    # chunk (the documented set-like contract) — a
                    # per-request Python call would forfeit the batched
                    # pass's throughput.
                    for committed_id in np.unique(app_ids[i : i + cut]):
                        observe_app(app_names[committed_id])
                    comps = comp_opt[:cut]
                    extend(sink.starts_pre, arr[:cut])
                    extend(sink.comp_times, comps)
                    extend(sink.comp_lats, comps - arr[:cut])
                    pending.extend(comps.tolist())
                    heapify(pending)
                    i += cut
                    chunk_size = (
                        min(chunk_size * 2, _CHUNK_MAX)
                        if cut == m
                        else _CHUNK_MIN
                    )
                    continue

            # ---- Keyed dispatch kernel: one arrival, serially -------
            app_id = ids_list[i]
            if busy < c:
                observe_app(app_names[app_id])
                service = service_time(app_names[app_id])
                completion = now + service
                heappush(pending, completion)
                start_pre(now)
                completed(completion)
                completed_lat(completion - now)
            elif len(queue) < qmax:
                observe_app(app_names[app_id])
                heappush(queue, prefixes[app_id] + (base + i, now, app_id))
                enqueued(now)
            else:
                sink.drop_times.append(now)
                sink.drop_reasons.append(REASON_QUEUE_FULL)
            i += 1

    # ---- Drain: serve the backlog in pure key order -----------------
    if queue and pending and all(known[entry[-1]] for entry in queue):
        # Once arrivals stop the dispatch order is fully determined:
        # every completion hands its server to the min-(key, sequence)
        # entry and nothing new enqueues, so the backlog is served in
        # exactly sorted-queue order.  That lets one batched service
        # draw (pools replay the oracle's per-dispatch draw order) feed
        # the float-heap kernel instead of one Python draw per dispatch.
        backlog = sorted(queue)
        drain_ids = np.fromiter(
            (entry[-1] for entry in backlog),
            dtype=np.intp,
            count=len(backlog),
        )
        values, events, snapshot = pools.peek(drain_ids)
        pools.commit(drain_ids, len(backlog), events, snapshot, n_apps)
        for entry, service in zip(backlog, values.tolist()):
            freed_at = pending[0]
            completion = freed_at + service
            heapreplace(pending, completion)
            start_post(freed_at)
            completed(completion)
            completed_lat(completion - entry[-2])
        queue.clear()
        pending.clear()
    else:
        # Serial fallback: an unknown app in the backlog must fail at
        # its exact dispatch (same SchedulingError, same RNG state).
        while pending:
            freed_at = heappop(pending)
            if queue:
                dispatch(freed_at)

    return sink.close()
