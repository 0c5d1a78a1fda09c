"""Streaming chunked execution: constant-memory traces, bit-identical.

A materialized run holds the full trace as per-request numpy arrays —
O(trace) memory for arrivals, app ids, starts, completions, and the
per-event series logs.  At fleet scale (fig13-fleet: ~10.2M requests
across 100 racks) that footprint binds before compute does.

``engine="streaming"`` removes it.  Traces are *generated*, *dispatched*
and *folded into telemetry* in bounded chunks of ``chunk_requests``:

- **Trace side** — any source with the chunk protocol
  (:meth:`~repro.cluster.trace.RequestTrace.chunks`, or the
  generator-backed :class:`~repro.cluster.trace.StreamedTrace`) is read
  through :func:`trace_chunks`, which validates the streaming contract;
  only one chunk is buffered at a time.
- **Engine side** — the chaos and control families each have *one*
  chunked kernel (:func:`~repro.cluster.chaos_engine.run_chaos_chunked`,
  :func:`~repro.cluster.control_engine.run_control_chunked`) that serves
  both ``engine="vectorized"`` and ``engine="streaming"``.  The kernel
  appends events to the plain per-chunk columns of a sink and flushes
  them once per trace chunk; the sink alone decides where they go —
  :class:`SeriesSink` concatenates them into a
  :class:`~repro.cluster.simulation.SimulationSeries` (the whole trace
  read as one chunk), :class:`StreamedSink` folds them into a
  :class:`StreamedSeries`.  FCFS and keyed policies still run through
  streaming ports of their materialized engines
  (:func:`run_streaming_fcfs`, :func:`run_streaming_keyed`), reading a
  :class:`_ChunkCursor` with identical heaps, pass-A window cuts and
  serial fallbacks.  Every path uses the same
  :class:`~repro.cluster.fast_engine._ServicePools` tentative-draw RNG
  rollback at every cut, so chunk boundaries only partition the work:
  every per-request decision, every service draw, and the RNG end state
  are unchanged.
- **Telemetry side** — instead of whole-trace arrays, results fold
  incrementally into a :class:`StreamedSeries`: tick series as running
  per-tick counts, latency percentiles via the mergeable
  :class:`~repro.sim.stats.QuantileSketch`, per-bucket latency sums and
  per-reason drop counters.  Completions are folded in the *canonical*
  order (completion time, start order) — the order the materialized
  series arrays hold — so the float64 bucket sums are bit-identical
  regardless of how the fold was chunked (``np.add.at`` applies
  repeated-index updates sequentially in index order).

Bit-identity contract: for every engine family, a streamed run and
:meth:`StreamedSeries.from_series` over the corresponding materialized
(or event-oracle) run produce :meth:`StreamedSeries.identical_to`
telemetry and leave the simulation RNG and service pools in the same
end state, for any ``chunk_requests`` — enforced by
``tests/test_streaming_equivalence.py``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from heapq import heapify, heappop, heappush, heapreplace
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.cluster.fast_engine import (
    _CAPACITY_MARGIN,
    _CHUNK_MAX,
    _CHUNK_MIN,
    _ServicePools,
    sample_tick_times,
)
from repro.cluster.faults import DROP_REASONS, REASON_QUEUE_FULL
from repro.errors import ConfigurationError, SchedulingError, SimulationError
from repro.sim.stats import QuantileSketch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.cluster.schedulers import KeyedPolicy
    from repro.cluster.simulation import RackSimulation, SimulationSeries

_INF = float("inf")

# Default chunk size: large enough that pass-A vector work dominates the
# per-chunk Python overhead, small enough that per-chunk buffers stay a
# rounding error next to the engines' own working state.
_DEFAULT_CHUNK_REQUESTS = 65_536

# Completion-fold flush floor: flushes cost a lexsort over the buffer,
# so tiny chunk sizes still amortise over at least this many entries —
# while keeping the working set proportional to ``chunk_requests``, not
# to a fixed 64k plateau (the constant-memory contract the streaming
# benchmark asserts).  Flush frequency never affects results: every
# flush emits a canonical-order prefix.
_FOLD_MIN = 4096


class _TickHist:
    """Running histogram over the sample-tick grid.

    The materialized engines rebuild each tick series at the end with
    ``np.searchsorted`` over full event-time arrays.  This is the
    constant-memory equivalent: each event adds ``delta`` at the index
    of the first tick that observes it, and :meth:`series` is the
    cumulative sum — identical values without retaining any event.

    ``inclusive`` events are visible at an equal-time tick (the
    engines' ``side="right"`` count); non-inclusive events are not
    (``side="left"``).
    """

    __slots__ = ("_ticks", "_ticks_list", "_hist")

    def __init__(self, ticks: np.ndarray) -> None:
        self._ticks = ticks
        self._ticks_list = ticks.tolist()
        # One overflow cell for events past the last tick.
        self._hist = np.zeros(len(ticks) + 1, dtype=np.int64)

    def add(self, t: float, inclusive: bool, delta: int = 1) -> None:
        if inclusive:
            idx = bisect_left(self._ticks_list, t)
        else:
            idx = bisect_right(self._ticks_list, t)
        self._hist[idx] += delta

    def add_batch(
        self, times: np.ndarray, inclusive: bool, delta: int = 1
    ) -> None:
        if len(times) == 0:
            return
        side = "left" if inclusive else "right"
        idx = np.searchsorted(self._ticks, times, side=side)
        np.add.at(self._hist, idx, delta)

    def series(self) -> np.ndarray:
        return np.cumsum(self._hist[:-1])


class StreamedSeries:
    """Constant-memory telemetry of one rack simulation.

    The streaming counterpart of
    :class:`~repro.cluster.simulation.SimulationSeries`: the same
    tick-grid series and counters, but per-request records collapse to
    bounded accumulators — per-bucket latency sums/counts, per-bucket
    drop counts, per-reason drop counters, per-app completion counts,
    and a mergeable :class:`~repro.sim.stats.QuantileSketch` (default
    config matches the fleet layer's, so per-rack streaming sketches
    merge straight into fleet percentiles).

    Built either by a streaming engine (fold as the run progresses) or
    from a finished materialized run via :meth:`from_series` — the
    "streaming constructor" — which replays the per-request arrays
    through the identical fold, making the two bit-comparable with
    :meth:`identical_to`.
    """

    def __init__(
        self,
        sample_times: np.ndarray,
        *,
        total_requests: int,
        bucket_seconds: float = 60.0,
        engine: str = "streaming",
        chunk_requests: Optional[int] = None,
        app_catalog: Tuple[str, ...] = (),
    ) -> None:
        if bucket_seconds <= 0:
            raise ConfigurationError(f"non-positive bucket: {bucket_seconds}")
        self.sample_times = np.asarray(sample_times, dtype=np.float64)
        self.total_requests = int(total_requests)
        self.bucket_seconds = float(bucket_seconds)
        self.engine = engine
        self.chunk_requests = chunk_requests
        self.app_catalog = tuple(app_catalog)
        self.sketch = QuantileSketch()

        self.queue_depth = np.zeros(0, dtype=np.int64)
        self.busy_instances = np.zeros(0, dtype=np.int64)
        self.live_instances = np.zeros(0, dtype=np.int64)

        self.completed_count = 0
        self.dropped_requests = 0
        self.drop_reason_counts = np.zeros(len(DROP_REASONS), dtype=np.int64)
        self.retries = 0
        self.timeouts = 0
        self.crash_kills = 0
        self.hedges_launched = 0
        self.hedge_wins = 0
        self.scale_ups = 0
        self.scale_downs = 0

        # Growable per-bucket accumulators, unclamped while folding; the
        # tail past the final horizon bucket folds down in finalize().
        self._lat_sums = np.zeros(0, dtype=np.float64)
        self._lat_counts = np.zeros(0, dtype=np.int64)
        self._drop_counts = np.zeros(0, dtype=np.int64)
        self._app_counts = np.zeros(len(self.app_catalog), dtype=np.int64)
        self._last_completion = -_INF
        self._last_drop = -_INF
        self._finalized = False

    # ---------------------------------------------------------- folding
    def _grow(self, attr: str, need: int) -> np.ndarray:
        arr = getattr(self, attr)
        if need > len(arr):
            grown = np.zeros(need, dtype=arr.dtype)
            grown[: len(arr)] = arr
            setattr(self, attr, grown)
            return grown
        return arr

    def fold_completions(
        self,
        times,
        latencies,
        app_ids=None,
    ) -> None:
        """Fold a batch of completions, in canonical completion order.

        Canonical order is (completion time, start order) — the order
        the materialized series arrays hold.  Batching is free to vary
        (``np.add.at`` applies repeated-index updates sequentially), but
        the concatenated element order across calls must be canonical
        for the float64 bucket sums to be chunking-invariant.
        """
        times = np.asarray(times, dtype=np.float64)
        if times.size == 0:
            return
        lats = np.asarray(latencies, dtype=np.float64)
        idx = (times / self.bucket_seconds).astype(int)
        need = int(idx.max()) + 1
        sums = self._grow("_lat_sums", need)
        counts = self._grow("_lat_counts", need)
        np.add.at(sums, idx, lats)
        np.add.at(counts, idx, 1)
        self.sketch.add(lats)
        self.completed_count += int(times.size)
        self._last_completion = max(
            self._last_completion, float(times.max())
        )
        if app_ids is not None and len(self._app_counts):
            self._app_counts += np.bincount(
                np.asarray(app_ids), minlength=len(self._app_counts)
            )

    def fold_drops(self, times, reasons) -> None:
        """Fold a batch of drops; ``reasons`` is an array or one code."""
        times = np.asarray(times, dtype=np.float64)
        if times.size == 0:
            return
        reasons = np.broadcast_to(
            np.asarray(reasons, dtype=np.int64), times.shape
        )
        idx = (times / self.bucket_seconds).astype(int)
        drops = self._grow("_drop_counts", int(idx.max()) + 1)
        np.add.at(drops, idx, 1)
        self.drop_reason_counts += np.bincount(
            reasons, minlength=len(DROP_REASONS)
        )
        self.dropped_requests += int(times.size)
        self._last_drop = max(self._last_drop, float(times.max()))

    def fold_drop(self, t: float, reason: int) -> None:
        """Scalar drop fold (the serial engine paths drop one by one)."""
        idx = int(t / self.bucket_seconds)
        drops = self._grow("_drop_counts", idx + 1)
        drops[idx] += 1
        self.drop_reason_counts[reason] += 1
        self.dropped_requests += 1
        if t > self._last_drop:
            self._last_drop = t

    def finalize(self) -> "StreamedSeries":
        """Clamp the per-bucket accumulators to the run's horizon.

        The horizon covers the last completion, the last drop, and the
        last sample tick — the same rule the materialized per-bucket
        helpers use — and buckets past it fold into the final one, in
        ascending order so the float sums are deterministic.
        """
        if self._finalized:
            return self
        horizon = max(self._last_completion, self._last_drop)
        if len(self.sample_times):
            horizon = max(horizon, float(self.sample_times[-1]))
        if horizon == -_INF:
            buckets = 0
        else:
            buckets = max(
                1, int(np.ceil(horizon / self.bucket_seconds))
            )
        for attr in ("_lat_sums", "_lat_counts", "_drop_counts"):
            arr = self._grow(attr, buckets)
            for b in range(buckets, len(arr)):
                arr[buckets - 1] += arr[b]
            setattr(self, attr, arr[:buckets].copy())
        self._finalized = True
        return self

    @classmethod
    def from_series(
        cls,
        series: "SimulationSeries",
        *,
        bucket_seconds: float = 60.0,
        engine: str = "materialized",
        chunk_requests: Optional[int] = None,
    ) -> "StreamedSeries":
        """Streaming view of a finished materialized (or oracle) run.

        Copies the tick-grid series verbatim and replays the
        per-request completion/drop arrays — which the materialized
        engines already store in canonical order — through the same
        fold methods a streaming engine uses, so the result is
        bit-comparable via :meth:`identical_to`.
        """
        out = cls(
            series.sample_times,
            total_requests=series.total_requests,
            bucket_seconds=bucket_seconds,
            engine=engine,
            chunk_requests=chunk_requests,
            app_catalog=series.app_catalog,
        )
        out.queue_depth = np.asarray(series.queue_depth).copy()
        out.busy_instances = np.asarray(series.busy_instances).copy()
        out.live_instances = np.asarray(series.live_instances).copy()
        app_ids = (
            series.completed_app_ids
            if len(series.completed_app_ids)
            else None
        )
        out.fold_completions(
            series.completed_times,
            series.completed_latency_seconds,
            app_ids,
        )
        if len(series.dropped_times):
            reasons = (
                series.dropped_reasons
                if len(series.dropped_reasons)
                else np.zeros(len(series.dropped_times), dtype=np.int64)
            )
            out.fold_drops(series.dropped_times, reasons)
        out.retries = series.retries
        out.timeouts = series.timeouts
        out.crash_kills = series.crash_kills
        out.hedges_launched = series.hedges_launched
        out.hedge_wins = series.hedge_wins
        out.scale_ups = series.scale_ups
        out.scale_downs = series.scale_downs
        return out.finalize()

    # ---------------------------------------------------------- queries
    @property
    def latency_sum_per_bucket(self) -> np.ndarray:
        return self._lat_sums

    @property
    def completed_per_bucket(self) -> np.ndarray:
        return self._lat_counts

    @property
    def dropped_per_bucket(self) -> np.ndarray:
        return self._drop_counts

    @property
    def completed_per_app(self) -> Dict[str, int]:
        """Completion counts by app name (control engines only; the
        other engines do not track per-completion apps, so this is
        empty for their runs — keyed by name, so two runs compare
        equal regardless of catalog order)."""
        return {
            name: int(n)
            for name, n in zip(self.app_catalog, self._app_counts)
            if n
        }

    def mean_latency_per_bucket(self) -> np.ndarray:
        """Average latency per bucket (NaN where nothing completed)."""
        if self.completed_count == 0:
            return np.array([])
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(
                self._lat_counts > 0,
                self._lat_sums / np.maximum(self._lat_counts, 1),
                np.nan,
            )

    def availability_per_bucket(self) -> np.ndarray:
        """Per-bucket completed / (completed + dropped); NaN when no
        request ended in the bucket."""
        ended = self._lat_counts + self._drop_counts
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(
                ended > 0,
                self._lat_counts / np.maximum(ended, 1),
                np.nan,
            )

    def drop_breakdown(self) -> Dict[str, int]:
        """Drops by reason, summing to :attr:`dropped_requests`."""
        return {
            reason: int(n)
            for reason, n in zip(DROP_REASONS, self.drop_reason_counts)
        }

    def latency_percentile(self, q: float) -> float:
        """Sketch-estimated latency percentile (see the sketch's
        documented ``relative_error_bound``)."""
        return self.sketch.percentile(q)

    @property
    def availability(self) -> float:
        if self.total_requests == 0:
            return float("nan")
        return self.completed_count / self.total_requests

    @property
    def wall_clock_seconds(self) -> float:
        if self.completed_count == 0:
            return 0.0
        return float(self._last_completion)

    @property
    def goodput_rps(self) -> float:
        horizon = self.wall_clock_seconds
        if horizon <= 0:
            return 0.0
        return self.completed_count / horizon

    @property
    def mean_latency_seconds(self) -> float:
        if self.completed_count == 0:
            return 0.0
        return float(self._lat_sums.sum()) / self.completed_count

    def identical_to(self, other: "StreamedSeries") -> bool:
        """Exact equality of every accumulator that the bit-identity
        contract covers (engine/chunking metadata excluded; the sketch
        comparison ignores its batching-sensitive running sum)."""
        return (
            self.total_requests == other.total_requests
            and self.completed_count == other.completed_count
            and self.dropped_requests == other.dropped_requests
            and np.array_equal(
                self.drop_reason_counts, other.drop_reason_counts
            )
            and self.retries == other.retries
            and self.timeouts == other.timeouts
            and self.crash_kills == other.crash_kills
            and self.hedges_launched == other.hedges_launched
            and self.hedge_wins == other.hedge_wins
            and self.scale_ups == other.scale_ups
            and self.scale_downs == other.scale_downs
            and np.array_equal(self.sample_times, other.sample_times)
            and np.array_equal(self.queue_depth, other.queue_depth)
            and np.array_equal(self.busy_instances, other.busy_instances)
            and np.array_equal(self.live_instances, other.live_instances)
            and np.array_equal(self._lat_sums, other._lat_sums)
            and np.array_equal(self._lat_counts, other._lat_counts)
            and np.array_equal(self._drop_counts, other._drop_counts)
            and self.sketch.identical_to(other.sketch)
            and self.completed_per_app == other.completed_per_app
            and self._last_completion == other._last_completion
            and self._last_drop == other._last_drop
        )


class _CompletionFold:
    """Bounded buffer emitting completions to a series in canonical order.

    The FCFS and keyed ports emit at *admission/start* in start order,
    where completions are not sorted.  The engine flushes with a
    watermark no future completion can undercut (``min(next arrival,
    pending heap min)``); a stable sort then emits exactly the canonical
    prefix below it and carries the rest.
    """

    __slots__ = ("_series", "_limit", "_parts", "_scalars", "_scalar_lats",
                 "_count")

    def __init__(self, series: StreamedSeries, limit: int) -> None:
        self._series = series
        self._limit = max(int(limit), 1)
        # Batch emissions park their arrays as-is (zero per-element
        # cost); scalar emissions accumulate in lists and spill to an
        # array part when a batch follows, preserving append order.
        self._parts: List[Tuple[np.ndarray, np.ndarray]] = []
        self._scalars: List[float] = []
        self._scalar_lats: List[float] = []
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def limit(self) -> int:
        return self._limit

    def emit(self, comp: float, lat: float) -> None:
        self._scalars.append(comp)
        self._scalar_lats.append(lat)
        self._count += 1

    def emit_batch(self, comps: np.ndarray, lats: np.ndarray) -> None:
        if self._scalars:
            self._spill()
        self._parts.append((comps, lats))
        self._count += len(comps)

    def _spill(self) -> None:
        self._parts.append(
            (np.asarray(self._scalars), np.asarray(self._scalar_lats))
        )
        self._scalars = []
        self._scalar_lats = []

    def flush(self, watermark: float) -> None:
        if self._count == 0:
            return
        if self._scalars:
            self._spill()
        if len(self._parts) == 1:
            comps, lats = self._parts[0]
        else:
            comps = np.concatenate([part[0] for part in self._parts])
            lats = np.concatenate([part[1] for part in self._parts])
        # Stable sort on (completion, append order); append order is
        # start order, the canonical tie-break.
        order = np.lexsort((np.arange(len(comps)), comps))
        if watermark == _INF:
            cutoff = len(comps)
        else:
            cutoff = int(
                np.searchsorted(comps[order], watermark, side="left")
            )
        if cutoff == 0:
            self._parts = [(comps, lats)]
            return
        take = order[:cutoff]
        self._series.fold_completions(comps[take], lats[take])
        keep = np.sort(order[cutoff:])
        self._parts = [(comps[keep], lats[keep])]
        self._count = len(keep)


def trace_chunks(
    source, chunk_requests: int
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """``source``'s non-empty chunks as (arrivals, app ids) arrays.

    Validates the streaming contract on the way: equal-length arrays,
    arrivals sorted within the chunk and non-decreasing across chunk
    boundaries.
    """
    last = -_INF
    for chunk in source.chunks(chunk_requests):
        arr = np.asarray(chunk.arrival_seconds, dtype=np.float64)
        ids = np.asarray(chunk.app_ids, dtype=np.intp)
        if len(arr) != len(ids):
            raise ConfigurationError(
                "trace chunk arrivals and app ids differ in length"
            )
        if len(arr) == 0:
            continue
        if np.any(np.diff(arr) < 0) or float(arr[0]) < last:
            raise ConfigurationError(
                "engine='streaming' requires a time-ordered trace; "
                "chunk arrivals regress"
            )
        last = float(arr[-1])
        yield arr, ids


class _ChunkCursor:
    """One-chunk-at-a-time view of a streamed trace source.

    Buffers exactly one validated chunk of :func:`trace_chunks`.
    ``index`` is the global trace index of the next request — the
    engines' admission sequence / ``qseq`` space.
    """

    def __init__(self, source, chunk_requests: int) -> None:
        self._chunks = trace_chunks(source, chunk_requests)
        self._arr = np.zeros(0)
        self._ids = np.zeros(0, dtype=np.intp)
        self._arr_list: List[float] = []
        self._ids_list: List[int] = []
        self._pos = 0
        self._base = 0
        self._exhausted = False

    def _refill(self) -> None:
        if self._exhausted or self._pos < len(self._arr_list):
            return
        self._base += len(self._arr_list)
        self._pos = 0
        chunk = next(self._chunks, None)
        if chunk is None:
            self._arr_list = []
            self._ids_list = []
            self._exhausted = True
            return
        self._arr, self._ids = chunk
        self._arr_list = self._arr.tolist()
        self._ids_list = self._ids.tolist()

    @property
    def index(self) -> int:
        """Global trace index of the next request."""
        return self._base + self._pos

    def peek_time(self) -> float:
        """Next arrival time, or +inf when the trace is exhausted."""
        self._refill()
        if self._exhausted:
            return _INF
        return self._arr_list[self._pos]

    def window(self, limit: int) -> Tuple[np.ndarray, np.ndarray]:
        """Up to ``limit`` upcoming (arrivals, app ids), capped at the
        buffered chunk's end.  Never empty unless exhausted."""
        self._refill()
        lo = self._pos
        hi = min(len(self._arr_list), lo + limit)
        return self._arr[lo:hi], self._ids[lo:hi]

    def advance(self, k: int) -> None:
        self._pos += k

    def pop(self) -> Tuple[float, int]:
        """Consume and return the next (arrival time, app id)."""
        self._refill()
        t = self._arr_list[self._pos]
        app_id = self._ids_list[self._pos]
        self._pos += 1
        return t, app_id


def _check_first_arrival(cursor: _ChunkCursor) -> None:
    t0 = cursor.peek_time()
    if t0 != _INF and t0 < 0:
        raise SimulationError(f"event scheduled at negative time {t0}")


def run_streaming_fcfs(
    sim: "RackSimulation",
    source,
    sample_interval_seconds: float,
    chunk_requests: int,
) -> StreamedSeries:
    """Streaming port of :func:`~repro.cluster.fast_engine.run_vectorized`.

    Identical heaps, pass A/B/C structure, and RNG rollback; arrivals
    come through a :class:`_ChunkCursor` window and results fold into a
    :class:`StreamedSeries` instead of whole-trace arrays.
    """
    cursor = _ChunkCursor(source, chunk_requests)
    _check_first_arrival(cursor)
    n = source.total_requests
    c = sim._max_instances
    qmax = sim._queue_depth
    capacity = c + qmax
    serial_threshold = max(c, capacity - _CAPACITY_MARGIN)

    app_names = list(source.app_catalog)
    n_apps = len(app_names)
    known = np.array(
        [name in sim._applications for name in app_names], dtype=bool
    )
    pools = _ServicePools(sim, app_names)

    ticks = sample_tick_times(
        source.duration_seconds, sample_interval_seconds
    )
    series = StreamedSeries(
        ticks,
        total_requests=n,
        engine="streaming",
        chunk_requests=chunk_requests,
        app_catalog=tuple(app_names),
    )
    imm_hist = _TickHist(ticks)
    qarr_hist = _TickHist(ticks)
    qstart_hist = _TickHist(ticks)
    comp_hist = _TickHist(ticks)
    fold = _CompletionFold(series, max(chunk_requests, _FOLD_MIN))

    avail: List[float] = [0.0] * c  # heap of server-free times
    pending: List[float] = []  # heap of in-system completion times
    admitted_count = 0
    departed_count = 0

    chunk_size = _CHUNK_MIN
    next_compact = chunk_requests
    while True:
        now = cursor.peek_time()
        if now == _INF:
            break
        if cursor.index >= next_compact:
            # The serial kernel draws pool samples without a peek/
            # commit cycle; compacting once per chunk of arrivals keeps
            # consumed prefixes bounded even on serial-heavy runs.
            pools.compact()
            next_compact = cursor.index + chunk_requests
        if len(fold) >= fold.limit:
            fold.flush(min(now, pending[0]) if pending else now)
        while pending and pending[0] < now:
            heappop(pending)
            departed_count += 1
        in_system = admitted_count - departed_count

        # ---- Pass C: serial steps near the admission limit ----------
        if in_system >= serial_threshold:
            if in_system >= capacity:
                cursor.advance(1)
                series.fold_drop(now, REASON_QUEUE_FULL)
                continue
            _, app_id = cursor.pop()
            service = sim._service_time(app_names[app_id])
            free = avail[0]
            start = now if now > free else free
            completion = start + service
            heapreplace(avail, completion)
            heappush(pending, completion)
            if start <= now:
                imm_hist.add(now, inclusive=True)
            else:
                qarr_hist.add(now, inclusive=True)
                qstart_hist.add(start, inclusive=False)
            comp_hist.add(completion, inclusive=False)
            fold.emit(completion, completion - now)
            admitted_count += 1
            continue

        # ---- Chunked passes -----------------------------------------
        window_arr, window_ids = cursor.window(chunk_size)
        hi = len(window_arr)
        unknown = np.nonzero(~known[window_ids])[0]
        if unknown.size:
            if unknown[0] == 0:
                # The queue has room, so the oracle would admit this
                # request, draw its service time, and fail.
                raise SchedulingError(
                    f"unknown application {app_names[window_ids[0]]!r}"
                )
            hi = int(unknown[0])
        arr = window_arr[:hi]
        ids = window_ids[:hi]
        m = hi
        values, events, snapshot = pools.peek(ids)
        pend_sorted = np.sort(np.asarray(pending))
        dep_pend = np.searchsorted(pend_sorted, arr, side="left")
        offsets = np.arange(m)

        committed = -1  # sentinel: chunk not resolved yet
        drop_after = False
        avail_is_final = False
        all_immediate = False

        # ---- Pass A: contention-free chunk (all starts immediate) ---
        if in_system < c:
            comp_opt = arr + values
            dep_chunk = np.searchsorted(np.sort(comp_opt), arr, side="left")
            n_before = in_system + offsets - dep_pend - dep_chunk
            crossing = np.nonzero(n_before >= c)[0]
            cut = int(crossing[0]) if crossing.size else m
            if cut > 0:
                committed = cut
                starts_arr = arr[:cut]
                comps_arr = comp_opt[:cut]
                all_immediate = True

        # ---- Pass B: heap kernel with drop detection ----------------
        if committed < 0:
            heap = avail[:]
            starts_l: List[float] = []
            comps_l: List[float] = []
            append_start = starts_l.append
            append_comp = comps_l.append
            for arrival_t, service_t in zip(arr.tolist(), values.tolist()):
                free = heap[0]
                start = arrival_t if arrival_t > free else free
                append_start(start)
                completion = start + service_t
                append_comp(completion)
                heapreplace(heap, completion)
            comps_b = np.asarray(comps_l)
            dep_chunk = np.searchsorted(np.sort(comps_b), arr, side="left")
            n_before = in_system + offsets - dep_pend - dep_chunk
            over = np.nonzero(n_before >= capacity)[0]
            if over.size:
                committed = int(over[0])  # first over-capacity arrival
                drop_after = True
            else:
                committed = m
                avail = heap  # final server state, already a heap
                avail_is_final = True
            starts_arr = np.asarray(starts_l[:committed])
            comps_arr = comps_b[:committed]

        # ---- Commit the resolved prefix -----------------------------
        pools.commit(ids, committed, events, snapshot, n_apps)
        pools.compact()
        if committed:
            arr_c = arr[:committed]
            admitted_count += committed
            pending.extend(comps_arr.tolist())
            heapify(pending)
            if not avail_is_final:
                merged = np.concatenate([np.asarray(avail), comps_arr])
                avail = np.partition(merged, -c)[-c:].tolist()
                heapify(avail)
            if all_immediate:
                imm_hist.add_batch(arr_c, inclusive=True)
            else:
                immediate = starts_arr <= arr_c
                imm_hist.add_batch(arr_c[immediate], inclusive=True)
                qarr_hist.add_batch(arr_c[~immediate], inclusive=True)
                qstart_hist.add_batch(
                    starts_arr[~immediate], inclusive=False
                )
            comp_hist.add_batch(comps_arr, inclusive=False)
            fold.emit_batch(comps_arr, comps_arr - arr_c)
        cursor.advance(committed)
        if drop_after:
            t_drop, _ = cursor.pop()
            series.fold_drop(t_drop, REASON_QUEUE_FULL)
        if committed == m:
            chunk_size = min(chunk_size * 2, _CHUNK_MAX)
        else:
            chunk_size = _CHUNK_MIN

    fold.flush(_INF)
    series.busy_instances = (
        imm_hist.series() + qstart_hist.series() - comp_hist.series()
    )
    series.queue_depth = qarr_hist.series() - qstart_hist.series()
    return series.finalize()


def run_streaming_keyed(
    sim: "RackSimulation",
    policy: "KeyedPolicy",
    source,
    sample_interval_seconds: float,
    chunk_requests: int,
) -> StreamedSeries:
    """Streaming port of :func:`~repro.cluster.policy_engine.run_keyed`.

    Same primitive heaps, pass-A windows, keyed-dispatch kernel, and
    batched drain (serial fallback included); telemetry folds into a
    :class:`StreamedSeries` as the run progresses.
    """
    cursor = _ChunkCursor(source, chunk_requests)
    _check_first_arrival(cursor)
    n = source.total_requests
    c = sim._max_instances
    qmax = sim._queue_depth

    app_names = list(source.app_catalog)
    n_apps = len(app_names)
    known = np.array(
        [name in sim._applications for name in app_names], dtype=bool
    )
    pools = _ServicePools(sim, app_names)
    prefixes = [policy.key.key_for(name) for name in app_names]

    ticks = sample_tick_times(
        source.duration_seconds, sample_interval_seconds
    )
    series = StreamedSeries(
        ticks,
        total_requests=n,
        engine="streaming",
        chunk_requests=chunk_requests,
        app_catalog=tuple(app_names),
    )
    imm_hist = _TickHist(ticks)
    qarr_hist = _TickHist(ticks)
    qstart_hist = _TickHist(ticks)
    comp_hist = _TickHist(ticks)
    fold = _CompletionFold(series, max(chunk_requests, _FOLD_MIN))

    pending: List[float] = []
    queue: List[tuple] = []
    service_time = sim._service_time
    observe_app = policy.observe_app

    def dispatch(now: float) -> None:
        """Serve the min-key queued request on the server freed at now."""
        entry = heappop(queue)
        arrival_t = entry[-2]
        service = service_time(app_names[entry[-1]])
        completion = now + service
        heappush(pending, completion)
        qstart_hist.add(now, inclusive=False)
        comp_hist.add(completion, inclusive=False)
        fold.emit(completion, completion - arrival_t)

    chunk_size = _CHUNK_MIN
    next_compact = chunk_requests
    while True:
        now = cursor.peek_time()
        if now == _INF:
            break
        if cursor.index >= next_compact:
            # The keyed-dispatch kernel draws pool samples without a
            # peek/commit cycle; compact once per chunk of arrivals.
            pools.compact()
            next_compact = cursor.index + chunk_requests
        if len(fold) >= fold.limit:
            fold.flush(min(now, pending[0]) if pending else now)
        while pending and pending[0] < now:
            freed_at = heappop(pending)
            if queue:
                dispatch(freed_at)
        busy = len(pending)

        # ---- Pass A: contention-free chunk (all starts immediate) ---
        if not queue and busy < c:
            window_arr, window_ids = cursor.window(chunk_size)
            hi = len(window_arr)
            unknown = np.nonzero(~known[window_ids])[0]
            if unknown.size:
                # Cut before the first unknown app; the serial step
                # below reproduces the oracle's failure exactly.
                hi = int(unknown[0])
            if hi > 0:
                arr = window_arr[:hi]
                ids = window_ids[:hi]
                m = hi
                values, events, snapshot = pools.peek(ids)
                pend_sorted = np.sort(np.asarray(pending))
                dep_pend = np.searchsorted(pend_sorted, arr, side="left")
                comp_opt = arr + values
                dep_chunk = np.searchsorted(
                    np.sort(comp_opt), arr, side="left"
                )
                n_before = busy + np.arange(m) - dep_pend - dep_chunk
                crossing = np.nonzero(n_before >= c)[0]
                cut = int(crossing[0]) if crossing.size else m
                pools.commit(ids, cut, events, snapshot, n_apps)
                pools.compact()
                for committed_id in np.unique(ids[:cut]):
                    observe_app(app_names[committed_id])
                comps_arr = comp_opt[:cut]
                arr_c = arr[:cut]
                imm_hist.add_batch(arr_c, inclusive=True)
                comp_hist.add_batch(comps_arr, inclusive=False)
                fold.emit_batch(comps_arr, comps_arr - arr_c)
                pending.extend(comps_arr.tolist())
                heapify(pending)
                cursor.advance(cut)
                chunk_size = (
                    min(chunk_size * 2, _CHUNK_MAX)
                    if cut == m
                    else _CHUNK_MIN
                )
                continue

        # ---- Keyed dispatch kernel: one arrival, serially -----------
        idx = cursor.index
        _, app_id = cursor.pop()
        if busy < c:
            observe_app(app_names[app_id])
            service = service_time(app_names[app_id])
            completion = now + service
            heappush(pending, completion)
            imm_hist.add(now, inclusive=True)
            comp_hist.add(completion, inclusive=False)
            fold.emit(completion, completion - now)
        elif len(queue) < qmax:
            observe_app(app_names[app_id])
            heappush(queue, prefixes[app_id] + (idx, now, app_id))
            qarr_hist.add(now, inclusive=True)
        else:
            series.fold_drop(now, REASON_QUEUE_FULL)

    # ---- Drain: serve the backlog in pure key order -----------------
    if queue and pending and all(known[entry[-1]] for entry in queue):
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
            qstart_hist.add(freed_at, inclusive=False)
            comp_hist.add(completion, inclusive=False)
            fold.emit(completion, completion - entry[-2])
        queue.clear()
        pending.clear()
    else:
        # Serial fallback: an unknown app in the backlog must fail at
        # its exact dispatch (same SchedulingError, same RNG state).
        while pending:
            freed_at = heappop(pending)
            if queue:
                dispatch(freed_at)

    fold.flush(_INF)
    series.busy_instances = (
        imm_hist.series() + qstart_hist.series() - comp_hist.series()
    )
    series.queue_depth = qarr_hist.series() - qstart_hist.series()
    return series.finalize()


class _KernelSink:
    """Per-chunk event columns of a chunked kernel, and where they go.

    The chaos and control kernels append to these typed arrays as events
    happen (8 bytes an event, no per-event objects), and :meth:`read`
    flushes them once per trace chunk.  Every
    column is appended in event order, hence time-sorted, so a flush
    turns it into per-tick counts with one ``searchsorted`` over the
    tick grid, then hands the per-request records — completions in the
    canonical (completion, start order) order, reasoned drops in event
    order — to :meth:`_take`.  Subclasses differ only in :meth:`_take`
    and :meth:`close`.

    ``chunk_requests`` is the trace chunk size the kernel reads; ``None``
    reads the whole trace as one chunk.
    """

    chunk_requests: Optional[int] = None

    def open(
        self,
        ticks: np.ndarray,
        total_requests: int,
        app_catalog: Tuple[str, ...],
        track_apps: bool = False,
    ) -> None:
        self.ticks = ticks
        self.total_requests = total_requests
        self.app_catalog = app_catalog
        self.track_apps = track_apps
        # Busy-count columns.  ``pre`` events rank before an equal-time
        # sample tick (visible to it), ``post`` events after it.
        self.starts_pre = array("d")
        self.starts_post = array("d")
        self.kills = array("d")
        # Queue-depth columns; dequeues cover dispatches, timeouts and
        # sheds.
        self.enqueues = array("d")
        self.deq_pre = array("d")
        self.deq_post = array("d")
        # Per-request records; completion times also count as departures.
        self.comp_times = array("d")
        self.comp_lats = array("d")
        self.comp_apps = array("q")
        self.drop_times = array("d")
        self.drop_reasons = array("b")
        self._busy = np.zeros(len(ticks), dtype=np.int64)
        self._queue = np.zeros(len(ticks), dtype=np.int64)

    def read(self, source, pools: _ServicePools) -> Iterator[tuple]:
        """``source`` as ``(base, arrivals, app ids, arrivals list, app
        ids list)`` chunks, ``base`` the global trace index of the
        chunk's first request.

        Between chunks the columns are flushed and, with bounded chunks,
        consumed service-pool prefixes are compacted away, so the pools
        stay bounded too.
        """
        size = self.chunk_requests or max(source.total_requests, 1)
        base = 0
        for arr, ids in trace_chunks(source, size):
            if arr[0] < 0:
                raise SimulationError(
                    f"event scheduled at negative time {float(arr[0])}"
                )
            yield base, arr, ids, arr.tolist(), ids.tolist()
            base += len(arr)
            self.flush()
            if self.chunk_requests is not None:
                pools.compact()

    def flush(self) -> None:
        ticks = self.ticks

        def seen(column, side: str) -> np.ndarray:
            times = np.array(column, dtype=np.float64)
            return np.searchsorted(times, ticks, side=side)

        comps = np.array(self.comp_times, dtype=np.float64)
        self._busy += (
            seen(self.starts_pre, "right")
            + seen(self.starts_post, "left")
            - seen(comps, "left")
            - seen(self.kills, "right")
        )
        self._queue += (
            seen(self.enqueues, "right")
            - seen(self.deq_pre, "right")
            - seen(self.deq_post, "left")
        )
        self._take(
            comps,
            np.array(self.comp_lats, dtype=np.float64),
            np.array(self.comp_apps, dtype=np.int64)
            if self.track_apps
            else None,
            np.array(self.drop_times, dtype=np.float64),
            np.array(self.drop_reasons, dtype=np.int8),
        )
        for column in (
            self.starts_pre, self.starts_post, self.kills, self.enqueues,
            self.deq_pre, self.deq_post, self.comp_times, self.comp_lats,
            self.comp_apps, self.drop_times, self.drop_reasons,
        ):
            del column[:]

    def _take(self, times, lats, apps, drop_times, drop_reasons) -> None:
        raise NotImplementedError

    def close(self, **counters):
        """Flush the last chunk; return the run's series with the
        kernel's ``counters`` (retries, timeouts, ...) attached."""
        raise NotImplementedError


class SeriesSink(_KernelSink):
    """``engine="vectorized"``: the whole trace as one chunk, records
    concatenated into a :class:`~repro.cluster.simulation.SimulationSeries`.
    """

    def __init__(self) -> None:
        self._parts: List[tuple] = []

    def _take(self, *record) -> None:
        self._parts.append(record)

    def close(self, **counters) -> "SimulationSeries":
        from repro.cluster.simulation import SimulationSeries

        self.flush()
        times, lats, apps, drop_times, drop_reasons = (
            None if parts[0] is None else np.concatenate(parts)
            for parts in zip(*self._parts)
        )
        if apps is not None:
            counters.update(
                completed_app_ids=apps, app_catalog=self.app_catalog
            )
        return SimulationSeries(
            sample_times=self.ticks,
            queue_depth=self._queue,
            busy_instances=self._busy,
            completed_latency_seconds=lats,
            completed_times=times,
            dropped_requests=len(drop_times),
            total_requests=self.total_requests,
            dropped_times=drop_times,
            dropped_reasons=drop_reasons,
            **counters,
        )


class StreamedSink(_KernelSink):
    """``engine="streaming"``: bounded chunks of ``chunk_requests``,
    records folded into a :class:`StreamedSeries` once per chunk."""

    def __init__(self, chunk_requests: int) -> None:
        self.chunk_requests = chunk_requests

    def open(self, *args, **kwargs) -> None:
        super().open(*args, **kwargs)
        self._series = StreamedSeries(
            self.ticks,
            total_requests=self.total_requests,
            engine="streaming",
            chunk_requests=self.chunk_requests,
            app_catalog=self.app_catalog,
        )

    def _take(self, times, lats, apps, drop_times, drop_reasons) -> None:
        self._series.fold_completions(times, lats, apps)
        self._series.fold_drops(drop_times, drop_reasons)

    def close(self, **counters) -> StreamedSeries:
        self.flush()
        series = self._series
        series.queue_depth = self._queue
        series.busy_instances = self._busy
        for name, value in counters.items():
            setattr(series, name, value)
        return series.finalize()
