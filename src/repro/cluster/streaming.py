"""Streaming chunked execution: constant-memory traces, bit-identical.

A materialized run holds the full trace as per-request numpy arrays —
O(trace) memory for arrivals, app ids, starts, completions, and the
per-event series logs.  At fleet scale (fig13-fleet: ~10.2M requests
across 100 racks) that footprint binds before compute does.

``engine="streaming"`` removes it.  Every engine family — FCFS, keyed
policies, chaos and control — is one event oracle plus *one* chunked
kernel (:func:`~repro.cluster.fast_engine.run_fcfs_chunked`,
:func:`~repro.cluster.policy_engine.run_keyed_chunked`,
:func:`~repro.cluster.chaos_engine.run_chaos_chunked`,
:func:`~repro.cluster.control_engine.run_control_chunked`), and a sink
alone decides whether the run is materialized or streamed:

- **Trace side** — the kernel reads any source with the chunk protocol
  (:meth:`~repro.cluster.trace.RequestTrace.chunks`, or the
  generator-backed :class:`~repro.cluster.trace.StreamedTrace`) through
  :meth:`_KernelSink.read`, which validates the streaming contract
  (:func:`trace_chunks`); only one chunk is buffered at a time.
- **Engine side** — the kernel appends events to the sink's plain typed
  columns (starts, enqueues, dequeues, kills, completions, drops) and
  the sink flushes them once per trace chunk.  Every kernel uses the
  :class:`~repro.cluster.fast_engine._ServicePools` tentative-draw RNG
  rollback at every cut, so chunk boundaries only partition the work:
  every per-request decision, every service draw, and the RNG end state
  are unchanged.
- **Telemetry side** — :class:`SeriesSink` (``engine="vectorized"``)
  concatenates every chunk's records into a
  :class:`~repro.cluster.simulation.SimulationSeries` and keeps the
  service pools whole, as the oracle does; :class:`StreamedSink`
  (``engine="streaming"``) folds each chunk into
  a :class:`StreamedSeries`: tick series as running per-tick counts,
  latency percentiles via the mergeable
  :class:`~repro.sim.stats.QuantileSketch`, per-bucket latency sums and
  per-reason drop counters.  Completions are handed over in the
  *canonical* order (completion time, start order) — the order the
  materialized series arrays hold — so the float64 bucket sums are
  bit-identical regardless of how the fold was chunked (``np.add.at``
  applies repeated-index updates sequentially in index order).

Bit-identity contract: for every engine family, a streamed run and
:meth:`StreamedSeries.from_series` over the corresponding materialized
(or event-oracle) run produce :meth:`StreamedSeries.identical_to`
telemetry and leave the simulation RNG and service pools in the same
end state, for any ``chunk_requests`` — enforced by
``tests/test_streaming_equivalence.py``.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.cluster.faults import DROP_REASONS
from repro.errors import ConfigurationError, SimulationError
from repro.sim.stats import QuantileSketch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.cluster.fast_engine import _ServicePools
    from repro.cluster.simulation import SimulationSeries

_INF = float("inf")

# Default chunk size: large enough that pass-A vector work dominates the
# per-chunk Python overhead, small enough that per-chunk buffers stay a
# rounding error next to the engines' own working state.
_DEFAULT_CHUNK_REQUESTS = 65_536


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

    Built either by a :class:`StreamedSink` (folded chunk by chunk as
    the run progresses) or from a finished materialized run via
    :meth:`from_series` — the "streaming constructor" — which replays
    the per-request arrays through the identical fold, making the two
    bit-comparable with :meth:`identical_to`.
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


class _KernelSink:
    """Per-chunk event columns of a chunked kernel, and where they go.

    Every chunked kernel appends to these typed arrays as events happen
    (8 bytes an event, no per-event objects; :meth:`extend` appends a
    numpy batch in one copy), and :meth:`read` flushes them once per
    trace chunk.  The tick columns are appended in event order, hence
    time-sorted, so a flush turns each into per-tick counts with one
    ``searchsorted`` over the tick grid.  It then hands the per-request
    records — completions in the canonical (completion, start order)
    order, reasoned drops in event order — to :meth:`_take`.  Subclasses
    differ only in :meth:`_take` and :meth:`close`.

    ``chunk_requests`` is the trace chunk size the kernel reads: bounded
    under both sinks, so the columns never grow past one chunk of
    events.  ``compact_pools`` drops consumed service-pool prefixes
    between chunks (constant memory) instead of keeping the pools whole,
    exactly as the oracle leaves them.
    """

    chunk_requests = _DEFAULT_CHUNK_REQUESTS
    compact_pools = False

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
        # sample tick (visible to it), ``post`` events after it.  Every
        # kernel starts after a tick only by dispatching from the queue,
        # so ``starts_post`` doubles as the post-tick dequeues.
        self.starts_pre = array("d")
        self.starts_post = array("d")
        self.kills = array("d")
        # Queue-depth columns; pre-tick dequeues cover dispatches,
        # timeouts and sheds.
        self.enqueues = array("d")
        self.deq_pre = array("d")
        # Per-request records; completion times also count as departures.
        # Kernels that record completions as they fire append them in
        # canonical order; kernels that record them at the start append
        # them in start order, unsorted (see :meth:`flush`).
        self.comp_times = array("d")
        self.comp_lats = array("d")
        self.comp_apps = array("q")
        self.drop_times = array("d")
        self.drop_reasons = array("b")
        self._busy = np.zeros(len(ticks), dtype=np.int64)
        self._queue = np.zeros(len(ticks), dtype=np.int64)

    @staticmethod
    def extend(column: array, values: np.ndarray) -> None:
        """Append a numpy vector to ``column`` in one copy."""
        column.frombytes(
            np.ascontiguousarray(values, dtype=column.typecode).data.cast("B")
        )

    def read(self, source, pools: "_ServicePools") -> Iterator[tuple]:
        """``source`` as ``(base, arrivals, app ids, arrivals list, app
        ids list)`` chunks, ``base`` the global trace index of the
        chunk's first request.

        Before each chunk after the first the columns are flushed up to
        the last arrival read so far — no later start, hence no later
        completion, can precede it — and, with ``compact_pools``,
        consumed service-pool prefixes are compacted away, so the pools
        stay bounded too.  :meth:`close` flushes the rest.
        """
        base = 0
        for arr, ids in trace_chunks(source, self.chunk_requests):
            if arr[0] < 0:
                raise SimulationError(
                    f"event scheduled at negative time {float(arr[0])}"
                )
            if base:
                self.flush(last)
                if self.compact_pools:
                    pools.compact()
            yield base, arr, ids, arr.tolist(), ids.tolist()
            base += len(arr)
            last = float(arr[-1])

    def flush(self, watermark: float = _INF) -> None:
        """Count the columns into the tick series; hand on the records.

        Completions go out in canonical order, and only those before
        ``watermark``; the rest stay in the columns for a later flush.
        """
        ticks = self.ticks

        def seen(column, side: str) -> np.ndarray:
            times = np.array(column, dtype=np.float64)
            return np.searchsorted(times, ticks, side=side)

        comps = np.array(self.comp_times, dtype=np.float64)
        lats = np.array(self.comp_lats, dtype=np.float64)
        apps = (
            np.array(self.comp_apps, dtype=np.int64)
            if self.track_apps
            else None
        )
        if np.any(comps[1:] < comps[:-1]):
            # Recorded at the start: a stable sort restores canonical
            # order, append (start) order breaking completion-time ties.
            order = np.argsort(comps, kind="stable")
            comps = comps[order]
            lats = lats[order]
            if apps is not None:
                apps = apps[order]
        cut = int(np.searchsorted(comps, watermark, side="left"))
        self._busy += (
            seen(self.starts_pre, "right")
            + seen(self.starts_post, "left")
            - seen(comps[:cut], "left")
            - seen(self.kills, "right")
        )
        self._queue += (
            seen(self.enqueues, "right")
            - seen(self.deq_pre, "right")
            - seen(self.starts_post, "left")
        )
        self._take(
            comps[:cut],
            lats[:cut],
            None if apps is None else apps[:cut],
            np.array(self.drop_times, dtype=np.float64),
            np.array(self.drop_reasons, dtype=np.int8),
        )
        for column in (
            self.starts_pre, self.starts_post, self.kills, self.enqueues,
            self.deq_pre, self.comp_times, self.comp_lats, self.comp_apps,
            self.drop_times, self.drop_reasons,
        ):
            del column[:]
        if cut < len(comps):
            self.extend(self.comp_times, comps[cut:])
            self.extend(self.comp_lats, lats[cut:])
            if apps is not None:
                self.extend(self.comp_apps, apps[cut:])

    def _take(self, times, lats, apps, drop_times, drop_reasons) -> None:
        raise NotImplementedError

    def close(self, **counters):
        """Flush the last chunk; return the run's series with the
        kernel's ``counters`` (retries, timeouts, ...) attached."""
        raise NotImplementedError


class SeriesSink(_KernelSink):
    """``engine="vectorized"``: records of every chunk concatenated into
    a :class:`~repro.cluster.simulation.SimulationSeries`."""

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
    """``engine="streaming"``: chunks of ``chunk_requests``, records
    folded into a :class:`StreamedSeries` once per chunk."""

    compact_pools = True

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
