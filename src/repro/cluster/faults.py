"""Seeded fault injection and retry policies for the rack simulator.

The paper's fail-over story (§5.3) is that DSCS degrades to conventional
execution, never to an error.  The single-platform layer proves that with
unhealthy-node failover in the object store; this module adds the
rack-scale availability dimension: a :class:`FaultSchedule` describing
instance crash–recover processes, correlated node outages, and transient
service slowdowns, plus a :class:`RetryPolicy` describing how the control
plane reacts (per-request queue timeouts, bounded retries with
exponential backoff and jitter, hedged duplicate dispatch).

Determinism is the design center, following the sampling-fidelity lesson
of *Memory Access Vectors*: a schedule is a pure function of its own
seed, materialized up front into a :class:`FaultTimeline` of capacity
events and slowdown windows that is **independent of the simulation
RNG**.  Perturbed runs therefore stay comparable across engines, seeds,
and PRs — the event-driven oracle and the vectorized chaos engine
consume the identical timeline and are bit-identical on it
(``tests/test_fault_equivalence.py``).

Retry jitter is likewise deterministic without touching any RNG stream:
the backoff factor for attempt ``a`` of request ``i`` is a splitmix64
hash of ``(jitter_seed, i, a)``, so it does not depend on the order in
which engines discover failures.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

# Drop-reason codes shared by every engine and the telemetry layer.
# Order is load-bearing only for reporting (``DROP_REASONS[code]``).
# ``shed`` is the control plane's terminal drop (admission control /
# queue shedding / brownout / circuit breaker — see
# :mod:`repro.cluster.control`); sheds are never retried.
REASON_QUEUE_FULL = 0
REASON_TIMEOUT = 1
REASON_CRASHED = 2
REASON_SHED = 3
DROP_REASONS = ("queue_full", "timeout", "crashed", "shed")

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One splitmix64 scramble round (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _hash_unit(seed: int, sequence: int, attempt: int) -> float:
    """Deterministic uniform in ``[0, 1)`` from three integers."""
    h = _splitmix64(seed & _MASK64)
    h = _splitmix64(h ^ (sequence & _MASK64))
    h = _splitmix64(h ^ (attempt & _MASK64))
    return h / 2.0**64


@dataclass(frozen=True)
class RetryPolicy:
    """How the control plane reacts to per-request failures.

    - ``timeout_seconds`` — maximum *queue wait* per attempt; a request
      still queued when its timer fires fails with reason ``timeout``.
      Requests that start immediately never time out (execution is
      run-to-completion, as in the paper).
    - ``max_retries`` — failed attempts (timeout, crash kill, queue-full
      rejection) re-arrive up to this many times before counting as a
      drop.  Retries re-enter the scheduler queue through the policy's
      priority key with a fresh admission sequence, so they never jump
      ahead of equal-key originals.
    - ``backoff_base_seconds`` / ``backoff_cap_seconds`` / ``jitter`` —
      attempt ``a`` re-arrives ``min(cap, base * 2**a)`` seconds later,
      scaled by a deterministic jitter factor in ``[1 - jitter, 1)``.
    - ``hedge_after_seconds`` — when set, every started request
      dispatches a backup copy on its serving instance's backend replica
      after this long; the first copy to finish wins.  Modelled as
      ``effective = min(s1, hedge + s2)`` with both samples always drawn
      (eager draw keeps the RNG stream engine-order-independent).
    """

    timeout_seconds: Optional[float] = None
    max_retries: int = 0
    backoff_base_seconds: float = 0.5
    backoff_cap_seconds: float = 30.0
    jitter: float = 0.5
    hedge_after_seconds: Optional[float] = None
    jitter_seed: int = 2024

    def __post_init__(self) -> None:
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ConfigurationError(
                f"non-positive retry timeout: {self.timeout_seconds}; "
                "use timeout_seconds=None to disable timeouts"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"negative max_retries: {self.max_retries}"
            )
        if self.backoff_base_seconds < 0:
            raise ConfigurationError(
                f"negative backoff base: {self.backoff_base_seconds}"
            )
        if self.backoff_cap_seconds < 0:
            raise ConfigurationError(
                f"negative backoff cap: {self.backoff_cap_seconds}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be a fraction in [0, 1], got {self.jitter}"
            )
        if (
            self.hedge_after_seconds is not None
            and self.hedge_after_seconds <= 0
        ):
            raise ConfigurationError(
                f"non-positive hedge delay: {self.hedge_after_seconds}; "
                "use hedge_after_seconds=None to disable hedging"
            )

    @property
    def active(self) -> bool:
        """Whether this policy changes anything relative to no policy."""
        return (
            self.timeout_seconds is not None
            or self.hedge_after_seconds is not None
            or self.max_retries > 0
        )

    def backoff_seconds(self, sequence: int, attempt: int) -> float:
        """Delay before re-arrival of attempt ``attempt + 1``.

        A pure function of ``(jitter_seed, sequence, attempt)`` — no RNG
        stream is consumed, so the delay does not depend on the order in
        which an engine discovers failures.
        """
        delay = min(
            self.backoff_cap_seconds,
            self.backoff_base_seconds * 2.0**attempt,
        )
        if self.jitter:
            unit = _hash_unit(self.jitter_seed, sequence, attempt)
            delay *= (1.0 - self.jitter) + self.jitter * unit
        return delay


@dataclass(frozen=True)
class FaultTimeline:
    """A :class:`FaultSchedule` materialized for one fleet and horizon.

    ``times``/``capacities`` are the capacity step function: at
    ``times[k]`` the fleet capacity becomes ``capacities[k]`` (already
    clamped to the schedule's floor, with no-op steps removed).
    ``slow_starts``/``slow_ends`` are merged half-open slowdown windows
    ``[start, end)`` during which service times are scaled by
    ``slowdown_multiplier``.  The timeline is pure data — both engines
    walk the same arrays, which is what makes chaos runs bit-comparable.
    """

    initial_capacity: int
    times: np.ndarray
    capacities: np.ndarray
    slow_starts: np.ndarray
    slow_ends: np.ndarray
    slowdown_multiplier: float = 1.0

    @classmethod
    def empty(cls, capacity: int) -> "FaultTimeline":
        """A fault-free timeline: constant capacity, no slow windows."""
        return cls(
            initial_capacity=int(capacity),
            times=np.empty(0),
            capacities=np.empty(0, dtype=np.int64),
            slow_starts=np.empty(0),
            slow_ends=np.empty(0),
        )

    @property
    def empty_timeline(self) -> bool:
        return len(self.times) == 0 and len(self.slow_starts) == 0

    @cached_property
    def _slow_windows(self) -> Tuple[List[float], List[float]]:
        """The slowdown windows as Python lists, for scalar bisection."""
        return self.slow_starts.tolist(), self.slow_ends.tolist()

    def multiplier_at(self, t: float) -> float:
        """Service-time multiplier in effect at time ``t`` (scalar)."""
        starts, ends = self._slow_windows
        idx = bisect_right(starts, t) - 1
        if idx >= 0 and t < ends[idx]:
            return self.slowdown_multiplier
        return 1.0

    def multipliers(self, times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`multiplier_at` — bit-identical per element."""
        if len(self.slow_starts) == 0:
            return np.ones(len(times))
        idx = np.searchsorted(self.slow_starts, times, side="right") - 1
        inside = (idx >= 0) & (times < self.slow_ends[np.maximum(idx, 0)])
        return np.where(inside, self.slowdown_multiplier, 1.0)

    def capacity_at(self, t: float) -> int:
        """Fleet capacity in effect at time ``t``."""
        if len(self.times) == 0:
            return self.initial_capacity
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        if idx < 0:
            return self.initial_capacity
        return int(self.capacities[idx])


@dataclass(frozen=True)
class FaultSchedule:
    """A seeded description of rack-scale failure processes.

    Three independent processes, all Poisson with exponential repair:

    - **instance crashes** — individual instances fail with fleet-wide
      rate ``max_instances / instance_mtbf_seconds`` and recover after
      an exponential repair time (mean ``instance_mttr_seconds``);
    - **node outages** — correlated failures taking down ``node_size``
      instances at once, one process per ``max_instances // node_size``
      nodes;
    - **slowdown spikes** — transient windows (storage contention, GC
      pauses) during which every service time is scaled by
      ``slowdown_multiplier``.

    Capacity never drops below ``min_capacity`` — the modelled system
    degrades, it does not error (§5.3).  ``materialize`` is a pure
    function of ``(seed, max_instances, horizon)``, independent of the
    simulation RNG.
    """

    instance_mtbf_seconds: Optional[float] = None
    instance_mttr_seconds: float = 30.0
    node_outage_mtbf_seconds: Optional[float] = None
    node_mttr_seconds: float = 120.0
    node_size: int = 8
    slowdown_rate_per_minute: float = 0.0
    slowdown_multiplier: float = 2.0
    slowdown_duration_seconds: float = 10.0
    seed: int = 404
    min_capacity: int = 1

    def __post_init__(self) -> None:
        for name in ("instance_mtbf_seconds", "node_outage_mtbf_seconds"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(
                    f"non-positive {name}: {value}; use None to disable"
                )
        for name in ("instance_mttr_seconds", "node_mttr_seconds"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigurationError(f"non-positive {name}: {value}")
        if self.node_size < 1:
            raise ConfigurationError(
                f"node_size must be >= 1, got {self.node_size}"
            )
        if self.slowdown_rate_per_minute < 0:
            raise ConfigurationError(
                "negative slowdown rate: "
                f"{self.slowdown_rate_per_minute}"
            )
        if self.slowdown_multiplier <= 0:
            raise ConfigurationError(
                f"non-positive slowdown multiplier: "
                f"{self.slowdown_multiplier}"
            )
        if self.slowdown_duration_seconds <= 0:
            raise ConfigurationError(
                "non-positive slowdown duration: "
                f"{self.slowdown_duration_seconds}"
            )
        if self.min_capacity < 1:
            raise ConfigurationError(
                f"min_capacity must be >= 1, got {self.min_capacity} "
                "(the modelled system degrades, it does not vanish)"
            )

    @property
    def active(self) -> bool:
        """Whether any failure process is enabled."""
        return (
            self.instance_mtbf_seconds is not None
            or self.node_outage_mtbf_seconds is not None
            or self.slowdown_rate_per_minute > 0
        )

    def _crash_deltas(
        self,
        rng: np.random.Generator,
        mtbf: float,
        mttr: float,
        horizon: float,
        width: int,
        sources: int,
    ) -> List[Tuple[float, int]]:
        """Capacity deltas for one crash–recover process.

        Failures form a Poisson process of rate ``sources / mtbf``
        (``sources`` independent exponential clocks superpose); each
        takes ``width`` instances down for an Exp(``mttr``) repair.
        Crashes are generated inside ``[0, horizon)`` only; recoveries
        may land beyond the horizon (a saturated rack keeps draining
        past the trace end).
        """
        deltas: List[Tuple[float, int]] = []
        if sources <= 0:
            return deltas
        mean_gap = mtbf / sources
        t = 0.0
        while True:
            t += float(rng.exponential(mean_gap))
            if t >= horizon:
                break
            repair = float(rng.exponential(mttr))
            deltas.append((t, -width))
            deltas.append((t + repair, width))
        return deltas

    def materialize(
        self, max_instances: int, horizon_seconds: float
    ) -> FaultTimeline:
        """Realize the schedule for one fleet size and trace horizon."""
        if max_instances <= 0:
            raise ConfigurationError(
                f"non-positive instances: {max_instances}"
            )
        if horizon_seconds < 0:
            raise ConfigurationError(
                f"negative horizon: {horizon_seconds}"
            )
        rng = np.random.default_rng(self.seed)
        deltas: List[Tuple[float, int]] = []
        if self.instance_mtbf_seconds is not None:
            deltas.extend(
                self._crash_deltas(
                    rng,
                    self.instance_mtbf_seconds,
                    self.instance_mttr_seconds,
                    horizon_seconds,
                    width=1,
                    sources=max_instances,
                )
            )
        if self.node_outage_mtbf_seconds is not None:
            nodes = max(1, max_instances // self.node_size)
            width = min(self.node_size, max_instances)
            deltas.extend(
                self._crash_deltas(
                    rng,
                    self.node_outage_mtbf_seconds,
                    self.node_mttr_seconds,
                    horizon_seconds,
                    width=width,
                    sources=nodes,
                )
            )

        times: List[float] = []
        caps: List[int] = []
        if deltas:
            deltas.sort(key=lambda event: event[0])
            raw = max_instances
            previous = max_instances
            for t, delta in deltas:
                raw += delta
                clamped = max(self.min_capacity, min(max_instances, raw))
                if times and times[-1] == t:
                    # Coincident events collapse to their net effect.
                    caps[-1] = clamped
                    previous = clamped
                    continue
                if clamped == previous:
                    continue  # no-op under the floor clamp
                times.append(t)
                caps.append(clamped)
                previous = clamped

        slow_starts: List[float] = []
        slow_ends: List[float] = []
        if self.slowdown_rate_per_minute > 0:
            mean_gap = 60.0 / self.slowdown_rate_per_minute
            t = 0.0
            while True:
                t += float(rng.exponential(mean_gap))
                if t >= horizon_seconds:
                    break
                end = t + self.slowdown_duration_seconds
                if slow_ends and t <= slow_ends[-1]:
                    # Overlapping windows merge (no multiplier stacking).
                    slow_ends[-1] = max(slow_ends[-1], end)
                else:
                    slow_starts.append(t)
                    slow_ends.append(end)

        return FaultTimeline(
            initial_capacity=max_instances,
            times=np.asarray(times, dtype=np.float64),
            capacities=np.asarray(caps, dtype=np.int64),
            slow_starts=np.asarray(slow_starts, dtype=np.float64),
            slow_ends=np.asarray(slow_ends, dtype=np.float64),
            slowdown_multiplier=float(self.slowdown_multiplier),
        )
