"""Span tracing from outside the program, for the traced benchmark run.

The program has no tracing of its own yet, so the benchmark wraps the
public functions at each layer boundary (compile, cycle simulation,
DSE, serverless model, registry, trace generation, rack engines, fleet)
and records one span per call: name, start, end, parent span, process
id and a few attributes.  Spans stay in memory and are written out when
the run ends.  A layer's self time is its span's duration minus the part
covered by its child spans.

Untraced runs use :data:`NULL_TRACER`, whose ``span`` is a no-op, and
install no wrappers at all.

Fleet racks run in forked pool workers.  A wrapper that fires in a
process other than the one that installed it appends each finished span
as one JSON line to ``<worker_dir>/spans-<pid>.jsonl``, which the parent
merges after the run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional


def status_kb(field: str) -> Optional[int]:
    """A ``VmRSS``/``VmHWM``-style field of /proc/self/status, in KiB
    (None where the field is missing)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def _reset_peak_rss() -> bool:
    """Reset this process's resident high-water mark (Linux only)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


class NullTracer:
    """Tracing switched off: spans cost one call and record nothing."""

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        yield attrs


NULL_TRACER = NullTracer()


class Tracer:
    """Records nested spans in memory."""

    def __init__(self, worker_dir: Path) -> None:
        self.pid = os.getpid()
        self.worker_dir = Path(worker_dir)
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        # Compiled-program cache lookups across every ProgramCache.
        self.cache_hits = 0
        self.cache_misses = 0
        self.stopped = False

    def stop(self) -> None:
        """Record nothing more (the output checks are not traced)."""
        self.stopped = True

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Time the block as a child of the innermost open span.

        The yielded dict is the span's attribute map; the caller may add
        attributes (counts, sizes) before the block ends.
        """
        if self.stopped:
            yield dict(attrs)
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "pid": os.getpid(),
            "attrs": dict(attrs),
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if record["pid"] != self.pid:
                self._flush_worker_span(record)

    def _flush_worker_span(self, record: Dict[str, Any]) -> None:
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        path = self.worker_dir / f"spans-{record['pid']}.jsonl"
        with path.open("a") as handle:
            handle.write(json.dumps(record) + "\n")

    def wrap(
        self,
        fn: Callable,
        name: str,
        before: Optional[Callable[..., Dict[str, Any]]] = None,
        after: Optional[Callable[[Any, Dict[str, Any]], None]] = None,
        peak_memory: bool = False,
    ) -> Callable:
        """``fn`` timed as span ``name``.

        ``before(*args, **kwargs)`` returns attributes known at call time;
        ``after(result, attrs)`` adds attributes from the result.  With
        ``peak_memory`` the span records ``peak_rss_mb``: the rise of the
        process's resident high-water mark over its level at span start.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = before(*args, **kwargs) if before else {}
            with tracer.span(name, **attrs) as live:
                if peak_memory:
                    reset = _reset_peak_rss()
                    base_kb = status_kb("VmRSS") if reset else 0
                result = fn(*args, **kwargs)
                if peak_memory:
                    peak_kb = status_kb("VmHWM")
                    if peak_kb is not None and base_kb is not None:
                        live["peak_rss_mb"] = (peak_kb - base_kb) / 1024.0
                if after:
                    after(result, live)
            return result

        return traced

    # ----------------------------------------------------------- results
    def all_spans(self) -> List[Dict[str, Any]]:
        """This process's spans plus every worker process's spans."""
        spans = list(self.spans)
        for path in sorted(self.worker_dir.glob("spans-*.jsonl")):
            with path.open() as handle:
                spans.extend(json.loads(line) for line in handle)
        return spans


def self_times(spans: List[Dict[str, Any]]) -> List[float]:
    """Per span: duration minus the time its direct children cover.

    Children of one span run sequentially within one process, so the
    covered time is the sum of their durations.
    """
    covered: Dict[tuple, float] = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["pid"], span["parent"])
            covered[key] = covered.get(key, 0.0) + span["end"] - span["start"]
    return [
        span["end"] - span["start"] - covered.get((span["pid"], span["id"]), 0.0)
        for span in spans
    ]


def nested_time(
    spans: List[Dict[str, Any]], outer: str, inner: str
) -> Dict[tuple, float]:
    """``{(pid, id) of an outer span: time of the inner spans nested in it}``.

    An inner span counts toward its closest enclosing ``outer`` span in
    its own process.
    """
    by_key = {(span["pid"], span["id"]): span for span in spans}
    covered: Dict[tuple, float] = {}
    for span in spans:
        if span["name"] != inner:
            continue
        parent = by_key.get((span["pid"], span["parent"]))
        while parent is not None and parent["name"] != outer:
            parent = by_key.get((span["pid"], parent["parent"]))
        if parent is not None:
            key = (span["pid"], parent["id"])
            covered[key] = covered.get(key, 0.0) + span["end"] - span["start"]
    return covered


def summarize(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """``{span name: {calls, total_s, self_s}}`` over all processes."""
    table: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = table.setdefault(
            span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        entry["calls"] += 1
        entry["total_s"] += span["end"] - span["start"]
        entry["self_s"] += own
    return table


# ------------------------------------------------------------- install
def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module global bound to ``original`` at
    ``replacement`` (functions are imported by name into their callers).
    """
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _rack_family(simulation, *args, **kwargs) -> Dict[str, Any]:
    return {"family": getattr(simulation, "_perfbench_family", "fcfs")}


def _rack_after(result, attrs: Dict[str, Any]) -> None:
    attrs["requests"] = int(result.total_requests)
    attrs["dropped"] = int(result.dropped_requests)


def _count_cache_lookups(tracer: Tracer, cls, attr: str) -> None:
    original = getattr(cls, attr)

    @functools.wraps(original)
    def counted(cache, *args, **kwargs):
        hits, misses = cache.hits, cache.misses
        result = original(cache, *args, **kwargs)
        if tracer.stopped:
            return result
        tracer.cache_hits += cache.hits - hits
        tracer.cache_misses += cache.misses - misses
        return result

    setattr(cls, attr, counted)


def install(tracer: Tracer) -> None:
    """Wrap the layer-boundary functions of an imported ``repro``.

    Must run after the modules are imported (the registry load does
    that) and before any workload code runs.
    """
    from repro.accelerator import packed as packed_mod
    from repro.accelerator.simulator import CycleSimulator
    from repro.cluster.fleet import GlobalLoadBalancer
    from repro.cluster.fleet_engine import FleetRunner
    from repro.cluster.simulation import RackSimulation
    from repro.cluster.trace import StreamedTrace, TraceGenerator
    from repro.compiler import codegen, packed_codegen
    from repro.compiler.executable import ProgramCache
    from repro.core.model import ServerlessExecutionModel
    from repro.dse.explorer import DSEExplorer
    from repro.experiments.registry import ExperimentRegistry

    def method(cls, attr, name, **options):
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), name, **options))

    def function(module, attr, name, **options):
        original = getattr(module, attr)
        _rebind(original, tracer.wrap(original, name, **options))

    # Compiler and cycle simulator.
    for attr in ("get", "get_packed"):
        _count_cache_lookups(tracer, ProgramCache, attr)
    function(codegen, "generate", "compiler.generate")
    function(packed_codegen, "lower_packed", "compiler.lower_packed")
    function(packed_mod, "interleave_cycles", "accelerator.interleave")

    def packed_after(report, attrs):
        attrs["cycles"] = int(report.cycles)

    def packed_before(simulator, program):
        return {"instructions": len(program)}

    method(
        CycleSimulator,
        "run_packed",
        "accelerator.run_packed",
        before=packed_before,
        after=packed_after,
    )
    method(
        DSEExplorer,
        "evaluate",
        "dse.evaluate",
        before=lambda explorer, config: {"config": repr(config)},
    )
    # Serverless execution model.
    method(ServerlessExecutionModel, "invoke", "core.invoke")
    method(ServerlessExecutionModel, "sample_latencies", "core.sample_latencies")
    # Experiment registry.
    method(
        ExperimentRegistry,
        "run",
        "experiments.spec",
        before=lambda registry, name, *a, **k: {"spec": name},
    )
    # Cluster: trace generation, rack engines, fleet.
    method(TraceGenerator, "generate", "cluster.trace_gen")
    method(TraceGenerator, "stream", "cluster.trace_gen")
    original_chunks = StreamedTrace.chunks

    @functools.wraps(original_chunks)
    def traced_chunks(source, chunk_requests):
        iterator = iter(original_chunks(source, chunk_requests))
        while True:
            with tracer.span("cluster.trace_gen"):
                chunk = next(iterator, None)
            if chunk is None:
                return
            yield chunk

    StreamedTrace.chunks = traced_chunks

    original_init = RackSimulation.__init__
    signature = inspect.signature(original_init)

    @functools.wraps(original_init)
    def init_with_family(simulation, *args, **kwargs):
        original_init(simulation, *args, **kwargs)
        bound = signature.bind(simulation, *args, **kwargs).arguments
        simulation._perfbench_family = rack_family(
            bound.get("policy"),
            bound.get("faults"),
            bound.get("retry"),
            bound.get("control"),
        )

    RackSimulation.__init__ = init_with_family
    method(
        RackSimulation,
        "run",
        "cluster.rack_run",
        before=_rack_family,
        after=_rack_after,
        peak_memory=True,
    )
    method(FleetRunner, "run", "cluster.fleet_run")
    method(GlobalLoadBalancer, "shard", "cluster.fleet_shard")


def rack_family(policy, faults, retry, control) -> str:
    """The engine family a rack configuration runs on, from its public
    constructor arguments: control > chaos > keyed policy > fcfs."""
    if control is not None and control.active:
        return "control"
    if (faults is not None and faults.active) or (
        retry is not None and retry.active
    ):
        return "chaos"
    if policy is not None:
        return policy.name
    return "fcfs"
