"""The benchmark's workloads: each a fixed batch of generated work.

A workload has four phases, all run in one fresh process:

- ``setup(seed)``: import, registry load and suite-context build (for
  the cluster workloads this includes compiling the suite on the rack
  platforms, which every rack run needs before its first request);
- ``run(seed, tracer)``: the timed phase, which returns the raw outputs
  and the number of operations it attempted;
- ``check(seed, outputs)``: untimed; the check hash, per-operation
  failures, the simulated request count and informational lines;
- ``reference(seed, outputs)``: untimed, first batch of a run only; the
  same layers run again on a small input through a reference path (the
  event-driven oracle, the scalar interpreter, an uncached compile), and
  every disagreement is a failure.  This catches a change that computes
  the same wrong result in every batch, which the batch-to-batch hash
  comparison cannot see.

Operations: one spec run (``paper-fast``), one rack run (``rack-*``) or
one fleet run (``fleet``); the reference comparison is one more.  An
operation that raises is recorded with its traceback and counts as
failed; the rest of the batch still runs.
"""

from __future__ import annotations

import contextlib
import os
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

import checks

#: Paper headline ratios against which ``model_err_pct`` is computed:
#: (spec, what, reference attribute in ``calibration``).
HEADLINES = (
    ("fig09", "DSCS-vs-CPU speedup, geomean", "PAPER_SPEEDUP_DSCS_VS_CPU"),
    ("fig11", "DSCS energy reduction, geomean", "PAPER_ENERGY_REDUCTION_VS_CPU"),
    ("fig12", "DSCS cost efficiency", "PAPER_COST_EFFICIENCY_DSCS"),
    ("fig14", "batch-1 speedup, geomean", "PAPER_BATCH1_SPEEDUP"),
)

RACK_INSTANCES = 200
FLEET_RACKS = 16
FLEET_RATE_SCALE = 6.0
FLEET_WORKERS = 2
#: Racks in the reference fleet run.
REFERENCE_RACKS = 4


def usable_cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass
class Outcome:
    """What ``check`` reports about one batch."""

    check_hash: str
    attempted: int
    failures: Dict[str, List[str]] = field(default_factory=dict)
    simulated_requests: int = 0
    info: List[str] = field(default_factory=list)
    ratios: List[Tuple[str, str, float, float]] = field(default_factory=list)
    speedups: List[Tuple[str, float]] = field(default_factory=list)


@contextlib.contextmanager
def _guarded(errors: Dict[str, List[str]], op: str) -> Iterator[None]:
    """Record an exception from operation ``op`` instead of raising."""
    try:
        yield
    except Exception:  # noqa: BLE001 - batch boundary, keeps running
        errors.setdefault(op, []).append(traceback.format_exc())


def load_registry():
    """The experiment registry with every spec loaded (this imports all
    of the program's modules)."""
    from repro.experiments.registry import load_all

    return load_all()


def _warm(context) -> None:
    """Compile the suite on every platform of ``context`` by invoking
    each application once (a throwaway RNG, so no simulation stream is
    touched)."""
    import numpy as np

    for model in context.models.values():
        for app in context.applications.values():
            model.invoke(app, np.random.default_rng(0))


def headline_ratios(rows_by_spec: Dict[str, List[Dict[str, Any]]]):
    """``[(spec, what, simulated, paper)]`` for the headline specs."""
    from repro.experiments import calibration
    from repro.experiments.common import DSCS_NAME

    def dscs(rows, key):
        return next(r[key] for r in rows if r.get("platform") == DSCS_NAME)

    extract = {
        "fig09": lambda rows: dscs(rows, "geomean"),
        "fig11": lambda rows: dscs(rows, "geomean"),
        "fig12": lambda rows: dscs(rows, "normalized"),
        "fig14": lambda rows: next(
            r["geomean_speedup"] for r in rows if r["batch"] == 1
        ),
    }
    return [
        (
            spec,
            what,
            float(extract[spec](rows_by_spec[spec])),
            float(getattr(calibration, reference)),
        )
        for spec, what, reference in HEADLINES
    ]


def model_error_pct(ratios) -> float:
    """Mean relative error of simulated against paper ratios, in %."""
    return 100.0 * sum(abs(sim - paper) / paper for _, _, sim, paper in ratios) / len(
        ratios
    )


def run_headline_specs(seed: int) -> Dict[str, List[Dict[str, Any]]]:
    """Run just the headline specs (fast profile, this seed)."""
    registry = load_registry()
    return {
        spec: registry.run(spec, profile="fast", seed=seed).rows
        for spec, _, _ in HEADLINES
    }


def trace_prefix(trace, minutes: float):
    """The first ``minutes`` of ``trace``, as a trace of its own."""
    import numpy as np
    from repro.cluster.trace import RequestTrace

    seconds = 60.0 * minutes
    count = int(np.searchsorted(trace.arrival_seconds, seconds))
    return RequestTrace(trace.arrival_seconds[:count], trace.app_names[:count], seconds)


def reference_reports(context) -> List[str]:
    """Every DSA platform's batch-1 cycle report of every accelerated
    graph against a cold compile run on the scalar interpreter."""
    from repro.compiler.executable import compile_graph_uncached
    from repro.platforms.dsa import DSAPlatform

    graphs = {}
    for app in context.applications.values():
        for function in app.accelerated_functions:
            graphs.setdefault(function.graph.name, function.graph)
    failures = []
    for name, model in context.models.items():
        platform = model.platform
        if not isinstance(platform, DSAPlatform):
            continue
        for graph in graphs.values():
            oracle = compile_graph_uncached(
                graph.with_batch(1), platform.dsa_config
            ).simulate(engine="scalar")
            if platform.execution_report(graph, 1) != oracle:
                failures.append(
                    f"{name}: {graph.name} cycle report differs from the "
                    "scalar interpreter"
                )
    return failures


def reference_dse(study) -> List[str]:
    """fig07's best feasible point against an explorer without the
    compiled-program cache."""
    from repro.dse.explorer import DSEExplorer

    best = study.best_feasible
    if DSEExplorer(cache_programs=False).evaluate(best.config) == best:
        return []
    return [f"fig07: {best.label} differs from an uncached evaluation"]


@contextlib.contextmanager
def counting_rack_requests() -> Iterator[List[int]]:
    """Count the requests every in-process rack run simulates."""
    from repro.cluster.simulation import RackSimulation

    total = [0]
    original = RackSimulation.run

    def counted(simulation, *args, **kwargs):
        series = original(simulation, *args, **kwargs)
        total[0] += int(series.total_requests)
        return series

    RackSimulation.run = counted
    try:
        yield total
    finally:
        RackSimulation.run = original


class Workload:
    """A named batch; ``out_dir`` receives the files a batch writes."""

    name = ""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)


# ----------------------------------------------------------- paper-fast
class PaperFast(Workload):
    """Every registry spec under the ``fast`` profile, written to disk."""

    name = "paper-fast"

    def setup(self, seed: int) -> None:
        self.registry = load_registry()
        self.registry.context_cache.get()

    def run(self, seed: int, tracer) -> Dict[str, Any]:
        from repro.experiments.report import write_result_csv, write_result_json

        results: Dict[str, Any] = {}
        errors: Dict[str, List[str]] = {}
        with counting_rack_requests() as requests:
            for spec in self.registry.specs():
                declares_seed = any(p.name == "seed" for p in spec.params)
                overrides = {"seed": seed} if declares_seed else {}
                with _guarded(errors, spec.name):
                    result = self.registry.run(spec.name, profile="fast", **overrides)
                    with tracer.span("experiments.report", spec=spec.name):
                        document = result.document()
                        write_result_json(document, self.out_dir / f"{spec.name}.json")
                        write_result_csv(document, self.out_dir / f"{spec.name}.csv")
                    results[spec.name] = result
        return {
            "results": results,
            "errors": errors,
            "attempted": len(self.registry.specs()),
            "requests": requests[0],
        }

    def check(self, seed: int, outputs: Dict[str, Any]) -> Outcome:
        results = outputs["results"]
        failures = dict(outputs["errors"])
        for name, result in results.items():
            found = checks.check_written_result(
                name,
                result.rows,
                self.out_dir / f"{name}.json",
                self.out_dir / f"{name}.csv",
            )
            if found:
                failures.setdefault(name, []).extend(found)
        rows = {name: result.rows for name, result in results.items()}
        outcome = Outcome(
            check_hash=checks.rows_digest(rows),
            attempted=outputs["attempted"],
            failures=failures,
            simulated_requests=outputs["requests"],
        )
        if all(spec in rows for spec, _, _ in HEADLINES):
            outcome.ratios = headline_ratios(rows)
        if "fig07" in results:
            fig07 = self.registry.get("fig07")
            outcome.info.append(
                f"fig07 {fig07.headline(results['fig07'].study)}; the paper "
                "reports Dim128-4MB-DDR5 (known fidelity gap, recorded as "
                "information, not as a failure)"
            )
        return outcome

    def reference(self, seed: int, outputs: Dict[str, Any]) -> Tuple[str, List[str]]:
        results = outputs["results"]
        rows = {name: result.rows for name, result in results.items()}
        failures = reference_reports(self.registry.context_cache.get())
        if all(spec in rows for spec, _, _ in HEADLINES):
            failures += checks.check_headlines(headline_ratios(rows))
        else:
            failures.append("a headline spec produced no result")
        if "fig07" in results:
            failures += reference_dse(results["fig07"].study)
        else:
            failures.append("fig07 produced no result")
        return (
            "DSA cycle reports vs the scalar interpreter, fig07's best point "
            "vs an uncached explorer, headline ratios within "
            f"{100 * checks.HEADLINE_TOLERANCE:.0f}% of the paper",
            failures,
        )


# ---------------------------------------------------------- rack-steady
class RackSteady(Workload):
    """The paper's 20-minute trace on Baseline and DSCS, FCFS and SJF,
    200 instances, materialized vectorized engines."""

    name = "rack-steady"
    reference_minutes = 2

    def setup(self, seed: int) -> None:
        from repro.experiments.common import BASELINE_NAME, DSCS_NAME, build_context

        load_registry()
        self.platforms = (BASELINE_NAME, DSCS_NAME)
        self.context = build_context(platform_names=list(self.platforms))
        _warm(self.context)

    def _trace(self, seed: int):
        import numpy as np
        from repro.cluster.trace import DEFAULT_RATE_ENVELOPE, TraceGenerator

        return TraceGenerator(
            self.context.app_names, rate_envelope=DEFAULT_RATE_ENVELOPE
        ).generate(np.random.default_rng(seed))

    def _configs(self):
        return [(p, policy) for p in self.platforms for policy in ("fcfs", "sjf")]

    def _simulation(self, platform: str, policy: str, seed: int):
        from repro.cluster.schedulers import PolicyFactory
        from repro.cluster.simulation import RackSimulation
        from repro.cluster.sweep import service_estimates_for

        factory = None
        if policy == "sjf":
            factory = PolicyFactory(
                "sjf",
                service_estimates=service_estimates_for(self.context, platform),
            )
        return RackSimulation(
            self.context.models[platform],
            self.context.applications,
            max_instances=RACK_INSTANCES,
            seed=seed,
            policy=factory,
        )

    def run(self, seed: int, tracer) -> Dict[str, Any]:
        trace = self._trace(seed)
        series: Dict[str, Any] = {}
        errors: Dict[str, List[str]] = {}
        for platform, policy in self._configs():
            label = f"{platform}/{policy}"
            with _guarded(errors, label):
                simulation = self._simulation(platform, policy, seed)
                series[label] = simulation.run(trace, engine="vectorized")
        return {"series": series, "errors": errors, "offered": len(trace), "attempted": 4}

    def check(self, seed: int, outputs: Dict[str, Any]) -> Outcome:
        series = outputs["series"]
        failures = dict(outputs["errors"])
        for label, one in series.items():
            found = checks.check_series(label, one, outputs["offered"])
            if found:
                failures.setdefault(label, []).extend(found)
        outcome = Outcome(
            check_hash=checks.series_digest(series),
            attempted=outputs["attempted"],
            failures=failures,
            simulated_requests=sum(int(s.total_requests) for s in series.values()),
        )
        base, dscs = self.platforms
        for policy in ("fcfs", "sjf"):
            pair = (series.get(f"{base}/{policy}"), series.get(f"{dscs}/{policy}"))
            if None not in pair:
                outcome.speedups.append(
                    (
                        f"rack {policy} DSCS-vs-CPU mean latency",
                        pair[0].mean_latency_seconds / pair[1].mean_latency_seconds,
                    )
                )
        return outcome

    def reference(self, seed: int, outputs: Dict[str, Any]) -> Tuple[str, List[str]]:
        prefix = trace_prefix(self._trace(seed), self.reference_minutes)
        failures = []
        for platform, policy in self._configs():
            fast = self._simulation(platform, policy, seed).run(
                prefix, engine="vectorized"
            )
            oracle = self._simulation(platform, policy, seed).run(prefix, engine="event")
            if not fast.identical_to(oracle):
                failures.append(
                    f"{platform}/{policy}: vectorized series differs from the "
                    "event-driven oracle"
                )
        return (
            f"the four rack configs on the trace's first {self.reference_minutes} "
            f"minutes ({len(prefix)} requests), vectorized vs event-driven oracle",
            failures,
        )


# ----------------------------------------------------------- rack-chaos
def chaos_config(seed: int):
    """The ``bench_faults.py`` schedule and retry policy, and the
    ``bench_autoscale.py`` control plane; the fault seed is the run's."""
    from repro.cluster.control import AutoscalerPolicy, ControlPlane, OverloadPolicy
    from repro.cluster.faults import FaultSchedule, RetryPolicy

    faults = FaultSchedule(
        instance_mtbf_seconds=900.0,
        instance_mttr_seconds=30.0,
        slowdown_rate_per_minute=1.0,
        slowdown_multiplier=2.0,
        slowdown_duration_seconds=5.0,
        seed=seed,
    )
    retry = RetryPolicy(timeout_seconds=5.0, max_retries=2)
    plane = ControlPlane(
        autoscaler=AutoscalerPolicy(
            policy="target_utilization",
            min_instances=20,
            warmup_seconds=2.5,
            scale_down_cooldown_seconds=30.0,
        ),
        overload=OverloadPolicy(queue_delay_target_seconds=0.5),
    )
    return faults, retry, plane


class RackChaos(Workload):
    """The same trace on Baseline, streamed, under faults and retries,
    then under faults, retries and the control plane."""

    name = "rack-chaos"
    # Long enough to reach the first burst, where retries and shedding start.
    reference_minutes = 5

    def setup(self, seed: int) -> None:
        from repro.experiments.common import BASELINE_NAME, build_context

        load_registry()
        self.platform = BASELINE_NAME
        self.context = build_context(platform_names=[BASELINE_NAME])
        _warm(self.context)

    def _generator(self):
        from repro.cluster.trace import DEFAULT_RATE_ENVELOPE, TraceGenerator

        return TraceGenerator(self.context.app_names, rate_envelope=DEFAULT_RATE_ENVELOPE)

    def _simulations(self, seed: int):
        """``[(label, factory of a fresh RackSimulation)]``."""
        from repro.cluster.simulation import RackSimulation

        faults, retry, plane = chaos_config(seed)

        def factory(control):
            return lambda: RackSimulation(
                self.context.models[self.platform],
                self.context.applications,
                max_instances=RACK_INSTANCES,
                seed=seed,
                faults=faults,
                retry=retry,
                control=control,
            )

        return [("chaos", factory(None)), ("control", factory(plane))]

    def run(self, seed: int, tracer) -> Dict[str, Any]:
        import numpy as np

        streamed: Dict[str, Any] = {}
        errors: Dict[str, List[str]] = {}
        for label, simulation in self._simulations(seed):
            with _guarded(errors, label):
                source = self._generator().stream(np.random.default_rng(seed))
                streamed[label] = simulation().run(source, engine="streaming")
        return {"streamed": streamed, "errors": errors, "attempted": 2}

    def check(self, seed: int, outputs: Dict[str, Any]) -> Outcome:
        import numpy as np

        offered = len(self._generator().generate(np.random.default_rng(seed)))
        streamed = outputs["streamed"]
        failures = dict(outputs["errors"])
        for label, one in streamed.items():
            found = checks.check_streamed(label, one, offered)
            if found:
                failures.setdefault(label, []).extend(found)
        outcome = Outcome(
            check_hash=checks.streamed_digest(streamed),
            attempted=outputs["attempted"],
            failures=failures,
            simulated_requests=sum(int(s.total_requests) for s in streamed.values()),
        )
        for label, one in streamed.items():
            outcome.info.append(
                f"{label}: availability {one.availability:.4f}, "
                f"drops {one.drop_breakdown()}"
            )
        return outcome

    def reference(self, seed: int, outputs: Dict[str, Any]) -> Tuple[str, List[str]]:
        import numpy as np
        from repro.cluster.streaming import StreamedSeries

        trace = self._generator().generate(np.random.default_rng(seed))
        prefix = trace_prefix(trace, self.reference_minutes)
        failures = []
        for label, simulation in self._simulations(seed):
            streamed = simulation().run(prefix, engine="streaming")
            oracle = StreamedSeries.from_series(simulation().run(prefix, engine="event"))
            if not streamed.identical_to(oracle):
                failures.append(
                    f"{label}: streamed series differs from the event-driven oracle"
                )
        return (
            f"chaos and control on the trace's first {self.reference_minutes} "
            f"minutes ({len(prefix)} requests), streaming vs event-driven oracle",
            failures,
        )


# ---------------------------------------------------------------- fleet
class Fleet(Workload):
    """16 Baseline racks under a round-robin balancer, fleet rate x6,
    fanned out over a process pool."""

    name = "fleet"
    reference_minutes = 1

    def setup(self, seed: int) -> None:
        from repro.experiments.common import BASELINE_NAME, build_context

        load_registry()
        self.platform = BASELINE_NAME
        self.context = build_context(platform_names=[BASELINE_NAME])
        _warm(self.context)
        self.cores = usable_cores()
        # No parallel figure for more workers than cores.
        self.workers = min(FLEET_WORKERS, self.cores)

    def _inputs(self, seed: int, racks: int = FLEET_RACKS):
        import numpy as np
        from repro.cluster.fleet import FleetTopology
        from repro.cluster.trace import DEFAULT_RATE_ENVELOPE, TraceGenerator

        envelope = tuple(rate * FLEET_RATE_SCALE for rate in DEFAULT_RATE_ENVELOPE)
        trace = TraceGenerator(self.context.app_names, rate_envelope=envelope).generate(
            np.random.default_rng(seed)
        )
        topology = FleetTopology.uniform(
            racks, self.platform, max_instances=RACK_INSTANCES, seed=seed
        )
        return trace, topology

    def _runner(self, engine: str):
        from repro.cluster.fleet import GlobalLoadBalancer
        from repro.cluster.fleet_engine import FleetRunner

        return FleetRunner(
            self.context, balancer=GlobalLoadBalancer("round_robin"), engine=engine
        )

    def run(self, seed: int, tracer) -> Dict[str, Any]:
        errors: Dict[str, List[str]] = {}
        outputs: Dict[str, Any] = {"errors": errors, "attempted": 1}
        with _guarded(errors, "fleet"):
            trace, topology = self._inputs(seed)
            result = self._runner("vectorized").run(
                topology, trace, workers=self.workers
            )
            with tracer.span("cluster.fleet_merge"):
                outputs["p99_s"] = result.sketch_percentile(99.0)
                outputs["summary"] = result.summary_row()
            outputs.update(result=result, trace=trace, topology=topology)
        return outputs

    def check(self, seed: int, outputs: Dict[str, Any]) -> Outcome:
        from repro.cluster.fleet import GlobalLoadBalancer

        failures = dict(outputs["errors"])
        result = outputs.get("result")
        outcome = Outcome(
            check_hash=result.fleet_hash if result is not None else "none",
            attempted=outputs["attempted"],
            failures=failures,
        )
        outcome.info.append(
            f"fleet workers {self.workers} on {self.cores} usable cores"
            + ("" if self.workers == FLEET_WORKERS else
               f" (asked for {FLEET_WORKERS}; capped at the core count)")
        )
        if result is None:
            return outcome
        sizes = GlobalLoadBalancer("round_robin").shard_sizes(
            outputs["trace"], outputs["topology"]
        )
        found = checks.check_fleet(result, len(outputs["trace"]), sizes)
        if found:
            failures.setdefault("fleet", []).extend(found)
        outcome.simulated_requests = int(result.total_requests)
        outcome.info.append(
            f"fleet p99 {outputs['p99_s']:.6f}s (sketch), "
            f"availability {result.availability:.4f}"
        )
        return outcome

    def reference(self, seed: int, outputs: Dict[str, Any]) -> Tuple[str, List[str]]:
        trace, topology = self._inputs(seed, racks=REFERENCE_RACKS)
        prefix = trace_prefix(trace, self.reference_minutes)
        pooled = self._runner("vectorized").run(topology, prefix, workers=self.workers)
        oracle = self._runner("event").run(topology, prefix, workers=1)
        failures = []
        if not pooled.identical_to(oracle):
            failures.append(
                f"fleet: {self.workers}-worker vectorized run differs from the "
                "serial event-driven oracle"
            )
        return (
            f"{REFERENCE_RACKS} racks on the trace's first {self.reference_minutes} "
            f"minute ({len(prefix)} requests), {self.workers}-worker vectorized "
            "vs serial event-driven oracle",
            failures,
        )


WORKLOADS = {cls.name: cls for cls in (PaperFast, RackSteady, RackChaos, Fleet)}
NAMES = tuple(WORKLOADS)
