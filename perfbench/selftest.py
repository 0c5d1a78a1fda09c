#!/usr/bin/env python3
"""Show that the benchmark's output checks can fail.

Runs small real outputs through the same checks ``run.py`` applies, then
perturbs one row or one series value and asserts the perturbed output is
reported as failed, not passed.  A perturbation in only one batch is
caught by the batch-to-batch hash comparison; one applied to every batch
(a wrong engine, a wrong cycle count, a model far from the paper) is
caught by the reference comparison of each workload.  Exits 0 when every
perturbation is caught.  Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import sys
import types
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from run import verdict  # noqa: E402


def batch(check_hash: str, failures=None) -> dict:
    return {"attempted": 1, "failures": failures or {}, "check_hash": check_hash}


def paper_cases(out: Path):
    from repro.experiments.registry import load_all
    from repro.experiments.report import write_result_csv, write_result_json

    result = load_all().run("fig13", profile="fast", seed=1)
    document = result.document()
    json_path = write_result_json(document, out / "fig13.json")
    csv_path = write_result_csv(document, out / "fig13.csv")
    rows = result.rows
    perturbed = copy.deepcopy(rows)
    perturbed[0]["mean_latency_s"] *= 1.0 + 1e-9

    yield "written rows read back", not checks.check_written_result(
        "fig13", rows, json_path, csv_path
    )
    yield "perturbed row differs from the written documents", bool(
        checks.check_written_result("fig13", perturbed, json_path, csv_path)
    )
    good = checks.rows_digest({"fig13": rows})
    bad = checks.rows_digest({"fig13": perturbed})
    yield "same rows, same hash: run is correct", verdict(
        [batch(good), batch(good)]
    )[0]
    yield "perturbed row in one batch: run is not correct", not verdict(
        [batch(good), batch(bad)]
    )[0]


def rack_cases():
    import numpy as np
    from repro.cluster.simulation import RackSimulation
    from repro.cluster.trace import DEFAULT_RATE_ENVELOPE, TraceGenerator
    from repro.experiments.common import BASELINE_NAME, build_context

    context = build_context(platform_names=[BASELINE_NAME])
    envelope = tuple(rate * 0.05 for rate in DEFAULT_RATE_ENVELOPE)
    trace = TraceGenerator(context.app_names, rate_envelope=envelope).generate(
        np.random.default_rng(1)
    )

    def run():
        simulation = RackSimulation(
            context.models[BASELINE_NAME],
            context.applications,
            max_instances=20,
            seed=1,
        )
        return simulation.run(trace, engine="vectorized")

    first, second = run(), run()
    yield "rack series conserves requests", not checks.check_series(
        "rack", first, len(trace)
    )
    yield "two runs hash the same", checks.series_digest(
        {"rack": first}
    ) == checks.series_digest({"rack": second})

    perturbed = copy.copy(second)
    latencies = second.completed_latency_seconds.copy()
    latencies[len(latencies) // 2] += 1e-9
    perturbed.completed_latency_seconds = latencies
    yield "perturbed latency changes the hash: run is not correct", not verdict(
        [
            batch(checks.series_digest({"rack": first})),
            batch(checks.series_digest({"rack": perturbed})),
        ]
    )[0]

    lost = copy.copy(second)
    lost.completed_latency_seconds = second.completed_latency_seconds[:-1]
    failures = checks.check_series("rack", lost, len(trace))
    yield "a lost request fails conservation", bool(failures)
    yield "a failed check counts as a failed operation", verdict(
        [batch("h", {"rack": failures})]
    )[2] == 1


@contextlib.contextmanager
def patched(cls, attr: str, wrapper):
    """``cls.attr`` replaced by ``wrapper(original)`` inside the block
    (forked pool workers inherit it)."""
    original = getattr(cls, attr)
    setattr(cls, attr, wrapper(original))
    try:
        yield
    finally:
        setattr(cls, attr, original)


def wrong_fast_engines(original):
    """``RackSimulation.run`` whose vectorized and streaming engines
    report one queue-depth sample off by one; the oracle stays right."""

    def run(simulation, trace, *args, **kwargs):
        result = original(simulation, trace, *args, **kwargs)
        if kwargs.get("engine") == "event":
            return result
        result = copy.copy(result)
        result.queue_depth = result.queue_depth.copy()
        result.queue_depth[-1] += 1
        return result

    return run


def wrong_cycles(original):
    """``CycleSimulator.run_packed`` one cycle off."""

    def run_packed(simulator, program):
        report = original(simulator, program)
        return dataclasses.replace(report, cycles=report.cycles + 1)

    return run_packed


def reference_cases():
    from repro.accelerator.config import DSAConfig
    from repro.accelerator.simulator import CycleSimulator
    from repro.cluster.simulation import RackSimulation
    from repro.dse.explorer import DSEExplorer
    from repro.experiments.common import DSCS_NAME, build_context

    paper = [(spec, what, 3.5, 3.5) for spec, what, _ in workloads.HEADLINES]
    far = [(spec, what, sim * 1.5, ref) for spec, what, sim, ref in paper]
    yield "headline ratios at the paper's values pass", not checks.check_headlines(paper)
    yield "headline ratios 50% off fail", bool(checks.check_headlines(far))

    yield "cycle reports agree with the scalar interpreter", not (
        workloads.reference_reports(build_context(platform_names=[DSCS_NAME]))
    )
    with patched(CycleSimulator, "run_packed", wrong_cycles):
        context = build_context(platform_names=[DSCS_NAME])
        yield "a packed engine one cycle off fails the reference", bool(
            workloads.reference_reports(context)
        )

    best = DSEExplorer().evaluate(DSAConfig())
    study = types.SimpleNamespace(best_feasible=best)
    yield "a DSE point agrees with an uncached evaluation", not (
        workloads.reference_dse(study)
    )
    study.best_feasible = dataclasses.replace(
        best, throughput_fps=best.throughput_fps * (1.0 + 1e-9)
    )
    yield "a perturbed DSE point fails the reference", bool(
        workloads.reference_dse(study)
    )

    for cls in (workloads.RackSteady, workloads.RackChaos, workloads.Fleet):
        workload = cls(HERE.parent / ".perfbench")
        workload.setup(1)
        workload.reference_minutes = 1
        _, found = workload.reference(1, None)
        yield f"{cls.name}: fast engines agree with the oracle", not found
        with patched(RackSimulation, "run", wrong_fast_engines):
            _, found = workload.reference(1, None)
        yield f"{cls.name}: a wrong fast engine fails the reference", bool(found)


def main() -> int:
    caught = True
    state = HERE.parent / ".perfbench"
    state.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=state) as out:
        cases = [*paper_cases(Path(out)), *rack_cases(), *reference_cases()]
        for name, ok in cases:
            print(f"{'ok  ' if ok else 'FAIL'} {name}")
            caught = caught and ok
    print("every perturbation was reported as failed" if caught else "SELFTEST FAILED")
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())
