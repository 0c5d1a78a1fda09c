"""Shared machinery for the per-figure experiment harnesses."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.fabric import StorageFabric
from repro.core.model import ServerlessExecutionModel
from repro.experiments.benchmarks import benchmark_suite
from repro.platforms.base import ComputePlatform
from repro.platforms.registry import PLATFORM_BUILDERS
from repro.serverless.application import Application
from repro.sim.stats import geometric_mean

BASELINE_NAME = "Baseline (CPU)"
DSCS_NAME = "DSCS-Serverless"

# Monte-Carlo sample count for fast (test/bench) runs; the paper uses
# 10,000 requests per measurement.
FAST_SAMPLE_COUNT = 2000


@dataclass
class SuiteContext:
    """Pre-built suite + execution models for a set of platforms."""

    applications: Dict[str, Application]
    models: Dict[str, ServerlessExecutionModel]

    @property
    def app_names(self) -> List[str]:
        return list(self.applications)

    @property
    def platform_names(self) -> List[str]:
        return list(self.models)

    def with_fabric(self, fabric: StorageFabric) -> "SuiteContext":
        """This context with every model's storage fabric swapped.

        Applications and platform objects (hence compiled programs) are
        shared with the original context — only the data-path model
        changes, which is what fabric sweeps like Fig. 15 vary.
        """
        return SuiteContext(
            applications=self.applications,
            models={
                name: model.with_fabric(fabric)
                for name, model in self.models.items()
            },
        )


def fabric_fingerprint(fabric: StorageFabric) -> str:
    """A value-based cache key for a fabric configuration.

    Every component of :class:`~repro.core.fabric.StorageFabric` is a
    dataclass whose repr lists its field values, so two independently
    constructed but identical fabrics fingerprint identically.
    """
    return repr(fabric)


def build_context(
    platform_names: Optional[Sequence[str]] = None,
    fabric: Optional[StorageFabric] = None,
) -> SuiteContext:
    """Build the benchmark suite plus execution models for the platforms.

    DSA-backed platforms take their cycle reports from the process-wide
    :func:`~repro.compiler.executable.shared_program_cache`, so repeated
    context builds (one per figure harness) reuse compilation and
    simulation: the graph fingerprint is content-based, and freshly
    rebuilt suites hash to the same programs and reports.
    """
    fabric = fabric or StorageFabric()
    names = list(platform_names) if platform_names else list(PLATFORM_BUILDERS)
    models = {}
    for name in names:
        platform: ComputePlatform = PLATFORM_BUILDERS[name]()
        models[name] = ServerlessExecutionModel(platform=platform, fabric=fabric)
    return SuiteContext(applications=benchmark_suite(), models=models)


def p95_latency_table(
    context: SuiteContext,
    count: int = FAST_SAMPLE_COUNT,
    percentile: float = 95.0,
    batch: int = 1,
    seed: int = 7,
) -> Dict[str, Dict[str, float]]:
    """``{platform: {benchmark: p95 latency}}`` via Monte-Carlo sampling."""
    table: Dict[str, Dict[str, float]] = {}
    for platform_name, model in context.models.items():
        rng = np.random.default_rng(seed)
        row = {}
        for app_name, app in context.applications.items():
            samples = model.sample_latencies(app, rng, count, batch=batch)
            row[app_name] = float(np.percentile(samples, percentile))
        table[platform_name] = row
    return table


def speedups_vs_baseline(
    latency_table: Dict[str, Dict[str, float]],
    baseline: str = BASELINE_NAME,
) -> Dict[str, Dict[str, float]]:
    """Normalise a latency table to the baseline platform (Fig. 9 form)."""
    base = latency_table[baseline]
    return {
        platform: {app: base[app] / row[app] for app in row}
        for platform, row in latency_table.items()
    }


def geomean_speedup(per_benchmark: Dict[str, float]) -> float:
    """Suite-level speedup aggregate."""
    return geometric_mean(list(per_benchmark.values()))
