"""Streaming FCFS and keyed runs must hold constant peak memory.

The ``scripts/bench_streaming.py --fast`` workload (Baseline, rate x0.02,
20 instances, seed 13, ``chunk_requests=8192``) read from a
generator-backed :class:`~repro.cluster.trace.StreamedTrace`, with the
sample interval tiled with the trace so the tick grid stays the same
size.  Doubling the trace (x10 -> x20 tiles of the rate envelope) must
leave the ``tracemalloc`` peak of the run within 1.25x: a sink or pool
that kept whole-trace records would grow with it.
"""

import tracemalloc

import numpy as np
import pytest

from repro.cluster.schedulers import PolicyFactory
from repro.cluster.simulation import RackSimulation
from repro.cluster.sweep import service_estimates_for
from repro.cluster.trace import DEFAULT_RATE_ENVELOPE, TraceGenerator
from repro.experiments.common import BASELINE_NAME, build_context

RATE_SCALE = 0.02
MAX_INSTANCES = 20
SEED = 13
CHUNK_REQUESTS = 8192
TILES = (10, 20)
MAX_GROWTH = 1.25


@pytest.fixture(scope="module")
def context():
    return build_context(platform_names=[BASELINE_NAME])


def streamed_peak(context, policy, tiles):
    """Peak traced bytes of one streamed run over ``tiles`` envelopes."""
    generator = TraceGenerator(
        context.app_names,
        rate_envelope=tuple(r * RATE_SCALE for r in DEFAULT_RATE_ENVELOPE)
        * tiles,
    )
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        simulation = RackSimulation(
            context.models[BASELINE_NAME],
            context.applications,
            max_instances=MAX_INSTANCES,
            seed=SEED,
            policy=policy,
        )
        series = simulation.run(
            generator.stream(np.random.default_rng(SEED)),
            1.0 * tiles,
            engine="streaming",
            chunk_requests=CHUNK_REQUESTS,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert series.completed_count + series.dropped_requests == (
        series.total_requests
    )
    return peak


@pytest.mark.parametrize("policy", ["fcfs", "sjf"])
def test_streaming_peak_memory_is_flat(context, policy):
    factory = None
    if policy == "sjf":
        factory = PolicyFactory(
            "sjf",
            service_estimates=service_estimates_for(context, BASELINE_NAME),
        )
    # Warm-up: lazy engine imports and first-use caches are not part of
    # the working set under test.
    streamed_peak(context, factory, 1)
    small, large = (streamed_peak(context, factory, t) for t in TILES)
    assert large <= MAX_GROWTH * small, (small, large)
