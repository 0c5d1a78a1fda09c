"""The vectorized keyed-policy engine must be bit-identical to the oracle.

The keyed twin of ``tests/test_rack_equivalence.py``: for every policy
driven by a :class:`~repro.cluster.policy_keys.PolicyKey` (SJF,
criticality, DAG-aware — and FCFS, which the keyed engine also models as
a zero-width key), the index-priority engine in
:mod:`repro.cluster.policy_engine` must reproduce the event-driven
reference exactly — sample times, queue depth, busy instances,
completion times, latencies, drops, RNG end state, and service-pool
state — across seeds, platforms, and congestion/drop regimes.
"""

import numpy as np
import pytest

from repro.cluster import policy_engine
from repro.cluster.policy_engine import run_keyed_chunked
from repro.cluster.schedulers import PolicyFactory
from repro.cluster.simulation import RackSimulation
from repro.cluster.trace import RequestTrace, TraceGenerator
from repro.core.model import ServerlessExecutionModel
from repro.experiments.benchmarks import benchmark_suite
from repro.platforms.registry import baseline_cpu, dscs_dsa

SEEDS = (1, 2, 3)

PLATFORM_BUILDERS = {
    "baseline": baseline_cpu,
    "dscs": dscs_dsa,
}

POLICIES = ("fcfs", "sjf", "criticality", "dag")


@pytest.fixture(scope="module")
def suite():
    return benchmark_suite()


@pytest.fixture(scope="module")
def models():
    return {
        name: ServerlessExecutionModel(platform=builder())
        for name, builder in PLATFORM_BUILDERS.items()
    }


@pytest.fixture(scope="module")
def estimates(suite, models):
    return {
        name: float(
            np.mean(
                models["baseline"].sample_latencies(
                    app, np.random.default_rng(0), 64
                )
            )
        )
        for name, app in suite.items()
    }


def make_factory(policy, suite, estimates):
    if policy == "fcfs":
        return PolicyFactory("fcfs")
    if policy == "sjf":
        return PolicyFactory("sjf", service_estimates=estimates)
    if policy == "criticality":
        priorities = {name: rank % 3 for rank, name in enumerate(sorted(suite))}
        return PolicyFactory("criticality", priorities=priorities)
    return PolicyFactory("dag", applications=suite)


def make_trace(suite, scale, seed):
    generator = TraceGenerator(
        list(suite),
        rate_envelope=tuple(rate * scale for rate in (250, 800, 250)),
        segment_seconds=20.0,
    )
    return generator.generate(np.random.default_rng(seed))


def run_both(model, suite, factory, trace, **kwargs):
    """One fresh simulation per engine; returns (sim, series) pairs."""
    runs = {}
    for engine in ("event", "vectorized"):
        sim = RackSimulation(model, suite, policy=factory, **kwargs)
        runs[engine] = (sim, sim.run(trace, engine=engine))
    return runs


def assert_bit_identical(runs):
    event_sim, event_series = runs["event"]
    fast_sim, fast_series = runs["vectorized"]
    assert event_series.identical_to(fast_series)
    # Identity must extend to simulator state: the same RNG stream was
    # consumed in the same order, leaving the same pools behind.
    assert repr(event_sim._rng.bit_generator.state) == repr(
        fast_sim._rng.bit_generator.state
    )
    assert event_sim._service_cursor == fast_sim._service_cursor
    assert set(event_sim._service_samples) == set(fast_sim._service_samples)
    for name, pool in event_sim._service_samples.items():
        assert np.array_equal(pool, fast_sim._service_samples[name])


@pytest.mark.parametrize("platform", sorted(PLATFORM_BUILDERS))
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_engines_identical_under_congestion(
    suite, models, estimates, platform, policy, seed
):
    """A 4-instance fleet under a bursty trace: queues build and drain."""
    trace = make_trace(suite, 0.05, seed)
    factory = make_factory(policy, suite, estimates)
    runs = run_both(
        models[platform], suite, factory, trace, max_instances=4, seed=seed
    )
    assert_bit_identical(runs)
    assert runs["event"][1].total_requests == len(trace)
    # The congestion was real: some requests actually queued.
    assert int(runs["event"][1].queue_depth.max()) > 0


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_engines_identical_under_drops(suite, models, estimates, policy, seed):
    """Full-queue admission control: same drops, bit for bit."""
    trace = make_trace(suite, 0.05, seed)
    factory = make_factory(policy, suite, estimates)
    runs = run_both(
        models["baseline"],
        suite,
        factory,
        trace,
        max_instances=1,
        queue_depth=5,
        seed=seed,
    )
    assert_bit_identical(runs)
    assert runs["event"][1].dropped_requests > 0


@pytest.mark.parametrize("policy", ("sjf", "dag"))
def test_engines_identical_with_headroom(suite, models, estimates, policy):
    """A fleet that never saturates exercises the contention-free pass."""
    trace = make_trace(suite, 0.02, 1)
    factory = make_factory(policy, suite, estimates)
    runs = run_both(
        models["dscs"], suite, factory, trace, max_instances=50, seed=1
    )
    assert_bit_identical(runs)
    assert runs["event"][1].dropped_requests == 0
    assert int(runs["event"][1].queue_depth.max()) == 0


def test_engines_identical_on_empty_trace(suite, models, estimates):
    trace = RequestTrace(
        arrival_seconds=np.array([]), app_names=(), duration_seconds=60.0
    )
    factory = make_factory("sjf", suite, estimates)
    runs = run_both(
        models["dscs"], suite, factory, trace, max_instances=4, seed=1
    )
    assert_bit_identical(runs)
    assert len(runs["vectorized"][1].sample_times) == 60


def test_engines_identical_across_repeated_runs(suite, models, estimates):
    """Pools persist across run() calls; both engines must agree then too."""
    factory = make_factory("sjf", suite, estimates)
    first = make_trace(suite, 0.02, 1)
    second = make_trace(suite, 0.02, 2)
    event_sim = RackSimulation(
        models["baseline"], suite, max_instances=4, seed=9, policy=factory
    )
    fast_sim = RackSimulation(
        models["baseline"], suite, max_instances=4, seed=9, policy=factory
    )
    for trace in (first, second):
        event_series = event_sim.run(trace, engine="event")
        fast_series = fast_sim.run(trace, engine="vectorized")
        assert event_series.identical_to(fast_series)
    assert repr(event_sim._rng.bit_generator.state) == repr(
        fast_sim._rng.bit_generator.state
    )


def test_vectorized_keyed_policy_uses_keyed_engine(
    suite, models, estimates, monkeypatch
):
    """Non-FCFS + sorted trace must actually route to the keyed kernel,
    with a SeriesSink under engine="auto" and a StreamedSink under
    engine="streaming"."""
    from repro.cluster.streaming import SeriesSink, StreamedSink

    calls = []

    def spying_run_keyed_chunked(sim, policy, trace, interval, sink):
        calls.append((policy.key.name, type(sink)))
        return run_keyed_chunked(sim, policy, trace, interval, sink)

    monkeypatch.setattr(
        policy_engine, "run_keyed_chunked", spying_run_keyed_chunked
    )
    trace = make_trace(suite, 0.02, 3)
    factory = make_factory("sjf", suite, estimates)
    for engine in ("auto", "streaming"):
        sim = RackSimulation(
            models["baseline"], suite, max_instances=2, seed=3, policy=factory
        )
        sim.run(trace, engine=engine)
    assert calls == [("sjf", SeriesSink), ("sjf", StreamedSink)]


def test_unsorted_trace_still_falls_back_to_event(suite, models, estimates):
    """The keyed engine assumes time-ordered arrivals; others fall back."""
    base = make_trace(suite, 0.02, 1)
    shuffled = RequestTrace(
        arrival_seconds=base.arrival_seconds[::-1].copy(),
        app_names=tuple(reversed(base.app_names)),
        duration_seconds=base.duration_seconds,
    )
    factory = make_factory("sjf", suite, estimates)
    sim = RackSimulation(
        models["baseline"], suite, max_instances=4, seed=1, policy=factory
    )
    assert not sim._keyed_vectorizable(factory.build(), shuffled)
    fast = RackSimulation(
        models["baseline"], suite, max_instances=4, seed=1, policy=factory
    ).run(shuffled, engine="vectorized")
    event = RackSimulation(
        models["baseline"], suite, max_instances=4, seed=1, policy=factory
    ).run(shuffled, engine="event")
    assert fast.identical_to(event)


def test_unknown_app_coverage_matches_across_engines(suite, models):
    """SJF unknown-app accounting is engine-independent."""
    partial = dict(list(suite.items())[:2])
    estimates = {
        name: float(
            np.mean(
                models["baseline"].sample_latencies(
                    app, np.random.default_rng(0), 64
                )
            )
        )
        for name, app in partial.items()
    }
    factory = PolicyFactory("sjf", service_estimates=estimates)
    trace = make_trace(suite, 0.05, 2)
    unknowns = {}
    for engine in ("event", "vectorized"):
        sim = RackSimulation(
            models["baseline"],
            suite,
            max_instances=2,
            seed=2,
            policy=factory,
        )
        sim.run(trace, engine=engine)
        unknowns[engine] = sim.last_policy.unknown_apps
    assert unknowns["event"] == unknowns["vectorized"]
    # Every admitted app outside the estimate set was observed.
    assert set(unknowns["event"]) == set(suite) - set(partial)

    # Coverage accounting must work even when the fleet never congests
    # (every request starts immediately, nothing ever queues).
    for engine in ("event", "vectorized"):
        sim = RackSimulation(
            models["dscs"],
            suite,
            max_instances=500,
            seed=2,
            policy=factory,
        )
        series = sim.run(trace, engine=engine)
        assert int(series.queue_depth.max()) == 0
        assert set(sim.last_policy.unknown_apps) == set(suite) - set(partial)


def test_fcfs_subclass_with_coverage_hook_routes_to_keyed_engine(
    suite, models
):
    """The FCFS fast path has no observe_app calls, so a subclass
    carrying a coverage hook must take the keyed engine instead — same
    results, hook honoured on both engines."""
    from repro.cluster.schedulers import FCFSPolicy

    class ObservingFCFS(FCFSPolicy):
        def __init__(self):
            super().__init__()
            self.seen = set()

        def observe_app(self, app_name):
            self.seen.add(app_name)

    class Factory:
        def build(self):
            return ObservingFCFS()

    trace = make_trace(suite, 0.02, 1)
    sim = RackSimulation(
        models["baseline"], suite, max_instances=4, seed=1, policy=Factory()
    )
    assert not sim._vectorizable(ObservingFCFS(), trace)
    assert sim._keyed_vectorizable(ObservingFCFS(), trace)
    series = sim.run(trace, engine="vectorized")
    event_sim = RackSimulation(
        models["baseline"], suite, max_instances=4, seed=1, policy=Factory()
    )
    assert series.identical_to(event_sim.run(trace, engine="event"))
    assert sim.last_policy.seen == event_sim.last_policy.seen == set(suite)


def test_pre_hook_external_policy_still_runs(suite, models):
    """Policies written against the old push/pop/len protocol (no
    observe_app) must still run on the event path."""

    class OldProtocolFCFS:
        def __init__(self):
            self._queue = []

        def push(self, request):
            self._queue.append(request)

        def pop(self):
            return self._queue.pop(0)

        def __len__(self):
            return len(self._queue)

    class Factory:
        def build(self):
            return OldProtocolFCFS()

    trace = make_trace(suite, 0.02, 1)
    sim = RackSimulation(
        models["baseline"], suite, max_instances=4, seed=1, policy=Factory()
    )
    series = sim.run(trace)  # not a KeyedPolicy: auto falls back to event
    reference = RackSimulation(
        models["baseline"], suite, max_instances=4, seed=1
    ).run(trace, engine="event")
    assert series.identical_to(reference)


def test_keyed_run_on_unknown_application_raises(suite, models, estimates):
    """Both engines fail identically on an app outside the suite."""
    from repro.errors import SchedulingError

    trace = RequestTrace(
        arrival_seconds=np.array([0.0, 0.1]),
        app_names=(next(iter(suite)), "not-a-real-app"),
        duration_seconds=1.0,
    )
    factory = make_factory("sjf", suite, estimates)
    for engine in ("event", "vectorized"):
        sim = RackSimulation(
            models["baseline"], suite, max_instances=4, seed=1, policy=factory
        )
        with pytest.raises(SchedulingError):
            sim.run(trace, engine=engine)


def test_keyed_grid_reproduces_bench_policy_hash():
    """The ``BENCH_policy.json`` study — sjf / criticality / dag on both
    platforms, fig13 rate x0.5, 100 instances, seed 13 — must reproduce
    its recorded check hash on the vectorized keyed kernel (the grid and
    digest of ``scripts/bench_policy.py``)."""
    import json
    from pathlib import Path

    from repro.cluster.fleet_engine import digest
    from repro.cluster.sweep import (
        default_criticality_priorities,
        service_estimates_for,
    )
    from repro.cluster.trace import DEFAULT_RATE_ENVELOPE
    from repro.experiments.common import (
        BASELINE_NAME,
        DSCS_NAME,
        build_context,
    )

    bench_path = Path(__file__).resolve().parent.parent / "BENCH_policy.json"
    recorded = json.loads(bench_path.read_text())
    workload = recorded["workload"]
    context = build_context(platform_names=[BASELINE_NAME, DSCS_NAME])
    envelope = tuple(
        rate * workload["rate_scale"] for rate in DEFAULT_RATE_ENVELOPE
    )
    trace = TraceGenerator(context.app_names, rate_envelope=envelope).generate(
        np.random.default_rng(13)
    )
    assert len(trace) == workload["num_requests"]
    estimates = {
        platform: service_estimates_for(context, platform)
        for platform in (BASELINE_NAME, DSCS_NAME)
    }
    factories = {
        "sjf": lambda platform: PolicyFactory(
            "sjf", service_estimates=estimates[platform]
        ),
        "criticality": lambda platform: PolicyFactory(
            "criticality", priorities=default_criticality_priorities(context)
        ),
        "dag": lambda platform: PolicyFactory(
            "dag", applications=context.applications
        ),
    }
    parts = []
    for platform, policy in sorted(
        (platform, policy)
        for platform in (BASELINE_NAME, DSCS_NAME)
        for policy in workload["policies"]
    ):
        series = RackSimulation(
            context.models[platform],
            context.applications,
            max_instances=workload["max_instances"],
            seed=13,
            policy=factories[policy](platform),
        ).run(trace, engine="vectorized")
        parts.extend(
            [
                platform,
                policy,
                series.completed_latency_seconds.tobytes(),
                series.completed_times.tobytes(),
                series.queue_depth.tobytes(),
                series.busy_instances.tobytes(),
                series.dropped_requests,
                series.total_requests,
            ]
        )
    assert digest(*parts) == recorded["check_hash"]
