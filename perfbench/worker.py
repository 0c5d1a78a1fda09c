"""One fresh benchmark process: set up, run one batch, check it.

Started by ``run.py``; not meant to be run by hand.  Every batch runs in
a new process so the compiled-program cache and the suite-context cache
start empty, as they do for a user.  The result is written as JSON to
``--out``.

Modes:

- ``setup``: only the set-up phase, to sample ``setup_s``;
- ``batch``: set-up, the timed phase and the output checks; with
  ``--verify 1`` also the comparison against the reference engines and
  the model error against the paper; with ``--trace 1`` the layer
  functions are wrapped in spans, which are written to ``--spans`` and
  summarized into per-layer metrics.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

RACK_FAMILIES = ("fcfs", "sjf", "chaos", "control")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(all_spans, cache_stats) -> dict:
    """Per-layer metrics from the spans of one traced batch."""
    table = spans.summarize(all_spans)

    def stat(name, key="total_s"):
        return float(table.get(name, {}).get(key, 0.0))

    def attrs(name):
        return [s["attrs"] for s in all_spans if s["name"] == name]

    metrics = {
        "dse.evaluate_calls": (stat("dse.evaluate", "calls"), "count"),
        "dse.evaluate_unique": (
            float(len({a["config"] for a in attrs("dse.evaluate")})),
            "count",
        ),
        "dse.evaluate_s": (stat("dse.evaluate"), "s"),
        "dse.evaluate_self_s": (stat("dse.evaluate", "self_s"), "s"),
        "accelerator.run_packed_calls": (
            stat("accelerator.run_packed", "calls"),
            "count",
        ),
        "accelerator.run_packed_s": (stat("accelerator.run_packed"), "s"),
        "accelerator.run_packed_self_s": (
            stat("accelerator.run_packed", "self_s"),
            "s",
        ),
        "accelerator.interleave_s": (stat("accelerator.interleave"), "s"),
    }
    packed = attrs("accelerator.run_packed")
    instructions = sum(a["instructions"] for a in packed)
    run_packed_s = stat("accelerator.run_packed")
    metrics["accelerator.sim_instr_per_s"] = (
        instructions / run_packed_s if run_packed_s else 0.0,
        "1/s",
    )
    metrics["accelerator.sim_cycles"] = (
        float(sum(a["cycles"] for a in packed)),
        "count",
    )
    for layer in ("lower_packed", "generate"):
        metrics[f"compiler.{layer}_calls"] = (
            stat(f"compiler.{layer}", "calls"),
            "count",
        )
        metrics[f"compiler.{layer}_s"] = (stat(f"compiler.{layer}"), "s")
    hits, misses = cache_stats
    metrics["compiler.cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0,
        "ratio",
    )
    metrics["core.invoke_s"] = (stat("core.invoke"), "s")
    metrics["core.sample_latencies_s"] = (stat("core.sample_latencies"), "s")

    spec_s = {}
    for span in all_spans:
        if span["name"] == "experiments.spec":
            name = span["attrs"]["spec"]
            spec_s[name] = spec_s.get(name, 0.0) + span["end"] - span["start"]
    for name in workloads.load_registry().names():
        metrics[f"experiments.spec_s.{name}"] = (spec_s.get(name, 0.0), "s")
    metrics["experiments.report_s"] = (stat("experiments.report"), "s")

    metrics["cluster.trace_gen_s"] = (stat("cluster.trace_gen"), "s")
    racks = [s for s in all_spans if s["name"] == "cluster.rack_run"]
    # A streamed rack run generates its trace while it runs; that time
    # belongs to cluster.trace_gen_s, not to the rack engine.
    generating = spans.nested_time(all_spans, "cluster.rack_run", "cluster.trace_gen")
    for family in RACK_FAMILIES:
        mine = [s for s in racks if s["attrs"]["family"] == family]
        seconds = sum(
            s["end"] - s["start"] - generating.get((s["pid"], s["id"]), 0.0)
            for s in mine
        )
        requests = sum(s["attrs"].get("requests", 0) for s in mine)
        dropped = sum(s["attrs"].get("dropped", 0) for s in mine)
        metrics[f"cluster.rack_run_s.{family}"] = (seconds, "s")
        metrics[f"cluster.rack_req_per_s.{family}"] = (
            requests / seconds if seconds else 0.0,
            "1/s",
        )
        metrics[f"cluster.rack_peak_mem_mb.{family}"] = (
            max((s["attrs"].get("peak_rss_mb", 0.0) for s in mine), default=0.0),
            "MB",
        )
        metrics[f"cluster.rack_drop_frac.{family}"] = (
            dropped / requests if requests else 0.0,
            "ratio",
        )
    metrics["cluster.fleet_shard_s"] = (stat("cluster.fleet_shard"), "s")
    metrics["cluster.fleet_run_s"] = (stat("cluster.fleet_run"), "s")
    metrics["cluster.fleet_run_self_s"] = (stat("cluster.fleet_run", "self_s"), "s")
    metrics["cluster.fleet_merge_s"] = (stat("cluster.fleet_merge"), "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "batch"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--verify", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.scratch / "results")
    tracer = spans.NULL_TRACER
    if args.trace:
        workloads.load_registry()
        tracer = spans.Tracer(args.scratch / "worker-spans")
        spans.install(tracer)
    with tracer.span("bench.setup"):
        workload.setup(args.seed)
    setup_s = time.perf_counter() - _START
    record = {"setup_s": setup_s}
    if args.mode == "batch":
        start = time.perf_counter()
        with tracer.span("bench.run", workload=args.workload):
            outputs = workload.run(args.seed, tracer)
        record["wall_s"] = time.perf_counter() - start
        record["peak_rss_mb"] = _peak_rss_mb()
        if args.trace:
            tracer.stop()
        try:
            outcome = workload.check(args.seed, outputs)
        except Exception:  # noqa: BLE001 - a check that raises fails the batch
            outcome = workloads.Outcome(
                check_hash="none",
                attempted=outputs["attempted"],
                failures={"check": [traceback.format_exc()]},
            )
        record.update(
            check_hash=outcome.check_hash,
            attempted=outcome.attempted,
            failures=outcome.failures,
            simulated_requests=outcome.simulated_requests,
            info=outcome.info,
            speedups=outcome.speedups,
        )
        if args.verify:
            record["attempted"] += 1
            try:
                compared, found = workload.reference(args.seed, outputs)
                record["info"].append(f"reference: {compared}")
            except Exception:  # noqa: BLE001 - counts as a failed operation
                found = [traceback.format_exc()]
            if found:
                record["failures"]["reference"] = found
            try:
                ratios = outcome.ratios or workloads.headline_ratios(
                    workloads.run_headline_specs(args.seed)
                )
            except Exception:  # noqa: BLE001 - counts as a failed operation
                record["failures"]["fidelity"] = [traceback.format_exc()]
                ratios = []
            record["ratios"] = ratios
            # No ratio to compare is reported as 100% error.
            record["model_err_pct"] = (
                workloads.model_error_pct(ratios) if ratios else 100.0
            )
        if args.trace:
            all_spans = tracer.all_spans()
            record["per_layer"] = per_layer(
                all_spans, (tracer.cache_hits, tracer.cache_misses)
            )
            record["layers"] = spans.summarize(all_spans)
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            args.spans.write_text(json.dumps({"spans": all_spans}) + "\n")
    args.out.write_text(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
