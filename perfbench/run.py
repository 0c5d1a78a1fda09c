#!/usr/bin/env python3
"""End-to-end benchmark of the DSCS-Serverless reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-fast --seed 1 --seconds 10 --trace 0

Workloads (each a fixed batch of generated work, see ``workloads.py``):

- ``paper-fast``: every registry spec under the ``fast`` profile, each
  result written as JSON and CSV: compile, cycle simulation and DSE;
- ``rack-steady``: the 20-minute bursty trace on Baseline and DSCS, FCFS
  and SJF, 200 instances, materialized vectorized engines;
- ``rack-chaos``: the same trace on Baseline, streamed, under faults and
  retries, then with the control plane as well;
- ``fleet``: 16 racks, round robin, fleet rate x6, over a process pool.

Each batch runs in a fresh process (``worker.py``), so program caches
start empty.  With ``--trace 0`` batches repeat until the timed work is
within half a batch of ``--seconds`` (at least one batch, and at least
two when one batch is shorter than ``--seconds``), set-up is
sampled in at least ``SETUP_SAMPLES`` fresh processes, and the
end-to-end metrics are medians:

- ``wall_s``: host seconds of the timed phase;
- ``setup_s``: import, registry load and suite-context build;
- ``sim_req_per_s``: requests simulated by rack engines per host second;
- ``peak_mem_mb``: peak resident memory of the batch process plus the
  peak private memory (pages shared with no other process) of each of
  its pool workers;
- ``model_err_pct``: mean relative error of the fast-profile headline
  ratios (fig09, fig11, fig12, fig14) against the paper's numbers.

With ``--trace 1`` one untraced and one traced batch run; the traced one
wraps the program's layer functions in spans (``spans.py``), writes them
to ``.perfbench/spans/``, and reports the per-layer metrics plus the
tracing overhead (traced minus untraced ``wall_s``).

The first batch of every run also compares the program against its
reference engines on a small input (``Workload.reference``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run is correct when every
operation ran and passed its checks, the reference comparison agreed,
and every batch of the run produced the same check hash, which is
printed on the line before.  Failed operations are reported in
``failed`` (``failed / attempted`` is the failed fraction).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

STATE = ROOT / ".perfbench"
SETUP_SAMPLES = 5
# A run must end within 180 s: no batch starts that would end past this.
RUN_BUDGET_S = 150.0
POLL_S = 0.05


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a program failure)."""


def _children(pid: int) -> List[int]:
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return found


def _private_mb(pid: int) -> "float | None":
    """Resident memory of ``pid`` that it shares with no other process:
    for a forked pool worker, what it adds to its parent's footprint."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            kib = sum(
                int(line.split()[1])
                for line in handle
                if line.startswith(("Private_Clean:", "Private_Dirty:"))
            )
    except (OSError, ValueError):
        return None
    return kib / 1024.0


def _exe(pid: int) -> "str | None":
    try:
        return os.readlink(f"/proc/{pid}/exe")
    except OSError:
        return None


def spawn(args: List[str], log: Path, deadline: float) -> Tuple[float, int]:
    """Run ``worker.py`` with ``args``; return the peak over polls of the
    summed private MB of its live pool workers, and how many it had.

    Pool workers are the descendants running the batch's Python that
    were already alive at the previous poll.  That leaves out other
    children, such as the ``git describe`` behind result provenance: in
    the instant between its ``vfork`` and ``exec`` it still runs Python
    and shares the batch's pages, which would count them twice.
    """
    peak = 0.0
    workers = set()
    previous = set()
    with log.open("w") as handle:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            stdout=handle,
            stderr=subprocess.STDOUT,
            # Its own process group, so a kill also reaches pool workers.
            start_new_session=True,
        )
        python = _exe(proc.pid)
        try:
            while proc.poll() is None:
                if time.monotonic() > deadline:
                    raise BenchError("batch overran the run's time budget")
                live = 0.0
                current = set()
                stack = _children(proc.pid)
                while stack:
                    pid = stack.pop()
                    stack.extend(_children(pid))
                    current.add(pid)
                    if pid not in previous or _exe(pid) != python:
                        continue
                    private = _private_mb(pid)
                    if private is not None:
                        workers.add(pid)
                        live += private
                peak = max(peak, live)
                previous = current
                time.sleep(POLL_S)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        tail = log.read_text()[-4000:]
        raise BenchError(f"worker exited with {proc.returncode}:\n{tail}")
    return peak, len(workers)


class Runner:
    def __init__(self, workload: str, seed: int, trace: int) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch = STATE / "scratch" / f"{workload}-seed{seed}-trace{trace}"
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.scratch.mkdir(parents=True)
        self.started = time.monotonic()
        self.deadline = self.started + RUN_BUDGET_S + 25.0
        self.count = 0
        self.setup_samples: List[float] = []

    def child(self, mode: str, trace: int = 0, verify: int = 0) -> Dict[str, Any]:
        self.count += 1
        work = self.scratch / f"{self.count:03d}-{mode}"
        work.mkdir()
        out = work / "record.json"
        args = [
            "--workload", self.workload, "--seed", str(self.seed),
            "--mode", mode, "--trace", str(trace), "--verify", str(verify),
            "--out", str(out), "--scratch", str(work),
        ]
        if trace:
            args += ["--spans", str(self.spans_path())]
        worker_peak_mb, pool_workers = spawn(args, work / "worker.log", self.deadline)
        record = json.loads(out.read_text())
        record.update(worker_peak_mb=worker_peak_mb, pool_workers=pool_workers)
        if mode == "batch":
            # Written result documents are checked; keep no copies.
            shutil.rmtree(work / "results", ignore_errors=True)
        return record

    def spans_path(self) -> Path:
        return STATE / "spans" / f"{self.workload}-seed{self.seed}.json"

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def verdict(batches: List[Dict[str, Any]]):
    """(correct, attempted, failed, notes) over a run's batches."""
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(len(b["failures"]) for b in batches)
    notes = []
    for index, batch in enumerate(batches):
        for op, messages in batch["failures"].items():
            notes.append(f"batch {index}: {op}: {messages[-1].strip()[-400:]}")
    hashes = {b["check_hash"] for b in batches}
    if len(hashes) != 1:
        notes.append(f"check hashes differ between batches: {sorted(hashes)}")
    return failed == 0 and len(hashes) == 1, attempted, failed, notes


def run_untraced(runner: Runner, seconds: float):
    batches = [runner.child("batch", verify=1)]
    # Stop where one more batch would overshoot --seconds by more than
    # half a batch, so a long batch is not run twice to cover a remainder;
    # but a batch shorter than --seconds always gets a second one, so no
    # such run rests on a single sample of the host's speed.
    while (len(batches) == 1 and batches[0]["wall_s"] < seconds) or (
        sum(b["wall_s"] for b in batches)
        + _median([b["wall_s"] for b in batches]) / 2
        < seconds
    ):
        longest = max(b["setup_s"] + b["wall_s"] for b in batches)
        if runner.elapsed() + 1.5 * longest > RUN_BUDGET_S:
            break
        batches.append(runner.child("batch"))
    setups = runner.setup_samples = [b["setup_s"] for b in batches]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.child("setup")["setup_s"])
    metrics = {
        "wall_s": (_median([b["wall_s"] for b in batches]), "s"),
        "setup_s": (_median(setups), "s"),
        "sim_req_per_s": (
            _median([b["simulated_requests"] / b["wall_s"] for b in batches]),
            "1/s",
        ),
        "peak_mem_mb": (
            _median([b["peak_rss_mb"] + b["worker_peak_mb"] for b in batches]),
            "MB",
        ),
        "model_err_pct": (batches[0]["model_err_pct"], "%"),
    }
    return batches, metrics


def run_traced(runner: Runner, declared: List[Tuple[str, str]]):
    untraced = runner.child("batch", verify=1)
    traced = runner.child("batch", trace=1)
    layers = traced["per_layer"]
    layers["bench.trace_overhead_s"] = {
        "value": traced["wall_s"] - untraced["wall_s"],
        "unit": "s",
    }
    # Exactly the declared metrics; one the spans never produced (a spec
    # no longer registered) reads 0.
    metrics = {
        name: (layers.get(name, {}).get("value", 0.0), unit)
        for name, unit in declared
    }
    return [untraced, traced], metrics


def declared_per_layer() -> List[Tuple[str, str]]:
    """(name, unit) of the per-layer metrics BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(entry["name"], entry["unit"]) for entry in spec["per_layer"]]


def main(argv=None) -> int:
    needed = [ROOT / "src" / "repro" / "__init__.py", ROOT / "scripts" / "bench_common.py"]
    missing = [str(path.relative_to(ROOT)) for path in needed if not path.is_file()]
    if missing:
        print(f"error: program source missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    from workloads import NAMES, usable_cores

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runner = Runner(args.workload, args.seed, args.trace)
    try:
        if args.trace:
            batches, metrics = run_traced(runner, declared_per_layer())
        else:
            batches, metrics = run_untraced(runner, args.seconds)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    correct, attempted, failed, notes = verdict(batches)

    cores = usable_cores()
    first = batches[0]
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(batches)} batches, {cores} usable cores, "
        f"pool workers {max(b['pool_workers'] for b in batches)}"
    )
    print(f"check hash {first['check_hash']}")
    for line in first["info"]:
        print(f"  {line}")
    if "model_err_pct" in first:
        beside = f"| model_err_pct {first['model_err_pct']:.3f}"
        for spec, what, simulated, paper in first["ratios"]:
            print(
                f"  {spec} {what}: simulated {simulated:.3f}, paper {paper}, "
                f"error {100 * abs(simulated - paper) / paper:.2f}% {beside}"
            )
        for what, speedup in first["speedups"]:
            print(f"  simulated speedup, {what}: {speedup:.3f} {beside}")
    for note in notes:
        print(f"  FAILED {note}")
    print(f"  failed_frac {failed / attempted:.4f} ({failed} of {attempted} operations)")
    if args.trace:
        print(f"  spans written to {runner.spans_path().relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cores": cores,
        "batches": batches,
        "setup_samples": runner.setup_samples,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    shutil.rmtree(runner.scratch, ignore_errors=True)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
