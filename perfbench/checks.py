"""Output checks: check hashes, conservation invariants and the paper's
headline ratios.

Each check returns a list of failure messages (empty when the output
passes), so a caller can count failed operations instead of stopping at
the first.  The hashes identify *what* a run computed: every batch of
one run (each a fresh process on the same seed) must produce the same
hash, and a speed-only change to the program must leave it unchanged.
Comparisons against reference engines live with the workloads.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

# The check-hash projections shared with the ``BENCH_*.json`` scripts.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from bench_common import digest, series_digest  # noqa: E402,F401


# ------------------------------------------------------------ paper-fast
def rows_digest(rows_by_spec: Dict[str, List[Dict[str, Any]]]) -> str:
    """Hash over every spec's result rows, in spec order.

    Rows only: provenance (git describe, host wall time) is left out, so
    the hash repeats exactly across runs of the same seed.
    """
    return digest(
        *(name + _canonical(rows) for name, rows in rows_by_spec.items())
    )


def check_written_result(
    name: str, rows: List[Dict[str, Any]], json_path: Path, csv_path: Path
) -> List[str]:
    """The JSON and CSV documents written for ``name`` read back to
    exactly the in-memory rows."""
    from repro.experiments.report import read_json, read_result_csv

    failures = []
    if not rows:
        failures.append(f"{name}: empty result table")
    expected = _canonical(rows)
    if _canonical(list(read_json(json_path))) != expected:
        failures.append(f"{name}: JSON document rows differ from the result")
    if _canonical(read_result_csv(csv_path)["rows"]) != expected:
        failures.append(f"{name}: CSV document rows differ from the result")
    return failures


def _canonical(rows: List[Dict[str, Any]]) -> str:
    """Rows as canonical JSON: exact, type-preserving, and equal to
    itself where a value is NaN (which ``==`` on rows is not)."""
    return json.dumps(rows, sort_keys=True)


# -------------------------------------------------------------- rack runs
def streamed_digest(streamed_by_name: Dict[str, Any]) -> str:
    """The streaming engine's constant-memory projection
    (:func:`repro.cluster.fleet_engine.streamed_check_hash`) per run."""
    from repro.cluster.fleet_engine import streamed_check_hash

    return digest(
        *(
            (name, streamed_check_hash(streamed_by_name[name]))
            for name in sorted(streamed_by_name)
        )
    )


def check_conservation(
    name: str, completed: int, dropped: int, total: int, offered: int
) -> List[str]:
    """Every offered request is either completed or dropped, once."""
    failures = []
    if total != offered:
        failures.append(f"{name}: engine saw {total} requests, {offered} offered")
    if completed + dropped != offered:
        failures.append(
            f"{name}: completed {completed} + dropped {dropped} != "
            f"offered {offered}"
        )
    return failures


def check_series(name: str, series, offered: int) -> List[str]:
    """Conservation for a materialized series."""
    return check_conservation(
        name,
        int(series.completed_latency_seconds.size),
        int(series.dropped_requests),
        int(series.total_requests),
        offered,
    )


def check_streamed(name: str, streamed, offered: int) -> List[str]:
    """Conservation for a streamed series."""
    return check_conservation(
        name,
        int(streamed.completed_count),
        int(streamed.dropped_requests),
        int(streamed.total_requests),
        offered,
    )


# ------------------------------------------------------------------ fleet
def check_fleet(result, offered: int, shard_sizes: Sequence[int]) -> List[str]:
    """Shards partition the trace, and every rack conserves its shard."""
    failures = []
    if int(sum(shard_sizes)) != offered:
        failures.append(
            f"fleet: shard sizes sum to {int(sum(shard_sizes))}, "
            f"trace has {offered}"
        )
    if len(result.racks) != len(shard_sizes):
        failures.append(
            f"fleet: {len(result.racks)} rack results for "
            f"{len(shard_sizes)} shards"
        )
    merged = result.merged_sketch.count
    if merged != result.completed:
        failures.append(
            f"fleet: merged sketch holds {merged} latencies, racks "
            f"completed {result.completed}"
        )
    for rack, size in zip(result.racks, shard_sizes):
        failures.extend(
            check_conservation(
                f"fleet rack {rack.name}",
                int(rack.completed),
                int(rack.dropped),
                int(rack.requests),
                int(size),
            )
        )
    return failures


# ------------------------------------------------------------- reference
#: Largest relative error of a fast-profile headline ratio against the
#: paper's number before the model counts as broken.  At this commit the
#: worst ratio (fig11 energy, about 3.0 against 3.5) is 13-15% off.
HEADLINE_TOLERANCE = 0.25


def check_headlines(ratios) -> List[str]:
    """Each ``(spec, what, simulated, paper)`` within the tolerance."""
    failures = []
    for spec, what, simulated, paper in ratios:
        error = abs(simulated - paper) / paper
        if not error <= HEADLINE_TOLERANCE:  # NaN fails too
            failures.append(
                f"{spec} {what}: simulated {simulated:.4g} is {100 * error:.1f}% "
                f"from the paper's {paper}"
            )
    return failures
