"""Executable packaging: compiled program + design point + metadata.

Mirrors the paper's deployment flow: the compiler produces configuration-
specific executable code that is "packaged along with the serverless
function in the container".  A :class:`DSAExecutable` is that package; its
:meth:`simulate` runs the cycle simulator, memoised because serverless
platforms execute the same function image many times.

Three sweep-scale optimisations live here:

- executables carry a columnar :class:`~repro.accelerator.packed
  .PackedProgram` and simulate through the vectorized engine by default
  (``engine="scalar"`` forces the reference interpreter, which is kept as
  the oracle and is bit-identical);
- a process-wide :class:`ProgramCache` keyed by ``(graph fingerprint,
  tiling-relevant config fields)`` lets design points that share tiling —
  e.g. the three memory technologies at one array/buffer geometry — reuse
  both compilation and packing;
- the same cache's cycle-report memo (:meth:`ProgramCache.report`) keyed
  by ``(graph fingerprint, full config)`` simulates each design point once
  per process, however many figures, explorers and platform instances
  ask for it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.accelerator.config import DSAConfig
from repro.accelerator.isa import Program
from repro.accelerator.packed import PackedProgram, pack_program
from repro.accelerator.simulator import CycleSimulator, ExecutionReport
from repro.compiler.codegen import generate
from repro.compiler.packed_codegen import lower_packed
from repro.errors import ConfigurationError
from repro.models.graph import Graph


def tiling_key(config: DSAConfig) -> Tuple[int, int, int]:
    """The config fields the compiler's output actually depends on.

    Tiling and code emission read only the array geometry and scratchpad
    capacity; memory technology, clock, and tech node affect timing and
    energy but not the instruction stream.
    """
    return (config.pe_rows, config.pe_cols, config.buffer_bytes)


class ProgramCache:
    """LRU cache of compiled/packed programs across a sweep.

    Keyed by ``(graph.fingerprint(), tiling_key(config))`` so every config
    sharing a tiling reuses one compilation + packing.  Entries are
    ``[Program | None, PackedProgram]``: :meth:`get_packed` fills only the
    columnar form (via the direct numpy lowering, which skips Python
    instruction objects entirely); :meth:`get` upgrades an entry with the
    full :class:`Program` on demand.  Bounded by entry count *and* total
    packed rows so million-instruction small-dim programs cannot grow
    memory without limit.

    :meth:`report` memoizes the packed-engine :class:`ExecutionReport`
    per ``(graph.fingerprint(), config)`` — the whole config, since memory
    technology and clock change timing but not the program.  Reports live
    in their own dict beside the LRU entries: they are small, and evicting
    a program must not force its design points to be re-simulated.
    """

    def __init__(self, maxsize: int = 256, max_rows: int = 16_000_000) -> None:
        if maxsize <= 0:
            raise ConfigurationError(f"non-positive cache size: {maxsize}")
        if max_rows <= 0:
            raise ConfigurationError(f"non-positive row budget: {max_rows}")
        self._maxsize = maxsize
        self._max_rows = max_rows
        self._entries: "OrderedDict[tuple, list]" = OrderedDict()
        self._rows = 0
        self._reports: Dict[tuple, ExecutionReport] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._reports.clear()
            self._rows = 0
            self.hits = 0
            self.misses = 0

    @staticmethod
    def _entry_rows(entry: list) -> int:
        """Budget weight: Program objects cost far more per instruction
        than packed columns, so full entries count double."""
        return len(entry[1]) * (2 if entry[0] is not None else 1)

    def _store(self, key: tuple, entry: list) -> None:
        """Insert/refresh ``entry`` and evict LRU past either bound."""
        previous = self._entries.get(key)
        if previous is not None:
            self._rows -= self._entry_rows(previous)
        self._rows += self._entry_rows(entry)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > 1 and (
            len(self._entries) > self._maxsize or self._rows > self._max_rows
        ):
            _, evicted = self._entries.popitem(last=False)
            self._rows -= self._entry_rows(evicted)

    def get_packed(self, graph: Graph, config: DSAConfig) -> PackedProgram:
        """Return just the columnar program (fast path, numpy lowering)."""
        key = (graph.fingerprint(), tiling_key(config))
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry[1]
        packed = lower_packed(graph, config)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                # A concurrent get() filled this key while we lowered;
                # keep its (possibly Program-carrying) entry.
                self._entries.move_to_end(key)
                self.hits += 1
                return entry[1]
            self.misses += 1
            self._store(key, [None, packed])
        return packed

    def report(self, graph: Graph, config: DSAConfig) -> ExecutionReport:
        """The packed-engine cycle report of ``graph`` on ``config``,
        simulated once per process.

        The key also holds the engine function itself, so a report is
        only ever served to the engine that produced it: a wrapped or
        substituted ``run_packed`` (a profiler, a deliberately wrong
        engine in a check's self-test) simulates afresh instead of
        reading reports it never computed.
        """
        engine = CycleSimulator.run_packed
        key = (graph.fingerprint(), config, engine)
        with self._lock:
            report = self._reports.get(key)
        if report is None:
            packed = self.get_packed(graph, config)
            report = engine(CycleSimulator(config), packed)
            with self._lock:
                report = self._reports.setdefault(key, report)
        return report

    def get(
        self, graph: Graph, config: DSAConfig
    ) -> Tuple[Program, PackedProgram]:
        """Return the compiled + packed program, compiling on a miss."""
        key = (graph.fingerprint(), tiling_key(config))
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry[0], entry[1]
        program = generate(graph, config)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                # Packed-only entry: upgrade it.  The numpy lowering and
                # pack_program(generate(...)) are column-identical (tested),
                # so the existing packed form is reused as-is.  A fresh
                # list keeps _store's row accounting exact.
                self.hits += 1
                upgraded = [program, entry[1]]
                self._store(key, upgraded)
                return program, upgraded[1]
            self.misses += 1
            packed = pack_program(program)
            self._store(key, [program, packed])
        return program, packed


_SHARED_CACHE = ProgramCache()


def shared_program_cache() -> ProgramCache:
    """The process-wide compiled-program cache."""
    return _SHARED_CACHE


@dataclass
class DSAExecutable:
    """A model graph compiled for a specific DSA design point."""

    graph: Graph
    config: DSAConfig
    program: Program
    packed: Optional[PackedProgram] = field(default=None, repr=False)
    _report: Optional[ExecutionReport] = field(default=None, repr=False)

    @property
    def model_name(self) -> str:
        return self.graph.name

    @property
    def weight_bytes(self) -> int:
        """Parameter footprint shipped in the function container image."""
        return self.graph.stats().weight_bytes

    def packed_program(self) -> PackedProgram:
        """The columnar form of :attr:`program`, packed once on demand."""
        if self.packed is None:
            self.packed = pack_program(self.program)
        return self.packed

    def simulate(
        self, force: bool = False, engine: str = "packed"
    ) -> ExecutionReport:
        """Run (or reuse) the cycle simulation of this executable.

        ``engine`` selects the vectorized ``"packed"`` path (default) or
        the ``"scalar"`` reference interpreter; both produce bit-identical
        reports, so the memoised report is shared.
        """
        if engine not in ("packed", "scalar"):
            raise ConfigurationError(f"unknown simulation engine {engine!r}")
        if self._report is None or force:
            simulator = CycleSimulator(self.config)
            if engine == "packed":
                self._report = simulator.run_packed(self.packed_program())
            else:
                self._report = simulator.run(self.program)
        return self._report

    @property
    def latency_s(self) -> float:
        """Device compute latency (cycle-simulated)."""
        return self.simulate().latency_s

    @property
    def energy_j(self) -> float:
        """Device energy for one execution (cycle-simulated)."""
        return self.simulate().energy_j


def compile_graph(
    graph: Graph,
    config: DSAConfig,
    verify: bool = False,
    cache: Optional[ProgramCache] = None,
) -> DSAExecutable:
    """Compile ``graph`` for ``config`` and return the executable package.

    Compilation goes through ``cache`` (the process-wide shared cache by
    default), so repeated compiles of one graph across configs that share
    tiling are free.  Use :func:`compile_graph_uncached` when measuring
    cold-compile cost.

    With ``verify=True`` the (possibly cached) program is checked by the
    independent verifier (:mod:`repro.compiler.verify`) before packaging.
    """
    if cache is None:  # explicit: an empty ProgramCache is falsy via __len__
        cache = _SHARED_CACHE
    program, packed = cache.get(graph, config)
    if verify:
        from repro.compiler.verify import verify_program

        verify_program(graph, program, config).require_ok()
    return DSAExecutable(graph=graph, config=config, program=program, packed=packed)


def compile_graph_uncached(
    graph: Graph, config: DSAConfig, verify: bool = False
) -> DSAExecutable:
    """Cold compile, bypassing the program cache (benchmarks, oracle runs)."""
    program = generate(graph, config)
    if verify:
        from repro.compiler.verify import verify_program

        verify_program(graph, program, config).require_ok()
    return DSAExecutable(graph=graph, config=config, program=program)
