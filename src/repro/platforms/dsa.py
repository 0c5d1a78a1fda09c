"""DSA-backed platforms: the ASIC DSCS accelerator and FPGA variants.

Both the in-storage ASIC and the two FPGA implementations (Alveo U280 in a
compute node, SmartSSD near-storage) run the *same* architecture, so all
three are modeled by compiling the graph with the appropriate
:class:`~repro.accelerator.config.DSAConfig` and cycle-simulating it —
exactly the paper's methodology (§6.1: the simulator is validated against
the SmartSSD FPGA implementation within 10%).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.accelerator.config import DSAConfig
from repro.accelerator.power import PowerModel
from repro.accelerator.simulator import ExecutionReport
from repro.compiler.executable import shared_program_cache
from repro.errors import ConfigurationError
from repro.models.graph import Graph
from repro.platforms.base import ComputePlatform, PlatformKind
from repro.storage.pcie import PCIeLink


@dataclass
class DSAPlatform(ComputePlatform):
    """A platform whose compute is the cycle-simulated DSA."""

    name: str = "dscs_dsa"
    kind: PlatformKind = PlatformKind.DSCS
    dsa_config: DSAConfig = field(default_factory=DSAConfig)
    driver_overhead_seconds: float = 1.5e-3
    device_link: Optional[PCIeLink] = None
    # For FPGA implementations the board's measured power dominates; when
    # ``fixed_power_watts`` is None the ASIC power model is used instead.
    fixed_power_watts: Optional[float] = None
    idle_power_watts: float = 2.0
    capex_usd: float = 1000.0
    # FPGA fabrics clock the same RTL lower and add routing inefficiency.
    compute_derate: float = 1.0

    def __post_init__(self) -> None:
        if self.compute_derate < 1.0:
            raise ConfigurationError(
                f"{self.name}: derate must be >= 1, got {self.compute_derate}"
            )
        self._cache: Dict[Tuple[str, int], ExecutionReport] = {}
        self._power_model = PowerModel(self.dsa_config)

    def _report(self, graph: Graph, batch: int) -> ExecutionReport:
        key = (graph.name, batch)
        if key not in self._cache:
            # The shared cycle-report memo: platform instances with an equal
            # config (and repeated context builds) lower and simulate each
            # graph once per process.
            self._cache[key] = shared_program_cache().report(
                graph.with_batch(batch), self.dsa_config
            )
        return self._cache[key]

    def compute_latency_seconds(self, graph: Graph, batch: int = 1) -> float:
        if batch <= 0:
            raise ConfigurationError(f"batch must be positive, got {batch}")
        return self._report(graph, batch).latency_s * self.compute_derate

    def compute_energy_joules(self, graph: Graph, batch: int = 1) -> float:
        report = self._report(graph, batch)
        if self.fixed_power_watts is not None:
            return self.fixed_power_watts * report.latency_s * self.compute_derate
        return report.energy_j

    @property
    def active_power_watts(self) -> float:  # type: ignore[override]
        """Representative active power (fixed for FPGAs, modeled for ASIC)."""
        if self.fixed_power_watts is not None:
            return self.fixed_power_watts
        # Leakage + a nominal dynamic figure at ~20% utilisation.
        leak = self._power_model.leakage_watts()
        cfg = self.dsa_config
        from repro.accelerator.scaling import scale_power

        dynamic_45 = cfg.num_pes * 3.0e-12 * cfg.frequency_hz * 0.2
        return leak + scale_power(dynamic_45, cfg.tech_node_nm)

    def execution_report(self, graph: Graph, batch: int = 1) -> ExecutionReport:
        """Expose the underlying cycle-simulation report."""
        return self._report(graph, batch)
