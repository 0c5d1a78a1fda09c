"""Design-space enumeration and exploration (paper §4.2)."""

import json
from pathlib import Path

import pytest

from repro.accelerator.config import DSAConfig
from repro.accelerator.simulator import CycleSimulator
from repro.cluster.fleet_engine import digest
from repro.compiler.executable import ProgramCache, shared_program_cache
from repro.dse.explorer import DSEExplorer
from repro.dse.space import design_space, paper_search_space_size
from repro.errors import ConfigurationError
from repro.models.zoo import logistic_regression, mlp
from repro.units import MB


def tiny_explorer():
    """Explorer with tiny models so sweeps stay fast in tests."""
    return DSEExplorer(
        eval_models=[
            mlp(rows=64, features=64, hidden=(128,), classes=16),
            logistic_regression(rows=256, features=32),
        ]
    )


class TestSpace:
    def test_full_space_exceeds_paper_size(self):
        assert paper_search_space_size() > 650

    def test_square_subset_smaller(self):
        assert len(design_space(square_only=True)) < paper_search_space_size()

    def test_dims_within_paper_range(self):
        for config in design_space(square_only=True):
            assert 4 <= config.pe_rows <= 1024
            assert 4 <= config.pe_cols <= 1024

    def test_buffers_capped_at_32mb(self):
        for config in design_space():
            assert config.buffer_bytes <= 32 * MB

    def test_three_memory_technologies_present(self):
        memories = {c.memory.name for c in design_space(square_only=True)}
        assert memories == {"DDR4", "DDR5", "HBM2"}

    def test_aspect_ratio_bounded(self):
        for config in design_space():
            aspect = max(config.pe_rows, config.pe_cols) / min(
                config.pe_rows, config.pe_cols
            )
            assert aspect <= 8

    def test_no_duplicate_labels(self):
        labels = [c.label for c in design_space()]
        assert len(labels) == len(set(labels))

    def test_paper_point_in_space(self):
        labels = {c.label for c in design_space(square_only=True)}
        assert "Dim128-4MB-DDR5" in labels


class TestExplorer:
    def test_evaluate_caches(self):
        explorer = tiny_explorer()
        config = DSAConfig()
        assert explorer.evaluate(config) is explorer.evaluate(config)

    def test_throughput_positive(self):
        result = tiny_explorer().evaluate(DSAConfig())
        assert result.throughput_fps > 0
        assert result.dynamic_power_watts >= 0
        assert result.area_mm2 > 0

    def test_sweep_returns_all(self):
        explorer = tiny_explorer()
        configs = [DSAConfig(pe_rows=d, pe_cols=d) for d in (8, 32, 128)]
        results = explorer.sweep(configs)
        assert len(results) == 3

    def test_sweep_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            tiny_explorer().sweep([])

    def test_pareto_fronts_subset_of_results(self):
        explorer = tiny_explorer()
        configs = [DSAConfig(pe_rows=d, pe_cols=d) for d in (8, 16, 64, 256)]
        results = explorer.sweep(configs)
        power_front = explorer.power_pareto(results)
        area_front = explorer.area_pareto(results)
        labels = {r.label for r in results}
        assert {r.label for r in power_front} <= labels
        assert {r.label for r in area_front} <= labels

    def test_huge_array_infeasible_under_budget(self):
        explorer = tiny_explorer()
        huge = explorer.evaluate(
            DSAConfig(pe_rows=1024, pe_cols=1024, buffer_bytes=32 * MB)
        )
        assert not huge.feasible

    def test_paper_point_feasible(self):
        result = tiny_explorer().evaluate(DSAConfig())
        assert result.feasible

    def test_best_feasible_respects_budget(self):
        explorer = tiny_explorer()
        configs = [
            DSAConfig(pe_rows=d, pe_cols=d, buffer_bytes=4 * MB)
            for d in (32, 128, 512)
        ]
        results = explorer.sweep(configs)
        best = explorer.best_feasible(results)
        assert best.feasible

    def test_power_grows_with_array(self):
        explorer = tiny_explorer()
        small = explorer.evaluate(DSAConfig(pe_rows=16, pe_cols=16))
        large = explorer.evaluate(DSAConfig(pe_rows=256, pe_cols=256))
        assert large.total_power_watts > small.total_power_watts


class TestParallelSweep:
    def test_parallel_matches_serial(self):
        configs = [DSAConfig(pe_rows=d, pe_cols=d) for d in (8, 16, 32, 64)]
        serial = tiny_explorer().sweep(configs)
        # Forked workers would inherit the serial sweep's cycle reports.
        shared_program_cache().clear()
        parallel = tiny_explorer().sweep(configs, workers=2)
        assert [r.label for r in parallel] == [r.label for r in serial]
        for a, b in zip(serial, parallel):
            assert a == b

    def test_parallel_preserves_input_order(self):
        configs = [DSAConfig(pe_rows=d, pe_cols=d) for d in (64, 8, 32)]
        results = tiny_explorer().sweep(configs, workers=2)
        assert [r.config.pe_rows for r in results] == [64, 8, 32]

    def test_parallel_fills_local_cache(self):
        explorer = tiny_explorer()
        configs = [DSAConfig(pe_rows=d, pe_cols=d) for d in (8, 16)]
        results = explorer.sweep(configs, workers=2)
        # A repeat sweep must reuse the folded-back results.
        assert explorer.sweep(configs) == results

    def test_worker_count_invariant(self):
        """Results are a pure function of configs — not of the pool size."""
        configs = [DSAConfig(pe_rows=d, pe_cols=d) for d in (8, 16, 32, 64)]
        one = tiny_explorer().sweep(configs, workers=1)
        shared_program_cache().clear()
        four = tiny_explorer().sweep(configs, workers=4)
        assert one == four

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_explorer().sweep([DSAConfig()], workers=0)

    def test_scalar_engine_oracle_agrees(self):
        config = DSAConfig(pe_rows=32, pe_cols=32)
        fast = DSEExplorer(
            eval_models=tiny_explorer().eval_models, engine="packed"
        ).evaluate(config)
        oracle = DSEExplorer(
            eval_models=tiny_explorer().eval_models, engine="scalar"
        ).evaluate(config)
        assert fast == oracle

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            DSEExplorer(engine="quantum")


class TestReportMemo:
    """Explorers share the process-wide cycle-report memo."""

    CONFIGS = [DSAConfig(pe_rows=d, pe_cols=d) for d in (8, 16)]

    def test_second_explorer_simulates_nothing(self, monkeypatch):
        calls = []
        original = CycleSimulator.run_packed

        def counting(simulator, program):
            calls.append(simulator)
            return original(simulator, program)

        monkeypatch.setattr(CycleSimulator, "run_packed", counting)
        first = tiny_explorer().sweep(self.CONFIGS)
        assert len(calls) == len(self.CONFIGS) * 2
        calls.clear()
        assert tiny_explorer().sweep(self.CONFIGS) == first
        assert calls == []

    @pytest.mark.parametrize(
        "options",
        [{"cache_programs": False}, {"engine": "scalar"}],
        ids=["uncached", "scalar"],
    )
    def test_oracle_paths_bypass_memo(self, monkeypatch, options):
        lookups = []
        original = ProgramCache.report

        def spying(cache, graph, config):
            lookups.append(config)
            return original(cache, graph, config)

        monkeypatch.setattr(ProgramCache, "report", spying)
        programs = len(shared_program_cache())
        explorer = DSEExplorer(eval_models=tiny_explorer().eval_models, **options)
        explorer.sweep(self.CONFIGS)
        assert lookups == []
        assert len(shared_program_cache()) == programs


def test_square_sweep_reproduces_bench_sweep_hash():
    """The fig07 square-array sweep, simulated cold, must reproduce the
    recorded ``BENCH_sweep.json`` check hash."""
    bench_path = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"
    recorded = json.loads(bench_path.read_text())
    configs = design_space(square_only=True)
    assert len(configs) == recorded["workload"]["num_configs"] == 111
    shared_program_cache().clear()
    results = DSEExplorer().sweep(configs)
    assert digest(results) == recorded["check_hash"]
