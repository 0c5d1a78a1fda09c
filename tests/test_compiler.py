"""Compiler stack: fusion, tiling, codegen, executables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerator.config import DSAConfig, paper_design_point
from repro.accelerator.isa import GemmTile, LoadTile, StoreTile, Sync, VectorOp
from repro.compiler import compile_graph, fuse, plan_gemm
from repro.compiler.codegen import generate
from repro.errors import CompilationError
from repro.models.builder import GraphBuilder
from repro.models.tensor import DType, TensorSpec
from repro.models.zoo import image_preprocess, resnet50
from repro.units import MB


def simple_graph():
    builder = GraphBuilder("simple", TensorSpec("x", (64, 128), DType.INT8))
    builder.linear(256).relu().linear(64).softmax()
    return builder.build()


class TestFusion:
    def test_vector_ops_fuse_after_matrix(self):
        groups = fuse(simple_graph())
        assert len(groups) == 2
        assert groups[0].matrix_op is not None
        assert [op.name for op in groups[0].vector_ops] != []

    def test_vector_only_graph_forms_one_group(self):
        groups = fuse(image_preprocess(224))
        assert all(g.is_vector_only for g in groups)

    def test_group_io_shapes(self):
        groups = fuse(simple_graph())
        assert groups[0].input.shape == (64, 128)
        assert groups[-1].output.shape == (64, 64)

    def test_resnet_fuses_bn_relu_into_convs(self):
        groups = fuse(resnet50())
        matrix_groups = [g for g in groups if not g.is_vector_only]
        # Every conv should carry at least its BN (and usually ReLU).
        fused_counts = [len(g.vector_ops) for g in matrix_groups]
        assert sum(fused_counts) > len(matrix_groups)

    def test_empty_group_rejected(self):
        from repro.compiler.frontend import FusionGroup

        with pytest.raises(CompilationError):
            FusionGroup(matrix_op=None, vector_ops=[])


class TestTiling:
    def test_tiles_clipped_to_array(self):
        plan = plan_gemm(1000, 1000, 1000, 1, paper_design_point())
        assert plan.tile_k <= 128
        assert plan.tile_n <= 128

    def test_tiles_cover_all_dims(self):
        plan = plan_gemm(300, 200, 150, 1, paper_design_point())
        assert plan.m_tiles * plan.tile_m >= 300
        assert plan.n_tiles * plan.tile_n >= 200
        assert plan.k_tiles * plan.tile_k >= 150

    def test_small_gemm_single_tile(self):
        plan = plan_gemm(8, 8, 8, 1, paper_design_point())
        assert plan.num_weight_tiles == 1
        assert plan.m_tiles == 1

    def test_double_buffering_feasible_on_paper_point(self):
        plan = plan_gemm(196, 256, 2304, 1, paper_design_point())
        assert plan.double_buffered

    def test_tiny_buffer_defeats_double_buffering(self):
        config = DSAConfig(pe_rows=1024, pe_cols=1024, buffer_bytes=256 * 1024)
        plan = plan_gemm(2048, 2048, 2048, 4, config)
        assert not plan.double_buffered

    def test_activation_residency(self):
        config = paper_design_point()
        small = plan_gemm(64, 512, 64, 1, config)
        assert small.activations_resident
        huge = plan_gemm(100_000, 512, 512, 1, config)
        assert not huge.activations_resident

    def test_non_resident_activations_multiply_traffic(self):
        config = paper_design_point()
        huge = plan_gemm(100_000, 512, 512, 1, config)
        assert huge.activation_load_passes == huge.n_tiles

    def test_traffic_accounts_weights_activations_outputs(self):
        plan = plan_gemm(64, 64, 64, 1, paper_design_point())
        expected = 64 * 64 + 64 * 64 + 64 * 64
        assert plan.total_dram_traffic_bytes() == expected

    def test_invalid_dims_rejected(self):
        with pytest.raises(CompilationError):
            plan_gemm(0, 1, 1, 1, paper_design_point())


class TestCodegen:
    def test_program_structure(self):
        program = generate(simple_graph(), paper_design_point())
        kinds = [type(i).__name__ for i in program]
        assert kinds[-1] == "Halt"
        assert any(isinstance(i, GemmTile) for i in program)
        assert any(isinstance(i, VectorOp) for i in program)
        assert any(isinstance(i, LoadTile) for i in program)
        assert any(isinstance(i, StoreTile) for i in program)

    def test_gemm_tiles_respect_array_bounds(self):
        config = DSAConfig(pe_rows=32, pe_cols=32)
        program = generate(simple_graph(), config)
        for instruction in program:
            if isinstance(instruction, GemmTile):
                assert instruction.k <= 32
                assert instruction.n <= 32

    def test_total_macs_preserved(self):
        graph = simple_graph()
        program = generate(graph, paper_design_point())
        macs, _, _ = program.totals()
        assert macs == graph.stats().total_macs

    def test_weight_traffic_at_least_weight_bytes(self):
        graph = simple_graph()
        program = generate(graph, paper_design_point())
        _, _, dma = program.totals()
        assert dma >= graph.stats().weight_bytes

    def test_serial_op_emits_syncs(self):
        config = DSAConfig(pe_rows=512, pe_cols=512, buffer_bytes=256 * 1024)
        builder = GraphBuilder("big", TensorSpec("x", (512, 2048), DType.FP32))
        builder.linear(2048)
        program = generate(builder.build(), config)
        assert any(isinstance(i, Sync) for i in program)

    def test_fused_vector_ops_marked(self):
        program = generate(simple_graph(), paper_design_point())
        fused_flags = [i.fused for i in program if isinstance(i, VectorOp)]
        assert all(fused_flags)  # relu/softmax both fuse to their GeMMs


class TestExecutable:
    def test_compile_and_simulate(self):
        exe = compile_graph(simple_graph(), paper_design_point())
        report = exe.simulate()
        assert report.latency_s > 0
        assert exe.latency_s == report.latency_s

    def test_simulation_memoised(self):
        exe = compile_graph(simple_graph(), paper_design_point())
        assert exe.simulate() is exe.simulate()
        assert exe.simulate(force=True) is not None

    def test_weight_bytes_exposed(self):
        exe = compile_graph(simple_graph(), paper_design_point())
        assert exe.weight_bytes == simple_graph().stats().weight_bytes

    def test_bigger_array_not_slower_for_large_gemm(self):
        builder = GraphBuilder("big", TensorSpec("x", (2048, 1024), DType.INT8))
        builder.linear(1024)
        graph = builder.build()
        small = compile_graph(graph, DSAConfig(pe_rows=32, pe_cols=32)).latency_s
        large = compile_graph(graph, DSAConfig(pe_rows=128, pe_cols=128)).latency_s
        assert large < small


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=2048),
    n=st.integers(min_value=1, max_value=2048),
    k=st.integers(min_value=1, max_value=2048),
    dtype_bytes=st.sampled_from([1, 2, 4]),
)
def test_tiling_invariants_property(m, n, k, dtype_bytes):
    plan = plan_gemm(m, n, k, dtype_bytes, paper_design_point())
    assert 1 <= plan.tile_m <= m
    assert 1 <= plan.tile_n <= min(n, 128)
    assert 1 <= plan.tile_k <= min(k, 128)
    assert plan.total_dram_traffic_bytes() >= (k * n + m * n) * dtype_bytes


class TestProgramCache:
    def test_shared_tiling_reuses_compilation(self):
        from repro.accelerator.config import DDR4, HBM2
        from repro.compiler import ProgramCache
        from repro.compiler.executable import compile_graph as compile_cached

        cache = ProgramCache()
        graph = simple_graph()
        ddr = compile_cached(graph, DSAConfig(memory=DDR4), cache=cache)
        hbm = compile_cached(graph, DSAConfig(memory=HBM2), cache=cache)
        # Memory technology is not tiling-relevant: one compile, one hit.
        assert ddr.program is hbm.program
        assert ddr.packed is hbm.packed
        assert cache.misses == 1
        assert cache.hits == 1

    def test_distinct_tiling_compiles_separately(self):
        from repro.compiler import ProgramCache

        cache = ProgramCache()
        graph = simple_graph()
        a = compile_graph(graph, DSAConfig(pe_rows=32, pe_cols=32), cache=cache)
        b = compile_graph(graph, DSAConfig(pe_rows=64, pe_cols=64), cache=cache)
        assert a.program is not b.program
        assert cache.misses == 2

    def test_rebuilt_graph_hits_by_fingerprint(self):
        from repro.compiler import ProgramCache

        cache = ProgramCache()
        compile_graph(simple_graph(), DSAConfig(), cache=cache)
        compile_graph(simple_graph(), DSAConfig(), cache=cache)
        assert cache.hits == 1

    def test_lru_bound_respected(self):
        from repro.compiler import ProgramCache

        cache = ProgramCache(maxsize=2)
        graph = simple_graph()
        for dim in (16, 32, 64):
            compile_graph(graph, DSAConfig(pe_rows=dim, pe_cols=dim), cache=cache)
        assert len(cache) == 2

    def test_uncached_compile_matches_cached(self):
        from repro.compiler import compile_graph_uncached

        graph = simple_graph()
        config = DSAConfig()
        cached = compile_graph(graph, config)
        cold = compile_graph_uncached(graph, config)
        assert cached.simulate() == cold.simulate()
        assert cold.simulate(force=True, engine="scalar") == cached.simulate()

    def test_tiling_key_fields(self):
        from repro.accelerator.config import DDR4
        from repro.compiler import tiling_key

        base = DSAConfig()
        assert tiling_key(base) == tiling_key(DSAConfig(memory=DDR4))
        assert tiling_key(base) != tiling_key(DSAConfig(buffer_bytes=8 * MB))


class TestReportMemo:
    def test_memory_technologies_get_distinct_exact_reports(self):
        from repro.accelerator.config import DDR4, DDR5, HBM2
        from repro.compiler import ProgramCache, compile_graph_uncached

        cache = ProgramCache()
        graph = simple_graph()
        configs = [DSAConfig(memory=memory) for memory in (DDR4, DDR5, HBM2)]
        reports = [cache.report(graph, config) for config in configs]
        # One shared program, but the memo is keyed by the whole config.
        assert len(cache) == 1
        assert len({r.latency_s for r in reports}) == 3
        for config, report in zip(configs, reports):
            oracle = compile_graph_uncached(graph, config).simulate(
                engine="scalar"
            )
            assert report == oracle
            assert cache.report(graph, config) is report

    def test_report_survives_program_eviction(self):
        from repro.compiler import ProgramCache

        cache = ProgramCache(maxsize=1)
        graph = simple_graph()
        small = DSAConfig(pe_rows=16, pe_cols=16)
        first = cache.report(graph, small)
        cache.report(graph, DSAConfig(pe_rows=32, pe_cols=32))
        assert len(cache) == 1  # the 16x16 program was evicted
        assert cache.report(graph, small) is first

    def test_clear_drops_reports(self):
        from repro.compiler import ProgramCache

        cache = ProgramCache()
        first = cache.report(simple_graph(), DSAConfig())
        cache.clear()
        again = cache.report(simple_graph(), DSAConfig())
        assert again == first
        assert again is not first

    def test_swapped_engine_does_not_read_memo(self, monkeypatch):
        import dataclasses

        from repro.accelerator.simulator import CycleSimulator
        from repro.compiler import ProgramCache

        cache = ProgramCache()
        right = cache.report(simple_graph(), DSAConfig())
        original = CycleSimulator.run_packed

        def one_cycle_off(simulator, program):
            report = original(simulator, program)
            return dataclasses.replace(report, cycles=report.cycles + 1)

        monkeypatch.setattr(CycleSimulator, "run_packed", one_cycle_off)
        wrong = cache.report(simple_graph(), DSAConfig())
        assert wrong.cycles == right.cycles + 1
        monkeypatch.undo()
        assert cache.report(simple_graph(), DSAConfig()) is right


class TestGraphFingerprint:
    def test_stable_across_rebuilds(self):
        assert simple_graph().fingerprint() == simple_graph().fingerprint()

    def test_differs_for_different_graphs(self):
        assert resnet50().fingerprint() != simple_graph().fingerprint()

    def test_row_budget_evicts_large_entries(self):
        from repro.compiler import ProgramCache

        graph = simple_graph()
        cache = ProgramCache(maxsize=10, max_rows=1)
        compile_graph(graph, DSAConfig(pe_rows=16, pe_cols=16), cache=cache)
        compile_graph(graph, DSAConfig(pe_rows=32, pe_cols=32), cache=cache)
        # Every entry exceeds the budget, so only the newest survives.
        assert len(cache) == 1

    def test_invalid_engine_rejected_even_when_memoised(self):
        from repro.errors import ConfigurationError

        executable = compile_graph(simple_graph(), DSAConfig())
        executable.simulate()  # memoise
        with pytest.raises(ConfigurationError):
            executable.simulate(engine="scaler")
