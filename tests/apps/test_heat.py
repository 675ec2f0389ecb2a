"""Heat-diffusion application tests."""

import numpy as np
import pytest

from repro.apps import HeatConfig, HeatSimulation
from repro.simmpi import Engine, TraceRecorder, run_program


def small_cfg(**kw):
    defaults = dict(px=2, py=2, nx=16, ny=16, iterations=10)
    defaults.update(kw)
    return HeatConfig(**defaults)


class TestConfig:
    def test_alpha_stability_bound(self):
        with pytest.raises(ValueError):
            HeatConfig(alpha=0.3)

    def test_indivisible_grid_rejected(self):
        with pytest.raises(ValueError):
            HeatConfig(px=3, nx=16)


class TestSerialReference:
    def test_heat_diffuses_and_decays(self):
        sim = HeatSimulation(small_cfg(iterations=50))
        out = sim.run_serial_reference()
        assert out.max() < small_cfg().hot_spot_temp  # peak decays
        assert out.max() > 0
        assert out[0, 0] > 0  # heat reached the corner (Jacobi spreads 1/iter)

    def test_total_heat_decreases_with_dirichlet_walls(self):
        sim = HeatSimulation(small_cfg(iterations=40))
        initial_total = 100.0 * 6 * 6  # hot square is ~6x6 cells of 100
        out = sim.run_serial_reference()
        assert out.sum() < initial_total

    def test_maximum_principle(self):
        """Jacobi diffusion never exceeds the initial extremes."""
        sim = HeatSimulation(small_cfg(iterations=30))
        out = sim.run_serial_reference()
        assert out.min() >= 0.0 - 1e-12
        assert out.max() <= 100.0 + 1e-12


class TestParallelEquivalence:
    @pytest.mark.parametrize("px,py", [(2, 2), (4, 1), (1, 4), (4, 4)])
    def test_bitwise_equal_to_serial(self, px, py):
        cfg = small_cfg(px=px, py=py, iterations=15)
        sim = HeatSimulation(cfg)
        states = run_program(sim.make_program(), cfg.grid.nranks)
        parallel = sim.gather_global_field(states)
        serial = sim.run_serial_reference()
        np.testing.assert_array_equal(parallel, serial)

    def test_synthetic_trace_matches_real(self):
        real = small_cfg(iterations=5)
        synth = small_cfg(iterations=5, synthetic=True)
        t_real = TraceRecorder(4)
        Engine(4, tracer=t_real).run(HeatSimulation(real).make_program())
        t_synth = TraceRecorder(4)
        Engine(4, tracer=t_synth).run(HeatSimulation(synth).make_program())
        np.testing.assert_array_equal(t_real.bytes_matrix, t_synth.bytes_matrix)

    def test_hook_invoked(self):
        cfg = small_cfg(iterations=3)
        seen = []

        def hook(ctx, comm, sim, state, iteration):
            if comm.rank == 1:
                seen.append(iteration)
            if False:
                yield

        run_program(HeatSimulation(cfg).make_program(hook=hook), 4)
        assert seen == [0, 1, 2]


class TestWaveEquivalence:
    @pytest.mark.parametrize("synthetic", [False, True])
    def test_wave_matches_per_message(self, synthetic):
        from repro.apps.workload import ExecutionMode, with_mode
        from repro.simmpi import Engine, TraceRecorder

        cfg = HeatConfig(
            px=2, py=2, nx=8, ny=8, iterations=6, synthetic=synthetic
        )
        runs = {}
        for mode in ExecutionMode:
            sim = HeatSimulation(with_mode(cfg, mode))
            tracer = TraceRecorder(4, by_kind=True)
            engine = Engine(4, tracer=tracer)
            states = engine.run(sim.make_program())
            runs[mode] = (states, engine.rank_times(), tracer)
        ref = runs.pop(ExecutionMode.PER_MESSAGE)
        for waved in runs.values():
            assert ref[1] == waved[1]
            np.testing.assert_array_equal(
                ref[2].bytes_matrix, waved[2].bytes_matrix
            )
            if not synthetic:
                for ref_state, wave_state in zip(ref[0], waved[0]):
                    np.testing.assert_array_equal(
                        ref_state["t"], wave_state["t"]
                    )
