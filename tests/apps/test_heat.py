"""Heat-diffusion application tests."""

import numpy as np
import pytest

from repro.apps import HeatConfig, HeatSimulation, heat_step
from repro.apps.workload import ExecutionMode, with_mode
from repro.simmpi import Engine, TraceRecorder, run_program

# tests/simmpi, on pytest's pythonpath
from networks import assert_runs_equal, hand_halo_exchange, run_engine


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


def hand_heat_program(cfg: HeatConfig):
    """The heat loop written out by hand: hand-written halo, then the
    Jacobi update (the oracle every execution mode must match)."""
    sim = HeatSimulation(cfg)

    def program(ctx):
        state = {"iteration": 0} if cfg.synthetic else sim.make_rank_state(ctx.rank)
        for _ in range(cfg.iterations):
            fields = None if cfg.synthetic else [state["t"]]
            yield from hand_halo_exchange(ctx.comm, cfg.grid, fields)
            if fields is not None:
                state["t"][1:-1, 1:-1] = heat_step(state["t"], cfg.alpha)
            state["iteration"] += 1
        return state

    return program


class TestWaveEquivalence:
    @pytest.mark.parametrize("synthetic", [False, True])
    def test_wave_matches_per_message(self, synthetic):
        """Every mode equals the hand-written loop: results, traces and
        clocks (kernels run only on the synthetic config)."""
        cfg = HeatConfig(
            px=2, py=2, nx=8, ny=8, iterations=6, synthetic=synthetic
        )
        ref = run_engine(hand_heat_program(cfg), 4)
        assert max(ref["clocks"]) > 0
        for mode in ExecutionMode:
            got = run_engine(HeatSimulation(with_mode(cfg, mode)).make_program(), 4)
            assert_runs_equal(ref, got, mode.value)
            kernelled = mode is ExecutionMode.KERNELS and synthetic
            assert (got["engine"].kernel_runs > 0) == kernelled
