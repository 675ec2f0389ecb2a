"""Tsunami-application tests, including parallel-vs-serial bit equality."""

import numpy as np
import pytest

from repro.apps import (
    TsunamiConfig,
    TsunamiSimulation,
    fill_physical_ghosts,
    initial_eta,
    paper_tsunami_config,
    swe_step,
)
from repro.apps.workload import ExecutionMode, with_mode
from repro.simmpi import Engine, TraceRecorder, run_program
from repro.simmpi.collectives import max_op

# tests/simmpi, on pytest's pythonpath
from networks import assert_runs_equal, hand_halo_exchange, run_engine


def small_cfg(**kw):
    defaults = dict(px=2, py=2, nx=16, ny=16, iterations=10, allreduce_every=4)
    defaults.update(kw)
    return TsunamiConfig(**defaults)


class TestConfig:
    def test_timestep_respects_cfl(self):
        cfg = small_cfg()
        cfl_limit = cfg.dx / (cfg.wave_speed * np.sqrt(2.0))
        assert 0 < cfg.timestep < cfl_limit

    def test_explicit_dt(self):
        cfg = small_cfg(dt=0.5)
        assert cfg.timestep == 0.5

    def test_indivisible_grid_rejected(self):
        with pytest.raises(ValueError):
            TsunamiConfig(px=3, py=2, nx=16, ny=16)

    def test_paper_config_shape(self):
        cfg = paper_tsunami_config()
        assert cfg.grid.nranks == 1024
        assert cfg.grid.tile_ny == 24 * cfg.grid.tile_nx  # aspect ratio 24
        assert cfg.synthetic

    def test_initial_condition_peak_location(self):
        cfg = small_cfg()
        ys, xs = np.meshgrid(
            np.arange(cfg.ny, dtype=float), np.arange(cfg.nx, dtype=float),
            indexing="ij",
        )
        eta0 = initial_eta(cfg, ys, xs)
        peak = np.unravel_index(np.argmax(eta0), eta0.shape)
        assert abs(peak[0] - cfg.ny / 2) <= 1 and abs(peak[1] - cfg.nx / 2) <= 1
        assert eta0.max() <= cfg.hump_amplitude + 1e-12


class TestSerialReference:
    def test_energy_stays_bounded(self):
        """Lax–Friedrichs is dissipative: max |eta| must not grow."""
        sim = TsunamiSimulation(small_cfg(iterations=50))
        out = sim.run_serial_reference()
        assert np.abs(out["eta"]).max() <= small_cfg().hump_amplitude * 1.01
        assert np.isfinite(out["eta"]).all()

    def test_wave_propagates(self):
        """After enough steps the wave reaches cells far from the hump."""
        cfg = small_cfg(iterations=30)
        sim = TsunamiSimulation(cfg)
        out = sim.run_serial_reference()
        eta0_corner = 0.0
        assert abs(out["eta"][0, 0]) > eta0_corner  # disturbance arrived

    def test_symmetry(self):
        """Centered hump in a square basin keeps 4-fold symmetry of |eta|."""
        cfg = small_cfg(iterations=20)
        sim = TsunamiSimulation(cfg)
        eta = sim.run_serial_reference()["eta"]
        np.testing.assert_allclose(eta, np.flipud(eta), atol=1e-12)
        np.testing.assert_allclose(eta, np.fliplr(eta), atol=1e-12)

    def test_synthetic_reference_rejected(self):
        sim = TsunamiSimulation(small_cfg(synthetic=True))
        with pytest.raises(ValueError):
            sim.run_serial_reference()


class TestParallelEquivalence:
    @pytest.mark.parametrize("px,py", [(2, 2), (4, 2), (1, 4), (4, 4)])
    def test_bitwise_equal_to_serial(self, px, py):
        """Decomposition must not change a single bit of the solution."""
        cfg = small_cfg(px=px, py=py, iterations=12)
        sim = TsunamiSimulation(cfg)
        states = run_program(sim.make_program(), cfg.grid.nranks)
        parallel_eta = sim.gather_global_field(states, "eta")
        serial = sim.run_serial_reference()
        np.testing.assert_array_equal(parallel_eta, serial["eta"])
        parallel_u = sim.gather_global_field(states, "u")
        np.testing.assert_array_equal(parallel_u, serial["u"])

    def test_allreduce_reports_global_max(self):
        cfg = small_cfg(iterations=4, allreduce_every=4)
        sim = TsunamiSimulation(cfg)
        states = run_program(sim.make_program(), cfg.grid.nranks)
        global_eta = sim.gather_global_field(states, "eta")
        for state in states:
            assert state["eta_max"] == pytest.approx(np.abs(global_eta).max())

    def test_hook_is_called_each_iteration(self):
        cfg = small_cfg(iterations=5)
        sim = TsunamiSimulation(cfg)
        calls = []

        def hook(ctx, comm, sim_, state, iteration):
            if comm.rank == 0:
                calls.append(iteration)
            if False:
                yield

        run_program(sim.make_program(hook=hook), cfg.grid.nranks)
        assert calls == [0, 1, 2, 3, 4]

    def test_wrong_comm_size_raises(self):
        cfg = small_cfg()
        sim = TsunamiSimulation(cfg)
        with pytest.raises(Exception):
            run_program(sim.make_program(), 2)  # grid wants 4


class TestSyntheticMode:
    def test_synthetic_and_real_traces_match(self):
        """The synthetic fast path must reproduce the real byte matrix."""
        real_cfg = small_cfg(iterations=6, allreduce_every=3)
        synth_cfg = small_cfg(iterations=6, allreduce_every=3, synthetic=True)

        t_real = TraceRecorder(4)
        Engine(4, tracer=t_real).run(TsunamiSimulation(real_cfg).make_program())
        t_synth = TraceRecorder(4)
        Engine(4, tracer=t_synth).run(TsunamiSimulation(synth_cfg).make_program())
        np.testing.assert_array_equal(t_real.bytes_matrix, t_synth.bytes_matrix)
        np.testing.assert_array_equal(t_real.count_matrix, t_synth.count_matrix)

    def test_synthetic_returns_iteration_counter_only(self):
        cfg = small_cfg(synthetic=True, iterations=3, allreduce_every=0)
        states = run_program(TsunamiSimulation(cfg).make_program(), 4)
        assert all(s["iteration"] == 3 for s in states)


def hand_tsunami_program(cfg: TsunamiConfig):
    """The tsunami loop written out by hand: hand-written halo, boundary
    fill, update, periodic max-allreduce (the oracle every execution mode
    must match)."""
    sim = TsunamiSimulation(cfg)

    def program(ctx):
        comm = ctx.comm
        north, east, south, west = cfg.grid.neighbors_of(comm.rank)
        state = {"iteration": 0} if cfg.synthetic else sim.make_rank_state(comm.rank)
        for it in range(1, cfg.iterations + 1):
            if cfg.synthetic:
                yield from hand_halo_exchange(comm, cfg.grid, nfields=3)
                local_max = 0.0
            else:
                eta, u, v = state["eta"], state["u"], state["v"]
                yield from hand_halo_exchange(comm, cfg.grid, [eta, u, v])
                fill_physical_ghosts(
                    eta, u, v, north=north is None, east=east is None,
                    south=south is None, west=west is None,
                )
                new = swe_step(eta, u, v, dt=cfg.timestep, dx=cfg.dx, depth=cfg.depth)
                for field, interior in zip((eta, u, v), new):
                    field[1:-1, 1:-1] = interior
                local_max = float(np.abs(eta[1:-1, 1:-1]).max())
            state["iteration"] = it
            if cfg.allreduce_every and it % cfg.allreduce_every == 0:
                state["eta_max"] = yield from comm.allreduce(local_max, max_op)
        return state

    return program


class TestWaveEquivalence:
    """Every execution mode is the hand-written loop: one workload."""

    @pytest.mark.parametrize("synthetic", [False, True])
    def test_wave_matches_per_message(self, synthetic):
        cfg = TsunamiConfig(
            px=4, py=4, nx=16, ny=16, iterations=8, synthetic=synthetic,
            allreduce_every=3,
        )
        ref = run_engine(hand_tsunami_program(cfg), 16)
        assert max(ref["clocks"]) > 0
        for mode in ExecutionMode:
            got = run_engine(TsunamiSimulation(with_mode(cfg, mode)).make_program(), 16)
            assert_runs_equal(ref, got, mode.value)
            kernelled = mode is ExecutionMode.KERNELS and synthetic
            assert (got["engine"].kernel_runs > 0) == kernelled

    def test_wave_resume_from_initial_states(self):
        """Waves rebind to the cloned fields of a resumed run."""
        from repro.simmpi import run_program

        cfg = TsunamiConfig(px=2, py=2, nx=8, ny=8, iterations=6)
        sim = TsunamiSimulation(cfg)
        first = run_program(sim.make_program(iterations=3), 4)
        resumed = run_program(
            sim.make_program(iterations=6, initial_states=first), 4
        )
        straight = run_program(sim.make_program(iterations=6), 4)
        for resumed_state, straight_state in zip(resumed, straight):
            np.testing.assert_array_equal(
                resumed_state["eta"], straight_state["eta"]
            )
