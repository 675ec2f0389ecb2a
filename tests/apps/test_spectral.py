"""Spectral (all-to-all) workload tests — the §V caveat."""

import numpy as np
import pytest

from repro.apps import SpectralConfig, SpectralSimulation
from repro.apps.workload import ExecutionMode, with_mode
from repro.clustering import consecutive_clustering
from repro.commgraph import graph_from_trace
from repro.simmpi import Engine, TraceRecorder, run_program

from networks import assert_runs_equal, run_engine  # tests/simmpi, on pytest's pythonpath


def small_cfg(**kw):
    defaults = dict(nranks=4, n=16, iterations=3)
    defaults.update(kw)
    return SpectralConfig(**defaults)


class TestConfig:
    def test_divisibility(self):
        with pytest.raises(ValueError):
            SpectralConfig(nranks=3, n=16)

    def test_block_bytes(self):
        cfg = small_cfg()
        assert cfg.rows_per_rank == 4
        assert cfg.block_bytes == 4 * 4 * 16


class TestNumerics:
    @pytest.mark.parametrize("nranks", [1, 2, 4, 8])
    def test_parallel_matches_serial(self, nranks):
        cfg = small_cfg(nranks=nranks)
        sim = SpectralSimulation(cfg)
        states = run_program(sim.make_program(), nranks)
        parallel = sim.gather_global_field(states)
        serial = sim.run_serial_reference()
        np.testing.assert_array_equal(parallel, serial)

    def test_damping_shrinks_energy(self):
        cfg = small_cfg(iterations=10, damping=0.9)
        sim = SpectralSimulation(cfg)
        out = sim.run_serial_reference()
        initial = sim.run_serial_reference(iterations=0)
        assert np.abs(out).sum() < np.abs(initial).sum()

    def test_hook_called(self):
        cfg = small_cfg()
        calls = []

        def hook(ctx, comm, sim, state, it):
            if comm.rank == 0:
                calls.append(it)
            if False:
                yield

        run_program(SpectralSimulation(cfg).make_program(hook=hook), 4)
        assert calls == [0, 1, 2]


class TestAllToAllDefeatsClustering:
    """The §V caveat: no partition keeps all-to-all traffic intra-cluster."""

    def _traced_graph(self, nranks=8, synthetic=True):
        cfg = small_cfg(nranks=nranks, n=2 * nranks, iterations=2,
                        synthetic=synthetic)
        sim = SpectralSimulation(cfg)
        tracer = TraceRecorder(nranks)
        Engine(nranks, tracer=tracer).run(sim.make_program())
        return graph_from_trace(tracer)

    def test_uniform_matrix(self):
        g = self._traced_graph()
        off = g.matrix[~np.eye(8, dtype=bool)]
        assert (off == off[0]).all()  # perfectly uniform all-to-all

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_logged_fraction_is_structural(self, k):
        """With equal clusters of size s over a uniform all-to-all, the
        logged fraction is exactly (n-s)/(n-1) for *any* partition —
        clustering cannot reduce it."""
        g = self._traced_graph()
        s = 8 // k
        clustering = consecutive_clustering(8, s)
        assert g.logged_fraction(clustering.l1_labels) == pytest.approx(
            (8 - s) / 7
        )

    def test_even_optimal_partition_logs_half(self):
        """Any 2-way balanced split logs >= 50 % on all-to-all traffic —
        why the paper excludes all-to-all apps from its conclusions."""
        g = self._traced_graph()
        rng = np.random.default_rng(0)
        for _ in range(10):
            labels = rng.permutation(np.repeat([0, 1], 4))
            assert g.logged_fraction(labels) >= 0.5 - 1e-9

    def test_synthetic_matches_real_traffic(self):
        real = self._traced_graph(synthetic=False)
        synth = self._traced_graph(synthetic=True)
        np.testing.assert_array_equal(real.matrix, synth.matrix)


def hand_transpose_program(cfg: SpectralConfig):
    """The synthetic spectral loop written out by hand: two pairwise
    all-to-all rounds per iteration, each posting every send and
    explicit-source receive before waiting on the receives in order."""

    def program(ctx):
        comm = ctx.comm
        for _ in range(2 * cfg.iterations):
            recvs = []
            for step in range(1, comm.size):
                yield from comm.isend(
                    None, dest=(comm.rank + step) % comm.size, tag=777,
                    nbytes=cfg.block_bytes, kind="transpose",
                )
                recvs.append(
                    (yield from comm.irecv(source=(comm.rank - step) % comm.size, tag=777))
                )
            for req in recvs:
                yield from comm.wait(req)
        return {"iteration": cfg.iterations}

    return program


class TestWaveEquivalence:
    def test_synthetic_wave_matches_per_message(self):
        """Every mode equals the hand-written transpose loop: results,
        traces and clocks."""
        cfg = small_cfg(nranks=8, n=16, iterations=3, synthetic=True)
        ref = run_engine(hand_transpose_program(cfg), 8)
        assert max(ref["clocks"]) > 0
        for mode in ExecutionMode:
            got = run_engine(SpectralSimulation(with_mode(cfg, mode)).make_program(), 8)
            assert_runs_equal(ref, got, mode.value)
            assert (got["engine"].kernel_runs > 0) == (mode is ExecutionMode.KERNELS)
