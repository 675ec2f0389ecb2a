"""Protocol-run tests: checkpoint cadence, logging selectivity, transparency."""

import numpy as np
import pytest

from repro.apps import ExecutionMode, TsunamiConfig, TsunamiSimulation
from repro.clustering import naive_clustering
from repro.hydee import run_with_protocol
from repro.machine import Machine
from repro.simmpi import run_program


def small_setup(ppn=4, nodes=4, **cfg_kw):
    """16-rank tsunami on a 4-node machine; clusters = nodes (aligned)."""
    cfg_defaults = dict(px=4, py=4, nx=16, ny=16, iterations=12, allreduce_every=5)
    cfg_defaults.update(cfg_kw)
    cfg = TsunamiConfig(**cfg_defaults)
    sim = TsunamiSimulation(cfg)
    machine = Machine(nodes, ppn)
    clustering = naive_clustering(16, ppn)  # one cluster per node
    return sim, machine, clustering


class TestProtocolRun:
    def test_application_result_is_unchanged(self):
        """The FT hook must be transparent: same states as a bare run."""
        sim, machine, clustering = small_setup()
        run = run_with_protocol(
            sim, machine, clustering, iterations=12, checkpoint_every=5
        )
        bare = run_program(sim.make_program(iterations=12), 16)
        for with_ft, without in zip(run.states, bare):
            np.testing.assert_array_equal(with_ft["eta"], without["eta"])
            np.testing.assert_array_equal(with_ft["u"], without["u"])

    def test_checkpoint_cadence(self):
        sim, machine, clustering = small_setup()
        run = run_with_protocol(
            sim, machine, clustering, iterations=12, checkpoint_every=5
        )
        for cluster in range(clustering.n_l1_clusters):
            assert run.checkpoint_versions[cluster] == [0, 5, 10]

    def test_latest_checkpoint_lookup(self):
        sim, machine, clustering = small_setup()
        run = run_with_protocol(
            sim, machine, clustering, iterations=12, checkpoint_every=5
        )
        assert run.latest_checkpoint(0, at_or_before=7) == 5
        assert run.latest_checkpoint(0, at_or_before=4) == 0
        with pytest.raises(ValueError):
            run.latest_checkpoint(0, at_or_before=-1)

    def test_only_inter_cluster_messages_logged(self):
        sim, machine, clustering = small_setup()
        run = run_with_protocol(
            sim, machine, clustering, iterations=6, checkpoint_every=3
        )
        labels = clustering.l1_labels
        for (src, dst), entries in run.log.channels.items():
            assert labels[src] != labels[dst]
            assert entries

    def test_logged_fraction_matches_graph_prediction(self):
        """Observed logging == the model's logged_fraction on the same graph."""
        sim, machine, clustering = small_setup(allreduce_every=0)
        run = run_with_protocol(
            sim, machine, clustering, iterations=8, checkpoint_every=4,
            trace=True,
        )
        from repro.commgraph import graph_from_trace

        graph = graph_from_trace(run.engine.tracer)
        predicted = graph.logged_fraction(clustering.l1_labels)
        assert run.logged_fraction_observed == pytest.approx(predicted)

    def test_every_rank_checkpointed_every_version(self):
        sim, machine, clustering = small_setup()
        run = run_with_protocol(
            sim, machine, clustering, iterations=11, checkpoint_every=5
        )
        for rank in range(16):
            assert run.checkpointer.versions_of(rank) == [0, 5, 10]

    def test_checkpoint_states_are_bit_identical_to_live_history(self):
        """A checkpoint at iteration v equals the bare run's state at v."""
        sim, machine, clustering = small_setup()
        run = run_with_protocol(
            sim, machine, clustering, iterations=12, checkpoint_every=5
        )
        reference = run_program(sim.make_program(iterations=10), 16)
        for rank in range(16):
            state, _, level = run.checkpointer.restore(rank, 10)
            assert level == "local"
            np.testing.assert_array_equal(state["eta"], reference[rank]["eta"])

    def test_virtual_time_includes_checkpoint_cost(self):
        sim, machine, clustering = small_setup()
        run = run_with_protocol(
            sim, machine, clustering, iterations=6, checkpoint_every=2
        )
        bare_engine_times = run_program(
            sim.make_program(iterations=6), 16
        )
        assert run.engine.max_time > 0
        assert run.checkpointer.stats.total_encode_time_s > 0

    def test_mismatched_machine_rejected(self):
        sim, machine, clustering = small_setup()
        with pytest.raises(ValueError):
            run_with_protocol(sim, Machine(2, 4), clustering, iterations=4)


class TestWaveEquivalence:
    """Wave-native and per-message protocol runs are one workload.

    The protocol installs both per-message observers (sender-based payload
    log, receive counting); the halo waves must feed them identically —
    logged receives consume :class:`MessageView`\\ s from waves without
    perturbing a single count, sidecar or clock.
    """

    def _pair(self, iterations=12, checkpoint_every=5, **cfg_kw):
        runs = {}
        for use_waves in (False, True):
            mode = (
                ExecutionMode.KERNELS
                if use_waves
                else ExecutionMode.PER_MESSAGE
            )
            sim, machine, clustering = small_setup(mode=mode, **cfg_kw)
            runs[use_waves] = run_with_protocol(
                sim, machine, clustering,
                iterations=iterations, checkpoint_every=checkpoint_every,
            )
        return runs[False], runs[True]

    def test_states_clocks_and_recv_counts_identical(self):
        ref, waved = self._pair()
        for ref_state, wave_state in zip(ref.states, waved.states):
            np.testing.assert_array_equal(ref_state["eta"], wave_state["eta"])
            np.testing.assert_array_equal(ref_state["u"], wave_state["u"])
            np.testing.assert_array_equal(ref_state["v"], wave_state["v"])
        assert max(ref.engine.rank_times()) > 0
        assert ref.engine.rank_times() == waved.engine.rank_times()
        assert ref.engine.recv_counts == waved.engine.recv_counts

    def test_message_log_identical_channel_by_channel(self):
        ref, waved = self._pair()
        assert sorted(ref.log.channels) == sorted(waved.log.channels)
        for channel, entries in ref.log.channels.items():
            others = waved.log.channels[channel]
            assert len(entries) == len(others)
            for entry, other in zip(entries, others):
                assert (entry.tag, entry.nbytes) == (other.tag, other.nbytes)
                if isinstance(entry.payload, np.ndarray):
                    np.testing.assert_array_equal(entry.payload, other.payload)
                else:
                    assert entry.payload == other.payload
        assert ref.log.logged_bytes == waved.log.logged_bytes

    def test_checkpoint_sidecars_identical(self):
        """The receive positions frozen into every checkpoint sidecar —
        what replay resumes from — must not feel the wave port."""
        ref, waved = self._pair()
        for rank in range(16):
            versions = ref.checkpointer.versions_of(rank)
            assert versions == waved.checkpointer.versions_of(rank)
            for version in versions:
                assert ref.checkpointer.sidecar_meta(
                    rank, version
                ) == waved.checkpointer.sidecar_meta(rank, version)
