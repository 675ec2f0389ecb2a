"""Failure-contained recovery: the end-to-end integration tests.

The headline property under test: after a node failure, restoring *only*
the failed L1 cluster from its checkpoint (erasure-decoded where the SSD
died) and replaying the sender-based log reproduces the failure-free
execution **bit for bit**, without rolling back any other cluster.
"""

import numpy as np
import pytest

from repro.apps import ExecutionMode, TsunamiConfig, TsunamiSimulation
from repro.clustering import Clustering
from repro.failures import FailureEvent
from repro.hydee import (
    ContainedRecoveryError,
    RecoveryManager,
    run_with_protocol,
)
from repro.machine import Machine
from repro.simmpi import run_program


def hierarchical_16():
    """Hand-built §IV-B clustering on 8 nodes x 2 ppn: two L1 clusters of
    4 nodes (8 ranks), L2 stripes of 4 across each L1's nodes."""
    l1 = np.array([0] * 8 + [1] * 8)
    l2 = np.array([(r // 2 // 4) * 2 + (r % 2) for r in range(16)])
    return Clustering("hier-8-4", l1, l2)


def make_run(iterations=12, checkpoint_every=5, allreduce_every=4, trace=False,
             **cfg_kw):
    cfg = TsunamiConfig(
        px=4, py=4, nx=16, ny=16, iterations=iterations,
        allreduce_every=allreduce_every, **cfg_kw,
    )
    sim = TsunamiSimulation(cfg)
    machine = Machine(8, 2)
    clustering = hierarchical_16()
    run = run_with_protocol(
        sim, machine, clustering, iterations=iterations,
        checkpoint_every=checkpoint_every, trace=trace,
    )
    return sim, machine, clustering, run


@pytest.fixture(scope="module")
def completed_run():
    return make_run()


class TestContainment:
    def test_restart_set_is_one_cluster_for_node_failure(self, completed_run):
        sim, machine, clustering, run = completed_run
        manager = RecoveryManager(sim, machine, run)
        ranks, clusters = manager.restart_set(
            FailureEvent(kind="node", nodes=(2,))
        )
        assert clusters == [0]
        assert ranks == list(range(8))

    def test_soft_error_restarts_one_cluster(self, completed_run):
        sim, machine, clustering, run = completed_run
        manager = RecoveryManager(sim, machine, run)
        ranks, clusters = manager.restart_set(
            FailureEvent(kind="soft", process=5)
        )
        assert clusters == [0]
        assert ranks == list(range(8))

    def test_multi_node_failure_touches_their_clusters_only(self, completed_run):
        sim, machine, clustering, run = completed_run
        manager = RecoveryManager(sim, machine, run)
        ranks, clusters = manager.restart_set(
            FailureEvent(kind="node", nodes=(0, 5))
        )
        assert clusters == [0, 1]
        assert len(ranks) == 16


class TestRecoveryEquivalence:
    """Recovered states must equal the failure-free history, bitwise."""

    @pytest.mark.parametrize("failure_iteration", [7, 10, 12])
    def test_node_failure_recovery_bitwise(self, failure_iteration):
        sim, machine, clustering, run = make_run(iterations=12)
        manager = RecoveryManager(sim, machine, run)
        event = FailureEvent(kind="node", nodes=(1,))
        result = manager.recover(event, failure_iteration=failure_iteration)

        assert result.restarted_clusters == [0]
        assert result.rollback_iteration == (5 if failure_iteration < 10 else 10)
        # Only the dead node's ranks needed the erasure-decode path; the
        # L1 co-members on healthy nodes restored from their local SSDs.
        assert sorted(result.decoded_ranks()) == [2, 3]
        locals_ = [r for r, lvl in result.restore_levels.items() if lvl == "local"]
        assert sorted(locals_) == [0, 1, 4, 5, 6, 7]

        reference = run_program(
            sim.make_program(iterations=failure_iteration), 16
        )
        for rank in result.restarted_ranks:
            np.testing.assert_array_equal(
                result.recovered_states[rank]["eta"], reference[rank]["eta"]
            )
            np.testing.assert_array_equal(
                result.recovered_states[rank]["u"], reference[rank]["u"]
            )
            np.testing.assert_array_equal(
                result.recovered_states[rank]["v"], reference[rank]["v"]
            )
            assert result.recovered_states[rank]["iteration"] == failure_iteration

    def test_failure_at_checkpoint_boundary_needs_no_replay(self):
        sim, machine, clustering, run = make_run(iterations=12)
        manager = RecoveryManager(sim, machine, run)
        result = manager.recover(
            FailureEvent(kind="node", nodes=(2,)), failure_iteration=10
        )
        assert result.rollback_iteration == 10
        reference = run_program(sim.make_program(iterations=10), 16)
        for rank in result.restarted_ranks:
            np.testing.assert_array_equal(
                result.recovered_states[rank]["eta"], reference[rank]["eta"]
            )

    def test_recovery_with_collectives_in_window(self):
        """The replay window contains a world allreduce: its fragments must
        come out of the log and combine to the same result."""
        sim, machine, clustering, run = make_run(
            iterations=10, checkpoint_every=6, allreduce_every=4
        )
        # Window [6, 9): allreduce at iteration 8 crosses clusters.
        manager = RecoveryManager(sim, machine, run)
        result = manager.recover(
            FailureEvent(kind="node", nodes=(0,)), failure_iteration=9
        )
        reference = run_program(sim.make_program(iterations=9), 16)
        for rank in result.restarted_ranks:
            np.testing.assert_array_equal(
                result.recovered_states[rank]["eta"], reference[rank]["eta"]
            )
            assert result.recovered_states[rank]["eta_max"] == pytest.approx(
                reference[rank]["eta_max"]
            )

    def test_send_determinism_verified(self):
        sim, machine, clustering, run = make_run(iterations=12)
        manager = RecoveryManager(sim, machine, run)
        result = manager.recover(
            FailureEvent(kind="node", nodes=(1,)), failure_iteration=8
        )
        assert result.outbound  # the cluster talked to its neighbors
        manager.verify_send_determinism(result)  # must not raise

    def test_survivors_never_touched(self):
        """Failure containment: non-failed clusters' states are not rolled
        back or modified by the recovery."""
        sim, machine, clustering, run = make_run(iterations=12)
        before = [
            {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in s.items()}
            for s in run.states
        ]
        manager = RecoveryManager(sim, machine, run)
        result = manager.recover(
            FailureEvent(kind="node", nodes=(7,)), failure_iteration=11
        )
        survivor_ranks = [r for r in range(16) if r not in result.restarted_ranks]
        assert len(survivor_ranks) == 8
        for rank in survivor_ranks:
            np.testing.assert_array_equal(
                run.states[rank]["eta"], before[rank]["eta"]
            )


class TestResume:
    def test_resumed_run_matches_failure_free_end_state(self):
        """Recover at iteration 8, resume to 12: equals the bare 12-iter run."""
        sim, machine, clustering, run = make_run(iterations=12)
        manager = RecoveryManager(sim, machine, run)

        # Survivors are at 12 in the stored run; emulate a failure at 12 and
        # resume further to 16.
        result = manager.recover(
            FailureEvent(kind="node", nodes=(1,)), failure_iteration=12
        )
        final = manager.resume(result, iterations=16)
        reference = run_program(sim.make_program(iterations=16), 16)
        for rank in range(16):
            np.testing.assert_array_equal(
                final[rank]["eta"], reference[rank]["eta"]
            )

    def test_resume_requires_aligned_states(self):
        sim, machine, clustering, run = make_run(iterations=12)
        manager = RecoveryManager(sim, machine, run)
        result = manager.recover(
            FailureEvent(kind="node", nodes=(1,)), failure_iteration=8
        )
        # Survivors are at 12, recovered ranks at 8: resume must refuse.
        with pytest.raises(ContainedRecoveryError):
            manager.resume(result, iterations=16)


class TestMultiClusterRecovery:
    def test_two_failed_clusters_corecover(self):
        sim, machine, clustering, run = make_run(iterations=12)
        manager = RecoveryManager(sim, machine, run)
        result = manager.recover(
            FailureEvent(kind="node", nodes=(1, 6)), failure_iteration=9
        )
        assert result.restarted_clusters == [0, 1]
        reference = run_program(sim.make_program(iterations=9), 16)
        for rank in result.restarted_ranks:
            np.testing.assert_array_equal(
                result.recovered_states[rank]["eta"], reference[rank]["eta"]
            )

    def test_restart_fraction_reported(self):
        sim, machine, clustering, run = make_run(iterations=12)
        manager = RecoveryManager(sim, machine, run)
        result = manager.recover(
            FailureEvent(kind="node", nodes=(0,)), failure_iteration=7
        )
        assert result.restart_fraction == pytest.approx(8 / 16)


class TestWaveRecovery:
    def test_wave_run_recovers_identically(self):
        """A node failure after a wave-native run replays (per-message,
        through the ReplayCommunicator fallback) to the same states a
        per-message original run recovers to."""
        recovered = {}
        for mode in (ExecutionMode.PER_MESSAGE, ExecutionMode.KERNELS):
            sim, machine, clustering, run = make_run(
                iterations=16, checkpoint_every=6, allreduce_every=5, mode=mode
            )
            manager = RecoveryManager(sim, machine, run)
            result = manager.recover(
                FailureEvent(kind="node", nodes=(1,)), failure_iteration=16
            )
            manager.verify_send_determinism(result)
            recovered[mode] = result
        ref = recovered[ExecutionMode.PER_MESSAGE]
        waved = recovered[ExecutionMode.KERNELS]
        assert sorted(ref.restarted_ranks) == sorted(waved.restarted_ranks)
        for rank in ref.restarted_ranks:
            np.testing.assert_array_equal(
                ref.recovered_states[rank]["eta"],
                waved.recovered_states[rank]["eta"],
            )


class TestEndToEndProperties:
    """What the protocol actually does equals what the analytic models of
    the recovery-cost and logging dimensions predict."""

    def test_recovery_restart_fraction_matches_model(self):
        from repro.models import restart_set_for_nodes

        sim, machine, clustering, run = make_run(
            iterations=16, checkpoint_every=6, allreduce_every=5
        )
        manager = RecoveryManager(sim, machine, run)
        result = manager.recover(
            FailureEvent(kind="node", nodes=(3,)), failure_iteration=16
        )
        predicted = restart_set_for_nodes(clustering, machine.placement, [3])
        assert sorted(result.restarted_ranks) == sorted(predicted.tolist())

    def test_logged_fraction_matches_graph_model(self):
        from repro.commgraph import graph_from_trace

        sim, machine, clustering, run = make_run(
            iterations=16, checkpoint_every=6, allreduce_every=5, trace=True
        )
        graph = graph_from_trace(run.engine.tracer)
        assert run.logged_fraction_observed == pytest.approx(
            graph.logged_fraction(clustering.l1_labels)
        )
