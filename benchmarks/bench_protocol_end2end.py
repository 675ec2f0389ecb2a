"""End-to-end protocol benchmark: checkpoint, fail, recover, verify.

Times the complete FTI+HydEE pipeline on a simulated 8-node machine —
protocol-supervised execution (coordinated checkpoints, RS encoding,
message logging), a node failure with SSD loss, erasure-decode restore,
log replay, and bit-exact verification — the mechanism behind the paper's
recovery-cost dimension, exercised for real rather than modeled.
"""

import numpy as np
import pytest

from repro.apps import ExecutionMode, TsunamiConfig, TsunamiSimulation
from repro.clustering import Clustering
from repro.failures import FailureEvent
from repro.hydee import RecoveryManager, run_with_protocol
from repro.machine import Machine
from repro.simmpi import run_program


def build_setup(iterations=16, use_waves=True):
    mode = ExecutionMode.KERNELS if use_waves else ExecutionMode.PER_MESSAGE
    cfg = TsunamiConfig(px=4, py=4, nx=32, ny=32, iterations=iterations,
                        allreduce_every=5, mode=mode)
    sim = TsunamiSimulation(cfg)
    machine = Machine(8, 2)
    l1 = np.array([0] * 8 + [1] * 8)
    l2 = np.array([(r // 2 // 4) * 2 + (r % 2) for r in range(16)])
    clustering = Clustering("hier-8-4", l1, l2)
    return sim, machine, clustering


def bench_protocol_run(benchmark):
    """Time a 16-iteration protocol-supervised run (16 ranks, ckpt every 6)."""

    def run():
        sim, machine, clustering = build_setup()
        return run_with_protocol(
            sim, machine, clustering, iterations=16, checkpoint_every=6
        )

    result = benchmark(run)
    assert result.checkpointer.stats.local_writes == 16 * 3  # v0, v6, v12
    assert result.log.logged_messages > 0


def bench_contained_recovery(benchmark):
    """Time restore + replay after a node failure (decode path included)."""

    def run():
        sim, machine, clustering = build_setup()
        protocol_run = run_with_protocol(
            sim, machine, clustering, iterations=16, checkpoint_every=6
        )
        manager = RecoveryManager(sim, machine, protocol_run)
        result = manager.recover(
            FailureEvent(kind="node", nodes=(1,)), failure_iteration=16
        )
        return sim, result

    sim, result = benchmark(run)
    assert result.rollback_iteration == 12
    assert sorted(result.decoded_ranks()) == [2, 3]
    reference = run_program(sim.make_program(iterations=16), 16)
    for rank in result.restarted_ranks:
        np.testing.assert_array_equal(
            result.recovered_states[rank]["eta"], reference[rank]["eta"]
        )


def bench_protocol_run_permsg(benchmark):
    """The per-message reference of :func:`bench_protocol_run`.

    Same protocol-supervised run with ``use_waves=False`` — the halo loop
    posts one engine interaction per message instead of one wave. The
    delta between the two benches is the wave win with the full protocol
    observer stack (message log + receive counting) live.
    """

    def run():
        sim, machine, clustering = build_setup(use_waves=False)
        return run_with_protocol(
            sim, machine, clustering, iterations=16, checkpoint_every=6
        )

    result = benchmark(run)
    assert result.checkpointer.stats.local_writes == 16 * 3


def assert_protocol_runs_equal(ref, waved) -> None:
    """Assert two protocol runs are indistinguishable end-to-end:
    bit-identical states and clocks, identical receive counts, and
    channel-identical logs (tags, sizes, payloads)."""
    for rank, (ref_state, wave_state) in enumerate(zip(ref.states, waved.states)):
        for key in ("eta", "u", "v"):
            assert np.array_equal(ref_state[key], wave_state[key]), (
                f"rank {rank}: state field {key!r} diverges"
            )
    assert ref.engine.rank_times() == waved.engine.rank_times(), (
        "virtual clocks diverge"
    )
    assert ref.engine.recv_counts == waved.engine.recv_counts, (
        "receive counts diverge"
    )
    ref_log, wave_log = ref.log, waved.log
    assert sorted(ref_log.channels) == sorted(wave_log.channels), (
        "logged channels diverge"
    )
    for channel, entries in ref_log.channels.items():
        others = wave_log.channels[channel]
        assert len(entries) == len(others), f"log channel {channel} diverges"
        for entry, other in zip(entries, others):
            assert (entry.tag, entry.nbytes) == (other.tag, other.nbytes), (
                f"log channel {channel} diverges"
            )
            if isinstance(entry.payload, np.ndarray):
                assert np.array_equal(entry.payload, other.payload), (
                    f"log channel {channel}: payload diverges"
                )
    assert ref_log.logged_bytes == wave_log.logged_bytes, (
        "logged bytes diverge"
    )


class TestWaveEquivalence:
    """The wave-native protocol run is indistinguishable end-to-end."""

    def test_wave_run_matches_per_message_run(self):
        runs = {}
        for use_waves in (False, True):
            sim, machine, clustering = build_setup(use_waves=use_waves)
            runs[use_waves] = run_with_protocol(
                sim, machine, clustering, iterations=16, checkpoint_every=6
            )
        assert_protocol_runs_equal(runs[False], runs[True])

    def test_wave_run_recovers_identically(self):
        """A node failure after a wave-native run replays (per-message,
        through the ReplayCommunicator fallback) to the same states a
        per-message original run recovers to."""
        recovered = {}
        for use_waves in (False, True):
            sim, machine, clustering = build_setup(use_waves=use_waves)
            protocol_run = run_with_protocol(
                sim, machine, clustering, iterations=16, checkpoint_every=6
            )
            manager = RecoveryManager(sim, machine, protocol_run)
            result = manager.recover(
                FailureEvent(kind="node", nodes=(1,)), failure_iteration=16
            )
            manager.verify_send_determinism(result)
            recovered[use_waves] = result
        ref, waved = recovered[False], recovered[True]
        assert sorted(ref.restarted_ranks) == sorted(waved.restarted_ranks)
        for rank in ref.restarted_ranks:
            np.testing.assert_array_equal(
                ref.recovered_states[rank]["eta"],
                waved.recovered_states[rank]["eta"],
            )


class TestEndToEndProperties:
    def test_protocol_overhead_accounted_in_virtual_time(self):
        sim, machine, clustering = build_setup()
        with_ft = run_with_protocol(
            sim, machine, clustering, iterations=16, checkpoint_every=6
        )
        assert with_ft.checkpointer.stats.total_encode_time_s > 0
        assert with_ft.engine.max_time > 0

    def test_recovery_restart_fraction_matches_model(self):
        """The protocol's actual restart set equals the analytic
        recovery-cost model's prediction."""
        from repro.models import restart_set_for_nodes

        sim, machine, clustering = build_setup()
        protocol_run = run_with_protocol(
            sim, machine, clustering, iterations=16, checkpoint_every=6
        )
        manager = RecoveryManager(sim, machine, protocol_run)
        result = manager.recover(
            FailureEvent(kind="node", nodes=(3,)), failure_iteration=16
        )
        predicted = restart_set_for_nodes(clustering, machine.placement, [3])
        assert sorted(result.restarted_ranks) == sorted(predicted.tolist())

    def test_logged_fraction_matches_graph_model(self):
        """Observed protocol logging equals the CommGraph prediction."""
        from repro.commgraph import graph_from_trace

        sim, machine, clustering = build_setup()
        protocol_run = run_with_protocol(
            sim, machine, clustering, iterations=16, checkpoint_every=6,
            trace=True,
        )
        graph = graph_from_trace(protocol_run.engine.tracer)
        assert protocol_run.logged_fraction_observed == pytest.approx(
            graph.logged_fraction(clustering.l1_labels)
        )
