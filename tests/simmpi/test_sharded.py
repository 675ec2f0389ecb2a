"""Sharded multi-process engine: byte-identity, invariance, deadlocks.

The contract under test: for any in-tree workload, a sharded run must be
*exactly* the single-process run — byte-identical trace matrices,
bit-identical per-rank virtual clocks, equal results — for every shard
count and every worker count (including ``workers=0``, the in-process
host over the same window protocol).
"""

import numpy as np
import pytest

from repro.apps import HeatConfig, SpectralConfig, TsunamiConfig
from repro.apps.workload import (
    ExecutionMode,
    HeatWorkload,
    ProgramsWorkload,
    SpectralWorkload,
    TsunamiWorkload,
    fig5_workload,
    with_mode,
)
from repro.simmpi import (
    DeadlockError,
    Engine,
    EngineConfig,
    ShardedEngine,
    TraceRecorder,
    partition_workload,
)

from networks import two_level_network  # same-directory module


def _reference(workload):
    """The single-process run every sharded run must equal, priced on the
    placement-aware two-level network so clock equality is not vacuous."""
    tracer = TraceRecorder(workload.nranks, by_kind=True)
    engine = Engine(workload.nranks, network=two_level_network(), tracer=tracer)
    states = engine.run(workload.build_programs())
    clocks = engine.rank_times()
    assert max(clocks) > 0.0
    return states, clocks, tracer


def _sharded(workload, shards, workers=0):
    tracer = TraceRecorder(workload.nranks, by_kind=True)
    engine = ShardedEngine(
        shards, workers=workers, network=two_level_network(), tracer=tracer
    )
    states = engine.run(workload)
    return states, engine.rank_times(), tracer, engine


def _assert_tracers_equal(a, b):
    np.testing.assert_array_equal(a.bytes_matrix, b.bytes_matrix)
    np.testing.assert_array_equal(a.count_matrix, b.count_matrix)
    assert sorted(a.kind_matrices) == sorted(b.kind_matrices)
    for kind in a.kind_matrices:
        np.testing.assert_array_equal(
            a.kind_matrices[kind], b.kind_matrices[kind]
        )


def _heat_workload(**kw):
    defaults = dict(px=2, py=4, nx=16, ny=32, iterations=8)
    defaults.update(kw)
    return HeatWorkload(HeatConfig(**defaults))


class TestPartitioner:
    def test_balanced_contiguous(self):
        parts = partition_workload(_heat_workload(), 4)
        assert parts == [(0, 1), (2, 3), (4, 5), (6, 7)]

    def test_single_shard_owns_world(self):
        parts = partition_workload(_heat_workload(), 1)
        assert parts == [tuple(range(8))]

    def test_atoms_never_split(self):
        """FTI node blocks (encoder + its app ranks) stay co-resident."""
        workload = fig5_workload(nodes=4, app_per_node=4, iterations=2)
        atoms = workload.shard_atoms()
        for shards in (2, 3, 4):
            for part in partition_workload(workload, shards):
                covered = set(part)
                for atom in atoms:
                    assert (
                        set(atom) <= covered or not covered & set(atom)
                    ), f"atom {atom} split by {part}"

    def test_more_shards_than_atoms_rejected(self):
        workload = fig5_workload(nodes=2, app_per_node=2, iterations=2)
        with pytest.raises(ValueError, match="indivisible atom"):
            partition_workload(workload, 3)

    def test_uneven_split_stays_balanced(self):
        def idle(ctx):
            if False:
                yield

        workload = ProgramsWorkload([idle] * 10)
        parts = partition_workload(workload, 4)
        assert [len(p) for p in parts] == [3, 2, 3, 2]
        assert sorted(r for p in parts for r in p) == list(range(10))

    def test_bad_atoms_rejected(self):
        def idle(ctx):
            if False:
                yield

        workload = ProgramsWorkload([idle] * 4, atoms=[(0, 1), (1, 2, 3)])
        with pytest.raises(ValueError, match="exactly once"):
            partition_workload(workload, 2)


class TestByteIdentity:
    """Sharded == single-process, exactly, on every in-tree workload."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_heat_real_payload(self, shards):
        workload = _heat_workload()
        ref_states, ref_clocks, ref_tracer = _reference(workload)
        states, clocks, tracer, _ = _sharded(workload, shards)
        assert clocks == ref_clocks
        _assert_tracers_equal(tracer, ref_tracer)
        for state, ref in zip(states, ref_states):
            np.testing.assert_array_equal(state["t"], ref["t"])

    @pytest.mark.parametrize("shards", [2, 4])
    def test_tsunami_cross_shard_allreduce(self, shards):
        workload = TsunamiWorkload(
            TsunamiConfig(
                px=2, py=4, nx=16, ny=32, iterations=8, allreduce_every=3
            )
        )
        ref_states, ref_clocks, ref_tracer = _reference(workload)
        states, clocks, tracer, engine = _sharded(workload, shards)
        assert clocks == ref_clocks
        _assert_tracers_equal(tracer, ref_tracer)
        assert engine.fast_collectives_run > 0  # allreduces crossed shards
        for state, ref in zip(states, ref_states):
            np.testing.assert_array_equal(state["eta"], ref["eta"])

    def test_spectral_all_to_all(self):
        workload = SpectralWorkload(
            SpectralConfig(nranks=8, n=16, iterations=3)
        )
        _, ref_clocks, ref_tracer = _reference(workload)
        _, clocks, tracer, _ = _sharded(workload, 4)
        assert clocks == ref_clocks
        _assert_tracers_equal(tracer, ref_tracer)

    @pytest.mark.parametrize("shards", [1, 4])
    def test_fig5_world(self, shards):
        """The §V control traffic: wildcard gathers, checkpoint rings."""
        workload = fig5_workload(
            nodes=4, app_per_node=4, iterations=6, checkpoint_every=2
        )
        _, ref_clocks, ref_tracer = _reference(workload)
        _, clocks, tracer, _ = _sharded(workload, shards)
        assert clocks == ref_clocks
        _assert_tracers_equal(tracer, ref_tracer)

    def test_counters_aggregate(self):
        workload = _heat_workload()
        _, _, _, engine = _sharded(workload, 2)
        single = Engine(workload.nranks)
        single.run(workload.build_programs())
        assert engine.kernel_iterations == single.kernel_iterations


class TestFig5KernelCoverage:
    """The §V shape runs its whole steady state closed-form: the app ranks
    are a closed sub-world, the encoders parked on their readiness
    gathers are bystanders."""

    @staticmethod
    def _workload(mode=ExecutionMode.KERNELS):
        workload = fig5_workload(
            nodes=4, app_per_node=4, iterations=20, checkpoint_every=5
        )
        workload.sim_cfg = with_mode(workload.sim_cfg, mode)
        return workload

    def test_every_segment_executes_as_a_kernel(self):
        workload = self._workload()
        tracer = TraceRecorder(workload.nranks, by_kind=True)
        engine = Engine(workload.nranks, network=two_level_network(), tracer=tracer)
        states = engine.run(workload.build_programs())
        clocks = engine.rank_times()
        assert engine.kernel_runs == 4  # one per checkpoint segment
        assert engine.kernel_iterations == 20
        assert engine.kernel_deopts == {}
        for mode in (ExecutionMode.WAVES, ExecutionMode.PER_MESSAGE):
            ref_states, ref_clocks, ref_tracer = _reference(self._workload(mode))
            assert states == ref_states
            assert clocks == ref_clocks
            _assert_tracers_equal(tracer, ref_tracer)

    def test_one_inline_shard_reports_the_same_coverage(self):
        _, _, _, engine = _sharded(self._workload(), 1)
        assert engine.kernel_runs == 4
        assert engine.kernel_iterations == 20
        assert engine.kernel_deopts == {}

    def test_two_shards_deopt_on_the_cut(self, monkeypatch):
        """The stencil crosses the shard cut, so no held set is closed;
        every held release is counted, cached rejections included."""
        _, ref_clocks, ref_tracer = _reference(self._workload())
        releases = []
        release = Engine._release_held_kernels

        def counting(shard):
            releases.append(shard)
            return release(shard)

        monkeypatch.setattr(Engine, "_release_held_kernels", counting)
        _, clocks, tracer, engine = _sharded(self._workload(), 2)
        assert clocks == ref_clocks
        _assert_tracers_equal(tracer, ref_tracer)
        assert engine.kernel_iterations == 0
        assert engine.kernel_deopts == {"external-destination": len(releases)}
        assert len({id(shard) for shard in releases}) == 2

    def test_reused_engine_accumulates_every_counter(self):
        engine = ShardedEngine(2)

        def counters():
            return (
                engine.windows_run,
                sum(engine.kernel_deopts.values()),
                engine.fast_collectives_run,
            )

        engine.run(self._workload())
        first = counters()
        assert all(first)
        engine.run(self._workload())
        assert counters() == tuple(2 * count for count in first)


class TestWorkerInvariance:
    """Identical observables whether shards run in-process or in workers."""

    @pytest.mark.parametrize("workers", [0, 1, 2, 4])
    def test_fig5_worker_count(self, workers):
        workload = fig5_workload(nodes=4, app_per_node=4, iterations=4)
        _, ref_clocks, ref_tracer = _reference(workload)
        _, clocks, tracer, _ = _sharded(workload, 4, workers)
        assert clocks == ref_clocks
        _assert_tracers_equal(tracer, ref_tracer)


def _recv_from_one(ctx):
    message = yield from ctx.comm.recv(source=1, tag=7)
    return message


def _recv_from_zero(ctx):
    message = yield from ctx.comm.recv(source=0, tag=7)
    return message


def _allreduce_member(ctx):
    total = yield from ctx.comm.allreduce(ctx.rank)
    return total


def _never_joins(ctx):
    if False:
        yield
    return None


class TestDeadlocks:
    def test_cross_shard_p2p_cycle(self):
        engine = ShardedEngine(2)
        with pytest.raises(DeadlockError) as err:
            engine.run(ProgramsWorkload([_recv_from_one, _recv_from_zero]))
        assert set(err.value.blocked) == {0, 1}
        assert "recv from 1" in err.value.blocked[0]

    def test_cross_shard_collective_names_missing_member(self):
        """The stuck group's attribution carries the *global* gather."""
        programs = [
            _allreduce_member,
            _allreduce_member,
            _never_joins,
            _allreduce_member,
        ]
        engine = ShardedEngine(2)
        with pytest.raises(DeadlockError) as err:
            engine.run(ProgramsWorkload(programs))
        assert set(err.value.blocked) == {0, 1, 3}
        for description in err.value.blocked.values():
            assert "gathered 3/4" in description
            assert "missing world rank(s) [2]" in description

    def test_deadlock_through_worker_process(self):
        """Module-level programs pickle, so the worker path deadlocks too."""
        engine = ShardedEngine(2, workers=2)
        with pytest.raises(DeadlockError) as err:
            engine.run(ProgramsWorkload([_recv_from_one, _recv_from_zero]))
        assert set(err.value.blocked) == {0, 1}


class TestValidation:
    def test_interleaving_exploration_rejected(self):
        with pytest.raises(ValueError, match="single-process only"):
            ShardedEngine(2, config=EngineConfig(schedule_seed=7))

    def test_non_workload_rejected(self):
        engine = ShardedEngine(1)
        with pytest.raises(TypeError, match="ProgramsWorkload"):
            engine.run([lambda ctx: iter(())])

    def test_tracer_size_mismatch_rejected(self):
        engine = ShardedEngine(1, tracer=TraceRecorder(4))
        with pytest.raises(ValueError, match="tracer covers 4"):
            engine.run(_heat_workload())

    def test_unpicklable_workload_needs_inline_host(self):
        captured = {}

        def closure(ctx):
            captured["ran"] = True
            if False:
                yield

        workload = ProgramsWorkload([closure, closure])
        with pytest.raises(TypeError, match="workers=0"):
            ShardedEngine(2, workers=2).run(workload)
        ShardedEngine(2, workers=0).run(workload)  # inline host accepts it
        assert captured["ran"]

    def test_bad_shard_and_worker_counts(self):
        with pytest.raises(ValueError):
            ShardedEngine(0)
        with pytest.raises(ValueError):
            ShardedEngine(2, workers=-1)


class TestConfigReplication:
    def test_per_message_config_is_replicated_to_shards(self):
        """A non-default EngineConfig reaches every shard engine."""
        workload = _heat_workload(iterations=4)
        config = EngineConfig(
            use_batched_p2p=False, use_kernels=False, pool_capacity=8
        )
        ref_tracer = TraceRecorder(workload.nranks, by_kind=True)
        Engine(workload.nranks, config=config, tracer=ref_tracer).run(
            workload.build_programs()
        )
        tracer = TraceRecorder(workload.nranks, by_kind=True)
        engine = ShardedEngine(2, config=config, tracer=tracer)
        engine.run(workload)
        _assert_tracers_equal(tracer, ref_tracer)
        assert engine.kernel_runs == 0  # kernels disabled everywhere
