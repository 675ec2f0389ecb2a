"""Engine-equivalence suite: fast-path collectives vs the generator cascade.

Every test runs the same rank program twice — once on
``ReferenceEngine`` (the point-to-point cascade reference) and once on
the production ``Engine`` with its vectorized fast path — under a
non-trivial two-level network, and asserts the runs are
indistinguishable: same results, same per-rank virtual clocks (exact
float equality), same trace matrices (bytes, counts, per-kind), with and
without failure injection.
"""

import numpy as np
import pytest

from repro.apps import ExecutionMode, fig5_workload
from repro.apps.workload import with_mode
from repro.simmpi import (
    DeadlockError,
    Engine,
    EngineConfig,
    ReferenceEngine,
)
from repro.simmpi.collectives import max_op, sum_op

from networks import assert_collectives_match, two_level_network

SIZES = [2, 3, 4, 5, 8, 13]


@pytest.mark.parametrize("size", SIZES)
class TestCollectiveEquivalence:
    def test_bcast(self, size):
        root = size - 1

        def program(ctx):
            ctx.advance(0.001 * ctx.rank)  # staggered entry clocks
            obj = {"w": np.arange(6) + 1, "n": 3} if ctx.rank == root else None
            got = yield from ctx.comm.bcast(obj, root=root)
            return got

        assert_collectives_match(program, size)

    def test_reduce_nonzero_root(self, size):
        root = size // 2

        def program(ctx):
            ctx.advance(0.002 * ((ctx.rank * 7) % 5))
            value = np.full(4, ctx.rank + 1, dtype=np.float64)
            return (yield from ctx.comm.reduce(value, sum_op, root=root))

        assert_collectives_match(program, size)

    def test_allreduce(self, size):
        def program(ctx):
            ctx.advance(0.0005 * ctx.rank)
            return (yield from ctx.comm.allreduce(float(ctx.rank), max_op))

        assert_collectives_match(program, size)

    def test_allgather(self, size):
        def program(ctx):
            ctx.advance(0.001 * (size - ctx.rank))
            return (yield from ctx.comm.allgather((ctx.rank, ctx.rank * 2)))

        assert_collectives_match(program, size)

    def test_allgather_array_payloads(self, size):
        def program(ctx):
            block = np.arange(ctx.rank + 1, dtype=np.int64)
            return (yield from ctx.comm.allgather(block))

        assert_collectives_match(program, size)

    def test_alltoall(self, size):
        def program(ctx):
            values = [
                {"from": ctx.rank, "to": d, "pad": b"x" * (d + 1)}
                for d in range(size)
            ]
            return (yield from ctx.comm.alltoall(values))

        assert_collectives_match(program, size)

    def test_barrier_then_clock_sensitive_send(self, size):
        def program(ctx):
            ctx.advance(0.01 * ctx.rank)
            yield from ctx.comm.barrier()
            # Post-barrier p2p ring: arrival times depend on the barrier's
            # exact per-rank exit clocks, so clock drift would surface here.
            dst = (ctx.rank + 1) % size
            src = (ctx.rank - 1) % size
            yield from ctx.comm.isend(None, dest=dst, tag=1, nbytes=512)
            yield from ctx.comm.recv(source=src, tag=1)
            return ctx.now

        assert_collectives_match(program, size)

    def test_back_to_back_collectives(self, size):
        def program(ctx):
            total = yield from ctx.comm.allreduce(ctx.rank + 1)
            everyone = yield from ctx.comm.allgather(total)
            top = yield from ctx.comm.reduce(max(everyone), max_op, root=0)
            return (yield from ctx.comm.bcast(top, root=0))

        assert_collectives_match(program, size)


class TestMixedPrograms:
    def test_collectives_interleaved_with_p2p_and_split(self):
        size = 8

        def program(ctx):
            comm = ctx.comm
            ctx.advance(0.003 * (ctx.rank % 3))
            ids = yield from comm.allgather(ctx.rank)
            row = yield from comm.split(color=ctx.rank // 4, key=ctx.rank)
            # Sub-communicator collectives fast-path too (group-aware).
            row_sum = yield from row.allreduce(ctx.rank)
            partner = ctx.rank ^ 1
            yield from comm.isend(row_sum, dest=partner, tag=3)
            other = yield from comm.recv(source=partner, tag=3)
            total = yield from comm.allreduce(other)
            return (ids, row_sum, total, ctx.now)

        assert_collectives_match(program, size)

    def test_world_sized_split_fast_paths_as_its_own_group(self):
        """A split covering all ranks yields a non-world comm id; its group
        is registered at split time, so its collectives fast-path too —
        equivalently to the cascade."""
        size = 4

        def program(ctx):
            clone = yield from ctx.comm.split(color=0, key=ctx.rank)
            assert clone.comm_id != 0
            return (yield from clone.allreduce(ctx.rank))

        _, fast = assert_collectives_match(program, size)
        # The split's world allgather plus the clone's allreduce.
        assert fast["engine"].fast_collectives_run == 2

    def test_fig5_world(self):
        """The §V world's per-message programs: halo p2p, wildcard
        ready-gathers, encoder rings and the world allgather."""
        workload = fig5_workload(
            nodes=4, app_per_node=4, iterations=3, checkpoint_every=2
        )
        workload.sim_cfg = with_mode(
            workload.sim_cfg, ExecutionMode.PER_MESSAGE
        )
        assert_collectives_match(workload.build_programs(), workload.nranks)


class TestFailureInjection:
    def test_bcast_with_failed_root_behaves_identically(self):
        size = 4

        def program(ctx):
            return (yield from ctx.comm.bcast("payload", root=0))

        for engine_cls in (ReferenceEngine, Engine):
            engine = engine_cls(size, network=two_level_network())
            engine.failure_ranks.add(0)
            with pytest.raises(DeadlockError):
                engine.run(program)
            assert engine.fast_collectives_run == 0

    def test_allreduce_with_failure_matches_cascade(self):
        """A failure forces the cascade on both variants; survivors (none
        here reach completion) and the error shape must agree."""
        size = 4

        def program(ctx):
            if ctx.rank == 3:
                yield from ctx.comm.isend(None, dest=3, tag=9)
                yield from ctx.comm.recv(source=3, tag=9)
                return "local"
            return (yield from ctx.comm.allreduce(ctx.rank))

        outcomes = []
        for engine_cls in (ReferenceEngine, Engine):
            engine = engine_cls(size, network=two_level_network())
            engine.failure_ranks.add(1)
            try:
                engine.run(program)
                outcomes.append(("ok", None))
            except DeadlockError as err:
                outcomes.append(("deadlock", sorted(err.blocked)))
        assert outcomes[0] == outcomes[1]

    def test_failure_free_ranks_unaffected(self):
        size = 3

        def program(ctx):
            if ctx.rank == 2:
                if False:
                    yield
                return "bystander"
            yield from ctx.comm.isend("x", dest=1 - ctx.rank, tag=0)
            got = yield from ctx.comm.recv(source=1 - ctx.rank, tag=0)
            return got

        for engine_cls in (ReferenceEngine, Engine):
            engine = engine_cls(size)
            results = engine.run(program)
            assert results == ["x", "x", "bystander"]


class TestEligibilityGates:
    def _collective_program(self, ctx):
        return (yield from ctx.comm.allreduce(1))

    def test_message_log_forces_cascade(self):
        class LogAll:
            def __init__(self):
                self.records = []

            def wants(self, src, dst):
                return True

            def record(self, *args):
                self.records.append(args)

        engine = Engine(4)
        log = LogAll()
        engine.message_log = log
        assert engine.run(self._collective_program) == [4] * 4
        assert engine.fast_collectives_run == 0
        assert log.records, "cascade messages must reach the payload log"

    def test_recv_count_tracking_forces_cascade(self):
        engine = Engine(4, config=EngineConfig(track_recv_counts=True))
        assert engine.run(self._collective_program) == [4] * 4
        assert engine.fast_collectives_run == 0
        assert sum(engine.recv_counts.values()) > 0

    def test_recv_counts_not_tracked_by_default(self):
        engine = Engine(4)
        engine.run(self._collective_program)
        assert engine.recv_counts == {}

    def test_fast_path_active_by_default(self):
        engine = Engine(4)
        assert engine.run(self._collective_program) == [4] * 4
        assert engine.fast_collectives_run == 1
