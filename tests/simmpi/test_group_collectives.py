"""Equivalence suite for group-aware fast collectives on split communicators.

Extends the world-communicator suite (``test_fast_collectives``): every
program here runs its collectives on sub-communicators produced by
``comm.split`` — uneven group sizes, non-power-of-two groups, non-zero
roots, nested splits, concurrent sibling groups — and must be
indistinguishable from ``ReferenceEngine``'s generator cascade: same
results, bit-identical per-rank virtual clocks, byte-identical trace
matrices. Deadlocks that involve a partially-gathered group collective
must be attributed to the stuck group and its missing members.
"""

import numpy as np
import pytest

from repro.simmpi import DeadlockError, Engine
from repro.simmpi.collectives import max_op, sum_op

from networks import assert_collectives_match, two_level_network

SIZES = [4, 6, 8, 12, 16]


@pytest.mark.parametrize("size", SIZES)
class TestSplitCollectiveEquivalence:
    def test_split_allreduce(self, size):
        """The paper's multi-group shape: per-iteration allreduce per group."""

        def program(ctx):
            ctx.advance(0.001 * ctx.rank)
            row = yield from ctx.comm.split(color=ctx.rank // 3)
            total = 0.0
            for _ in range(3):
                total = yield from row.allreduce(float(ctx.rank) + total)
            return (row.comm_id, row.rank, total, ctx.now)

        _, fast = assert_collectives_match(program, size)
        # The split allgather plus the group ops.
        assert fast["engine"].fast_collectives_run > 1

    def test_split_bcast_and_reduce_nonzero_root(self, size):
        def program(ctx):
            half = yield from ctx.comm.split(color=ctx.rank % 2, key=-ctx.rank)
            root = half.size - 1
            obj = np.arange(4) * ctx.rank if half.rank == root else None
            got = yield from half.bcast(obj, root=root)
            top = yield from half.reduce(float(got.sum()), max_op, root=root)
            return (got.tolist(), top, ctx.now)

        assert_collectives_match(program, size)

    def test_split_allgather_alltoall_barrier(self, size):
        def program(ctx):
            ctx.advance(0.002 * ((ctx.rank * 3) % 4))
            grp = yield from ctx.comm.split(color=ctx.rank % 3)
            ids = yield from grp.allgather((ctx.rank, grp.rank))
            vals = [b"y" * (d + grp.rank + 1) for d in range(grp.size)]
            swapped = yield from grp.alltoall(vals)
            yield from grp.barrier()
            return (ids, swapped, ctx.now)

        assert_collectives_match(program, size)

    def test_nested_split(self, size):
        """Splits of splits: grand-child groups fast-path too."""

        def program(ctx):
            half = yield from ctx.comm.split(color=ctx.rank % 2)
            quarter = yield from half.split(color=half.rank % 2)
            a = yield from half.allreduce(ctx.rank + 1)
            b = yield from quarter.allreduce(ctx.rank + 1, max_op)
            return (a, b, ctx.now)

        assert_collectives_match(program, size)

    def test_sibling_groups_price_over_their_own_slice(self, size):
        """Group messages must use the members' *world* ranks against the
        two-level network — clocks diverge if the slice is mislabeled."""

        def program(ctx):
            # Colors stripe across nodes so sibling groups mix intra- and
            # inter-node links differently.
            grp = yield from ctx.comm.split(color=ctx.rank % 2)
            value = np.full(64, float(ctx.rank))
            total = yield from grp.allreduce(value, sum_op)
            return (float(total[0]), ctx.now)

        assert_collectives_match(program, size)


class TestPartialMembership:
    def test_none_color_ranks_skip_the_group(self):
        size = 6

        def program(ctx):
            color = None if ctx.rank >= 4 else 0
            sub = yield from ctx.comm.split(color=color)
            if sub is None:
                return ("outside", ctx.now)
            total = yield from sub.allreduce(ctx.rank)
            return (total, sub.size, ctx.now)

        _, fast = assert_collectives_match(program, size)
        results = fast["results"]
        assert results[5][0] == "outside"
        assert results[0][0] == 0 + 1 + 2 + 3 and results[0][1] == 4

    def test_single_member_group(self):
        size = 3

        def program(ctx):
            solo = yield from ctx.comm.split(color=ctx.rank)
            got = yield from solo.allreduce(ctx.rank * 10)
            yield from solo.barrier()
            return got

        _, fast = assert_collectives_match(program, size)
        assert fast["results"] == [0, 10, 20]


class TestDeadlockAttribution:
    def test_stuck_group_member_is_named(self):
        """Rank 3 never joins its group's allreduce: the deadlock must name
        the stuck group members' group ranks and the missing world rank."""
        size = 4

        def program(ctx):
            grp = yield from ctx.comm.split(color=ctx.rank // 2)
            if ctx.rank == 3:
                # Abandon the group: wait on a message that never comes.
                yield from ctx.comm.recv(source=0, tag=77)
                return None
            return (yield from grp.allreduce(ctx.rank))

        engine = Engine(size, network=two_level_network())
        with pytest.raises(DeadlockError) as err:
            engine.run(program)
        blocked = err.value.blocked
        # Rank 2 is parked on the half-gathered collective of group (2, 3).
        assert 2 in blocked
        assert "gathered 1/2" in blocked[2]
        assert "missing world rank(s) [3]" in blocked[2]
        assert "group rank 0/2" in blocked[2]

    def test_cascade_deadlocks_still_describe_requests(self):
        """Attribution only decorates fast-path collectives; plain p2p
        deadlocks keep the request description."""
        size = 2

        def program(ctx):
            yield from ctx.comm.recv(source=1 - ctx.rank, tag=5)

        engine = Engine(size)
        with pytest.raises(DeadlockError) as err:
            engine.run(program)
        assert all("recv from" in why for why in err.value.blocked.values())


class TestGroupBookkeeping:
    def test_same_split_key_reuses_comm_id_and_group(self):
        size = 4

        def program(ctx):
            a = yield from ctx.comm.split(color=ctx.rank // 2)
            b = yield from ctx.comm.split(color=ctx.rank // 2)
            assert a.comm_id != b.comm_id  # different split sequence
            return (a.comm_id, b.comm_id, a.group, b.group)

        engine = Engine(size)
        results = engine.run(program)
        # All members of one color agree on ids and groups.
        assert results[0] == results[1]
        assert results[2] == results[3]
        for cid, group in ((results[0][0], results[0][2]),
                           (results[2][1], results[2][3])):
            assert engine.group_of(cid) == group

    def test_register_group_rejects_remapping(self):
        from repro.simmpi.errors import MatchingError

        engine = Engine(4)
        engine.register_group(9, (0, 2))
        engine.register_group(9, (0, 2))  # idempotent
        with pytest.raises(MatchingError):
            engine.register_group(9, (1, 3))

    def test_engine_reuse_with_different_split_topology(self):
        """A reused engine must not leak run A's split registrations into
        run B: the new topology gets fresh ids and full fast-path access."""
        size = 4

        def by_parity(ctx):
            grp = yield from ctx.comm.split(color=ctx.rank % 2)
            return (grp.group, (yield from grp.allreduce(ctx.rank)))

        def by_half(ctx):
            grp = yield from ctx.comm.split(color=ctx.rank // 2)
            return (grp.group, (yield from grp.allreduce(ctx.rank)))

        engine = Engine(size)
        assert engine.run(by_parity)[0] == ((0, 2), 2)
        before = engine.fast_collectives_run
        assert engine.run(by_half)[0] == ((0, 1), 1)
        assert engine.fast_collectives_run > before, (
            "second run's split collectives fell off the fast path"
        )

    def test_unregistered_comm_stays_on_cascade(self):
        """A communicator the engine does not know must never fast-path."""
        from repro.simmpi.comm import Communicator

        size = 4

        def program(ctx):
            sub = Communicator(ctx, 57, (0, 1, 2, 3))  # never registered
            if ctx.rank == 99:
                yield None
            return (yield from sub.allreduce(1))

        engine = Engine(size)
        assert engine.run(program) == [4] * 4
        assert engine.fast_collectives_run == 0
