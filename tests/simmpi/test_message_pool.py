"""Edge cases of the struct-of-arrays message pool and persistent waves.

The pool's contract: a slot is live from send post to receive consumption,
observers only ever see :class:`MessageView` snapshots, recycled slots can
never corrupt completed receives, capacity grows transparently, and the
whole store pickles (the campaign runner's process pool ships owning
objects between processes).
"""

import pickle

import numpy as np
import pytest

from repro.simmpi import (
    ANY_SOURCE,
    ANY_TAG,
    Engine,
    EngineConfig,
    MessagePool,
    ReferenceEngine,
    TraceRecorder,
)
from repro.simmpi.errors import MatchingError
from repro.simmpi.request import COMPLETED_SEND, UNPRICED

from networks import two_level_network  # same-directory module


class TestSlotLifecycle:
    def test_slot_reuse_after_wildcard_receive(self):
        """A wildcard-consumed slot is recycled for later traffic while the
        earlier receive's view stays intact."""
        engine = Engine(
            3, network=two_level_network(), config=EngineConfig(pool_capacity=1)
        )

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.isend(b"first", dest=2, tag=5)
            elif ctx.rank == 1:
                yield from ctx.comm.isend(b"second", dest=2, tag=9)
            else:
                first, st1 = yield from ctx.comm.recv_status(
                    source=ANY_SOURCE, tag=ANY_TAG
                )
                second, st2 = yield from ctx.comm.recv_status(
                    source=ANY_SOURCE, tag=ANY_TAG
                )
                # Wildcards drain in posting order; the first view must
                # survive the slot being recycled for the second message.
                return (first, st1.source, st1.tag, second, st2.source, st2.tag)

        results = engine.run(program)
        assert results[2] == (b"first", 0, 5, b"second", 1, 9)
        # Every slot is back on the free list once the run drains.
        assert engine.pool.live_slots == 0

    def test_self_send_arrives_at_local_clock(self):
        """Self-sends cost no transfer time and flow through the pool."""
        engine = Engine(2, network=two_level_network())

        def program(ctx):
            yield from ctx.comm.isend(b"local", dest=ctx.rank, tag=1)
            ctx.advance(0.25)
            got = yield from ctx.comm.recv(source=ctx.rank, tag=1)
            return (got, ctx.now)

        assert engine.run(program) == [(b"local", 0.25)] * 2
        assert engine.pool.live_slots == 0

    def test_growth_past_initial_capacity(self):
        """Many in-flight messages double the pool transparently."""
        size = 8
        rounds = 6
        engine = Engine(
            size, network=two_level_network(), config=EngineConfig(pool_capacity=2)
        )

        def program(ctx):
            reqs = []
            for r in range(rounds):
                for dst in range(size):
                    yield from ctx.comm.isend(
                        (ctx.rank, r, dst), dest=dst, tag=r
                    )
            for r in range(rounds):
                for src in range(size):
                    reqs.append((yield from ctx.comm.irecv(source=src, tag=r)))
            payloads = yield from ctx.comm.waitall(reqs)
            return payloads

        results = engine.run(program)
        assert engine.pool.capacity >= size * size
        assert engine.pool.live_slots == 0
        for rank, payloads in enumerate(results):
            assert payloads == [
                (src, r, rank) for r in range(rounds) for src in range(size)
            ]

    def test_unconsumed_messages_recycle_on_next_run(self):
        """Fire-and-forget traffic releases its slots at the next run()."""
        engine = Engine(
            2, network=two_level_network(), config=EngineConfig(pool_capacity=4)
        )

        def fire_and_forget(ctx):
            yield from ctx.comm.isend(None, dest=1 - ctx.rank, tag=7, nbytes=32)
            return ctx.now

        engine.run(fire_and_forget)
        assert engine.pool.live_slots == 2  # parked unexpected, never consumed
        assert engine.run(fire_and_forget) == [0.0, 0.0]
        assert engine.pool.live_slots == 2  # this run's two, not four


class TestRecipeConsistency:
    def test_engine_inline_post_matches_pool_post(self):
        """The engine inlines MessagePool.post's column writes on its hot
        path; this pins the two copies of the recipe to each other. If a
        column is added to one, this test fails until both agree."""
        from repro.simmpi.request import UNPRICED

        reference = MessagePool(capacity=8)
        ref_slot = reference.post(
            1, 0, 7, 0, b"pinned", len(b"pinned"), 0.5, UNPRICED, 0, "halo"
        )

        engine = Engine(
            2, network=two_level_network(), config=EngineConfig(pool_capacity=8)
        )

        def program(ctx):
            if ctx.rank == 1:
                ctx.advance(0.5)
                yield from ctx.comm.isend(b"pinned", dest=0, tag=7, kind="halo")
            else:
                yield from ctx.comm.barrier()
            if ctx.rank == 1:
                yield from ctx.comm.barrier()

        engine.run(program)
        pool = engine.pool
        # The engine's message landed in some slot; find it via payload.
        slot = pool.payload.index(b"pinned")
        for column in ("src", "dst", "tag", "comm_id", "nbytes", "send_time"):
            assert getattr(pool, column)[slot] == getattr(reference, column)[ref_slot], column
        assert pool.kind[slot] == reference.kind[ref_slot]
        # Both recipes leave batched-path messages unpriced... except the
        # engine's wave flush already priced this one; the reference is
        # still the sentinel.
        assert reference.arrival[ref_slot] == UNPRICED
        assert pool.arrival[slot] >= 0.5

    def test_engine_inline_consume_matches_pool_consume(self):
        """Same contract for the consume recipe: view fields and slot
        cleanup must match MessagePool.consume exactly."""
        reference = MessagePool(capacity=8)
        ref_slot = reference.post(0, 1, 3, 0, b"x" * 9, 9, 0.0, 2.25, 5, "p2p")
        ref_view = reference.consume(ref_slot)

        engine = Engine(
            2, network=two_level_network(), config=EngineConfig(pool_capacity=8)
        )
        holder = {}

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.isend(b"x" * 9, dest=1, tag=3)
            else:
                req = yield from ctx.comm.irecv(source=0, tag=3)
                yield from ctx.comm.wait(req)
                holder["view"] = req.view

        engine.run(program)
        view = holder["view"]
        assert (view.src, view.tag, view.nbytes, view.payload) == (
            ref_view.src,
            ref_view.tag,
            ref_view.nbytes,
            ref_view.payload,
        )
        # Consumed slots drop their payload/kind refs in both recipes.
        assert reference.payload[ref_slot] is None
        assert reference.kind[ref_slot] is None
        assert b"x" * 9 not in engine.pool.payload
        assert engine.pool.live_slots == 0


class TestFailureInjection:
    def test_requeued_traffic_to_failed_rank_does_not_leak_forward(self):
        """Messages addressed to a failed rank park in its mailbox for the
        rest of the run; the next run starts from a fully-free pool and a
        fresh matching state, so the stale traffic can never be matched."""
        engine = Engine(
            3, network=two_level_network(), config=EngineConfig(pool_capacity=2)
        )
        engine.failure_ranks.add(2)

        def program(ctx):
            yield from ctx.comm.isend(("to", 2, ctx.rank), dest=2, tag=3)
            return ctx.rank

        results = engine.run(program)
        assert results == [0, 1, None]
        assert engine.pool.live_slots == 2  # both undeliverable messages

        engine.failure_ranks.clear()

        def clean(ctx):
            got = yield from ctx.comm.sendrecv(
                ctx.rank, dest=(ctx.rank + 1) % 3, source=(ctx.rank - 1) % 3,
                sendtag=3,
            )
            return got

        # Same tag as the stale traffic: a leak would mis-deliver ("to", 2, …).
        assert engine.run(clean) == [2, 0, 1]

    def test_failed_sender_vs_cascade_reference(self):
        """Failure injection sees identical message flow on the pool engine
        and on ``ReferenceEngine``'s per-send scalar pricing."""
        outcomes = []
        for engine_cls in (ReferenceEngine, Engine):
            engine = engine_cls(4, network=two_level_network())
            engine.failure_ranks.add(1)

            def program(ctx):
                yield from ctx.comm.isend(ctx.rank * 10, dest=(ctx.rank + 1) % 4)
                if ctx.rank == 2:
                    got = yield from ctx.comm.recv(source=1)
                    return got
                return ctx.rank

            with pytest.raises(Exception) as excinfo:
                engine.run(program)
            outcomes.append(type(excinfo.value).__name__)
        # Rank 1 dies before sending, so rank 2 deadlocks — identically.
        assert outcomes == ["DeadlockError", "DeadlockError"]


class TestPickleSafety:
    def test_pool_roundtrips_with_live_messages(self):
        pool = MessagePool(capacity=4)
        slot = pool.post(0, 1, 7, 0, b"payload", 64, 1.5, UNPRICED, 3, "p2p")
        clone = pickle.loads(pickle.dumps(pool))
        assert clone.capacity == pool.capacity
        assert clone.free == pool.free
        for column in ("src", "dst", "tag", "comm_id", "nbytes", "send_time",
                       "arrival", "seq"):
            np.testing.assert_array_equal(
                getattr(clone, column), getattr(pool, column)
            )
        assert clone.payload[slot] == b"payload"
        view = clone.consume(slot)
        assert (view.src, view.tag, view.nbytes) == (0, 7, 64)

    def test_engine_roundtrips_before_run(self):
        """A configured engine ships to worker processes and runs there.

        (Engines that have already executed hold exhausted rank generators
        and do not pickle — the campaign runner builds engines inside the
        workers, which is the shape this test pins.)
        """
        from repro.simmpi import zero_latency_network

        engine = Engine(
            4, network=zero_latency_network(), config=EngineConfig(pool_capacity=8)
        )
        clone = pickle.loads(pickle.dumps(engine))

        def program(ctx):
            got = yield from ctx.comm.sendrecv(
                ctx.rank, dest=(ctx.rank + 1) % 4, source=(ctx.rank - 1) % 4
            )
            return got

        assert clone.run(program) == [3, 0, 1, 2]
        assert clone.pool.live_slots == 0


class TestPersistentWaves:
    def test_restart_while_in_flight_raises(self):
        engine = Engine(2, network=two_level_network())

        def program(ctx):
            comm = ctx.comm
            if ctx.rank == 0:
                recv = comm.recv_init(source=1, tag=4)
                yield from comm.start_all([recv])
                # Restarting before the (never-sent) message arrives:
                yield from comm.start_all([recv])
            else:
                yield from comm.barrier()

        with pytest.raises(MatchingError, match="still in flight"):
            engine.run(program)

    def test_restart_of_unwaited_completion_raises(self):
        """Restarting after the message matched but before the wait would
        silently drop the delivered message and leak its slot — refuse."""
        engine = Engine(2, network=two_level_network())

        def program(ctx):
            comm = ctx.comm
            if ctx.rank == 0:
                yield from ctx.comm.send(b"m1", dest=1, tag=4)
                yield from ctx.comm.send(b"m2", dest=1, tag=4)
            else:
                recv = comm.recv_init(source=0, tag=4)
                yield from comm.start_all([recv])
                yield from comm.barrier()  # m1 has matched recv by now
                yield from comm.start_all([recv])
            if ctx.rank == 0:
                yield from ctx.comm.barrier()

        with pytest.raises(MatchingError, match="never waited on"):
            engine.run(program)

    def test_wait_on_inactive_persistent_recv_is_noop(self):
        """MPI semantics: waiting on a never-started persistent request
        completes immediately with an empty result — through waitall,
        single wait, and wait_status alike."""
        engine = Engine(2, network=two_level_network())

        def program(ctx):
            recv = ctx.comm.recv_init(source=1 - ctx.rank, tag=9)
            (payload,) = yield from ctx.comm.waitall([recv])
            single = yield from ctx.comm.wait(recv)
            empty, status = yield from ctx.comm.wait_status(recv)
            ctx.advance(0.125)
            return (
                payload,
                single,
                empty,
                (status.source, status.tag, status.nbytes),
                ctx.now,
            )

        expected = (None, None, None, (ANY_SOURCE, ANY_TAG, 0), 0.125)
        assert engine.run(program) == [expected] * 2

    def test_start_all_rejects_plain_requests(self):
        engine = Engine(2, network=two_level_network())

        def program(ctx):
            req = yield from ctx.comm.irecv(source=1 - ctx.rank)
            yield from ctx.comm.start_all([req])

        with pytest.raises(MatchingError, match="non-persistent"):
            engine.run(program)

    def test_send_handles_are_shared_and_complete(self):
        engine = Engine(2, network=two_level_network())

        def program(ctx):
            req = yield from ctx.comm.isend(None, dest=1 - ctx.rank, nbytes=8)
            assert req is COMPLETED_SEND and req.done
            got = yield from ctx.comm.recv(source=1 - ctx.rank)
            return got

        assert engine.run(program) == [None, None]

    def test_wave_matches_per_message_program(self):
        """Persistent waves and isend/irecv/wait sequences are one
        workload: identical results, clocks and traces."""
        size = 6
        records = []
        for flavor in ("permsg", "wave"):
            tracer = TraceRecorder(size, by_kind=True)
            engine = Engine(size, network=two_level_network(), tracer=tracer)

            def permsg(ctx):
                right = (ctx.rank + 1) % size
                left = (ctx.rank - 1) % size
                total = 0.0
                for _ in range(4):
                    yield from ctx.comm.isend(
                        None, dest=right, tag=2, nbytes=128, kind="ring"
                    )
                    req = yield from ctx.comm.irecv(source=left, tag=2)
                    got = yield from ctx.comm.waitall([req])
                    ctx.advance(1e-6)
                    total += ctx.now
                return total

            def wave(ctx):
                comm = ctx.comm
                right = (ctx.rank + 1) % size
                left = (ctx.rank - 1) % size
                send = comm.send_init(None, dest=right, tag=2, nbytes=128, kind="ring")
                recv = comm.recv_init(source=left, tag=2)
                start = comm.start_all_op((send, recv))
                drain = comm.waitall_op((recv,))
                total = 0.0
                for _ in range(4):
                    yield start
                    yield drain
                    ctx.advance(1e-6)
                    total += ctx.now
                return total

            program = permsg if flavor == "permsg" else wave
            results = engine.run(program)
            records.append(
                {"results": results, "clocks": engine.rank_times(), "tracer": tracer}
            )
        ref, waved = records
        assert ref["results"] == waved["results"]
        assert ref["clocks"] == waved["clocks"]
        np.testing.assert_array_equal(
            ref["tracer"].bytes_matrix, waved["tracer"].bytes_matrix
        )
        np.testing.assert_array_equal(
            ref["tracer"].count_matrix, waved["tracer"].count_matrix
        )

    def test_wildcard_persistent_recv(self):
        """Persistent receives accept wildcard patterns and re-arm."""
        engine = Engine(3, network=two_level_network())

        def program(ctx):
            comm = ctx.comm
            if ctx.rank == 2:
                recv = comm.recv_init(source=ANY_SOURCE, tag=ANY_TAG)
                drain = comm.waitall_op((recv,))
                got = []
                for _ in range(4):
                    yield comm.start_all_op((recv,))
                    (payload,) = yield drain
                    got.append(payload)
                    st = recv.status()
                    got.append((st.source, st.tag))
                return got
            for i in range(2):
                yield from ctx.comm.send(
                    (ctx.rank, i), dest=2, tag=10 * ctx.rank + i
                )
            return None

        results = engine.run(program)
        payloads = results[2][0::2]
        sources = [s for s, _ in results[2][1::2]]
        assert sorted(payloads) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert sorted(sources) == [0, 0, 1, 1]

    def test_waitall_with_duplicate_request(self):
        """Listing the same request twice must behave like the old
        sequential waits: one completion satisfies both occurrences."""
        engine = Engine(2, network=two_level_network())

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.isend(b"once", dest=1, tag=2)
                return None
            req = yield from ctx.comm.irecv(source=0, tag=2)
            first, second = yield from ctx.comm.waitall([req, req])
            return (first, second)

        assert engine.run(program)[1] == (b"once", b"once")

    def test_preposted_recv_does_not_double_wake_waitall(self):
        """A receive pre-posted for a *later* message must not re-wake a
        rank whose waitall already completed: the spurious second schedule
        used to resume the exhausted generator and clobber its result.

        Timeline: rank 2 pre-posts a receive for rank 0's message, then
        blocks on a waitall satisfied by rank 3 (which steps after rank 2
        in the same batch). Rank 0, woken into the next batch by rank 1,
        steps *before* rank 2's legitimate resume and completes the
        pre-posted receive while rank 2 still shows a done-but-unconsumed
        waitall as blocked_on.
        """
        engine = Engine(4, network=two_level_network())

        def program(ctx):
            comm = ctx.comm
            if ctx.rank == 0:
                yield from comm.recv(source=1, tag=5)
                yield from comm.isend(b"late", dest=2, tag=99)
                return "r0"
            if ctx.rank == 1:
                yield from comm.isend(None, dest=0, tag=5, nbytes=8)
                return "r1"
            if ctx.rank == 2:
                early = yield from comm.irecv(source=0, tag=99)
                ring = yield from comm.irecv(source=3, tag=1)
                (first,) = yield from comm.waitall([ring])
                late = yield from comm.wait(early)
                return ("ok", first, late)
            yield from comm.isend(b"ring", dest=2, tag=1)
            return "r3"

        assert engine.run(program) == [
            "r0",
            "r1",
            ("ok", b"ring", b"late"),
            "r3",
        ]

    def test_wave_failure_injection_matches_per_message(self):
        """A rank killed mid-wave must leave the run in exactly the state
        the per-message path leaves it in: same deadlock (or completion),
        same blocked ranks, same number of stranded pool slots.

        ``kill_at=0`` kills the rank at its very first wave start (nothing
        posted); ``kill_at=2`` kills it between steady-state iterations —
        its in-flight wave has been drained, its next start is dropped,
        and neighbors strand exactly like they do on isend/irecv/wait.
        """
        from repro.simmpi.errors import DeadlockError

        def wave_program(kill_at):
            def program(ctx):
                comm = ctx.comm
                size = ctx.nranks
                right, left = (ctx.rank + 1) % size, (ctx.rank - 1) % size
                send = comm.send_init(None, dest=right, tag=2, nbytes=64)
                recv = comm.recv_init(source=left, tag=2)
                start = comm.start_all_op((send, recv))
                drain = comm.waitall_op((recv,))
                for i in range(4):
                    if ctx.rank == 1 and i == kill_at:
                        ctx.engine.failure_ranks.add(ctx.rank)
                    yield start
                    yield drain
                return ctx.now

            return program

        def permsg_program(kill_at):
            def program(ctx):
                comm = ctx.comm
                size = ctx.nranks
                right, left = (ctx.rank + 1) % size, (ctx.rank - 1) % size
                for i in range(4):
                    if ctx.rank == 1 and i == kill_at:
                        ctx.engine.failure_ranks.add(ctx.rank)
                    yield from comm.isend(None, dest=right, tag=2, nbytes=64)
                    req = yield from comm.irecv(source=left, tag=2)
                    yield from comm.waitall([req])
                return ctx.now

            return program

        for kill_at in (0, 2):
            outcomes = []
            for make in (permsg_program, wave_program):
                engine = Engine(4, network=two_level_network())
                try:
                    engine.run(make(kill_at))
                    outcomes.append(("completed", None, engine.pool.live_slots))
                except DeadlockError as exc:
                    outcomes.append(
                        ("deadlock", sorted(exc.blocked), engine.pool.live_slots)
                    )
            assert outcomes[0] == outcomes[1], f"kill_at={kill_at}"
            # Rank 1's death must strand someone — the scenario is live.
            assert outcomes[0][0] == "deadlock"

    def test_wave_traffic_to_failed_rank_requeues_like_per_message(self):
        """Wave sends parked in a failed rank's mailbox stay stranded for
        the run and are dropped by the next run's reset — exactly the
        per-message requeue/drop contract pinned in TestFailureInjection."""
        engine = Engine(
            3, network=two_level_network(), config=EngineConfig(pool_capacity=2)
        )
        engine.failure_ranks.add(2)

        def fire_wave(ctx):
            send = ctx.comm.send_init(("to", 2, ctx.rank), dest=2, tag=3)
            yield ctx.comm.start_all_op((send,))
            return ctx.rank

        results = engine.run(fire_wave)
        assert results == [0, 1, None]
        assert engine.pool.live_slots == 2  # both undeliverable messages

        engine.failure_ranks.clear()

        def clean(ctx):
            got = yield from ctx.comm.sendrecv(
                ctx.rank, dest=(ctx.rank + 1) % 3, source=(ctx.rank - 1) % 3,
                sendtag=3,
            )
            return got

        # Same tag as the stale wave traffic: a leak would mis-deliver.
        assert engine.run(clean) == [2, 0, 1]
        assert engine.pool.live_slots == 0  # stale slots were reclaimed

    def test_status_before_wait_raises(self):
        engine = Engine(2, network=two_level_network())

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.isend(b"x", dest=1, tag=1)
                return None
            req = yield from ctx.comm.irecv(source=0, tag=1)
            with pytest.raises(RuntimeError, match="before"):
                req.status()
            payload, status = yield from ctx.comm.wait_status(req)
            return (payload, status.source, status.nbytes)

        assert engine.run(program)[1] == (b"x", 0, 1)
