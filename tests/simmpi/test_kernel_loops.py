"""Equivalence, decline and deopt suite for kernelized steady-state loops.

``Communicator.repeat(recipe, iterations)`` offers a whole steady loop to
the engine as one :class:`~repro.simmpi.KernelLoop` op. When the ranks that
do so share an iteration count and form a closed sub-world (purely static
wave traffic that never leaves them), the engine executes their loops in
closed form (no posting, no generator wakeups) however many blocked
bystanders exist and replies ``True``; otherwise it declines — posts
nothing, replies ``False`` — and ``repeat`` runs the loop itself. Both
outcomes must be indistinguishable from writing the loop out by hand:
identical results, bit-identical per-rank virtual clocks, byte-identical
traces. Every deopt reason is exercised here and counted via
``Engine.kernel_deopts``; :class:`~repro.simmpi.ReferenceEngine` declines
every loop, so its run is the program's own loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simmpi import (
    ANY_SOURCE,
    Engine,
    KernelLoop,
    Post,
    ReferenceEngine,
    TraceRecorder,
)
from repro.simmpi.collectives import sum_op
from repro.simmpi.errors import MatchingError

from networks import (
    RING_BYTES,
    RING_TAG,
    assert_matches_reference,
    assert_runs_equal,
    interpreted_ring_program,
    kernel_ring_program,
    ring_recipe,
    run_engine,
    two_level_network,
)


def hand_loop(comm, recipe, iterations):
    """``recipe`` run ``iterations`` times written out by hand: ``isend`` /
    ``irecv`` in recipe order, then one ``wait`` per receive."""
    for _ in range(iterations):
        recvs = []
        for p in recipe:
            if p.send:
                yield from comm.isend(
                    p.buffer, p.peer, p.tag, nbytes=p.nbytes, kind=p.kind
                )
            else:
                recvs.append((yield from comm.irecv(p.peer, p.tag)))
        for req in recvs:
            yield from comm.wait(req)


def repeat_or_hand(build, iterations):
    """Program factory: ``build(comm)`` gives the recipe, run
    ``iterations`` times (or ``iterations(rank)``); ``kernel`` picks
    ``comm.repeat`` over the hand-written loop."""

    def factory(kernel):
        def program(ctx):
            comm = ctx.comm
            n = iterations(ctx.rank) if callable(iterations) else iterations
            if kernel:
                yield from comm.repeat(build(comm), n)
            else:
                yield from hand_loop(comm, build(comm), n)
            return n

        return program

    return factory


class TestKernelEquivalence:
    @pytest.mark.parametrize("size,iterations", [(2, 1), (4, 5), (8, 12)])
    def test_matches_interpreted_loop(self, size, iterations):
        ref = run_engine(interpreted_ring_program(iterations), size)
        kern = run_engine(kernel_ring_program(iterations), size)
        assert_runs_equal(ref, kern, "kernel vs hand-written loop")
        assert kern["engine"].kernel_runs == 1
        assert kern["engine"].kernel_iterations == iterations
        assert kern["engine"].kernel_deopts == {}

    def test_interpreted_kernel_op_matches_too(self, size=4, iterations=6):
        """``ReferenceEngine`` declines every loop: ``repeat`` runs it."""
        ref = run_engine(interpreted_ring_program(iterations), size)
        declined = run_engine(
            kernel_ring_program(iterations), size, engine_cls=ReferenceEngine
        )
        assert_runs_equal(ref, declined, "declined repeat vs loop")
        assert declined["engine"].kernel_runs == 0
        assert declined["engine"].kernel_deopts.get("engine-gated") == size

    @pytest.mark.parametrize("receives", [True, False])
    def test_repeat_equals_hand_written_loop(self, receives):
        """Closed-form on ``Engine``, declined on ``ReferenceEngine``, and
        written out by hand: one run. Without receives, even ranks' recipes
        are send-only (``repeat`` then yields no drain) and odd ranks'
        receive-only."""

        def build(comm):
            if receives:
                return ring_recipe(comm)
            if comm.rank % 2 == 0:
                return (Post(True, comm.rank + 1, RING_TAG, RING_BYTES, "ring"),)
            return (Post(False, comm.rank - 1, RING_TAG),)

        factory = repeat_or_hand(build, 5)
        hand = run_engine(factory(False), 4)
        assert max(hand["clocks"]) > 0
        _, kern = assert_matches_reference(factory(True), 4)
        assert_runs_equal(hand, kern, "repeat vs hand-written loop")
        assert kern["engine"].kernel_runs == 1
        assert kern["engine"].kernel_iterations == 5

    def test_declined_loop_posts_nothing_before_replying(self):
        """A declined loop replies ``False`` with nothing posted: the
        posting-sequence counter, the pool's live slots and the tracer
        totals are what they were at the yield. Held-then-declined
        (``Engine``: payload-capturing sends) and declined on the spot
        (``ReferenceEngine``) alike; the first rank resumed after the
        hold is checked, since later ones follow its posts."""

        def program(ctx):
            comm = ctx.comm
            engine = ctx.engine
            tracer = engine.tracer
            recipe = (
                Post(True, (comm.rank + 1) % comm.size, 9, 32, "ring",
                     np.full(4, float(ctx.rank))),
                Post(False, (comm.rank - 1) % comm.size, 9),
            )
            start, drain = comm.wave(recipe)

            def snapshot():
                return (
                    engine._seq,
                    engine.pool.live_slots,
                    tracer.total_messages,
                    tracer.total_bytes,
                )

            before = snapshot()
            reply = yield KernelLoop(start, drain, 3)
            after = snapshot()
            for _ in range(3):
                yield start
                yield drain
            return reply, before == after

        for engine_cls in (Engine, ReferenceEngine):
            out = run_engine(program, 3, engine_cls=engine_cls)
            assert [reply for reply, _ in out["results"]] == [False] * 3
            assert out["results"][0][1], engine_cls.__name__
            if engine_cls is ReferenceEngine:
                assert all(same for _, same in out["results"])
            assert out["engine"].kernel_runs == 0
            assert out["tracer"].total_messages == 9

    def test_sequential_kernels_reuse_the_compiled_kernel(self):
        """Chunked loops (one recipe, several ``repeat`` calls) hit the
        kernel cache: one compilation, one run per chunk."""

        def program(ctx):
            recipe = ring_recipe(ctx.comm)
            for chunk in (3, 4):
                yield from ctx.comm.repeat(recipe, chunk)
            return ctx.rank

        ref = run_engine(interpreted_ring_program(7), 4)
        kern = run_engine(program, 4)
        assert_runs_equal(ref, kern, "chunked kernels vs loop")
        assert kern["engine"].kernel_runs == 2
        assert kern["engine"].kernel_iterations == 7
        assert len(kern["engine"]._kernel_cache) == 1

    def test_allreduce_after_repeat(self):
        """A loop then a trailing allreduce: the kernel runs closed-form
        and the allreduce takes the fast collective path, same results,
        clocks and traces as the hand-written loop on the cascade."""

        def program(kernel):
            def run(ctx):
                comm = ctx.comm
                recipe = ring_recipe(comm)
                if kernel:
                    yield from comm.repeat(recipe, 4)
                else:
                    yield from hand_loop(comm, recipe, 4)
                return (yield from comm.allreduce(float(ctx.rank), sum_op))

            return run

        hand = run_engine(program(False), 4, engine_cls=ReferenceEngine)
        _, kern = assert_matches_reference(program(True), 4)
        assert_runs_equal(hand, kern, "repeat + allreduce vs hand loop")
        assert kern["results"] == [6.0] * 4
        assert kern["engine"].kernel_runs == 1
        assert kern["engine"].fast_collectives_run == 1


class TestKernelDeopts:
    def test_engine_gated_by_message_log(self):
        iterations = 4

        class Log:
            def __init__(self):
                self.entries = []

            def wants(self, src, dst):
                return True

            def record(self, src, dst, tag, payload, nbytes, kind):
                self.entries.append((src, dst, tag, nbytes, kind))

        def with_log(engine_cls):
            tracer = TraceRecorder(4, by_kind=True)
            engine = engine_cls(4, network=two_level_network(), tracer=tracer)
            engine.message_log = Log()
            results = engine.run(kernel_ring_program(iterations))
            return {
                "results": results,
                "clocks": engine.rank_times(),
                "tracer": tracer,
                "engine": engine,
            }

        gated = with_log(Engine)
        declined = with_log(ReferenceEngine)
        assert_runs_equal(declined, gated, "message_log gating")
        assert gated["engine"].kernel_runs == 0
        assert gated["engine"].kernel_deopts.get("engine-gated") == 4
        assert (
            gated["engine"].message_log.entries
            == declined["engine"].message_log.entries
        )

    def test_partial_world_deopts(self):
        """Ranks looping by hand leave the held half open: its ring sends
        land on ranks outside it."""
        iterations = 5

        def mixed(kernel_half):
            def program(ctx):
                comm = ctx.comm
                recipe = ring_recipe(comm)
                if kernel_half and ctx.rank % 2 == 0:
                    yield from comm.repeat(recipe, iterations)
                else:
                    yield from hand_loop(comm, recipe, iterations)
                return ctx.rank

            return program

        ref = run_engine(mixed(False), 4)
        _, kern = assert_matches_reference(mixed(True), 4)
        assert_runs_equal(ref, kern, "partial world")
        assert kern["engine"].kernel_runs == 0
        assert kern["engine"].kernel_deopts == {"external-destination": 1}

    def test_iteration_mismatch_deopts(self):
        """Unequal iteration counts run the program's loops (self-traffic
        so the program stays matched either way)."""
        factory = repeat_or_hand(
            lambda comm: (
                Post(True, comm.rank, 3, 64, "self"),
                Post(False, comm.rank, 3),
            ),
            lambda rank: 2 + rank,
        )
        ref = run_engine(factory(False), 3)
        _, kern = assert_matches_reference(factory(True), 3)
        assert_runs_equal(ref, kern, "iteration mismatch")
        assert kern["engine"].kernel_runs == 0
        assert kern["engine"].kernel_deopts.get("iteration-mismatch") == 1

    def test_wildcard_recv_deopts(self):
        factory = repeat_or_hand(
            lambda comm: (
                Post(True, (comm.rank + 1) % comm.size, RING_TAG, 256, "ring"),
                Post(False, ANY_SOURCE, RING_TAG),
            ),
            3,
        )
        ref = run_engine(factory(False), 4)
        _, kern = assert_matches_reference(factory(True), 4)
        assert_runs_equal(ref, kern, "wildcard recv")
        assert kern["engine"].kernel_runs == 0
        assert kern["engine"].kernel_deopts.get("wildcard-recv") == 1

    def test_cached_rejection_counts_every_release(self):
        """A chunked loop whose signature was rejected once keeps
        deopting from the cache — and keeps being counted."""

        def program(ctx):
            for chunk in (2, 3, 4):
                yield from ctx.comm.repeat((), chunk)

        engine = run_engine(program, 1)["engine"]
        assert engine.kernel_runs == 0
        assert engine.kernel_deopts == {"no-traffic": 3}

    def test_capture_send_deopts(self):
        """Payload-capturing sends can change per iteration — the kernel
        refuses them and the program's loop posts the real payloads."""
        factory = repeat_or_hand(
            lambda comm: (
                Post(True, (comm.rank + 1) % comm.size, 9, 32, "ring",
                     np.full(4, float(comm.rank))),
                Post(False, (comm.rank - 1) % comm.size, 9),
            ),
            2,
        )
        ref = run_engine(factory(False), 4)
        _, kern = assert_matches_reference(factory(True), 4)
        assert_runs_equal(ref, kern, "capture send")
        assert kern["engine"].kernel_runs == 0
        assert kern["engine"].kernel_deopts.get("capture-send") == 1

    def test_no_traffic_deopts(self):
        """A single-rank world with an empty recipe: declined, and the
        fallback posts the empty wave without a drain."""

        def program(ctx):
            yield from ctx.comm.repeat((), 4)
            return "done"

        out = run_engine(program, 1)
        assert out["results"] == ["done"]
        assert out["engine"].kernel_runs == 0
        assert out["engine"].kernel_deopts.get("no-traffic") == 1


DONE_TAG = 50
TOKEN_TAG = 51
PING_TAG = 52
PONG_TAG = 53


def report_done_in_ring_order(comm, members, gatherers):
    """Post-loop tail of a member: send one done message to every gatherer,
    serialized along the ring by a token. Members leave a loop in whatever
    order the schedule drains them (the kernel resumes them as one
    ascending batch, the program's own loops as their matching unwinds),
    so racing sends to a wildcard receive may legally arbitrate either way;
    the token makes the arrival order causal, hence comparable."""
    at = members.index(comm.rank)
    if at:
        yield from comm.recv(source=members[at - 1], tag=TOKEN_TAG)
    for dest in gatherers:
        yield from comm.send(None, dest=dest, tag=DONE_TAG, nbytes=64)
    if at + 1 < len(members):
        yield from comm.send(None, dest=members[at + 1], tag=TOKEN_TAG)


def gather_done(comm, members):
    """A gatherer's whole program: one wildcard receive per member,
    returning the sources in arbitration order."""
    order = []
    for _ in members:
        _, status = yield from comm.recv_status(source=ANY_SOURCE, tag=DONE_TAG)
        order.append(status.source)
    return order


def sub_world_program(members, iterations, bystander, *, allreduce=True, tail=None):
    """``members`` split off a sub-communicator and ``repeat`` a ring
    closed over themselves on the world communicator (then an allreduce on
    the sub-communicator when ``allreduce``), then ``tail``; every other
    rank runs ``bystander``."""

    def program(ctx):
        comm = ctx.comm
        inside = ctx.rank in members
        sub = yield from comm.split(color=0 if inside else None, key=ctx.rank)
        ctx.advance(1e-6 * ctx.rank)  # skewed clocks: the folds must matter
        if not inside:
            return (yield from bystander(ctx))
        yield from comm.repeat(ring_recipe(comm, members), iterations)
        reduced = None
        if allreduce:
            reduced = yield from sub.allreduce(float(ctx.rank), sum_op)
        after = None if tail is None else (yield from tail(ctx))
        return reduced, after

    return program


class TestClosedSubWorld:
    """Held ranks execute closed-form whenever they are a closed
    sub-world; blocked bystanders neither veto the kernel nor see it."""

    def test_bystander_parked_on_wildcard_for_whole_loop(self):
        """The fig5 encoder shape: a wildcard gather parked throughout the
        loop, fed once the members leave it — same arbitration order."""
        members = [3, 0, 4, 1]

        def bystander(ctx):
            return (yield from gather_done(ctx.comm, members))

        def tail(ctx):
            yield from report_done_in_ring_order(ctx.comm, members, [2])

        _, kern = assert_matches_reference(
            sub_world_program(members, 6, bystander, tail=tail), 5
        )
        assert kern["results"][2] == members
        engine = kern["engine"]
        assert engine.kernel_runs == 1
        assert engine.kernel_iterations == 6
        assert engine.kernel_deopts == {}

    def test_bystander_woken_after_the_loop(self):
        """A bystander waiting on a message one member sends *after* its
        loop stays blocked through the kernel, then wakes and answers."""
        members = [1, 2, 3]

        def bystander(ctx):
            comm = ctx.comm
            ping = yield from comm.recv(source=2, tag=PING_TAG)
            yield from comm.send(ping + ctx.rank, dest=1, tag=PONG_TAG)
            return ping

        def tail(ctx):
            comm = ctx.comm
            if ctx.rank == 2:
                for dest in (0, 4):
                    yield from comm.send(100, dest=dest, tag=PING_TAG)
            if ctx.rank == 1:
                first = yield from comm.recv(source=ANY_SOURCE, tag=PONG_TAG)
                second = yield from comm.recv(source=ANY_SOURCE, tag=PONG_TAG)
                return [first, second]

        _, kern = assert_matches_reference(
            sub_world_program(members, 5, bystander, allreduce=False, tail=tail), 5
        )
        engine = kern["engine"]
        assert engine.kernel_runs == 1
        assert engine.kernel_iterations == 5
        assert engine.kernel_deopts == {}

    def test_bystander_in_the_trailing_allreduce_runs_closed_form(self):
        """A bystander already parked in the world allreduce the members
        join after their loop: it sends nothing into the loop, so the
        members still run closed-form and the allreduce completes after."""
        members = [0, 1, 2]

        def program(ctx):
            comm = ctx.comm
            if ctx.rank in members:
                yield from comm.repeat(ring_recipe(comm, members), 4)
            return (yield from comm.allreduce(float(ctx.rank), sum_op))

        _, kern = assert_matches_reference(program, 4)
        assert kern["results"] == [6.0] * 4
        assert kern["engine"].kernel_runs == 1
        assert kern["engine"].kernel_deopts == {}

    def test_stray_message_in_a_member_mailbox_deopts(self):
        """A bystander's message sitting unexpected in a member's mailbox
        on the kernel's communicator declines the loop."""
        members = [0, 1, 2]

        def bystander(ctx):
            comm = ctx.comm
            yield from comm.send("stray", dest=0, tag=PING_TAG)
            return (yield from comm.recv(source=0, tag=PONG_TAG))

        def tail(ctx):
            comm = ctx.comm
            if ctx.rank == 0:
                stray = yield from comm.recv(source=3, tag=PING_TAG)
                yield from comm.send(stray + "!", dest=3, tag=PONG_TAG)
                return stray

        _, kern = assert_matches_reference(
            sub_world_program(members, 3, bystander, tail=tail), 4
        )
        engine = kern["engine"]
        assert engine.kernel_runs == 0
        assert engine.kernel_deopts == {"mailbox-busy": 1}

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_ring_sub_worlds_with_blocked_bystanders(self, data):
        """Any ring over a subset of the world, in any ring order, with or
        without an allreduce after ``repeat``, and every other rank
        blocked — on a wildcard gather fed by all members after the loop,
        or on one member's post-loop ping it answers — runs closed-form and
        matches the reference's declined loops, post-loop wildcard
        arbitration included."""
        size = data.draw(st.integers(3, 9), label="size")
        members = data.draw(
            st.lists(
                st.integers(0, size - 1),
                min_size=2,
                max_size=size - 1,
                unique=True,
            ),
            label="ring",
        )
        iterations = data.draw(st.integers(1, 6), label="iterations")
        allreduce = data.draw(st.booleans(), label="allreduce")
        outside = [r for r in range(size) if r not in members]
        # Waiters name the member whose ping they wait for; gatherers
        # (None) park on a wildcard for every member's done message.
        roles = {
            r: data.draw(
                st.one_of(st.none(), st.sampled_from(members)), label=f"role{r}"
            )
            for r in outside
        }
        gatherers = [r for r in outside if roles[r] is None]
        pingers = {
            m: [r for r in outside if roles[r] == m] for m in members
        }

        def bystander(ctx):
            comm = ctx.comm
            peer = roles[ctx.rank]
            if peer is None:
                return (yield from gather_done(comm, members))
            ping = yield from comm.recv(source=peer, tag=PING_TAG)
            yield from comm.send(ping + 1, dest=peer, tag=PONG_TAG)
            return ping

        def tail(ctx):
            comm = ctx.comm
            yield from report_done_in_ring_order(comm, members, gatherers)
            for dest in pingers[ctx.rank]:
                yield from comm.send(ctx.rank, dest=dest, tag=PING_TAG)
            pongs = []
            for _ in pingers[ctx.rank]:
                pongs.append(
                    (yield from comm.recv(source=ANY_SOURCE, tag=PONG_TAG))
                )
            return pongs

        _, kern = assert_matches_reference(
            sub_world_program(
                members, iterations, bystander, allreduce=allreduce, tail=tail
            ),
            size,
        )
        engine = kern["engine"]
        assert engine.kernel_runs == 1
        assert engine.kernel_iterations == iterations
        assert engine.kernel_deopts == {}


class TestKernelValidation:
    def test_zero_iterations_rejected(self):
        def program(ctx):
            start, drain = ctx.comm.wave(ring_recipe(ctx.comm))
            yield KernelLoop(start, drain, 0)

        with pytest.raises(MatchingError):
            run_engine(program, 2)

    def test_wrong_op_types_rejected(self):
        def program(ctx):
            start, drain = ctx.comm.wave(ring_recipe(ctx.comm))
            yield KernelLoop(drain, start, 2)

        with pytest.raises(MatchingError):
            run_engine(program, 2)
