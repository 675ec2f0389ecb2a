"""Equivalence and deopt suite for kernelized steady-state loops.

A rank program can hand the engine its whole steady loop as one
:class:`~repro.simmpi.KernelLoop` op. When the ranks that do so share an
iteration count and form a closed sub-world (purely static wave traffic
that never leaves them), the engine compiles their iteration into a
closed-form kernel (no posting, no generator wakeups) however many
blocked bystanders exist; otherwise it deopts to the interpreted
micro-step expansion. Both paths must be indistinguishable from writing
the loop out by hand: identical results, bit-identical per-rank virtual
clocks, byte-identical traces. Every deopt reason is exercised here and
counted via ``Engine.kernel_deopts``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simmpi import ANY_SOURCE, Engine, KernelLoop, ReferenceEngine, TraceRecorder
from repro.simmpi.collectives import max_op, sum_op
from repro.simmpi.errors import MatchingError

from networks import (
    RING_TAG,
    assert_matches_reference,
    assert_runs_equal,
    interpreted_ring_program,
    kernel_ring_program,
    ring_ops,
    run_engine,
    two_level_network,
)


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
        """``ReferenceEngine`` still executes the op — via micro-steps."""
        ref = run_engine(interpreted_ring_program(iterations), size)
        micro = run_engine(
            kernel_ring_program(iterations), size, engine_cls=ReferenceEngine
        )
        assert_runs_equal(ref, micro, "micro-step kernel op vs loop")
        assert micro["engine"].kernel_runs == 0
        assert micro["engine"].kernel_deopts.get("engine-gated") == size

    def test_sequential_kernels_reuse_the_compiled_kernel(self):
        """Chunked loops (same ops, several KernelLoop yields) hit the
        kernel cache: one compilation, one run per chunk."""

        def program(ctx):
            start, drain = ring_ops(ctx.comm)
            for chunk in (3, 4):
                yield KernelLoop(start, drain, chunk)
            return "ok"

        def interpreted(ctx):
            start, drain = ring_ops(ctx.comm)
            for _ in range(7):
                yield start
                yield drain
            return "ok"

        ref = run_engine(interpreted, 4)
        kern = run_engine(program, 4)
        assert_runs_equal(ref, kern, "chunked kernels vs loop")
        assert kern["engine"].kernel_runs == 2
        assert kern["engine"].kernel_iterations == 7

    def test_fused_collective_window(self):
        """A trailing allreduce rides in the kernel's fused window and the
        per-rank result comes back through the (results, window) reply."""

        def kernelized(ctx):
            comm = ctx.comm
            start, drain = ring_ops(comm)
            _, window = yield KernelLoop(
                start, drain, 4, (comm.allreduce_op(float(ctx.rank), sum_op),)
            )
            return window[0]

        def interpreted(ctx):
            comm = ctx.comm
            start, drain = ring_ops(comm)
            for _ in range(4):
                yield start
                yield drain
            total = yield from comm.allreduce(float(ctx.rank), sum_op)
            return total

        ref = run_engine(interpreted, 4)
        kern = run_engine(kernelized, 4)
        assert_runs_equal(ref, kern, "fused window vs trailing allreduce")
        assert kern["results"] == [6.0] * 4
        assert kern["engine"].kernel_runs == 1

    def test_multi_collective_window(self):
        """Back-to-back same-group collectives fuse into one window."""

        def kernelized(ctx):
            comm = ctx.comm
            start, drain = ring_ops(comm)
            _, window = yield KernelLoop(
                start,
                drain,
                3,
                (
                    comm.allreduce_op(float(ctx.rank), sum_op),
                    comm.allreduce_op(float(ctx.rank), max_op),
                ),
            )
            return window

        def interpreted(ctx):
            comm = ctx.comm
            start, drain = ring_ops(comm)
            for _ in range(3):
                yield start
                yield drain
            total = yield from comm.allreduce(float(ctx.rank), sum_op)
            peak = yield from comm.allreduce(float(ctx.rank), max_op)
            return [total, peak]

        ref = run_engine(interpreted, 4)
        kern = run_engine(kernelized, 4)
        assert_runs_equal(ref, kern, "two-collective window")
        assert kern["results"] == [[6.0, 3.0]] * 4

    def test_results_are_final_iteration_payloads(self):
        """The reply is the last drain's payload list (captured sends
        deliver real payloads; intermediate iterations are discarded)."""

        def program(ctx):
            comm = ctx.comm
            start, drain = ring_ops(comm)
            results = yield KernelLoop(start, drain, 3)
            return results

        out = run_engine(program, 2)
        # Synthetic (metadata-only) waves drain ``None`` payloads.
        assert out["results"] == [[None]] * 2


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
        micro = with_log(ReferenceEngine)
        assert_runs_equal(micro, gated, "message_log gating")
        assert gated["engine"].kernel_runs == 0
        assert gated["engine"].kernel_deopts.get("engine-gated") == 4
        assert (
            gated["engine"].message_log.entries
            == micro["engine"].message_log.entries
        )

    def test_partial_world_deopts(self):
        """Ranks looping by hand leave the held half open: its ring sends
        land on ranks outside it."""
        iterations = 5

        def mixed(kernel_half):
            def program(ctx):
                start, drain = ring_ops(ctx.comm)
                if kernel_half and ctx.rank % 2 == 0:
                    yield KernelLoop(start, drain, iterations)
                else:
                    for _ in range(iterations):
                        yield start
                        yield drain
                return ctx.rank

            return program

        ref = run_engine(mixed(False), 4)
        kern = run_engine(mixed(True), 4)
        assert_runs_equal(ref, kern, "partial world")
        assert kern["engine"].kernel_runs == 0
        assert kern["engine"].kernel_deopts == {"external-destination": 1}

    def test_iteration_mismatch_deopts(self):
        """Unequal iteration counts interpret correctly (self-traffic so
        the program stays matched either way)."""

        def self_program(kernel):
            def program(ctx):
                comm = ctx.comm
                send = comm.send_init(
                    None, dest=comm.rank, tag=3, nbytes=64, kind="self"
                )
                recv = comm.recv_init(source=comm.rank, tag=3)
                start = comm.start_all_op((send, recv))
                drain = comm.waitall_op((recv,))
                n = 2 + ctx.rank
                if kernel:
                    yield KernelLoop(start, drain, n)
                else:
                    for _ in range(n):
                        yield start
                        yield drain
                return n

            return program

        ref = run_engine(self_program(False), 3)
        kern = run_engine(self_program(True), 3)
        assert_runs_equal(ref, kern, "iteration mismatch")
        assert kern["engine"].kernel_runs == 0
        assert kern["engine"].kernel_deopts.get("iteration-mismatch") == 1

    def test_wildcard_recv_deopts(self):
        def wild(kernel):
            def program(ctx):
                comm = ctx.comm
                right = (comm.rank + 1) % comm.size
                send = comm.send_init(
                    None, dest=right, tag=RING_TAG, nbytes=256, kind="ring"
                )
                recv = comm.recv_init(source=ANY_SOURCE, tag=RING_TAG)
                start = comm.start_all_op((send, recv))
                drain = comm.waitall_op((recv,))
                if kernel:
                    yield KernelLoop(start, drain, 3)
                else:
                    for _ in range(3):
                        yield start
                        yield drain
                return None

            return program

        ref = run_engine(wild(False), 4)
        kern = run_engine(wild(True), 4)
        assert_runs_equal(ref, kern, "wildcard recv")
        assert kern["engine"].kernel_runs == 0
        assert kern["engine"].kernel_deopts.get("wildcard-recv") == 1

    def test_cached_rejection_counts_every_release(self):
        """A chunked loop whose signature was rejected once keeps
        deopting from the cache — and keeps being counted."""

        def program(ctx):
            start = ctx.comm.start_all_op(())
            drain = ctx.comm.waitall_op(())
            for chunk in (2, 3, 4):
                yield KernelLoop(start, drain, chunk)

        engine = run_engine(program, 1)["engine"]
        assert engine.kernel_runs == 0
        assert engine.kernel_deopts == {"no-traffic": 3}

    def test_capture_send_deopts(self):
        """Payload-capturing sends can change per iteration — the kernel
        refuses them and the micro-step path delivers real payloads."""

        def captured(kernel):
            def program(ctx):
                comm = ctx.comm
                right = (comm.rank + 1) % comm.size
                left = (comm.rank - 1) % comm.size
                buf = np.full(4, float(ctx.rank))
                send = comm.send_init(buf, dest=right, tag=9, kind="ring")
                recv = comm.recv_init(source=left, tag=9)
                start = comm.start_all_op((send, recv))
                drain = comm.waitall_op((recv,))
                if kernel:
                    results = yield KernelLoop(start, drain, 2)
                else:
                    for _ in range(2):
                        yield start
                        results = yield drain
                return [float(r[0]) for r in results]

            return program

        ref = run_engine(captured(False), 4)
        kern = run_engine(captured(True), 4)
        assert_runs_equal(ref, kern, "capture send")
        assert kern["results"] == [[3.0], [0.0], [1.0], [2.0]]
        assert kern["engine"].kernel_runs == 0
        assert kern["engine"].kernel_deopts.get("capture-send") == 1

    def test_no_traffic_deopts(self):
        """A single-rank world with an empty wave spins interpretively."""

        def program(ctx):
            comm = ctx.comm
            start = comm.start_all_op(())
            drain = comm.waitall_op(())
            yield KernelLoop(start, drain, 4)
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
    ascending batch, the interpreted expansion as its matching unwinds), so
    racing sends to a wildcard receive may legally arbitrate either way;
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


def sub_world_program(members, iterations, bystander, *, window=True, tail=None):
    """``members`` split off a sub-communicator and run a KernelLoop ring
    closed over themselves on the world communicator (with a trailing
    allreduce on the sub-communicator when ``window``), then ``tail``;
    every other rank runs ``bystander``."""

    def program(ctx):
        comm = ctx.comm
        inside = ctx.rank in members
        sub = yield from comm.split(color=0 if inside else None, key=ctx.rank)
        ctx.advance(1e-6 * ctx.rank)  # skewed clocks: the folds must matter
        if not inside:
            return (yield from bystander(ctx))
        start, drain = ring_ops(comm, members)
        if window:
            reduced = yield from loop_then_allreduce(
                sub, start, drain, iterations, float(ctx.rank)
            )
        else:
            reduced = yield KernelLoop(start, drain, iterations)
        after = None if tail is None else (yield from tail(ctx))
        return reduced, after

    return program


def loop_then_allreduce(comm, start, drain, iterations, value):
    """A KernelLoop followed by an allreduce on ``comm``: fused into the
    loop's collective window where the engine takes fast collectives, a
    plain allreduce after the loop on the cascade (the same tags, traces
    and clocks either way, as the apps do)."""
    if comm.collective_windows_ok():
        colls = (comm.allreduce_op(value, sum_op),)
        _, window = yield KernelLoop(start, drain, iterations, colls)
        return window[0]
    yield KernelLoop(start, drain, iterations)
    return (yield from comm.allreduce(value, sum_op))


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
            sub_world_program(members, 5, bystander, window=False, tail=tail), 5
        )
        engine = kern["engine"]
        assert engine.kernel_runs == 1
        assert engine.kernel_iterations == 5
        assert engine.kernel_deopts == {}

    def test_bystander_in_the_windows_gather_deopts(self):
        """A bystander already parked in the world allreduce the members'
        window also names: the window cannot gather its group from the
        held ranks alone."""
        members = [0, 1, 2]

        def program(ctx):
            comm = ctx.comm
            if ctx.rank not in members:
                return (yield from comm.allreduce(float(ctx.rank), sum_op))
            start, drain = ring_ops(comm, members)
            return (
                yield from loop_then_allreduce(comm, start, drain, 4, float(ctx.rank))
            )

        _, kern = assert_matches_reference(program, 4)
        assert kern["results"] == [6.0] * 4
        assert kern["engine"].kernel_runs == 0
        assert kern["engine"].kernel_deopts == {"window-mismatch": 1}

    def test_stray_message_in_a_member_mailbox_deopts(self):
        """A bystander's message sitting unexpected in a member's mailbox
        on the kernel's communicator keeps the loop interpreted."""
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
        without a trailing window, and every other rank blocked — on a
        wildcard gather fed by all members after the loop, or on one
        member's post-loop ping it answers — runs closed-form and matches
        the interpreted reference, post-loop wildcard arbitration
        included."""
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
        window = data.draw(st.booleans(), label="window")
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
                members, iterations, bystander, window=window, tail=tail
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
            start, drain = ring_ops(ctx.comm)
            yield KernelLoop(start, drain, 0)

        with pytest.raises(MatchingError):
            run_engine(program, 2)

    def test_wrong_op_types_rejected(self):
        def program(ctx):
            start, drain = ring_ops(ctx.comm)
            yield KernelLoop(drain, start, 2)

        with pytest.raises(MatchingError):
            run_engine(program, 2)
