"""Engine-level failure injection (the RankFailedError path)."""

import pytest

from repro.simmpi import (
    DeadlockError,
    Engine,
    Post,
    RankFailedError,
    ReferenceEngine,
    TraceRecorder,
)


class TestFailureRanks:
    def test_failed_rank_terminates_without_result(self):
        """Failure strikes at the rank's next communication point."""
        engine = Engine(2)
        engine.failure_ranks.add(1)

        def program(ctx):
            yield from ctx.comm.isend(ctx.rank, dest=ctx.rank, tag=0)
            return f"done-{ctx.rank}"

        results = engine.run(program)
        assert results[0] == "done-0"
        assert results[1] is None

    def test_purely_local_program_outruns_the_failure(self):
        """A rank that never communicates cannot observe the injection —
        crashes are modeled at communication points only."""
        engine = Engine(1)
        engine.failure_ranks.add(0)

        def program(ctx):
            ctx.advance(1.0)
            if False:
                yield
            return "local-only"

        assert engine.run(program) == ["local-only"]

    def test_program_can_catch_and_cleanup(self):
        """Programs may intercept the injected failure for cleanup, but the
        engine still terminates them."""
        cleaned = []

        def program(ctx):
            try:
                yield from ctx.comm.barrier()
            except RankFailedError:
                cleaned.append(ctx.rank)
                raise
            return "survived"

        engine = Engine(2)
        engine.failure_ranks.add(0)
        with pytest.raises(DeadlockError):
            # Rank 1 blocks forever on the barrier with a dead partner:
            # exactly the real-world symptom of an unhandled rank death.
            engine.run(program)
        assert cleaned == [0]

    def test_partner_of_failed_rank_deadlocks_visibly(self):
        def program(ctx):
            comm = ctx.comm
            if ctx.rank == 0:
                yield from comm.send("x", dest=1)
            else:
                yield from comm.recv(source=0)
            return None

        engine = Engine(2)
        engine.failure_ranks.add(0)
        with pytest.raises(DeadlockError) as err:
            engine.run(program)
        assert 1 in err.value.blocked


class TestKernelLoopFailures:
    """Failure injection must behave exactly as today when the steady
    loop arrives through ``Communicator.repeat``: active failures make the
    engine decline every loop, the program's own loop offers the injection
    the same communication points as the hand-written loop, and deadlock
    attribution names the same stuck ranks."""

    @staticmethod
    def _loop(comm, recipe, iterations, kernel):
        """``recipe`` ``iterations`` times: ``repeat`` or the hand loop
        over the same wave ops."""
        if kernel:
            yield from comm.repeat(recipe, iterations)
            return
        start, drain = comm.wave(recipe)
        for _ in range(iterations):
            yield start
            yield drain

    @classmethod
    def _ring_program(cls, kernel, iterations=3):
        def program(ctx):
            comm = ctx.comm
            recipe = (
                Post(True, (comm.rank + 1) % comm.size, 5, 512, "ring"),
                Post(False, (comm.rank - 1) % comm.size, 5),
            )
            yield from cls._loop(comm, recipe, iterations, kernel)
            return f"done-{ctx.rank}"

        return program

    def test_rank_killed_mid_kernel_attributes_like_the_loop(self):
        """The dead rank's partner blocks at the same point either way."""
        blocked = {}
        for kernel in (False, True):
            engine = Engine(4)
            engine.failure_ranks.add(2)
            with pytest.raises(DeadlockError) as err:
                engine.run(self._ring_program(kernel))
            blocked[kernel] = err.value.blocked
        assert blocked[True] == blocked[False]
        assert 3 in blocked[True]

    def test_failed_rank_terminates_without_result_in_kernel(self):
        """Self-traffic world: the failed rank dies at its first
        communication point, survivors finish — identically both ways."""

        def self_program(kernel):
            def program(ctx):
                comm = ctx.comm
                recipe = (
                    Post(True, comm.rank, 2, 64, "self"),
                    Post(False, comm.rank, 2),
                )
                yield from self._loop(comm, recipe, 4, kernel)
                return f"done-{ctx.rank}"

            return program

        outcomes = []
        for kernel, engine_cls in (
            (False, Engine), (True, Engine), (True, ReferenceEngine)
        ):
            engine = engine_cls(3)
            engine.failure_ranks.add(1)
            outcomes.append(
                (engine.run(self_program(kernel)), engine.rank_times())
            )
            # Active failures decline every kernel loop.
            assert engine.kernel_runs == 0
        assert outcomes[0][0] == ["done-0", None, "done-2"]
        assert outcomes[1] == outcomes[0] == outcomes[2]

    def test_program_can_catch_failure_inside_kernel(self):
        """A failure armed mid-loop surfaces inside ``repeat``'s fallback
        loop, at the yield the hand-written loop offers, where the program
        can clean up. Rank 2 is armed from the start, so every loop is
        declined on the spot and both programs run one schedule."""
        iterations = 5

        def program(kernel, cleaned):
            def run(ctx):
                comm = ctx.comm
                if ctx.rank == 2:
                    yield from comm.send(None, 2, 0, nbytes=8)
                    return "unreachable"
                partner = 1 - ctx.rank
                recipe = (
                    Post(True, partner, 4, 32, "pair"),
                    Post(False, partner, 4),
                )
                if ctx.rank == 1:
                    # The partner arms rank 0 after two exchanges, then
                    # feeds it one more message to wake it.
                    yield from self._loop(comm, recipe, 2, kernel=False)
                    ctx.engine.failure_ranks.add(0)
                    yield from comm.send(None, partner, 4, nbytes=32, kind="pair")
                    return "armed"
                try:
                    yield from self._loop(comm, recipe, iterations, kernel)
                except RankFailedError:
                    cleaned.append(ctx.rank)
                    raise
                return "survived"

            return run

        outcomes = {}
        for kernel in (False, True):
            cleaned = []
            tracer = TraceRecorder(3)
            engine = Engine(3, tracer=tracer)
            engine.failure_ranks.add(2)
            results = engine.run(program(kernel, cleaned))
            outcomes[kernel] = (
                results, cleaned, engine.rank_times(), tracer.count_matrix.tolist()
            )
            assert engine.kernel_deopts == ({"failure-injection": 1} if kernel else {})
        assert outcomes[True] == outcomes[False]
        results, cleaned, _, counts = outcomes[True]
        assert results == [None, "armed", None]
        assert cleaned == [0]
        # Struck inside the loop: after the first iteration, before the last.
        assert 1 <= counts[0][1] < iterations
