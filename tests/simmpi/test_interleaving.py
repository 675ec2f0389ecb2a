"""Seeded schedule-interleaving exploration: legality, replay, equivalence.

``EngineConfig(schedule=seed)`` permutes each scheduler batch among its
causally-unordered ranks; ``EngineConfig(schedule=trace)`` replays a
recorded permutation stream exactly. This suite pins the contract from
every side: the default path is byte-for-byte the canonical drain, every
explored schedule is MPI-legal (wildcard-free programs stay bit-identical
to canonical; wildcard programs may legally re-arbitrate or deadlock),
replay from seed or trace reproduces the exact schedule, kernels deopt
with ``non-canonical-schedule``, and the wildcard arbitration that
interleaving perturbs keeps matching by posting-sequence stamp.
"""

import pytest

from repro.simmpi import (
    ANY_SOURCE,
    DeadlockError,
    Engine,
    EngineConfig,
    ScheduleTrace,
)

from networks import (
    assert_runs_equal,
    interpreted_ring_program,
    kernel_ring_program,
    run_engine,
    two_level_network,
)


def order_probe(order):
    """Program whose observable is the drain order itself: each rank logs
    its position before and after a barrier, so the log is a transcript of
    which rank ran when in each batch."""

    def program(ctx):
        order.append(("pre", ctx.rank))
        yield from ctx.comm.barrier()
        order.append(("mid", ctx.rank))
        yield from ctx.comm.barrier()
        order.append(("post", ctx.rank))
        return ctx.rank

    return program


def run_probe(size, schedule=None):
    order = []
    engine = Engine(
        size, network=two_level_network(), config=EngineConfig(schedule=schedule)
    )
    results = engine.run(order_probe(order))
    return order, results, engine


# A trace that reverses every batch it can: entries for many ordinals, all
# full reversals of ``size`` ranks; batches of any other size drain
# canonically (length-mismatch entries are skipped by contract).
def full_reversal_trace(size, n_batches=64):
    perm = tuple(range(size - 1, -1, -1))
    return ScheduleTrace(tuple((o, perm) for o in range(n_batches)))


class TestScheduleTrace:
    def test_validates_permutations(self):
        with pytest.raises(ValueError, match="not a permutation"):
            ScheduleTrace(((0, (0, 0, 1)),))

    def test_validates_ordinal_order(self):
        with pytest.raises(ValueError, match="strictly increase"):
            ScheduleTrace(((2, (1, 0)), (1, (1, 0))))

    def test_json_round_trip(self):
        trace = ScheduleTrace(((0, (2, 0, 1)), (3, (1, 0))))
        assert ScheduleTrace.from_jsonable(trace.to_jsonable()) == trace
        assert trace.to_jsonable() == [[0, [2, 0, 1]], [3, [1, 0]]]

    def test_without_ordinal(self):
        trace = ScheduleTrace(((0, (2, 0, 1)), (3, (1, 0))))
        shrunk = trace.without_ordinal(0)
        assert shrunk.entries == ((3, (1, 0)),)
        assert shrunk.permutation_for(0) is None
        assert shrunk.permutation_for(3) == (1, 0)
        assert trace.n_permuted == 2 and shrunk.n_permuted == 1


class TestCanonicalPathPinned:
    def test_default_drain_is_ascending(self):
        """The canonical schedule: every batch drains in rank order."""
        order, results, engine = run_probe(4)
        assert results == [0, 1, 2, 3]
        # Pinned literal transcript: batches drain ascending; the rank
        # that completes a barrier keeps running in its own step (so it
        # leads the next phase), and the released ranks follow in order.
        assert order == [
            ("pre", 0), ("pre", 1), ("pre", 2), ("pre", 3),
            ("mid", 3), ("mid", 0), ("mid", 1), ("mid", 2),
            ("post", 2), ("post", 0), ("post", 1), ("post", 3),
        ]
        assert engine.schedule_trace is None

    def test_schedule_seed_none_is_byte_identical(self):
        """``schedule=None`` IS the canonical engine — same drain
        transcript, results, clocks and traces as an engine that never
        heard of scheduling seeds."""
        ref = run_engine(interpreted_ring_program(5), 6)
        explicit = run_engine(
            interpreted_ring_program(5), 6, config=EngineConfig(schedule=None)
        )
        assert_runs_equal(ref, explicit, "schedule=None")
        order_ref, _, _ = run_probe(5)
        order_none, _, engine = run_probe(5, schedule=None)
        assert order_none == order_ref
        assert engine.schedule_trace is None


class TestSeededExploration:
    def test_seed_permutes_and_records(self):
        order_ref, _, _ = run_probe(6)
        order, results, engine = run_probe(6, 1)
        assert results == list(range(6))  # same results, different route
        assert engine.schedule_trace is not None
        assert engine.schedule_trace.n_permuted > 0
        assert order != order_ref

    def test_same_seed_same_schedule(self):
        order_a, _, engine_a = run_probe(6, 7)
        order_b, _, engine_b = run_probe(6, 7)
        assert order_a == order_b
        assert engine_a.schedule_trace == engine_b.schedule_trace

    def test_different_seeds_differ(self):
        traces = {
            run_probe(6, seed)[2].schedule_trace
            for seed in range(8)
        }
        assert len(traces) > 1

    def test_replay_from_trace_is_exact(self):
        """A recorded trace replays the identical schedule with no RNG:
        same drain transcript, and the replay re-records the same trace."""
        order_seeded, _, engine = run_probe(6, 3)
        trace = engine.schedule_trace
        assert trace.n_permuted > 0
        order_replay, results, replay_engine = run_probe(6, trace)
        assert order_replay == order_seeded
        assert results == list(range(6))
        assert replay_engine.schedule_trace == trace

    def test_dropped_trace_entry_is_still_legal(self):
        """The shrinker's move — reverting one batch to canonical order —
        must always yield a runnable, legal schedule."""
        _, _, engine = run_probe(6, 3)
        trace = engine.schedule_trace
        first_ordinal = trace.entries[0][0]
        shrunk = trace.without_ordinal(first_ordinal)
        _, results, replay_engine = run_probe(6, shrunk)
        assert results == list(range(6))
        # Only the surviving entries are applied (and some may now be
        # skipped by length mismatch); whatever applied is a subset.
        applied = set(replay_engine.schedule_trace.entries)
        assert applied <= set(shrunk.entries)

    def test_forced_full_reversal_runs(self):
        """A hand-written adversarial trace — every batch reversed — is a
        legal schedule for a wildcard-free program: identical results."""
        ref = run_engine(interpreted_ring_program(5), 6)
        rev = run_engine(
            interpreted_ring_program(5),
            6,
            config=EngineConfig(schedule=full_reversal_trace(6)),
        )
        assert_runs_equal(ref, rev, "full reversal")
        assert rev["engine"].schedule_trace.n_permuted > 0


class TestDeterministicProgramEquivalence:
    """Programs with no wildcard receives are schedule-deterministic:
    every legal interleaving produces bit-identical results, clocks and
    traces. Exercised for the two schedule-sensitive subsystems the issue
    names: split-communicator collectives and persistent waves."""

    @pytest.mark.parametrize("seed", [1, 2, 9])
    def test_split_collectives_equivalent(self, seed):
        def program(ctx):
            row = yield from ctx.comm.split(color=ctx.rank // 3)
            total = 0.0
            for _ in range(3):
                total = yield from row.allreduce(float(ctx.rank) + total)
            yield from ctx.comm.barrier()
            col = yield from ctx.comm.split(color=ctx.rank % 3)
            peak = yield from col.allreduce(total)
            return (total, peak)

        ref = run_engine(program, 9)
        got = run_engine(program, 9, config=EngineConfig(schedule=seed))
        assert_runs_equal(ref, got, f"split collectives seed {seed}")
        assert got["engine"].schedule_trace.n_permuted > 0

    @pytest.mark.parametrize("seed", [1, 4, 11])
    def test_persistent_waves_equivalent(self, seed):
        ref = run_engine(interpreted_ring_program(6), 6)
        got = run_engine(
            interpreted_ring_program(6), 6, config=EngineConfig(schedule=seed)
        )
        assert_runs_equal(ref, got, f"wave seed {seed}")

    def test_wave_rearm_pool_state_matches_canonical(self):
        """Permuted drains hand out pool slots in a different order, but
        wave re-arm must converge to the canonical pool state: identical
        capacity (no spurious growth), zero live slots, and the full slot
        range back on the free list — slot for slot."""
        ref = run_engine(interpreted_ring_program(6), 6)
        ref_pool = ref["engine"].pool
        for schedule in (5, full_reversal_trace(6)):
            got = run_engine(
                interpreted_ring_program(6),
                6,
                config=EngineConfig(schedule=schedule),
            )
            pool = got["engine"].pool
            assert pool.capacity == ref_pool.capacity
            assert pool.live_slots == 0 == ref_pool.live_slots
            assert sorted(pool.free) == sorted(ref_pool.free)
            assert sorted(pool.free) == list(range(pool.capacity))


class TestKernelGating:
    def test_kernel_deopts_under_exploration(self):
        """Kernelization assumes the canonical schedule; an exploring
        engine must run the interpreted expansion and say why."""
        ref = run_engine(interpreted_ring_program(5), 4)
        kern = run_engine(
            kernel_ring_program(5), 4, config=EngineConfig(schedule=2)
        )
        assert kern["engine"].kernel_runs == 0
        assert kern["engine"].kernel_deopts.get("non-canonical-schedule") == 4
        # Deopted-but-permuted still matches canonical bit for bit
        # (the ring wave has no wildcards).
        assert_runs_equal(ref, kern, "kernel deopt under exploration")

    def test_kernel_fast_path_restored_without_seed(self):
        kern = run_engine(kernel_ring_program(5), 4)
        assert kern["engine"].kernel_runs == 1
        assert kern["engine"].kernel_deopts == {}


def race_program(ctx):
    """The canonical wildcard race: rank 0 takes ANY_SOURCE then
    specifically rank 2. Canonically rank 1 posts first and the wildcard
    takes it; a schedule where rank 2 posts first starves the second
    receive — a legal deadlock, the kind exploration exists to find."""
    comm = ctx.comm
    if ctx.rank == 0:
        first, status = yield from comm.recv_status(source=ANY_SOURCE, tag=0)
        second = yield from comm.recv(source=2, tag=0)
        return (status.source, first, second)
    yield from comm.send(f"from{ctx.rank}", dest=0, tag=0)
    return ctx.rank


def find_deadlock_seed(limit=64):
    for seed in range(limit):
        engine = Engine(
            3, network=two_level_network(), config=EngineConfig(schedule=seed)
        )
        try:
            engine.run(race_program)
        except DeadlockError as err:
            return seed, engine.schedule_trace, err
    raise AssertionError(f"no deadlocking schedule in seeds 0..{limit - 1}")


class TestWildcardRace:
    def test_canonical_run_completes(self):
        engine = Engine(3, network=two_level_network())
        results = engine.run(race_program)
        assert results[0] == (1, "from1", "from2")

    def test_exploration_finds_the_deadlock(self):
        seed, trace, err = find_deadlock_seed()
        assert set(err.blocked) == {0}
        assert "recv" in err.blocked[0]
        assert trace is not None and trace.n_permuted > 0

    def test_deadlock_replays_from_seed_and_trace(self):
        seed, trace, err = find_deadlock_seed()
        # Replay from the seed alone.
        engine = Engine(
            3, network=two_level_network(), config=EngineConfig(schedule=seed)
        )
        with pytest.raises(DeadlockError) as seed_err:
            engine.run(race_program)
        assert seed_err.value.blocked == err.blocked
        assert engine.schedule_trace == trace
        # Replay from the recorded trace alone (what repro files carry).
        replay = Engine(
            3, network=two_level_network(), config=EngineConfig(schedule=trace)
        )
        with pytest.raises(DeadlockError) as trace_err:
            replay.run(race_program)
        assert trace_err.value.blocked == err.blocked
        assert replay.schedule_trace == trace


class TestWildcardStampArbitration:
    """Satellite regression: under a permuted posting order the wildcard
    receive must still match by posting-sequence stamp — whoever's send
    actually posted first — never by drain position or sender rank."""

    @staticmethod
    def _stamp_program(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            gate = yield from comm.recv(source=3, tag=1)
            payload, status = yield from comm.recv_status(
                source=ANY_SOURCE, tag=0
            )
            # Drain the loser too so no schedule deadlocks.
            other = yield from comm.recv(source=ANY_SOURCE, tag=0)
            return (gate, status.source, payload, other)
        if ctx.rank == 3:
            yield from comm.send("gate", dest=0, tag=1)
        else:
            yield from comm.send(f"from{ctx.rank}", dest=0, tag=0)
        return ctx.rank

    def test_canonical_order_picks_rank1(self):
        engine = Engine(4, network=two_level_network())
        results = engine.run(self._stamp_program)
        assert results[0] == ("gate", 1, "from1", "from2")

    def test_reversed_posting_order_picks_rank2_by_stamp(self):
        """Reversing the first batch makes rank 2's message the earliest
        stamp in the unexpected pool; the wildcard must take it even
        though rank 1 is the lower-numbered sender channel."""
        trace = ScheduleTrace(((0, (3, 2, 1, 0)),))
        engine = Engine(
            4, network=two_level_network(), config=EngineConfig(schedule=trace)
        )
        results = engine.run(self._stamp_program)
        assert results[0] == ("gate", 2, "from2", "from1")
        assert engine.schedule_trace.entries == trace.entries
