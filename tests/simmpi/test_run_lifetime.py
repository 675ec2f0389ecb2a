"""A finished run frees itself: no reference cycle runs through its engine.

Every case runs with the cyclic collector off, so an object outlives the
caller's last reference only if something still points at it or a cycle
strands it. Once the caller lets go, weakrefs to the engine, its tracer and
its message pool must be dead — reference counting alone freed them — on
every way a run can end: normally, by deadlock, by a raising program, on a
reused engine, inside the sharded engine's in-process shards, and under
the HydEE protocol.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.apps import TsunamiConfig, TsunamiSimulation, fig5_workload
from repro.apps.workload import ProgramsWorkload
from repro.clustering import Clustering
from repro.hydee import run_with_protocol
from repro.machine import Machine
from repro.simmpi import DeadlockError, Engine, ShardedEngine, TraceRecorder
from repro.simmpi.shard import ShardEngine


@pytest.fixture(autouse=True)
def collector_off():
    """Start from an empty heap of cyclic garbage, then keep the collector
    off for the test; restored afterwards."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _lifetime_refs(engine):
    """Weakrefs to everything a dropped run must release. ``MessagePool``
    is slotted and takes no weakref; its NumPy columns do, and nothing but
    the pool holds them."""
    return {
        "engine": weakref.ref(engine),
        "tracer": weakref.ref(engine.tracer),
        "pool.arrival": weakref.ref(engine.pool.arrival),
    }


def _alive(refs):
    return sorted(name for name, ref in refs.items() if ref() is not None)


def _fig5():
    return fig5_workload(nodes=4, app_per_node=4, iterations=20, checkpoint_every=5)


def _ring_recv_first(ctx):
    """Every rank receives from its left neighbour before sending: deadlock."""
    comm = ctx.comm
    yield from comm.recv(source=(comm.rank - 1) % comm.size, tag=0)
    yield from comm.send(comm.rank, dest=(comm.rank + 1) % comm.size, tag=0)


def _rank_one_raises(ctx):
    """Rank 1 fails mid-run while rank 0 is parked on a receive."""
    comm = ctx.comm
    if comm.rank == 0:
        yield from comm.send("ping", dest=1)
        yield from comm.recv(source=1)
    else:
        yield from comm.recv(source=0)
        raise RuntimeError("rank program failed")


class TestEngineRunReleases:
    def test_kernel_path_fig5_run(self):
        workload = _fig5()
        engine = Engine(workload.nranks, tracer=TraceRecorder(workload.nranks, by_kind=True))
        results = engine.run(workload.build_programs())
        # The finished run stays readable through the engine.
        assert engine.kernel_runs == 4 and engine.kernel_iterations == 20
        assert len(results) == len(engine.rank_times()) == workload.nranks
        assert engine.max_time == max(engine.rank_times())
        assert engine.tracer.total_messages > 0
        assert all(s.ctx.engine is s.ctx.comm is None for s in engine._states)
        refs = _lifetime_refs(engine)
        del engine, results
        assert _alive(refs) == []

        # Nothing else was stranded either: the contexts, communicators and
        # the exchanges cached on them all died by reference counting.
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            stranded = sorted({type(obj).__name__ for obj in gc.garbage})
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert stranded == []

    def test_deadlocked_ring(self):
        engine = Engine(4, tracer=TraceRecorder(4))
        refs = _lifetime_refs(engine)
        with pytest.raises(DeadlockError) as err:
            engine.run(_ring_recv_first)
        # Attribution read the rank table before the teardown ran.
        assert set(err.value.blocked) == {0, 1, 2, 3}
        assert "recv from 3" in err.value.blocked[0]
        del err, engine
        assert _alive(refs) == []

    def test_raising_program(self):
        engine = Engine(2, tracer=TraceRecorder(2))
        refs = _lifetime_refs(engine)
        with pytest.raises(RuntimeError, match="rank program failed") as err:
            engine.run(_rank_one_raises)
        del err
        assert engine.tracer.total_messages == 1  # the partial run's trace
        del engine
        assert _alive(refs) == []

    def test_engine_reused_for_two_runs(self):
        contexts = []

        def program(ctx):
            contexts.append(ctx)
            total = yield from ctx.comm.allreduce(ctx.rank)
            return total

        engine = Engine(4, tracer=TraceRecorder(4))
        assert engine.run(program) == [6] * 4
        assert engine.run(program) == [6] * 4
        assert len(contexts) == 8
        assert all(ctx.engine is None for ctx in contexts)
        refs = _lifetime_refs(engine)
        del engine
        assert _alive(refs) == []


def test_in_process_shards_do_not_survive_the_call():
    workload = _fig5()
    tracer = TraceRecorder(workload.nranks, by_kind=True)
    sharded = ShardedEngine(2, workers=0, tracer=tracer)
    sharded.run(workload)
    assert tracer.total_messages > 0 and max(sharded.rank_times()) >= 0.0
    assert _live_shard_engines() == []


def test_deadlocked_in_process_shards_do_not_survive_the_call():
    with pytest.raises(DeadlockError) as err:
        ShardedEngine(2, workers=0).run(ProgramsWorkload([_ring_recv_first] * 2))
    assert set(err.value.blocked) == {0, 1}
    del err
    assert _live_shard_engines() == []


def _live_shard_engines():
    return [obj for obj in gc.get_objects() if isinstance(obj, ShardEngine)]


def test_protocol_run_releases_its_engine():
    # The 16-rank §IV-B setup of tests/hydee/test_recovery.py: two L1
    # clusters of 4 nodes x 2 ppn, L2 stripes of 4 across each.
    clustering = Clustering(
        "hier-8-4",
        np.array([0] * 8 + [1] * 8),
        np.array([(r // 2 // 4) * 2 + (r % 2) for r in range(16)]),
    )
    sim = TsunamiSimulation(
        TsunamiConfig(px=4, py=4, nx=16, ny=16, iterations=12, allreduce_every=4)
    )
    run = run_with_protocol(
        sim, Machine(8, 2), clustering, iterations=12, checkpoint_every=5, trace=True
    )
    assert 0.0 < run.logged_fraction_observed < 1.0
    assert run.engine.recv_counts and run.engine.max_time > 0.0
    refs = _lifetime_refs(run.engine)
    del run
    assert _alive(refs) == []
