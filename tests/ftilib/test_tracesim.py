"""FTI trace-program tests: the §V world-level execution structure."""

import numpy as np
import pytest

from repro.apps import ExecutionMode, TsunamiConfig, TsunamiSimulation
from repro.apps.workload import with_mode
from repro.ftilib import FTITraceConfig, make_fti_world_programs
from repro.machine import FTIPlacement
from repro.simmpi import ANY_SOURCE, Engine, TraceRecorder

# tests/simmpi, on pytest's pythonpath
from networks import assert_runs_equal, hand_halo_exchange, run_engine


def run_trace(nodes=4, app_per_node=4, iterations=10, checkpoint_every=5,
              allreduce_every=0):
    px = py = int((nodes * app_per_node) ** 0.5)
    assert px * py == nodes * app_per_node
    cfg = TsunamiConfig(
        px=px, py=py, nx=4 * px, ny=4 * py, iterations=iterations,
        synthetic=True, allreduce_every=allreduce_every,
    )
    sim = TsunamiSimulation(cfg)
    placement = FTIPlacement(nodes, app_per_node)
    programs = make_fti_world_programs(
        sim,
        placement,
        iterations=iterations,
        trace_cfg=FTITraceConfig(
            checkpoint_every=checkpoint_every, encoder_group_nodes=4
        ),
    )
    tracer = TraceRecorder(placement.nranks, by_kind=True)
    Engine(placement.nranks, tracer=tracer).run(programs)
    return placement, tracer


@pytest.fixture(scope="module")
def traced():
    return run_trace()


class TestWorldStructure:
    def test_encoders_receive_ready_messages(self, traced):
        placement, tracer = traced
        ready = tracer.kind_bytes("fti-ready")
        for enc in placement.encoder_ranks():
            node_apps = [
                r for r in placement.ranks_of_node(placement.node_of_rank(enc))
                if not placement.is_encoder(r)
            ]
            for app in node_apps:
                assert ready[enc, app] > 0  # light horizontal lines (Fig 5b)

    def test_encoder_ring_traffic(self, traced):
        """Isolated points at encoder-row/column intersections (Fig 5b)."""
        placement, tracer = traced
        enc = placement.encoder_ranks()
        ring = tracer.kind_bytes("fti-encode")
        # Encoders 0..3 form one ring: each sends to its right neighbor.
        for i in range(4):
            src, dst = enc[i], enc[(i + 1) % 4]
            assert ring[dst, src] > 0
        # And never to non-encoder ranks.
        mask = np.zeros(placement.nranks, dtype=bool)
        mask[enc] = True
        assert ring[~mask].sum() == 0
        assert ring[:, ~mask].sum() == 0

    def test_halo_diagonals_skip_encoder_ranks(self, traced):
        """App stencil traffic never touches encoder world ranks —
        the paper's 'diagonals get interrupted' observation."""
        placement, tracer = traced
        halo = tracer.kind_bytes("halo")
        for enc in placement.encoder_ranks():
            assert halo[enc, :].sum() == 0
            assert halo[:, enc].sum() == 0

    def test_allgather_covers_whole_world(self, traced):
        """FTI_Init's allgather involves every world rank (incl. encoders)."""
        placement, tracer = traced
        ag = tracer.kind_bytes("allgather")
        participates = (ag.sum(axis=0) > 0) | (ag.sum(axis=1) > 0)
        assert participates.all()

    def test_app_ranks_complete_all_iterations(self):
        placement, tracer = run_trace(iterations=8, checkpoint_every=3)
        # Re-run retaining results this time.
        cfg = TsunamiConfig(
            px=4, py=4, nx=16, ny=16, iterations=8, synthetic=True,
            allreduce_every=0,
        )
        sim = TsunamiSimulation(cfg)
        programs = make_fti_world_programs(
            sim, placement, iterations=8,
            trace_cfg=FTITraceConfig(checkpoint_every=3),
        )
        results = Engine(placement.nranks).run(programs)
        for rank, result in enumerate(results):
            if placement.is_encoder(rank):
                assert result["checkpoints"] == 2  # iterations 3 and 6
            else:
                assert result["iteration"] == 8

    def test_shape_mismatch_rejected(self):
        cfg = TsunamiConfig(px=2, py=2, nx=8, ny=8, synthetic=True)
        sim = TsunamiSimulation(cfg)
        with pytest.raises(ValueError):
            make_fti_world_programs(sim, FTIPlacement(4, 4), iterations=5)


def hand_fti_programs(cfg, placement, *, iterations, trace_cfg):
    """The fig5 world written out by hand with isend / irecv / wait: the
    FTI_Init allgather and split, the synthetic halo loop with a
    checkpoint-ready send to the node encoder every ``checkpoint_every``
    iterations, and encoders that gather the node's notices (wildcard
    receives, then ``waitall``) and run the Reed-Solomon ring hop by hop."""
    ready_tag, ring_tag = 9_000_000, 9_000_001
    every = trace_cfg.checkpoint_every
    n_ckpts = len([i for i in range(1, iterations) if i % every == 0])

    def app(ctx):
        comm = ctx.comm
        yield from comm.allgather(ctx.rank)
        app_comm = yield from comm.split(color=0, key=ctx.rank)
        encoder = placement.node_of_rank(ctx.rank) * placement.procs_per_node
        for it in range(iterations):
            if it and it % every == 0:
                yield from comm.isend(
                    None, dest=encoder, tag=ready_tag,
                    nbytes=trace_cfg.ready_message_bytes, kind="fti-ready",
                )
            yield from hand_halo_exchange(app_comm, cfg.grid, nfields=3)
        return {"iteration": iterations}

    def encoder(ctx):
        comm = ctx.comm
        yield from comm.allgather(ctx.rank)
        yield from comm.split(color=1, key=ctx.rank)
        node = placement.node_of_rank(ctx.rank)
        first = node - node % trace_cfg.encoder_group_nodes
        last = min(first + trace_cfg.encoder_group_nodes, placement.nnodes)
        ring = [n * placement.procs_per_node for n in range(first, last)]
        at = ring.index(ctx.rank)
        chunk = trace_cfg.checkpoint_bytes_per_process * placement.app_per_node
        chunk //= len(ring)
        for _ in range(n_ckpts):
            ready = []
            for _ in range(placement.app_per_node):
                ready.append((yield from comm.irecv(source=ANY_SOURCE, tag=ready_tag)))
            yield from comm.waitall(ready)
            for _ in range(len(ring) - 1):
                yield from comm.isend(
                    None, dest=ring[(at + 1) % len(ring)], tag=ring_tag,
                    nbytes=chunk, kind="fti-encode",
                )
                yield from comm.recv(source=ring[at - 1], tag=ring_tag)
        return {"node": node, "checkpoints": n_ckpts}

    return [
        encoder if placement.is_encoder(rank) else app
        for rank in range(placement.nranks)
    ]


class TestWaveEquivalence:
    def test_wave_native_programs_match_per_message(self):
        """Every mode of the §V programs (halo, checkpoint-ready sends,
        readiness gathers and ring hops, each one recipe) equals the
        hand-written world: results, byte-identical traces, bit-identical
        clocks."""
        cfg = TsunamiConfig(
            px=4, py=4, nx=16, ny=16, iterations=8, synthetic=True,
            allreduce_every=0,
        )
        placement = FTIPlacement(4, 4)
        trace_cfg = FTITraceConfig(checkpoint_every=3, encoder_group_nodes=4)
        ref = run_engine(
            hand_fti_programs(cfg, placement, iterations=8, trace_cfg=trace_cfg),
            placement.nranks,
        )
        assert max(ref["clocks"]) > 0
        assert ref["tracer"].kind_bytes("fti-encode").sum() > 0
        for mode in ExecutionMode:
            programs = make_fti_world_programs(
                TsunamiSimulation(with_mode(cfg, mode)), placement,
                iterations=8, trace_cfg=trace_cfg,
            )
            got = run_engine(programs, placement.nranks)
            assert_runs_equal(ref, got, mode.value)
            assert (got["engine"].kernel_runs > 0) == (mode is ExecutionMode.KERNELS)
