"""FTI trace-program tests: the §V world-level execution structure."""

import numpy as np
import pytest

from repro.apps import ExecutionMode, TsunamiConfig, TsunamiSimulation
from repro.ftilib import FTITraceConfig, make_fti_world_programs
from repro.machine import FTIPlacement
from repro.simmpi import Engine, TraceRecorder

from networks import two_level_network  # tests/simmpi, on pytest's pythonpath


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


class TestWaveEquivalence:
    def test_wave_native_programs_match_per_message(self):
        """The wave-native §V programs (halo waves + persistent ready /
        ring control traffic, re-armed across checkpoint rounds) are
        byte-identical in traces and bit-identical in clocks to the
        per-message reference."""
        runs = {}
        for use_waves in (False, True):
            cfg = TsunamiConfig(
                px=4, py=4, nx=16, ny=16, iterations=8, synthetic=True,
                allreduce_every=0,
                mode=(
                    ExecutionMode.KERNELS
                    if use_waves
                    else ExecutionMode.PER_MESSAGE
                ),
            )
            sim = TsunamiSimulation(cfg)
            placement = FTIPlacement(4, 4)
            programs = make_fti_world_programs(
                sim, placement, iterations=8,
                trace_cfg=FTITraceConfig(
                    checkpoint_every=3, encoder_group_nodes=4
                ),
            )
            tracer = TraceRecorder(placement.nranks, by_kind=True)
            engine = Engine(
                placement.nranks, network=two_level_network(), tracer=tracer
            )
            results = engine.run(programs)
            runs[use_waves] = (results, engine.rank_times(), tracer)
        ref, waved = runs[False], runs[True]
        assert ref[0] == waved[0]
        assert max(ref[1]) > 0
        assert ref[1] == waved[1]
        assert sorted(ref[2].kind_matrices) == sorted(waved[2].kind_matrices)
        for kind, matrix in ref[2].kind_matrices.items():
            np.testing.assert_array_equal(
                matrix, waved[2].kind_matrices[kind], err_msg=kind
            )
        np.testing.assert_array_equal(
            ref[2].count_matrix, waved[2].count_matrix
        )
