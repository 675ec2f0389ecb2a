"""Equivalence suite for batched point-to-point pricing.

The production ``Engine`` defers each send's arrival-time computation and
prices whole waves of sends in one vectorized
``NetworkModel.transfer_times`` call; ``ReferenceEngine`` prices every
send with scalar ``transfer_time`` as it is posted. The two must be
indistinguishable: identical results, bit-identical per-rank virtual
clocks, byte-identical traces — under fast collectives, under the
cascade, and on stencil halo workloads.
"""

import numpy as np
import pytest

from repro.apps.stencil import (
    ProcessGrid,
    halo_exchange,
    halo_wave_init,
    synthetic_halo_exchange,
)
from repro.simmpi import Engine, EngineConfig, ReferenceEngine

from networks import (
    assert_matches_reference,
    assert_runs_equal,
    run_engine,
    two_level_network,
)

#: Receive counting is a per-message observer: it keeps the production
#: engine's collectives on the point-to-point cascade, so batched pricing
#: has to price the cascade's traffic.
CASCADE = EngineConfig(track_recv_counts=True)


class TestStencilWorkloads:
    @pytest.mark.parametrize("px,py", [(2, 2), (4, 2), (4, 4)])
    def test_synthetic_halo_exchange(self, px, py):
        grid = ProcessGrid(px=px, py=py, nx=8 * px, ny=8 * py)

        def program(ctx):
            for it in range(4):
                ctx.advance(1e-4 * (1 + (ctx.rank + it) % 3))
                yield from synthetic_halo_exchange(ctx.comm, grid, nfields=3)
            return ctx.now

        assert_matches_reference(program, grid.nranks)

    def test_real_payload_halo_exchange(self):
        grid = ProcessGrid(px=3, py=2, nx=12, ny=8)

        def program(ctx):
            field = np.full(
                (grid.tile_ny + 2, grid.tile_nx + 2), float(ctx.rank)
            )
            for _ in range(3):
                yield from halo_exchange(ctx.comm, grid, [field])
                field[1:-1, 1:-1] += 1.0
            return field.sum()

        assert_matches_reference(program, grid.nranks)

    def test_stencil_with_per_iteration_split_allreduce(self):
        """The paper's app shape: halo waves plus a group allreduce."""
        grid = ProcessGrid(px=4, py=2, nx=16, ny=8)

        def program(ctx):
            row_comm = yield from ctx.comm.split(color=ctx.rank // grid.px)
            total = 0.0
            for _ in range(3):
                yield from synthetic_halo_exchange(ctx.comm, grid)
                total = yield from row_comm.allreduce(total + ctx.rank)
            return (total, ctx.now)

        for config in (None, CASCADE):
            assert_matches_reference(program, grid.nranks, config=config)


class TestPricingSemantics:
    def test_wildcard_receives_and_sendrecv(self):
        size = 5

        def program(ctx):
            dst = (ctx.rank + 1) % size
            src = (ctx.rank - 1) % size
            got = yield from ctx.comm.sendrecv(
                ctx.rank * 1.5, dest=dst, source=src, sendtag=2
            )
            yield from ctx.comm.isend(b"x" * 100, dest=dst, tag=3)
            extra = yield from ctx.comm.recv()  # ANY_SOURCE / ANY_TAG
            return (got, extra, ctx.now)

        assert_matches_reference(program, size)

    def test_self_send_prices_to_zero_transfer(self):
        def program(ctx):
            yield from ctx.comm.isend(b"local", dest=ctx.rank, tag=1)
            ctx.advance(0.5)
            got = yield from ctx.comm.recv(source=ctx.rank, tag=1)
            return (got, ctx.now)

        _, batched = assert_matches_reference(program, 2)
        # Self-transfer is free: the wait must not move the clock past 0.5.
        assert batched["results"][0] == (b"local", 0.5)

    def test_unawaited_sends_leave_no_stale_state(self):
        """Sends whose arrival time is never consumed must not leak into a
        later run's pricing batch."""
        engine = Engine(2, network=two_level_network())

        def fire_and_forget(ctx):
            yield from ctx.comm.isend(None, dest=1 - ctx.rank, tag=9, nbytes=64)
            return ctx.now

        engine.run(fire_and_forget)
        assert engine.run(fire_and_forget) == [0.0, 0.0]

    def test_cascade_collectives_price_identically(self):
        """With the cascade forced, every collective is p2p traffic — the
        batched pricing must reproduce the scalar cascade clocks exactly."""
        size = 6

        def program(ctx):
            ctx.advance(0.001 * ctx.rank)
            total = yield from ctx.comm.allreduce(ctx.rank + 1)
            blocks = yield from ctx.comm.allgather(total * ctx.rank)
            return (total, blocks, ctx.now)

        _, batched = assert_matches_reference(program, size, config=CASCADE)
        assert batched["engine"].fast_collectives_run == 0


class TestPersistentWaves:
    """The persistent-request wave path is the same workload as the
    per-message halo program: identical clocks, traces and results under
    both pricing modes."""

    @pytest.mark.parametrize("px,py", [(2, 2), (4, 2), (4, 4)])
    def test_wave_halo_matches_per_message_halo(self, px, py):
        grid = ProcessGrid(px=px, py=py, nx=8 * px, ny=8 * py)

        def permsg(ctx):
            for it in range(4):
                ctx.advance(1e-4 * (1 + (ctx.rank + it) % 3))
                yield from synthetic_halo_exchange(ctx.comm, grid, nfields=3)
            return ctx.now

        def wave(ctx):
            comm = ctx.comm
            requests, recvs = halo_wave_init(comm, grid, nfields=3)
            start = comm.start_all_op(requests)
            drain = comm.waitall_op(recvs)
            for it in range(4):
                ctx.advance(1e-4 * (1 + (ctx.rank + it) % 3))
                yield start
                yield drain
            return ctx.now

        reference = run_engine(permsg, grid.nranks, engine_cls=ReferenceEngine)
        for engine_cls in (ReferenceEngine, Engine):
            waved = run_engine(wave, grid.nranks, engine_cls=engine_cls)
            assert_runs_equal(reference, waved, f"{engine_cls.__name__} waves")

    def test_wave_with_split_allreduce(self):
        """Waves interleave with group collectives exactly like the
        per-message program (the paper's app shape)."""
        grid = ProcessGrid(px=4, py=2, nx=16, ny=8)

        def permsg(ctx):
            row_comm = yield from ctx.comm.split(color=ctx.rank // grid.px)
            total = 0.0
            for _ in range(3):
                yield from synthetic_halo_exchange(ctx.comm, grid)
                total = yield from row_comm.allreduce(total + ctx.rank)
            return (total, ctx.now)

        def wave(ctx):
            comm = ctx.comm
            row_comm = yield from comm.split(color=ctx.rank // grid.px)
            requests, recvs = halo_wave_init(comm, grid)
            start = comm.start_all_op(requests)
            drain = comm.waitall_op(recvs)
            total = 0.0
            for _ in range(3):
                yield start
                yield drain
                total = yield from row_comm.allreduce(total + ctx.rank)
            return (total, ctx.now)

        for engine_cls, config in (
            (ReferenceEngine, None),
            (Engine, None),
            (Engine, CASCADE),
        ):
            ref = run_engine(permsg, grid.nranks, engine_cls=engine_cls, config=config)
            waved = run_engine(wave, grid.nranks, engine_cls=engine_cls, config=config)
            assert_runs_equal(ref, waved, f"{engine_cls.__name__} waves")
