"""Process-grid and halo-exchange tests.

The halo recipe (:class:`repro.apps.stencil.HaloExchange`) runs under two
drivers; both, and the kernel loop over its wave, are checked against
``hand_halo_exchange``, the exchange written out by hand with ``isend`` /
``irecv`` / ``wait``.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import HaloExchange, ProcessGrid
from repro.simmpi import Engine, KernelLoop, TraceRecorder, run_program

from networks import assert_runs_equal, hand_halo_exchange, run_engine

DRIVERS = (False, True)  # waves=False: per-message driver; True: wave driver


class TestProcessGrid:
    def test_shape_properties(self):
        g = ProcessGrid(4, 2, 16, 8)
        assert g.nranks == 8
        assert g.tile_nx == 4 and g.tile_ny == 4

    def test_coords_roundtrip(self):
        g = ProcessGrid(4, 3, 8, 6)
        for rank in range(g.nranks):
            row, col = g.coords_of(rank)
            assert g.rank_at(row, col) == rank

    def test_row_major_numbering(self):
        g = ProcessGrid(4, 2, 8, 8)
        assert g.coords_of(5) == (1, 1)

    def test_neighbors_interior(self):
        g = ProcessGrid(3, 3, 9, 9)
        north, east, south, west = g.neighbors_of(4)  # center
        assert (north, east, south, west) == (1, 5, 7, 3)

    def test_neighbors_corner(self):
        g = ProcessGrid(3, 3, 9, 9)
        north, east, south, west = g.neighbors_of(0)
        assert north is None and west is None
        assert east == 1 and south == 3

    def test_east_west_are_rank_pm1(self):
        """Row-major: EW neighbors differ by 1, NS by px (paper's layout)."""
        g = ProcessGrid(8, 4, 32, 32)
        _, east, south, _ = g.neighbors_of(9)
        assert east == 10 and south == 17

    def test_indivisible_grid_rejected(self):
        with pytest.raises(ValueError):
            ProcessGrid(3, 1, 10, 4)

    def test_tile_slices_cover_domain(self):
        g = ProcessGrid(2, 2, 8, 4)
        covered = np.zeros((4, 8), dtype=int)
        for rank in range(g.nranks):
            ys, xs = g.tile_slices(rank)
            covered[ys, xs] += 1
        np.testing.assert_array_equal(covered, 1)

    def test_bounds(self):
        g = ProcessGrid(2, 2, 4, 4)
        with pytest.raises(ValueError):
            g.coords_of(4)
        with pytest.raises(ValueError):
            g.rank_at(2, 0)

    @given(st.integers(1, 6), st.integers(1, 6))
    def test_neighbor_symmetry(self, px, py):
        g = ProcessGrid(px, py, px * 2, py * 2)
        for rank in range(g.nranks):
            n, e, s, w = g.neighbors_of(rank)
            if e is not None:
                assert g.neighbors_of(e)[3] == rank  # my east's west is me
            if s is not None:
                assert g.neighbors_of(s)[0] == rank  # my south's north is me


class TestHaloExchange:
    def _run_exchange(self, px, py, nfields=1, *, waves):
        g = ProcessGrid(px, py, px * 3, py * 3)

        def program(ctx):
            comm = ctx.comm
            fields = [
                np.full((g.tile_ny + 2, g.tile_nx + 2), float(ctx.rank * 10 + k))
                for k in range(nfields)
            ]
            yield from HaloExchange(comm, g, fields).run(waves)
            return fields

        return g, run_program(program, g.nranks)

    def test_ghosts_carry_neighbor_values(self):
        for waves in DRIVERS:
            g, results = self._run_exchange(3, 3, waves=waves)
            center = 4
            fields = results[center]
            n, e, s, w = g.neighbors_of(center)
            f = fields[0]
            assert np.all(f[0, 1:-1] == n * 10)
            assert np.all(f[-1, 1:-1] == s * 10)
            assert np.all(f[1:-1, 0] == w * 10)
            assert np.all(f[1:-1, -1] == e * 10)

    def test_physical_ghosts_untouched(self):
        for waves in DRIVERS:
            g, results = self._run_exchange(2, 2, waves=waves)
            f3 = results[3][0]
            assert np.all(f3[-1, 1:-1] == 30.0)  # south wall: unchanged own value
            assert np.all(f3[1:-1, -1] == 30.0)  # east wall too

    def test_multi_field_packing(self):
        for waves in DRIVERS:
            g, results = self._run_exchange(2, 1, nfields=3, waves=waves)
            f = results[0]
            # East ghost of rank 0 comes from rank 1's fields 10, 11, 12.
            for k in range(3):
                assert np.all(f[k][1:-1, -1] == 10.0 + k)

    def test_wrong_field_shape_raises(self):
        g = ProcessGrid(2, 1, 4, 2)

        def program(ctx):
            HaloExchange(ctx.comm, g, [np.zeros((3, 3))])
            if False:
                yield

        with pytest.raises(ValueError):
            run_program(program, 2)


class TestSyntheticHalo:
    def test_same_bytes_as_real_exchange(self):
        """Synthetic and real exchanges produce identical traces."""
        g = ProcessGrid(4, 4, 16, 16)

        def real_program(ctx):
            fields = [np.zeros((g.tile_ny + 2, g.tile_nx + 2)) for _ in range(2)]
            yield from HaloExchange(ctx.comm, g, fields).run(True)
            return None

        def synth_program(ctx):
            yield from HaloExchange(ctx.comm, g, nfields=2).run(True)
            return None

        t_real = TraceRecorder(g.nranks)
        Engine(g.nranks, tracer=t_real).run(real_program)
        t_synth = TraceRecorder(g.nranks)
        Engine(g.nranks, tracer=t_synth).run(synth_program)
        np.testing.assert_array_equal(t_real.bytes_matrix, t_synth.bytes_matrix)

    def test_traffic_only_between_neighbors(self):
        g = ProcessGrid(4, 4, 16, 16)
        tracer = TraceRecorder(g.nranks)

        def program(ctx):
            yield from HaloExchange(ctx.comm, g).run(True)
            return None

        Engine(g.nranks, tracer=tracer).run(program)
        bytes_matrix = tracer.bytes_matrix
        for dst in range(g.nranks):
            for src in range(g.nranks):
                if bytes_matrix[dst, src] > 0:
                    assert dst in [
                        x for x in g.neighbors_of(src) if x is not None
                    ]


def _tiles(g, ctx, nfields=2):
    return [
        np.full((g.tile_ny + 2, g.tile_nx + 2), float(ctx.rank + k))
        for k in range(nfields)
    ]


class TestHaloWave:
    """The halo recipe under both drivers vs the hand-written oracle."""

    def test_real_payload_wave_matches_per_message(self):
        """Same fields, traces and clocks as the hand-written exchange over
        several iterations of an in-place mutating stencil update (the pack
        buffers are reused, so a missed snapshot would show here)."""
        g = ProcessGrid(3, 3, 9, 9)

        def oracle(ctx):
            fields = _tiles(g, ctx)
            for it in range(4):
                yield from hand_halo_exchange(ctx.comm, g, fields)
                for f in fields:
                    f[1:-1, 1:-1] += 0.5 * it  # mutate in place between waves
            return fields

        def recipe(waves):
            def program(ctx):
                fields = _tiles(g, ctx)
                halo = HaloExchange(ctx.comm, g, fields)
                for it in range(4):
                    yield from halo.run(waves)
                    for f in fields:
                        f[1:-1, 1:-1] += 0.5 * it
                return fields

            return program

        ref = run_engine(oracle, g.nranks)
        assert max(ref["clocks"]) > 0
        for waves in DRIVERS:
            assert_runs_equal(ref, run_engine(recipe(waves), g.nranks), f"waves={waves}")

    def test_synthetic_wave_matches_synthetic_exchange(self):
        """Both drivers and the kernel loop over the recipe's wave match
        the hand-written synthetic exchange."""
        g = ProcessGrid(4, 2, 8, 8)

        def oracle(ctx):
            for _ in range(3):
                yield from hand_halo_exchange(ctx.comm, g, nfields=3)
            return ctx.now

        def recipe(waves):
            def program(ctx):
                halo = HaloExchange(ctx.comm, g, nfields=3)
                for _ in range(3):
                    yield from halo.run(waves)
                return ctx.now

            return program

        def kernel(ctx):
            halo = HaloExchange(ctx.comm, g, nfields=3)
            yield KernelLoop(*ctx.comm.wave(halo.recipe), 3)
            return ctx.now

        ref = run_engine(oracle, g.nranks)
        assert max(ref["clocks"]) > 0
        for waves in DRIVERS:
            assert_runs_equal(ref, run_engine(recipe(waves), g.nranks), f"waves={waves}")
        kernelled = run_engine(kernel, g.nranks)
        assert_runs_equal(ref, kernelled, "kernel loop")
        assert kernelled["engine"].kernel_iterations == 3

    def test_single_rank_wave_is_empty_noop(self):
        """A 1x1 grid has four walls: the recipe is empty and both drivers
        are harmless no-ops."""
        g = ProcessGrid(1, 1, 4, 4)

        def program(ctx):
            halo = HaloExchange(ctx.comm, g)
            assert halo.recipe == ()
            wave = yield from halo.comm.exchange(halo.recipe, waves=True)
            permsg = yield from halo.comm.exchange(halo.recipe, waves=False)
            return wave, permsg

        assert run_program(program, 1) == [([], [])]

    def test_wrong_field_shape_raises(self):
        g = ProcessGrid(2, 1, 4, 2)

        def program(ctx):
            HaloExchange.cached(ctx.comm, g, [np.zeros((3, 3))])
            if False:
                yield

        with pytest.raises(ValueError):
            run_program(program, 2)

    def test_cached_rebinds_to_new_fields(self):
        """The cache hands back the same recipe while the bound arrays are
        the same objects and rebuilds it when they change."""
        g = ProcessGrid(2, 1, 4, 2)

        def program(ctx):
            fields = _tiles(g, ctx)
            first = HaloExchange.cached(ctx.comm, g, fields)
            assert HaloExchange.cached(ctx.comm, g, list(fields)) is first
            other = HaloExchange.cached(ctx.comm, g, _tiles(g, ctx))
            assert other is not first
            assert HaloExchange.cached(ctx.comm, g, nfields=2) is not other
            if False:
                yield

        run_program(program, 2)
