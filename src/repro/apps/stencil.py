"""Generic 2-D domain decomposition and halo exchange.

Both workloads (tsunami shallow-water, heat diffusion) are stencil codes:
each rank owns a rectangular tile of a global grid and exchanges ghost
(halo) rows/columns with its 4 neighbors every iteration — "processes
communicate with their neighbors to share ghosts regions" (§III). This
module holds the decomposition arithmetic and the exchange; the physics
lives in the per-application modules.

Rank numbering is **row-major**: rank = row · Px + col. With the paper's
placement (consecutive ranks per node), east/west neighbors are ±1 — mostly
intra-node — and north/south neighbors are ±Px — inter-node. That is what
produces the "blue double diagonal" of Fig. 5a/5b.

One recipe, two drivers: :class:`HaloExchange` describes a rank's exchange
once, as an exchange recipe (:class:`repro.simmpi.Post` entries), and
either driver of :meth:`repro.simmpi.Communicator.exchange` runs it — the
persistent-request wave (``ExecutionMode.WAVES`` / ``KERNELS``, which also
runs the whole steady loop through ``Communicator.repeat``) or message by
message (``ExecutionMode.PER_MESSAGE``, and HydEE replay windows). The recipe
posts all four halo sends before the first wait, the shape the engine's
batched p2p pricing amortizes. The independent oracle is a halo loop
written out by hand with ``isend`` / ``irecv`` / ``wait`` in the test
suites, which every mode must match in results, traces and clocks.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from repro.simmpi.comm import Post

#: Direction indices, clockwise from north.
NORTH, EAST, SOUTH, WEST = 0, 1, 2, 3
_DIR_NAMES = ("north", "east", "south", "west")

#: Base tag for halo messages; direction is encoded in the low bits.
HALO_TAG_BASE = 1000

# Interior slices sent to each direction / ghost slices filled from it.
_SEND_SLICES = {
    NORTH: (slice(1, 2), slice(1, -1)),
    SOUTH: (slice(-2, -1), slice(1, -1)),
    WEST: (slice(1, -1), slice(1, 2)),
    EAST: (slice(1, -1), slice(-2, -1)),
}
_RECV_SLICES = {
    NORTH: (slice(0, 1), slice(1, -1)),
    SOUTH: (slice(-1, None), slice(1, -1)),
    WEST: (slice(1, -1), slice(0, 1)),
    EAST: (slice(1, -1), slice(-1, None)),
}
_OPPOSITE = {NORTH: SOUTH, SOUTH: NORTH, EAST: WEST, WEST: EAST}


@dataclass(frozen=True)
class ProcessGrid:
    """A ``py × px`` grid of ranks over a ``ny × nx`` global cell grid.

    ``px`` counts ranks along x (columns / width), ``py`` along y (rows /
    height). Tiles must divide evenly — the paper's runs are powers of two.
    """

    px: int
    py: int
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if self.px <= 0 or self.py <= 0:
            raise ValueError(f"process grid must be positive, got {self.px}x{self.py}")
        if self.nx % self.px or self.ny % self.py:
            raise ValueError(
                f"grid {self.nx}x{self.ny} not divisible by process grid "
                f"{self.px}x{self.py}"
            )

    @property
    def nranks(self) -> int:
        """Total rank count ``px · py``."""
        return self.px * self.py

    @property
    def tile_nx(self) -> int:
        """Tile width in cells."""
        return self.nx // self.px

    @property
    def tile_ny(self) -> int:
        """Tile height in cells."""
        return self.ny // self.py

    def coords_of(self, rank: int) -> tuple[int, int]:
        """(row, col) of ``rank`` (row-major numbering)."""
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} out of range [0, {self.nranks})")
        return divmod(rank, self.px)

    def rank_at(self, row: int, col: int) -> int:
        """Rank at grid position (row, col)."""
        if not (0 <= row < self.py and 0 <= col < self.px):
            raise ValueError(f"coords ({row}, {col}) outside {self.py}x{self.px}")
        return row * self.px + col

    def neighbors_of(self, rank: int) -> tuple[int | None, int | None, int | None, int | None]:
        """(north, east, south, west) neighbor ranks, ``None`` at walls."""
        row, col = self.coords_of(rank)
        return (
            self.rank_at(row - 1, col) if row > 0 else None,
            self.rank_at(row, col + 1) if col < self.px - 1 else None,
            self.rank_at(row + 1, col) if row < self.py - 1 else None,
            self.rank_at(row, col - 1) if col > 0 else None,
        )

    def tile_slices(self, rank: int) -> tuple[slice, slice]:
        """Global (y, x) index slices of ``rank``'s tile."""
        row, col = self.coords_of(rank)
        ty, tx = self.tile_ny, self.tile_nx
        return (slice(row * ty, (row + 1) * ty), slice(col * tx, (col + 1) * tx))


class HaloExchange:
    """The halo exchange of one (communicator, fields) pair, as a recipe.

    :attr:`recipe` lists, for each existing neighbor in N, E, S, W order,
    the send toward it and the receive from it (tags encode the direction,
    so the four concurrent exchanges never cross-match). :meth:`run` hands
    it to the wave or the per-message driver of
    :meth:`repro.simmpi.Communicator.exchange`.

    Two payload modes:

    * *synthetic* (``fields=None``) — messages carry byte counts only,
      ``nfields`` float64 values per edge cell;
    * *real* (``fields`` given) — padded ``(tile_ny + 2, tile_nx + 2)``
      tiles; ghost layers of all fields travel in one message per
      direction. Each send owns a pack buffer that :meth:`run` fills from
      the current edge slices before posting (both drivers snapshot it)
      and received payloads are scattered into the ghost layers after.

    Stencil codes mutate their tiles in place, so one exchange per rank
    per run is the expected shape (:meth:`cached`).
    """

    __slots__ = ("comm", "grid", "fields", "recipe", "_pack", "_unpack")

    def __init__(
        self,
        comm,
        grid: ProcessGrid,
        fields: list[np.ndarray] | None = None,
        *,
        nfields: int = 1,
        kind: str = "halo",
    ):
        self.comm = comm
        self.grid = grid
        self.fields = fields
        ty, tx = grid.tile_ny, grid.tile_nx
        itemsize = 8
        if fields is not None:
            nfields = len(fields)
            itemsize = fields[0].itemsize
            for f in fields:
                if f.shape != (ty + 2, tx + 2):
                    raise ValueError(
                        f"field shape {f.shape} != padded tile ({ty + 2}, {tx + 2})"
                    )
        edge_cells = {NORTH: tx, SOUTH: tx, EAST: ty, WEST: ty}
        neighbors = grid.neighbors_of(comm.rank)
        posts = []
        # Per-direction (buffer, edge slices) and ghost slices for the
        # real-payload pack/unpack passes, in posting/wait order.
        self._pack: list[tuple[np.ndarray, tuple[slice, slice]]] = []
        self._unpack: list[tuple[slice, slice]] = []
        for direction in (NORTH, EAST, SOUTH, WEST):
            neighbor = neighbors[direction]
            if neighbor is None:
                continue
            cells = nfields * edge_cells[direction]
            buffer = None
            if fields is not None:
                buffer = np.empty(cells, dtype=fields[0].dtype)
                self._pack.append((buffer, _SEND_SLICES[direction]))
                self._unpack.append(_RECV_SLICES[direction])
            # My message toward `direction` arrives at the neighbor labeled
            # as coming from the opposite direction.
            posts.append(
                Post(True, neighbor, HALO_TAG_BASE + direction, cells * itemsize, kind, buffer)
            )
            posts.append(Post(False, neighbor, HALO_TAG_BASE + _OPPOSITE[direction]))
        self.recipe = tuple(posts)

    @classmethod
    def cached(
        cls,
        comm,
        grid: ProcessGrid,
        fields: list[np.ndarray] | None = None,
        *,
        nfields: int = 1,
        kind: str = "halo",
    ) -> "HaloExchange":
        """Build-once accessor for steady-state loops.

        Cached in the rank's ``ctx.user`` dict (scoped to one engine run)
        per (communicator, kind, field count), and rebuilt when the
        communicator, grid or bound field arrays change identity (a caller
        stepping a different state through the same communicator). The
        entry holds the fields, so no ``id`` can be recycled under it.
        """
        user = comm.ctx.user
        key = ("halo", comm.comm_id, kind, nfields if fields is None else len(fields))
        halo = user.get(key)
        if (
            halo is None
            or halo.comm is not comm
            or halo.grid is not grid
            or (halo.fields is None) != (fields is None)
            or (fields is not None and not all(map(operator.is_, halo.fields, fields)))
        ):
            halo = user[key] = cls(comm, grid, fields, nfields=nfields, kind=kind)
        return halo

    def run(self, waves: bool):
        """One halo exchange (generator coroutine — ``yield from`` it),
        through the wave driver when ``waves`` else message by message."""
        fields = self.fields
        for buf, sl in self._pack:
            np.concatenate([f[sl].ravel() for f in fields], out=buf)
        payloads = yield from self.comm.exchange(self.recipe, waves=waves)
        for payload, sl in zip(payloads, self._unpack):
            n = fields[0][sl].size
            for i, f in enumerate(fields):
                f[sl] = payload[i * n : (i + 1) * n].reshape(f[sl].shape)
