"""Tsunami simulation workload — the paper's evaluation application.

The original study ran the multi-GPU tsunami code of Arce-Acuna & Aoki [1]:
a 2-D shallow-water solver over a decomposed sea region where "each process
computes the fluid dynamics of its segment" and neighbors exchange ghost
regions (§III). We reproduce the *parallel structure* with a linearized
shallow-water solver (Lax–Friedrichs scheme over wave height ``eta`` and
depth-averaged velocities ``u``, ``v``) on the same 2-D decomposition.

Shape calibration (documented in DESIGN.md §5): the paper's trace shows the
east-west exchange dominating the north-south one, and consecutive-rank
clusters of 32 logging < 4 % of bytes. Both pin the tile aspect ratio near
height ≈ 24 × width; :func:`paper_tsunami_config` uses 32×768-cell tiles on
a 32×32 process grid.

Two payload modes:

* ``synthetic=False`` — full numerics, bit-comparable with
  :meth:`TsunamiSimulation.run_serial_reference` (used by correctness and
  recovery-equivalence tests at small scale);
* ``synthetic=True`` — halo messages carry byte counts only, making
  1024-rank trace collection cheap (the byte matrix is identical).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.apps.stencil import (
    HaloWave,
    ProcessGrid,
    halo_exchange,
    synthetic_halo_exchange,
)
from repro.apps.workload import ExecutionMode
from repro.util.validation import check_positive

#: Gravitational acceleration used by the solver (m/s^2).
GRAVITY = 9.81


@dataclass(frozen=True)
class TsunamiConfig:
    """Configuration of one tsunami run.

    ``allreduce_every`` mimics the global wave-height monitoring collective
    real tsunami codes perform (and exercises the collective path in the
    trace); set to 0 to disable.
    """

    px: int = 4
    py: int = 4
    nx: int = 64
    ny: int = 64
    iterations: int = 100
    dx: float = 1000.0  # cell size (m)
    depth: float = 100.0  # resting water depth (m)
    dt: float | None = None  # None: 0.4 * CFL limit
    synthetic: bool = False
    # How the steady-state loop drives the engine. Messages, traces and
    # clocks are identical across modes; PER_MESSAGE pins the bit-exact
    # isend/irecv/wait reference.
    mode: ExecutionMode = ExecutionMode.KERNELS
    allreduce_every: int = 25
    # Initial condition: Gaussian hump (amplitude in m, width in cells).
    hump_amplitude: float = 2.0
    hump_width: float = 6.0
    hump_x: float = 0.5  # relative position in [0, 1]
    hump_y: float = 0.5

    def __post_init__(self) -> None:
        check_positive("iterations", self.iterations, strict=False)
        check_positive("dx", self.dx)
        check_positive("depth", self.depth)
        ProcessGrid(self.px, self.py, self.nx, self.ny)  # validates divisibility

    @property
    def grid(self) -> ProcessGrid:
        """The process grid implied by this configuration."""
        return ProcessGrid(self.px, self.py, self.nx, self.ny)

    @property
    def wave_speed(self) -> float:
        """Gravity-wave speed ``sqrt(g·H)`` (m/s)."""
        return float(np.sqrt(GRAVITY * self.depth))

    @property
    def timestep(self) -> float:
        """Explicit time step (0.4 × the 2-D CFL limit unless overridden)."""
        if self.dt is not None:
            return self.dt
        return 0.4 * self.dx / (self.wave_speed * np.sqrt(2.0))


def initial_eta(cfg: TsunamiConfig, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Initial wave height at global cell centers ``(ys, xs)`` (meshgrid-style).

    Both the serial reference and the per-rank tiles evaluate this same
    expression on global coordinates, so decomposition cannot perturb the
    initial condition.
    """
    # Relative positions map onto [0, n-1] so hump_x = 0.5 is the exact
    # geometric center of the cell grid (keeps symmetric setups symmetric).
    cx = cfg.hump_x * (cfg.nx - 1)
    cy = cfg.hump_y * (cfg.ny - 1)
    r2 = (xs - cx) ** 2 + (ys - cy) ** 2
    return cfg.hump_amplitude * np.exp(-r2 / (2.0 * cfg.hump_width**2))


def swe_step(
    eta: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    *,
    dt: float,
    dx: float,
    depth: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Lax–Friedrichs step of the linear shallow-water equations.

    Inputs are *padded* arrays (one ghost cell per side, already filled);
    returns the new interior (unpadded) fields. The identical function runs
    on the serial grid and on each parallel tile, so a correct halo fill
    implies bitwise-identical trajectories.
    """
    c = dt / (2.0 * dx)

    def avg4(f: np.ndarray) -> np.ndarray:
        return 0.25 * (f[:-2, 1:-1] + f[2:, 1:-1] + f[1:-1, :-2] + f[1:-1, 2:])

    detadx = eta[1:-1, 2:] - eta[1:-1, :-2]
    detady = eta[2:, 1:-1] - eta[:-2, 1:-1]
    dudx = u[1:-1, 2:] - u[1:-1, :-2]
    dvdy = v[2:, 1:-1] - v[:-2, 1:-1]

    eta_new = avg4(eta) - depth * c * (dudx + dvdy)
    u_new = avg4(u) - GRAVITY * c * detadx
    v_new = avg4(v) - GRAVITY * c * detady
    return eta_new, u_new, v_new


def fill_physical_ghosts(
    eta: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    *,
    north: bool,
    east: bool,
    south: bool,
    west: bool,
) -> None:
    """Reflective (closed-basin) boundary fill on the flagged sides.

    Wave height and tangential velocity mirror the adjacent interior cell;
    the wall-normal velocity flips sign, modeling a rigid coastline.
    """
    if north:
        eta[0, :] = eta[1, :]
        u[0, :] = u[1, :]
        v[0, :] = -v[1, :]
    if south:
        eta[-1, :] = eta[-2, :]
        u[-1, :] = u[-2, :]
        v[-1, :] = -v[-2, :]
    if west:
        eta[:, 0] = eta[:, 1]
        u[:, 0] = -u[:, 1]
        v[:, 0] = v[:, 1]
    if east:
        eta[:, -1] = eta[:, -2]
        u[:, -1] = -u[:, -2]
        v[:, -1] = v[:, -2]


def clone_state(state: dict) -> dict:
    """Deep-copy a rank state (NumPy leaves copied, scalars passed through)."""
    return {
        k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in state.items()
    }


class TsunamiSimulation:
    """Builds rank programs for (and serial references of) one configuration."""

    def __init__(self, cfg: TsunamiConfig):
        self.cfg = cfg
        self.grid = cfg.grid

    # -- parallel ----------------------------------------------------------

    def make_rank_state(self, rank: int) -> dict:
        """Initial padded tile state for ``rank`` (real-payload mode)."""
        cfg = self.cfg
        ty, tx = self.grid.tile_ny, self.grid.tile_nx
        ys_sl, xs_sl = self.grid.tile_slices(rank)
        ys, xs = np.meshgrid(
            np.arange(ys_sl.start, ys_sl.stop, dtype=np.float64),
            np.arange(xs_sl.start, xs_sl.stop, dtype=np.float64),
            indexing="ij",
        )
        eta = np.zeros((ty + 2, tx + 2))
        u = np.zeros_like(eta)
        v = np.zeros_like(eta)
        eta[1:-1, 1:-1] = initial_eta(cfg, ys, xs)
        return {"eta": eta, "u": u, "v": v, "iteration": 0}

    def _physical_sides(self, rank: int) -> dict[str, bool]:
        north, east, south, west = self.grid.neighbors_of(rank)
        return {
            "north": north is None,
            "east": east is None,
            "south": south is None,
            "west": west is None,
        }

    def step(self, comm, state: dict, *, kind: str = "halo"):
        """One parallel iteration: halo exchange, boundary fill, update.

        Generator coroutine (``yield from`` it inside a rank program).
        Mutates ``state`` in place and bumps ``state['iteration']``.
        With ``cfg.mode.use_waves`` (and a communicator that supports them) the
        halo travels as a compiled persistent wave — same messages, traces
        and clocks as the per-message exchange, two engine yields per
        iteration.
        """
        cfg = self.cfg
        use_wave = cfg.mode.use_waves and getattr(comm, "supports_waves", False)
        if cfg.synthetic:
            if use_wave:
                wave = HaloWave.cached(comm, self.grid, nfields=3, kind=kind)
                yield wave.start_op
                yield wave.drain_op
            else:
                yield from synthetic_halo_exchange(
                    comm, self.grid, nfields=3, itemsize=8, kind=kind
                )
        else:
            eta, u, v = state["eta"], state["u"], state["v"]
            if use_wave:
                wave = HaloWave.cached(
                    comm, self.grid, [eta, u, v], nfields=3, kind=kind
                )
                yield from wave.exchange()
            else:
                yield from halo_exchange(comm, self.grid, [eta, u, v], kind=kind)
            fill_physical_ghosts(eta, u, v, **self._physical_sides(comm.rank))
            eta_new, u_new, v_new = swe_step(
                eta, u, v, dt=cfg.timestep, dx=cfg.dx, depth=cfg.depth
            )
            eta[1:-1, 1:-1] = eta_new
            u[1:-1, 1:-1] = u_new
            v[1:-1, 1:-1] = v_new
        state["iteration"] += 1

        if cfg.allreduce_every and state["iteration"] % cfg.allreduce_every == 0:
            local_max = (
                0.0 if cfg.synthetic else float(np.abs(eta[1:-1, 1:-1]).max())
            )
            from repro.simmpi.collectives import max_op

            state["eta_max"] = yield from comm.allreduce(local_max, max_op)

    def make_program(
        self,
        *,
        iterations: int | None = None,
        hook: Callable | None = None,
        initial_states: list[dict] | None = None,
    ):
        """Build the rank program.

        ``hook(ctx, comm, sim, state, iteration)``, when given, must be a
        generator function invoked *before* every iteration — the seam where
        the fault-tolerance runtimes (FTI checkpoints, HydEE coordination)
        plug in without the application knowing about them.

        ``initial_states`` resumes every rank from a previous state (a list
        indexed by rank, e.g. checkpoints merged after a recovery); states
        are deep-copied so callers keep their snapshots.
        """
        niter = self.cfg.iterations if iterations is None else iterations

        def program(ctx):
            comm = ctx.comm
            if comm.size != self.grid.nranks:
                raise ValueError(
                    f"communicator size {comm.size} != process grid "
                    f"{self.grid.nranks}"
                )
            if initial_states is not None:
                state = clone_state(initial_states[comm.rank])
            elif self.cfg.synthetic:
                # Keep only scalar state; tiles are never touched.
                state = {"iteration": 0}
            else:
                state = self.make_rank_state(comm.rank)
            if (
                hook is None
                and self.cfg.synthetic
                and self.cfg.mode.use_kernels
                and getattr(comm, "supports_waves", False)
            ):
                yield from self._kernel_program(comm, state, niter)
                return state
            while state["iteration"] < niter:
                if hook is not None:
                    yield from hook(ctx, comm, self, state, state["iteration"])
                yield from self.step(comm, state)
            return state

        return program

    def _kernel_program(self, comm, state: dict, niter: int):
        """Synthetic steady loop as KernelLoop ops, chunked at allreduce
        boundaries so each chunk's trailing collective rides in the
        kernel's fused window (or, when the group can't take the fast
        path, as a plain allreduce after the chunk — same tags, traces
        and clocks as the interpreted loop either way)."""
        from repro.simmpi.collectives import max_op

        every = self.cfg.allreduce_every
        wave = HaloWave.cached(comm, self.grid, nfields=3, kind="halo")
        while state["iteration"] < niter:
            it = state["iteration"]
            if every:
                chunk = min((it // every + 1) * every, niter) - it
            else:
                chunk = niter - it
            fire = bool(every) and (it + chunk) % every == 0
            if fire and comm.collective_windows_ok():
                _, wres = yield wave.kernel_loop(
                    chunk, (comm.allreduce_op(0.0, max_op),)
                )
                state["eta_max"] = wres[0]
            else:
                yield wave.kernel_loop(chunk)
                if fire:
                    state["eta_max"] = yield from comm.allreduce(0.0, max_op)
            state["iteration"] = it + chunk

    # -- serial reference ---------------------------------------------------

    def run_serial_reference(self, iterations: int | None = None) -> dict:
        """Solve the same problem on one undecomposed grid.

        Returns the final global fields; used as the oracle for parallel
        correctness (bitwise equality, see tests).
        """
        cfg = self.cfg
        if cfg.synthetic:
            raise ValueError("serial reference requires real payloads")
        niter = cfg.iterations if iterations is None else iterations
        ys, xs = np.meshgrid(
            np.arange(cfg.ny, dtype=np.float64),
            np.arange(cfg.nx, dtype=np.float64),
            indexing="ij",
        )
        eta = np.zeros((cfg.ny + 2, cfg.nx + 2))
        u = np.zeros_like(eta)
        v = np.zeros_like(eta)
        eta[1:-1, 1:-1] = initial_eta(cfg, ys, xs)
        for _ in range(niter):
            fill_physical_ghosts(eta, u, v, north=True, east=True, south=True, west=True)
            eta_new, u_new, v_new = swe_step(
                eta, u, v, dt=cfg.timestep, dx=cfg.dx, depth=cfg.depth
            )
            eta[1:-1, 1:-1] = eta_new
            u[1:-1, 1:-1] = u_new
            v[1:-1, 1:-1] = v_new
        return {
            "eta": eta[1:-1, 1:-1].copy(),
            "u": u[1:-1, 1:-1].copy(),
            "v": v[1:-1, 1:-1].copy(),
        }

    def gather_global_field(self, states: list[dict], name: str = "eta") -> np.ndarray:
        """Stitch per-rank final tiles back into the global field."""
        cfg = self.cfg
        out = np.empty((cfg.ny, cfg.nx))
        for rank, state in enumerate(states):
            ys_sl, xs_sl = self.grid.tile_slices(rank)
            out[ys_sl, xs_sl] = state[name][1:-1, 1:-1]
        return out


def paper_tsunami_config(
    *,
    iterations: int = 100,
    synthetic: bool = True,
    tile_nx: int = 32,
    tile_ny: int = 768,
) -> TsunamiConfig:
    """The §V trace configuration: 32×32 process grid, tall-narrow tiles.

    1024 processes; tile aspect ``ny/nx = 24`` reproduces the paper's
    logging-fraction curve (≈25 % at clusters of 4, ≈13 % at 8, <4 % at 32 —
    Fig. 3). Synthetic payloads by default: at this scale only the byte
    matrix matters.
    """
    return TsunamiConfig(
        px=32,
        py=32,
        nx=32 * tile_nx,
        ny=32 * tile_ny,
        iterations=iterations,
        synthetic=synthetic,
        allreduce_every=25,
    )
