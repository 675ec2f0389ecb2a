"""2-D heat-diffusion workload: a second stencil application.

The paper argues its results generalize to "stencil applications which are
widely used in HPC" (§III); this Jacobi heat solver is the second data point
— same halo-exchange skeleton as the tsunami code, different physics and a
single field, so per-message volumes differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.apps.stencil import HaloExchange, ProcessGrid
from repro.apps.workload import ExecutionMode, runs_kernels, runs_waves
from repro.util.validation import check_in_range, check_positive


@dataclass(frozen=True)
class HeatConfig:
    """Configuration of one heat-diffusion run (Dirichlet walls at 0)."""

    px: int = 4
    py: int = 4
    nx: int = 64
    ny: int = 64
    iterations: int = 100
    alpha: float = 0.2  # diffusion number dt*k/dx^2, stable for < 0.25
    synthetic: bool = False
    mode: ExecutionMode = ExecutionMode.KERNELS
    hot_spot_temp: float = 100.0

    def __post_init__(self) -> None:
        check_positive("iterations", self.iterations, strict=False)
        check_in_range("alpha", self.alpha, 0.0, 0.25)
        ProcessGrid(self.px, self.py, self.nx, self.ny)

    @property
    def grid(self) -> ProcessGrid:
        """The process grid implied by this configuration."""
        return ProcessGrid(self.px, self.py, self.nx, self.ny)


def heat_step(t: np.ndarray, alpha: float) -> np.ndarray:
    """One Jacobi step on a padded array; returns the new interior."""
    return t[1:-1, 1:-1] + alpha * (
        t[:-2, 1:-1] + t[2:, 1:-1] + t[1:-1, :-2] + t[1:-1, 2:] - 4.0 * t[1:-1, 1:-1]
    )


def initial_temperature(cfg: HeatConfig, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Hot square in the domain center, evaluated on global coordinates."""
    out = np.zeros_like(xs, dtype=np.float64)
    in_x = (xs >= cfg.nx * 0.4) & (xs < cfg.nx * 0.6)
    in_y = (ys >= cfg.ny * 0.4) & (ys < cfg.ny * 0.6)
    out[in_x & in_y] = cfg.hot_spot_temp
    return out


class HeatSimulation:
    """Builds rank programs for (and serial references of) one configuration."""

    def __init__(self, cfg: HeatConfig):
        self.cfg = cfg
        self.grid = cfg.grid

    def make_rank_state(self, rank: int) -> dict:
        """Initial padded tile for ``rank``."""
        ty, tx = self.grid.tile_ny, self.grid.tile_nx
        ys_sl, xs_sl = self.grid.tile_slices(rank)
        ys, xs = np.meshgrid(
            np.arange(ys_sl.start, ys_sl.stop, dtype=np.float64),
            np.arange(xs_sl.start, xs_sl.stop, dtype=np.float64),
            indexing="ij",
        )
        t = np.zeros((ty + 2, tx + 2))
        t[1:-1, 1:-1] = initial_temperature(self.cfg, ys, xs)
        return {"t": t, "iteration": 0}

    def step(self, comm, state: dict):
        """One parallel iteration (generator coroutine)."""
        fields = None if self.cfg.synthetic else [state["t"]]
        halo = HaloExchange.cached(comm, self.grid, fields)
        yield from halo.run(runs_waves(self.cfg.mode, comm))
        if fields is not None:
            # Dirichlet walls: ghost stays 0 on physical boundaries, which
            # the zero-initialized padding already provides.
            t = state["t"]
            t[1:-1, 1:-1] = heat_step(t, self.cfg.alpha)
        state["iteration"] += 1

    def make_program(
        self,
        *,
        iterations: int | None = None,
        hook: Callable | None = None,
        initial_states: list[dict] | None = None,
    ):
        """Rank-program factory; ``hook``/``initial_states`` as in the tsunami app."""
        from repro.apps.tsunami import clone_state

        niter = self.cfg.iterations if iterations is None else iterations

        def program(ctx):
            comm = ctx.comm
            if initial_states is not None:
                state = clone_state(initial_states[comm.rank])
            elif self.cfg.synthetic:
                state = {"iteration": 0}
            else:
                state = self.make_rank_state(comm.rank)
            if runs_kernels(self.cfg, comm, hook) and state["iteration"] < niter:
                recipe = HaloExchange.cached(comm, self.grid).recipe
                yield from comm.repeat(recipe, niter - state["iteration"])
                state["iteration"] = niter
                return state
            while state["iteration"] < niter:
                if hook is not None:
                    yield from hook(ctx, comm, self, state, state["iteration"])
                yield from self.step(comm, state)
            return state

        return program

    def run_serial_reference(self, iterations: int | None = None) -> np.ndarray:
        """Undecomposed solve; returns the final temperature field."""
        cfg = self.cfg
        if cfg.synthetic:
            raise ValueError("serial reference requires real payloads")
        niter = cfg.iterations if iterations is None else iterations
        ys, xs = np.meshgrid(
            np.arange(cfg.ny, dtype=np.float64),
            np.arange(cfg.nx, dtype=np.float64),
            indexing="ij",
        )
        t = np.zeros((cfg.ny + 2, cfg.nx + 2))
        t[1:-1, 1:-1] = initial_temperature(cfg, ys, xs)
        for _ in range(niter):
            t[1:-1, 1:-1] = heat_step(t, cfg.alpha)
        return t[1:-1, 1:-1].copy()

    def gather_global_field(self, states: list[dict]) -> np.ndarray:
        """Stitch per-rank tiles back into the global field."""
        out = np.empty((self.cfg.ny, self.cfg.nx))
        for rank, state in enumerate(states):
            ys_sl, xs_sl = self.grid.tile_slices(rank)
            out[ys_sl, xs_sl] = state["t"][1:-1, 1:-1]
        return out
