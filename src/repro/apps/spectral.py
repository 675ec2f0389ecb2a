"""Spectral (all-to-all) workload — the §V caveat, made testable.

The paper closes its evaluation with a warning: "The same results are
expected for other HPC applications, **except in the case of all-to-all
communications**" (§V). This workload exercises exactly that regime: a
pencil-decomposed 2-D transform where every iteration performs a global
transpose (``MPI_Alltoall``), so every process exchanges data with every
other and *no* partition of the processes can keep much traffic
intra-cluster — the logged fraction of a k-cluster partition is pinned
near ``1 - 1/k`` regardless of how clever the clustering is.

The compute step is a real separable transform (forward + inverse DFT via
``numpy.fft`` along alternating axes), bit-reproducible against a serial
reference like the stencil apps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.apps.workload import ExecutionMode, runs_kernels, runs_waves
from repro.simmpi.comm import Post
from repro.simmpi.engine import KernelLoop
from repro.util.validation import check_positive


@dataclass(frozen=True)
class SpectralConfig:
    """Configuration of the pencil-decomposed transform workload.

    The global ``n × n`` complex field is split into ``nranks`` row pencils;
    each iteration applies an FFT along rows, transposes globally
    (all-to-all), applies an FFT along the (new) rows, damps the spectrum,
    and transforms back — a cut-down spectral solver time step.
    """

    nranks: int = 4
    n: int = 32
    iterations: int = 4
    damping: float = 0.99
    synthetic: bool = False
    mode: ExecutionMode = ExecutionMode.KERNELS

    def __post_init__(self) -> None:
        check_positive("nranks", self.nranks)
        check_positive("iterations", self.iterations, strict=False)
        if self.n % self.nranks:
            raise ValueError(
                f"grid side {self.n} not divisible by {self.nranks} ranks"
            )

    @property
    def rows_per_rank(self) -> int:
        """Pencil height owned by each rank."""
        return self.n // self.nranks

    @property
    def block_bytes(self) -> int:
        """Bytes of one all-to-all block (complex128)."""
        return self.rows_per_rank * self.rows_per_rank * 16


def initial_field(cfg: SpectralConfig) -> np.ndarray:
    """Deterministic full-grid initial condition (two crossed plane waves)."""
    ys, xs = np.meshgrid(
        np.arange(cfg.n, dtype=np.float64),
        np.arange(cfg.n, dtype=np.float64),
        indexing="ij",
    )
    return (
        np.sin(2.0 * np.pi * 3.0 * xs / cfg.n)
        + 0.5 * np.cos(2.0 * np.pi * 5.0 * ys / cfg.n)
    ).astype(np.complex128)


@dataclass(frozen=True)
class PencilGrid:
    """Minimal grid descriptor (interface parity with the stencil apps)."""

    nranks: int


class SpectralSimulation:
    """Builds rank programs for (and serial references of) one configuration."""

    def __init__(self, cfg: SpectralConfig):
        self.cfg = cfg
        self.grid = PencilGrid(cfg.nranks)

    @property
    def nranks(self) -> int:
        """Number of ranks the workload decomposes over."""
        return self.cfg.nranks

    def make_rank_state(self, rank: int) -> dict:
        """Initial pencil (rows ``rank·h … (rank+1)·h``) for ``rank``."""
        cfg = self.cfg
        h = cfg.rows_per_rank
        field = initial_field(cfg)
        return {"pencil": field[rank * h : (rank + 1) * h].copy(), "iteration": 0}

    @staticmethod
    def _blocks_of(pencil: np.ndarray, nranks: int) -> list[np.ndarray]:
        """Column blocks of a pencil, one per destination rank."""
        return [b.copy() for b in np.array_split(pencil, nranks, axis=1)]

    @staticmethod
    def _transpose_merge(blocks: list[np.ndarray]) -> np.ndarray:
        """Reassemble received blocks into the transposed pencil."""
        return np.concatenate([b.T for b in blocks], axis=1)

    def _transpose(self, comm) -> tuple[Post, ...]:
        """The recipe of one synthetic all-to-all round, cached per
        (simulation, communicator): the pairwise-exchange sends (no
        self-message) interleaved with their explicit-source receives.
        Both transpose rounds of every iteration rerun it."""
        user = comm.ctx.user
        # The key tuple holds the simulation itself (identity hash), so
        # the cache entry keeps it alive and a recycled id can never
        # resurrect a recipe built for a different simulation.
        key = ("transpose", self, comm.comm_id)
        recipe = user.get(key)
        if recipe is None:
            posts = []
            for step in range(1, comm.size):
                dst = (comm.rank + step) % comm.size
                src = (comm.rank - step) % comm.size
                posts.append(Post(True, dst, 777, self.cfg.block_bytes, "transpose"))
                posts.append(Post(False, src, 777))
            recipe = user[key] = tuple(posts)
        return recipe

    def step(self, comm, state: dict):
        """One iteration: FFT rows → global transpose → FFT rows →
        damp → inverse transform (transpose back included).

        Generator coroutine (``yield from`` it inside a rank program).
        """
        cfg = self.cfg
        if cfg.synthetic:
            # Two all-to-alls per iteration, metadata only.
            recipe = self._transpose(comm)
            waves = runs_waves(cfg.mode, comm)
            for _ in range(2):
                yield from comm.exchange(recipe, waves=waves)
            state["iteration"] += 1
            return

        pencil = state["pencil"]
        work = np.fft.fft(pencil, axis=1)
        blocks = yield from comm.alltoall(self._blocks_of(work, comm.size))
        work = self._transpose_merge(blocks)
        work = np.fft.fft(work, axis=1)
        work *= cfg.damping
        work = np.fft.ifft(work, axis=1)
        blocks = yield from comm.alltoall(self._blocks_of(work, comm.size))
        work = self._transpose_merge(blocks)
        state["pencil"] = np.fft.ifft(work, axis=1)
        state["iteration"] += 1

    def make_program(self, *, iterations: int | None = None, hook: Callable | None = None):
        """Rank-program factory (same interface as the stencil apps)."""
        niter = self.cfg.iterations if iterations is None else iterations

        def program(ctx):
            comm = ctx.comm
            if comm.size != self.cfg.nranks:
                raise ValueError(
                    f"communicator size {comm.size} != {self.cfg.nranks}"
                )
            state = (
                {"iteration": 0}
                if self.cfg.synthetic
                else self.make_rank_state(comm.rank)
            )
            if runs_kernels(self.cfg, comm, hook) and state["iteration"] < niter:
                start, drain = comm.wave(self._transpose(comm))
                # Two transpose rounds per iteration — same wave twice.
                yield KernelLoop(start, drain, 2 * (niter - state["iteration"]))
                state["iteration"] = niter
                return state
            while state["iteration"] < niter:
                if hook is not None:
                    yield from hook(ctx, comm, self, state, state["iteration"])
                yield from self.step(comm, state)
            return state

        return program

    def run_serial_reference(self, iterations: int | None = None) -> np.ndarray:
        """Undecomposed reference of the same transform sequence."""
        cfg = self.cfg
        if cfg.synthetic:
            raise ValueError("serial reference requires real payloads")
        niter = cfg.iterations if iterations is None else iterations
        field = initial_field(cfg)
        for _ in range(niter):
            work = np.fft.fft(field, axis=1)
            work = work.T
            work = np.fft.fft(work, axis=1)
            work *= cfg.damping
            work = np.fft.ifft(work, axis=1)
            work = work.T
            field = np.fft.ifft(work, axis=1)
        return field

    def gather_global_field(self, states: list[dict]) -> np.ndarray:
        """Stitch pencils back into the global field."""
        return np.concatenate([s["pencil"] for s in states], axis=0)
