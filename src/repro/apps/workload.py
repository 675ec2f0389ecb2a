"""The uniform workload API: execution modes and per-rank program factories.

What every consumer (single engine, perf ledger, fuzz executor,
sharded workers) shares instead of assembling rank programs its own way:

* :class:`ExecutionMode` — the one enum naming how a workload drives the
  engine (``PER_MESSAGE`` / ``WAVES`` / ``KERNELS``). Every app config
  carries it as its ``mode`` field and nothing else about execution;
  readers ask the mode (``cfg.mode.use_waves`` / ``cfg.mode.use_kernels``).
* :class:`Workload` — a *picklable* per-rank program factory protocol:
  ``workload.build_program(rank)`` returns the rank's program callable,
  so a shard worker ships one small object across the process boundary
  and instantiates only its slice of the world. ``shard_atoms()``
  exposes the workload's indivisible rank groups to the partitioner
  (e.g. one FTI node block per atom, keeping every wildcard gather and
  its candidate senders inside one shard).

Concrete adapters wrap the existing simulations: :class:`HeatWorkload`,
:class:`TsunamiWorkload`, :class:`SpectralWorkload`,
:class:`FTIWorkload` (the fig5 control-traffic world) and
:class:`ProgramsWorkload` (explicit closures — in-process only, closures
do not pickle).
"""

from __future__ import annotations

import abc
from dataclasses import replace as _dc_replace
from enum import Enum
from typing import Any, Callable, Sequence


class ExecutionMode(Enum):
    """How a workload's steady-state loop drives the engine.

    ``PER_MESSAGE`` posts individual isend/irecv/wait ops (the bit-exact
    reference path); ``WAVES`` posts persistent-request halo waves (one
    ``start_all`` + one ``waitall`` per iteration); ``KERNELS``
    additionally declares :class:`~repro.simmpi.engine.KernelLoop` ops so
    eligible steady states execute closed-form. Messages, traces and
    clocks are identical across all three — the equivalence suites pin
    it — so the mode is purely a performance choice.
    """

    PER_MESSAGE = "per-message"
    WAVES = "waves"
    KERNELS = "kernels"

    @property
    def use_waves(self) -> bool:
        """Whether this mode posts persistent-request waves."""
        return self is not ExecutionMode.PER_MESSAGE

    @property
    def use_kernels(self) -> bool:
        """Whether this mode declares steady-state kernel loops."""
        return self is ExecutionMode.KERNELS


def with_mode(cfg: Any, mode: ExecutionMode) -> Any:
    """Copy an app config with its execution mode replaced."""
    return _dc_replace(cfg, mode=mode)


class Workload(abc.ABC):
    """A picklable factory of per-rank engine programs.

    Consumers never build app closures themselves: they ship the workload
    (one small object wrapping a frozen config) wherever the programs are
    needed — a worker process, a replay, the fuzz executor — and call
    :meth:`build_program` per rank. Implementations must be picklable and
    deterministic: equal workloads build programs with identical traffic
    on every host (lazily-built caches are dropped from the pickled
    state).
    """

    @property
    @abc.abstractmethod
    def nranks(self) -> int:
        """World size this workload's programs are built for."""

    @abc.abstractmethod
    def build_program(self, rank: int) -> Callable:
        """The program callable for one world rank."""

    def build_programs(self) -> list[Callable]:
        """All rank programs, in world-rank order."""
        return [self.build_program(rank) for rank in range(self.nranks)]

    def shard_atoms(self) -> list[tuple[int, ...]]:
        """Indivisible rank groups for the shard partitioner, in world order.

        Atoms are never split across shards. The default is one rank per
        atom; workloads whose correctness-relevant matching spans a rank
        group (an FTI node's wildcard ready-gather and its candidate
        senders) override this so the group stays co-resident.
        """
        return [(rank,) for rank in range(self.nranks)]


class _LazyProgramWorkload(Workload):
    """Shared plumbing: build (and cache) programs lazily, pickle configs only.

    ``_build()`` returns either one rank-agnostic program callable or a
    full per-rank list; the cache never crosses a pickle boundary, so a
    worker rebuilds its programs from the config deterministically.
    """

    _CACHE = "_program_cache"

    def _build(self):  # pragma: no cover - abstract-ish hook
        raise NotImplementedError

    def _programs(self):
        cached = self.__dict__.get(self._CACHE)
        if cached is None:
            cached = self.__dict__[self._CACHE] = self._build()
        return cached

    def build_program(self, rank: int) -> Callable:
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} outside world of {self.nranks}")
        built = self._programs()
        if callable(built):
            return built
        return built[rank]

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop(self._CACHE, None)
        return state

    def __eq__(self, other):
        return (
            other.__class__ is self.__class__
            and self.__getstate__() == other.__getstate__()
        )

    def __hash__(self):
        return hash((self.__class__, tuple(sorted(self.__getstate__().items()))))


class HeatWorkload(_LazyProgramWorkload):
    """The 2-D heat-diffusion stencil as a workload."""

    def __init__(self, cfg):
        self.cfg = cfg

    @property
    def nranks(self) -> int:
        return self.cfg.px * self.cfg.py

    def _build(self):
        from repro.apps.heat import HeatSimulation

        return HeatSimulation(self.cfg).make_program()


class TsunamiWorkload(_LazyProgramWorkload):
    """The tsunami shallow-water solver as a workload."""

    def __init__(self, cfg):
        self.cfg = cfg

    @property
    def nranks(self) -> int:
        return self.cfg.px * self.cfg.py

    def _build(self):
        from repro.apps.tsunami import TsunamiSimulation

        return TsunamiSimulation(self.cfg).make_program()


class SpectralWorkload(_LazyProgramWorkload):
    """The spectral transpose (pairwise all-to-all) as a workload."""

    def __init__(self, cfg):
        self.cfg = cfg

    @property
    def nranks(self) -> int:
        return self.cfg.nranks

    def _build(self):
        from repro.apps.spectral import SpectralSimulation

        return SpectralSimulation(self.cfg).make_program()


class FTIWorkload(_LazyProgramWorkload):
    """The fig5 world: app ranks plus per-node FTI encoder processes.

    Wraps :func:`repro.ftilib.tracesim.make_fti_world_programs` over a
    :class:`~repro.machine.placement.FTIPlacement`: each node block holds
    one encoder (world rank ``node * (app_per_node + 1)``) followed by
    its ``app_per_node`` application ranks. ``shard_atoms`` returns one
    atom per node block — the encoder's ``ANY_SOURCE`` ready-gathers and
    every candidate sender stay inside one shard, so cross-shard traffic
    is only the deterministic halo/ring/collective exchange.
    """

    def __init__(self, sim_cfg, *, nodes: int, app_per_node: int, iterations: int, trace_cfg=None):
        from repro.ftilib.tracesim import FTITraceConfig

        self.sim_cfg = sim_cfg
        self.nodes = nodes
        self.app_per_node = app_per_node
        self.iterations = iterations
        self.trace_cfg = trace_cfg if trace_cfg is not None else FTITraceConfig()

    @property
    def placement(self):
        from repro.machine.placement import FTIPlacement

        return FTIPlacement(self.nodes, self.app_per_node)

    @property
    def nranks(self) -> int:
        return self.nodes * (self.app_per_node + 1)

    def _build(self):
        from repro.apps.tsunami import TsunamiSimulation
        from repro.ftilib.tracesim import make_fti_world_programs

        return make_fti_world_programs(
            TsunamiSimulation(self.sim_cfg),
            self.placement,
            iterations=self.iterations,
            trace_cfg=self.trace_cfg,
        )

    def shard_atoms(self) -> list[tuple[int, ...]]:
        per_node = self.app_per_node + 1
        return [
            tuple(range(node * per_node, (node + 1) * per_node))
            for node in range(self.nodes)
        ]


class ProgramsWorkload(Workload):
    """Explicit per-rank program closures as a workload.

    The escape hatch for tests and ad-hoc programs. Closures generally do
    not pickle, so this workload only works with in-process execution
    (``workers=0`` in the sharded engine); the picklable adapters above
    are the multi-process path.
    """

    def __init__(self, programs: Sequence[Callable], *, atoms: Sequence[Sequence[int]] | None = None):
        self._program_list = list(programs)
        self._atoms = (
            None if atoms is None else [tuple(a) for a in atoms]
        )

    @property
    def nranks(self) -> int:
        return len(self._program_list)

    def build_program(self, rank: int) -> Callable:
        return self._program_list[rank]

    def build_programs(self) -> list[Callable]:
        return list(self._program_list)

    def shard_atoms(self) -> list[tuple[int, ...]]:
        if self._atoms is not None:
            return list(self._atoms)
        return super().shard_atoms()


def fig5_workload(
    *,
    nodes: int = 64,
    app_per_node: int = 16,
    iterations: int = 100,
    checkpoint_every: int = 25,
) -> FTIWorkload:
    """The §V fig5 world as a picklable workload.

    Same shapes as :func:`repro.core.experiments.experiment_fig5ab`: a
    synthetic tsunami grid sized to ``nodes * app_per_node`` application
    ranks (the paper's 1024-rank run keeps its 32×32 grid with the 24:1
    tile aspect), plus one FTI encoder per node.
    """
    import math

    from repro.apps.tsunami import TsunamiConfig
    from repro.ftilib.tracesim import FTITraceConfig

    n_app = nodes * app_per_node
    if n_app == 1024:
        px = 32
    else:
        # Most-square factorization: largest divisor not above the root.
        px = next(
            d for d in range(math.isqrt(n_app), 0, -1) if n_app % d == 0
        )
    py = n_app // px
    if px < 1 or px * py != n_app:
        raise ValueError(f"cannot build a 2-D grid over {n_app} app ranks")
    cfg = TsunamiConfig(
        px=px,
        py=py,
        nx=32 * px,
        ny=768 * py if n_app == 1024 else 32 * py,
        iterations=iterations,
        synthetic=True,
        allreduce_every=0,
    )
    return FTIWorkload(
        cfg,
        nodes=nodes,
        app_per_node=app_per_node,
        iterations=iterations,
        trace_cfg=FTITraceConfig(checkpoint_every=checkpoint_every),
    )


__all__ = [
    "ExecutionMode",
    "FTIWorkload",
    "HeatWorkload",
    "ProgramsWorkload",
    "SpectralWorkload",
    "TsunamiWorkload",
    "Workload",
    "fig5_workload",
    "with_mode",
]
