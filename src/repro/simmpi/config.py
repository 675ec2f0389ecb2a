"""One frozen, picklable configuration object for the simulation engine.

:class:`EngineConfig` consolidates the engine's keyword sprawl — the
fast-path gates (``use_fast_collectives`` / ``use_batched_p2p`` /
``use_kernels``), the pool sizing, the interleaving-exploration knobs and
the failure/observer gates — into one validated dataclass. It exists so
any consumer that replicates engines (the sharded multi-process engine's
workers, the fuzz executor, replay tooling) ships *one object* across a
process boundary instead of replaying keyword arguments, with the
guarantee that two engines built from equal configs behave identically.

``Engine(nranks, config=...)`` is the primary constructor; the legacy
keyword arguments keep working through a shim that builds a config (see
:meth:`Engine.__init__ <repro.simmpi.engine.Engine.__init__>`). Passing
both a config and legacy keywords is an error — silently merging them
would make "which flag won?" ambiguous.

The config is intentionally *immutable and value-like*: ``frozen=True``
makes it hashable and safe to share, and every field is built from
picklable primitives (a recorded
:class:`~repro.simmpi.schedule.ScheduleTrace` is a tuple-of-tuples
dataclass). The one engine hook that is *not* here is ``message_log`` —
it is a live observer object with callbacks, attached to a constructed
engine, not configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.simmpi.schedule import ScheduleTrace


@dataclass(frozen=True)
class EngineConfig:
    """Validated, picklable engine construction parameters.

    Parameters mirror the engine's documented keywords exactly:

    use_fast_collectives:
        Allow collectives on registered groups to take the vectorized
        fast path (``False`` pins the p2p generator cascade).
    use_batched_p2p:
        Price p2p sends in vectorized waves (``False`` pins the scalar
        per-message reference).
    use_kernels:
        Allow :class:`~repro.simmpi.engine.KernelLoop` steady states to
        compile into closed-form kernels whenever the ranks held on them
        are a closed sub-world (blocked bystanders do not matter).
    pool_capacity:
        Initial :class:`~repro.simmpi.request.MessagePool` slot count
        (the pool doubles on demand).
    schedule_seed:
        Seeded interleaving exploration (``None`` = canonical drain).
    schedule_trace:
        Recorded :class:`~repro.simmpi.schedule.ScheduleTrace` to replay
        instead of drawing permutations from the seed.
    failure_ranks:
        Ranks that fail at their next engine interaction. Stored as a
        ``frozenset``; the engine copies it into its mutable
        ``failure_ranks`` set (failure layers arm ranks mid-run).
    track_recv_counts:
        Enable per-channel consumed-receive counting (the protocol
        layer's receiver-position sidecars).
    """

    use_fast_collectives: bool = True
    use_batched_p2p: bool = True
    use_kernels: bool = True
    pool_capacity: int = 512
    schedule_seed: int | None = None
    schedule_trace: "ScheduleTrace | None" = None
    failure_ranks: frozenset[int] = field(default_factory=frozenset)
    track_recv_counts: bool = False

    def __post_init__(self):
        if not isinstance(self.pool_capacity, int) or self.pool_capacity < 1:
            raise ValueError(
                f"pool_capacity must be a positive int, got {self.pool_capacity!r}"
            )
        if self.schedule_seed is not None and not isinstance(self.schedule_seed, int):
            raise ValueError(
                f"schedule_seed must be an int or None, got {self.schedule_seed!r}"
            )
        # Coerce any iterable of ranks to a hashable frozenset so configs
        # built with a plain set/list/tuple stay frozen and hashable.
        if not isinstance(self.failure_ranks, frozenset):
            object.__setattr__(self, "failure_ranks", frozenset(self.failure_ranks))
        if any(not isinstance(r, int) or r < 0 for r in self.failure_ranks):
            raise ValueError(
                f"failure_ranks must be non-negative ints, got {sorted(self.failure_ranks)!r}"
            )


__all__ = ["EngineConfig"]
