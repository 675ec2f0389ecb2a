"""One frozen, picklable configuration object for the simulation engine.

:class:`EngineConfig` holds every knob of a production engine run — the
pool sizing, the interleaving schedule, failure injection and receive
counting — in one validated dataclass. It exists so any consumer that
replicates engines (the sharded multi-process engine's workers, the fuzz
executor, replay tooling) ships *one object* across a process boundary
instead of replaying keyword arguments, with the guarantee that two
engines built from equal configs behave identically.

``Engine(nranks, config=...)``, ``run_program(..., config=...)`` and the
sharded engines all take exactly this object; there is no loose-keyword
spelling of any field and no field overrides another, so "which flag
won?" cannot arise.

The fast paths have no switch here. Each self-gates per run on the
observers below, and the all-off reference the equivalence suites compare
against is a class, :class:`~repro.simmpi.reference.ReferenceEngine`, not
a config.

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

from repro.simmpi.schedule import ScheduleTrace


@dataclass(frozen=True)
class EngineConfig:
    """Validated, picklable engine construction parameters.

    pool_capacity:
        Initial :class:`~repro.simmpi.request.MessagePool` slot count; the
        pool doubles on demand, so this only sizes the steady state (tests
        use tiny capacities to exercise growth).
    schedule:
        Interleaving exploration. ``None`` (the default) keeps the
        canonical drain byte-for-byte (the permutation machinery is
        bypassed entirely). An ``int`` seeds a dedicated ``numpy``
        Generator that permutes every scheduler batch after its canonical
        ascending sort — the ranks of a batch are causally unordered, so
        every permuted drain is a legal MPI schedule; per-rank program
        order and per-(sender, communicator) non-overtaking are untouched.
        What changes is the *global* posting-sequence interleaving, which
        is what wildcard arbitration and deadlock hunting need to see
        varied. A recorded :class:`~repro.simmpi.schedule.ScheduleTrace`
        replays its permutations instead of drawing them (repro files and
        the schedule shrinker use this); entries whose permutation length
        no longer matches the batch are skipped — the batch drains
        canonically — so partially-reverted traces stay legal. Applied
        permutations are recorded on ``Engine.schedule_trace`` after every
        run, so any explored schedule replays exactly from the seed or
        from the recorded trace. Steady-state kernels deopt under a
        non-canonical schedule (``kernel_deopts["non-canonical-schedule"]``):
        their closed-form execution assumes the canonical posting sequence.
    failure_ranks:
        Ranks that fail by raising
        :class:`~repro.simmpi.errors.RankFailedError` inside their program
        the next time they interact with the engine. Stored as a
        ``frozenset``; the engine copies it into its mutable
        ``failure_ranks`` set (failure layers arm ranks mid-run).
    track_recv_counts:
        Enable per-channel consumed-receive counting (the protocol
        layer's receiver-position sidecars). Like ``message_log`` and
        failure injection it is a per-message observer, so it keeps every
        collective on the point-to-point cascade and declines every
        ``KernelLoop`` (closed-form or declined; the program's loop is the
        only interpreter).
    """

    pool_capacity: int = 512
    schedule: int | ScheduleTrace | None = None
    failure_ranks: frozenset[int] = field(default_factory=frozenset)
    track_recv_counts: bool = False

    def __post_init__(self):
        if not isinstance(self.pool_capacity, int) or self.pool_capacity < 1:
            raise ValueError(
                f"pool_capacity must be a positive int, got {self.pool_capacity!r}"
            )
        if self.schedule is not None and not isinstance(
            self.schedule, (int, ScheduleTrace)
        ):
            raise ValueError(
                "schedule must be an int seed, a ScheduleTrace or None, "
                f"got {self.schedule!r}"
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
