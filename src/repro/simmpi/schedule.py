"""Schedule traces: the compact record of one explored interleaving.

The engine's scheduler is a batched run-until-blocked loop that drains
every batch in ascending rank order — one canonical, deterministic
schedule. The interleaving-exploration mode (``EngineConfig(schedule=seed)``)
permutes the drain order of each batch among its causally-unordered
ranks; a :class:`ScheduleTrace` records exactly which permutations were
applied, as ``(batch ordinal, permutation)`` entries for the batches that
actually deviated from canonical order.

A trace makes any explored schedule *replay-exact* two ways:

* re-running with the same seed regenerates the identical
  permutation stream (batch compositions are a pure function of the
  schedule, which is a pure function of seed + programs);
* re-running with ``EngineConfig(schedule=trace)`` applies the recorded
  permutations directly — no RNG involved — which is what repro files
  and the schedule shrinker use. A trace entry whose permutation length
  no longer matches its batch (possible after the shrinker reverts an
  earlier batch to canonical order, shifting what runs when) is skipped:
  the batch drains canonically, so every partial trace still describes a
  legal MPI schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ScheduleTrace:
    """Per-batch permutations applied by one explored scheduler run.

    ``entries`` is a tuple of ``(batch_ordinal, permutation)`` pairs in
    strictly increasing ordinal order. The permutation indexes into the
    batch *after* its canonical ascending sort, so entry
    ``(3, (2, 0, 1))`` means "batch 3 held three ranks; drain the third,
    first, second of the sorted order". Batches without an entry drained
    canonically. Hash/equality use only ``entries``.
    """

    entries: tuple[tuple[int, tuple[int, ...]], ...] = ()
    _by_ordinal: dict = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )

    def __post_init__(self) -> None:
        normalized = []
        last = -1
        for ordinal, perm in self.entries:
            ordinal = int(ordinal)
            perm = tuple(int(i) for i in perm)
            if ordinal <= last:
                raise ValueError(
                    f"trace ordinals must strictly increase, got {ordinal} "
                    f"after {last}"
                )
            if sorted(perm) != list(range(len(perm))):
                raise ValueError(
                    f"entry for batch {ordinal} is not a permutation: {perm}"
                )
            last = ordinal
            normalized.append((ordinal, perm))
        object.__setattr__(self, "entries", tuple(normalized))
        object.__setattr__(
            self, "_by_ordinal", {o: p for o, p in normalized}
        )

    @property
    def n_permuted(self) -> int:
        """How many batches deviate from canonical order."""
        return len(self.entries)

    def permutation_for(self, ordinal: int) -> tuple[int, ...] | None:
        """The recorded permutation of batch ``ordinal`` (None = canonical)."""
        return self._by_ordinal.get(ordinal)

    def without_ordinal(self, ordinal: int) -> "ScheduleTrace":
        """A copy with batch ``ordinal`` reverted to canonical order (the
        schedule shrinker's one-step simplification)."""
        return ScheduleTrace(
            tuple(e for e in self.entries if e[0] != ordinal)
        )

    def to_jsonable(self) -> list:
        """JSON-serializable form (repro files)."""
        return [[ordinal, list(perm)] for ordinal, perm in self.entries]

    @classmethod
    def from_jsonable(cls, data) -> "ScheduleTrace":
        """Inverse of :meth:`to_jsonable` (validates on construction)."""
        return cls(tuple((int(o), tuple(int(i) for i in p)) for o, p in data))

    @classmethod
    def from_entries(cls, entries) -> "ScheduleTrace":
        """Build from any iterable of ``(ordinal, permutation)`` pairs."""
        return cls(tuple(entries))


__all__ = ["ScheduleTrace"]
