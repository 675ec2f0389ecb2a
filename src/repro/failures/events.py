"""Failure-event taxonomy.

The paper's reliability reasoning rests on two observations:

* "Most failures in current supercomputers affect only a small fraction of
  the system, where the affected part is often one single node or a small
  set of nodes" (§II-B1);
* correlated failures exist — "two nodes sharing a power supply should be
  located in the same cluster" (§II-C2).

We therefore model a failure event as either a **soft error** (one process,
recoverable from its local checkpoint copy) or a **node event** killing a
*contiguous run* of ``f ≥ 1`` nodes — contiguity is the spatial-correlation
model (shared power supplies, chassis, switches are adjacency-local), and
``f`` follows a sharply decaying distribution parameterized below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_in_range, check_probability


@dataclass(frozen=True)
class FailureEvent:
    """One concrete failure occurrence."""

    kind: str  # "soft" | "node"
    nodes: tuple[int, ...] = ()
    process: int | None = None  # for soft errors
    time: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("soft", "node"):
            raise ValueError(f"unknown failure kind {self.kind!r}")
        if self.kind == "node" and not self.nodes:
            raise ValueError("node events must name at least one node")
        if self.kind == "soft" and self.process is None:
            raise ValueError("soft errors must name a process")

    @property
    def n_nodes(self) -> int:
        """Number of nodes wiped by this event (0 for soft errors)."""
        return len(self.nodes)


@dataclass(frozen=True)
class EventBatch:
    """``n`` sampled failure events in struct-of-arrays form.

    The batched Monte-Carlo path (:meth:`MonteCarloEstimator.sample_events
    <repro.failures.catastrophic.MonteCarloEstimator.sample_events>`) draws
    all events with a handful of NumPy calls and returns them as parallel
    arrays so downstream scoring is pure array indexing. Node events are
    always contiguous runs ``[run_start, run_start + run_length)`` — the
    taxonomy's spatial-correlation model — which is what lets the lookup
    tables precompute every possible run once.

    ``process`` is only meaningful where ``is_soft``; ``run_start`` /
    ``run_length`` only where ``~is_soft``.
    """

    is_soft: np.ndarray  # (n,) bool
    process: np.ndarray  # (n,) int64 — soft-error victim rank
    run_start: np.ndarray  # (n,) int64 — first node of the failed run
    run_length: np.ndarray  # (n,) int64 — nodes wiped by the event

    def __post_init__(self) -> None:
        n = self.is_soft.shape[0]
        for name in ("process", "run_start", "run_length"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")

    @property
    def n(self) -> int:
        """Number of events in the batch."""
        return int(self.is_soft.size)

    def event(self, i: int) -> FailureEvent:
        """Materialize event ``i`` as a scalar :class:`FailureEvent`."""
        if self.is_soft[i]:
            return FailureEvent(kind="soft", process=int(self.process[i]))
        start, length = int(self.run_start[i]), int(self.run_length[i])
        return FailureEvent(kind="node", nodes=tuple(range(start, start + length)))

    def events(self) -> list[FailureEvent]:
        """All events as scalar objects (tests and the reference path)."""
        return [self.event(i) for i in range(self.n)]


@dataclass(frozen=True)
class FailureTaxonomy:
    """Probabilistic shape of failure events.

    Parameters (defaults calibrated so Table II's reliability column is
    reproduced; see the "Known deviations" block of
    ``docs/architecture.md``):

    p_soft:
        Probability a failure is a single-process soft error (0.05: the
        complement 0.95 is exactly the catastrophic probability the paper
        reports for the non-distributed size-guided clustering, which dies
        on every node event).
    p_multi:
        Probability that a node event kills ≥ 2 nodes simultaneously.
    escalation:
        Conditional probability P(≥ j+1 nodes | ≥ j nodes) for j ≥ 2 —
        geometric tail of cascade sizes.
    max_simultaneous:
        Truncation of the cascade-size distribution.
    """

    p_soft: float = 0.05
    p_multi: float = 2.0e-4
    escalation: float = 0.03
    max_simultaneous: int = 12

    def __post_init__(self) -> None:
        check_probability("p_soft", self.p_soft)
        check_probability("p_multi", self.p_multi)
        check_in_range("escalation", self.escalation, 0.0, 1.0, inclusive=False)
        if self.max_simultaneous < 1:
            raise ValueError("max_simultaneous must be >= 1")

    def node_count_pmf(self) -> np.ndarray:
        """P(node event kills exactly f nodes), index 0 ↔ f = 1.

        Sums to 1; the truncated tail mass is assigned to the maximum.
        Cached after the first call (the taxonomy is frozen); treat the
        returned array as read-only — the batched samplers index it on
        every draw.
        """
        cached = getattr(self, "_pmf", None)
        if cached is not None:
            return cached
        fmax = self.max_simultaneous
        pmf = np.zeros(fmax)
        pmf[0] = 1.0 - self.p_multi
        tail = self.p_multi  # P(f >= 2)
        for j in range(2, fmax):
            pmf[j - 1] = tail * (1.0 - self.escalation)
            tail *= self.escalation
        pmf[fmax - 1] = tail
        object.__setattr__(self, "_pmf", pmf)
        return pmf

    def event_probabilities(self) -> dict[str, float]:
        """Top-level mixture: P(soft), P(node event)."""
        return {"soft": self.p_soft, "node": 1.0 - self.p_soft}


#: Taxonomy used by the paper-reproduction experiments.
PAPER_TAXONOMY = FailureTaxonomy()
