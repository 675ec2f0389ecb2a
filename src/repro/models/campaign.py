"""Long-run failure-campaign model: the four dimensions, composed.

Table II scores each clustering along four separate axes. This model
composes them into the quantity an operator actually cares about — the
fraction of machine time lost to fault tolerance over a long execution —
by simulating a campaign of MTBF-distributed failures against a
clustering's concrete costs:

* steady-state **checkpoint overhead** (write + encode every interval);
* per-failure **rework** (restarted fraction × work since the cluster's
  last checkpoint) plus **restore time** (local reads or erasure decode);
* **catastrophic events** (beyond the L2 tolerance): full-machine rollback
  to the last PFS flush plus the PFS read;
* sender-side **log memory** is tracked against the per-process budget as
  a feasibility check (the §III requirement behind the 20 % logging cap).

The event loop is analytic (no discrete-event execution) *and batched*:
every failure event of a campaign is drawn in one vectorized call and
scored against the precomputed lookup tables of :mod:`repro.core.tables`,
so whole campaigns across clusterings and scales run in milliseconds and
the benchmark can sweep them; every ingredient is the corresponding
already-tested model.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.clustering.base import Clustering
from repro.failures.catastrophic import CatastrophicModel, MonteCarloEstimator
from repro.failures.events import PAPER_TAXONOMY, FailureTaxonomy
from repro.failures.mtbf import MTBFModel
from repro.machine.machine import Machine
from repro.models.encoding_time import EncodingTimeModel
from repro.util.rng import resolve_rng, spawn_rngs
from repro.util.units import GiB
from repro.util.validation import check_finite, check_positive


def _run_campaign_task(args) -> "CampaignResult":
    """Worker entry point for the process-pool sweep (module-level so it
    pickles): one (simulator, clustering, child-rng) triple → one result."""
    simulator, clustering, rng = args
    return simulator.run(clustering, rng=rng)


@dataclass(frozen=True)
class CampaignConfig:
    """Shape of one long-run campaign."""

    horizon_s: float = 30 * 24 * 3600.0  # one month of execution
    checkpoint_interval_s: float = 3600.0
    pfs_flush_every: int = 24  # PFS flush every Nth checkpoint
    checkpoint_gb_per_node: float = 1.0
    node_mtbf_s: float = 5 * 365 * 24 * 3600.0  # five node-years

    def __post_init__(self) -> None:
        for name in (
            "horizon_s",
            "checkpoint_interval_s",
            "checkpoint_gb_per_node",
            "node_mtbf_s",
        ):
            value = getattr(self, name)
            check_finite(name, value)
            check_positive(name, value)
        if not math.isfinite(self.pfs_flush_every) or self.pfs_flush_every < 1:
            raise ValueError(
                f"pfs_flush_every must be >= 1, got {self.pfs_flush_every!r}"
            )


@dataclass
class CampaignResult:
    """Outcome of one simulated campaign."""

    clustering: str
    horizon_s: float
    n_failures: int
    n_catastrophic: int
    checkpoint_overhead_s: float
    rework_s: float
    restore_s: float
    catastrophic_penalty_s: float

    @property
    def total_waste_s(self) -> float:
        """All machine time lost to fault tolerance."""
        return (
            self.checkpoint_overhead_s
            + self.rework_s
            + self.restore_s
            + self.catastrophic_penalty_s
        )

    @property
    def waste_fraction(self) -> float:
        """Waste as a fraction of the horizon (lower is better)."""
        return min(1.0, self.total_waste_s / self.horizon_s)

    @property
    def efficiency(self) -> float:
        """Useful-work fraction of the campaign."""
        return 1.0 - self.waste_fraction


class CampaignSimulator:
    """Samples failure campaigns against one machine + clustering."""

    def __init__(
        self,
        machine: Machine,
        config: CampaignConfig = CampaignConfig(),
        *,
        taxonomy: FailureTaxonomy = PAPER_TAXONOMY,
        encoding_model: EncodingTimeModel | None = None,
    ):
        self.machine = machine
        self.config = config
        self.taxonomy = taxonomy
        self.encoding_model = encoding_model or EncodingTimeModel()

    # -- per-clustering cost ingredients ------------------------------------

    def checkpoint_cost_s(self, clustering: Clustering) -> float:
        """One coordinated checkpoint: SSD write + L2 encode (per node)."""
        cfg = self.config
        write = self.machine.ssd_spec.write_time(
            int(cfg.checkpoint_gb_per_node * GiB)
        )
        l2 = int(np.median(clustering.l2_sizes()))
        encode = self.encoding_model.seconds(cfg.checkpoint_gb_per_node, l2)
        return write + encode

    def _decode_cost_s(self, clustering: Clustering) -> float:
        """One erasure decode of a lost rank's checkpoint slice."""
        cfg = self.config
        per_rank_gb = cfg.checkpoint_gb_per_node / self.machine.procs_per_node
        l2 = int(np.median(clustering.l2_sizes()))
        return self.encoding_model.seconds(per_rank_gb * l2, l2)

    def _restore_cost_s(self, clustering: Clustering, n_decoded: int) -> float:
        """Restore after a node loss: reads + one decode per lost rank."""
        cfg = self.config
        per_rank_gb = cfg.checkpoint_gb_per_node / self.machine.procs_per_node
        read = self.machine.ssd_spec.read_time(int(per_rank_gb * GiB))
        return read + n_decoded * self._decode_cost_s(clustering)

    def _catastrophic_penalty_s(self) -> float:
        """Full rollback to the last PFS flush + machine-wide PFS read."""
        cfg = self.config
        mean_rollback = (
            cfg.pfs_flush_every * cfg.checkpoint_interval_s / 2.0
        )
        total_bytes = int(
            cfg.checkpoint_gb_per_node * GiB * self.machine.nnodes
        )
        read = self.machine.pfs_spec.read_time(
            total_bytes, concurrent=self.machine.nnodes
        )
        return mean_rollback + read

    # -- campaign --------------------------------------------------------------

    def run(self, clustering: Clustering, *, rng=None) -> CampaignResult:
        """Simulate one campaign; deterministic under a seeded ``rng``.

        All failure events of the campaign are drawn in one batched call
        and scored against the precomputed per-(clustering, placement)
        tables (:mod:`repro.core.tables`) — the loop over events is a
        handful of masked array reductions.
        """
        if clustering.n != self.machine.nranks:
            raise ValueError(
                f"clustering covers {clustering.n} processes, machine "
                f"hosts {self.machine.nranks}"
            )
        # Imported lazily: repro.core's package init imports back into
        # repro.models, so a module-level import would cycle.
        from repro.core.tables import restart_tables

        gen = resolve_rng(rng)
        cfg = self.config
        mtbf = MTBFModel(cfg.node_mtbf_s, self.machine.nnodes)
        failure_times = mtbf.failure_times(cfg.horizon_s, rng=gen)

        model = CatastrophicModel(
            self.machine.placement, taxonomy=self.taxonomy
        )
        sampler = MonteCarloEstimator(model, rng=gen)

        ckpt_cost = self.checkpoint_cost_s(clustering)
        n_ckpts = int(cfg.horizon_s // cfg.checkpoint_interval_s)
        checkpoint_overhead = n_ckpts * ckpt_cost

        rework = 0.0
        restore = 0.0
        n_catastrophic = 0
        n_events = len(failure_times)
        if n_events:
            batch = sampler.sample_events(n_events)
            catastrophic = model.events_are_catastrophic(clustering, batch)
            n_catastrophic = int(catastrophic.sum())

            tables = restart_tables(clustering, self.machine.placement)
            survived = ~catastrophic
            fractions = tables.batch_restart_fractions(batch)
            since_ckpt = np.asarray(failure_times) % cfg.checkpoint_interval_s
            rework = float((fractions * since_ckpt)[survived].sum())

            # Restore = one SSD read per surviving failure + one erasure
            # decode per rank hosted on the failed nodes (0 for soft errors).
            decoded = np.zeros(n_events, dtype=np.int64)
            node_events = ~batch.is_soft
            decoded[node_events] = tables.ranks_on_runs(
                batch.run_start[node_events], batch.run_length[node_events]
            )
            restore = float(
                int(survived.sum()) * self._restore_cost_s(clustering, 0)
                + int(decoded[survived].sum()) * self._decode_cost_s(clustering)
            )
        catastrophic_penalty = n_catastrophic * self._catastrophic_penalty_s()

        return CampaignResult(
            clustering=clustering.name,
            horizon_s=cfg.horizon_s,
            n_failures=n_events,
            n_catastrophic=n_catastrophic,
            checkpoint_overhead_s=checkpoint_overhead,
            rework_s=rework,
            restore_s=restore,
            catastrophic_penalty_s=catastrophic_penalty,
        )

    def sweep(
        self,
        clusterings: list[Clustering],
        *,
        n_campaigns: int = 5,
        rng=None,
        workers: int = 1,
    ) -> dict[str, list[CampaignResult]]:
        """Run ``n_campaigns`` campaigns per clustering, optionally in parallel.

        Campaigns are embarrassingly parallel across (clustering, seed)
        pairs: each pair gets an independent child stream spawned from
        ``rng`` (:func:`repro.util.rng.spawn_rngs`), so results are
        deterministic under a fixed seed *regardless of worker count or
        completion order*, and ``workers > 1`` fans the pairs out over a
        :class:`~concurrent.futures.ProcessPoolExecutor`. Returns the
        aggregated :class:`CampaignResult` lists keyed by clustering name,
        campaign-index order preserved.
        """
        if n_campaigns < 1:
            raise ValueError("n_campaigns must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        names = [c.name for c in clusterings]
        if len(set(names)) != len(names):
            raise ValueError(
                f"clustering names must be unique to key the sweep, got {names}"
            )
        streams = spawn_rngs(rng, len(clusterings) * n_campaigns)
        tasks = [
            (self, clustering, streams[i * n_campaigns + k])
            for i, clustering in enumerate(clusterings)
            for k in range(n_campaigns)
        ]
        if workers == 1:
            results = [_run_campaign_task(task) for task in tasks]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_run_campaign_task, tasks))
        return {
            clustering.name: results[i * n_campaigns : (i + 1) * n_campaigns]
            for i, clustering in enumerate(clusterings)
        }

    def expected_waste(
        self,
        clustering: Clustering,
        *,
        n_campaigns: int = 5,
        rng=None,
        workers: int = 1,
    ) -> float:
        """Mean waste fraction over several sampled campaigns.

        ``workers=1`` draws the campaigns sequentially from one shared
        generator — the path the query API's ``metric="expected_waste"``
        and ``"waste_curve"`` run, seed for seed; ``workers > 1``
        delegates to :meth:`sweep`, which spawns one child stream per
        campaign and scores them in a process pool (statistically
        equivalent, different draws).
        """
        if n_campaigns < 1:
            raise ValueError("n_campaigns must be >= 1")
        if workers > 1:
            results = self.sweep(
                [clustering], n_campaigns=n_campaigns, rng=rng, workers=workers
            )[clustering.name]
            return float(np.mean([r.waste_fraction for r in results]))
        gen = resolve_rng(rng)
        return float(
            np.mean(
                [
                    self.run(clustering, rng=gen).waste_fraction
                    for _ in range(n_campaigns)
                ]
            )
        )
