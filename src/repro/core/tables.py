"""Precomputed lookup tables behind the batched evaluation engine.

The Monte-Carlo and campaign hot paths used to walk every sampled failure
event through per-event Python: rebuild the L2 membership matrix, re-derive
the erasure tolerances, and union L1 restart sets rank by rank. All of that
is a pure function of ``(clustering, placement)`` — so this module computes
it once and turns per-event scoring into array indexing:

* :class:`RestartTables` — the recovery-cost side: the rank → node vector,
  the L1-members-per-node count matrix and its node prefix sums, the
  per-rank soft-error restart fraction, and the restart fraction of every
  contiguous node run ``[start, start + f)`` (node events are always such
  runs, see :mod:`repro.failures.events`).
* :class:`CatastrophicTables` — the reliability side: the L2 membership
  matrix, the per-cluster erasure tolerance array, the per-rank
  soft-error catastrophe flags, and the catastrophic verdict of every
  contiguous node run.

Both are memoized on the clustering via its :meth:`Clustering.cached
<repro.clustering.base.Clustering.cached>` hook, keyed by placement
identity (and tolerance for the L2 side), so a Table II sweep that scores
four strategies on one machine builds each placement-derived table exactly
once; the placement's own rank → node vector is additionally cached on the
placement itself and shared across *all* clusterings.

Performance notes
-----------------
Building a table is ``O(nranks + nclusters × nnodes)`` — microseconds at
the paper's 1024-rank scale — and evaluating an event batch afterwards is
``O(n_events)`` NumPy indexing with zero per-event Python. The ledger
(``benchmarks/ledger/``) records the batched rate as
``core.montecarlo.samples_per_s`` and table sizes as
``core.tables.nbytes_mb.*``.

Reference path & invariants
---------------------------
The tables are an *encoding* of the per-event models, never an
approximation: ``tests/core/test_eval_tables.py`` checks every table
against brute-force recomputation through the scalar predicates, and
``tests/core/test_montecarlo.py`` keeps the original per-event
sample-then-measure loop as a test-only reference that the batched
``montecarlo_scores`` must agree with at a fixed seed. There is no
observer that silently changes which path runs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.clustering.base import Clustering
from repro.failures.events import EventBatch
from repro.machine.placement import Placement


def _count_matrix(labels: np.ndarray, node_of: np.ndarray, k: int, nnodes: int):
    """``M[c, node]`` = members of cluster ``c`` hosted on ``node``."""
    flat = np.bincount(labels * nnodes + node_of, minlength=k * nnodes)
    return flat.reshape(k, nnodes)


def _node_prefix(counts: np.ndarray) -> np.ndarray:
    """Prefix sums over the node axis, zero-padded for run differencing."""
    k = counts.shape[0]
    return np.concatenate(
        [np.zeros((k, 1), dtype=np.int64), np.cumsum(counts, axis=1)], axis=1
    )


def _run_lost(prefix: np.ndarray, nnodes: int, f: int) -> np.ndarray:
    """``lost[c, s]`` = members of cluster ``c`` on run ``[s, s + f)``."""
    starts = nnodes - f + 1
    return prefix[:, f : f + starts] - prefix[:, :starts]


def _batch_run_lookup(
    batch: EventBatch, soft_values: np.ndarray, run_table
) -> np.ndarray:
    """Gather one value per event: soft events index ``soft_values`` by
    victim rank, node events index ``run_table(f)`` by run start."""
    out = np.empty(batch.n, dtype=soft_values.dtype)
    soft = batch.is_soft
    out[soft] = soft_values[batch.process[soft]]
    node_idx = np.flatnonzero(~soft)
    lengths = batch.run_length[node_idx]
    starts = batch.run_start[node_idx]
    for f in np.unique(lengths):
        sel = lengths == f
        out[node_idx[sel]] = run_table(int(f))[starts[sel]]
    return out


class RestartTables:
    """Recovery-cost lookup structures for one (clustering, placement)."""

    def __init__(self, clustering: Clustering, placement: Placement):
        if clustering.n != placement.nranks:
            raise ValueError(
                f"clustering covers {clustering.n} processes, placement "
                f"{placement.nranks}"
            )
        self.clustering = clustering
        self.placement = placement
        self.node_of_rank = placement.node_array()
        self.l1_sizes = clustering.l1_sizes()
        self.l1_counts = _count_matrix(
            clustering.l1_labels,
            self.node_of_rank,
            clustering.n_l1_clusters,
            placement.nnodes,
        )
        self._l1_prefix = _node_prefix(self.l1_counts)
        self.ranks_per_node = np.bincount(
            self.node_of_rank, minlength=placement.nnodes
        )
        self._ranks_prefix = np.concatenate(
            [[0], np.cumsum(self.ranks_per_node)]
        )
        #: Restart fraction of a soft error at each rank: the rank's own L1
        #: cluster rolls back (§II-B2).
        self.soft_restart_fraction = (
            self.l1_sizes[clustering.l1_labels] / clustering.n
        )
        self._run_cache: dict[int, np.ndarray] = {}

    # -- contiguous node runs ------------------------------------------------

    def run_restart_fraction(self, f: int) -> np.ndarray:
        """Restart fraction of every length-``f`` run, indexed by start node.

        Entry ``s`` is the fraction of processes rolled back when nodes
        ``[s, s + f)`` fail simultaneously: the union of the L1 clusters
        with a member on the run. Cached per ``f``; treat as read-only.
        """
        f = min(int(f), self.placement.nnodes)
        cached = self._run_cache.get(f)
        if cached is None:
            lost = _run_lost(self._l1_prefix, self.placement.nnodes, f)
            counts = self.l1_sizes @ (lost > 0)
            cached = self._run_cache[f] = counts / self.clustering.n
        return cached

    @property
    def node_restart_fraction(self) -> np.ndarray:
        """Restart fraction of each single-node failure (``f = 1`` runs)."""
        return self.run_restart_fraction(1)

    def ranks_on_runs(self, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Number of ranks hosted on each run ``[start, start + length)``."""
        return self._ranks_prefix[starts + lengths] - self._ranks_prefix[starts]

    # -- batched event scoring -------------------------------------------------

    def batch_restart_fractions(self, batch: EventBatch) -> np.ndarray:
        """Restart fraction of every event in ``batch`` — pure indexing."""
        return _batch_run_lookup(
            batch, self.soft_restart_fraction, self.run_restart_fraction
        )


class CatastrophicTables:
    """Reliability lookup structures for one (clustering, placement, tolerance)."""

    def __init__(
        self,
        clustering: Clustering,
        placement: Placement,
        tolerance: Callable[[int], int],
    ):
        if clustering.n != placement.nranks:
            raise ValueError(
                f"clustering covers {clustering.n} processes, placement "
                f"{placement.nranks}"
            )
        self.clustering = clustering
        self.placement = placement
        self.tolerance = tolerance
        node_of = placement.node_array()
        self.l2_sizes = clustering.l2_sizes()
        #: ``membership[c, node]`` = members of L2 cluster ``c`` on ``node``.
        self.membership = _count_matrix(
            clustering.l2_labels,
            node_of,
            clustering.n_l2_clusters,
            placement.nnodes,
        )
        self._l2_prefix = _node_prefix(self.membership)
        #: Simultaneous member losses each L2 cluster's erasure code absorbs.
        self.tolerances = np.array(
            [tolerance(int(s)) for s in self.l2_sizes], dtype=np.int64
        )
        # A soft error is catastrophic only in a zero-tolerance cluster of
        # size >= 2 (a singleton rebuilds from its local copy).
        cluster_soft_cat = (self.tolerances < 1) & (self.l2_sizes > 1)
        self.soft_catastrophic = cluster_soft_cat[clustering.l2_labels]
        self._run_cache: dict[int, np.ndarray] = {}

    # -- contiguous node runs ------------------------------------------------

    def run_catastrophic(self, f: int) -> np.ndarray:
        """Catastrophic verdict of every length-``f`` run, by start node.

        Entry ``s`` is True when losing nodes ``[s, s + f)`` exceeds some L2
        cluster's tolerance. Cached per ``f``; treat as read-only.
        """
        f = min(int(f), self.placement.nnodes)
        cached = self._run_cache.get(f)
        if cached is None:
            lost = _run_lost(self._l2_prefix, self.placement.nnodes, f)
            cached = self._run_cache[f] = (
                lost > self.tolerances[:, None]
            ).any(axis=0)
        return cached

    def run_catastrophic_all(self, lengths) -> dict[int, np.ndarray]:
        """Verdicts for every run length in ``lengths`` in one batched pass.

        The per-``f`` tables differ only in which prefix-sum differences
        they take, so all missing lengths are built from the same cached
        prefix array with a single broadcasted gather — one
        ``(k, n_lengths, nnodes)`` difference — instead of one pass per
        cascade length. Results land in (and are served from) the same
        per-``f`` cache :meth:`run_catastrophic` uses.
        """
        nnodes = self.placement.nnodes
        wanted = sorted({min(int(f), nnodes) for f in lengths})
        missing = [f for f in wanted if f not in self._run_cache]
        if missing:
            fs = np.asarray(missing, dtype=np.int64)
            starts = np.arange(nnodes, dtype=np.int64)
            # ends[i, s] = start + f_i, clipped so padded (invalid) starts
            # read a harmless in-range column; they are sliced away below.
            ends = np.minimum(starts[None, :] + fs[:, None], nnodes)
            lost = self._l2_prefix[:, ends] - self._l2_prefix[:, None, starts]
            verdicts = (lost > self.tolerances[:, None, None]).any(axis=0)
            for i, f in enumerate(missing):
                self._run_cache[f] = verdicts[i, : nnodes - f + 1]
        return {f: self._run_cache[f] for f in wanted}

    def nodes_catastrophic(self, nodes) -> bool:
        """Whether losing an arbitrary node set exceeds some tolerance."""
        lost = self.membership[:, list(nodes)].sum(axis=1)
        return bool((lost > self.tolerances).any())

    # -- batched event scoring -------------------------------------------------

    def batch_catastrophic(self, batch: EventBatch) -> np.ndarray:
        """Catastrophic verdict of every event in ``batch`` — pure indexing."""
        return _batch_run_lookup(
            batch, self.soft_catastrophic, self.run_catastrophic
        )


# -- shared caches -----------------------------------------------------------


def restart_tables(clustering: Clustering, placement: Placement) -> RestartTables:
    """The (cached) :class:`RestartTables` of ``(clustering, placement)``.

    Memoized on the clustering, keyed by placement identity — the returned
    table keeps the placement alive, so the id key cannot be recycled while
    the cache entry exists.
    """
    return clustering.cached(
        ("restart_tables", id(placement)),
        lambda: RestartTables(clustering, placement),
    )


def catastrophic_tables(
    clustering: Clustering,
    placement: Placement,
    tolerance: Callable[[int], int],
) -> CatastrophicTables:
    """The (cached) :class:`CatastrophicTables` of the triple."""
    return clustering.cached(
        ("catastrophic_tables", id(placement), tolerance),
        lambda: CatastrophicTables(clustering, placement, tolerance),
    )
