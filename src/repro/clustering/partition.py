"""Node-graph partitioner with the cost function of Ropars et al. [24].

§IV-B builds L1 clusters by applying "the partitioning algorithm and cost
function presented in [24] over the node-based communication graph". [24]
trades the volume of logged messages against the number of processes to
roll back; we implement that trade-off as

    J(P) = w_log · L(P) + w_rb · R(P)

where ``L`` is the fraction of traffic crossing cluster boundaries (what
must be logged) and ``R = Σ_c (|c|/N)²`` is the expected fraction of the
system rolled back by a uniformly random node failure (the failing cluster
restarts in full). Small clusters drive ``L`` up; large clusters drive
``R`` up.

The optimizer is greedy agglomerative merging (start from singleton nodes,
repeatedly apply the best-improving merge) followed by a boundary-refinement
pass (move single nodes between neighboring clusters while it helps) —
the standard heuristic family for this NP-hard problem. Both passes are
deterministic. Each merge round scores every admissible pair of the k
live clusters in one O(k²) array pass; a 704-node graph (full-TSUBAME2
size) partitions in ~2 s on a 2-core VM.

Tie-break contract: a cluster's id is its lowest node index, and among
admissible merges of equal gain the pair with the lexicographically
smallest (lower id, higher id) wins. Labels are dense and numbered in
order of each cluster's first node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.commgraph.graph import CommGraph


@dataclass(frozen=True)
class PartitionCost:
    """Weights of the two terms of the [24]-style objective."""

    w_logging: float = 1.0
    w_restart: float = 1.0

    def evaluate(self, graph: CommGraph, labels: np.ndarray) -> float:
        """Objective value of a complete assignment (used by tests/refine)."""
        labels = np.asarray(labels)
        n = graph.n
        logged = graph.logged_fraction(labels)
        sizes = np.bincount(labels)
        restart = float(((sizes / n) ** 2).sum())
        return self.w_logging * logged + self.w_restart * restart


def relabel_first_occurrence(labels: np.ndarray) -> np.ndarray:
    """Dense int64 labels 0 … k-1, numbered in order of first occurrence."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse]


def undirected_weights(graph: CommGraph) -> np.ndarray:
    """Symmetric float64 weights with a zero diagonal (a fresh array)."""
    sym = graph.symmetric().astype(np.float64)
    np.fill_diagonal(sym, 0.0)
    return sym


class _MergeState:
    """Incremental bookkeeping for greedy agglomeration."""

    def __init__(self, graph: CommGraph, cost: PartitionCost):
        self.n = graph.n
        self.cost = cost
        sym = undirected_weights(graph)
        # Total undirected weight; the logged fraction of a partition is
        # cut/total in this symmetric accounting (same ratio as directed).
        self.total = float(sym.sum())
        self.weights = sym  # inter-cluster weights, updated in place
        self.sizes = np.ones(self.n, dtype=np.int64)
        self.alive = np.ones(self.n, dtype=bool)
        self.member_of = np.arange(self.n)

    def merge_gains(self, alive: np.ndarray) -> np.ndarray:
        """Change of J for merging each pair of ``alive`` clusters
        (negative = better), one (k, k) array in a single pass."""
        if self.total > 0:
            d_logged = -2.0 * self.weights[np.ix_(alive, alive)] / self.total
        else:
            d_logged = np.zeros((alive.size, alive.size))
        sizes = self.sizes[alive]
        d_restart = 2.0 * sizes[:, None] * sizes[None, :] / (self.n * self.n)
        return self.cost.w_logging * d_logged + self.cost.w_restart * d_restart

    def merge(self, a: int, b: int) -> int:
        """Merge cluster ``b`` into ``a``; returns the surviving id."""
        self.weights[a, :] += self.weights[b, :]
        self.weights[:, a] += self.weights[:, b]
        self.weights[a, a] = 0.0
        self.weights[b, :] = 0.0
        self.weights[:, b] = 0.0
        self.sizes[a] += self.sizes[b]
        self.sizes[b] = 0
        self.alive[b] = False
        self.member_of[self.member_of == b] = a
        return a


def partition_node_graph(
    graph: CommGraph,
    *,
    min_cluster_nodes: int = 4,
    max_cluster_nodes: int | None = None,
    cost: PartitionCost | None = None,
    refine: bool = True,
) -> np.ndarray:
    """Partition a node communication graph; returns per-node cluster labels.

    Parameters
    ----------
    min_cluster_nodes:
        Hard floor on cluster size (§IV-B sets it to 4 so L2 striping has
        enough nodes for failure distribution).
    max_cluster_nodes:
        Optional hard cap.
    cost:
        Objective weights; default equal weighting.
    refine:
        Run the boundary-move refinement pass after agglomeration.
    """
    n = graph.n
    if min_cluster_nodes < 1:
        raise ValueError(f"min_cluster_nodes must be >= 1, got {min_cluster_nodes}")
    if max_cluster_nodes is not None:
        if max_cluster_nodes < min_cluster_nodes:
            raise ValueError("max_cluster_nodes < min_cluster_nodes")
        if max_cluster_nodes > n:
            max_cluster_nodes = n
    if min_cluster_nodes > n:
        raise ValueError(
            f"min_cluster_nodes {min_cluster_nodes} exceeds node count {n}"
        )
    cost = cost or PartitionCost()
    state = _MergeState(graph, cost)
    cap = max_cluster_nodes if max_cluster_nodes is not None else n

    while True:
        alive = np.flatnonzero(state.alive)
        if alive.size == 1:
            break
        sizes = state.sizes[alive]
        undersized = sizes < min_cluster_nodes
        forced = bool(undersized.any())
        # Each unordered pair once (a < b), within the cap. When some
        # cluster is below the floor, only merges fixing that are
        # admissible (and one will be forced even at positive cost).
        admissible = np.triu(sizes[:, None] + sizes[None, :] <= cap, k=1)
        if forced:
            admissible &= undersized[:, None] | undersized[None, :]
        if not admissible.any():
            if forced:
                raise ValueError(
                    f"cannot satisfy min_cluster_nodes={min_cluster_nodes} "
                    f"with max_cluster_nodes={max_cluster_nodes}"
                )
            break
        gains = state.merge_gains(alive)
        gains[~admissible] = np.inf
        # Row-major argmin takes the first minimum: the tie-break contract.
        a, b = divmod(int(np.argmin(gains)), alive.size)
        if gains[a, b] >= 0 and not forced:
            break
        state.merge(alive[a], alive[b])

    labels = relabel_first_occurrence(state.member_of)
    if refine:
        labels = _refine(graph, labels, cost, min_cluster_nodes, cap)
    return labels


def _refine(
    graph: CommGraph,
    labels: np.ndarray,
    cost: PartitionCost,
    min_size: int,
    max_size: int,
) -> np.ndarray:
    """Greedy single-node moves between clusters while the objective improves."""
    labels = labels.copy()
    n = graph.n
    sym = undirected_weights(graph)
    total = float(sym.sum())
    sizes = np.bincount(labels).astype(np.int64)
    k = sizes.size

    improved = True
    sweeps = 0
    while improved and sweeps < 10:
        improved = False
        sweeps += 1
        for v in range(n):
            src = labels[v]
            if sizes[src] <= min_size:
                continue
            # Weight of v toward each cluster.
            w_to = np.bincount(labels, weights=sym[v], minlength=k)
            best_gain, best_dst = 0.0, -1
            for dst in range(k):
                if dst == src or sizes[dst] + 1 > max_size or sizes[dst] == 0:
                    continue
                d_logged = (
                    2.0 * (w_to[src] - w_to[dst]) / total if total > 0 else 0.0
                )
                d_restart = (
                    2.0 * (sizes[dst] - sizes[src] + 1.0) / (n * n)
                )
                gain = cost.w_logging * d_logged + cost.w_restart * d_restart
                if gain < best_gain - 1e-15:
                    best_gain, best_dst = gain, dst
            if best_dst >= 0:
                sizes[src] -= 1
                sizes[best_dst] += 1
                labels[v] = best_dst
                improved = True
    # Moves may empty a cluster, so re-densify.
    return relabel_first_occurrence(labels)
