"""Alternative L1 partitioners: spectral bisection and Newman modularity.

The partitioner is a design choice worth ablating
(``tests/paper/test_extensions.py::TestPartitionerMethods`` does). Both
alternatives here target the same objective family as the greedy
agglomerative default (:mod:`repro.clustering.partition`) from different
angles:

* **recursive spectral bisection** — split at the Fiedler vector of the
  graph Laplacian (balanced minimum-cut flavor), recursing until clusters
  would drop below twice the minimum size;
* **greedy modularity (CNM)** — §IV-A's community detection: merge the
  pair of communities with the best modularity gain until no gain remains,
  then force mergers up to the minimum size.

Both return the same dense node-label arrays as ``partition_node_graph``.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.partition import relabel_first_occurrence, undirected_weights
from repro.commgraph.graph import CommGraph


def spectral_partition(
    graph: CommGraph,
    *,
    min_cluster_nodes: int = 4,
    max_cluster_nodes: int = 4,
) -> np.ndarray:
    """Recursive spectral bisection of the node communication graph.

    Pieces larger than ``max_cluster_nodes`` are split along the Fiedler
    vector (second-smallest eigenvector of the weighted Laplacian) at the
    balanced median, recursively, until every piece fits; every resulting
    piece is guaranteed ≥ ``min_cluster_nodes`` when
    ``max_cluster_nodes >= 2 · min_cluster_nodes - 1`` or the sizes divide
    evenly (the balanced split keeps halves within one node of each other).
    """
    if min_cluster_nodes < 1:
        raise ValueError("min_cluster_nodes must be >= 1")
    n = graph.n
    if min_cluster_nodes > n:
        raise ValueError(f"min_cluster_nodes {min_cluster_nodes} > n {n}")
    cap = max_cluster_nodes
    if cap < min_cluster_nodes:
        raise ValueError("max_cluster_nodes < min_cluster_nodes")
    weights = undirected_weights(graph)

    labels = np.zeros(n, dtype=np.int64)
    next_label = 1
    work = [np.arange(n)]
    while work:
        indices = work.pop()
        if indices.size <= cap:
            continue
        sub = weights[np.ix_(indices, indices)]
        degree = sub.sum(axis=0)
        half = indices.size // 2
        if degree.sum() == 0:
            order = np.arange(indices.size)
        else:
            laplacian = np.diag(degree) - sub
            _, eigvecs = np.linalg.eigh(laplacian)
            order = np.argsort(eigvecs[:, 1], kind="stable")
        left = indices[order[:half]]
        right = indices[order[half:]]
        labels[right] = next_label
        next_label += 1
        work.append(left)
        work.append(right)

    labels = relabel_first_occurrence(labels)
    sizes = np.bincount(labels)
    if (sizes < min_cluster_nodes).any():
        return _force_min_size(labels, min_cluster_nodes, cap, graph=graph)
    return labels


def modularity_partition(
    graph: CommGraph,
    *,
    min_cluster_nodes: int = 1,
    max_cluster_nodes: int | None = None,
) -> np.ndarray:
    """Greedy modularity maximization (Clauset–Newman–Moore flavor).

    §IV-A's segregation procedure: start from singletons, repeatedly merge
    the community pair with the largest modularity gain; stop when no merge
    improves Q (then force mergers to satisfy ``min_cluster_nodes``).
    """
    n = graph.n
    if min_cluster_nodes > n:
        raise ValueError(f"min_cluster_nodes {min_cluster_nodes} > n {n}")
    cap = max_cluster_nodes if max_cluster_nodes is not None else n
    # Full symmetric adjacency A; m2 = Σ A = 2m in Newman's notation.
    adj = undirected_weights(graph)
    m2 = adj.sum()
    labels = np.arange(n, dtype=np.int64)
    if m2 == 0:
        return _force_min_size(labels, min_cluster_nodes, cap)

    # Community-level weights and degree sums.
    e = adj.copy()  # e[c1, c2]: adjacency weight between communities
    k = adj.sum(axis=0)  # degree sum per community
    sizes = np.ones(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)

    while alive.sum() > 1:
        best_gain, best_pair = 0.0, None
        alive_ids = np.flatnonzero(alive)
        for i_pos, c1 in enumerate(alive_ids):
            for c2 in alive_ids[i_pos + 1 :]:
                if sizes[c1] + sizes[c2] > cap:
                    continue
                # Standard CNM delta-Q for merging communities c1, c2.
                gain = 2.0 * (e[c1, c2] / m2 - (k[c1] * k[c2]) / (m2 * m2))
                if gain > best_gain + 1e-15:
                    best_gain, best_pair = gain, (c1, c2)
        if best_pair is None:
            break
        c1, c2 = best_pair
        e[c1, :] += e[c2, :]
        e[:, c1] += e[:, c2]
        e[c1, c1] = 0.0
        e[c2, :] = 0.0
        e[:, c2] = 0.0
        k[c1] += k[c2]
        sizes[c1] += sizes[c2]
        alive[c2] = False
        labels[labels == c2] = c1

    labels = relabel_first_occurrence(labels)
    return _force_min_size(labels, min_cluster_nodes, cap, graph=graph)


def _force_min_size(
    labels: np.ndarray,
    min_size: int,
    cap: int,
    *,
    graph: CommGraph | None = None,
) -> np.ndarray:
    """Merge undersized clusters into their best-connected neighbors."""
    labels = labels.copy()
    while True:
        sizes = np.bincount(labels)
        small = [c for c in range(sizes.size) if 0 < sizes[c] < min_size]
        if not small:
            break
        c = small[0]
        members = np.flatnonzero(labels == c)
        candidates = [
            d
            for d in range(sizes.size)
            if d != c and sizes[d] > 0 and sizes[d] + sizes[c] <= cap
        ]
        if not candidates:
            raise ValueError(
                f"cannot satisfy min size {min_size} under cap {cap}"
            )
        if graph is not None:
            sym = graph.symmetric()
            weight_to = {
                d: sym[np.ix_(members, np.flatnonzero(labels == d))].sum()
                for d in candidates
            }
            target = max(candidates, key=lambda d: (weight_to[d], -d))
        else:
            target = candidates[0]
        labels[members] = target
    return relabel_first_occurrence(labels)
