"""The paper's contribution: two-level hierarchical clustering (§IV-B).

Construction steps, exactly as the paper lists them:

1. obtain the application's communication matrix (done upstream:
   :mod:`repro.commgraph`);
2. collapse it to a **node-based** graph, so all processes of a node land in
   the same L1 cluster and at most one cluster restarts per node failure;
3. partition the node graph with the [24]-style algorithm and cost function
   (:mod:`repro.clustering.partition`), with ≥ ``min_nodes_per_l1`` nodes
   per cluster so failure distribution is possible inside each;
4. inside each L1 cluster, chop the node list into groups of
   ``l2_group_nodes`` (4 by default, "or more" for remainders) and make the
   *i*-th process of every node in a group an L2 encoding cluster — small,
   homogeneous, and spread over distinct nodes.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.base import Clustering
from repro.clustering.partition import PartitionCost, partition_node_graph
from repro.commgraph.graph import CommGraph
from repro.machine.placement import Placement


def l2_striping(
    l1_node_lists: list[list[int]],
    placement: Placement,
    *,
    l2_group_nodes: int = 4,
) -> np.ndarray:
    """Build L2 labels by striping processes across node groups.

    For every L1 cluster (given as its node list), nodes are chopped into
    groups of ``l2_group_nodes``; a remainder short of a full group is
    absorbed by the last group ("groups of 4 nodes (or more)", §IV-B).
    Within a group, slot *i* of every node joins L2 cluster *i* of that
    group, giving ``procs_per_node`` clusters per group whose members all
    live on different nodes.
    """
    if l2_group_nodes < 1:
        raise ValueError(f"l2_group_nodes must be >= 1, got {l2_group_nodes}")
    l2_labels = np.full(placement.nranks, -1, dtype=np.int64)
    next_l2 = 0
    for nodes in l1_node_lists:
        nodes = list(nodes)
        n_groups = max(1, len(nodes) // l2_group_nodes)
        groups = [
            nodes[g * l2_group_nodes : (g + 1) * l2_group_nodes]
            for g in range(n_groups)
        ]
        # Remainder nodes join the last group ("or more").
        leftover = nodes[n_groups * l2_group_nodes :]
        groups[-1].extend(leftover)
        for group in groups:
            slots = [placement.ranks_of_node(node) for node in group]
            ppn = max(len(s) for s in slots)
            for slot_index in range(ppn):
                members = [s[slot_index] for s in slots if slot_index < len(s)]
                for rank in members:
                    l2_labels[rank] = next_l2
                next_l2 += 1
    if (l2_labels < 0).any():
        missing = np.flatnonzero(l2_labels < 0)
        raise ValueError(
            f"L1 node lists do not cover every process (missing ranks "
            f"{missing[:8].tolist()}…)"
        )
    return l2_labels


def hierarchical_clustering(
    node_graph: CommGraph,
    placement: Placement,
    *,
    min_nodes_per_l1: int = 4,
    max_nodes_per_l1: int | None = None,
    l2_group_nodes: int = 4,
    cost: PartitionCost | None = None,
    name: str | None = None,
) -> Clustering:
    """Build the full hierarchical clustering for one application/machine.

    Parameters
    ----------
    node_graph:
        Node-level communication graph (``node_graph.n`` must equal
        ``placement.nnodes``); build it with
        :func:`repro.commgraph.node_graph`.
    placement:
        rank↔node mapping of the application processes.
    min_nodes_per_l1 / max_nodes_per_l1 / cost:
        Passed to :func:`partition_node_graph` (§IV-B fixes the minimum
        at 4).
    l2_group_nodes:
        Width of the L2 striping groups (4 in the paper: "clusters of 4 or
        8 processes are already highly reliable if distributed"). A group
        never spans more than its L1 cluster, so the name carries the
        effective width: at most the smallest L1 cluster's node count.
    """
    if node_graph.n != placement.nnodes:
        raise ValueError(
            f"node graph has {node_graph.n} nodes, placement {placement.nnodes}"
        )
    node_labels = partition_node_graph(
        node_graph,
        min_cluster_nodes=min_nodes_per_l1,
        max_cluster_nodes=max_nodes_per_l1,
        cost=cost,
    )
    n_l1 = int(node_labels.max()) + 1
    l1_node_lists: list[list[int]] = [[] for _ in range(n_l1)]
    for node, lab in enumerate(node_labels):
        l1_node_lists[int(lab)].append(node)

    l1_labels = node_labels[placement.node_array()]
    l2_labels = l2_striping(
        l1_node_lists, placement, l2_group_nodes=l2_group_nodes
    )
    typical_l1 = int(np.median([len(v) for v in l1_node_lists]) * placement.procs_per_node)
    stripe = min(l2_group_nodes, min(len(v) for v in l1_node_lists))
    label = name or f"hierarchical-{typical_l1}-{stripe}"
    return Clustering(label, l1_labels, l2_labels)
