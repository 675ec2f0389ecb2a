"""Builders turning execution traces into communication graphs.

The evaluation pipeline is: run the application under the tracer → extract
the *application* communication graph (encoder processes removed and ranks
re-indexed densely, since clustering decisions concern app processes) →
collapse to the node graph for L1 partitioning.
"""

from __future__ import annotations

import numpy as np

from repro.commgraph.graph import CommGraph
from repro.machine.placement import FTIPlacement, Placement
from repro.simmpi.tracing import TraceRecorder


def graph_from_trace(tracer: TraceRecorder) -> CommGraph:
    """Whole-world communication graph straight from a trace."""
    return CommGraph(tracer.bytes_matrix)


def app_graph_from_trace(
    tracer: TraceRecorder, placement: FTIPlacement
) -> CommGraph:
    """Application-process graph: drop encoder ranks, re-index densely.

    App process *i* of the result corresponds to world rank
    ``placement.world_rank_of_app(i)``; FTI-internal traffic (to, from and
    between encoder processes) is excluded, mirroring the paper's decision
    to cluster application processes and quarantine encoders separately.
    """
    if tracer.nranks != placement.nranks:
        raise ValueError(
            f"trace covers {tracer.nranks} ranks, placement expects "
            f"{placement.nranks}"
        )
    app_world = np.array(placement.app_ranks())
    sub = tracer.bytes_matrix[np.ix_(app_world, app_world)]
    return CommGraph(sub)


def node_graph(graph: CommGraph, placement: Placement, *, app_level: bool = False) -> CommGraph:
    """Collapse a process graph to the node level using ``placement``.

    With ``app_level=True`` the graph's endpoints are dense app indices of
    an :class:`FTIPlacement` (output of :func:`app_graph_from_trace`);
    otherwise they are world ranks.
    """
    node_of = placement.node_array()
    if app_level:
        if not isinstance(placement, FTIPlacement):
            raise TypeError("app_level collapse requires an FTIPlacement")
        app_world = np.asarray(placement.app_ranks(), dtype=np.int64)
        if graph.n != app_world.size:
            raise ValueError(
                f"graph has {graph.n} endpoints, placement hosts "
                f"{app_world.size} app processes"
            )
        group_of = node_of[app_world]
    else:
        if graph.n != placement.nranks:
            raise ValueError(
                f"graph has {graph.n} endpoints, placement {placement.nranks} ranks"
            )
        group_of = node_of[:placement.nranks]
    return graph.collapse(group_of, placement.nnodes)
