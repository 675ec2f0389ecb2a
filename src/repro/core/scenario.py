"""Evaluation scenarios: machine + application + failure model in one bundle.

A :class:`Scenario` fixes everything the four-dimensional evaluation needs;
:func:`paper_scenario` builds the paper's §V configuration (64 TSUBAME2
nodes × 16 processes running the 1024-rank tsunami trace), and
:func:`reliability_scenario` the §III-C distribution-study shape (128 × 8).

The application communication matrix can come from the closed-form stencil
synthesis (fast, exact for the halo traffic — the default for parameter
sweeps) or from an actual traced discrete-event run (used by the Fig. 5
experiments and asserted equal to the synthetic one in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.tsunami import TsunamiSimulation, paper_tsunami_config
from repro.clustering.partition import PartitionCost
from repro.commgraph.builder import graph_from_trace, node_graph
from repro.commgraph.graph import CommGraph
from repro.commgraph.synthetic import synthetic_stencil_matrix
from repro.failures.events import PAPER_TAXONOMY, FailureTaxonomy
from repro.machine.machine import Machine
from repro.machine.tsubame2 import reliability_study_machine, tsubame2_machine

#: Partition-cost weights calibrated so the §V node graph yields the paper's
#: 16 L1 clusters of 4 consecutive nodes (see the "Known deviations" block
#: of ``docs/architecture.md``).
PAPER_PARTITION_COST = PartitionCost(w_logging=1.0, w_restart=8.0)


@dataclass(frozen=True)
class Scenario:
    """One fully-specified evaluation setting."""

    name: str
    machine: Machine
    graph: CommGraph
    taxonomy: FailureTaxonomy = PAPER_TAXONOMY
    partition_cost: PartitionCost = PAPER_PARTITION_COST
    iterations: int = 100

    @property
    def placement(self):
        """The machine's rank placement (application processes)."""
        return self.machine.placement

    def node_comm_graph(self) -> CommGraph:
        """Node-level collapse of the application graph (L1 partitioner input)."""
        return node_graph(self.graph, self.placement)


def paper_scenario(
    *, iterations: int = 100, traced: bool = False
) -> Scenario:
    """The §V evaluation scenario: 64 × 16 tsunami on TSUBAME2 parameters.

    ``traced=True`` runs the tsunami through the discrete-event engine to
    obtain the matrix (slower, byte-identical to the synthetic default).
    """
    machine = tsubame2_machine(64, 16)
    cfg = paper_tsunami_config(iterations=iterations)
    if traced:
        from repro.simmpi.engine import Engine
        from repro.simmpi.tracing import TraceRecorder

        sim = TsunamiSimulation(cfg)
        tracer = TraceRecorder(cfg.grid.nranks)
        Engine(cfg.grid.nranks, network=machine.network, tracer=tracer).run(
            sim.make_program()
        )
        graph = graph_from_trace(tracer)
    else:
        graph = synthetic_stencil_matrix(
            cfg.grid, iterations=iterations, nfields=3
        )
    return Scenario(
        name=f"tsunami-1024-{'traced' if traced else 'synthetic'}",
        machine=machine,
        graph=graph,
        iterations=iterations,
    )


def reliability_scenario(*, iterations: int = 100) -> Scenario:
    """The §III-C distribution study: 128 nodes × 8 processes."""
    machine = reliability_study_machine(128, 8)
    cfg = paper_tsunami_config(iterations=iterations)
    # Same 1024-process stencil; only the machine shape differs.
    graph = synthetic_stencil_matrix(cfg.grid, iterations=iterations, nfields=3)
    return Scenario(
        name="distribution-study-128x8",
        machine=machine,
        graph=graph,
        iterations=iterations,
    )
