"""Closed-form communication matrices for stencil workloads.

Running the 1024-rank tsunami app through the discrete-event engine gives
the ground-truth trace, but the parameter sweeps of Fig. 3/4 evaluate many
clusterings against *one fixed* application matrix — rebuilding it
analytically is exact for a stencil (every iteration sends the same
messages) and keeps the sweep benchmarks fast.

``synthetic_stencil_matrix`` must agree byte-for-byte with the traced app;
a test asserts exactly that (``tests/commgraph/test_builder_synthetic.py``).
"""

from __future__ import annotations

import numpy as np

from repro.apps.stencil import ProcessGrid
from repro.commgraph.graph import CommGraph


def synthetic_stencil_matrix(
    grid: ProcessGrid,
    *,
    iterations: int,
    nfields: int = 3,
    itemsize: int = 8,
) -> CommGraph:
    """Halo-exchange byte matrix of ``iterations`` stencil steps.

    East/west messages carry ``nfields · tile_ny`` items, north/south
    messages ``nfields · tile_nx`` items, matching
    :class:`repro.apps.stencil.HaloExchange`. Collectives (the periodic
    ``allreduce``) are *not* included — their volume is negligible (8-byte
    scalars) and the sweeps in the paper reason about the stencil traffic.
    """
    n = grid.nranks
    m = np.zeros((n, n))
    ew_bytes = nfields * grid.tile_ny * itemsize * iterations
    ns_bytes = nfields * grid.tile_nx * itemsize * iterations
    for rank in range(n):
        north, east, south, west = grid.neighbors_of(rank)
        if north is not None:
            m[north, rank] += ns_bytes
        if south is not None:
            m[south, rank] += ns_bytes
        if east is not None:
            m[east, rank] += ew_bytes
        if west is not None:
            m[west, rank] += ew_bytes
    return CommGraph(m)


def paper_tsunami_matrix(*, iterations: int = 100) -> CommGraph:
    """The §V 1024-process tsunami matrix (32×32 grid, 32×768 tiles)."""
    from repro.apps.tsunami import paper_tsunami_config

    cfg = paper_tsunami_config(iterations=iterations)
    return synthetic_stencil_matrix(cfg.grid, iterations=iterations, nfields=3)


def random_sparse_matrix(
    n: int,
    *,
    degree: int = 4,
    rng=None,
    max_bytes: int = 10**6,
) -> CommGraph:
    """Random low-degree communication graph (for partitioner stress tests).

    Mirrors the observation [15] that HPC communication graphs have a low
    degree of connectivity: each endpoint talks to ~``degree`` partners.
    """
    from repro.util.rng import resolve_rng

    gen = resolve_rng(rng)
    m = np.zeros((n, n))
    for src in range(n):
        partners = gen.choice(n, size=min(degree, n - 1), replace=False)
        for dst in partners:
            if dst != src:
                m[dst, src] += float(gen.integers(1, max_bytes))
    return CommGraph(m)
