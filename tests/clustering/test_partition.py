"""Partitioner tests: invariants on random graphs, paper-graph calibration,
and exact equivalence with the scalar greedy loop the array pass replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import PartitionCost, partition_node_graph
from repro.clustering.partition import _MergeState
from repro.commgraph import (
    CommGraph,
    node_graph,
    paper_tsunami_matrix,
    random_sparse_matrix,
)
from repro.machine import BlockPlacement


#: Cost calibrated so the §V node graph yields the paper's 4-node L1 clusters.
PAPER_COST = PartitionCost(w_logging=1.0, w_restart=8.0)


def _first_occurrence(labels):
    order: dict[int, int] = {}
    out = np.empty(labels.size, dtype=np.int64)
    for i, lab in enumerate(labels):
        out[i] = order.setdefault(int(lab), len(order))
    return out


def reference_partition(
    graph, *, min_cluster_nodes=4, max_cluster_nodes=None, cost=None, refine=True
):
    """Scalar reference for ``partition_node_graph``: every candidate pair
    is scored by one ``merge_gain`` call and the lexicographically smallest
    ``(gain, min(a, b), max(a, b))`` merge wins; the refinement pass
    accumulates each node's weights with ``np.add.at``."""
    n = graph.n
    if min_cluster_nodes < 1:
        raise ValueError(f"min_cluster_nodes must be >= 1, got {min_cluster_nodes}")
    if max_cluster_nodes is not None:
        if max_cluster_nodes < min_cluster_nodes:
            raise ValueError("max_cluster_nodes < min_cluster_nodes")
        max_cluster_nodes = min(max_cluster_nodes, n)
    if min_cluster_nodes > n:
        raise ValueError(
            f"min_cluster_nodes {min_cluster_nodes} exceeds node count {n}"
        )
    cost = cost or PartitionCost()
    cap = max_cluster_nodes if max_cluster_nodes is not None else n
    sym = graph.symmetric().astype(np.float64)
    np.fill_diagonal(sym, 0.0)
    total = float(sym.sum())
    weights = sym.copy()
    sizes = np.ones(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    member_of = np.arange(n)

    def merge_gain(a, b):
        d_logged = -2.0 * weights[a, b] / total if total > 0 else 0.0
        d_restart = (2.0 * sizes[a] * sizes[b]) / (n * n)
        return cost.w_logging * d_logged + cost.w_restart * d_restart

    while True:
        ids = np.flatnonzero(alive)
        if ids.size == 1:
            break
        undersized = [c for c in ids if sizes[c] < min_cluster_nodes]
        best = None
        for a in undersized or ids:
            for b in ids:
                if b == a or sizes[a] + sizes[b] > cap:
                    continue
                lo, hi = min(a, b), max(a, b)
                key = (merge_gain(lo, hi), lo, hi)
                if best is None or key < best:
                    best = key
        if best is None:
            if undersized:
                raise ValueError(
                    f"cannot satisfy min_cluster_nodes={min_cluster_nodes} "
                    f"with max_cluster_nodes={max_cluster_nodes}"
                )
            break
        gain, a, b = best
        if gain >= 0 and not undersized:
            break
        weights[a, :] += weights[b, :]
        weights[:, a] += weights[:, b]
        weights[a, a] = 0.0
        weights[b, :] = 0.0
        weights[:, b] = 0.0
        sizes[a] += sizes[b]
        sizes[b] = 0
        alive[b] = False
        member_of[member_of == b] = a

    labels = _first_occurrence(member_of)
    if not refine:
        return labels
    sizes = np.bincount(labels).astype(np.int64)
    k = sizes.size
    improved, sweeps = True, 0
    while improved and sweeps < 10:
        improved, sweeps = False, sweeps + 1
        for v in range(n):
            src = labels[v]
            if sizes[src] <= min_cluster_nodes:
                continue
            w_to = np.zeros(k)
            np.add.at(w_to, labels, sym[v])
            best_gain, best_dst = 0.0, -1
            for dst in range(k):
                if dst == src or sizes[dst] + 1 > cap or sizes[dst] == 0:
                    continue
                d_logged = 2.0 * (w_to[src] - w_to[dst]) / total if total > 0 else 0.0
                d_restart = 2.0 * (sizes[dst] - sizes[src] + 1.0) / (n * n)
                gain = cost.w_logging * d_logged + cost.w_restart * d_restart
                if gain < best_gain - 1e-15:
                    best_gain, best_dst = gain, dst
            if best_dst >= 0:
                sizes[src] -= 1
                sizes[best_dst] += 1
                labels[v] = best_dst
                improved = True
    return _first_occurrence(labels)


def _outcome(partition, graph, **kwargs):
    """Labels, or the ValueError message for impossible constraints."""
    try:
        return partition(graph, **kwargs)
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_same_as_reference(graph, **kwargs):
    expected = _outcome(reference_partition, graph, **kwargs)
    got = _outcome(partition_node_graph, graph, **kwargs)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


def _graph(n, edges):
    """Undirected graph: ``w`` bytes each way per ``(a, b, w)`` edge."""
    m = np.zeros((n, n))
    for a, b, w in edges:
        m[a, b] = m[b, a] = w
    return CommGraph(m)


def uniform_lattice(n: int, cols: int) -> CommGraph:
    """Row-major 2-D grid with unit weight on every edge, so every
    admissible merge of equal-sized clusters ties."""
    across = [(i, i + 1, 1.0) for i in range(n - 1) if (i + 1) % cols]
    down = [(i, i + cols, 1.0) for i in range(n - cols)]
    return _graph(n, across + down)


COSTS = [
    PartitionCost(1.0, 0.0),
    PartitionCost(0.0, 1.0),
    PartitionCost(1.0, 8.0),
    PartitionCost(1.0, 1.0),
    PartitionCost(1.0, 0.5),
]


@st.composite
def partition_problems(draw):
    n = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["random", "zero-traffic", "lattice"]))
    if kind == "random":
        degree = draw(st.integers(1, 5))
        graph = random_sparse_matrix(n, degree=degree, rng=draw(st.integers(0, 2**31)))
    elif kind == "zero-traffic":
        graph = CommGraph(np.zeros((n, n)))
    else:
        graph = uniform_lattice(n, draw(st.integers(1, 8)))
    kwargs = dict(
        min_cluster_nodes=draw(st.integers(1, 6)),
        max_cluster_nodes=draw(st.none() | st.integers(1, n + 2)),
        cost=draw(st.sampled_from(COSTS)),
        refine=draw(st.booleans()),
    )
    return graph, kwargs


class TestMatchesScalarReference:
    """The array pass picks exactly the merges the scalar loop picked."""

    @settings(deadline=None, max_examples=300)
    @given(partition_problems())
    def test_identical_labels_or_error(self, problem):
        graph, kwargs = problem
        assert_same_as_reference(graph, **kwargs)

    def test_gains_bit_identical_to_scalar_formula(self):
        g = random_sparse_matrix(30, degree=3, rng=4)
        state = _MergeState(g, PAPER_COST)
        for a, b in [(0, 7), (3, 9), (0, 3), (12, 29)]:
            state.merge(a, b)
        alive = np.flatnonzero(state.alive)
        gains = state.merge_gains(alive)
        n, w, s, c = g.n, state.weights, state.sizes, PAPER_COST
        for i, a in enumerate(alive):
            for j, b in enumerate(alive):
                d_logged = -2.0 * w[a, b] / state.total
                d_restart = (2.0 * s[a] * s[b]) / (n * n)
                assert gains[i, j] == c.w_logging * d_logged + c.w_restart * d_restart

    def test_ties_go_to_the_lowest_pair(self):
        """(0, 3) and (1, 2) tie; (0, 3) goes first, so node 4 — equally
        tied to both pairs — joins it, and the cap keeps it out of {1, 2}."""
        g = _graph(5, [(0, 3, 10), (1, 2, 10)] + [(4, v, 7) for v in range(4)])
        kwargs = dict(min_cluster_nodes=1, max_cluster_nodes=3, cost=PartitionCost(1.0, 0.0))
        np.testing.assert_array_equal(partition_node_graph(g, **kwargs), [0, 1, 1, 0, 0])
        assert_same_as_reference(g, **kwargs)

    def test_floor_admits_only_merges_with_undersized_clusters(self):
        """Once {0, 1} and {3, 4} exist, isolated node 2 must join one of
        them before they may merge (which would break the cap for 2)."""
        g = _graph(5, [(0, 1, 100), (3, 4, 100), (1, 3, 50)])
        kwargs = dict(min_cluster_nodes=2, max_cluster_nodes=4, cost=PartitionCost(1.0, 0.1))
        np.testing.assert_array_equal(partition_node_graph(g, **kwargs), [0, 0, 0, 1, 1])
        assert_same_as_reference(g, **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(min_cluster_nodes=4, max_cluster_nodes=2),
            dict(min_cluster_nodes=11),
            dict(min_cluster_nodes=0),
            dict(min_cluster_nodes=4, max_cluster_nodes=4),  # 10 nodes: a 2 is left
        ],
    )
    def test_same_error_on_impossible_constraints(self, kwargs):
        graph = random_sparse_matrix(10, rng=1)
        expected = _outcome(reference_partition, graph, **kwargs)
        assert expected.startswith("ValueError")
        assert _outcome(partition_node_graph, graph, **kwargs) == expected

    @pytest.mark.parametrize("floor", [1, 2, 4, 8, 16])
    def test_paper_node_graph(self, floor):
        graph = node_graph(paper_tsunami_matrix(iterations=10), BlockPlacement(64, 16))
        assert_same_as_reference(graph, min_cluster_nodes=floor, cost=PAPER_COST)


class TestCostFunction:
    def test_all_together_minimizes_logging(self):
        g = random_sparse_matrix(12, rng=0)
        cost = PartitionCost(w_logging=1.0, w_restart=0.0)
        together = cost.evaluate(g, np.zeros(12, dtype=int))
        apart = cost.evaluate(g, np.arange(12))
        assert together == 0.0
        assert apart == pytest.approx(1.0)

    def test_all_apart_minimizes_restart(self):
        g = random_sparse_matrix(12, rng=0)
        cost = PartitionCost(w_logging=0.0, w_restart=1.0)
        together = cost.evaluate(g, np.zeros(12, dtype=int))
        apart = cost.evaluate(g, np.arange(12))
        assert together == pytest.approx(1.0)
        assert apart == pytest.approx(12 * (1 / 12) ** 2)


class TestPartitionInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_cover_and_min_size(self, seed):
        g = random_sparse_matrix(24, degree=3, rng=seed)
        labels = partition_node_graph(g, min_cluster_nodes=4)
        assert labels.shape == (24,)
        sizes = np.bincount(labels)
        assert (sizes >= 4).all()
        assert sizes.sum() == 24

    def test_max_size_respected(self):
        g = random_sparse_matrix(24, degree=3, rng=5)
        labels = partition_node_graph(
            g, min_cluster_nodes=2, max_cluster_nodes=6
        )
        assert np.bincount(labels).max() <= 6

    def test_deterministic(self):
        g = random_sparse_matrix(20, rng=9)
        a = partition_node_graph(g, min_cluster_nodes=2)
        b = partition_node_graph(g, min_cluster_nodes=2)
        np.testing.assert_array_equal(a, b)

    def test_labels_first_occurrence_ordered(self):
        g = random_sparse_matrix(16, rng=2)
        labels = partition_node_graph(g, min_cluster_nodes=2)
        seen: list[int] = []
        for lab in labels:
            if lab not in seen:
                seen.append(int(lab))
        assert seen == sorted(seen)

    def test_impossible_constraints_raise(self):
        g = random_sparse_matrix(10, rng=1)
        with pytest.raises(ValueError):
            partition_node_graph(g, min_cluster_nodes=4, max_cluster_nodes=2)
        with pytest.raises(ValueError):
            partition_node_graph(g, min_cluster_nodes=11)
        with pytest.raises(ValueError):
            partition_node_graph(g, min_cluster_nodes=0)

    def test_min_size_satisfiable_only_by_forced_merges(self):
        # A graph with zero traffic: only the restart term exists, so the
        # optimizer wants singletons — the floor must still be enforced.
        g = CommGraph(np.zeros((12, 12)))
        labels = partition_node_graph(g, min_cluster_nodes=3)
        assert (np.bincount(labels) >= 3).all()

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10_000), st.integers(6, 20))
    def test_random_graphs_partition_cleanly(self, seed, n):
        g = random_sparse_matrix(n, degree=3, rng=seed)
        labels = partition_node_graph(g, min_cluster_nodes=2)
        sizes = np.bincount(labels)
        assert sizes.sum() == n
        assert (sizes[sizes > 0] >= 2).all()

    def test_256_nodes_cover_floor_cap_deterministic(self):
        """A scale the scalar pair loop could not afford in tier-1."""
        g = random_sparse_matrix(256, degree=4, rng=256)
        kwargs = dict(min_cluster_nodes=4, max_cluster_nodes=8, cost=PAPER_COST)
        labels = partition_node_graph(g, **kwargs)
        sizes = np.bincount(labels)
        assert labels.shape == (256,)
        assert sizes.sum() == 256
        assert sizes.min() >= 4
        assert sizes.max() <= 8
        np.testing.assert_array_equal(partition_node_graph(g, **kwargs), labels)


class TestQuality:
    def test_two_communities_are_separated(self):
        """Two dense blobs with a thin bridge must split at the bridge."""
        m = np.zeros((8, 8))
        for i in range(4):
            for j in range(4):
                if i != j:
                    m[i, j] = 100.0
                    m[i + 4, j + 4] = 100.0
        m[4, 3] = m[3, 4] = 1.0  # thin bridge
        g = CommGraph(m)
        labels = partition_node_graph(g, min_cluster_nodes=2)
        assert len(set(labels[:4])) == 1
        assert len(set(labels[4:])) == 1
        assert labels[0] != labels[4]

    def test_refinement_never_worsens_cost(self):
        g = random_sparse_matrix(30, degree=4, rng=11)
        cost = PartitionCost()
        rough = partition_node_graph(g, min_cluster_nodes=3, refine=False)
        refined = partition_node_graph(g, min_cluster_nodes=3, refine=True)
        assert cost.evaluate(g, refined) <= cost.evaluate(g, rough) + 1e-12


class TestPaperGraph:
    def test_yields_16_clusters_of_4_consecutive_nodes(self):
        """§V: 'the L1 clusters of 4 nodes correspond to 64 consecutive
        MPI processes'."""
        g = paper_tsunami_matrix(iterations=10)
        ng = node_graph(g, BlockPlacement(64, 16))
        labels = partition_node_graph(ng, min_cluster_nodes=4, cost=PAPER_COST)
        sizes = np.bincount(labels)
        assert len(sizes) == 16
        assert (sizes == 4).all()
        # Clusters are 4 *consecutive* nodes.
        np.testing.assert_array_equal(labels, np.arange(64) // 4)

    def test_logged_fraction_matches_table2(self):
        """Table II hierarchical row: 1.9 % of messages logged."""
        g = paper_tsunami_matrix(iterations=10)
        ng = node_graph(g, BlockPlacement(64, 16))
        labels = partition_node_graph(ng, min_cluster_nodes=4, cost=PAPER_COST)
        proc_labels = np.repeat(labels, 16)
        assert g.logged_fraction(proc_labels) == pytest.approx(0.019, abs=0.005)
