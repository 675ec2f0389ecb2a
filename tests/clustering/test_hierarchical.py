"""Hierarchical-clustering tests (§IV-B structure, paper-scale shape)."""

import numpy as np
import pytest

from repro.clustering import (
    PartitionCost,
    hierarchical_clustering,
    l2_striping,
    validate_clustering,
)
from repro.commgraph import node_graph, paper_tsunami_matrix, random_sparse_matrix
from repro.machine import BlockPlacement

PAPER_COST = PartitionCost(w_logging=1.0, w_restart=8.0)


def paper_inputs(iterations=5):
    g = paper_tsunami_matrix(iterations=iterations)
    placement = BlockPlacement(64, 16)
    return g, node_graph(g, placement), placement


class TestL2Striping:
    def test_basic_striping(self):
        placement = BlockPlacement(4, 2)
        labels = l2_striping([[0, 1, 2, 3]], placement, l2_group_nodes=4)
        # Slot 0 of each node -> cluster 0; slot 1 -> cluster 1.
        np.testing.assert_array_equal(labels, [0, 1, 0, 1, 0, 1, 0, 1])

    def test_remainder_absorbed_into_last_group(self):
        placement = BlockPlacement(6, 1)
        labels = l2_striping([[0, 1, 2, 3, 4, 5]], placement, l2_group_nodes=4)
        # 6 nodes, group width 4 -> one group of 4? No: 6//4 = 1 group, the
        # remainder (2 nodes) joins it -> a single 6-wide group.
        assert len(set(labels.tolist())) == 1

    def test_incomplete_cover_raises(self):
        placement = BlockPlacement(4, 1)
        with pytest.raises(ValueError, match="cover"):
            l2_striping([[0, 1]], placement)

    def test_bad_group_width(self):
        placement = BlockPlacement(4, 1)
        with pytest.raises(ValueError):
            l2_striping([[0, 1, 2, 3]], placement, l2_group_nodes=0)


class TestHierarchicalStructure:
    def test_node_alignment_and_distribution(self):
        g, ng, placement = paper_inputs()
        c = hierarchical_clustering(ng, placement, cost=PAPER_COST)
        report = validate_clustering(
            c,
            placement,
            require_node_aligned_l1=True,
            require_l2_distinct_nodes=True,
            min_nodes_per_l1=4,
            homogeneous_l2=True,
        )
        assert report.ok, report.violations

    def test_paper_shape_64_4(self):
        """Table II: hierarchical (64-4): L1 of 64 procs, L2 of 4."""
        g, ng, placement = paper_inputs()
        c = hierarchical_clustering(ng, placement, cost=PAPER_COST)
        assert c.name == "hierarchical-64-4"
        assert (c.l1_sizes() == 64).all()
        assert (c.l2_sizes() == 4).all()
        assert c.n_l1_clusters == 16
        assert c.n_l2_clusters == 256
        assert c.is_hierarchical

    def test_name_carries_effective_stripe_width(self):
        """Stripes wider than the 4-node L1 clusters cap at 4 nodes, so
        identical label arrays must carry an identical name."""
        g, ng, placement = paper_inputs()
        runs = [
            hierarchical_clustering(
                ng, placement, cost=PAPER_COST, max_nodes_per_l1=4,
                l2_group_nodes=width,
            )
            for width in (4, 8, 16)
        ]
        for c in runs[1:]:
            np.testing.assert_array_equal(c.l1_labels, runs[0].l1_labels)
            np.testing.assert_array_equal(c.l2_labels, runs[0].l2_labels)
        assert {c.name for c in runs} == {"hierarchical-64-4"}

    def test_l2_nested_in_l1(self):
        g, ng, placement = paper_inputs()
        c = hierarchical_clustering(ng, placement, cost=PAPER_COST)
        for l1 in range(c.n_l1_clusters):
            nested = c.l2_within_l1(l1)
            assert len(nested) == 16  # 4 nodes x 16 ppn / 4-wide stripes

    def test_logged_fraction_beats_naive(self):
        """Hierarchical logs less than naive-32 (Table II: 1.9 vs 3.5 %)."""
        from repro.clustering import naive_clustering

        g, ng, placement = paper_inputs(iterations=10)
        c = hierarchical_clustering(ng, placement, cost=PAPER_COST)
        naive = naive_clustering(1024, 32)
        assert g.logged_fraction(c.l1_labels) < g.logged_fraction(naive.l1_labels)

    def test_size_mismatch_rejected(self):
        g, ng, placement = paper_inputs()
        with pytest.raises(ValueError):
            hierarchical_clustering(ng, BlockPlacement(32, 16), cost=PAPER_COST)

    def test_small_machine_single_group(self):
        """Machines with < 2 L2 groups per L1 still produce valid output."""
        g = random_sparse_matrix(8, rng=0)
        placement = BlockPlacement(8, 2)
        c = hierarchical_clustering(g, placement, min_nodes_per_l1=4)
        report = validate_clustering(
            c, placement, require_l2_distinct_nodes=True,
            require_node_aligned_l1=True,
        )
        assert report.ok, report.violations


class TestValidateClustering:
    def test_detects_colocated_l2(self):
        from repro.clustering import naive_clustering

        placement = BlockPlacement(4, 8)
        c = naive_clustering(32, 8)  # 8 consecutive on one node
        report = validate_clustering(
            c, placement, require_l2_distinct_nodes=True
        )
        assert not report.ok
        assert any("co-located" in v for v in report.violations)

    def test_detects_split_node(self):
        from repro.clustering import naive_clustering

        placement = BlockPlacement(2, 8)
        c = naive_clustering(16, 4)  # splits each node into 2 clusters
        report = validate_clustering(c, placement, require_node_aligned_l1=True)
        assert not report.ok

    def test_placement_required(self):
        from repro.clustering import naive_clustering

        c = naive_clustering(16, 4)
        report = validate_clustering(c, None, require_node_aligned_l1=True)
        assert not report.ok

    def test_raise_if_failed(self):
        from repro.clustering import naive_clustering

        placement = BlockPlacement(2, 8)
        c = naive_clustering(16, 4)
        report = validate_clustering(c, placement, require_node_aligned_l1=True)
        with pytest.raises(ValueError, match="validation failed"):
            report.raise_if_failed()

    def test_max_l2_size_and_homogeneity(self):
        from repro.clustering import Clustering

        c = Clustering("x", np.array([0, 0, 0, 0, 0, 0]), np.array([0, 0, 0, 0, 0, 1]))
        report = validate_clustering(c, max_l2_size=4, homogeneous_l2=True)
        assert not report.ok
        assert len(report.violations) == 2
