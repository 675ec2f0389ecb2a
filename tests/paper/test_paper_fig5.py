"""Fig. 5 — the traced §V execution and the overall comparison.

5a/5b run the full application + encoder-process execution through the
discrete-event MPI simulator (64 nodes × 17 ranks = 1088) once and check
the communication matrix: the east-west stencil exchange dominates (the
dark double diagonal), traffic is sparse, and in the 68-rank zoom every
structural feature the paper narrates is present:

* the blue double diagonal (boundary exchange) interrupted at ranks
  0, 17, 34, 51 — the four encoding processes of the first 4 nodes;
* light horizontal lines at the encoder rows (app→encoder checkpoint
  notifications);
* isolated points at encoder-row × encoder-column intersections (the
  Reed–Solomon exchange between encoders);
* light diagonals starting at power-of-two ranks (MPICH2's
  ``MPI_Allgather`` during FTI initialization).

5c normalizes each strategy's four scores to the §III baseline polygon
("any clustering going outside the area delimited by the baseline is not
suitable for FT in future large scale HPC systems"); that only the
hierarchical clustering stays inside is the §VII headline, asserted once
in ``test_paper_table2.py``.
"""

import numpy as np
import pytest

from repro.core import experiment_fig5ab


@pytest.fixture(scope="module")
def study():
    """The one 1088-rank traced execution behind both 5a and 5b."""
    return experiment_fig5ab(nodes=64, app_per_node=16, iterations=50, checkpoint_every=25)


class TestFig5a:
    def test_double_diagonal_dominates(self, study):
        """East-west (±1 app-rank) traffic carries most bytes."""
        halo = study.kind_matrices["halo"]
        ew = np.diagonal(halo, 1).sum() + np.diagonal(halo, -1).sum()
        assert ew / halo.sum() > 0.85

    def test_matrix_is_sparse_low_degree(self, study):
        """HPC communication graphs have low connectivity [15]."""
        partners = (study.bytes_matrix > 0).sum(axis=0)
        assert np.median(partners) <= 16

    def test_encoder_rows_carry_only_fti_traffic(self, study):
        halo = study.kind_matrices["halo"]
        for enc in study.encoder_ranks:
            assert halo[enc, :].sum() == 0
            assert halo[:, enc].sum() == 0

    def test_symmetric_stencil_traffic(self, study):
        halo = study.kind_matrices["halo"]
        np.testing.assert_allclose(halo, halo.T)


class TestFig5b:
    def test_encoder_ranks_are_0_17_34_51(self, study):
        assert study.encoder_ranks[:4] == [0, 17, 34, 51]

    def test_diagonals_interrupted_at_encoders(self, study):
        """'the diagonals get interrupted for ranks 0, 17, 34 and 51'."""
        halo = study.kind_matrices["halo"][:68, :68]
        for enc in (0, 17, 34, 51):
            assert halo[enc, :].sum() == 0
            assert halo[:, enc].sum() == 0
        # ... but present between adjacent app ranks.
        assert halo[1, 2] > 0 and halo[2, 1] > 0

    def test_horizontal_lines_at_encoder_rows(self, study):
        """'four short horizontal lines ... at 0, 17, 34 and 51 (y axis)
        which correspond to the few communications done between the
        application processes and the encoding process'."""
        ready = study.kind_matrices["fti-ready"][:68, :68]
        for enc, apps in ((0, range(1, 17)), (17, range(18, 34))):
            for app in apps:
                assert ready[enc, app] > 0
        # Ready traffic is tiny next to the stencil exchange.
        halo = study.kind_matrices["halo"]
        assert ready.sum() < 0.01 * halo.sum()

    def test_isolated_points_between_encoders(self, study):
        """'isolated points at the intersections of processes 0, 17, 34
        and 51 ... communications done between the encoding processes'."""
        ring = study.kind_matrices["fti-encode"][:68, :68]
        assert ring.sum() > 0
        nz = np.transpose(np.nonzero(ring))
        for dst, src in nz:
            assert dst in (0, 17, 34, 51) and src in (0, 17, 34, 51)

    def test_allgather_power_of_two_diagonals(self, study):
        """'diagonals in light blue starting ... from processes with a
        power-of-two rank ... MPI_Allgather ... during initialization'."""
        ag = study.kind_matrices["allgather"]
        distances = set()
        nz = np.transpose(np.nonzero(ag))
        for dst, src in nz:
            distances.add((src - dst) % study.nranks)
        # Bruck over 1088 ranks: all ring distances are powers of two.
        for d in distances:
            assert d & (d - 1) == 0, f"non power-of-two distance {d}"


class TestFig5c:
    def test_each_flat_strategy_breaks_its_axis(self, table2_report):
        norm = table2_report.normalized()
        assert norm["naive-32"]["encoding"] > 1.0  # too slow to encode
        assert norm["size-guided-8"]["reliability"] > 1.0  # unreliable
        assert norm["distributed-16"]["logging"] > 1.0  # logs everything
        assert norm["distributed-16"]["recovery"] > 1.0  # restarts too much

    def test_hierarchical_inside_on_every_axis(self, table2_report):
        norm = table2_report.normalized()["hierarchical-64-4"]
        for axis, value in norm.items():
            assert value <= 1.0, f"{axis} outside baseline"
