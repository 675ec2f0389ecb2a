"""Table I — the TSUBAME2 platform parameters feeding every model.

Not a performance experiment in the paper, but the substitution contract
of this reproduction: the machine model must carry exactly the Table I
facts (SSD write speed, dual-rail QDR IB, measured Lustre throughput…)
that the encoding/logging/recovery models consume.
"""

from repro.machine import TSUBAME2, tsubame2_fti_machine, tsubame2_machine


class TestTable1:
    def test_node_and_core_counts(self):
        assert TSUBAME2.total_nodes == 1408
        assert TSUBAME2.cores_per_node == 12
        assert TSUBAME2.hyperthreads_per_node == 24

    def test_gpu_counts(self):
        assert TSUBAME2.gpus_per_node == 3
        assert TSUBAME2.gpu_total == 4224

    def test_storage_parameters(self):
        assert TSUBAME2.ssd_write_MBps == 360.0
        assert TSUBAME2.pfs_write_GBps == 10.0

    def test_network_parameters(self):
        assert TSUBAME2.ib_rails == 2
        assert TSUBAME2.ib_rail_GBps == 4.0

    def test_evaluation_partition_shapes(self):
        assert tsubame2_machine().nranks == 1024
        assert tsubame2_fti_machine().nranks == 1088  # 64 x 17 (§V)
