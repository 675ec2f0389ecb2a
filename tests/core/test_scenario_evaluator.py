"""Scenario + evaluator tests: scenario shapes, report and evaluator mechanics."""

import pytest

from repro.clustering import naive_clustering
from repro.core import (
    ClusteringEvaluator,
    paper_scenario,
    reliability_scenario,
)


@pytest.fixture(scope="module")
def evaluator():
    return ClusteringEvaluator(paper_scenario(iterations=10))


@pytest.fixture(scope="module")
def report(evaluator):
    return evaluator.evaluate_all()


class TestScenario:
    def test_paper_scenario_shape(self):
        s = paper_scenario(iterations=5)
        assert s.machine.nnodes == 64
        assert s.placement.nranks == 1024
        assert s.graph.n == 1024
        assert s.node_comm_graph().n == 64

    def test_reliability_scenario_shape(self):
        s = reliability_scenario(iterations=5)
        assert s.machine.nnodes == 128
        assert s.machine.procs_per_node == 8

    def test_traced_scenario_equals_synthetic(self):
        synth = paper_scenario(iterations=2)
        traced = paper_scenario(iterations=2, traced=True)
        # Halo traffic identical; traced adds only the tiny allreduce bytes.
        diff = traced.graph.matrix - synth.graph.matrix
        assert (diff >= 0).all()
        assert diff.sum() / synth.graph.matrix.sum() < 1e-3


class TestTable2Reproduction:
    """Report mechanics at a short trace; the Table II values themselves
    are asserted once, in tests/paper/test_paper_table2.py."""

    def test_table_rendering(self, report):
        text = report.to_table()
        assert "hierarchical-64-4" in text
        assert "naive-32" in text

    def test_score_lookup_missing(self, report):
        with pytest.raises(KeyError):
            report.score_named("nope")


class TestEvaluatorMechanics:
    def test_typical_l2_size(self, evaluator):
        c = naive_clustering(1024, 16)
        assert evaluator.typical_l2_size(c) == 16

    def test_custom_clustering_set(self, evaluator):
        report = evaluator.evaluate_all([naive_clustering(1024, 64)])
        assert len(report.scores) == 1
        assert report.scores[0].name == "naive-64"

    def test_from_scenario_alias(self):
        ev = ClusteringEvaluator.from_scenario(paper_scenario(iterations=2))
        assert isinstance(ev, ClusteringEvaluator)


class TestReportSerialization:
    def test_to_dict_structure(self, report):
        data = report.to_dict()
        assert set(data) == {"baseline", "scores"}
        assert len(data["scores"]) == 4
        hier = next(
            s for s in data["scores"] if s["name"] == "hierarchical-64-4"
        )
        assert hier["satisfies_baseline"] is True
        assert 0 < hier["logging_fraction"] < 0.05

    def test_save_json_roundtrip(self, report, tmp_path):
        import json

        path = tmp_path / "table2.json"
        report.save_json(path)
        loaded = json.loads(path.read_text())
        assert loaded == report.to_dict()

    def test_only_one_compliant_entry(self, report):
        compliant = [
            s["name"] for s in report.to_dict()["scores"]
            if s["satisfies_baseline"]
        ]
        assert compliant == ["hierarchical-64-4"]
