"""ReliabilityQuery API tests: validation, wire format, exact equivalence.

The query layer promises *bit-equality* with the live-object functions
beside it (``montecarlo_scores``, ``CampaignSimulator.expected_waste``) —
same seed, same draws, same floats — so the equivalence tests here
assert ``==``, not ``approx``.
"""

import pickle
import warnings
from dataclasses import replace

import pytest

from repro.clustering import distributed_clustering, naive_clustering
from repro.core import paper_scenario
from repro.core.montecarlo import montecarlo_scores
from repro.core.query import (
    BatchStats,
    ClusteringSpec,
    MachineSpec,
    QueryResult,
    ReliabilityQuery,
    assemble_streamed,
    build_tables,
    iter_waste_curve,
    query_for,
    resolve_query,
    run_query,
    run_query_batch,
)
from repro.models import CampaignConfig, CampaignSimulator


@pytest.fixture(scope="module")
def scenario():
    return paper_scenario(iterations=5)


def small_query(**kw):
    defaults = dict(
        metric="montecarlo",
        machine=MachineSpec(nnodes=8, procs_per_node=2),
        clustering=ClusteringSpec(strategy="naive", cluster_size=4),
        n_samples=200,
        seed=3,
    )
    defaults.update(kw)
    return ReliabilityQuery(**defaults)


class TestValidation:
    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="metric"):
            small_query(metric="nope")

    def test_unknown_encoding(self):
        with pytest.raises(ValueError, match="encoding"):
            small_query(encoding="raid5")

    def test_campaign_metrics_require_rs(self):
        with pytest.raises(ValueError, match="rs"):
            small_query(metric="expected_waste", encoding="xor")

    def test_seed_must_be_int(self):
        with pytest.raises(ValueError):
            small_query(seed=1.5)
        with pytest.raises(ValueError):
            small_query(seed=True)

    def test_counts_positive(self):
        with pytest.raises(ValueError):
            small_query(n_samples=0)
        with pytest.raises(ValueError):
            small_query(metric="expected_waste", n_campaigns=0)

    def test_waste_curve_needs_sweep(self):
        with pytest.raises(ValueError, match="sweep"):
            small_query(metric="waste_curve")

    def test_sweep_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            small_query(
                metric="waste_curve", sweep=(600.0, float("nan"))
            )

    def test_survival_sweep_must_be_integral(self):
        with pytest.raises(ValueError):
            small_query(metric="survival", sweep=(1.0, 2.5))

    def test_labels_strategy_requires_labels(self):
        with pytest.raises(ValueError):
            ClusteringSpec(strategy="labels")
        with pytest.raises(ValueError):
            ClusteringSpec(strategy="naive", l1=(0, 0, 1, 1))

    def test_machine_preset_checked(self):
        with pytest.raises(ValueError):
            MachineSpec(preset="bluegene")

    def test_clustering_length_checked_at_build(self):
        machine = MachineSpec(nnodes=8, procs_per_node=2)
        spec = ClusteringSpec(strategy="labels", l1=(0, 1))
        query = small_query(machine=machine, clustering=spec)
        with pytest.raises(ValueError):
            build_tables(query)


class TestWireFormat:
    def test_json_roundtrip(self):
        query = small_query(
            metric="waste_curve", sweep=(600.0, 1200.0), n_campaigns=2
        )
        again = ReliabilityQuery.from_json(query.to_json())
        assert again == query

    def test_labels_roundtrip(self):
        spec = ClusteringSpec(
            strategy="labels", name="custom", l1=tuple([0] * 8 + [1] * 8)
        )
        query = small_query(clustering=spec)
        assert ReliabilityQuery.from_json(query.to_json()) == query

    def test_unknown_top_level_field_rejected(self):
        data = small_query().to_dict()
        data["n_sampels"] = 100
        with pytest.raises(ValueError, match="n_sampels"):
            ReliabilityQuery.from_dict(data)

    def test_unknown_nested_field_rejected(self):
        data = small_query().to_dict()
        data["machine"]["nodes"] = 8
        with pytest.raises(ValueError, match="nodes"):
            ReliabilityQuery.from_dict(data)

    def test_wrong_version_rejected(self):
        data = small_query().to_dict()
        data["v"] = 99
        with pytest.raises(ValueError, match="version"):
            ReliabilityQuery.from_dict(data)

    def test_bad_json_is_value_error(self):
        with pytest.raises(ValueError):
            ReliabilityQuery.from_json("{not json")

    def test_result_roundtrip(self):
        result = run_query(small_query())
        again = QueryResult.from_json(result.to_json())
        assert again == result

    def test_result_value_lookup(self):
        result = run_query(small_query())
        assert result.value("n_samples") == 200.0
        with pytest.raises(KeyError, match="restart_fraction_mean"):
            result.value("nope")

    def test_query_pickles_and_hashes(self):
        query = small_query()
        assert pickle.loads(pickle.dumps(query)) == query
        assert hash(query) == hash(small_query())


class TestExactEquivalence:
    """The query API's core promise: direct functions and queries draw
    the same streams, so results are float-for-float identical."""

    def test_montecarlo_matches_legacy(self, scenario):
        clustering = distributed_clustering(scenario.placement, 16)
        legacy = montecarlo_scores(scenario, clustering, n_samples=800, rng=17)
        result = run_query(
            query_for(scenario, clustering, n_samples=800, seed=17)
        )
        assert result.value("restart_fraction_mean") == legacy.restart_fraction_mean
        assert result.value("restart_fraction_p95") == legacy.restart_fraction_p95
        assert result.value("catastrophic_rate") == legacy.catastrophic_rate
        assert result.value("soft_error_share") == legacy.soft_error_share

    def test_expected_waste_matches_legacy(self, scenario):
        clustering = naive_clustering(1024, 32)
        config = CampaignConfig(
            horizon_s=7 * 24 * 3600.0,
            checkpoint_interval_s=1800.0,
            node_mtbf_s=0.25 * 365 * 24 * 3600.0,
        )
        sim = CampaignSimulator(scenario.machine, config)
        legacy = sim.expected_waste(clustering, n_campaigns=2, rng=11)
        result = run_query(
            query_for(
                scenario,
                clustering,
                metric="expected_waste",
                campaign=config,
                n_campaigns=2,
                seed=11,
            )
        )
        assert result.value("expected_waste") == legacy

    def test_campaign_matches_simulator_run(self, scenario):
        clustering = naive_clustering(1024, 32)
        config = CampaignConfig(
            horizon_s=7 * 24 * 3600.0,
            checkpoint_interval_s=1800.0,
            node_mtbf_s=0.25 * 365 * 24 * 3600.0,
        )
        sim = CampaignSimulator(scenario.machine, config)
        direct = sim.run(clustering, rng=5)
        result = run_query(
            query_for(
                scenario,
                clustering,
                metric="campaign",
                campaign=config,
                seed=5,
            )
        )
        assert result.value("waste_fraction") == direct.waste_fraction
        assert result.value("n_failures") == direct.n_failures
        assert result.value("n_catastrophic") == direct.n_catastrophic

    def test_deterministic(self):
        assert run_query(small_query()) == run_query(small_query())


class TestCoalescing:
    def test_batch_matches_individual(self):
        queries = [small_query(seed=s) for s in range(4)] + [
            small_query(
                clustering=ClusteringSpec(strategy="naive", cluster_size=2),
                seed=9,
            )
        ]
        individual = [run_query(q) for q in queries]
        batched, stats = run_query_batch(queries)
        assert batched == individual
        assert stats == BatchStats(queries=5, scoring_passes=2, coalesced=4)

    def test_batch_reports_per_query_errors(self):
        good = small_query()
        bad = small_query(
            clustering=ClusteringSpec(strategy="labels", l1=(0, 1))
        )
        results, _ = run_query_batch([bad, good], return_exceptions=True)
        assert isinstance(results[0], ValueError)
        assert results[1] == run_query(good)

    def test_non_mc_metrics_do_not_coalesce(self):
        queries = [
            small_query(metric="expected_waste", n_campaigns=1, seed=s)
            for s in range(2)
        ]
        _, stats = run_query_batch(queries)
        assert stats.coalesced == 0


class TestStreaming:
    def test_waste_curve_chunks_assemble_exactly(self):
        sweep = tuple(600.0 * (i + 1) for i in range(6))
        query = small_query(
            metric="waste_curve", sweep=sweep, n_campaigns=1, seed=2
        )
        whole = run_query(query)
        parts = [
            run_query(replace(query, sweep=sweep[i : i + 2]))
            for i in range(0, len(sweep), 2)
        ]
        assert assemble_streamed(query, parts) == whole

    def test_iter_waste_curve_matches_run_query(self):
        sweep = (600.0, 1200.0, 2400.0)
        query = small_query(
            metric="waste_curve", sweep=sweep, n_campaigns=1, seed=2
        )
        points = list(iter_waste_curve(query, resolve_query(query)))
        assert tuple(points) == run_query(query).curve

    def test_survival_curve_monotone(self):
        result = run_query(small_query(metric="survival"))
        survivals = [y for _, y in result.curve]
        assert survivals == sorted(survivals, reverse=True)


class TestQueryFor:
    def test_tolerance_maps_to_encoding(self, scenario):
        from repro.failures.catastrophic import rs_half_tolerance, xor_tolerance

        clustering = naive_clustering(1024, 32)
        assert (
            query_for(scenario, clustering, tolerance=rs_half_tolerance).encoding
            == "rs"
        )
        assert (
            query_for(scenario, clustering, tolerance=xor_tolerance).encoding
            == "xor"
        )

    def test_tolerance_and_encoding_conflict(self, scenario):
        from repro.failures.catastrophic import xor_tolerance

        with pytest.raises(TypeError):
            query_for(
                scenario,
                naive_clustering(1024, 32),
                tolerance=xor_tolerance,
                encoding="xor",
            )

    def test_resolve_query_caches_by_table_key(self):
        a = small_query(seed=0)
        b = small_query(seed=99)  # same tables, different seed
        assert resolve_query(a) is resolve_query(b)


class TestLiveObjectFunctions:
    """The two direct functions are first-class API, not deprecated shims."""

    def test_montecarlo_scores_emits_no_warning(self, scenario):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            montecarlo_scores(
                scenario, naive_clustering(1024, 32), n_samples=10, rng=0
            )

    def test_expected_waste_emits_no_warning(self, scenario):
        sim = CampaignSimulator(
            scenario.machine,
            CampaignConfig(
                horizon_s=24 * 3600.0,
                checkpoint_interval_s=1800.0,
                node_mtbf_s=365 * 24 * 3600.0,
            ),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim.expected_waste(naive_clustering(1024, 32), n_campaigns=1, rng=0)
