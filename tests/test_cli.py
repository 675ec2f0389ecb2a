"""CLI tests: every subcommand produces its exhibit."""

import re

import pytest

from repro.cli import build_parser, main


def _assert_priced_with_memory(out, *, workers=False):
    """`repro sim` ran on a priced network and reported its memory."""
    virtual = float(re.search(r"virtual time (\S+) s", out).group(1))
    assert virtual > 0.0
    memory = re.search(r"^memory: peak RSS (\d+) MiB(, largest worker \d+ MiB)?$", out, re.M)
    assert memory is not None and int(memory.group(1)) > 0
    assert bool(memory.group(2)) == workers


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figZ"])


class TestDomainErrors:
    @pytest.mark.parametrize(
        "argv, field",
        [
            (["montecarlo", "--samples", "0"], "n_samples"),
            (["fig3", "--sizes", "0"], "cluster_size"),
            (["fig4a", "--sizes", "5"], "cluster_size 5"),
            (["campaign", "--days", "0"], "horizon_s"),
            (["fig5", "--nodes", "0"], "nodes"),
        ],
        ids=["montecarlo", "fig3", "fig4a", "campaign", "fig5"],
    )
    def test_bad_value_is_a_usage_error(self, capsys, argv, field):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"repro: error: {field}" in err
        assert "Traceback" not in err


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "TSUBAME2" in out and "1408" in out

    def test_table2(self, capsys):
        assert main(["table2", "--iterations", "10"]) == 0
        out = capsys.readouterr().out
        assert "hierarchical-64-4" in out
        assert "['hierarchical-64-4']" in out

    def test_fig3(self, capsys):
        assert main(["fig3", "--iterations", "10", "--sizes", "8", "32"]) == 0
        out = capsys.readouterr().out
        assert "sweet spot: 32" in out

    def test_fig4a(self, capsys):
        assert main(["fig4a", "--sizes", "4", "8"]) == 0
        assert "P[cat]" in capsys.readouterr().out

    def test_fig4bc(self, capsys):
        assert main(["fig4bc", "--iterations", "10", "--sizes", "32"]) == 0
        assert "restart%" in capsys.readouterr().out

    def test_fig5_small(self, capsys):
        assert main(
            ["fig5", "--nodes", "4", "--app-per-node", "4",
             "--iterations", "6", "--checkpoint-every", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "Fig. 5a" in out and "Fig. 5b" in out

    def test_radar(self, capsys):
        assert main(["radar", "--iterations", "10"]) == 0
        assert "inside baseline" in capsys.readouterr().out

    def test_montecarlo(self, capsys):
        assert main(
            ["montecarlo", "--iterations", "10", "--samples", "400"]
        ) == 0
        out = capsys.readouterr().out
        assert "Monte-Carlo validation (400 failures per strategy)" in out
        assert "hierarchical-64-4" in out
        assert "restart (sampled)" in out

    def test_campaign(self, capsys):
        assert main(
            ["campaign", "--iterations", "10", "--days", "7",
             "--node-mtbf-years", "0.1"]
        ) == 0
        out = capsys.readouterr().out
        assert "failure campaign" in out
        assert "hierarchical-64-4" in out

    def test_serve_self_test(self, capsys):
        assert main(["serve", "--self-test"]) == 0
        out = capsys.readouterr().out
        assert "self-test ok" in out
        assert "equivalence checks" in out

    def test_fuzz_campaign_writes_artifacts(self, capsys, tmp_path):
        out_dir = tmp_path / "fuzz-out"
        assert main(
            ["fuzz", "--seed", "42", "--budget", "4", "--shrink", "1",
             "--out-dir", str(out_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "fuzz campaign: 4 scenarios (seed 42)" in out
        assert "classifications:" in out
        assert "disagreement rate" in out
        assert (out_dir / "BENCH_fuzzer.json").exists()

    def test_fuzz_actor_selection(self, capsys):
        assert main(
            ["fuzz", "--seed", "1", "--budget", "2", "--shrink", "0",
             "--actors", "soft", "burst"]
        ) == 0
        out = capsys.readouterr().out
        assert "coverage: soft=" in out

    def test_fuzz_schedule_sweep_writes_artifacts(self, capsys, tmp_path):
        out_dir = tmp_path / "ilv-out"
        assert main(
            ["fuzz", "--schedules", "16", "--workload", "race-demo",
             "--out-dir", str(out_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "interleaving sweep [race-demo]: 16 schedules" in out
        assert "divergences:" in out
        assert (out_dir / "BENCH_interleaving.json").exists()
        repros = list(out_dir.glob("schedule_repro_*.json"))
        assert repros, "race-demo sweep found no schedule repro"
        assert main(["fuzz", "--replay", str(repros[0])]) == 0

    def test_sim_heat_sharded_verifies(self, capsys):
        assert main(
            ["sim", "--workload", "heat", "--px", "2", "--py", "2",
             "--iterations", "4", "--shards", "2", "--verify"]
        ) == 0
        out = capsys.readouterr().out
        assert "workload: heat (4 ranks)" in out
        assert "shards: 2 on the coordinator" in out
        assert "verified: traces byte-identical, clocks bit-identical" in out
        _assert_priced_with_memory(out)

    def test_sim_tsunami_sharded_verifies(self, capsys):
        assert main(
            ["sim", "--workload", "tsunami", "--px", "2", "--py", "2",
             "--iterations", "4", "--shards", "2", "--verify"]
        ) == 0
        out = capsys.readouterr().out
        assert "workload: tsunami (4 ranks)" in out
        assert "verified: traces byte-identical, clocks bit-identical" in out
        _assert_priced_with_memory(out)

    def test_sim_fig5_worker_processes(self, capsys):
        assert main(
            ["sim", "--workload", "fig5", "--nodes", "2",
             "--app-per-node", "2", "--iterations", "3",
             "--checkpoint-every", "2", "--shards", "2", "--workers", "2",
             "--verify"]
        ) == 0
        out = capsys.readouterr().out
        assert "2 worker process(es)" in out
        assert "verified" in out
        _assert_priced_with_memory(out, workers=True)

    def test_sim_reports_what_the_kernel_tier_did(self, capsys):
        fig5 = ["sim", "--workload", "fig5", "--nodes", "4",
                "--app-per-node", "4", "--iterations", "20",
                "--checkpoint-every", "5"]
        assert main(fig5) == 0
        assert (
            "kernels: 4 run(s), 20 iteration(s) closed-form, deopts: none"
            in capsys.readouterr().out
        )
        # Across a shard cut the stencil leaves every held set: merged
        # over the shards, each release deopts for that one reason.
        assert main(fig5 + ["--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "kernels: 0 run(s), 0 iteration(s) closed-form" in out
        assert "deopts: external-destination x" in out
        # Real payloads never yield a KernelLoop: the report says so
        # instead of reading as "every loop ran, none deopted".
        assert main(
            ["sim", "--workload", "heat", "--px", "2", "--py", "2",
             "--iterations", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "kernels: none declared" in out
        assert "run(s)" not in out

    def test_sim_spectral_sharded_verifies(self, capsys):
        assert main(
            ["sim", "--workload", "spectral", "--nranks", "4",
             "--iterations", "2", "--shards", "2", "--verify"]
        ) == 0
        out = capsys.readouterr().out
        assert "fast collective(s)" in out
        assert "traced:" in out
        assert "verified" in out
        _assert_priced_with_memory(out)

    def test_fuzz_replay_roundtrip(self, capsys, tmp_path):
        from repro.failures import FailureScenario
        from repro.fuzz import FuzzScenario, FuzzShape, save_repro

        path = save_repro(
            tmp_path / "repro.json",
            FuzzScenario(
                shape=FuzzShape(),
                schedule=FailureScenario.node_failure(6, 1),
            ),
            "agree",
        )
        assert main(["fuzz", "--replay", str(path)]) == 0
        assert "classification: agree" in capsys.readouterr().out
