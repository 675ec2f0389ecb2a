"""Command-line interface: regenerate any exhibit of the paper from a shell.

Examples::

    python -m repro table2                 # the four-strategy comparison
    python -m repro fig3 --sizes 4 8 32    # cluster-size study
    python -m repro fig4a                  # reliability distribution study
    python -m repro fig5 --nodes 16 --app-per-node 4   # traced heatmaps
    python -m repro radar                  # Fig. 5c normalized comparison
    python -m repro table1                 # platform parameters
"""

from __future__ import annotations

import argparse
import sys


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--iterations",
        type=int,
        default=100,
        help="trace length in application iterations (default 100)",
    )
    parser.add_argument(
        "--traced",
        action="store_true",
        help="run the discrete-event engine for the matrix instead of the "
        "closed-form synthesis (slower, byte-identical)",
    )


def _scenario(args):
    from repro.core import paper_scenario

    return paper_scenario(iterations=args.iterations, traced=args.traced)


def cmd_table1(args) -> int:
    from repro.core import experiment_table1

    print(experiment_table1())
    return 0


def cmd_table2(args) -> int:
    from repro.core import experiment_table2

    report = experiment_table2(_scenario(args))
    print(report.to_table())
    print(f"\nstrategies meeting the baseline: {report.satisfying()}")
    return 0


def cmd_fig3(args) -> int:
    from repro.core import experiment_fig3

    study = experiment_fig3(_scenario(args), sizes=tuple(args.sizes))
    print(study.render())
    print(f"\nFig. 3a sweet spot: {study.sweet_spot_3a()} processes")
    return 0


def cmd_fig4a(args) -> int:
    from repro.core import experiment_fig4a

    print(experiment_fig4a(sizes=tuple(args.sizes)).render())
    return 0


def cmd_fig4bc(args) -> int:
    from repro.core import experiment_fig4bc

    print(experiment_fig4bc(_scenario(args), sizes=tuple(args.sizes)).render())
    return 0


def cmd_fig5(args) -> int:
    from repro.core import experiment_fig5ab

    study = experiment_fig5ab(
        nodes=args.nodes,
        app_per_node=args.app_per_node,
        iterations=args.iterations,
        checkpoint_every=args.checkpoint_every,
    )
    print(study.render_full(max_size=args.max_size))
    print()
    print(study.render_zoom())
    return 0


def cmd_radar(args) -> int:
    from repro.core import experiment_fig5c

    print(experiment_fig5c(_scenario(args)))
    return 0


def cmd_montecarlo(args) -> int:
    from repro.core import experiment_montecarlo

    print(
        experiment_montecarlo(
            _scenario(args), n_samples=args.samples, rng=args.seed
        )
    )
    return 0


def cmd_campaign(args) -> int:
    from repro.clustering import (
        distributed_clustering,
        hierarchical_clustering,
        naive_clustering,
        size_guided_clustering,
    )
    from repro.core.query import query_for, run_query
    from repro.models import CampaignConfig
    from repro.util import AsciiTable

    scenario = _scenario(args)
    campaign = CampaignConfig(
        horizon_s=args.days * 24 * 3600.0,
        checkpoint_interval_s=args.checkpoint_minutes * 60.0,
        node_mtbf_s=args.node_mtbf_years * 365 * 24 * 3600.0,
    )
    strategies = [
        naive_clustering(scenario.placement.nranks, 32),
        size_guided_clustering(scenario.placement.nranks, 8),
        distributed_clustering(scenario.placement, 16),
        hierarchical_clustering(
            scenario.node_comm_graph(),
            scenario.placement,
            cost=scenario.partition_cost,
        ),
    ]
    table = AsciiTable(
        ["clustering", "failures", "catastrophic", "waste %", "efficiency %"],
        title=f"{args.days}-day failure campaign",
    )
    for i, clustering in enumerate(strategies):
        query = query_for(
            scenario,
            clustering,
            metric="campaign",
            campaign=campaign,
            seed=args.seed + i,
        )
        result = run_query(query)
        table.add_row(
            [
                clustering.name,
                int(result.value("n_failures")),
                int(result.value("n_catastrophic")),
                f"{100 * result.value('waste_fraction'):.2f}",
                f"{100 * result.value('efficiency'):.2f}",
            ]
        )
    print(table.render())
    return 0


def cmd_serve(args) -> int:
    from repro.service import ReliabilityService, run_self_test

    if args.self_test:
        return run_self_test(workers=args.workers)

    import asyncio

    async def _serve() -> None:
        service = ReliabilityService(
            host=args.host,
            port=args.port,
            workers=args.workers,
            cache_bytes=args.cache_mb << 20,
        )
        await service.start()
        print(
            f"reliability service on http://{service.host}:{service.port} "
            f"({args.workers} worker(s), {args.cache_mb} MiB cache/shard)"
        )
        print("POST ReliabilityQuery JSON to /query (Ctrl-C to stop)")
        try:
            await service.serve_forever()
        finally:
            await service.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_sim(args) -> int:
    import resource
    import time

    import numpy as np

    from repro.apps.workload import fig5_workload
    from repro.machine.tsubame2 import tsubame2_fti_machine, tsubame2_machine
    from repro.simmpi import Engine, ShardedEngine, TraceRecorder

    if args.workload == "fig5":
        workload = fig5_workload(
            nodes=args.nodes,
            app_per_node=args.app_per_node,
            iterations=args.iterations,
            checkpoint_every=args.checkpoint_every,
        )
    elif args.workload == "heat":
        from repro.apps import HeatConfig
        from repro.apps.workload import HeatWorkload

        workload = HeatWorkload(
            HeatConfig(
                px=args.px,
                py=args.py,
                nx=8 * args.px,
                ny=8 * args.py,
                iterations=args.iterations,
            )
        )
    elif args.workload == "tsunami":
        from repro.apps import TsunamiConfig
        from repro.apps.workload import TsunamiWorkload

        workload = TsunamiWorkload(
            TsunamiConfig(
                px=args.px,
                py=args.py,
                nx=8 * args.px,
                ny=8 * args.py,
                iterations=args.iterations,
                synthetic=True,
                allreduce_every=4,
            )
        )
    else:  # spectral
        from repro.apps import SpectralConfig
        from repro.apps.workload import SpectralWorkload

        workload = SpectralWorkload(
            SpectralConfig(
                nranks=args.nranks,
                n=2 * args.nranks,
                iterations=args.iterations,
                synthetic=True,
            )
        )

    nranks = workload.nranks
    # Price the run on the TSUBAME2 links the perf ledger's sim-* workloads
    # use for the same shapes: the FTI node blocks for fig5, 16 ranks to a
    # node for the grid and spectral worlds.
    if args.workload == "fig5":
        machine = tsubame2_fti_machine(args.nodes, args.app_per_node)
    else:
        machine = tsubame2_machine(-(-nranks // 16), 16)
    network = machine.network
    tracer = None if args.no_trace else TraceRecorder(nranks, by_kind=True)
    engine = ShardedEngine(
        args.shards, workers=args.workers, network=network, tracer=tracer
    )
    t0 = time.perf_counter()
    engine.run(workload)
    elapsed = time.perf_counter() - t0
    clocks = engine.rank_times()

    rank_iters = nranks * args.iterations
    print(f"workload: {args.workload} ({nranks} ranks)")
    hosts = min(args.workers, args.shards)
    print(
        f"shards: {args.shards} on "
        f"{f'{hosts} worker process(es)' if hosts else 'the coordinator'}, "
        f"{engine.windows_run} sync window(s), "
        f"{engine.fast_collectives_run} fast collective(s)"
    )
    print(
        f"elapsed: {elapsed:.2f} s wall "
        f"({rank_iters / elapsed:,.0f} rank-iterations/s), "
        f"virtual time {max(clocks):.6g} s"
    )
    deopts = ", ".join(
        f"{reason} x{count}"
        for reason, count in sorted(engine.kernel_deopts.items())
    )
    print(
        f"kernels: {engine.kernel_runs} run(s), "
        f"{engine.kernel_iterations} iteration(s) closed-form, "
        f"deopts: {deopts or 'none'}"
    )
    if tracer is not None:
        print(
            f"traced: {int(tracer.total_messages):,} messages, "
            f"{int(tracer.total_bytes):,} bytes"
        )
    # ru_maxrss is KiB on Linux; RUSAGE_CHILDREN reports the largest
    # worker process joined so far.
    memory = (
        f"memory: peak RSS "
        f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MiB"
    )
    if hosts:
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        memory += f", largest worker {child:.0f} MiB"
    print(memory)

    if args.verify:
        ref_tracer = None if args.no_trace else TraceRecorder(
            nranks, by_kind=True
        )
        ref_engine = Engine(nranks, network=network, tracer=ref_tracer)
        ref_engine.run(workload.build_programs())
        ok = clocks == ref_engine.rank_times()
        if tracer is not None:
            ok = ok and bool(
                np.array_equal(tracer.bytes_matrix, ref_tracer.bytes_matrix)
                and np.array_equal(tracer.count_matrix, ref_tracer.count_matrix)
            )
        if not ok:
            print("VERIFY FAILED: sharded run diverged from single-process")
            return 1
        print("verified: traces byte-identical, clocks bit-identical")
    return 0


def cmd_fuzz(args) -> int:
    import json
    from pathlib import Path

    from repro.fuzz import (
        ACTOR_NAMES,
        FuzzCampaignConfig,
        execute_scenario,
        load_repro,
        run_campaign,
        save_repro,
    )

    if args.replay is not None:
        data = json.loads(Path(args.replay).read_text())
        if data.get("kind") == "interleaving":
            from repro.fuzz import replay_interleaving

            observed, expected = replay_interleaving(data)
            print(
                f"replay {args.replay}: interleaving seed "
                f"{data.get('seed')} ({data['spec']['workload']})"
            )
            print(f"classification: {observed or 'equivalent'}")
            if observed != expected:
                print(f"MISMATCH: repro file recorded {expected!r}")
                return 1
            return 0
        scenario, expected = load_repro(args.replay)
        result = execute_scenario(scenario)
        print(f"replay {args.replay}: {scenario.describe()}")
        print(f"classification: {result.classification}")
        if result.detail:
            print(f"detail: {result.detail}")
        if expected is not None and result.classification != expected:
            print(f"MISMATCH: repro file recorded {expected!r}")
            return 1
        return 0

    if args.schedules is not None:
        from repro.fuzz import InterleavingSpec, sweep
        from repro.fuzz.interleave import finding_to_dict

        spec = InterleavingSpec(workload=args.workload)
        report = sweep(
            spec,
            n_schedules=args.schedules,
            seed_start=args.seed_start,
        )
        print(report.summary())
        if args.out_dir is not None:
            out = Path(args.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / "BENCH_interleaving.json").write_text(
                json.dumps(report.to_record(), indent=2) + "\n"
            )
            for finding in report.findings:
                path = out / (
                    f"schedule_repro_{finding.seed}_{finding.kind}.json"
                )
                path.write_text(
                    json.dumps(finding_to_dict(spec, finding), indent=2)
                    + "\n"
                )
            print(f"artifacts written to {out}")
        # Report-only, like the campaign: divergences are findings.
        return 0

    config = FuzzCampaignConfig(
        budget=args.budget,
        seed=args.seed,
        actors=tuple(args.actors) if args.actors else ACTOR_NAMES,
        workers=args.workers,
        shrink_limit=args.shrink,
        max_seconds=args.max_seconds,
    )
    report = run_campaign(config)
    print(report.summary())
    if args.out_dir is not None:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "BENCH_fuzzer.json").write_text(
            json.dumps(report.to_record(), indent=2) + "\n"
        )
        for i, outcome in enumerate(report.shrunken):
            save_repro(
                out / f"repro_{i}_{outcome.classification}.json",
                outcome.scenario,
                outcome.classification,
            )
        print(f"artifacts written to {out}")
    # Report-only: disagreements are findings to study, not failures.
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of 'Hierarchical "
        "Clustering Strategies for Fault Tolerance in Large Scale HPC "
        "Systems' (CLUSTER 2012).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="Table I — platform parameters")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("table2", help="Table II — clustering comparison")
    _add_scenario_args(p)
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("fig3", help="Fig. 3 — cluster-size study")
    _add_scenario_args(p)
    p.add_argument(
        "--sizes", type=int, nargs="+",
        default=[2, 4, 8, 16, 32, 64, 128, 256],
    )
    p.set_defaults(func=cmd_fig3)

    p = sub.add_parser("fig4a", help="Fig. 4a — reliability (128x8)")
    p.add_argument("--sizes", type=int, nargs="+", default=[4, 8, 16])
    p.set_defaults(func=cmd_fig4a)

    p = sub.add_parser("fig4bc", help="Fig. 4b/4c — logging & restart (64x16)")
    _add_scenario_args(p)
    p.add_argument("--sizes", type=int, nargs="+", default=[4, 8, 16, 32])
    p.set_defaults(func=cmd_fig4bc)

    p = sub.add_parser("fig5", help="Fig. 5a/5b — traced heat maps")
    p.add_argument("--nodes", type=int, default=16)
    p.add_argument("--app-per-node", type=int, default=4)
    p.add_argument("--iterations", type=int, default=24)
    p.add_argument("--checkpoint-every", type=int, default=8)
    p.add_argument("--max-size", type=int, default=64)
    p.set_defaults(func=cmd_fig5)

    p = sub.add_parser("radar", help="Fig. 5c — normalized comparison")
    _add_scenario_args(p)
    p.set_defaults(func=cmd_radar)

    p = sub.add_parser(
        "montecarlo",
        help="Monte-Carlo cross-validation of Table II (batched sampling)",
    )
    _add_scenario_args(p)
    p.add_argument(
        "--samples", type=int, default=2000,
        help="failure events sampled per strategy (default 2000)",
    )
    p.add_argument("--seed", type=int, default=2012)
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser(
        "campaign", help="long-run failure campaign (4 dims composed)"
    )
    _add_scenario_args(p)
    p.add_argument("--days", type=float, default=30.0)
    p.add_argument("--checkpoint-minutes", type=float, default=30.0)
    p.add_argument("--node-mtbf-years", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=2012)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "serve",
        help="reliability-planning HTTP service (ReliabilityQuery JSON)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8642,
        help="listen port (0 picks a free one; default 8642)",
    )
    p.add_argument(
        "--workers", type=int, default=0,
        help="worker processes holding table-cache shards (0 = answer "
        "in-process; results are invariant to this knob)",
    )
    p.add_argument(
        "--cache-mb", type=int, default=256,
        help="table-cache byte budget per shard in MiB (default 256)",
    )
    p.add_argument(
        "--self-test", action="store_true",
        help="start a private server, run the equivalence + load smoke "
        "against it, shut down, and exit (the CI service check)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "sim",
        help="run a workload on the sharded multi-process trace engine",
    )
    p.add_argument(
        "--workload", choices=["fig5", "heat", "tsunami", "spectral"],
        default="fig5",
        help="workload to simulate (default fig5: the §V control traffic)",
    )
    p.add_argument(
        "--shards", type=int, default=1,
        help="subworlds to partition the rank set into (default 1)",
    )
    p.add_argument(
        "--workers", type=int, default=0,
        help="worker processes hosting the shards (0 = in-process; "
        "results are invariant to this knob)",
    )
    p.add_argument("--iterations", type=int, default=24)
    p.add_argument("--nodes", type=int, default=16, help="fig5: node count")
    p.add_argument(
        "--app-per-node", type=int, default=4,
        help="fig5: application ranks per node",
    )
    p.add_argument(
        "--checkpoint-every", type=int, default=8,
        help="fig5: iterations between checkpoints",
    )
    p.add_argument("--px", type=int, default=4, help="heat/tsunami: grid px")
    p.add_argument("--py", type=int, default=4, help="heat/tsunami: grid py")
    p.add_argument(
        "--nranks", type=int, default=8, help="spectral: world size"
    )
    p.add_argument(
        "--no-trace", action="store_true",
        help="skip trace recording entirely (timing-only run)",
    )
    p.add_argument(
        "--verify", action="store_true",
        help="also run the single-process engine and assert byte-identical "
        "traces and bit-identical clocks",
    )
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser(
        "fuzz",
        help="adversarial scenario fuzzing against the reliability model",
    )
    p.add_argument("--seed", type=int, default=42)
    p.add_argument(
        "--budget", type=int, default=200,
        help="scenarios to generate and execute (default 200)",
    )
    p.add_argument(
        "--actors", nargs="+", default=None,
        help="restrict generation to these adversary actors",
    )
    p.add_argument(
        "--workers", type=int, default=0,
        help="pool workers for execution (0 = in-process; the scenario "
        "stream is identical either way)",
    )
    p.add_argument(
        "--shrink", type=int, default=4,
        help="max disagreeing scenarios to shrink to minimal repros",
    )
    p.add_argument(
        "--max-seconds", type=float, default=None,
        help="time-box the campaign (checked at round boundaries)",
    )
    p.add_argument(
        "--out-dir", default=None,
        help="write BENCH_fuzzer.json and shrunken repro files here",
    )
    p.add_argument(
        "--replay", default=None, metavar="REPRO_FILE",
        help="re-execute a saved repro file (scenario or interleaving) "
        "and check its classification",
    )
    p.add_argument(
        "--schedules", type=int, default=None, metavar="N",
        help="instead of a campaign, sweep N seeded schedule "
        "interleavings of a fixed workload and report divergences",
    )
    p.add_argument(
        "--workload", choices=["fti", "race-demo"], default="fti",
        help="workload for --schedules (default fti: the fig5 control "
        "traffic)",
    )
    p.add_argument(
        "--seed-start", type=int, default=0,
        help="first schedule seed of the --schedules sweep (the sweep "
        "covers the contiguous range [seed-start, seed-start+N))",
    )
    p.set_defaults(func=cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # The layers validate domain values eagerly (a sample count of 0,
        # a cluster size that does not divide the machine); argparse only
        # sees types, so report those like any other usage error.
        parser.error(str(exc))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
