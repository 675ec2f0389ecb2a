"""Equivalence harness behind ``python -m repro serve --self-test``.

:func:`verify_equivalence` asserts, for every distinct query in the mix,
that the service's answer is bit-equal to a direct in-process
:func:`repro.core.query.run_query` (which
``tests/core/test_query.py::TestExactEquivalence`` in turn pins to the
direct ``montecarlo_scores`` / ``expected_waste`` functions);
:func:`run_self_test` then replays the mix from concurrent clients to
confirm nothing errors once batching and caching engage. Throughput and
latency of the service are measured by ``benchmarks/ledger/`` (the
``serve-hot`` / ``serve-miss`` workloads), not here.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from repro.core.query import (
    ClusteringSpec,
    MachineSpec,
    ReliabilityQuery,
    run_query,
)
from repro.service.client import ServiceClient
from repro.service.http import ServiceThread


#: The self-test's machine: 1024 ranks keep every table build cheap.
_MACHINE = MachineSpec(preset="tsubame2", nnodes=128, procs_per_node=8)


def default_query_mix() -> list[ReliabilityQuery]:
    """The self-test's standing query mix: Monte-Carlo sweeps over the
    paper's strategies (coalescible by table), campaign questions, and a
    deterministic survival curve — the traffic a planning dashboard
    would generate."""
    strategies = [
        ClusteringSpec(strategy="naive", cluster_size=32),
        ClusteringSpec(strategy="size-guided", cluster_size=8),
        ClusteringSpec(strategy="distributed", cluster_size=16),
        ClusteringSpec(strategy="consecutive", cluster_size=64),
    ]
    mix: list[ReliabilityQuery] = []
    for clustering in strategies:
        for seed in range(2):
            mix.append(
                ReliabilityQuery(
                    metric="montecarlo",
                    machine=_MACHINE,
                    clustering=clustering,
                    n_samples=500,
                    seed=seed,
                )
            )
    for i, clustering in enumerate(strategies):
        mix.append(
            ReliabilityQuery(
                metric="expected_waste",
                machine=_MACHINE,
                clustering=clustering,
                n_campaigns=3,
                seed=100 + i,
            )
        )
        mix.append(
            ReliabilityQuery(
                metric="campaign",
                machine=_MACHINE,
                clustering=clustering,
                seed=200 + i,
            )
        )
    mix.append(
        ReliabilityQuery(
            metric="survival", machine=_MACHINE, clustering=strategies[0]
        )
    )
    return mix


def sweep_query() -> ReliabilityQuery:
    """A checkpoint-interval sweep sized for the streaming endpoint:
    six points arrive as two chunks."""
    return ReliabilityQuery(
        metric="waste_curve",
        machine=_MACHINE,
        clustering=ClusteringSpec(strategy="naive", cluster_size=32),
        sweep=tuple(900.0 * (i + 1) for i in range(6)),
        n_campaigns=2,
        seed=7,
    )


def verify_equivalence(
    client: ServiceClient, queries, *, stream: ReliabilityQuery | None = None
) -> int:
    """Assert the service answers ``queries`` bit-equal to direct calls.

    One check per query: service == in-process ``run_query``. Raises
    ``AssertionError`` on the first mismatch; returns the number of
    checks performed.
    """
    checks = 0
    for query in queries:
        served = client.query(query)
        direct = run_query(query)
        assert served == direct, (
            f"service diverged from in-process run_query for {query.metric} "
            f"({query.clustering.key()}, seed {query.seed})"
        )
        checks += 1
    if stream is not None:
        partials, final = client.query_streamed(stream)
        direct = run_query(stream)
        assert final == direct, "streamed final result != in-process run_query"
        flattened = [tuple(point) for chunk in partials for point in chunk]
        assert flattened == list(direct.curve), (
            "streamed partial chunks do not concatenate to the full curve"
        )
        assert len(partials) > 1, (
            f"sweep of {len(stream.sweep)} points arrived in "
            f"{len(partials)} chunk(s); expected a genuine stream"
        )
        checks += 1
    return checks


def run_self_test(*, workers: int = 0, verbose: bool = True) -> int:
    """Start a server, drive it, assert equivalence, shut down cleanly.

    The CI service smoke (`python -m repro serve --self-test`): a handful
    of queries across every metric, one streamed sweep, bit-equality
    (service == run_query), and a short concurrent burst (4 clients, the
    mix twice) that must complete without a failed query while batching
    and caching engage. Returns 0 on success.
    """
    mix = default_query_mix()
    stream = sweep_query()
    with ServiceThread(workers=workers) as running:
        client = ServiceClient(running.host, running.port)
        assert client.healthz().get("ok") is True
        checks = verify_equivalence(client, mix, stream=stream)

        def burst(batch) -> int:
            own = ServiceClient(running.host, running.port)
            errors = 0
            for query in batch:
                try:
                    own.query(query)
                except Exception:  # noqa: BLE001 - counted, not raised
                    errors += 1
            return errors

        work, clients = mix + mix, 4
        with ThreadPoolExecutor(max_workers=clients) as pool:
            slices = [work[i::clients] for i in range(clients)]
            errors = sum(pool.map(burst, slices))
        if errors:
            raise AssertionError(f"{errors} queries failed under load")
        stats = client.stats()
        if verbose:
            print(
                f"self-test ok: {checks} equivalence checks "
                f"(workers={workers})"
            )
            print(
                f"dispatcher: {stats['dispatcher']['batches']} batches, "
                f"largest {stats['dispatcher']['largest_batch']}"
            )
    return 0
