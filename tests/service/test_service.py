"""Service-layer tests: cache budget, batching, streaming, invariance.

Small generic shapes keep table builds cheap; every equivalence assert
is exact (``==``) because the service's contract is bit-equality with
in-process :func:`repro.core.query.run_query`.
"""

import asyncio
import threading

import pytest

from repro.core.query import (
    ClusteringSpec,
    MachineSpec,
    ReliabilityQuery,
    run_query,
)
from repro.service import (
    Dispatcher,
    QueryEngine,
    ServiceClient,
    ServiceError,
    ServiceThread,
    TableCache,
)

MACHINE = MachineSpec(nnodes=8, procs_per_node=2)


def query(*, cluster_size=4, strategy="naive", seed=0, metric="montecarlo", **kw):
    return ReliabilityQuery(
        metric=metric,
        machine=MACHINE,
        clustering=ClusteringSpec(strategy=strategy, cluster_size=cluster_size),
        n_samples=kw.pop("n_samples", 100),
        seed=seed,
        **kw,
    )


class TestTableCache:
    def test_hit_and_miss_accounting(self):
        cache = TableCache()
        cache.get(query(seed=0))
        cache.get(query(seed=1))  # same tables, different seed
        cache.get(query(cluster_size=2))
        stats = cache.stats()
        assert stats == {
            "entries": 2,
            "bytes": stats["bytes"],
            "max_bytes": cache.max_bytes,
            "hits": 1,
            "misses": 2,
            "evictions": 0,
        }
        assert stats["bytes"] > 0

    def test_returns_same_tables_object_on_hit(self):
        cache = TableCache()
        assert cache.get(query()) is cache.get(query(seed=5))

    def test_evicts_lru_under_byte_budget(self):
        cache = TableCache(max_bytes=1)  # pathological: nothing fits
        cache.get(query(cluster_size=2))
        cache.get(query(cluster_size=4))
        stats = cache.stats()
        # The most recent entry always survives; the older one is evicted.
        assert len(cache) == 1
        assert stats["evictions"] == 1
        assert query(cluster_size=4) in cache
        assert query(cluster_size=2) not in cache

    def test_generous_budget_keeps_everything(self):
        cache = TableCache(max_bytes=1 << 30)
        for size in (2, 4, 8):
            cache.get(query(cluster_size=size))
        assert len(cache) == 3
        assert cache.stats()["evictions"] == 0

    def test_eviction_preserves_results(self):
        """Eviction is a cache concern only — answers stay identical."""
        tight = TableCache(max_bytes=1)
        roomy = TableCache(max_bytes=1 << 30)
        queries = [query(cluster_size=s, seed=s) for s in (2, 4, 2, 8, 4)]
        from repro.core.query import run_query_batch

        got_tight, _ = run_query_batch(queries, resolver=tight.get)
        got_roomy, _ = run_query_batch(queries, resolver=roomy.get)
        assert got_tight == got_roomy == [run_query(q) for q in queries]


class TestQueryEngine:
    def test_in_process_matches_run_query(self):
        with QueryEngine() as engine:
            queries = [query(seed=s) for s in range(3)]
            assert engine.execute(queries) == [run_query(q) for q in queries]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_worker_pool_invariance(self, workers):
        """workers=0/1/4 must answer bit-identically."""
        queries = [
            query(seed=1),
            query(cluster_size=2, seed=2),
            query(strategy="size-guided", seed=3),
            query(metric="expected_waste", n_samples=100, n_campaigns=1),
            query(metric="survival"),
        ]
        expected = [run_query(q) for q in queries]
        with QueryEngine(workers=workers) as engine:
            assert engine.execute(queries) == expected
            assert engine.stats()["workers"] == workers

    def test_coalescing_counted(self):
        with QueryEngine() as engine:
            engine.execute([query(seed=s) for s in range(4)])
            stats = engine.stats()
            assert stats["queries"] == 4
            assert stats["scoring_passes"] == 1
            assert stats["coalesced"] == 4

    def test_worker_errors_surface_per_query(self):
        bad = ReliabilityQuery(
            metric="montecarlo",
            machine=MACHINE,
            clustering=ClusteringSpec(strategy="labels", l1=(0, 1)),
            n_samples=10,
        )
        with QueryEngine(workers=1) as engine:
            results = engine.execute(
                [bad, query()], return_exceptions=True
            )
            assert isinstance(results[0], Exception)
            assert results[1] == run_query(query())
            with pytest.raises(Exception, match="16"):
                engine.execute([bad])

    def test_closed_engine_rejects_work(self):
        engine = QueryEngine()
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.execute([query()])


class TestDispatcher:
    def test_concurrent_submits_share_a_batch(self):
        """N queries submitted in one loop tick ride one engine batch and
        one coalesced scoring pass."""

        async def scenario():
            engine = QueryEngine()
            dispatcher = Dispatcher(engine)
            await dispatcher.start()
            try:
                results = await asyncio.gather(
                    *(dispatcher.submit(query(seed=s)) for s in range(6))
                )
            finally:
                await dispatcher.stop()
                engine.close()
            return results, dispatcher.stats(), engine.stats()

        results, dstats, estats = asyncio.run(scenario())
        assert results == [run_query(query(seed=s)) for s in range(6)]
        assert dstats["batches"] == 1
        assert dstats["largest_batch"] == 6
        assert estats["scoring_passes"] == 1
        assert estats["coalesced"] == 6

    def test_submit_propagates_query_errors(self):
        async def scenario():
            engine = QueryEngine()
            dispatcher = Dispatcher(engine)
            await dispatcher.start()
            try:
                bad = ReliabilityQuery(
                    metric="montecarlo",
                    machine=MACHINE,
                    clustering=ClusteringSpec(strategy="labels", l1=(0,)),
                    n_samples=10,
                )
                with pytest.raises(ValueError):
                    await dispatcher.submit(bad)
                return await dispatcher.submit(query())
            finally:
                await dispatcher.stop()
                engine.close()

        assert asyncio.run(scenario()) == run_query(query())


@pytest.fixture(scope="module")
def server():
    with ServiceThread() as running:
        yield running


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.host, server.port)


class TestHttpService:
    def test_healthz(self, client):
        assert client.healthz() == {"ok": True}

    def test_query_roundtrip_exact(self, client):
        q = query(seed=7)
        assert client.query(q) == run_query(q)

    def test_campaign_metrics_roundtrip(self, client):
        q = query(metric="expected_waste", n_campaigns=1, seed=4)
        assert client.query(q) == run_query(q)

    def test_unknown_field_is_400(self, client):
        import http.client
        import json

        conn = http.client.HTTPConnection(client.host, client.port)
        try:
            conn.request(
                "POST", "/query", body=json.dumps({"v": 1, "metrik": "x"})
            )
            resp = conn.getresponse()
            payload = json.loads(resp.read())
            assert resp.status == 400
            assert "metrik" in payload["error"]
        finally:
            conn.close()

    @pytest.mark.parametrize("value", ["abc", "-5"])
    def test_bad_content_length_is_400(self, client, value):
        import json
        import socket

        with socket.create_connection((client.host, client.port), timeout=10) as sock:
            sock.sendall(
                f"POST /query HTTP/1.1\r\nContent-Length: {value}\r\n\r\n".encode()
            )
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert "Content-Length" in json.loads(body)["error"]
        assert client.healthz() == {"ok": True}

    def test_bad_query_raises_service_error(self, client):
        q = ReliabilityQuery(
            metric="montecarlo",
            machine=MACHINE,
            clustering=ClusteringSpec(strategy="labels", l1=(0, 1)),
            n_samples=10,
        )
        with pytest.raises(ServiceError) as err:
            client.query(q)
        assert err.value.status == 400

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client._get("/nope")
        assert err.value.status == 404

    def test_stats_exposed(self, client):
        client.query(query())
        stats = client.stats()
        assert stats["requests"] > 0
        assert "cache" in stats and "dispatcher" in stats

    def test_stream_non_streamable_metric_is_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.query_streamed(query(metric="montecarlo"))
        assert err.value.status == 400

    def test_streamed_sweep_matches_unstreamed(self, client):
        q = query(
            metric="waste_curve",
            sweep=tuple(600.0 * (i + 1) for i in range(9)),
            n_campaigns=1,
            seed=3,
        )
        partials, final = client.query_streamed(q)
        direct = run_query(q)
        assert final == direct
        assert len(partials) == 3  # 9 points / DEFAULT_STREAM_CHUNK(4) -> 4+4+1
        flattened = [tuple(p) for chunk in partials for p in chunk]
        assert flattened == list(direct.curve)

    def test_streamed_survival_defaults_sweep(self, client):
        q = query(metric="survival")
        partials, final = client.query_streamed(q)
        assert final == run_query(q)
        assert sum(len(c) for c in partials) == len(final.curve)

    def test_concurrent_clients_agree_with_direct(self, server):
        queries = [query(seed=s) for s in range(8)]
        expected = [run_query(q) for q in queries]
        results = [None] * len(queries)

        def worker(i):
            results[i] = ServiceClient(server.host, server.port).query(
                queries[i]
            )

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(len(queries))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == expected


class TestServiceThreadLifecycle:
    def test_start_stop_and_worker_service(self):
        q = query(seed=2)
        with ServiceThread(workers=1) as running:
            client = ServiceClient(running.host, running.port)
            assert client.query(q) == run_query(q)
            assert client.stats()["workers"] == 1
        # Context exit stopped the server: the port no longer answers.
        with pytest.raises(OSError):
            ServiceClient(running.host, running.port, timeout=2).healthz()
