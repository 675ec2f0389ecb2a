"""Reliability-planning service: campaign-as-a-service.

The Monte-Carlo/campaign evaluation layer wrapped in a long-running
asyncio HTTP service (stdlib only, no framework): clients POST
:class:`~repro.core.query.ReliabilityQuery` JSON and receive
expected-waste / survival-curve / Monte-Carlo results at interactive
latency. The moving parts:

* :class:`~repro.service.cache.TableCache` — byte-budget LRU over
  resolved lookup-table bundles, keyed by the query's canonical
  ``table_key`` (clustering × placement × encoding × taxonomy);
* :class:`~repro.service.engine.QueryEngine` — executes query batches
  against the cache, in-process (``workers=0``) or sharded across a
  worker process pool, each worker owning one cache shard (queries are
  routed by a cross-process-stable hash of the table key, so a table is
  built at most once, in exactly one worker);
* :class:`~repro.service.dispatch.Dispatcher` — micro-batches concurrent
  requests: everything that arrives while a batch is scoring joins the
  next batch, and same-table Monte-Carlo queries coalesce into one
  vectorized pass (bit-identical to running alone);
* :class:`~repro.service.http.ReliabilityService` — the asyncio HTTP
  front end, with chunked streaming for large sweep queries;
* :mod:`~repro.service.loadgen` — the self-test harness, which asserts
  service results bit-equal to direct in-process calls.

Run it with ``python -m repro serve`` (``--self-test`` starts a server,
drives it, checks equivalence and shuts down — the CI smoke).
"""

from repro.service.cache import TableCache
from repro.service.dispatch import Dispatcher
from repro.service.engine import QueryEngine
from repro.service.http import ReliabilityService, ServiceThread
from repro.service.client import ServiceClient, ServiceError
from repro.service.loadgen import run_self_test

__all__ = [
    "Dispatcher",
    "QueryEngine",
    "ReliabilityService",
    "ServiceClient",
    "ServiceError",
    "ServiceThread",
    "TableCache",
    "run_self_test",
]
