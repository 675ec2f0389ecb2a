"""Asyncio HTTP front end of the reliability-planning service.

A deliberately minimal HTTP/1.1 layer on ``asyncio`` streams — request
line, headers, ``Content-Length`` body, one request per connection — so
the service carries no framework dependency. The wire format *is* the
query API: request bodies are :meth:`ReliabilityQuery.to_json` payloads,
responses are :meth:`QueryResult.to_dict` JSON.

Routes:

* ``GET /healthz`` — liveness;
* ``GET /stats`` — engine / dispatcher / cache counters;
* ``POST /query`` — one query, one JSON result;
* ``POST /query/stream`` — survival / waste-curve sweeps answered as a
  chunked (``Transfer-Encoding: chunked``) stream of JSON lines: one
  ``{"curve": [...]}`` partial per completed chunk of the sweep, then a
  final ``{"result": {...}}`` that is bit-identical to what ``/query``
  would have returned (curve points are seed-independent per point, so
  chunking cannot change them).
"""

from __future__ import annotations

import asyncio
import json
import threading
from dataclasses import replace

from repro.core.query import (
    ReliabilityQuery,
    STREAMABLE_METRICS,
    assemble_streamed,
)
from repro.service.cache import DEFAULT_CACHE_BYTES
from repro.service.dispatch import DEFAULT_MAX_BATCH, Dispatcher
from repro.service.engine import QueryEngine, QueryError

#: Sweep points scored per streamed chunk.
DEFAULT_STREAM_CHUNK = 4

_MAX_BODY = 16 << 20  # queries with explicit 10k-rank label vectors fit


def _response(status: int, reason: str, payload: dict) -> bytes:
    body = (json.dumps(payload) + "\n").encode()
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    )
    return head.encode() + body


def _chunk(payload: dict) -> bytes:
    body = (json.dumps(payload) + "\n").encode()
    return f"{len(body):x}\r\n".encode() + body + b"\r\n"


class ReliabilityService:
    """The long-running service: engine + dispatcher + HTTP server."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 0,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        max_batch: int = DEFAULT_MAX_BATCH,
        stream_chunk: int = DEFAULT_STREAM_CHUNK,
    ):
        if stream_chunk < 1:
            raise ValueError(f"stream_chunk must be >= 1, got {stream_chunk}")
        self.host = host
        self.port = port
        self.workers = workers
        self.cache_bytes = cache_bytes
        self.max_batch = max_batch
        self.stream_chunk = stream_chunk
        self.engine: QueryEngine | None = None
        self.dispatcher: Dispatcher | None = None
        self._server: asyncio.AbstractServer | None = None
        self.requests = 0
        self.streamed = 0

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        self.engine = QueryEngine(
            workers=self.workers, cache_bytes=self.cache_bytes
        )
        self.dispatcher = Dispatcher(self.engine, max_batch=self.max_batch)
        await self.dispatcher.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.dispatcher is not None:
            await self.dispatcher.stop()
            self.dispatcher = None
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    async def serve_forever(self) -> None:
        await self._server.serve_forever()

    def stats(self) -> dict:
        return {
            "requests": self.requests,
            "streamed": self.streamed,
            "dispatcher": self.dispatcher.stats() if self.dispatcher else {},
            **(self.engine.stats() if self.engine else {}),
        }

    # -- request handling -------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        try:
            await self._handle_inner(reader, writer)
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):  # pragma: no cover - client went away mid-request
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _handle_inner(self, reader, writer) -> None:
        request_line = await reader.readline()
        if not request_line.strip():
            return
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            writer.write(_response(400, "Bad Request", {"error": "bad request line"}))
            return
        method, path = parts[0], parts[1]
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            error = f"bad Content-Length header: {raw_length!r}"
            writer.write(_response(400, "Bad Request", {"error": error}))
            return
        length = int(raw_length)
        if length > _MAX_BODY:
            writer.write(
                _response(413, "Payload Too Large", {"error": "body too large"})
            )
            return
        body = await reader.readexactly(length) if length else b""

        self.requests += 1
        if method == "GET" and path == "/healthz":
            writer.write(_response(200, "OK", {"ok": True}))
        elif method == "GET" and path == "/stats":
            writer.write(_response(200, "OK", self.stats()))
        elif method == "POST" and path == "/query":
            await self._handle_query(writer, body)
        elif method == "POST" and path == "/query/stream":
            await self._handle_stream(writer, body)
        else:
            writer.write(
                _response(404, "Not Found", {"error": f"no route {method} {path}"})
            )
        await writer.drain()

    def _parse(self, body: bytes) -> ReliabilityQuery:
        return ReliabilityQuery.from_json(body)

    async def _handle_query(self, writer, body: bytes) -> None:
        try:
            query = self._parse(body)
        except ValueError as err:
            writer.write(_response(400, "Bad Request", {"error": str(err)}))
            return
        try:
            result = await self.dispatcher.submit(query)
        except (ValueError, QueryError) as err:
            writer.write(_response(400, "Bad Request", {"error": str(err)}))
            return
        except Exception as err:  # noqa: BLE001 - surface, don't crash
            writer.write(
                _response(500, "Internal Server Error", {"error": str(err)})
            )
            return
        writer.write(_response(200, "OK", result.to_dict()))

    async def _handle_stream(self, writer, body: bytes) -> None:
        try:
            query = self._parse(body)
            if query.metric not in STREAMABLE_METRICS:
                raise ValueError(
                    f"metric {query.metric!r} does not stream "
                    f"(streamable: {STREAMABLE_METRICS})"
                )
        except ValueError as err:
            writer.write(_response(400, "Bad Request", {"error": str(err)}))
            return
        self.streamed += 1
        sweep = query.sweep
        if not sweep:  # survival defaults to 1..max_simultaneous
            sweep = tuple(
                float(f)
                for f in range(1, query.taxonomy.max_simultaneous + 1)
            )
        chunks = [
            sweep[i : i + self.stream_chunk]
            for i in range(0, len(sweep), self.stream_chunk)
        ]
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/json\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        parts = []
        try:
            for piece in chunks:
                part = await self.dispatcher.submit(
                    replace(query, sweep=piece)
                )
                parts.append(part)
                writer.write(
                    _chunk({"curve": [[x, y] for x, y in part.curve]})
                )
                await writer.drain()
        except Exception as err:  # noqa: BLE001 - mid-stream failure
            writer.write(_chunk({"error": str(err)}))
            writer.write(b"0\r\n\r\n")
            return
        final = assemble_streamed(replace(query, sweep=sweep), parts)
        writer.write(_chunk({"result": final.to_dict()}))
        writer.write(b"0\r\n\r\n")


class ServiceThread:
    """A running service on a background thread (its own event loop).

    The synchronous world's handle on the async service: benchmarks,
    tests and the CLI self-test enter the context, talk to
    ``self.host:self.port`` with the blocking
    :class:`~repro.service.client.ServiceClient`, and leave.
    """

    def __init__(self, **service_kwargs):
        self._kwargs = service_kwargs
        self.service: ReliabilityService | None = None
        self.host: str | None = None
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._stop: asyncio.Event | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    def __enter__(self) -> "ServiceThread":
        self._thread = threading.Thread(
            target=self._run, name="reliability-service", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=60):  # pragma: no cover - hang
            raise RuntimeError("service failed to start within 60s")
        if self._startup_error is not None:
            raise RuntimeError(
                f"service failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def __exit__(self, *exc) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=60)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.service = ReliabilityService(**self._kwargs)
        try:
            await self.service.start()
        except BaseException as err:  # pragma: no cover - startup failure
            self._startup_error = err
            self._started.set()
            return
        self.host, self.port = self.service.host, self.service.port
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            await self.service.stop()
