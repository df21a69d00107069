"""Load generator: N concurrent simulated clients against the service.

``repro bench-serve`` runs the whole exercise in one process: the service
(ingesting a world's replay in the background) plus ``clients`` coroutine
clients, each issuing ``requests`` HTTP queries drawn round-robin from a
representative mix.  Latency is measured per request from send to parsed
JSON body, so the numbers include the loop-scheduling cost a real client
would pay while ingestion competes for the loop.

Clients hold one **keep-alive** connection each (Content-Length framed
HTTP/1.1), reconnecting only when the server closes it; ``--no-keepalive``
falls back to a fresh connection per request so the handshake tax stays
measurable.  The result reports connections opened next to requests
served — with keep-alive the ratio should be ~one per client.

The result dict is the BENCH_serve.json payload: queries/sec, ingest
records/sec, p50/p95/max latency, error counts, plus whatever ingest
accounting the engine reports at the end — the CLI layer adds provenance
and peak RSS, keeping this module importable without the CLI.
"""

from __future__ import annotations

import asyncio
import json
import time

from repro.stream.service import StreamService
from repro.util.stats import percentile

__all__ = ["DEFAULT_QUERY_MIX", "run_loadgen"]

#: Round-robin request mix: windowed reads, sketch reads, accounting.
DEFAULT_QUERY_MIX = (
    "/query/victims",
    "/query/top_victims?n=10",
    "/query/scanners",
    "/query/top_ases?n=5",
    "/query/traffic",
    "/query/ingest",
    "/health",
)


async def _read_response(reader):
    """One framed HTTP response: (status, keep_alive, parsed body).

    The whole head arrives in one server write, so one ``readuntil``
    takes it in a single loop wake-up instead of one per header line.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise ConnectionResetError("server closed connection") from exc
        head = exc.partial
    status_line, _, header_blob = head.partition(b"\r\n")
    status = int(status_line.split(None, 2)[1])
    length = None
    keep = status_line.split(None, 1)[0].upper() == b"HTTP/1.1"
    for line in header_blob.split(b"\r\n"):
        header = line.decode("latin-1", "replace").strip().lower()
        if header.startswith("content-length:"):
            length = int(header.split(":", 1)[1])
        elif header.startswith("connection:"):
            keep = header.split(":", 1)[1].strip() == "keep-alive"
    body = await reader.readexactly(length) if length is not None else await reader.read()
    return status, keep, json.loads(body)


async def _fetch(host, port, target):
    """One-shot HTTP/1.0 GET; returns (status, parsed body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(f"GET {target} HTTP/1.0\r\nHost: {host}\r\n\r\n".encode())
        await writer.drain()
        status, _keep, body = await _read_response(reader)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    return status, body


class _Client:
    """One simulated client: a persistent connection when keep-alive is
    on, a fresh connection per request otherwise."""

    def __init__(self, host, port, keepalive):
        self.host = host
        self.port = port
        self.keepalive = keepalive
        self.connections_opened = 0
        self._reader = None
        self._writer = None

    async def _connect(self):
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
        self.connections_opened += 1

    async def close(self):
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._reader = self._writer = None

    async def fetch(self, target):
        if not self.keepalive:
            self.connections_opened += 1
            return await _fetch(self.host, self.port, target)
        if self._writer is None:
            await self._connect()
        request = (
            f"GET {target} HTTP/1.1\r\nHost: {self.host}\r\n"
            "Connection: keep-alive\r\n\r\n"
        ).encode()
        try:
            self._writer.write(request)
            await self._writer.drain()
            status, keep, body = await _read_response(self._reader)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            # The server closed the idle connection (e.g. drain); one
            # reconnect attempt, then let the caller count the error.
            await self.close()
            await self._connect()
            self._writer.write(request)
            await self._writer.drain()
            status, keep, body = await _read_response(self._reader)
        if not keep:
            await self.close()
        return status, body


async def _run_client(client, targets, latencies, errors):
    try:
        for target in targets:
            started = time.monotonic()
            try:
                status, _body = await client.fetch(target)
            except (OSError, ValueError, json.JSONDecodeError, asyncio.IncompleteReadError):
                errors.append(target)
                continue
            latencies.append(time.monotonic() - started)
            if status != 200:
                errors.append(target)
    finally:
        await client.close()


async def _run(world, clients, requests, mix, batch, pace, skew, keepalive):
    from repro.stream.ingest import StreamEngine
    from repro.stream.replay import replay_plan, replay_records

    plan = replay_plan(world)
    engine = StreamEngine.for_world(world, plan=plan, skew=skew)
    service = StreamService(
        engine, replay_records(world), batch=batch, pace=pace, keepalive=keepalive
    )
    await service.start()
    latencies, errors = [], []
    fleet = [_Client(service.host, service.port, keepalive) for _ in range(clients)]
    started = time.monotonic()
    try:
        tasks = []
        for c, client in enumerate(fleet):
            targets = [mix[(c + i) % len(mix)] for i in range(requests)]
            tasks.append(
                asyncio.create_task(_run_client(client, targets, latencies, errors))
            )
        await asyncio.gather(*tasks)
        query_seconds = time.monotonic() - started
        # Let ingestion finish so records/sec covers the whole stream.
        while not service.ingest_done:
            await asyncio.sleep(0.01)
    finally:
        service.request_shutdown()
        await service.stop()

    total_requests = clients * requests
    ok = len(latencies)
    lat_ms = sorted(x * 1000.0 for x in latencies)
    return {
        "clients": clients,
        "requests_per_client": requests,
        "requests_total": total_requests,
        "requests_ok": ok,
        "requests_failed": len(errors),
        "query_mix": list(mix),
        "keepalive": keepalive,
        "connections": {
            "opened_by_clients": sum(c.connections_opened for c in fleet),
            "accepted_by_service": service.connections_opened,
            "requests_served": service.requests_served,
        },
        "response_cache": {
            "hits": service.cache_hits,
            "misses": service.cache_misses,
        },
        "queries_per_second": round(ok / query_seconds, 2) if query_seconds else 0.0,
        "latency_ms": {
            "p50": round(percentile(lat_ms, 50), 3) if lat_ms else None,
            "p95": round(percentile(lat_ms, 95), 3) if lat_ms else None,
            "max": round(lat_ms[-1], 3) if lat_ms else None,
        },
        "ingest": {
            "records": engine.records_seen,
            "expected": plan["expected_total"],
            "seconds": round(service.ingest_seconds, 4),
            "records_per_second": round(
                engine.records_seen / service.ingest_seconds, 2
            )
            if service.ingest_seconds
            else 0.0,
            "done": service.ingest_done,
            "balanced": engine.balanced,
            "batch": batch,
            "pace": pace,
        },
    }


def run_loadgen(
    world,
    clients=8,
    requests=25,
    mix=DEFAULT_QUERY_MIX,
    batch=256,
    pace=0.0,
    skew=0.0,
    keepalive=True,
):
    """Run the in-process service + client fleet; return the BENCH payload."""
    if clients < 1 or requests < 1:
        raise ValueError("clients and requests must be >= 1")
    return asyncio.run(
        _run(world, clients, requests, tuple(mix), batch, pace, skew, keepalive)
    )
