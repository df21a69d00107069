"""Open-loop HTTP load generator, run in a lean process of its own.

Request ``i`` is due at ``start + i / rate`` whatever the service does:
a scheduler enqueues it at its due time and up to ``connections``
keep-alive connections take requests in due order.  Latency is timed
from the due time, so a stall in the service shows up in the requests
queued behind it, not only in the one it hit.  The scheduler records how
late it enqueued each request (the generator's own lateness), which
says whether the load was actually offered on schedule.

A refused, reset or timed-out request counts as failed; its latency is
recorded as infinite so it misses any latency limit.

This module imports only the standard library: the process holds no
world and no service state.  Run it as::

    python3 perfbench/loadgen.py --port P --targets T.json --out R.json

It offers the targets of T.json (a JSON list) in order, ``RATE`` per
second over one keep-alive connection per CPU, and writes one row per
request to R.json.
"""

import argparse
import asyncio
import json
import math
import os
import sys
import time

__all__ = ["RATE", "TIMEOUT_S", "run_open_loop"]

#: Requests offered per second.  The generator itself falls behind well
#: before the service does on a 2-CPU host (p99 lateness 3 ms at 300/s,
#: 19 ms at 1000/s), so the load is one fixed rate.
RATE = 300.0
#: A request not answered within this many seconds has failed.
TIMEOUT_S = 5.0


async def _read_response(reader):
    """One Content-Length framed response: ``(status, keep_alive, body)``."""
    head = await reader.readuntil(b"\r\n\r\n")
    status_line, _, header_blob = head.partition(b"\r\n")
    status = int(status_line.split(None, 2)[1])
    keep = status_line.split(None, 1)[0].upper() == b"HTTP/1.1"
    length = None
    for line in header_blob.split(b"\r\n"):
        name, _, value = line.decode("latin-1").partition(":")
        name = name.strip().lower()
        if name == "content-length":
            length = int(value)
        elif name == "connection":
            keep = value.strip().lower() == "keep-alive"
    if length is None:
        raise ValueError("response without Content-Length")
    return status, keep, await reader.readexactly(length)


def _valid(target, status, body):
    """Whether a 200 response body answers ``target``."""
    if status != 200:
        return False
    try:
        parsed = json.loads(body)
    except ValueError:
        return False
    path = target.split("?", 1)[0]
    if path == "/health":
        return parsed.get("ok") is True
    if path.startswith("/query/"):
        return parsed.get("query") == path[len("/query/"):] and "result" in parsed
    return True


async def run_open_loop(
    host, port, targets, rate, connections=2, timeout=TIMEOUT_S, lead=0.05
):
    """Offer ``targets`` at ``rate`` per second; returns one row per
    request ``[due, latency_s, ok]`` (``due`` relative to the schedule
    start), the scheduler's lateness per request, the schedule start on
    the monotonic clock, and the connections opened."""
    loop = asyncio.get_running_loop()
    start = time.monotonic() + lead
    n = len(targets)
    queue = asyncio.Queue()
    rows = [None] * n
    lateness = [0.0] * n
    opened = [0]
    encoded = {
        target: f"GET {target} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode()
        for target in set(targets)
    }

    async def schedule():
        for i in range(n):
            due = start + i / rate
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness[i] = time.monotonic() - due
            queue.put_nowait(i)
        for _ in range(connections):
            queue.put_nowait(None)

    async def connection():
        reader = writer = None
        try:
            while True:
                i = await queue.get()
                if i is None:
                    return
                due = start + i / rate
                target = targets[i]
                ok = False
                try:
                    if writer is None:
                        reader, writer = await asyncio.wait_for(
                            asyncio.open_connection(host, port), timeout
                        )
                        opened[0] += 1
                    writer.write(encoded[target])
                    status, keep, body = await asyncio.wait_for(
                        _read_response(reader), timeout
                    )
                    done = time.monotonic()
                    ok = _valid(target, status, body)
                    if not keep:
                        writer.close()
                        reader = writer = None
                except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError):
                    done = math.inf
                    if writer is not None:
                        writer.close()
                    reader = writer = None
                rows[i] = [due - start, done - due if ok else math.inf, ok]
        finally:
            if writer is not None:
                writer.close()

    tasks = [loop.create_task(connection()) for _ in range(connections)]
    await schedule()
    await asyncio.gather(*tasks)
    return {
        "rows": rows,
        "lateness": lateness,
        "start": start,
        "connections_opened": opened[0],
    }


def _main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--targets", required=True, help="JSON list of request targets")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(args.targets, encoding="utf-8") as handle:
        targets = json.load(handle)
    result = asyncio.run(
        run_open_loop(args.host, args.port, targets, RATE, len(os.sched_getaffinity(0)))
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(_main())
