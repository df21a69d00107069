"""Self-tests of the benchmark's own machinery.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_bench.py -q

They cover the percentile helper (including the rule that a tail
percentile needs ten samples beyond it), every oracle rejecting a
deliberately corrupted answer, and the open-loop generator holding its
schedule while the server it loads stalls.
"""

import asyncio
import json
import os
import shutil
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import feed  # noqa: E402
import loadgen  # noqa: E402
import oracle  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402

# -- percentiles ----------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 2, 3]) == 2.5


def test_tail_percentile_needs_ten_samples_beyond():
    value, beyond = stats.tail_percentile(list(range(1000)), 99)
    assert (value, beyond) == (989, 10)
    with pytest.raises(ValueError):
        stats.tail_percentile(list(range(999)), 99)
    value, beyond = stats.tail_percentile(list(range(100)), 50, min_beyond=50)
    assert beyond == 50


# -- tracer ----------------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    spans = [
        (1, "ingest.ingest_many", 0.0, 10.0, None),
        (2, "windows.advance", 1.0, 4.0, 1),
        (3, "sketches.add", 2.0, 3.0, 2),
        (4, "windows.advance", 5.0, 6.0, 1),
    ]
    assert tracer.self_times(spans) == pytest.approx(
        {"ingest": 6.0, "windows": 3.0, "sketches": 1.0}
    )


# -- reproduction oracles ---------------------------------------------------------


def _write_artifacts(directory):
    os.makedirs(directory)
    for artifact_id in oracle.ARTIFACT_IDS:
        with open(os.path.join(directory, f"{artifact_id}.txt"), "w") as handle:
            handle.write(f"{artifact_id}: rendered\n")


def test_artifact_oracle_rejects_one_changed_byte(tmp_path):
    cold, warm = str(tmp_path / "cold"), str(tmp_path / "warm")
    _write_artifacts(cold)
    _write_artifacts(warm)
    assert oracle.artifact_problems(cold, warm) == []
    path = os.path.join(warm, "T2.txt")
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    data[0] ^= 1
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    assert oracle.artifact_problems(cold, warm) == ["T2 differs between runs"]


def test_artifact_oracle_rejects_a_missing_artifact(tmp_path):
    cold, warm = str(tmp_path / "cold"), str(tmp_path / "warm")
    _write_artifacts(cold)
    shutil.copytree(cold, warm)
    os.remove(os.path.join(warm, "F9.txt"))
    assert oracle.artifact_problems(cold, warm)
    assert oracle.missing_problems(cold) == []
    assert oracle.missing_problems(warm) == ["output is missing 1 artifacts: ['F9']"]


def test_golden_oracle_rejects_one_changed_checksum():
    with open(os.path.join(ROOT, "MANIFEST_golden.json"), encoding="utf-8") as handle:
        recorded = json.load(handle)
    assert oracle.golden_problems(recorded, recorded) == []
    current = json.loads(json.dumps(recorded))
    sums = current["worlds"][0]["checksums"]
    sums["F3"] = ("0" if sums["F3"][0] != "0" else "1") + sums["F3"][1:]
    problems = oracle.golden_problems(recorded, current)
    assert problems and "F3" in problems[0]


# -- stream oracles ---------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_world():
    from repro.scenario.world import PaperWorld, WorldParams
    from repro.stream import replay_plan

    world = PaperWorld.build(params=WorldParams(seed=7, scale=0.0005))
    plan = replay_plan(world)
    return world, plan, oracle.batch_answers(world, plan)


def _stream_answers(world, plan, order=None, skew=0.0):
    from repro.stream import StreamEngine, replay_records

    records = replay_records(world)
    if order is not None:
        records = [records[i] for i in order]
    engine = StreamEngine.for_world(world, plan=plan, skew=skew)
    for lo in range(0, len(records), 256):
        engine.ingest_many(records[lo:lo + 256])
    engine.close()
    return oracle.engine_answers(engine)


def test_stream_oracle_accepts_the_ordered_replay(tiny_world):
    world, plan, batch = tiny_world
    assert oracle.stream_problems(batch, _stream_answers(world, plan)) == []


def test_jittered_feed_is_seeded_and_answers_match_batch(tiny_world):
    from repro.stream import replay_records

    world, plan, batch = tiny_world
    records = replay_records(world)
    order, redelivered = feed.jittered_order(records, seed=2014)
    assert (order, redelivered) == feed.jittered_order(records, seed=2014)
    assert order != feed.jittered_order(records, seed=7)[0]
    assert sorted(set(order)) == list(range(len(records)))
    assert len(order) == len(records) + redelivered > len(records)
    assert order != sorted(order)
    answers = _stream_answers(world, plan, order, skew=feed.DELAY_BOUND_S)
    assert oracle.stream_problems(batch, answers, redelivered) == []
    assert oracle.stream_problems(batch, answers, redelivered + 1)


def test_stream_oracle_rejects_one_window_count_off_by_one(tiny_world):
    world, plan, batch = tiny_world
    answers = _stream_answers(world, plan)
    index = next(iter(answers["capture"]))
    answers["capture"][index] = dict(answers["capture"][index])
    answers["capture"][index]["victim_pairs"] += 1
    problems = oracle.stream_problems(batch, answers)
    assert problems == [f"capture window {index} victim_pairs: "
                        f"{answers['capture'][index]['victim_pairs']} != "
                        f"{batch['capture'][index]['victim_pairs']}"]

    answers = _stream_answers(world, plan)
    day = next(iter(answers["scanners"]))
    answers["scanners"][day] += 1
    assert oracle.stream_problems(batch, answers) == ["darknet daily scanner counts differ"]


def test_stream_oracle_rejects_isp_bytes_beyond_tolerance(tiny_world):
    world, plan, batch = tiny_world
    answers = _stream_answers(world, plan)
    day = max(answers["isp"], key=lambda d: answers["isp"][d]["bytes"])
    answers["isp"][day]["bytes"] *= 1 + 1e-12
    assert oracle.stream_problems(batch, answers) == []
    answers["isp"][day]["bytes"] *= 1 + 1e-6
    assert oracle.stream_problems(batch, answers)


# -- open-loop generator ----------------------------------------------------------


class _StallingServer:
    """A keep-alive HTTP stub on its own thread and event loop; request
    number ``stall_at`` blocks that loop for ``stall_s`` seconds."""

    def __init__(self, stall_at, stall_s):
        self.stall_at = stall_at
        self.stall_s = stall_s
        self.requests = 0
        self.port = None
        self._ready = threading.Event()
        self._loop = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    async def _handle(self, reader, writer):
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                if not head:
                    break
                self.requests += 1
                if self.requests == self.stall_at:
                    time.sleep(self.stall_s)
                body = b'{"ok":true}'
                writer.write(
                    b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
                )
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    def _run(self):
        self._loop = asyncio.new_event_loop()
        server = self._loop.run_until_complete(
            asyncio.start_server(self._handle, "127.0.0.1", 0)
        )
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        self._loop.run_forever()
        server.close()
        self._loop.run_until_complete(server.wait_closed())
        self._loop.close()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(10)
        return self

    def __exit__(self, *exc):
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(10)
        assert not self._thread.is_alive()


def test_open_loop_holds_its_schedule_while_the_server_stalls():
    rate, n, stall_at, stall_s = 200.0, 200, 50, 0.3
    with _StallingServer(stall_at, stall_s) as server:
        result = asyncio.run(
            loadgen.run_open_loop(
                "127.0.0.1", server.port, ["/health"] * n, rate, connections=2
            )
        )
    rows = result["rows"]
    assert all(ok for _due, _lat, ok in rows)
    # The scheduler kept offering requests on time through the stall ...
    assert max(result["lateness"]) < 0.05
    # ... so the requests due during it carry the wait in their latency,
    # measured from their due time, not from when a connection was free.
    stalled = [lat for due, lat, _ok in rows if 0.25 < due < 0.35]
    assert stalled and min(stalled) > 0.1
    assert max(lat for _due, lat, _ok in rows) >= stall_s * 0.8
    assert result["connections_opened"] == 2


def test_open_loop_counts_a_refused_request_as_failed():
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    result = asyncio.run(
        loadgen.run_open_loop("127.0.0.1", port, ["/health"] * 3, 100.0, connections=1)
    )
    assert [ok for _due, _lat, ok in result["rows"]] == [False] * 3
    assert all(lat == float("inf") for _due, lat, _ok in result["rows"])


def test_query_mix_is_seeded_with_about_a_fifth_adhoc():
    dashboard = ("/query/victims", "/health")
    mix = feed.query_mix(2014, 5000, dashboard)
    assert mix == feed.query_mix(2014, 5000, dashboard)
    adhoc = [t for t in mix if t not in dashboard]
    assert 0.17 < len(adhoc) / len(mix) < 0.23
    assert len({t.split("=")[1] for t in adhoc}) > 50
