"""The stream stages, each run as a fresh interpreter of its own.

Usage (``run.py`` starts these; they can also be run by hand)::

    python3 perfbench/stage.py replay CACHE WORKLOAD SEED TRACE OUT
    python3 perfbench/stage.py serve CACHE WORKLOAD SEED TRACE OUT --span S

Both load the world from the cache file CACHE and build the feed from
WORKLOAD and SEED (:mod:`feed`), so the process holds what a ``serve``
process holds and nothing of the benchmark harness: its peak resident
memory is the program's.

* ``replay`` runs warm-up passes and then timed passes, each a fresh
  ``StreamEngine`` over the whole feed, and appends to OUT (a stream of
  pickles) each timed pass's final answers in :func:`oracle.engine_answers`
  form, then one result dict.
* ``serve`` runs a ``StreamService`` with ``serve``'s defaults, the feed
  paced so that ingest spans S seconds.  It prints ``{"port": P}`` once
  it listens, serves until a line (or end of file) arrives on its
  standard input, then finishes the ingest at full speed and writes one
  result dict (final answers included) to OUT.

With TRACE=1 the :mod:`tracer` wrappers are installed at start, what
they record before the measured part (world load, warm-up passes) is
dropped, and the result carries the spans and counters.
"""

import argparse
import asyncio
import gc
import json
import math
import os
import pickle
import resource
import sys
import time

import feed as feeds
import oracle
import speed

#: The world every run uses: the ``default`` preset's scale and the
#: bench point's seed.  ``--seed`` varies the feed jitter and the query
#: mix; a per-seed world would add the world's own size variation (a few
#: percent in records, more in build time, peak memory and tail latency)
#: to every run-to-run spread.
PRESET = "default"
SCALE = 0.002
WORLD_SEED = 2014
#: ``serve``'s default ingest batch.
BATCH = 256
REPLAY_WARMUP_PASSES = 2
REPLAY_PASSES = 8


def load(cache, workload, seed):
    """``(world, plan, order, skew, redelivered)`` for one workload and
    seed.  The feed is ``[replay_records(world)[i] for i in order]``, or
    the replay stream itself when ``order`` is None."""
    from repro.scenario.cache import load_world
    from repro.scenario.world import WorldParams
    from repro.stream import replay_plan, replay_records

    world = load_world(cache, WorldParams(seed=WORLD_SEED, scale=SCALE))
    plan = replay_plan(world)
    if workload == "jittered":
        order, redelivered = feeds.jittered_order(replay_records(world), seed)
        return world, plan, order, feeds.DELAY_BOUND_S, redelivered
    return world, plan, None, 0.0, 0


def rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -- replay -------------------------------------------------------------------


def replay_pass(world, plan, order, skew):
    """One full replay: fresh engine, enumerate the world's stream, feed
    it (in arrival ``order`` when given) in batches, close, ten queries.

    Returns ``(records, seconds, engine, answers)``.
    """
    from repro.stream import StreamEngine, replay_records
    from repro.stream.ingest import QUERY_NAMES

    t0 = time.perf_counter()
    engine = StreamEngine.for_world(world, plan=plan, skew=skew)
    records = replay_records(world)
    if order is not None:
        records = [records[i] for i in order]
    for lo in range(0, len(records), BATCH):
        engine.ingest_many(records[lo:lo + BATCH])
    engine.close()
    answers = {name: engine.query(name) for name in QUERY_NAMES}
    return len(records), time.perf_counter() - t0, engine, answers


def replay(args, tracer):
    world, plan, order, skew, _redelivered = load(args.cache, args.workload, args.seed)
    for _ in range(REPLAY_WARMUP_PASSES):
        replay_pass(world, plan, order, skew)
    if tracer is not None:
        tracer.take()
    rates, raw_rates, probes = [], [], []
    with open(args.out, "wb") as out:
        for _ in range(REPLAY_PASSES):
            # Each pass starts from a collected heap, so the full
            # collections inside it are the ones its own allocations
            # trigger: the same in every pass, instead of whichever the
            # previous pass left pending.
            gc.collect()
            probes.append(speed.probe())
            n, elapsed, engine, answers = replay_pass(world, plan, order, skew)
            pickle.dump(oracle.engine_answers(engine, answers), out)
            del engine, answers
            probes.append(speed.probe())
            raw_rates.append(n / elapsed)
            rates.append(n / (elapsed * speed.scale(probes[-2], probes[-1])))
        result = {
            "rates": rates,
            "raw_rates": raw_rates,
            "probe_s": probes,
            "rss_kb": rss_kb(),
        }
        if tracer is not None:
            result["trace"] = tracer.take()
        pickle.dump(result, out)


# -- serve --------------------------------------------------------------------


async def _serve(engine, records, pace, t0):
    from repro.stream.service import StreamService

    service = StreamService(engine, records, batch=BATCH, pace=pace, keepalive=True)
    await service.start()
    ready_s = time.perf_counter() - t0
    stamps = {"ingest_start": time.monotonic()}
    service.ingest_task.add_done_callback(
        lambda _task: stamps.setdefault("ingest_end", time.monotonic())
    )
    print(json.dumps({"port": service.port}), flush=True)

    loop = asyncio.get_running_loop()
    finish = loop.create_future()

    def on_control():
        os.read(sys.stdin.fileno(), 64)
        if not finish.done():
            finish.set_result(None)

    loop.add_reader(sys.stdin.fileno(), on_control)
    try:
        await finish
    finally:
        loop.remove_reader(sys.stdin.fileno())
    service.pace = 0.0
    await service.ingest_task
    summary = service.drain_summary()
    peak = rss_kb()
    await service.stop()
    return {"ready_s": ready_s, "stamps": stamps, "summary": summary, "rss_kb": peak}


def serve(args, tracer):
    from repro.stream import StreamEngine, replay_records

    t0 = time.perf_counter()
    world, plan, order, skew, _redelivered = load(args.cache, args.workload, args.seed)
    records = replay_records(world)
    if order is not None:
        records = [records[i] for i in order]
    engine = StreamEngine.for_world(world, plan=plan, skew=skew)
    if tracer is not None:
        tracer.take()
    pace = args.span / math.ceil(len(records) / BATCH)
    result = asyncio.run(_serve(engine, records, pace, t0))
    result["answers"] = oracle.engine_answers(engine)
    if tracer is not None:
        result["trace"] = tracer.take()
    with open(args.out, "wb") as out:
        pickle.dump(result, out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("stage", choices=("replay", "serve"))
    parser.add_argument("cache")
    parser.add_argument("workload", choices=("ordered", "jittered"))
    parser.add_argument("seed", type=int)
    parser.add_argument("trace", type=int, choices=(0, 1))
    parser.add_argument("out")
    parser.add_argument("--span", type=float, default=0.0, help="serve: seconds ingest should take")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    (replay if args.stage == "replay" else serve)(args, tracer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
