"""Benchmark-owned tracing around the program's public calls.

:func:`install` wraps a fixed set of public functions and methods of the
``repro`` package, one per layer boundary, so that each call records a
span (id, name, start, end, parent) and bumps counters.  Spans and
counters stay in memory; the caller takes them once, at the end of a
stage, and writes them out.  Nothing inside ``src/`` changes: the
wrappers replace module and class attributes for the life of the
process (or until the returned ``restore`` is called).

A layer is the first dotted component of a span name; its self time is
the time its spans cover minus the time their child spans cover.  All
wrapped calls are synchronous, so spans nest strictly, also inside the
service's event loop (the loop only switches tasks at an ``await``).
"""

import collections
import functools
import os
import time

__all__ = ["Tracer", "install", "self_times"]


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.samples = {}
        self._stack = []
        self._next_id = 0

    def begin(self, name):
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(self._next_id)
        return [self._next_id, name, time.perf_counter(), None, parent]

    def end(self, span):
        span[3] = time.perf_counter()
        self._stack.pop()
        self.spans.append(tuple(span))
        return span[3] - span[2]

    def add(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def take(self):
        """Everything recorded since the last take, as plain data; resets."""
        out = {"spans": self.spans, "counts": self.counts, "samples": self.samples}
        self.spans, self.counts, self.samples = [], {}, {}
        return out


def self_times(spans):
    """{layer: seconds} of self time over ``spans``.

    ``spans`` are ``(id, name, start, end, parent)`` tuples; a span's self
    time is its duration minus its direct children's durations (children
    nest inside their parent and do not overlap one another).
    """
    child_time = {}
    for _id, _name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = {}
    for span_id, name, start, end, _parent in spans:
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (end - start) - child_time.get(span_id, 0.0)
    return out


def _wrap(tracer, owner, attr, name, after=None, restore=None):
    """Replace ``owner.attr`` by a spanned wrapper; ``after(result, args,
    kwargs, seconds)`` runs once the span has ended."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    is_classmethod = isinstance(raw, classmethod)
    fn = raw.__func__ if is_classmethod else raw

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = tracer.end(span)
        tracer.add(name + ".calls")
        if after is not None:
            after(result, args, kwargs, seconds)
        return result

    setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
    restore.append((owner, attr, raw))


def install(tracer):
    """Wrap every traced public call; returns a zero-argument restore."""
    from repro import cli, stream
    from repro.analysis import event_columns
    from repro.analysis.context import AnalysisContext
    from repro.scenario import cache
    from repro.scenario.world import PaperWorld
    from repro.stream import replay
    from repro.stream.ingest import StreamEngine
    from repro.stream.sketches import CountMinSketch, SpaceSavingTopK
    from repro.stream.windows import WindowSet
    from repro.util.pool import ShardRunner

    restore = []

    def built(world, _args, _kwargs, _seconds):
        for phase, seconds in world.build_timings.items():
            if phase != "total":
                tracer.add(f"scenario.phase.{phase}_s", seconds)
        for phase, stat in world.shard_stats.items():
            tracer.add(f"pool.{phase}.engaged", int(bool(stat["engaged"])))
            tracer.add(f"pool.{phase}.workers", stat["workers"] if stat["engaged"] else 0)
            tracer.add("pool.retries", stat["retries"])
            tracer.add("pool.serial_fallbacks", stat["serial_fallbacks"])

    _wrap(tracer, PaperWorld, "build", "scenario.build", after=built, restore=restore)

    def saved(_result, args, kwargs, _seconds):
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        tracer.add("cache.bytes", os.path.getsize(path))

    _wrap(tracer, cache, "save_world", "cache.save", after=saved, restore=restore)
    _wrap(tracer, cache, "load_world", "cache.load", restore=restore)

    def parsed(_result, args, _kwargs, _seconds):
        context = args[0]
        tracer.add("analysis.parse_calls", context.parse_calls - context.__dict__.get("_bench_seen", 0))
        context._bench_seen = context.parse_calls

    _wrap(tracer, AnalysisContext, "parsed_samples", "analysis.parsed_samples", after=parsed, restore=restore)
    _wrap(tracer, AnalysisContext, "warm", "analysis.warm", restore=restore)

    def decoded(_result, args, _kwargs, _seconds):
        tracer.add("analysis.decode_captures", len(args[1]))

    _wrap(tracer, event_columns, "decode_capture_batch", "analysis.decode", after=decoded, restore=restore)

    original_render_many = cli.render_many

    def render_many(world, artifact_ids, jobs=1, context=None, stats=None, runner=None):
        runner = runner if runner is not None else ShardRunner(jobs=jobs)
        outputs = original_render_many(
            world, artifact_ids, jobs=jobs, context=context, stats=stats, runner=runner
        )
        stat = runner.stats["render"]
        for artifact_id, seconds in zip(artifact_ids, stat["task_seconds"]):
            tracer.add(f"render.{artifact_id.upper()}_s", seconds)
        tracer.add("pool.render.engaged", int(bool(stat["engaged"])))
        tracer.add("pool.render.workers", stat["workers"] if stat["engaged"] else 0)
        tracer.add("pool.retries", stat["retries"])
        tracer.add("pool.serial_fallbacks", stat["serial_fallbacks"])
        return outputs

    cli.render_many = render_many
    restore.append((cli, "render_many", original_render_many))
    _wrap(tracer, cli, "render_many", "render.total", restore=restore)
    _wrap(tracer, cli, "render_artifact", "render.artifact", restore=restore)

    def enumerated(records, _args, _kwargs, _seconds):
        for kind, n in collections.Counter(record.kind for record in records).items():
            tracer.add(f"replay.records.{kind}", n)

    _wrap(tracer, replay, "replay_records", "replay.enumerate", after=enumerated, restore=restore)
    # ``repro.stream`` re-exports it; callers importing it from there
    # must reach the wrapper too.
    restore.append((stream, "replay_records", stream.replay_records))
    stream.replay_records = replay.replay_records

    def held(_result, _args, _kwargs, seconds):
        tracer.sample("ingest.hold_s", seconds)

    _wrap(tracer, StreamEngine, "ingest_many", "ingest.ingest_many", after=held, restore=restore)
    _wrap(tracer, StreamEngine, "close", "ingest.close", restore=restore)

    def queried(_result, _args, _kwargs, seconds):
        tracer.sample("ingest.query_s", seconds)

    _wrap(tracer, StreamEngine, "query", "ingest.query", after=queried, restore=restore)
    _wrap(tracer, WindowSet, "advance", "windows.advance", restore=restore)
    _wrap(tracer, CountMinSketch, "add_many", "sketches.add", restore=restore)
    _wrap(tracer, SpaceSavingTopK, "add_many", "sketches.add", restore=restore)
    _wrap(tracer, CountMinSketch, "estimate_many", "sketches.read", restore=restore)
    _wrap(tracer, SpaceSavingTopK, "top", "sketches.read", restore=restore)

    def undo():
        for owner, attr, raw in reversed(restore):
            setattr(owner, attr, raw)

    return undo
