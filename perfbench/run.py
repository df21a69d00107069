"""End-to-end benchmark: paper reproduction, bulk stream replay, live serving.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload ordered --seed 2014 --seconds 8 --trace 0

One run is one user session over the ``default`` preset world (seed
2014, scale 0.002), in stages, each program invocation a fresh process:

0. **set-up** — a fresh interpreter importing ``repro.cli``; four times
   before each reproduce pair, so the samples spread over the session.
1. **reproduce** — the documented ``--cache`` flow: a cold ``python -m
   repro render --all --cache NEW`` (build, save the cache, decode,
   render), then a warm rerun of the same command (load the cache,
   decode, render).  Three such pairs run, spread over the session:
   before, between and after the stages below.
2. **replay** — a stage process (:mod:`stage`) loads the world from the
   first cache; each pass runs a fresh ``StreamEngine`` over the whole
   feed in ``serve``'s batch size (256), closes it and answers all ten
   queries.  Two warm-up passes are dropped; the median of the eight
   timed passes is reported.
3. **live** — a server process (:mod:`stage`) loads the world and runs
   a ``StreamService`` with ``serve``'s defaults while the feed is paced
   to outlast the load; a separate lean generator process
   (:mod:`loadgen`) offers an open loop of requests at a fixed rate for
   ``--seconds`` after a warm-up.

The workload picks the feed: ``ordered`` replays the time-sorted stream
(the bulk-run ingest path), ``jittered`` delays a seeded fifth of the
records by up to an hour of event time and redelivers about 1% (the
per-record ingest path, with the engine's skew set to the delay bound).

Every answer is checked (:mod:`oracle`) outside the timed regions.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.
"""

import argparse
import json
import os
import pickle
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import feed as feeds
import oracle
import stage
import stats
import tracer as tracing
from loadgen import RATE, TIMEOUT_S

#: Cold and warm render pairs per run: one before the replay stage,
#: one between the replay and live stages, one after the live stage.
RENDER_PAIRS = 3
#: Interpreter starts timed before each render pair.
IMPORT_PROBES = 4
LIVE_WARMUP_S = 1.0
#: Paced ingest outlasts the generator's schedule by this much.
INGEST_MARGIN_S = 1.5
WORKLOADS = ("ordered", "jittered")
ROUTES = (
    "victims",
    "top_victims",
    "scanners",
    "top_ases",
    "traffic",
    "ingest",
    "health",
    "top_amplifiers",
    "top_isp_victims",
)
LAYERS = ("scenario", "cache", "analysis", "render", "replay", "ingest", "windows", "sketches")

HERE = os.path.dirname(os.path.abspath(__file__))


class Session:
    """State of one run: paths, counters and what each stage measured."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.jobs = len(os.sched_getaffinity(0))
        self.root = os.getcwd()
        self.work = os.path.join(self.root, ".perfbench", f"run-{os.getpid()}")
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = os.path.join(self.root, "src")
        # Spill files and other temporary files stay inside the checkout.
        self.env["TMPDIR"] = self.work
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.e2e = {}
        self.layer = {}
        #: Peak resident memory (kB) of each program process, by stage.
        self.rss_kb = {"render": [], "replay": [], "serve": []}
        self.traces = {}
        self.setup_s = []
        self.cold_s = []
        self.warm_s = []
        #: Raw samples behind the reported metrics, printed to stderr.
        self.detail = {}

    def check(self, label, problems):
        """Count one operation; record its problems, if any."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:5])

    def path(self, name):
        return os.path.join(self.work, name)

    def stage_cmd(self, name, out):
        """The command line of one :mod:`stage` process."""
        return [
            sys.executable,
            os.path.join(HERE, "stage.py"),
            name,
            self.path("world0.pkl"),
            self.workload,
            str(self.seed),
            "1" if self.trace else "0",
            out,
        ]


def run_child(cmd, env=None, timeout=170):
    """Run ``cmd`` in a process group of its own; returns its exit code.

    The wait blocks until the child exits, so the caller's clock stops
    when it does (``Popen.wait`` with a timeout polls in steps of up to
    50 ms, a seventh of an interpreter start); a timer kills the group
    once ``timeout`` seconds have passed.  On a timeout or an
    interruption the whole group is killed, fork-pool workers included,
    and waited for before the exception propagates.
    """
    child = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, start_new_session=True)
    expired = threading.Event()

    def expire():
        expired.set()
        _kill_group(child.pid)

    timer = threading.Timer(timeout, expire)
    timer.start()
    try:
        code = child.wait()
    except BaseException:
        _kill_group(child.pid)
        child.wait()
        raise
    finally:
        timer.cancel()
    if expired.is_set():
        raise subprocess.TimeoutExpired(cmd, timeout)
    return code


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# -- stage 0: set-up ------------------------------------------------------------


def measure_setup(s):
    """Time ``IMPORT_PROBES`` fresh interpreters importing ``repro.cli``."""
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        code = run_child([sys.executable, "-c", "import repro.cli"], env=s.env)
        s.setup_s.append(time.perf_counter() - t0)
        s.check("import repro.cli", [] if code == 0 else [f"exit {code}"])


# -- stage 1: paper reproduction ----------------------------------------------


def run_render(s, label, cache):
    """One fresh ``python -m repro render --all --cache CACHE`` process,
    writing to the directory ``label``; returns its wall seconds."""
    report = s.path(f"{label}.json")
    cmd = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        report,
        "1" if s.trace else "0",
        "render",
        "--all",
        "--preset", stage.PRESET,
        "--seed", str(stage.WORLD_SEED),
        "--jobs", str(s.jobs),
        "--quiet",
        "--cache", cache,
        "--out-dir", s.path(label),
    ]
    t0 = time.perf_counter()
    code = run_child(cmd, env=s.env)
    seconds = time.perf_counter() - t0
    if code != 0:
        s.check(label, [f"exit {code}"])
    else:
        with open(report, encoding="utf-8") as handle:
            result = json.load(handle)
        s.rss_kb["render"].append(result["rss_self_kb"] + result["rss_children_kb"])
        s.traces[label] = result.get("trace")
    return seconds


def reproduce(s, i):
    """Cold run ``i`` (builds and saves a new cache), then warm run ``i``
    (the same command again, which loads it).  Every output is checked
    against the first cold run's, which must have written all artifacts."""
    cache = s.path(f"world{i}.pkl")
    s.cold_s.append(run_render(s, f"cold{i}", cache))
    s.warm_s.append(run_render(s, f"warm{i}", cache))
    if i == 0:
        s.check("render cold0", oracle.missing_problems(s.path("cold0")))
    else:
        s.check(f"render cold0 vs cold{i}", oracle.artifact_problems(s.path("cold0"), s.path(f"cold{i}")))
    s.check(f"render cold0 vs warm{i}", oracle.artifact_problems(s.path("cold0"), s.path(f"warm{i}")))


# -- stage 2: bulk replay -----------------------------------------------------


def replay(s):
    """The replay stage process; returns its timed passes' answers."""
    out = s.path("replay.pkl")
    code = run_child(s.stage_cmd("replay", out), env=s.env)
    if code != 0:
        raise RuntimeError(f"replay stage failed (exit {code})")
    items = []
    with open(out, "rb") as handle:
        while True:
            try:
                items.append(pickle.load(handle))
            except EOFError:
                break
    result = items.pop()
    s.e2e["ingest_rps"] = stats.median(result["rates"])
    s.layer["replay.raw_rps"] = stats.median(result["raw_rates"])
    s.detail.update(replay_rps=result["raw_rates"], probe_s=result["probe_s"])
    s.rss_kb["replay"].append(result["rss_kb"])
    if s.trace:
        s.traces["replay"] = result["trace"]
    return items


# -- stage 3: live serving ----------------------------------------------------


def live(s):
    """The live stage: server process, generator process; returns the
    server's final answers."""
    from repro.stream.loadgen import DEFAULT_QUERY_MIX

    n_requests = int((LIVE_WARMUP_S + s.seconds) * RATE)
    targets = feeds.query_mix(s.seed, n_requests, DEFAULT_QUERY_MIX)
    targets_path = s.path("targets.json")
    with open(targets_path, "w", encoding="utf-8") as handle:
        json.dump(targets, handle)
    span = LIVE_WARMUP_S + s.seconds + INGEST_MARGIN_S
    result_path = s.path("server.pkl")
    out_path = s.path("loadgen.json")

    server = subprocess.Popen(
        [*s.stage_cmd("serve", result_path), "--span", str(span)],
        env=s.env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        ready, _, _ = select.select([server.stdout], [], [], 120)
        line = server.stdout.readline() if ready else b""
        if not line:
            raise RuntimeError("server process did not start")
        port = json.loads(line)["port"]
        code = run_child(
            [
                sys.executable,
                os.path.join(HERE, "loadgen.py"),
                "--port", str(port),
                "--targets", targets_path,
                "--out", out_path,
            ],
            timeout=span + 60,
        )
        server.stdin.write(b"finish\n")
        server.stdin.close()
        server_code = server.wait(timeout=60)
    except BaseException:
        _kill_group(server.pid)
        server.wait()
        raise
    finally:
        server.stdout.close()
    if code != 0 or server_code != 0:
        raise RuntimeError(f"live stage failed (generator {code}, server {server_code})")
    with open(out_path, encoding="utf-8") as handle:
        load = json.load(handle)
    with open(result_path, "rb") as handle:
        server = pickle.load(handle)
    s.rss_kb["serve"].append(server["rss_kb"])
    if s.trace:
        s.traces["live"] = server["trace"]

    measured = []
    for target, (due, latency, ok) in zip(targets, load["rows"]):
        s.check("request", [] if ok else [f"{target} failed"])
        if due >= LIVE_WARMUP_S:
            measured.append((target, due, latency, ok))
    latencies_ms = [min(lat, TIMEOUT_S) * 1e3 for _, _, lat, _ in measured]
    s.e2e["query_p50_ms"] = stats.percentile(latencies_ms, 50)
    s.layer["query_p99_ms"], beyond = stats.tail_percentile(latencies_ms, 99)

    start = load["start"]
    ingest_start = server["stamps"]["ingest_start"]
    ingest_end = server["stamps"]["ingest_end"]
    lateness = [load["lateness"][i] for i, row in enumerate(load["rows"]) if row[0] >= LIVE_WARMUP_S]
    s.layer.update(
        {
            "loadgen.lateness_p99_ms": stats.percentile(lateness, 99) * 1e3,
            "loadgen.adhoc_share": sum(
                1 for t, *_ in measured if t not in DEFAULT_QUERY_MIX
            ) / len(measured),
            "loadgen.during_ingest_share": sum(
                1 for _, due, _, _ in measured if ingest_start <= start + due <= ingest_end
            ) / len(measured),
            "loadgen.requests": len(measured),
            "loadgen.beyond_p99": beyond,
            "service.ready_s": server["ready_s"],
            "service.connections_opened": server["summary"]["connections_opened"],
            "service.requests_served": server["summary"]["requests_served"],
        }
    )
    cache = server["summary"]["response_cache"]
    s.layer["service.cache_hit_ratio"] = cache["hits"] / max(1, cache["hits"] + cache["misses"])
    by_route = {}
    for (target, *_), latency_ms in zip(measured, latencies_ms):
        route = target.split("?", 1)[0].rsplit("/", 1)[-1]
        by_route.setdefault(route, []).append(latency_ms)
    for route in ROUTES:
        samples = by_route.get(route) or [0.0]
        s.layer[f"service.route.{route}.p50_ms"] = stats.percentile(samples, 50)
        s.layer[f"service.route.{route}.p99_ms"] = stats.percentile(samples, 99)
    return server["answers"]


# -- per-layer assembly -------------------------------------------------------


def _span_seconds(trace, name):
    return [end - start for _id, n, start, end, _p in trace["spans"] if n == name]


def _count(trace, name):
    return trace["counts"].get(name, 0.0)


def per_layer(s, metric_names):
    """Fold the stages' traces into the per-layer metrics."""
    cold = s.traces["cold0"]
    warm = [s.traces[f"warm{i}"] for i in range(RENDER_PAIRS)]
    rep, live_trace = s.traces["replay"], s.traces["live"]
    passes = stage.REPLAY_PASSES
    out = dict(s.layer)

    out["scenario.build_s"] = sum(_span_seconds(cold, "scenario.build"))
    out["cache.save_s"] = sum(_span_seconds(cold, "cache.save"))
    out["cache.bytes"] = _count(cold, "cache.bytes")
    out["cache.load_s"] = stats.median([sum(_span_seconds(w, "cache.load")) for w in warm])
    out["analysis.warm_s"] = stats.median([sum(_span_seconds(w, "analysis.warm")) for w in warm])
    out["analysis.parse_calls"] = stats.median([_count(w, "analysis.parse_calls") for w in warm])
    out["render.total_s"] = stats.median([sum(_span_seconds(w, "render.total")) for w in warm])
    for name in metric_names:
        if name.startswith("render.") and name != "render.total_s":
            out[name] = stats.median([_count(w, name) for w in warm])
        elif name.startswith(("scenario.phase.", "pool.hosts.", "pool.campaign.", "pool.onp.")):
            out[name] = _count(cold, name)
        elif name.startswith("pool.render."):
            out[name] = _count(warm[0], name)
    for name in ("pool.retries", "pool.serial_fallbacks"):
        out[name] = sum(_count(t, name) for t in [cold, *warm])

    def per_pass(value):
        return value / passes

    out["replay.enumerate_s"] = per_pass(sum(_span_seconds(rep, "replay.enumerate")))
    for kind in ("sweep", "capture", "darknet", "isp", "arbor"):
        out[f"replay.records.{kind}"] = per_pass(_count(rep, f"replay.records.{kind}"))
    out["ingest.busy_s"] = per_pass(sum(_span_seconds(rep, "ingest.ingest_many")))
    out["ingest.calls"] = per_pass(_count(rep, "ingest.ingest_many.calls"))
    out["ingest.close_s"] = per_pass(sum(_span_seconds(rep, "ingest.close")))
    out["windows.advance_s"] = per_pass(sum(_span_seconds(rep, "windows.advance")))
    out["windows.advance_calls"] = per_pass(_count(rep, "windows.advance.calls"))
    out["sketches.add_s"] = per_pass(sum(_span_seconds(rep, "sketches.add")))
    out["sketches.add_calls"] = per_pass(_count(rep, "sketches.add.calls"))
    out["analysis.decode_s"] = per_pass(sum(_span_seconds(rep, "analysis.decode")))
    out["analysis.decode_calls"] = per_pass(_count(rep, "analysis.decode.calls"))
    out["analysis.decode_captures"] = per_pass(_count(rep, "analysis.decode_captures"))

    holds = live_trace["samples"].get("ingest.hold_s") or [0.0]
    queries = live_trace["samples"].get("ingest.query_s") or [0.0]
    out["ingest.hold_ms.p50"] = stats.percentile(holds, 50) * 1e3
    out["ingest.hold_ms.p99"] = stats.percentile(holds, 99) * 1e3
    out["ingest.query_ms.p99"] = stats.percentile(queries, 99) * 1e3
    out["sketches.read_s"] = sum(_span_seconds(live_trace, "sketches.read"))
    kinds = s.live_answers["ingest"]["kinds"].values()
    out["ingest.late"] = sum(acc["late"] for acc in kinds)
    out["ingest.duplicate"] = sum(acc["duplicate"] for acc in kinds)

    self_time = {}
    for trace, weight in ((cold, 1.0), (warm[0], 1.0), (rep, 1.0 / passes), (live_trace, 1.0)):
        for layer, seconds in tracing.self_times(trace["spans"]).items():
            self_time[layer] = self_time.get(layer, 0.0) + weight * seconds
    for layer in LAYERS:
        out[f"self.{layer}_s"] = self_time.get(layer, 0.0)

    for name, value in s.e2e.items():
        out[f"trace.{name}"] = value
    out["host.probe_ms"] = stats.median(s.detail["probe_s"]) * 1e3
    out["error_rate"] = s.failed / max(1, s.attempted)
    return out


# -- the session ----------------------------------------------------------------


def run_session(s):
    # The set-up probes and the render pairs are spread over the run,
    # around the stream stages: the host's speed drifts over tens of
    # seconds, and samples far apart see more of it.
    measure_setup(s)
    reproduce(s, 0)
    replay_answers = replay(s)
    measure_setup(s)
    reproduce(s, 1)
    s.live_answers = live(s)
    for i in range(2, RENDER_PAIRS):
        measure_setup(s)
        reproduce(s, i)
    s.e2e["setup_s"] = stats.median(s.setup_s)
    # Means, not medians or minima: over two ten-run sets per workload the
    # mean of three renders spread least of the three statistics.
    s.e2e["reproduce_s"] = statistics.fmean(s.cold_s)
    s.e2e["rerender_s"] = statistics.fmean(s.warm_s)
    rss_mb = {name: max(kb) / 1024.0 for name, kb in s.rss_kb.items()}
    s.e2e["peak_rss_mb"] = max(rss_mb.values())
    for name, mb in rss_mb.items():
        s.layer[f"rss.{name}_mb"] = mb
    s.detail.update(setup_s=s.setup_s, cold_s=s.cold_s, warm_s=s.warm_s, rss_mb=rss_mb)

    # Oracles, all outside the timed regions.
    world, plan, _order, _skew, redelivered = stage.load(s.path("world0.pkl"), s.workload, s.seed)
    batch = oracle.batch_answers(world, plan)
    for i, answers in enumerate(replay_answers):
        s.check(f"replay pass {i}", oracle.stream_problems(batch, answers, redelivered))
    s.check("live answers", oracle.stream_problems(batch, s.live_answers, redelivered))
    del world, batch

    from repro.verify.manifest import build_manifest, load_manifest

    current = build_manifest(jobs=s.jobs)
    recorded = load_manifest(os.path.join(s.root, "MANIFEST_golden.json"))
    s.check("golden manifest", oracle.golden_problems(recorded, current))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds like an interrupted one: every child process
    # started below is killed and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    root = os.getcwd()
    required = ("BENCHMARK.json", "MANIFEST_golden.json", os.path.join("src", "repro", "__init__.py"))
    missing = [name for name in required if not os.path.isfile(os.path.join(root, name))]
    if missing:
        print(f"error: run from a checkout root; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    sys.path.insert(0, os.path.join(root, "src"))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    s = Session(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(s.work)
    tempfile.tempdir = s.work
    try:
        run_session(s)
        values = per_layer(s, [m["name"] for m in wanted]) if s.trace else dict(s.e2e)
    finally:
        shutil.rmtree(s.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(s.work))
        except OSError:
            pass

    names = [m["name"] for m in wanted]
    if set(values) != set(names):
        print(
            f"error: metrics {sorted(set(values) ^ set(names))} do not match BENCHMARK.json",
            file=sys.stderr,
        )
        return 3
    print(json.dumps({"detail": s.detail, "layer": s.layer}), file=sys.stderr)
    for problem in s.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": s.failed == 0,
                "attempted": s.attempted,
                "failed": s.failed,
                "metrics": {
                    m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
