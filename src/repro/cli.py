"""Command-line interface: regenerate any of the paper's artifacts.

Usage::

    python -m repro summary  [--preset default | --scale 0.002] [--seed 2014]
    python -m repro figure F1 [...]      # F1..F16
    python -m repro table  T1 [...]      # T1..T6
    python -m repro render --all [--jobs 4] [--out-dir artifacts/]
    python -m repro validate             # §4.4 cross-dataset validation
    python -m repro quality              # per-dataset loss/outage accounting
    python -m repro bench-build          # time a build, write BENCH_build.json
    python -m repro bench-pipeline       # time build+parse+render, BENCH_pipeline.json
    python -m repro list                 # available artifacts and presets

Every invocation shares one :class:`~repro.analysis.AnalysisContext`, so the
monlist corpus is decoded exactly once no matter how many artifacts render.
``--jobs N`` parallelizes sample parsing and artifact rendering over a
process pool; outputs are merged in request order and are byte-identical at
any worker count.

A built world can be cached (``--cache world.pkl``) so successive artifact
renders skip the simulation; the cache is validated against the requested
(seed, scale, faults) and the package version, and silently rebuilt when
stale.  ``--faults {clean,paper,hostile}`` builds the world through an
imperfect measurement apparatus (see :mod:`repro.faults`).

Pooled work (build phases, sample parsing, artifact rendering, the
conformance matrix) runs under the supervised shard pool
(:mod:`repro.util.pool`): ``--task-timeout`` bounds each pooled task's
wall clock, ``--retries`` bounds its pooled attempts before the
in-process serial fallback, and ``--checkpoint DIR`` makes a build
resumable — the world state is persisted after every completed phase,
so an interrupted ``repro`` run re-issued with the same flags resumes
from the last finished phase to a byte-identical world.
"""

import argparse
import os
import sys

from repro.analysis.context import AnalysisContext
from repro.faults import FAULT_PROFILES, resolve_fault_profile
from repro.scenario import PaperWorld, WorldParams
from repro.scenario.presets import PRESETS, resolve_preset

__all__ = ["main", "build_or_load_world", "render_artifact", "render_many", "ARTIFACTS", "CliError"]


class CliError(Exception):
    """A user-input problem worth one stderr line and exit code 2."""


def _world_params(args):
    scale = args.scale if args.scale is not None else resolve_preset(args.preset).scale
    faults = resolve_fault_profile(getattr(args, "faults", None))
    return WorldParams(seed=args.seed, scale=scale, faults=faults)


def _supervision_kwargs(args):
    """The per-task supervision knobs shared by every pooled subcommand."""
    return {
        "task_timeout": getattr(args, "task_timeout", None),
        "retries": getattr(args, "retries", None),
    }


def _make_runner(jobs, args):
    """A :class:`ShardRunner` honoring the CLI's supervision flags."""
    from repro.util.pool import ShardRunner

    kwargs = {key: value for key, value in _supervision_kwargs(args).items() if value is not None}
    return ShardRunner(jobs=jobs, **kwargs)


def build_or_load_world(args):
    """Build the world from CLI args, honoring the optional pickle cache.

    A cache file is only used when it matches the *requested* world: the
    embedded (seed, scale, ...) params and package version are validated,
    and a mismatch triggers a rebuild (with a stderr note) that overwrites
    the stale entry — a cache must never answer for a different world.
    """
    from repro.scenario.cache import CacheMiss, load_world, save_world

    params = _world_params(args)
    if args.cache and os.path.isdir(args.cache):
        raise CliError(f"--cache {args.cache!r} is a directory, not a cache file")
    if args.cache:
        try:
            world = load_world(args.cache, params)
            if not args.quiet:
                print(f"(loaded cached world from {args.cache})", file=sys.stderr)
            return world
        except CacheMiss as miss:
            if os.path.exists(args.cache):
                print(f"(stale world cache: {miss}; rebuilding)", file=sys.stderr)
    world = PaperWorld.build(
        params=params,
        quiet=args.quiet,
        jobs=getattr(args, "jobs", 1),
        checkpoint_dir=getattr(args, "checkpoint", None),
        **_supervision_kwargs(args),
    )
    if args.cache:
        try:
            save_world(world, args.cache)
            if not args.quiet:
                print(f"(cached world to {args.cache})", file=sys.stderr)
        except OSError as exc:
            # An unwritable cache only loses the reuse, not the render.
            print(f"warning: could not write world cache {args.cache}: {exc}", file=sys.stderr)
    return world


# ---------------------------------------------------------------------------
# Artifact renderers
#
# Each renderer takes the shared AnalysisContext; parsed corpus, victim
# report, and AS concentration come from its memos so one CLI invocation
# decodes the ONP corpus exactly once however many artifacts it renders.
# ---------------------------------------------------------------------------


def _fig1(ctx):
    from repro.analysis import traffic_fractions
    from repro.reporting.figures import ascii_chart

    series = traffic_fractions(ctx.world.arbor, include_gaps=True)
    ntp = [(d, f) for d, f, _ in series]
    return ascii_chart(ntp, log=True, title="Fig 1: NTP fraction of Internet traffic (log y)")


def _fig2(ctx):
    from repro.analysis import attack_fraction_rows
    from repro.reporting import render_table

    rows = attack_fraction_rows(ctx.world.arbor)
    return render_table(
        ["Month", "Small", "Medium", "Large", "All"],
        [[r.month, f"{r.small:.2f}", f"{r.medium:.2f}", f"{r.large:.2f}", f"{r.overall:.3f}"] for r in rows],
        title="Fig 2: NTP fraction of monthly DDoS attacks by size bin",
    )


def _fig3(ctx):
    from repro.analysis import amplifier_counts
    from repro.reporting.figures import ascii_chart
    from repro.util import format_sim

    rows = amplifier_counts(ctx.parsed_samples(), ctx.world.table, ctx.world.pbl)
    # An outage week is a gap (None), not a zero-amplifier data point.
    series = [(format_sim(r.t), None if r.outage else r.ips) for r in rows]
    return ascii_chart(series, log=True, title="Fig 3: monlist amplifier IPs (log y)", value_fmt="{:.0f}")


def _fig4(ctx):
    from repro.analysis import sample_baf_boxplot, version_sample_baf_boxplot
    from repro.reporting import render_table
    from repro.util import format_sim

    rows = []
    for p in ctx.parsed_samples():
        if not p.tables:
            rows.append([format_sim(p.t), "-", "-", "-", "- (no data)"])
            continue
        b = sample_baf_boxplot(p)
        rows.append([format_sim(p.t), f"{b.q1:.1f}", f"{b.median:.1f}", f"{b.q3:.1f}", f"{b.maximum:.1e}"])
    out = [render_table(["Sample", "Q1", "Median", "Q3", "Max"], rows, title="Fig 4b: monlist BAF")]
    vrows = []
    for s in ctx.world.onp.version_samples:
        if not len(s):
            vrows.append([format_sim(s.t), "-", "-", "-", "- (no data)"])
            continue
        b = version_sample_baf_boxplot(s)
        vrows.append([format_sim(s.t), f"{b.q1:.2f}", f"{b.median:.2f}", f"{b.q3:.2f}", f"{b.maximum:.1e}"])
    out.append(render_table(["Sample", "Q1", "Median", "Q3", "Max"], vrows, title="Fig 4c: version BAF"))
    return "\n\n".join(out)


def _fig5(ctx):
    from repro.reporting.figures import ascii_bars

    conc = ctx.concentration()
    rows = []
    for k in (1, 3, 10, 30, 100):
        rows.append((f"top {k}", conc.victim_ecdf.fraction_within_top(k)))
    ovh = ctx.world.registry.special["HOSTING-FR-1"]
    chart = ascii_bars(rows, title="Fig 5: victim-packet share by top victim ASes")
    return chart + f"\nOVH-like AS rank: {conc.victim_as_rank(ovh.asn)} (paper: 1)"


def _fig6(ctx):
    from repro.reporting import render_table
    from repro.util import format_sim

    rows = [
        [format_sim(t), f"{mean:.2e}", f"{median:.0f}", f"{p95:.2e}"]
        for t, mean, median, p95 in ctx.victim_report().victim_packet_stats()
    ]
    return render_table(["Sample", "Mean", "Median", "95th"], rows, title="Fig 6: packets per victim")


def _fig7(ctx):
    from collections import defaultdict

    from repro.reporting.figures import ascii_chart
    from repro.util import format_sim

    hours = ctx.victim_report().attacks_per_hour()
    daily = defaultdict(int)
    for hour, count in hours.items():
        daily[hour // 24] += count
    series = [(format_sim(d * 86400), daily[d]) for d in sorted(daily)]
    return ascii_chart(series, title="Fig 7: attacks per day (derived starts)", value_fmt="{:.0f}")


def _fig8(ctx):
    from repro.analysis import darknet_report
    from repro.reporting import render_table

    report = darknet_report(ctx.world.darknet)
    rows = [
        [month, f"{v['benign']:.0f}", f"{v['other']:.0f}", f"{report.benign_fractions[month]:.2f}"]
        for month, v in report.monthly_per_slash24.items()
    ]
    return render_table(
        ["Month", "Benign pkts//24", "Other pkts//24", "Benign frac"],
        rows,
        title="Fig 8: darknet NTP scanning volume",
    )


def _fig9(ctx):
    from repro.analysis import daily_attack_counts, darknet_report, scanning_leads_attacks_by
    from repro.reporting.figures import sparkline

    report = darknet_report(ctx.world.darknet)
    scanners = report.daily_unique_scanners
    attacks = daily_attack_counts(ctx.world.attacks)
    days = sorted(set(scanners) | set(attacks))
    lead = scanning_leads_attacks_by(scanners, attacks)
    return (
        "Fig 9: scanners (top) vs attacks (bottom), per day\n"
        f"  [{sparkline([scanners.get(d, 0) for d in days], width=72)}]\n"
        f"  [{sparkline([attacks.get(d, 0) for d in days], width=72)}]\n"
        f"scanning leads attacks by {lead} days (paper: about a week)"
    )


def _fig10(ctx):
    from repro.analysis import pool_relative_to_peak
    from repro.reporting.figures import sparkline

    world = ctx.world
    monlist = pool_relative_to_peak([(p.t, len(p.amplifier_ips())) for p in ctx.parsed_samples()])
    version = pool_relative_to_peak([(s.t, len(s)) for s in world.onp.version_samples])
    dns = pool_relative_to_peak([(s.t, s.count) for s in world.dns_pool.weekly_series(n_weeks=60)])
    return (
        "Fig 10: pool size relative to peak\n"
        f"  monlist [{sparkline([f for _, f in monlist])}] -> {monlist[-1][1]:.2f}\n"
        f"  version [{sparkline([f for _, f in version])}] -> {version[-1][1]:.2f}\n"
        f"  openDNS [{sparkline([f for _, f in dns])}] -> {dns[-1][1]:.2f}"
    )


def _site_series(world, site_name, arrays):
    from repro.reporting.figures import sparkline

    site = world.isp.sites[site_name]
    lines = [f"{site_name} NTP traffic (hourly, Dec-Feb):"]
    for label, array in arrays.items():
        series = site.hourly_mbps(array)
        lines.append(f"  {label:<14} [{sparkline(series, width=72)}] peak {series.max():.1f} MB/s")
    return "\n".join(lines)


def _fig11(ctx):
    site = ctx.world.isp.sites["merit"]
    return "Fig 11: " + _site_series(
        ctx.world, "merit", {"sport=123 out": site.ntp_out, "dport=123 in": site.ntp_in_queries}
    )


def _fig12(ctx):
    world = ctx.world
    csu = world.isp.sites["csu"]
    frgp = world.isp.sites["frgp"]
    return (
        "Fig 12: "
        + _site_series(world, "csu", {"sport=123 out": csu.ntp_out})
        + "\n"
        + _site_series(world, "frgp", {"sport=123 in": frgp.ntp_in_reflected, "sport=123 out": frgp.ntp_out})
    )


def _fig13(ctx):
    from repro.reporting.figures import sparkline

    merit = ctx.world.isp.sites["merit"]
    lines = ["Fig 13: top-5 victims of Merit amplifiers (hourly egress)"]
    for victim in merit.top_victims(5):
        series = merit.victim_series_mbps(victim.ip)
        lines.append(
            f"  AS{victim.asn:<6} [{sparkline(series, width=64)}] {victim.gb:.1f} GB via "
            f"{len(victim.amplifiers)} amps"
        )
    return "\n".join(lines)


def _fig14(ctx):
    from repro.reporting.figures import sparkline
    from repro.util import RngStream

    merit = ctx.world.isp.sites["merit"]
    background = merit.background_series(RngStream(77, "fig14").generator)
    ntp = merit.ntp_out + merit.ntp_in_reflected + merit.ntp_in_queries
    lines = ["Fig 14: Merit traffic by protocol (hourly bytes)"]
    for label, series in list(background.items()) + [("ntp", ntp)]:
        lines.append(f"  {label:<6} [{sparkline(series, width=72)}]")
    return "\n".join(lines)


def _fig15(ctx):
    from repro.net import format_ip

    world = ctx.world
    common = world.isp.common_victims("merit", "frgp")
    merit, frgp = world.isp.sites["merit"], world.isp.sites["frgp"]
    lines = [f"Fig 15: {len(common)} victims common to Merit and FRGP (GB merit/frgp)"]
    ranked = sorted(
        common, key=lambda ip: merit.victim_forensics[ip].gb + frgp.victim_forensics[ip].gb, reverse=True
    )
    for ip in ranked[:8]:
        lines.append(
            f"  {format_ip(ip):<16} {merit.victim_forensics[ip].gb:8.2f} / "
            f"{frgp.victim_forensics[ip].gb:8.2f}"
        )
    return "\n".join(lines)


def _fig16(ctx):
    from repro.analysis import common_scanner_timeline, ttl_forensics
    from repro.util import format_sim

    world = ctx.world
    timeline = common_scanner_timeline(world.isp)
    forensics = ttl_forensics(world.sweeps, world.attacks, world.isp.sites["csu"].spec.asns)
    days = sorted(timeline)
    lines = ["Fig 16: common Merit/CSU scanners per day (first/last shown)"]
    for day in days[:4] + days[-4:]:
        lines.append(f"  {format_sim(day * 86400)}: {timeline[day]}")
    lines.append(
        f"TTL forensics: scanning mode {forensics.scan_ttl_mode} (Linux), "
        f"attacks mode {forensics.attack_ttl_mode} (Windows)"
    )
    return "\n".join(lines)


def _table1(ctx):
    from repro.analysis import amplifier_counts
    from repro.net import aggregate_counts
    from repro.reporting import render_table1

    world = ctx.world
    amp_rows = amplifier_counts(ctx.parsed_samples(), world.table, world.pbl)
    victim_rows = []
    for sample in ctx.victim_report().samples:
        ips = sample.victim_ips()
        agg = aggregate_counts(ips, world.table)
        end = world.pbl.end_host_count(ips)
        victim_rows.append(
            {
                "ips": agg.ips,
                "blocks": agg.blocks,
                "asns": agg.asns,
                "end_host_fraction": end / agg.ips if agg.ips else 0.0,
                "ips_per_block": agg.ips_per_block,
            }
        )
    return render_table1(amp_rows, victim_rows)


def _table2(ctx):
    from repro.reporting import render_table2

    world = ctx.world
    report = ctx.version_report()
    amplifier_ips = {h.ip for h in world.hosts.monlist_hosts}
    mega_ips = {h.ip for h in world.hosts.mega_hosts()}
    non_amp = report.restrict_to({r.ip for r in report.records} - amplifier_ips)
    text = render_table2(
        report.restrict_to(mega_ips).os_distribution(),
        report.restrict_to(amplifier_ips).os_distribution(),
        non_amp.os_distribution(),
    )
    cdf = report.compile_year_cdf()
    return text + (
        f"\nstratum 16: {report.stratum16_fraction():.2f} (paper 0.19); "
        f"compiled pre-2004: {cdf[2004]:.2f} (paper 0.13)"
    )


def _table3(ctx):
    from repro.analysis import ParseStats, reconstruct_table_lenient
    from repro.attack import ONP_PROBER_IP
    from repro.reporting import render_monlist_table

    samples = ctx.world.onp.monlist_samples
    sample = samples[min(6, len(samples) - 1)]
    stats = ParseStats()
    for capture in sample.captures:
        table = reconstruct_table_lenient(capture, stats)
        if table is None:
            continue
        if table.entries and table.entries[0].addr == ONP_PROBER_IP and len(table.entries) >= 4:
            return render_monlist_table(table.entries[:8], title="Table 3: an amplifier's monlist table")
    return (
        f"(no probe-topped table found: scanned {stats.captures_total} captures "
        f"of sample {sample.date} — {stats.captures_parsed} parsed, "
        f"{stats.captures_failed} unparseable)"
    )


def _table4(ctx):
    from repro.reporting import render_table4

    return render_table4(ctx.victim_report().port_table(top=20))


def _table5(ctx):
    from repro.analysis import top_amplifier_table
    from repro.reporting import render_table5

    sites = ctx.world.isp.sites
    return (
        render_table5("Merit", top_amplifier_table(sites["merit"]))
        + "\n\n"
        + render_table5("CSU", top_amplifier_table(sites["csu"]))
    )


def _table6(ctx):
    from repro.analysis import top_victim_table
    from repro.reporting import render_table6

    world = ctx.world
    return (
        render_table6("Merit", top_victim_table(world.isp.sites["merit"], world.table, world.geo))
        + "\n\n"
        + render_table6("FRGP/CSU", top_victim_table(world.isp.sites["frgp"], world.table, world.geo))
    )


def _validate(ctx):
    from repro.analysis.validation import validate_ovh_event

    world = ctx.world
    ovh = world.registry.special["HOSTING-FR-1"]
    result = validate_ovh_event(
        world.attacks, ctx.parsed_samples(), ctx.concentration(), world.table, ovh.asn
    )
    rank = str(result.target_as_rank) if result.target_as_rank else "- (AS unobserved)"
    text = (
        "§4.4 cross-dataset validation (the OVH/CloudFlare event):\n"
        f"  event attacks on the hoster: {result.event_attacks}\n"
        f"  amplifier ASes in the event ('disclosed'): {result.disclosed_asns}\n"
        f"  ... also present in the ONP data: {result.overlapping_asns} "
        f"({100 * result.asn_overlap_fraction:.0f}%; paper: 1291/1297 = 99.5%)\n"
        f"  victim-packet share of overlapping ASes: {result.victim_packet_share:.2f} (paper: 0.60)\n"
        f"  target AS victim rank: {rank} (paper: 1)"
    )
    if result.degraded:
        text += (
            "\n  DEGRADED: one side of the cross-check is missing "
            f"(disclosed ASes: {result.disclosed_asns}, ONP amplifier ASes: {result.onp_asns}, "
            f"target rank: {result.target_as_rank}) — agreement figures are vacuous"
        )
    return text


ARTIFACTS = {
    "F1": ("Fig 1: global NTP/DNS traffic fractions", _fig1),
    "F2": ("Fig 2: NTP share of attacks by size bin", _fig2),
    "F3": ("Fig 3: amplifier counts", _fig3),
    "F4": ("Fig 4: BAF boxplots (monlist + version)", _fig4),
    "F5": ("Fig 5: victim AS concentration", _fig5),
    "F6": ("Fig 6: packets per victim", _fig6),
    "F7": ("Fig 7: attacks per day", _fig7),
    "F8": ("Fig 8: darknet scan volume", _fig8),
    "F9": ("Fig 9: scanners vs attacks lead-lag", _fig9),
    "F10": ("Fig 10: remediation of three pools", _fig10),
    "F11": ("Fig 11: Merit NTP traffic", _fig11),
    "F12": ("Fig 12: CSU/FRGP NTP traffic", _fig12),
    "F13": ("Fig 13: top Merit victims", _fig13),
    "F14": ("Fig 14: Merit traffic by protocol", _fig14),
    "F15": ("Fig 15: common Merit/FRGP victims", _fig15),
    "F16": ("Fig 16: common scanners + TTL forensics", _fig16),
    "T1": ("Table 1: populations", _table1),
    "T2": ("Table 2: OS strings", _table2),
    "T3": ("Table 3: monlist example", _table3),
    "T4": ("Table 4: attacked ports", _table4),
    "T5": ("Table 5: top local amplifiers", _table5),
    "T6": ("Table 6: top local victims", _table6),
}


def render_artifact(world, artifact_id, context=None):
    """Render one artifact by id (``F1``..``F16``, ``T1``..``T6``).

    ``context`` shares parsed state across renders; without one, a private
    context is created (same output, but each call re-parses what it needs).
    """
    key = artifact_id.upper()
    if key not in ARTIFACTS:
        raise KeyError(f"unknown artifact {artifact_id!r}; choose from {sorted(ARTIFACTS)}")
    if context is None:
        context = AnalysisContext(world)
    _, renderer = ARTIFACTS[key]
    return renderer(context)


# ---------------------------------------------------------------------------
# Parallel rendering
# ---------------------------------------------------------------------------


def _render_task(state, index):
    """One supervised render task: ``state`` is ``(ctx, ids)`` COW-inherited."""
    ctx, ids = state
    return render_artifact(ctx.world, ids[index], context=ctx)


def render_many(world, artifact_ids, jobs=1, context=None, stats=None, runner=None):
    """Render several artifacts, optionally over a supervised process pool.

    Returns the rendered texts in the order requested — never completion
    order — so the output is byte-identical at any ``jobs`` value (each
    renderer is a pure function of the world).  Parallelism requires the
    ``fork`` start method: the parent decodes the corpus once (``warm``)
    and workers inherit the parsed state copy-on-write, keeping the
    parse-once contract across the whole pool.  Where fork is unavailable
    the serial path runs instead, with identical output.

    Pooled renders run under :class:`repro.util.pool.ShardRunner`, so a
    crashed, hung, or erroring render worker is retried and, as a last
    resort, re-run serially in this process — the call either returns
    every requested artifact or raises the genuine exception.

    ``stats``, when given, is a dict filled with pool diagnostics:
    whether the pool engaged, how many workers and tasks it ran, how many
    CPUs the host exposes, why the pool did *not* engage, and a
    ``supervision`` sub-dict of retry/timeout/crash/fallback counters.
    ``bench-pipeline`` reports these so a no-op parallel phase is
    explainable from the benchmark record alone.
    """
    from repro.util.pool import ShardRunner, fork_pool_gate

    ids = [artifact_id.upper() for artifact_id in artifact_ids]
    ctx = context if context is not None else AnalysisContext(world, jobs=jobs)
    if stats is None:
        stats = {}
    if runner is None:
        runner = ShardRunner(jobs=jobs)
    # Warm the parent before forking when the pool will engage, so workers
    # inherit the parsed corpus copy-on-write instead of re-decoding it.
    engaged, _ = fork_pool_gate(runner.jobs, len(ids))
    if engaged:
        ctx.warm()
    outputs = runner.map("render", _render_task, (ctx, ids), len(ids))
    shard = runner.stats["render"]
    stats.update(
        {
            "pool_engaged": shard["engaged"],
            "workers": shard["workers"] if shard["engaged"] else 0,
            "tasks": shard["tasks"],
            "cpu_count": shard["cpu_count"],
            "reason": shard["reason"],
            "supervision": {
                key: shard[key]
                for key in (
                    "task_timeout",
                    "retries_allowed",
                    "retries",
                    "timeouts",
                    "worker_crashes",
                    "task_errors",
                    "serial_fallbacks",
                )
            },
        }
    )
    return outputs


def _emit_artifacts(ids, outputs, out_dir=None):
    """Print rendered artifacts, or write one ``<id>.txt`` per artifact."""
    if out_dir is None:
        for text in outputs:
            print(text)
            print()
        return
    from repro.util.io import atomic_write_text

    os.makedirs(out_dir, exist_ok=True)
    for artifact_id, text in zip(ids, outputs):
        path = os.path.join(out_dir, f"{artifact_id.upper()}.txt")
        atomic_write_text(path, text + "\n")
    print(f"(wrote {len(ids)} artifacts to {out_dir})", file=sys.stderr)


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------


def _provenance(args, params):
    """The shared benchmark-record fields tying a run to its world."""
    import platform
    import time as _time

    from repro import __version__

    return {
        "seed": params.seed,
        "scale": params.scale,
        "preset": args.preset,
        "faults": getattr(params.faults, "name", "unknown"),
        "n_ases": params.resolved_n_ases(),
        "package_version": __version__,
        "python": platform.python_version(),
        "unix_time": int(_time.time()),
    }


def _peak_rss_mb():
    """(self MB, children MB) peak RSS so far for this process tree.

    Linux reports ``ru_maxrss`` in KB (macOS in bytes); children covers
    the largest fork-pool worker, so self+children bounds the build's
    true footprint from above.
    """
    import resource

    self_raw = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_raw = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    divisor = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return round(self_raw / divisor, 2), round(child_raw / divisor, 2)


def _bench_build(args):
    """Build worlds fresh (never cached), record timings + memory to JSON.

    The JSON is the perf trajectory's unit record: one file per run with
    enough provenance (seed/scale/faults/version/host counts, shard-pool
    engagement, peak RSS) to compare across commits.  ``--scale`` accepts
    a comma-separated list for a scaling sweep (the record then carries a
    ``runs`` array, one entry per scale).  ``--max-seconds`` and
    ``--max-rss-mb`` turn it into a CI regression gate.
    """
    from repro.measurement.capture_store import spill_threshold_bytes
    from repro.util.io import atomic_write_json

    faults = resolve_fault_profile(args.faults)
    if args.scale is not None:
        scales = _parse_list(args.scale, float, "scale")
    else:
        scales = [resolve_preset(args.preset).scale]
    runs = []
    worst_total = 0.0
    params = None
    for scale in scales:
        params = WorldParams(seed=args.seed, scale=scale, faults=faults)
        world = PaperWorld.build(
            params=params,
            quiet=args.quiet,
            jobs=args.jobs,
            checkpoint_dir=getattr(args, "checkpoint", None),
            **_supervision_kwargs(args),
        )
        timings = dict(world.build_timings)
        total = timings.pop("total")
        worst_total = max(worst_total, total)
        self_mb, children_mb = _peak_rss_mb()
        run = {
            "scale": scale,
            "n_ases": params.resolved_n_ases(),
            "hosts": len(world.hosts),
            "victims": len(world.victims),
            "attacks": len(world.attacks),
            "sweeps": len(world.sweeps),
            "total_seconds": round(total, 4),
            "phases": {phase: round(seconds, 4) for phase, seconds in timings.items()},
            "memory": {
                "peak_rss_mb": round(self_mb + children_mb, 2),
                "self_mb": self_mb,
                "children_mb": children_mb,
                "spill_threshold_mb": round(spill_threshold_bytes() / (1024 * 1024), 2),
            },
            "shards": world.shard_stats,
            "supervision": _supervision_kwargs(args),
        }
        if world.checkpoint_stats is not None:
            run["checkpoint"] = world.checkpoint_stats
        runs.append(run)
        print("\n".join(world.timing_summary()))
        print(
            f"  scale {scale:g}: peak RSS {run['memory']['peak_rss_mb']:.0f} MB "
            f"(self {self_mb:.0f} + children {children_mb:.0f})"
        )
    record = _provenance(args, params)
    record["jobs"] = args.jobs
    if len(runs) == 1:
        record.update(runs[0])
    else:
        record.pop("scale", None)
        record.pop("n_ases", None)  # varies per run; each runs[] entry has its own
        record["scales"] = scales
        record["runs"] = runs
    atomic_write_json(args.out, record)
    print(f"(wrote {args.out})")
    status = 0
    if args.max_seconds is not None and worst_total > args.max_seconds:
        print(
            f"FAIL: build took {worst_total:.2f}s > ceiling {args.max_seconds:.2f}s",
            file=sys.stderr,
        )
        status = 1
    peak = runs[-1]["memory"]["peak_rss_mb"]
    if args.max_rss_mb is not None and peak > args.max_rss_mb:
        print(
            f"FAIL: peak RSS {peak:.0f} MB > ceiling {args.max_rss_mb:.0f} MB",
            file=sys.stderr,
        )
        status = 1
    return status


def _bench_pipeline(args):
    """Time the full artifact pipeline: build, parse, render x2.

    Renders all 22 artifacts twice — serially and over ``--jobs`` workers —
    and fails (exit 1) if the two render passes are not byte-identical:
    the determinism contract is load-bearing, so the benchmark doubles as
    its enforcement.  Writes a BENCH_pipeline.json record with the same
    provenance scheme as BENCH_build.json.
    """
    from time import perf_counter

    params = _world_params(args)
    ids = list(ARTIFACTS)

    start = perf_counter()
    world = PaperWorld.build(
        params=params,
        quiet=args.quiet,
        checkpoint_dir=getattr(args, "checkpoint", None),
        **_supervision_kwargs(args),
    )
    build_seconds = perf_counter() - start

    context = AnalysisContext(world, jobs=args.jobs)
    start = perf_counter()
    context.warm()
    parse_seconds = perf_counter() - start

    start = perf_counter()
    serial = [render_artifact(world, artifact_id, context=context) for artifact_id in ids]
    serial_seconds = perf_counter() - start

    pool_stats = {}
    start = perf_counter()
    parallel = render_many(
        world,
        ids,
        jobs=args.jobs,
        context=context,
        stats=pool_stats,
        runner=_make_runner(args.jobs, args),
    )
    parallel_seconds = perf_counter() - start

    from repro.measurement.capture_store import spill_threshold_bytes

    identical = serial == parallel
    total = build_seconds + parse_seconds + serial_seconds + parallel_seconds
    self_mb, children_mb = _peak_rss_mb()
    record = _provenance(args, params)
    record.update(
        {
            "jobs": args.jobs,
            "n_artifacts": len(ids),
            "parse_calls": context.parse_calls,
            "byte_identical": identical,
            "total_seconds": round(total, 4),
            "phases": {
                "build": round(build_seconds, 4),
                "parse": round(parse_seconds, 4),
                "render_serial": round(serial_seconds, 4),
                "render_parallel": round(parallel_seconds, 4),
            },
            "memory": {
                "peak_rss_mb": round(self_mb + children_mb, 2),
                "self_mb": self_mb,
                "children_mb": children_mb,
                "spill_threshold_mb": round(spill_threshold_bytes() / (1024 * 1024), 2),
            },
            "render_pool": pool_stats,
        }
    )
    from repro.util.io import atomic_write_json

    atomic_write_json(args.out, record)
    print(f"Pipeline: {total:.2f}s wall clock ({len(ids)} artifacts, jobs={args.jobs})")
    for phase, seconds in record["phases"].items():
        print(f"  {phase:<16} {seconds:8.2f}s")
    if pool_stats.get("pool_engaged"):
        print(
            f"  (render pool: {pool_stats['workers']} workers, "
            f"{pool_stats['tasks']} tasks, host has {pool_stats['cpu_count']} CPUs)"
        )
    else:
        print(f"  (render pool not engaged: {pool_stats.get('reason')})")
    peak = record["memory"]["peak_rss_mb"]
    print(f"  peak RSS {peak:.0f} MB (self {self_mb:.0f} + children {children_mb:.0f})")
    print(f"(wrote {args.out})")
    status = 0
    if not identical:
        print("FAIL: parallel render output differs from serial", file=sys.stderr)
        status = 1
    if args.max_parse_seconds is not None and parse_seconds > args.max_parse_seconds:
        print(
            f"FAIL: parse phase took {parse_seconds:.2f}s > ceiling "
            f"{args.max_parse_seconds:.2f}s",
            file=sys.stderr,
        )
        status = 1
    if args.max_render_seconds is not None and serial_seconds > args.max_render_seconds:
        print(
            f"FAIL: serial render took {serial_seconds:.2f}s > ceiling "
            f"{args.max_render_seconds:.2f}s",
            file=sys.stderr,
        )
        status = 1
    if args.max_rss_mb is not None and peak > args.max_rss_mb:
        print(
            f"FAIL: peak RSS {peak:.0f} MB > ceiling {args.max_rss_mb:.0f} MB",
            file=sys.stderr,
        )
        status = 1
    if args.max_seconds is not None and total > args.max_seconds:
        print(
            f"FAIL: pipeline took {total:.2f}s > ceiling {args.max_seconds:.2f}s",
            file=sys.stderr,
        )
        status = 1
    return status


def _bench_verify(args):
    """Time the conformance matrix, write a BENCH_verify.json record.

    The verify-world analogue of ``bench-pipeline``: runs the full
    invariant matrix at ``--jobs`` workers, records wall clock, matrix
    shape, pool facts, and outcome counts, and optionally enforces a
    wall-clock ceiling (CI regression gate).  Exit 1 when the matrix is
    nonconformant or over budget.
    """
    from time import perf_counter

    from repro.verify import run_conformance

    seeds = _parse_list(args.seeds, int, "seed")
    scales = _parse_list(args.scales, float, "scale")
    faults = _parse_list(args.faults, str, "fault preset")
    for name in faults:
        try:
            resolve_fault_profile(name)
        except KeyError as error:
            raise CliError(str(error).strip("'\""))

    def progress(message):
        if not args.quiet:
            print(f"[bench-verify] {message}", file=sys.stderr)

    start = perf_counter()
    report = run_conformance(
        seeds,
        scales,
        faults,
        progress=progress,
        jobs=args.jobs,
        build_jobs=args.build_jobs,
        **_supervision_kwargs(args),
    )
    total = perf_counter() - start

    import platform
    import time as _time

    from repro import __version__
    from repro.util.io import atomic_write_json
    from repro.util.pool import available_cpus

    record = {
        "seeds": seeds,
        "scales": scales,
        "faults": faults,
        "jobs": args.jobs,
        "build_jobs": args.build_jobs,
        "cpu_count": available_cpus(),
        "cells": len(report.cells),
        "invariants_registered": report.invariants_run,
        "counts": report.counts(),
        "ok": report.ok,
        "shards": report.shards,
        "supervision": _supervision_kwargs(args),
        "total_seconds": round(total, 4),
        "package_version": __version__,
        "python": platform.python_version(),
        "unix_time": int(_time.time()),
    }
    atomic_write_json(args.out, record)
    counts = report.counts()
    print(
        f"Verify: {total:.2f}s wall clock ({len(report.cells)} worlds, "
        f"{report.invariants_run} invariants, jobs={args.jobs}; "
        f"{counts['pass']} pass / {counts['fail']} fail / {counts['skip']} skip)"
    )
    print(f"(wrote {args.out})")
    if not report.ok:
        print(
            "FAIL: matrix nonconformant: " + ", ".join(report.violated()),
            file=sys.stderr,
        )
        return 1
    if args.max_seconds is not None and total > args.max_seconds:
        print(
            f"FAIL: verify matrix took {total:.2f}s > ceiling {args.max_seconds:.2f}s",
            file=sys.stderr,
        )
        return 1
    return 0


# ---------------------------------------------------------------------------
# Streaming service
# ---------------------------------------------------------------------------


def _serve(args):
    """Build/load a world and serve its replay stream over HTTP/JSON."""
    import asyncio

    from repro.stream import serve_world

    world = build_or_load_world(args)
    return asyncio.run(
        serve_world(
            world,
            host=args.host,
            port=args.port,
            skew=args.skew,
            batch=args.batch,
            pace=args.pace,
            keepalive=not args.no_keepalive,
        )
    )


def _stream_query(args):
    """One query against a running ``repro serve`` instance."""
    import json
    import urllib.error
    import urllib.request

    target = f"/query/{args.query}" if args.query not in ("health", "stats") else f"/{args.query}"
    if args.n is not None:
        target += f"?n={args.n}"
    url = args.url.rstrip("/") + target
    try:
        with urllib.request.urlopen(url, timeout=args.timeout) as response:
            body = json.loads(response.read())
    except urllib.error.HTTPError as error:
        print(json.dumps({"status": error.code, "error": json.loads(error.read())}))
        return 1
    except (urllib.error.URLError, OSError) as error:
        print(f"error: cannot reach {url}: {error}", file=sys.stderr)
        return 2
    print(json.dumps(body, indent=2, sort_keys=True))
    return 0


def _bench_serve(args):
    """Hammer an in-process service; write the BENCH_serve.json record.

    The serve analogue of ``bench-pipeline``: ``--clients`` concurrent
    simulated clients x ``--requests`` queries each against a service
    ingesting the world's replay, recording queries/sec, ingest
    records/sec, latency percentiles, and peak RSS.  ``--warmup`` runs
    prime caches and the allocator; ``--repeats`` measured runs are all
    recorded and the best (by queries/sec) becomes the headline — this
    box shares cores, so single runs are too noisy to gate on.
    ``--max-p95-ms``, ``--min-ingest-rps`` and ``--max-seconds`` turn it
    into a CI perf gate (exit 1 on breach).
    """
    import time as _time

    from repro.stream import run_loadgen
    from repro.util.io import atomic_write_json
    from repro.util.pool import pool_provenance

    params = _world_params(args)
    world = build_or_load_world(args)

    def one_run():
        return run_loadgen(
            world,
            clients=args.clients,
            requests=args.requests,
            batch=args.batch,
            pace=args.pace,
            keepalive=not args.no_keepalive,
        )

    started = _time.monotonic()
    for _ in range(max(0, args.warmup)):
        one_run()
    runs = [one_run() for _ in range(max(1, args.repeats))]
    total = _time.monotonic() - started
    result = max(runs, key=lambda r: r["queries_per_second"])
    self_mb, children_mb = _peak_rss_mb()
    record = _provenance(args, params)
    record.update(result)
    record["total_seconds"] = round(total, 4)
    record["warmup_runs"] = max(0, args.warmup)
    record["runs"] = [
        {
            "queries_per_second": r["queries_per_second"],
            "ingest_records_per_second": r["ingest"]["records_per_second"],
            "p95_ms": r["latency_ms"]["p95"],
            "best": r is result,
        }
        for r in runs
    ]
    record["memory"] = {
        "peak_rss_mb": round(self_mb + children_mb, 2),
        "self_mb": self_mb,
        "children_mb": children_mb,
    }
    record["pool"] = pool_provenance()
    atomic_write_json(args.out, record)
    p95 = result["latency_ms"]["p95"]
    ingest_rps = result["ingest"]["records_per_second"]
    print(
        f"bench-serve: {result['queries_per_second']} q/s, "
        f"{ingest_rps} rec/s ingest, "
        f"p50 {result['latency_ms']['p50']} ms, p95 {p95} ms "
        f"({result['requests_ok']}/{result['requests_total']} ok, "
        f"best of {len(runs)}) -> {args.out}"
    )
    failed = []
    if result["requests_failed"]:
        failed.append(f"{result['requests_failed']} requests failed")
    if not result["ingest"]["balanced"]:
        failed.append("ingest accounting unbalanced")
    if args.max_p95_ms is not None and (p95 is None or p95 > args.max_p95_ms):
        failed.append(f"p95 {p95} ms > ceiling {args.max_p95_ms} ms")
    if args.min_ingest_rps is not None and ingest_rps < args.min_ingest_rps:
        failed.append(
            f"ingest {ingest_rps} rec/s < floor {args.min_ingest_rps} rec/s"
        )
    if args.max_seconds is not None and total > args.max_seconds:
        failed.append(f"took {total:.2f}s > ceiling {args.max_seconds:.2f}s")
    if failed:
        print("FAIL: " + "; ".join(failed), file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _quality(ctx):
    from repro.analysis import quality_report

    report = quality_report(ctx.world, parsed_samples=ctx.parsed_samples())
    print(report.render())
    return 0 if report.ok else 1


def _parse_list(text, convert, what):
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            values.append(convert(part))
        except ValueError:
            raise CliError(f"bad {what} {part!r} in {text!r}")
    if not values:
        raise CliError(f"no {what}s in {text!r}")
    return values


def _verify_world(args):
    from repro.verify import run_conformance

    seeds = _parse_list(args.seeds, int, "seed")
    scales = _parse_list(args.scales, float, "scale")
    faults = _parse_list(args.faults, str, "fault preset")
    for name in faults:
        try:
            resolve_fault_profile(name)  # fail fast on typos, before any build
        except KeyError as error:
            raise CliError(str(error).strip("'\""))

    def progress(message):
        if not args.quiet:
            print(f"[verify] {message}", file=sys.stderr)

    report = run_conformance(
        seeds,
        scales,
        faults,
        progress=progress,
        jobs=args.jobs,
        build_jobs=args.build_jobs,
        **_supervision_kwargs(args),
    )
    if args.report:
        from repro.util.io import atomic_write_text

        atomic_write_text(args.report, report.to_json() + "\n")
        progress(f"wrote {args.report}")
    print(report.render())
    return 0 if report.ok else 1


def _verify_manifest(args):
    from repro.verify import (
        build_manifest,
        diff_manifest,
        load_manifest,
        write_manifest,
    )

    def progress(message):
        if not args.quiet:
            print(f"[manifest] {message}", file=sys.stderr)

    current = build_manifest(progress=progress, jobs=args.jobs)
    if args.write:
        path = write_manifest(current, path=args.manifest)
        print(f"wrote {path} ({len(current['worlds'])} golden worlds)")
        return 0
    try:
        recorded = load_manifest(args.manifest)
    except FileNotFoundError:
        print(
            f"error: no manifest at {args.manifest}; generate one with "
            f"'python -m repro verify-manifest --write'",
            file=sys.stderr,
        )
        return 2
    ok, lines = diff_manifest(recorded, current)
    print("\n".join(lines))
    return 0 if ok else 1


def _add_world_args(parser, scale_list=False):
    parser.add_argument("--seed", type=int, default=2014)
    if scale_list:
        parser.add_argument(
            "--scale",
            type=str,
            default=None,
            metavar="S[,S...]",
            help="overrides --preset; comma-separated values run a scaling sweep",
        )
    else:
        parser.add_argument("--scale", type=float, default=None, help="overrides --preset")
    parser.add_argument("--preset", default="small", choices=sorted(PRESETS))
    parser.add_argument(
        "--faults",
        default="clean",
        choices=sorted(FAULT_PROFILES),
        help="measurement-apparatus fault profile (default: clean)",
    )
    parser.add_argument("--cache", default=None, help="pickle path to cache/reuse the world")
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="persist build progress after every phase; an interrupted build "
        "re-run with the same flags resumes from the last completed phase "
        "(the resumed world is byte-identical to an uninterrupted one)",
    )
    parser.add_argument("--quiet", action="store_true", default=False)
    _add_supervision_args(parser)


def _add_supervision_args(parser):
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill and retry any pooled task that exceeds this wall clock "
        "(default: no per-task timeout)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="pooled attempts per task before the in-process serial fallback "
        "(default: 2 retries after the first attempt)",
    )


def _add_jobs_arg(parser):
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="parse samples and render artifacts over N processes "
        "(output is byte-identical at any N)",
    )


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro", description="Regenerate artifacts of the NTP DDoS paper."
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_summary = subparsers.add_parser("summary", help="headline findings vs the paper")
    _add_world_args(p_summary)
    p_summary.add_argument(
        "--timings", action="store_true", default=False, help="append per-phase build timings"
    )

    p_bench = subparsers.add_parser(
        "bench-build", help="time a world build and write a BENCH_build.json record"
    )
    _add_world_args(p_bench, scale_list=True)
    p_bench.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="shard the build phases over N fork-pool workers "
        "(the world is byte-identical at any N)",
    )
    p_bench.add_argument("--out", default="BENCH_build.json", help="output JSON path")
    p_bench.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="exit nonzero if the build exceeds this wall-clock ceiling (CI smoke)",
    )
    p_bench.add_argument(
        "--max-rss-mb",
        type=float,
        default=None,
        help="exit nonzero if peak RSS (self + children) exceeds this ceiling "
        "(memory-regression tripwire)",
    )

    p_bench_pipe = subparsers.add_parser(
        "bench-pipeline",
        help="time build + parse + serial/parallel render of all artifacts",
    )
    _add_world_args(p_bench_pipe)
    _add_jobs_arg(p_bench_pipe)
    p_bench_pipe.add_argument("--out", default="BENCH_pipeline.json", help="output JSON path")
    p_bench_pipe.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="exit nonzero if the pipeline exceeds this wall-clock ceiling (CI smoke)",
    )
    p_bench_pipe.add_argument(
        "--max-parse-seconds",
        type=float,
        default=None,
        help="exit nonzero if the parse phase alone exceeds this ceiling "
        "(decode-regression tripwire)",
    )
    p_bench_pipe.add_argument(
        "--max-render-seconds",
        type=float,
        default=None,
        help="exit nonzero if the serial render pass exceeds this ceiling "
        "(aggregation-kernel regression tripwire)",
    )
    p_bench_pipe.add_argument(
        "--max-rss-mb",
        type=float,
        default=None,
        help="exit nonzero if peak RSS (self + children) exceeds this ceiling",
    )

    p_bench_verify = subparsers.add_parser(
        "bench-verify",
        help="time the conformance matrix and write a BENCH_verify.json record",
    )
    p_bench_verify.add_argument("--seeds", default="7,2014,99", help="comma-separated seeds")
    p_bench_verify.add_argument(
        "--scales", default="0.0005,0.001", help="comma-separated scales"
    )
    p_bench_verify.add_argument(
        "--faults",
        default="clean,paper",
        help=f"comma-separated fault presets ({', '.join(FAULT_PROFILES)})",
    )
    p_bench_verify.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="build matrix cells over N fork-pool workers",
    )
    p_bench_verify.add_argument(
        "--build-jobs",
        type=int,
        default=1,
        metavar="N",
        help="shard each world build over N workers (compose with --jobs carefully)",
    )
    p_bench_verify.add_argument("--out", default="BENCH_verify.json", help="output JSON path")
    p_bench_verify.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="exit nonzero if the matrix exceeds this wall-clock ceiling (CI smoke)",
    )
    p_bench_verify.add_argument("--quiet", action="store_true", default=False)
    _add_supervision_args(p_bench_verify)

    p_figure = subparsers.add_parser("figure", help="render figures F1..F16")
    p_figure.add_argument("ids", nargs="+", metavar="F#")
    _add_world_args(p_figure)
    _add_jobs_arg(p_figure)

    p_table = subparsers.add_parser("table", help="render tables T1..T6")
    p_table.add_argument("ids", nargs="+", metavar="T#")
    _add_world_args(p_table)
    _add_jobs_arg(p_table)

    p_render = subparsers.add_parser(
        "render", help="render many artifacts (optionally in parallel / to files)"
    )
    p_render.add_argument("ids", nargs="*", metavar="ID", help="artifact ids (or use --all)")
    p_render.add_argument(
        "--all", action="store_true", default=False, help="render every artifact (F1..T6)"
    )
    p_render.add_argument(
        "--out-dir", default=None, metavar="DIR", help="write one DIR/<id>.txt per artifact"
    )
    _add_world_args(p_render)
    _add_jobs_arg(p_render)

    p_validate = subparsers.add_parser("validate", help="§4.4 cross-dataset validation")
    _add_world_args(p_validate)

    p_quality = subparsers.add_parser(
        "quality", help="per-dataset loss/outage/parse-failure accounting"
    )
    _add_world_args(p_quality)

    p_verify = subparsers.add_parser(
        "verify-world",
        help="run the registered conformance invariants over a seed x scale x fault matrix",
    )
    p_verify.add_argument("--seeds", default="7,2014,99", help="comma-separated seeds")
    p_verify.add_argument("--scales", default="0.0005,0.001", help="comma-separated scales")
    p_verify.add_argument(
        "--faults",
        default="clean,paper",
        help=f"comma-separated fault presets ({', '.join(FAULT_PROFILES)})",
    )
    p_verify.add_argument(
        "--report", default=None, metavar="JSON", help="write the machine-readable report here"
    )
    p_verify.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="build matrix cells over N fork-pool workers "
        "(the report is identical at any N)",
    )
    p_verify.add_argument(
        "--build-jobs",
        type=int,
        default=1,
        metavar="N",
        help="shard each world build over N workers; use instead of --jobs "
        "when cells are few but large (the report is identical at any N)",
    )
    p_verify.add_argument("--quiet", action="store_true", default=False)
    _add_supervision_args(p_verify)

    p_manifest = subparsers.add_parser(
        "verify-manifest",
        help="check rendered-artifact checksums against the golden manifest",
    )
    p_manifest.add_argument(
        "--manifest", default="MANIFEST_golden.json", help="manifest path"
    )
    p_manifest.add_argument(
        "--write", action="store_true", default=False, help="regenerate the manifest instead"
    )
    p_manifest.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="parse and render each golden world over N processes",
    )
    p_manifest.add_argument("--quiet", action="store_true", default=False)

    p_serve = subparsers.add_parser(
        "serve",
        help="long-running HTTP/JSON streaming-analysis service over a world's replay",
    )
    _add_world_args(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=0, help="0 binds an ephemeral port (printed on start)"
    )
    p_serve.add_argument(
        "--skew",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="watermark lag: tolerate records up to this far behind the stream head",
    )
    p_serve.add_argument(
        "--batch",
        type=int,
        default=256,
        metavar="N",
        help="records ingested per event-loop turn (queries interleave between batches)",
    )
    p_serve.add_argument(
        "--pace",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="sleep between ingest batches (0 = ingest as fast as the loop allows)",
    )
    p_serve.add_argument(
        "--no-keepalive",
        action="store_true",
        default=False,
        help="close every connection after one response (HTTP/1.0 behaviour)",
    )

    p_squery = subparsers.add_parser(
        "stream-query", help="query a running 'repro serve' instance"
    )
    p_squery.add_argument(
        "query",
        help="query name (victims, top_victims, scanners, traffic, ingest, ...) "
        "or 'health'/'stats'",
    )
    p_squery.add_argument("--url", default="http://127.0.0.1:8123", help="service base URL")
    p_squery.add_argument("--n", type=int, default=None, help="top-K size for top_* queries")
    p_squery.add_argument("--timeout", type=float, default=10.0)

    p_bench_serve = subparsers.add_parser(
        "bench-serve",
        help="load-test the streaming service, write BENCH_serve.json",
    )
    _add_world_args(p_bench_serve)
    p_bench_serve.add_argument("--clients", type=int, default=8, metavar="N")
    p_bench_serve.add_argument(
        "--requests", type=int, default=25, metavar="N", help="queries per client"
    )
    p_bench_serve.add_argument("--batch", type=int, default=512, metavar="N")
    p_bench_serve.add_argument("--pace", type=float, default=0.0, metavar="SECONDS")
    p_bench_serve.add_argument(
        "--no-keepalive",
        action="store_true",
        default=False,
        help="one connection per request: measures the keep-alive win",
    )
    p_bench_serve.add_argument(
        "--warmup",
        type=int,
        default=1,
        metavar="N",
        help="unrecorded priming runs before the measured ones",
    )
    p_bench_serve.add_argument(
        "--repeats",
        type=int,
        default=3,
        metavar="N",
        help="measured runs; all are recorded, the best becomes the headline",
    )
    p_bench_serve.add_argument("--out", default="BENCH_serve.json")
    p_bench_serve.add_argument(
        "--max-p95-ms",
        type=float,
        default=None,
        help="exit 1 if p95 query latency exceeds this many milliseconds",
    )
    p_bench_serve.add_argument(
        "--min-ingest-rps",
        type=float,
        default=None,
        help="exit 1 if ingest records/sec falls below this floor",
    )
    p_bench_serve.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="exit 1 if the whole exercise exceeds this wall clock",
    )

    subparsers.add_parser("list", help="list artifacts and presets")

    args = parser.parse_args(argv)

    if args.command == "list":
        print("Artifacts:")
        for key, (description, _) in ARTIFACTS.items():
            print(f"  {key:>3}  {description}")
        print("Presets:")
        for preset in PRESETS.values():
            print(f"  {preset.name:>8}  scale={preset.scale}  {preset.description}")
        return 0

    if args.command == "bench-build":
        try:
            return _bench_build(args)
        except CliError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if args.command == "bench-pipeline":
        return _bench_pipeline(args)
    if args.command == "bench-verify":
        try:
            return _bench_verify(args)
        except CliError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if args.command == "verify-world":
        try:
            return _verify_world(args)
        except CliError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if args.command == "verify-manifest":
        return _verify_manifest(args)
    if args.command == "serve":
        try:
            return _serve(args)
        except CliError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if args.command == "stream-query":
        return _stream_query(args)
    if args.command == "bench-serve":
        try:
            return _bench_serve(args)
        except CliError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2

    if args.command == "render":
        if args.all:
            if args.ids:
                print("error: pass artifact ids or --all, not both", file=sys.stderr)
                return 2
            args.ids = list(ARTIFACTS)
        elif not args.ids:
            print("error: no artifacts requested (pass ids or --all)", file=sys.stderr)
            return 2

    if args.command in ("figure", "table", "render"):
        # Validate ids before spending minutes building a world.
        unknown = [i for i in args.ids if i.upper() not in ARTIFACTS]
        if unknown:
            print(
                f"error: unknown artifact id(s) {', '.join(map(repr, unknown))}; "
                f"choose from {', '.join(sorted(ARTIFACTS))}",
                file=sys.stderr,
            )
            return 2

    try:
        world = build_or_load_world(args)
    except CliError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    context = AnalysisContext(world, jobs=getattr(args, "jobs", 1))
    if args.command == "summary":
        print(world.summary(include_timings=args.timings, context=context))
    elif args.command in ("figure", "table", "render"):
        outputs = render_many(
            world, args.ids, jobs=args.jobs, context=context, runner=_make_runner(args.jobs, args)
        )
        _emit_artifacts(args.ids, outputs, out_dir=getattr(args, "out_dir", None))
    elif args.command == "validate":
        print(_validate(context))
    elif args.command == "quality":
        return _quality(context)
    return 0


if __name__ == "__main__":
    sys.exit(main())
