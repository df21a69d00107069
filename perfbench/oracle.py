"""Correctness oracles: what a right answer looks like for each stage.

* Paper reproduction: all 22 artifacts written, cold and warm outputs
  byte-identical, and the golden cells re-rendered to the checksums in
  ``MANIFEST_golden.json``.
* Stream answers (replay passes and the live service): the final
  windows equal the batch adapters of :mod:`repro.analysis.queries` —
  capture windows and ParseStats exactly, darknet and traffic series
  exactly, ISP bytes within ``ISP_REL_TOL`` — and the ingest ledger
  balances with no late record and exactly the injected redeliveries
  counted as duplicates.

Each check returns a list of problems; an empty list is a pass.  The
batch side is computed once per world, outside any timed region.
"""

import os

__all__ = [
    "ARTIFACT_IDS",
    "ISP_REL_TOL",
    "artifact_problems",
    "missing_problems",
    "batch_answers",
    "engine_answers",
    "golden_problems",
    "stream_problems",
]

ARTIFACT_IDS = tuple(f"F{i}" for i in range(1, 17)) + tuple(f"T{i}" for i in range(1, 7))

#: Same addends, another summation order: a reordered feed moves the ISP
#: byte sums by an ulp or so.
ISP_REL_TOL = 1e-9

_CAPTURE_KEYS = (
    "captures",
    "amplifiers",
    "victim_pairs",
    "unique_victims",
    "victim_packets",
    "scanner_entries",
    "non_victim_entries",
    "median_view_hours",
)


def _read_artifacts(directory):
    out = {}
    for artifact_id in ARTIFACT_IDS:
        path = os.path.join(directory, f"{artifact_id}.txt")
        try:
            with open(path, "rb") as handle:
                out[artifact_id] = handle.read()
        except FileNotFoundError:
            pass
    return out


def _missing(label, found):
    missing = [a for a in ARTIFACT_IDS if a not in found]
    return [f"{label} is missing {len(missing)} artifacts: {missing[:4]}"] if missing else []


def missing_problems(directory):
    """Problems with ``directory`` as a render's output: missing artifacts."""
    return _missing("output", _read_artifacts(directory))


def artifact_problems(reference_dir, candidate_dir):
    """Problems with ``candidate_dir`` measured against ``reference_dir``:
    missing artifacts in either, or any byte that differs."""
    reference = _read_artifacts(reference_dir)
    candidate = _read_artifacts(candidate_dir)
    problems = _missing("reference", reference) + _missing("candidate", candidate)
    for artifact_id in ARTIFACT_IDS:
        if artifact_id in reference and artifact_id in candidate:
            if reference[artifact_id] != candidate[artifact_id]:
                problems.append(f"{artifact_id} differs between runs")
    return problems


def golden_problems(recorded, current):
    """Problems found by diffing re-rendered golden cells against the
    recorded manifest (``repro.verify.manifest.diff_manifest``)."""
    from repro.verify.manifest import diff_manifest

    ok, lines = diff_manifest(recorded, current)
    return [] if ok else [line for line in lines if "byte-identical" not in line]


def batch_answers(world, plan):
    """The batch pipeline's answers for ``world``, keyed like the engine's.

    Capture rows are keyed by the window index their sample time falls
    in, computed with the same tiling the engine uses.
    """
    from repro.analysis import queries
    from repro.analysis.context import AnalysisContext
    from repro.stream.windows import TumblingWindows

    tiling = TumblingWindows(plan["capture_width"], origin=plan["capture_origin"])
    capture = {}
    stats = {}
    for row in queries.capture_window_answers(AnalysisContext(world)):
        capture[tiling.index_of(row["t"])] = row
        for name, value in row["stats"].items():
            stats[name] = stats.get(name, 0) + value
    return {
        "capture": capture,
        "parse_stats": stats,
        "scanners": {int(d): c for d, c in queries.daily_scanner_counts(world).items()},
        "traffic": queries.daily_traffic_answers(world),
        "isp": queries.isp_day_answers(world),
        "expected": dict(plan["expected"]),
    }


def engine_answers(engine, queried=None):
    """The final answers of a closed :class:`StreamEngine`, in the shape
    :func:`stream_problems` compares.  ``queried`` reuses answers already
    fetched through ``engine.query`` (the replay pass times those)."""
    queried = queried or {}

    def query(name):
        return queried[name] if name in queried else engine.query(name)

    return {
        "capture": {row["window"]: row for row in query("victims")["windows"]},
        "parse_stats": dict(query("parse_stats")),
        "scanners": {row["window"]: row["scanners"] for row in query("scanners")["windows"]},
        "traffic": {
            row["window"]: (row["ntp_frac"], row["dns_frac"])
            for row in query("traffic")["windows"]
        },
        "isp": {i: dict(s) for i, _lo, _hi, s, _open in engine.windows["isp"].summaries()},
        "ingest": query("ingest"),
    }


def stream_problems(batch, answers, redelivered=0):
    """Problems with a stream's final ``answers`` against ``batch``."""
    problems = []

    ingest = answers["ingest"]
    if not ingest["balanced"]:
        problems.append("ingest ledger unbalanced")
    duplicates = 0
    for kind, acc in ingest["kinds"].items():
        duplicates += acc["duplicate"]
        if acc["late"]:
            problems.append(f"{acc['late']} late {kind} records")
        applied = acc["total"] - acc["duplicate"]
        if applied != batch["expected"].get(kind, 0):
            problems.append(
                f"{kind}: {applied} distinct records applied, "
                f"{batch['expected'].get(kind, 0)} expected"
            )
    if duplicates != redelivered:
        problems.append(f"{duplicates} duplicates counted, {redelivered} redelivered")

    stream_rows = dict(answers["capture"])
    for index, batch_row in batch["capture"].items():
        stream_row = stream_rows.pop(index, None)
        if stream_row is None:
            if batch_row["captures"]:
                problems.append(f"capture window {index} missing")
            continue
        for key in _CAPTURE_KEYS:
            if stream_row[key] != batch_row[key]:
                problems.append(
                    f"capture window {index} {key}: {stream_row[key]} != {batch_row[key]}"
                )
        if stream_row["stats"] != batch_row["stats"]:
            problems.append(f"capture window {index} parse stats differ")
    for index in stream_rows:
        problems.append(f"capture window {index} matches no batch sample")
    if answers["parse_stats"] != batch["parse_stats"]:
        problems.append("stream-global parse stats differ")

    if answers["scanners"] != batch["scanners"]:
        problems.append("darknet daily scanner counts differ")
    if answers["traffic"] != batch["traffic"]:
        problems.append("daily traffic fractions differ")

    if set(answers["isp"]) != set(batch["isp"]):
        problems.append("ISP day coverage differs")
    for day in set(answers["isp"]) & set(batch["isp"]):
        s, b = answers["isp"][day], batch["isp"][day]
        if s["cells"] != b["cells"] or s["victims"] != b["victims"]:
            problems.append(f"ISP day {day} cell/victim counts differ")
        elif abs(s["bytes"] - b["bytes"]) > ISP_REL_TOL * max(1.0, abs(b["bytes"])):
            problems.append(f"ISP day {day} bytes beyond {ISP_REL_TOL:g} relative")
    return problems
