"""Tumbling sim-time windows with watermark-based late-record accounting.

The engine's memory contract is per-window, not per-stream: exact state
(sets, counters, per-window parse stats) lives only while a window is
*open*; once the watermark passes a window's end the window is finalized
into a small summary dict and its exact state is freed.  Cross-window
heavy-hitter questions are answered by the sketches, never by keeping
every window's raw state.

Accounting mirrors the :class:`~repro.analysis.monlist_parse.ParseStats`
discipline: a record is never silently skipped.  Every offered record
lands in exactly one of four ledgers — ``applied``, ``late`` (its window
ended at or before the watermark), ``duplicate`` (same uid seen in the
same open window), or ``early_buffered`` is deliberately *not* a state
(tumbling windows accept any future time; there is no out-of-range) —
and ``total == applied + late + duplicate`` is an engine invariant the
tests and the conformance harness both assert.

Lateness is defined by the watermark alone, not by whether the window
ever held state: a record whose window end the watermark has already
passed is late even when no earlier record opened that window.  The
distinction only matters for out-of-order streams, where it keeps a
record's verdict a function of its time and the watermark alone.
"""

from __future__ import annotations

import math

__all__ = ["TumblingWindows", "WindowSet"]


class TumblingWindows:
    """Pure window arithmetic: fixed ``width``, aligned to ``origin``."""

    __slots__ = ("width", "origin")

    def __init__(self, width, origin=0.0):
        if not width > 0:
            raise ValueError("window width must be positive")
        self.width = float(width)
        self.origin = float(origin)

    def index_of(self, t):
        """The window index holding event time ``t`` (floor semantics).

        The division is self-correcting: when ``t`` sits within one ulp
        of a boundary the float quotient can round across it, so the
        result is nudged until ``lo <= t < hi`` actually holds — the
        containment property the window tests pin exactly.
        """
        t = float(t)
        origin, width = self.origin, self.width
        index = math.floor((t - origin) / width)
        if t < origin + index * width:
            index -= 1
        elif t >= origin + (index + 1) * width:
            index += 1
        return index

    def bounds(self, index):
        """``[lo, hi)`` of window ``index``.

        ``hi`` is computed as the *next* window's ``lo`` (not ``lo +
        width``), so adjacent windows tile the line exactly under float
        rounding — no time can fall between or inside two windows.
        """
        return (
            self.origin + index * self.width,
            self.origin + (index + 1) * self.width,
        )

    def contains(self, index, t):
        lo, hi = self.bounds(index)
        return lo <= t < hi


class _OpenWindow:
    __slots__ = ("state", "seen", "records")

    def __init__(self, state):
        self.state = state
        self.seen = set()
        self.records = 0


class WindowSet:
    """Windowed state for one record kind, driven by a shared watermark.

    ``state_factory()`` builds a fresh per-window mutable state;
    ``finalize(index, lo, hi, state, records)`` condenses it into the
    summary dict retained after close.  ``offer`` returns the open
    window's state when the record should be applied, or ``None`` when it
    was accounted as late/duplicate instead.
    """

    __slots__ = ("windows", "_factory", "_finalize", "_on_close", "open", "closed", "total", "applied", "late", "duplicate", "late_uids", "_next_close", "_closed_rows", "_open_summaries")

    #: How many late-record uids to retain verbatim for forensics (the
    #: counters are complete either way).
    LATE_UID_KEEP = 32

    def __init__(self, width, origin=0.0, state_factory=dict, finalize=None, on_close=None):
        self.windows = TumblingWindows(width, origin=origin)
        self._factory = state_factory
        # finalize must be PURE: summaries() also runs it on still-open
        # windows for mid-window reads.  Side effects that must happen
        # exactly once per window belong in on_close.
        self._finalize = finalize or (lambda index, lo, hi, state, records: dict(state))
        self._on_close = on_close
        self.open = {}
        self.closed = {}
        self.total = 0
        self.applied = 0
        self.late = 0
        self.duplicate = 0
        self.late_uids = []
        # Advance fast path: the earliest open-window end, so the per-
        # record watermark sweep is one comparison when nothing closes.
        # None means "unknown — scan"; scanning an empty set yields inf.
        self._next_close = None
        # Read-side memoization: closed windows are immutable, so their
        # summary rows are built once; an open window's summary is reused
        # until another record lands in it (its ``records`` count moves).
        self._closed_rows = None
        self._open_summaries = {}

    # -- ingest ------------------------------------------------------------

    def offer(self, t, uid, watermark):
        """Account one record; return its window state iff it applies."""
        return self.offer_at(self.windows.index_of(t), uid, watermark)

    def offer_at(self, index, uid, watermark):
        """:meth:`offer` with the window index already computed (the
        engine reuses the index for capture-buffer bookkeeping)."""
        self.total += 1
        window = self.open.get(index)
        if window is None:
            w = self.windows
            if index in self.closed or (
                watermark is not None
                and w.origin + (index + 1) * w.width <= watermark
            ):
                self.late += 1
                if len(self.late_uids) < self.LATE_UID_KEEP:
                    self.late_uids.append(uid)
                return None
            window = _OpenWindow(self._factory())
            self.open[index] = window
            hi = w.origin + (index + 1) * w.width
            if self._next_close is not None and hi < self._next_close:
                self._next_close = hi
        if uid is not None:
            if uid in window.seen:
                self.duplicate += 1
                return None
            window.seen.add(uid)
        window.records += 1
        self.applied += 1
        return window.state

    def advance(self, watermark):
        """Close every open window whose end the watermark has passed.

        One comparison against the cached earliest open end in the
        common nothing-to-close case — this runs on every watermark
        move, i.e. nearly every record of a time-sorted stream.
        """
        nxt = self._next_close
        if nxt is not None and watermark < nxt:
            return
        nxt = math.inf
        for index in sorted(self.open):
            lo, hi = self.windows.bounds(index)
            if watermark < hi:
                if hi < nxt:
                    nxt = hi
                continue
            self._close(index, lo, hi)
        self._next_close = nxt

    def close_all(self):
        """End of stream: finalize everything still open."""
        for index in sorted(self.open):
            lo, hi = self.windows.bounds(index)
            self._close(index, lo, hi)
        self._next_close = math.inf

    def _close(self, index, lo, hi):
        window = self.open.pop(index)
        if self._on_close is not None:
            self._on_close(window.state)
        self.closed[index] = self._finalize(index, lo, hi, window.state, window.records)
        self._closed_rows = None
        self._open_summaries.pop(index, None)

    # -- views -------------------------------------------------------------

    def summaries(self, include_open=True):
        """``[(index, lo, hi, summary, is_open)]`` ascending by window.

        Open windows are summarized through the same ``finalize`` hook on
        a *copy*-free read — the mid-window answer the service serves —
        without mutating or closing them.
        """
        rows = self._closed_rows
        if rows is None or len(rows) != len(self.closed):
            rows = []
            for index in sorted(self.closed):
                lo, hi = self.windows.bounds(index)
                rows.append((index, lo, hi, self.closed[index], False))
            self._closed_rows = rows
        out = list(rows)
        if include_open:
            memo = self._open_summaries
            for index in sorted(self.open):
                window = self.open[index]
                cached = memo.get(index)
                if cached is not None and cached[0] == window.records:
                    out.append(cached[1])
                    continue
                lo, hi = self.windows.bounds(index)
                row = (index, lo, hi, self._finalize(index, lo, hi, window.state, window.records), True)
                memo[index] = (window.records, row)
                out.append(row)
        return out

    def accounting(self):
        return {
            "total": self.total,
            "applied": self.applied,
            "late": self.late,
            "duplicate": self.duplicate,
            "open_windows": len(self.open),
            "closed_windows": len(self.closed),
            "late_uids": list(self.late_uids),
        }

    @property
    def balanced(self):
        """The no-record-unaccounted invariant."""
        return self.total == self.applied + self.late + self.duplicate
