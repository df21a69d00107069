"""Seeded inputs: the out-of-order feed and the live query mix.

Both are pure functions of the seed (and, for the feed, of the world's
replay stream), so two runs with one seed offer the program identical
inputs.
"""

import random

__all__ = [
    "DELAY_BOUND_S",
    "ADHOC_ROUTES",
    "jittered_order",
    "query_mix",
]

#: Largest event-time delay injected into the feed; the engine's skew is
#: set to it, so no delayed record may arrive late.
DELAY_BOUND_S = 3600.0

#: Shares of the feed delayed and redelivered, and of the requests that
#: are ad hoc.
DELAY_SHARE = 0.2
REDELIVER_SHARE = 0.01
ADHOC_SHARE = 0.2

#: Sketch-backed routes the ad-hoc requests draw from, with ``n`` drawn
#: from 1 to ``ADHOC_MAX_N``.
ADHOC_ROUTES = ("top_victims", "top_amplifiers", "top_ases", "top_isp_victims")
ADHOC_MAX_N = 100


def jittered_order(records, seed):
    """The arrival order of ``records`` through a collector with bounded lag.

    A seeded ``DELAY_SHARE`` of records arrive up to ``DELAY_BOUND_S`` of
    event time late; a seeded ``REDELIVER_SHARE`` arrive a second time
    (same uid) no later than that bound.  Returns ``(order,
    redelivered)``: ``[records[i] for i in order]`` is the feed.

    Every arrival key stays strictly below its record's ``t +
    DELAY_BOUND_S``, so with the engine's skew equal to the bound the
    watermark never passes an arriving record's window: the ledger must
    show zero late records and exactly ``redelivered`` duplicates.
    """
    rng = random.Random(f"perfbench-feed-{seed}")
    keyed = []
    redelivered = 0
    for i, record in enumerate(records):
        key = record.t
        if rng.random() < DELAY_SHARE:
            key = record.t + rng.random() * DELAY_BOUND_S
        keyed.append((key, i, 0))
        if rng.random() < REDELIVER_SHARE:
            again = key + rng.random() * (record.t + DELAY_BOUND_S - key)
            keyed.append((again, i, 1))
            redelivered += 1
    keyed.sort()
    return [item[1] for item in keyed], redelivered


def query_mix(seed, count, dashboard):
    """``count`` request targets: the ``dashboard`` targets, plus about
    ``ADHOC_SHARE`` ad-hoc ``/query/top_*?n=k`` requests with varied k."""
    rng = random.Random(f"perfbench-mix-{seed}")
    targets = []
    for _ in range(count):
        if rng.random() < ADHOC_SHARE:
            route = rng.choice(ADHOC_ROUTES)
            targets.append(f"/query/{route}?n={rng.randint(1, ADHOC_MAX_N)}")
        else:
            targets.append(dashboard[rng.randrange(len(dashboard))])
    return targets
