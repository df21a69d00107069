"""Host speed reference: timings reported at a fixed host speed.

Shared hosts drift: on the 2-CPU Xeon this benchmark was built on, a
fixed pure-Python loop took 17.2 ms in quiet phases and 24.7 ms in busy
ones, switching every few tens of seconds — a 1.4x swing that no amount
of repetition inside one run averages away, because a phase outlasts a
run's stages.  A replay pass is short enough to sit inside one phase,
so each pass is bracketed by probes and its time is reported as
``seconds * NOMINAL_S / probe``: the time the pass would have taken with
the host running the reference loop in ``NOMINAL_S``.  Operations of
several seconds are not scaled: the probes at their two ends often fall
in different phases, and scaling them by any probe widened their spread.

The probes run in the replay process itself, right around the pass, while
the program is idle: the pass's engine and answers are dropped first,
and the loop allocates no container, so it triggers no collection of
the program's heap.  Probes in a separate process were tried: on a 2-CPU
VM they often read the other CPU's speed, and over five runs the spread
of the scaled replay rate rose to 0.14 of its median, against 0.12 for
the unscaled rate of the same runs.
"""

import time

__all__ = ["NOMINAL_S", "probe", "scale"]

#: The reference loop's time on the quiet host: the speed timings are
#: reported at.
NOMINAL_S = 0.0172

_ITERATIONS = 300_000


def _loop():
    t0 = time.perf_counter()
    total = 0
    for i in range(_ITERATIONS):
        total += i * i
    return time.perf_counter() - t0


def probe():
    """Seconds the reference loop takes now (best of three, so an
    interrupt landing in one loop does not count as a slow host)."""
    return min(_loop() for _ in range(3))


def scale(before, after):
    """Factor from wall time to reference-speed time, for an operation
    bracketed by probes reading ``before`` and ``after`` seconds."""
    return NOMINAL_S * 2.0 / (before + after)

