"""Run ``python -m repro ARGS...`` and report the process tree's peak memory.

Usage::

    python3 perfbench/child.py REPORT.json TRACE(0|1) ARGS...

The module runs exactly as ``python -m repro ARGS...`` would.  When it
exits, REPORT.json receives its exit code and the peak resident memory
of this process and of its largest reaped child (the fork-pool workers),
and, with TRACE=1, the spans and counters recorded by
:mod:`tracer` around the program's public calls.
"""

import json
import resource
import runpy
import sys


def main():
    report_path, trace, args = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = None
    if trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    sys.argv = ["repro", *args]
    code = 0
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    report = {
        "code": code,
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        report["trace"] = tracer.take()
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
