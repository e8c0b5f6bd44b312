"""Tracing overhead: untraced and traced calls alternating in one process.

    python3 perfbench/overhead.py

For each workload (seed 1) it sets up the inputs as the workload process
does, then alternates an untraced and a traced call (the order flips every
round) until each mode has at least MIN_CALLS calls and MIN_SECONDS of
call time.  It prints the median call time of each mode, the overhead as
the median over rounds of the traced call's excess over the untraced call
of the same round (which cancels changes of the machine's speed that are
slower than a round) and the spans per traced call.
Traced and untraced calls must give the same outputs.  Work files go to
.perfbench/work/overhead-<workload>/ and are removed at the end.
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys
from pathlib import Path

import workloads
from tracing import Tracer
from worker import set_up, timed_call

ROOT = Path(__file__).resolve().parent.parent
MIN_CALLS = 5
MIN_SECONDS = 30.0


def measure(name: str) -> tuple[float, float, float, int]:
    plan = workloads.build(name, 1).plan()
    work = ROOT / ".perfbench" / "work" / f"overhead-{name}"
    cwd = os.getcwd()
    try:
        cli = set_up(plan, work)
        times = {False: [], True: []}
        first = None
        spans = 0
        i = 0
        while min(len(t) for t in times.values()) < MIN_CALLS or min(
                sum(t) for t in times.values()) < MIN_SECONDS:
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                tracer = Tracer() if traced else None
                if tracer is not None:
                    tracer.install()
                try:
                    outputs, wall_s, _, _ = timed_call(cli, plan["ops"], tracer)
                finally:
                    if tracer is not None:
                        tracer.uninstall()
                        spans = len(tracer.spans)
                if first is None:
                    first = outputs
                elif outputs != first:
                    raise SystemExit(f"{name}: a {'traced' if traced else 'untraced'} call "
                                     "gave other outputs than the first call")
                times[traced].append(wall_s)
            i += 1
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    overhead = statistics.median(t / u - 1 for u, t in zip(times[False], times[True]))
    return statistics.median(times[False]), statistics.median(times[True]), overhead, spans


def main() -> int:
    print(f"{'workload':18} {'untraced_s':>10} {'traced_s':>10} {'overhead':>9} {'spans/call':>10}")
    for name in workloads.WORKLOADS:
        plain, traced, overhead, spans = measure(name)
        print(f"{name:18} {plain:10.4f} {traced:10.4f} {overhead:+9.1%} {spans:10d}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
