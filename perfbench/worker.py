"""The workload process: set up inputs, then run timed calls in a closed loop.

    python3 perfbench/worker.py --plan <plan.json> --workdir <dir> --setup-only

Started by run.py, once per set-up measurement, with a plan that run.py has
drawn before the start (workloads.Workload.plan), so that drawing inputs is
not set-up time.  It imports quiverepi from the checkout's src/, writes the
workload's quiver and representation files into its work directory, runs
`quiverepi build` for the set-up hom files and prints "ready".  With
--setup-only it stops there.  Otherwise it runs calls, one after another
with one caller, until --seconds have passed; a call is one pass over the
workload's CLI invocations through `quiverepi.cli.main(argv)` in this
process.  It never loads a checking library, so its peak resident memory
is the program's.

The first call's outputs go to the result file for independent checking;
every later call is compared with the first byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_op(main, argv) -> list:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is an output too: the checks reject it
        code = "exception"
        err.write(traceback.format_exc())
    return [code, out.getvalue(), err.getvalue()]


def read_outputs(out_files) -> dict:
    return {name: Path(name).read_text(encoding="utf-8") for name in out_files}


def set_up(plan: dict, workdir: Path):
    """Import quiverepi, write the input files into workdir (the new working
    directory) and run the set-up builds; return the cli module."""
    sys.path.insert(0, str(ROOT / "src"))
    from quiverepi import cli

    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    for name, text in plan["files"].items():
        Path(name).write_text(text, encoding="utf-8")
    for argv in plan["setup_builds"]:
        code, _, err = run_op(cli.main, argv)
        if code != 0:
            raise RuntimeError(f"set-up build {argv} exited {code}:\n{err}")
    return cli


def timed_call(cli, ops, tracer=None) -> tuple:
    """One call: every argv of ops through cli.main, looked up per op so that
    an installed tracer's wrapper is the one called.  Returns its outputs,
    wall and CPU seconds and, under a tracer, its root span "call"."""
    gc.collect()
    root = None
    if tracer is not None:
        root = ["call", 0.0, 0.0, -1]
        tracer.stack.append(len(tracer.spans))
        tracer.spans.append(root)
    c0 = time.process_time()
    t0 = time.perf_counter()
    outputs = [run_op(cli.main, argv) for argv in ops]
    t1 = time.perf_counter()
    c1 = time.process_time()
    if root is not None:
        root[1], root[2] = t0, t1
        tracer.stack.pop()
    return outputs, t1 - t0, c1 - c0, root


def report_counts(outputs) -> dict:
    """Counts read off one call's verify reports."""
    terms = gens = trials = 0
    for code, stdout, _ in outputs:
        try:
            report = json.loads(stdout)
        except ValueError:
            continue
        if report.get("command") in ("build", "check"):
            continue
        gens += len(report.get("ideal_generators", []))
        trials += len(report.get("specialization", {}).get("trials", []))
        for el in report.get("required_elements", []):
            terms += len(el.get("certificate", []))
    return {"freealg.certificate_terms": terms, "epibuild.ideal_generators": gens,
            "epibuild.trials": trials}


def trace_metrics(tracer, traced_calls, outputs, out_bytes) -> tuple[dict, dict]:
    """Per-layer metrics, per call: times are means over the traced calls."""
    from tracing import CONSTRUCT, LAYERS, TARGETS, summarize

    n = len(traced_calls)
    stats = summarize(tracer.spans)

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    m = {}
    for _, _, name in TARGETS:
        m[f"{name}.calls"] = get(name, "calls") // n
        m[f"{name}.self_s"] = get(name, "self_s") / n
    m["epibuild.construct.self_s"] = sum(get(c, "self_s") for c in CONSTRUCT) / n
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, s in stats.items():
        layer = name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += s["self_s"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] / n
    for key in ("exactlin.rref.cells", "quiverrep.hom_basis.unknowns",
                "freealg.IdealSpan.products", "freealg.IdealSpan.resolved"):
        m[key] = tracer.counters.get(key, 0) // n
    m["freealg.IdealSpan.max_degree"] = tracer.counters.get("freealg.IdealSpan.max_degree", -1)
    tries = m["freealg.IdealSpan.try_reduce_to_zero.calls"]
    m["freealg.IdealSpan.resolved_ratio"] = m["freealg.IdealSpan.resolved"] / tries if tries else 0.0
    m.update(report_counts(outputs))
    m["cli.report_bytes"] = out_bytes
    call_s = sum(end - start for _, start, end, _ in traced_calls) / n
    m["trace.call_s"] = call_s
    m["trace.unaccounted_s"] = call_s - sum(layer_self.values()) / n
    return m, stats


def peak_rss_kib() -> int:
    """Peak resident set of this address space.  ru_maxrss is not used: on
    Linux it keeps the peak of the forking parent across exec."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def write_first_call_spans(spans, path: Path) -> None:
    """[name, start_s, end_s, parent] of the first call, times from its start."""
    roots = [i for i, s in enumerate(spans) if s[0] == "call"] + [len(spans)]
    t0 = spans[0][1]
    first = [[name, start - t0, end - t0, parent]
             for name, start, end, parent in spans[roots[0]:roots[1]]]
    path.write_text(json.dumps(first), encoding="utf-8")


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--plan", required=True, help="plan.json written by workloads.Workload.plan")
    p.add_argument("--workdir", required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--result", default=None)
    p.add_argument("--spans", default=None, help="file for the first traced call's spans")
    args = p.parse_args()

    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    try:
        cli = set_up(plan, Path(args.workdir))
    except RuntimeError as exc:
        sys.stderr.write(f"{exc}\n")
        return 3
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    calls, traced_calls = [], []
    first = first_files = None
    t_end = time.perf_counter() + args.seconds
    while True:
        outputs, wall_s, cpu_s, root = timed_call(cli, plan["ops"], tracer)
        if root is not None:
            traced_calls.append(root)
        files = read_outputs(plan["out_files"])
        if first is None:
            first, first_files = outputs, files
        calls.append({"wall_s": wall_s, "cpu_s": cpu_s,
                      "same_as_first": outputs == first and files == first_files})
        if time.perf_counter() >= t_end:
            break
    peak_kib = peak_rss_kib()
    if tracer is not None:
        tracer.uninstall()

    result = {
        "calls": calls,
        "first": first,
        "first_files": first_files,
        "peak_rss_kib": peak_kib,
    }
    if tracer is not None:
        out_bytes = sum(len(o[1].encode()) for o in first) + sum(
            len(t.encode()) for t in first_files.values())
        metrics, stats = trace_metrics(tracer, traced_calls, first, out_bytes)
        result["trace"] = {"metrics": metrics, "spans_by_name": stats,
                           "span_count": len(tracer.spans)}
        write_first_call_spans(tracer.spans, Path(args.spans))
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
