"""quiverepi benchmark: time to verdict on four CLI workloads.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  For one workload it draws the inputs from
--seed (workloads.py), then starts the workload process (worker.py)
SETUP_REPEATS times: each start is timed from spawn to "inputs ready", and
the last one goes on to run timed calls for --seconds.
Then it checks the first call's outputs against computations of its own
(checks.py, which loads sympy only here, after the workload process has
ended) and prints one JSON object as the last line:

    {"correct": ..., "attempted": calls, "failed": calls, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (call_s_p50,
call_cpu_s_p50, setup_s, peak_rss_mib); with --trace 1 the calls run under
the span tracer and the metrics are the per-layer ones listed in
BENCHMARK.json.  Results go to .perfbench/results/, work files to
.perfbench/work/ (removed at the end).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 11
# allowed past --seconds: set-up plus the last call, which may run past the end
WORKER_SLACK_S = 120

END_TO_END_UNITS = {"call_s_p50": "s", "call_cpu_s_p50": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class BenchError(Exception):
    pass


def per_layer_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def start_worker(args, plan: Path, workdir: Path, result: Path | None) -> tuple[subprocess.Popen, float]:
    """Spawn the workload process; return it and its seconds to 'ready'."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--plan", str(plan), "--workdir", str(workdir),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--result", str(result)] if result else ["--setup-only"]
    if result and args.trace:
        cmd += ["--spans", str(result.parent / f"{result.name.split('.')[0]}.spans.json")]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"workload process failed in set-up (exit {proc.returncode})")
    return proc, ready


def finish(proc: subprocess.Popen, seconds: float) -> None:
    try:
        proc.wait(timeout=seconds + WORKER_SLACK_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("workload process timed out") from None
    proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}")


def run_workload(args) -> dict:
    import workloads

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    raw = results / f"{tag}.raw.json"
    wl = workloads.build(args.workload, args.seed)
    plan = work / "plan.json"
    try:
        work.mkdir(parents=True, exist_ok=True)
        plan.write_text(json.dumps(wl.plan()), encoding="utf-8")
        setups = []
        for k in range(SETUP_REPEATS - 1):
            proc, ready = start_worker(args, plan, work / f"setup{k}", None)
            finish(proc, 0)
            setups.append(ready)
        proc, ready = start_worker(args, plan, work / "run", raw)
        finish(proc, args.seconds)
        setups.append(ready)
        data = json.loads(raw.read_text(encoding="utf-8"))
        setup_homs = {}
        for argv in wl.setup_builds:
            name = argv[argv.index("--out") + 1]
            setup_homs[name] = (work / "run" / name).read_text(encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    import checks

    problems = checks.check_call(wl, data["first"], data["first_files"], setup_homs)
    calls = data["calls"]
    attempted = len(calls)
    # a call fails when its output differs from the first call's, or when it
    # equals a first output that the checks reject
    failed = sum(1 for c in calls if not c["same_as_first"] or problems)
    if args.trace:
        spec = per_layer_spec()
        traced = data["trace"]["metrics"]
        metrics = {name: {"value": traced[name], "unit": unit} for name, unit in spec.items()}
    else:
        values = {
            "call_s_p50": statistics.median(c["wall_s"] for c in calls),
            "call_cpu_s_p50": statistics.median(c["cpu_s"] for c in calls),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": data["peak_rss_kib"] / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    summary = {"correct": not problems, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    detail = dict(summary, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  problems=problems, setups_s=setups, calls=calls)
    if args.trace:
        detail["trace"] = data["trace"]
    (results / f"{tag}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    raw.unlink()
    for p in problems[:20]:
        print(f"problem: {p}")
    return summary


def main() -> int:
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "quiverepi" / "cli.py").is_file():
        print(f"error: no quiverepi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = {}
    for name in names:
        args.workload = name
        try:
            summaries[name] = summary = run_workload(args)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(f"{name}: attempted {summary['attempted']} failed {summary['failed']} "
              f"correct {summary['correct']}")
        for metric, m in summary["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(summaries if len(names) > 1 else summaries[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
