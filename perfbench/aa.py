"""A/A steadiness: two alternating sets of runs of one checkout.

    python3 perfbench/aa.py --runs 10

Every run is a run.py run of --seconds run_seconds from BENCHMARK.json, the
run length the bounds there apply to.  Round i runs every workload once for set A (seed i + 1) and once for set B
(seed i + 101), with A first in even rounds and B first in odd ones.  For
each workload and end-to-end metric it prints each set's median, its
spread (distance between the first and third quartile as a share of the
median, as statistics.quantiles(values, n=4) gives them) and the shift of
B's median against A's.  These figures set the bounds in BENCHMARK.json.
All runs are stored in .perfbench/aa-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args()
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    runs = {s: {w: [] for w in names} for s in "AB"}
    for i in range(args.runs):
        for s in ("AB" if i % 2 == 0 else "BA"):
            seed = i + 1 if s == "A" else i + 101
            for w in names:
                result = run_once(w, seed, seconds)
                runs[s][w].append(result)
                print(f"round {i} set {s} {w} seed {seed}: "
                      + " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items())
                      + f" attempted={result['attempted']} failed={result['failed']}"
                      + f" correct={result['correct']}", flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"\n{'workload':18} {'metric':15} {'A median':>10} {'A spread':>9} "
          f"{'B median':>10} {'B spread':>9} {'B/A-1':>7} {'bound':>6}")
    for w in names:
        for metric, bound in bounds.items():
            a = [r["metrics"][metric]["value"] for r in runs["A"][w]]
            b = [r["metrics"][metric]["value"] for r in runs["B"][w]]
            ma, mb = statistics.median(a), statistics.median(b)
            sa = spread(a) if len(a) > 1 else float("nan")
            sb = spread(b) if len(b) > 1 else float("nan")
            print(f"{w:18} {metric:15} {ma:10.5g} {sa:9.3f} {mb:10.5g} {sb:9.3f} "
                  f"{mb / ma - 1:7.3f} {bound:6.2f}")
        for s in "AB":
            att = sum(r["attempted"] for r in runs[s][w])
            fail = sum(r["failed"] for r in runs[s][w])
            print(f"{w:18} set {s}: attempted {att} failed {fail} "
                  f"all correct {all(r['correct'] for r in runs[s][w])}")
    out = ROOT / ".perfbench" / f"aa-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seconds": seconds, "runs": runs}, indent=1), encoding="utf-8")
    print(f"\nruns stored in {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
