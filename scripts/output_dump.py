"""Dump every CLI output of the benchmark workloads to one JSON file.

    python3 scripts/output_dump.py OUT.json

Runs each workload of perfbench/workloads.py (seed 1, and seed 7 as well
for `rep-check`, the only seed-dependent workload) through
`quiverepi.cli.main` in a fresh temporary directory: first its set-up
builds, then its call's ops.  For every op it records the exit code,
stdout and stderr, and after each workload the text of every hom file it
wrote.  The result is written with sorted keys, so the dumps of two
checkouts can be compared byte for byte to show that a change keeps every
output.  quiverepi is imported from the checkout that holds this script.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = [("glue6-verify", 1), ("nonepi-verify", 1), ("rep-check", 1), ("rep-check", 7),
        ("catalogue-verify", 1)]


def run_op(main, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def dump_workload(main, plan: dict) -> dict:
    """Run one plan in a temporary directory; its op outputs and hom files."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in plan["files"].items():
                Path(name).write_text(text, encoding="utf-8")
            ops = [run_op(main, argv) for argv in plan["setup_builds"] + plan["ops"]]
            homs = {p.name: p.read_text(encoding="utf-8")
                    for p in sorted(Path(tmp).glob("*.hom.json"))}
        finally:
            os.chdir(cwd)
    return {"ops": ops, "hom_files": homs}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 scripts/output_dump.py OUT.json", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from quiverepi import cli
    from workloads import build

    dump = {f"{name} seed {seed}": dump_workload(cli.main, build(name, seed).plan())
            for name, seed in RUNS}
    Path(argv[0]).write_text(json.dumps(dump, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
