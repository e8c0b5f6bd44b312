"""scripts/output_dump.py, which byte-identity claims rest on, is
deterministic and records every workload op with the exit code it
expects."""

import json
import runpy
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_dump.py"


def expected_code(workload: str, argv: list[str]) -> int:
    """1 for the verifies of the two non-epimorphisms, 0 for every other op."""
    return 1 if workload == "nonepi-verify" and argv[0] == "verify" else 0


def test_dump_is_deterministic_with_expected_exit_codes(tmp_path):
    outs = [tmp_path / "first.json", tmp_path / "second.json"]
    for out in outs:
        subprocess.run([sys.executable, str(SCRIPT), str(out)], check=True)
    first, second = (out.read_bytes() for out in outs)
    assert first == second
    dump = json.loads(first)
    runs = runpy.run_path(str(SCRIPT))["RUNS"]
    assert sorted(dump) == sorted(f"{name} seed {seed}" for name, seed in runs)
    for name, seed in runs:
        ops = dump[f"{name} seed {seed}"]["ops"]
        assert ops
        assert [op["code"] for op in ops] == [expected_code(name, op["argv"]) for op in ops]
