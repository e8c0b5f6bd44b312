"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps every
function that `perfbench/tracing.py` lists in TARGETS, looking each one up
with getattr.  Renaming one of them in the package would break the traced
run, so this test resolves every target against quiverepi.  The tracer is
loaded by path and only read; it imports nothing but the standard library."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS, module.LAYERS


TARGETS, LAYERS = load_targets()


@pytest.mark.parametrize("module, path, span", TARGETS, ids=[t[2] for t in TARGETS])
def test_target_resolves(module, path, span):
    owner = importlib.import_module(f"quiverepi.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
    assert span.split(".")[0] in LAYERS
