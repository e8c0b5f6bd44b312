"""The output checks accept the program's reports and reject corrupted ones.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from quiverepi.cli import main  # noqa: E402


def _run(wl, ops, tmp: Path) -> dict:
    """Write wl's files into tmp, run set-up and ops; outputs and hom files."""
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        for name, text in wl.files().items():
            Path(name).write_text(text)
        for argv in wl.setup_builds:
            assert main(argv) == 0
        outputs = []
        for op in ops:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(op.argv)
            outputs.append([code, out.getvalue(), ""])
        homs = {op.hom: Path(op.hom).read_text() for op in ops if op.hom}
        homs.update({a[a.index("--out") + 1]: Path(a[a.index("--out") + 1]).read_text()
                     for a in wl.setup_builds})
    finally:
        os.chdir(cwd)
    return {"outputs": outputs, "homs": homs}


@pytest.fixture(scope="module")
def verified(tmp_path_factory):
    wl = workloads.build("catalogue-verify", 0)
    ops = [op for op in wl.ops if op.construct == "extend"]
    run = _run(wl, ops, tmp_path_factory.mktemp("verified"))
    return wl, ops, run


@pytest.fixture(scope="module")
def refuted(tmp_path_factory):
    wl = workloads.build("nonepi-verify", 0)
    ops = [op for op in wl.ops if op.construct == "brick-nonbrick"]
    return wl, ops, _run(wl, ops, tmp_path_factory.mktemp("refuted"))


@pytest.fixture(scope="module")
def checked(tmp_path_factory):
    wl = workloads.build("rep-check", 3)
    ops = [op for op in wl.ops if op.rep in ("k11_1.rep", "k23_k12_1.rep")]
    return wl, ops, _run(wl, ops, tmp_path_factory.mktemp("checked"))


def _verify_report(fixture):
    wl, ops, run = fixture
    idx = next(i for i, op in enumerate(ops) if op.kind == "verify")
    return json.loads(run["outputs"][idx][1]), json.loads(run["homs"][ops[idx].hom]), ops[idx]


def test_genuine_outputs_pass(verified, refuted, checked):
    for wl, ops, run in (verified, refuted, checked):
        sub = dataclasses.replace(wl, ops=ops)
        assert checks.check_call(sub, run["outputs"], run["homs"], run["homs"]) == []


def test_flipped_certificate_coefficient_is_rejected(verified):
    report, hom, op = _verify_report(verified)
    bad = copy.deepcopy(report)
    el = next(e for e in bad["required_elements"] if e["certificate"])
    term = el["certificate"][0]
    term["coeff"] = str(-Fraction(term["coeff"]))
    assert checks.check_verify_report(report, hom, op.verdict) == []
    problems = checks.check_verify_report(bad, hom, op.verdict)
    assert any("does not evaluate" in p for p in problems)


def test_dropped_generator_is_rejected(verified):
    report, hom, op = _verify_report(verified)
    bad = copy.deepcopy(report)
    bad["ideal_generators"].pop()
    problems = checks.check_verify_report(bad, hom, op.verdict)
    assert any("ideal_generators" in p for p in problems)


def test_wrong_end_dim_is_rejected(checked):
    wl, ops, run = checked
    for op, (code, stdout, _) in zip(ops, run["outputs"]):
        report = json.loads(stdout)
        assert checks.check_check_report(report, wl.reps[op.rep], op.verdict) == []
        report["end_dim"] += 1
        problems = checks.check_check_report(report, wl.reps[op.rep], op.verdict)
        assert any("end_dim" in p for p in problems)


def test_witness_with_equal_dimensions_is_rejected(refuted):
    report, hom, op = _verify_report(refuted)
    bad = copy.deepcopy(report)
    for w in (bad["witness"], bad["specialization"]["witness"], bad["specialization"]["trials"][-1]):
        w["dim_path_algebra"] = w["dim_matrix_algebra"]
    problems = checks.check_verify_report(bad, hom, op.verdict)
    assert any("witness" in p for p in problems)


def test_corrupted_hom_file_is_rejected(refuted):
    wl, ops, run = refuted
    hom = json.loads(run["homs"][ops[0].hom])
    hom["arrow_images"]["a"][1][0] = "2"
    assert checks.check_hom(hom, ops[0], wl) != []


def test_tracer_wraps_every_binding_and_restores_it():
    import quiverepi.epibuild as epibuild
    import quiverepi.exactlin as exactlin
    import quiverepi.quiverrep as quiverrep
    from tracing import Tracer

    originals = (quiverrep.hom_basis, exactlin.nullspace_basis, exactlin.ExactMatrix.__mul__)
    tracer = Tracer()
    tracer.install()
    try:
        # epibuild binds hom_basis and nullspace_basis by name
        assert epibuild.hom_basis is quiverrep.hom_basis is not originals[0]
        assert epibuild.nullspace_basis is exactlin.nullspace_basis is not originals[1]
        assert epibuild.hom_basis.__wrapped__ is originals[0]
    finally:
        tracer.uninstall()
    assert (quiverrep.hom_basis, epibuild.nullspace_basis, exactlin.ExactMatrix.__mul__) == originals


def test_traced_call_goes_through_the_wrappers(tmp_path):
    from tracing import Tracer
    from worker import set_up, timed_call

    plan = workloads.build("catalogue-verify", 0).plan()
    ops = plan["ops"][:2]  # build and verify of the first brick hom
    cwd = os.getcwd()
    tracer = Tracer()
    try:
        cli = set_up(plan, tmp_path)
        tracer.install()
        outputs, _, _, root = timed_call(cli, ops, tracer)
    finally:
        tracer.uninstall()
        os.chdir(cwd)
    assert [code for code, _, _ in outputs] == [0, 0]
    # the worker binds cli before the tracer is installed; its calls must
    # still reach the wrapper, one cli.main span per op under the root
    mains = [s for s in tracer.spans if s[0] == "cli.main"]
    assert len(mains) == len(ops) and all(s[3] == 0 for s in mains)
    assert tracer.spans[0] is root
