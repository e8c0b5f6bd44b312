import json

import pytest

from quiverepi import cli
from quiverepi.cli import main

A2 = "vertices 1 2\narrow a 1 2\n"
KRONECKER = "vertices 1 2\narrow a 1 2\narrow b 1 2\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "a2.quiver").write_text(A2)
    (tmp_path / "kronecker.quiver").write_text(KRONECKER)
    (tmp_path / "brick.rep").write_text("quiver a2.quiver\ndims 1=1 2=1\nmap a 1\n")
    (tmp_path / "s1s1.rep").write_text("quiver a2.quiver\ndims 1=2 2=0\n")
    (tmp_path / "pre12.rep").write_text(
        "quiver kronecker.quiver\ndims 1=1 2=2\nmap a 1 ; 0\nmap b 0 ; 1\n"
    )
    return tmp_path


def run(capsys, argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestCheck:
    def test_brick_report(self, workdir, capsys):
        code, report = run(capsys, ["check", workdir / "brick.rep"])
        assert code == 0
        assert report["brick"] is True
        assert report["exceptional"] is True
        assert report["end_dim"] == 1
        assert report["ext1_dim"] == 0

    def test_decomposable_report(self, workdir, capsys):
        code, report = run(capsys, ["check", workdir / "s1s1.rep"])
        assert code == 0
        assert report["brick"] is False
        assert report["end_dim"] == 4

    def test_zero_module_is_input_error(self, workdir, capsys):
        (workdir / "zero.rep").write_text("quiver a2.quiver\ndims 1=0 2=0\n")
        code = main(["check", str(workdir / "zero.rep")])
        assert code == 2

    def test_parse_error_positioned(self, workdir, capsys):
        (workdir / "bad.quiver").write_text("vertices 1 2\narrow a 1 3\n")
        (workdir / "bad.rep").write_text("quiver bad.quiver\ndims 1=1 2=1\n")
        code = main(["check", str(workdir / "bad.rep")])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("maps", ["map a 0\nmap a 1\n", "map a 1\nmap a 0\n"])
    def test_second_map_line_for_an_arrow(self, workdir, capsys, maps):
        (workdir / "twice.rep").write_text("quiver a2.quiver\ndims 1=1 2=1\n" + maps)
        code = main(["check", str(workdir / "twice.rep")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: line 4:") and "'a'" in captured.err

    def test_prime_field(self, workdir, capsys):
        code, report = run(capsys, ["--field", "fp:5", "check", workdir / "brick.rep"])
        assert code == 0
        assert report["brick"] is True

    @pytest.mark.parametrize("dims", ["1=1 1=2 2=1", "1=1 2=1 1=1"])
    def test_vertex_repeated_in_dims_line(self, workdir, capsys, dims):
        (workdir / "twice.rep").write_text(f"quiver kronecker.quiver\ndims {dims}\n")
        code = main(["check", str(workdir / "twice.rep")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: line 2:") and "'1'" in captured.err


class TestBuild:
    def test_build_brick_writes_hom(self, workdir, capsys):
        out = workdir / "brick.hom.json"
        code, report = run(capsys, ["build", "brick", workdir / "brick.rep", "--out", out])
        assert code == 0
        assert report["size"] == 2
        hom = json.loads(out.read_text())
        assert hom["schema"] == 1
        assert hom["alphabet"] == []

    def test_build_extend(self, workdir, capsys):
        out = workdir / "t20.hom.json"
        code, report = run(capsys, [
            "build", "extend", workdir / "brick.rep", workdir / "kronecker.quiver",
            "--out", out,
        ])
        assert code == 0
        assert report["alphabet"] == ["x[b]_1_1"]
        assert report["generation_identity"] is True

    def test_build_glue_m1_exit_2(self, workdir, capsys):
        code = main(["build", "glue", str(workdir / "brick.rep"), "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "dimension 1" in err

    def test_build_glue(self, workdir, capsys):
        out = workdir / "glue.hom.json"
        code, report = run(capsys, ["build", "glue", workdir / "pre12.rep", "2",
                                    "--out", out])
        assert code == 0
        assert report["size"] == 4
        assert report["alphabet"] == ["x1"]

    def test_build_canonical_needs_dims(self, workdir, capsys):
        code = main(["build", "canonical", str(workdir / "kronecker.quiver")])
        assert code == 2

    @pytest.mark.parametrize("dims", ["1=1,1=2,2=1", "1=1, 2=1, 1 =1"])
    def test_build_canonical_vertex_repeated_in_dims(self, workdir, capsys, dims):
        code = main(["build", "canonical", str(workdir / "kronecker.quiver"), "--dims", dims])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and "'1'" in captured.err

    def test_build_canonical(self, workdir, capsys):
        code, report = run(capsys, [
            "build", "canonical", workdir / "kronecker.quiver", "--dims", "1=1,2=1",
        ])
        assert code == 0
        assert report["alphabet"] == ["x[a]_1_1", "x[b]_1_1"]

    def test_build_presentation(self, workdir, capsys):
        code, report = run(capsys, [
            "build", "presentation", workdir / "brick.rep", workdir / "kronecker.quiver",
        ])
        assert code == 0
        assert report["generators"] == ["x[a]_1_1 - 1"]

    def test_build_invariant(self, workdir, capsys):
        (workdir / "kr_reg.rep").write_text(
            "quiver kronecker.quiver\ndims 1=1 2=1\nmap a 1\n"
        )
        code, report = run(capsys, [
            "build", "invariant", workdir / "kr_reg.rep", "b", "i",
        ])
        assert code == 0
        assert report["alphabet"] == ["x21_1_1"]

    def test_build_non_brick_exit_2(self, workdir, capsys):
        code = main(["build", "brick", str(workdir / "s1s1.rep")])
        assert code == 2

    def test_build_invariant_bad_case(self, workdir, capsys):
        (workdir / "kr_reg2.rep").write_text(
            "quiver kronecker.quiver\ndims 1=1 2=1\nmap a 1\n"
        )
        code = main(["build", "invariant", str(workdir / "kr_reg2.rep"), "b", "v"])
        assert code == 2

    def test_build_invariant_unknown_arrow(self, workdir, capsys):
        (workdir / "kr_reg3.rep").write_text(
            "quiver kronecker.quiver\ndims 1=1 2=1\nmap a 1\n"
        )
        code = main(["build", "invariant", str(workdir / "kr_reg3.rep"), "zz", "i"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "'zz'" in err

    @pytest.mark.parametrize("spec", ["zz=a", "b=a"])
    def test_build_presentation_path_for_unknown_arrow(self, workdir, capsys, spec):
        code = main(["build", "presentation", str(workdir / "brick.rep"),
                     str(workdir / "kronecker.quiver"), "--path", spec])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and repr(spec.split("=")[0]) in captured.err

    def test_allow_non_brick_flag(self, workdir, capsys):
        code, report = run(capsys, [
            "build", "brick", workdir / "s1s1.rep", "--allow-non-brick",
        ])
        assert code == 0
        assert report["size"] == 2


class TestVerify:
    def build_hom(self, workdir, capsys, kind, *inputs, extra=()):
        out = workdir / f"{kind}.hom.json"
        code, _ = run(capsys, ["build", kind, *inputs, *extra, "--out", out])
        assert code == 0
        return out

    def test_brick_hom_verified(self, workdir, capsys):
        hom = self.build_hom(workdir, capsys, "brick", workdir / "brick.rep")
        code, report = run(capsys, ["verify", hom, "--degree", "1"])
        assert code == 0
        assert report["verdict"] == "Verified"
        assert report["degree_used"] == 1
        assert report["specialization"]["passed"] is True

    def test_refuted_hom_exit_1(self, workdir, capsys):
        hom = self.build_hom(workdir, capsys, "brick", workdir / "s1s1.rep",
                             extra=("--allow-non-brick",))
        code, report = run(capsys, ["verify", hom])
        assert code == 1
        assert report["verdict"] == "Refuted"
        assert report["witness"]["dim_path_algebra"] == 4

    def test_tiny_degree_undetermined_exit_3(self, workdir, capsys):
        hom = self.build_hom(workdir, capsys, "extend", workdir / "brick.rep",
                             workdir / "kronecker.quiver")
        code, report = run(capsys, ["verify", hom, "--degree", "1"])
        assert code == 3
        assert report["verdict"] == "Undetermined"
        assert "degree" in report["hint"]

    def test_default_degree_verifies_extend(self, workdir, capsys):
        hom = self.build_hom(workdir, capsys, "extend", workdir / "brick.rep",
                             workdir / "kronecker.quiver")
        code, report = run(capsys, ["verify", hom])
        assert code == 0
        assert report["verdict"] == "Verified"

    def test_field_conflict(self, workdir, capsys):
        hom = self.build_hom(workdir, capsys, "brick", workdir / "brick.rep")
        code = main(["--field", "fp:5", "verify", str(hom)])
        assert code == 2

    def test_prime_field_build_and_verify(self, workdir, capsys):
        out = workdir / "fp.hom.json"
        code, _ = run(capsys, ["--field", "fp:5", "build", "extend",
                               workdir / "brick.rep", workdir / "kronecker.quiver",
                               "--out", out])
        assert code == 0
        assert json.loads(out.read_text())["field"] == "fp:5"
        code, report = run(capsys, ["verify", out, "--degree", "3"])
        assert code == 0
        assert report["verdict"] == "Verified"
        assert report["config"]["field"] == "fp:5"

    def test_reports_byte_identical(self, workdir, capsys):
        hom = self.build_hom(workdir, capsys, "brick", workdir / "brick.rep")
        out1, out2 = workdir / "r1.json", workdir / "r2.json"
        for out in (out1, out2):
            code = main(["verify", str(hom), "--degree", "2", "--trials", "8",
                         "--sizes", "1,2", "--seed", "42", "--out", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_modular_artifact_is_not_refuted(self, workdir, capsys):
        # b = [0; 101] vanishes mod 101, so the mod-p trials see a non-brick;
        # over QQ the module is a brick and the hom an epimorphism
        (workdir / "r101.rep").write_text(
            "quiver kronecker.quiver\ndims 1=1 2=2\nmap a 1 ; 0\nmap b 0 ; 101\n"
        )
        hom = self.build_hom(workdir, capsys, "brick", workdir / "r101.rep")
        code, report = run(capsys, ["verify", hom])
        assert code == 0
        assert report["verdict"] == "Verified"
        trials = report["specialization"]["trials"]
        artifacts = [t for t in trials if "modular_artifact" in t]
        assert artifacts
        for t in artifacts:
            assert t["dim_path_algebra"] == t["dim_matrix_algebra"]
            assert t["modular_artifact"]["dim_path_algebra"] > t["dim_path_algebra"]

    def test_denominator_divisible_by_101(self, workdir, capsys):
        (workdir / "rinv.rep").write_text(
            "quiver kronecker.quiver\ndims 1=1 2=2\nmap a 1 ; 0\nmap b 0 ; 1/101\n"
        )
        hom = self.build_hom(workdir, capsys, "brick", workdir / "rinv.rep")
        code, report = run(capsys, ["verify", hom])
        assert code == 0
        assert report["verdict"] == "Verified"

    def test_zero_denominator_in_hom_file(self, workdir, capsys):
        hom = self.build_hom(workdir, capsys, "brick", workdir / "brick.rep")
        data = json.loads(hom.read_text())
        data["arrow_images"]["a"][1][0] = "1/0"
        hom.write_text(json.dumps(data))
        code = main(["verify", str(hom)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert captured.out == ""


class TestParserReuse:
    """main builds its parser once per process; no option value of one call
    (the --field default, the --path append list) reaches a later call."""

    def test_calls_match_a_fresh_parser(self, workdir, capsys):
        # a = 101 vanishes mod 101: a brick over QQ, S1 + S2 over GF(101)
        (workdir / "kr101.rep").write_text("quiver kronecker.quiver\ndims 1=1 2=1\nmap a 101\n")
        rep, brick = str(workdir / "kr101.rep"), str(workdir / "brick.rep")
        kronecker = str(workdir / "kronecker.quiver")
        calls = [
            ["--field", "fp:101", "check", rep],
            ["check", rep],
            ["build", "presentation", brick, kronecker, "--path", "a=b"],
            ["build", "presentation", brick, kronecker],
            ["build", "presentation", brick, kronecker, "--path", "a=a"],
            ["--field", "fp:101", "check", rep],
        ]
        capsys.readouterr()
        reused = []
        for argv in calls:
            code = main(argv)
            reused.append((code, capsys.readouterr().out))
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            code = main(argv)
            fresh.append((code, capsys.readouterr().out))
        assert reused == fresh
        assert [code for code, _ in reused] == [0] * len(calls)
        end_dims = [json.loads(reused[i][1])["end_dim"] for i in (0, 1, 5)]
        assert end_dims == [2, 1, 2]
        generators = [json.loads(reused[i][1])["generators"] for i in (2, 3)]
        assert generators == [["x[b]_1_1 - 1"], ["x[a]_1_1 - 1"]]


def _drop_idem(data):
    del data["idem_images"]["2"]


def _ragged_row(data):
    data["arrow_images"]["a"][1].append("0")


def _string_size(data):
    data["size"] = str(data["size"])


def _integer_entry(data):
    data["arrow_images"]["a"][1][0] = 1


def _short_arrow(data):
    data["source_quiver"]["arrows"][0] = ["a", "1"]


class TestMalformedHom:
    """A malformed hom file is an input error: exit 2 with an `error:` line,
    never exit 1 (the Refuted code) and never an exception out of main."""

    @pytest.mark.parametrize("doc", [{"schema": 1}, [1, 2]], ids=["schema-only", "json-list"])
    def test_whole_document(self, workdir, capsys, doc):
        hom = workdir / "bad.hom.json"
        hom.write_text(json.dumps(doc))
        self.assert_input_error(capsys, hom)

    @pytest.mark.parametrize("mutate", [_drop_idem, _string_size, _integer_entry,
                                        _short_arrow, _ragged_row],
                             ids=["missing-idem", "string-size", "integer-entry",
                                  "two-element-arrow", "ragged-row"])
    def test_mutated_brick_hom(self, workdir, capsys, mutate):
        hom = workdir / "brick.hom.json"
        assert main(["build", "brick", str(workdir / "brick.rep"), "--out", str(hom)]) == 0
        data = json.loads(hom.read_text())
        mutate(data)
        hom.write_text(json.dumps(data))
        self.assert_input_error(capsys, hom)

    @staticmethod
    def assert_input_error(capsys, hom):
        capsys.readouterr()
        code = main(["verify", str(hom)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""
