import contextlib
import io
import json
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

    def test_large_prime_field(self, workdir, capsys):
        start = time.perf_counter()
        code, report = run(capsys, ["--field", f"fp:{2 ** 61 - 1}", "check",
                                    workdir / "brick.rep"])
        assert time.perf_counter() - start < 1
        assert code == 0
        assert report["brick"] is True

    @pytest.mark.parametrize("p, message", [
        (4, "4 is not prime"),
        (4835703278458516698824647, "the prime must be below"),  # an 82-bit prime
    ])
    def test_field_needs_a_decidable_prime(self, workdir, capsys, p, message):
        code = main(["--field", f"fp:{p}", "check", str(workdir / "brick.rep")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and message in captured.err

    def test_long_path_quiver(self, workdir, capsys):
        n = 1200
        (workdir / "a1200.quiver").write_text(
            "vertices " + " ".join(map(str, range(n))) + "\n"
            + "".join(f"arrow a{i} {i} {i + 1}\n" for i in range(n - 1)))
        (workdir / "a1200.rep").write_text(
            "quiver a1200.quiver\ndims " + " ".join(f"{i}=1" for i in range(n)) + "\n"
            + "".join(f"map a{i} 1\n" for i in range(n - 1)))
        code, report = run(capsys, ["check", workdir / "a1200.rep"])
        assert code == 0
        assert (report["total_dim"], report["brick"], report["exceptional"]) == (n, True, True)

    def test_second_quiver_line(self, workdir, capsys):
        (workdir / "twice.rep").write_text(
            "quiver a2.quiver\ndims 1=1 2=1\nquiver nothere.quiver  # another header\n")
        code = main(["check", str(workdir / "twice.rep")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: line 3: second 'quiver' line\n"

    def test_header_is_matched_on_its_first_token(self, workdir, capsys):
        (workdir / "ish.rep").write_text("quiverish a2.quiver\ndims 1=1 2=1\n")
        code = main(["check", str(workdir / "ish.rep")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "missing 'quiver <file>' header" in captured.err

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

    @pytest.mark.parametrize("kind", list(cli._EXPECTED_INPUTS))
    def test_one_input_too_few_exits_2(self, workdir, capsys, kind):
        inputs = [str(workdir / "brick.rep")] * (cli._EXPECTED_INPUTS[kind] - 1)
        with pytest.raises(SystemExit) as exc:
            main(["build", kind, *inputs])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert "error:" in captured.err
        assert captured.out == ""

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

    @pytest.mark.parametrize("dims", ["1=1,,2=1", "1=1,2=1,", ",1=1,2=1", "1=1, ,2=1"])
    def test_build_canonical_empty_dims_entry(self, workdir, capsys, dims):
        code = main(["build", "canonical", str(workdir / "kronecker.quiver"), "--dims", dims])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: --dims has an empty entry")

    @pytest.mark.parametrize("dims, entry", [("1=x,2=1", "1=x"), ("1=1,2=1.5", "2=1.5")])
    def test_build_canonical_non_integer_dims_entry(self, workdir, capsys, dims, entry):
        code = main(["build", "canonical", str(workdir / "kronecker.quiver"), "--dims", dims])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: --dims has a non-integer entry {entry!r} in {dims!r}\n"

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

    @pytest.mark.parametrize("sizes, message", [
        *((s, "--sizes has an empty entry") for s in ("1,,2", "1,2,", ",1", " , ", "")),
        ("0", "--sizes needs positive integers"),
        pytest.param("1,x", "--sizes has a non-integer entry 'x' in '1,x'",
                     id="1,x-invalid literal"),
    ])
    def test_bad_sizes_are_input_errors(self, workdir, capsys, sizes, message):
        hom = self.build_hom(workdir, capsys, "brick", workdir / "brick.rep")
        code = main(["verify", str(hom), "--sizes", sizes])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and message in captured.err

    def test_spaced_sizes_are_the_plain_list(self, workdir, capsys):
        hom = self.build_hom(workdir, capsys, "brick", workdir / "brick.rep")
        reports = [run(capsys, ["verify", hom, "--degree", "1", "--sizes", sizes])
                   for sizes in ("1,2", " 1 , 2 ")]
        assert reports[0] == reports[1] and reports[0][0] == 0
        assert reports[0][1]["config"]["sizes"] == [1, 2]

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


REPORT_SCALARS = (st.none() | st.booleans() | st.integers()
                  | st.integers(min_value=-10**60, max_value=10**60) | st.text())
REPORT_VALUES = st.recursive(
    REPORT_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=30)


def nested(depth: int):
    value = {"": []}
    for i in range(depth):
        value = [value, {}] if i % 2 else {"k\u00e9": value, "a": [[]]}
    return value


class TestReportWriter:
    """cli._dumps, which writes every report, is json.dumps with indent=2
    and sorted keys, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(REPORT_VALUES)
    @example("\u00e9\u2028\U0001f600\"\\\n\t\x00\x7f/")
    @example({"": {}, "b": [], "a": [{}, [], ""], "\u00e9": None, "A": True, "z": False})
    @example([10**100, -(2**200), 0, -1, True, False])
    @example(nested(60))
    def test_matches_json_dumps(self, value):
        assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_rejects_a_value_no_report_holds(self):
        with pytest.raises(TypeError, match="float"):
            cli._dumps({"x": [1.5]})


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


def _entry(text):
    """A mutation that puts the hom over k<x> and writes text into an entry
    of the arrow image of a."""
    def mutate(data):
        data["alphabet"] = ["x"]
        data["arrow_images"]["a"][1][0] = text
    return mutate


class TestMalformedHom:
    """A malformed hom file is an input error: exit 2 with an `error:` line,
    never exit 1 (the Refuted code) and never an exception out of main."""

    @pytest.mark.parametrize("doc", [{"schema": 1}, [1, 2]], ids=["schema-only", "json-list"])
    def test_whole_document(self, workdir, capsys, doc):
        hom = workdir / "bad.hom.json"
        hom.write_text(json.dumps(doc))
        self.assert_input_error(capsys, hom)

    @pytest.mark.parametrize("mutate", [_drop_idem, _string_size, _integer_entry,
                                        _short_arrow, _ragged_row, _entry("x +"),
                                        _entry("2 x"), _entry("q")],
                             ids=["missing-idem", "string-size", "integer-entry",
                                  "two-element-arrow", "ragged-row", "dangling-sign",
                                  "missing-star", "unknown-letter"])
    def test_mutated_brick_hom(self, workdir, capsys, mutate):
        hom = workdir / "brick.hom.json"
        assert main(["build", "brick", str(workdir / "brick.rep"), "--out", str(hom)]) == 0
        data = json.loads(hom.read_text())
        mutate(data)
        hom.write_text(json.dumps(data))
        self.assert_input_error(capsys, hom)

    @pytest.mark.parametrize("text, message", [
        ("2 x", "cannot parse 'x' at position 2"),
        ("q", "letter 'q' not in alphabet"),
    ], ids=["missing-star", "unknown-letter"])
    def test_bad_entry_is_named(self, workdir, capsys, text, message):
        hom = workdir / "brick.hom.json"
        assert main(["build", "brick", str(workdir / "brick.rep"), "--out", str(hom)]) == 0
        data = json.loads(hom.read_text())
        _entry(text)(data)
        hom.write_text(json.dumps(data))
        self.assert_input_error(capsys, hom)
        capsys.readouterr()
        assert main(["verify", str(hom)]) == 2
        assert capsys.readouterr().err == f"error: arrow_images['a'][1][0]: {message}\n"

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


BRICK_HOM = {
    "schema": 1, "field": "q", "size": 2, "alphabet": [], "provenance": "brick",
    "source_quiver": {"vertices": ["1", "2"], "arrows": [["a", "1", "2"]]},
    "idem_images": {"1": [["1", "0"], ["0", "0"]], "2": [["0", "0"], ["0", "1"]]},
    "arrow_images": {"a": [["0", "0"], ["1", "0"]]}, "letter_coords": None,
}
UNKNOWN_FIELD = "unknown field spec 'fp:x' (expected 'q' or 'fp:<p>')"


def _rep(body, quiver="a2.quiver"):
    """The file r.rep: a header naming the quiver file, then body."""
    return {"r.rep": f"quiver {quiver}\n{body}"}


INPUT_ERROR_CASES = [
    pytest.param(_rep("dims 1=1 2=1\ndims 1=1 2=1\n"), ["check", "r.rep"],
                 "line 3: second 'dims' line", id="rep-second-dims"),
    pytest.param(_rep("dims 1 2=1\n"), ["check", "r.rep"],
                 "line 2: expected <vertex>=<dim>, got '1'", id="rep-dims-token-without-equals"),
    pytest.param(_rep("dims 1=x 2=1\n"), ["check", "r.rep"],
                 "line 2: bad dimension 'x'", id="rep-bad-dimension"),
    pytest.param(_rep("map a 1\ndims 1=1 2=1\n"), ["check", "r.rep"],
                 "line 2: 'map' before 'dims'", id="rep-map-before-dims"),
    pytest.param(_rep("dims 1=1 2=1\nmap\n"), ["check", "r.rep"],
                 "line 3: 'map' needs an arrow name", id="rep-map-without-arrow"),
    pytest.param(_rep("dims 1=1 2=1\nmap c 1\n"), ["check", "r.rep"],
                 "line 3: unknown arrow 'c'", id="rep-unknown-arrow"),
    pytest.param(_rep("dims 1=1 2=1\nmap a x\n"), ["check", "r.rep"],
                 "line 3: bad entry in map 'a'", id="rep-bad-map-entry"),
    pytest.param(_rep("dims 1=1 2=1\nmap a 1 2\n"), ["check", "r.rep"],
                 "line 3: map 'a': expected 1 columns, got 2", id="rep-wide-map-row"),
    pytest.param(_rep("dims 1=1 2=1\nmap a 1 2 ; 3\n"), ["check", "r.rep"],
                 "line 3: map 'a': ragged rows in matrix literal", id="rep-ragged-map"),
    pytest.param(_rep("# no dims line\n"), ["check", "r.rep"],
                 "missing 'dims' line", id="rep-missing-dims"),
    pytest.param({"r.rep": "quiver\ndims 1=1 2=1\n"}, ["check", "r.rep"],
                 "'quiver' header needs a file name", id="rep-quiver-without-file"),
    pytest.param({"q.quiver": "vertices 1 2\nvertices 3\n", **_rep("dims 1=1 2=1\n", "q.quiver")},
                 ["check", "r.rep"], "line 2, column 1: second 'vertices' line",
                 id="quiver-second-vertices"),
    pytest.param({"q.quiver": "vertices\n", **_rep("dims\n", "q.quiver")}, ["check", "r.rep"],
                 "line 1, column 1: 'vertices' line needs at least one vertex",
                 id="quiver-empty-vertices"),
    pytest.param({"q.quiver": "vertices 1 2\narrow a 3 2\n", **_rep("dims 1=1 2=1\n", "q.quiver")},
                 ["check", "r.rep"], "line 2, column 1: undeclared source vertex '3'",
                 id="quiver-undeclared-source"),
    pytest.param({}, ["build", "canonical", "a2.quiver", "--dims", "1"],
                 "bad dims entry '1', expected <vertex>=<n>", id="cli-dims-without-equals"),
    pytest.param({}, ["build", "presentation", "brick.rep", "kronecker.quiver", "--path", "a"],
                 "bad --path 'a', expected <arrow>=<e1.e2...>", id="cli-path-without-equals"),
    pytest.param({"h.json": BRICK_HOM}, ["verify", "h.json", "--trials", "0"],
                 "--trials must be positive", id="cli-zero-trials"),
    pytest.param({"h.json": BRICK_HOM}, ["verify", "h.json", "--degree", "-1"],
                 "--degree must be nonnegative", id="cli-negative-degree"),
    pytest.param({}, ["--field", "fp:x", "check", "brick.rep"], UNKNOWN_FIELD,
                 id="cli-field-fp-x"),
    pytest.param({"h.json": dict(BRICK_HOM, schema=2)}, ["verify", "h.json"],
                 "unsupported hom schema 2", id="hom-schema-2"),
    pytest.param({"h.json": dict(BRICK_HOM, field="fp:x")}, ["verify", "h.json"], UNKNOWN_FIELD,
                 id="hom-field-fp-x"),
]


@pytest.mark.parametrize("files, argv, message", INPUT_ERROR_CASES)
def test_input_error_names_its_cause(workdir, capsys, monkeypatch, files, argv, message):
    """Each malformed input exits 2 with one `error:` line that names it,
    and writes nothing to stdout."""
    for name, content in files.items():
        (workdir / name).write_text(content if isinstance(content, str) else json.dumps(content))
    monkeypatch.chdir(workdir)
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


FUZZ_FILES = {
    "a2.quiver": A2,
    "kronecker.quiver": KRONECKER,
    "brick.rep": "quiver a2.quiver\ndims 1=1 2=1\nmap a 1\n",
    "pre12.rep": "quiver kronecker.quiver\ndims 1=1 2=2\nmap a 1 ; 0\nmap b 0 ; 1\n",
}
FUZZ_CALLS = [
    ["check", "brick.rep"],
    ["check", "pre12.rep"],
    ["build", "extend", "brick.rep", "kronecker.quiver", "--out", "out.hom.json"],
    ["verify", "ext.hom.json", "--degree", "2", "--trials", "2", "--sizes", "1"],
]
# characters the mutations insert: the syntax of every input format
FUZZ_CHARS = "0123456789abqvx_ .;=#-+*/[]{}\":,\n"


@st.composite
def character_mutations(draw, text):
    """text after one to three random character insertions, deletions and
    replacements."""
    chars = list(text)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["insert", "delete", "replace"] if chars else ["insert"]))
        i = draw(st.integers(0, len(chars) - (kind != "insert")))
        if kind == "delete":
            del chars[i]
        else:
            chars[i:i + (kind == "replace")] = draw(st.sampled_from(FUZZ_CHARS))
    return "".join(chars)


@pytest.fixture(scope="module")
def fuzz_texts(tmp_path_factory):
    """The shipped quiver and representation texts, and the hom file that
    `build extend` writes for the A2 brick into the Kronecker quiver."""
    work = tmp_path_factory.mktemp("fuzz-seed")
    for name, text in FUZZ_FILES.items():
        (work / name).write_text(text)
    hom = work / "ext.hom.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["build", "extend", str(work / "brick.rep"),
                     str(work / "kronecker.quiver"), "--out", str(hom)]) == 0
    return {**FUZZ_FILES, "ext.hom.json": hom.read_text()}


class TestMutatedInputs:
    """Every input that random character mutations make of the shipped
    texts ends in a verdict or exit 2 with a message: never a traceback."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_cli_exits_cleanly(self, fuzz_texts, tmp_path_factory, data):
        name = data.draw(st.sampled_from(sorted(fuzz_texts)))
        work = tmp_path_factory.mktemp("fuzz")
        for fname, text in fuzz_texts.items():
            (work / fname).write_text(text)
        (work / name).write_text(data.draw(character_mutations(fuzz_texts[name])))
        for argv in FUZZ_CALLS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([str(work / a) if a.endswith((".quiver", ".rep", ".json")) else a
                             for a in argv])
            assert code in (0, 1, 2, 3), (argv, err.getvalue())
            assert "Traceback" not in err.getvalue()
