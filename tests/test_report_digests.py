"""Byte-level pins on the CLI reports of the shipped catalogue.

Each case builds one hom with `quiverepi build ... --out` and verifies it
with `quiverepi verify` at the default settings, all through cli.main in a
scratch directory with relative paths.  The SHA-256 of the build report,
the hom file and the verify report must match the recorded digests, so a
change meant to keep behaviour (a refactor, a merged code path) cannot
alter a single byte of output unnoticed.  A change that means to alter a
report re-records the digests and says why.

The non-epimorphisms are Refuted with some elements not found up to the
default bound, so they pin the certificates of the elements found and the
`not_found_up_to` entries: P12+S2 over A2 (bound 4), the canonical A2 homs
of dimensions (1,1) (bound 6) and (2,2), and the canonical Kronecker hom of
dimension (1,2).  In all four the residual generators left by the linear
pre-elimination have overlap-free leading words (there are none for
P12+S2), so every element not found is settled without a span search.  A
search to the default bound takes about 7 s on the Kronecker hom and 22 s
on the (2,2) A2 hom on a 2-core machine; the pinned reports are those of
that search, recorded before the overlap-free step existed.

Three `check` reports are pinned as well, all over QQ: a (4,5) Kronecker
draw with entries in -2..2 (exceptional), a (2,3) Kronecker module with
rational entries (a brick) and the direct sum of the Kronecker modules of
dimensions (2,3) and (1,2) (End of dimension 4); their End systems go
through the QQ elimination with dependent rows and rescaled denominators.

The glued 6x6 hom (the Kronecker module of dimension (2,3) glued at vertex
2) is the largest verify report: Verified at the default bound, and
Undetermined (exit 3) at `--degree 2`, where its two commutator elements
are still unresolved.

Two more verify reports cover the paths of the membership engine that no
benchmark workload reaches.  The canonical 3-Kronecker hom of dimension
(1,1) is Undetermined (exit 3): its overlap-free residual basis proves
`v11 - v22` and the commutators non-members, and the specialization test
finds no refutation.  The overlap hom, the canonical Kronecker hom of
dimension (1,1) with `x[a]_1_1 -> x` and `x[b]_1_1 -> x.y` over k<x,y>, is
written out as JSON, since no `build` subcommand makes it.  Its residual
leads `v2_2.x` and `v2_2.x.y` are not overlap-free, so its elements are
searched in the span to the default bound of 7 before the specialization
test refutes it (exit 1).

Two Verified homs pin the recheck over QQ of trials whose mod-p
dimensions differ, the entry 101 vanishing in GF(101).  The brick of the
Kronecker module of dimension (1,2) with `a = 1 ; 0` and `b = 0 ; 101` has
no letters, and all 20 of its trials are such modular artifacts.  The
extension of A2's P12 with `a = 101` into the Kronecker quiver has the
letter `x[b]_1_1`, and its 10 trials of size 2 are rechecked with it.

One glued hom is drawn rather than written out: the first Kronecker brick of
dimension (3,4) that `random_representation` gives from `random.Random(3)`,
glued at vertex 2 into M_8(k<x1,x2,x3>).  Its size-2 specialization trials
rank the intertwiner systems of 16-dimensional modules, large enough for
fill-in to matter in the sparse GF(p) elimination.
"""

import hashlib
import json
import random

import pytest

from quiverepi.cli import main
from quiverepi.epibuild import glue_vertex, specialization_refutation_test, substitute_letters
from quiverepi.quiver import parse_quiver
from quiverepi.quiverrep import is_brick, random_representation, representation_to_text

QUIVERS = {
    "a2.quiver": "vertices 1 2\narrow a 1 2\n",
    "a3.quiver": "vertices 1 2 3\narrow a 1 2\narrow b 2 3\n",
    "kronecker.quiver": "vertices 1 2\narrow a 1 2\narrow b 1 2\n",
    "k3.quiver": "vertices 1 2\narrow a 1 2\narrow b 1 2\narrow c 1 2\n",
}

REPS = {
    "a2_s1.rep": "quiver a2.quiver\ndims 1=1 2=0\n",
    "a2_s2.rep": "quiver a2.quiver\ndims 1=0 2=1\n",
    "a2_p12.rep": "quiver a2.quiver\ndims 1=1 2=1\nmap a 1\n",
    "a3_s1.rep": "quiver a3.quiver\ndims 1=1 2=0 3=0\n",
    "a3_s2.rep": "quiver a3.quiver\ndims 1=0 2=1 3=0\n",
    "a3_s3.rep": "quiver a3.quiver\ndims 1=0 2=0 3=1\n",
    "a3_i12.rep": "quiver a3.quiver\ndims 1=1 2=1 3=0\nmap a 1\n",
    "a3_i23.rep": "quiver a3.quiver\ndims 1=0 2=1 3=1\nmap b 1\n",
    "a3_i123.rep": "quiver a3.quiver\ndims 1=1 2=1 3=1\nmap a 1\nmap b 1\n",
    "kr_pre12.rep": "quiver kronecker.quiver\ndims 1=1 2=2\nmap a 1 ; 0\nmap b 0 ; 1\n",
    "kr_reg.rep": "quiver kronecker.quiver\ndims 1=1 2=1\nmap a 1\n",
    "p12_s2.rep": "quiver a2.quiver\ndims 1=1 2=2\nmap a 1 ; 0\n",
    "k23.rep": "quiver kronecker.quiver\ndims 1=2 2=3\nmap a 1 0 ; 0 1 ; 0 0\nmap b 0 0 ; 1 0 ; 0 1\n",
    "kr12_101.rep": "quiver kronecker.quiver\ndims 1=1 2=2\nmap a 1 ; 0\nmap b 0 ; 101\n",
    "a2_p12_101.rep": "quiver a2.quiver\ndims 1=1 2=1\nmap a 101\n",
}

# case name -> `build` arguments before --out
BUILDS = {
    **{rep[:-4]: ["brick", rep] for rep in REPS
       if rep not in ("kr_reg.rep", "p12_s2.rep", "k23.rep", "a2_p12_101.rep")},
    "extend": ["extend", "a2_p12.rep", "kronecker.quiver"],
    "extend_101": ["extend", "a2_p12_101.rep", "kronecker.quiver"],
    **{f"invariant_{case}": ["invariant", "kr_reg.rep", "b", case]
       for case in ("i", "ii", "iii", "iv")},
    "p12_s2": ["brick", "p12_s2.rep", "--allow-non-brick"],
    "canonical_a2": ["canonical", "a2.quiver", "--dims", "1=1,2=1"],
    "canonical_kr12": ["canonical", "kronecker.quiver", "--dims", "1=1,2=2"],
    "canonical_a2_22": ["canonical", "a2.quiver", "--dims", "1=2,2=2"],
    "canonical_k3": ["canonical", "k3.quiver", "--dims", "1=1,2=1"],
    "glue6": ["glue", "k23.rep", "2"],
    "glue6_degree2": ["glue", "k23.rep", "2"],
}

# case name -> extra `verify` arguments (none for the rest)
VERIFY_ARGS = {"glue6_degree2": ["--degree", "2"]}

# case name -> exit code of its verify: 1 Refuted, 3 Undetermined, 0 for the rest (Verified)
VERIFY_CODES = {"p12_s2": 1, "canonical_a2": 1, "canonical_kr12": 1, "canonical_a2_22": 1,
                "canonical_k3": 3, "glue6_degree2": 3}

# case name -> SHA-256 of (build report, hom file, verify report)
DIGESTS = {
    "a2_p12": (
        "68b1fda2cfc502500be89bf85879c13187f037998a9cf51d9dd22540b872323d",
        "4c9f440db0c462040a6e55be9b09549e23c1eb3925264581a03142137797ae44",
        "c4673834066259b734fd1bea8a5f2a67717943f1f8d325c0ce45580463cdf6e1",
    ),
    "a2_s1": (
        "e6ad75e60615e99e5ce7a6a3a569cac803d1b9f5b04da38e4f225e483451fa39",
        "88c8595340ec1cb7aa83555dc4e94710b735b8fb94e58f003a0c6dafecb002e5",
        "46e81ce091152fa28fb6c04082a41fb03d20be6c6ee847279ab90d2e51a3f0ea",
    ),
    "a2_s2": (
        "d6920f20cb1b641412606e196f279c6228d5842626120308a435092d14928a30",
        "1a4c7be746037068d825f10202fde250e24b22f8ab785599385f54ed6a73450a",
        "46e81ce091152fa28fb6c04082a41fb03d20be6c6ee847279ab90d2e51a3f0ea",
    ),
    "a3_i12": (
        "d4be5c89e0b88a36d998975b469627ae1c54acaffcb8105ba821c3709a7db972",
        "a1d4a759a7bb73461a7cb06716cc532ed331d90088fd42070225577a4814e19e",
        "c4673834066259b734fd1bea8a5f2a67717943f1f8d325c0ce45580463cdf6e1",
    ),
    "a3_i123": (
        "10de4974229b9c82e0fccdfb2f3fab01a6e65b3b51fe47107175e9eb8a410904",
        "5b30b95afa5db3dfa586ac73d20f58f8500213053e5d9a471d2b6b6166064459",
        "55f42ae08b3235526bfa440e52831d9b65ed3d29bf7c729bdd1bb01d7aba4823",
    ),
    "a3_i23": (
        "8fdaf0288dd5c01d42b88989de5ef1b79372721675f5c58576b60f92a9c766f1",
        "c0dc2734120a96ba0c5fce477e22b68e6fc0812675ece33dbeeb9d59c1f693ff",
        "c4673834066259b734fd1bea8a5f2a67717943f1f8d325c0ce45580463cdf6e1",
    ),
    "a3_s1": (
        "23612336b3b695c7e2bf39fbce899ca35c3b07b3e069601cf8a3e7bc4e173ed4",
        "0cfed15a43d3bda13e5fad4dcdcca7eaf907bb3d650ad6c985401da9a399f97c",
        "46e81ce091152fa28fb6c04082a41fb03d20be6c6ee847279ab90d2e51a3f0ea",
    ),
    "a3_s2": (
        "8f26fef71f7150e0db6029c9bbdfd193e2c6a59064017fa77913b37773f766a6",
        "a9eb458e957790b613758e83e373fa08ead50dc4faf6c8596971186490f482bc",
        "46e81ce091152fa28fb6c04082a41fb03d20be6c6ee847279ab90d2e51a3f0ea",
    ),
    "a3_s3": (
        "1fd8356a0d27e6de61011a0860b9085e73b8d2bf27b671243b9409141e231946",
        "e5fab2482f640adbeb902e071c7b2a1810af05bb4f3c42348fcf90aca807f6eb",
        "46e81ce091152fa28fb6c04082a41fb03d20be6c6ee847279ab90d2e51a3f0ea",
    ),
    "extend_101": (
        "da7ca97f66b733e31627cfbc0f01c3b244ad3610d2d0c6fb07d9c9833b86b54f",
        "b4a55dec9c1034c77bbfb9184b96946fb991c98f9dfd8646b2fad6056e5cf726",
        "f81e3d44e6119311a93d33c51c5a00631d794d0774b2c97c6d7ba4a92f917ae8",
    ),
    "extend": (
        "e82874be83af067d56aa19e418b91d2dadcfd01233400a9bef7737e063bc1684",
        "7f7b58f0f5cec0f6622f13e40e1cfc4c4051d40a0e21434b4f3c4351ff88dc57",
        "6749b20ba423c0693580e92cad8c5706a3d28d1566b981627c6891eb69f8d49b",
    ),
    "invariant_i": (
        "b65ab02840f2fd081e055afd41ff1612483431e74a0907c11fda4646d6faba92",
        "a1c67c172826939b7763062bbb0b83cffce0533021033d42b725baed369dd8cb",
        "edc054c8cc5d29b9f938bdd57340c44abcf710dbe8645bf9f02c399f8052529d",
    ),
    "invariant_ii": (
        "1ba6f5efe288e91b1c65a1af676c6b2a9ba2571398dc238cb0347ef4c2c8581f",
        "a1c67c172826939b7763062bbb0b83cffce0533021033d42b725baed369dd8cb",
        "edc054c8cc5d29b9f938bdd57340c44abcf710dbe8645bf9f02c399f8052529d",
    ),
    "invariant_iii": (
        "65cc88b5945824971826b1d30a887a69efb693cd69a7a5ca3d18e88b82d4899a",
        "a1c67c172826939b7763062bbb0b83cffce0533021033d42b725baed369dd8cb",
        "edc054c8cc5d29b9f938bdd57340c44abcf710dbe8645bf9f02c399f8052529d",
    ),
    "invariant_iv": (
        "d470ad5c5e6eec8e8386963897abf8ddee80fa9c2a7d44be3d48eadc1ef59875",
        "a1c67c172826939b7763062bbb0b83cffce0533021033d42b725baed369dd8cb",
        "edc054c8cc5d29b9f938bdd57340c44abcf710dbe8645bf9f02c399f8052529d",
    ),
    "canonical_a2": (
        "fe71998ba1c0a7b56ac966ef13fe8113eb8cefb2ae4ea4e2722e445034198d5c",
        "92971f12752b353f3d9b32c3f592e42e507bc8c895e7b637757e73239b643399",
        "ee38389e46fa31d934738f11e2c8ea246ee2705f06865ed7ac37723d4eea041f",
    ),
    "canonical_kr12": (
        "4502c20c4df40abf6ad6bd02ce3e073d6d4b0474a9fe9b7927ca8c7148634172",
        "f96bb9e5db83ca94e32560cc235991aca9d9d2a9965c2722a3b0733215a93308",
        "de0c3b9d42a7853613b6b435aba624585a700f67f2d5cb352a2224359d27061f",
    ),
    "canonical_k3": (
        "6be0faff25d95ea0fe743a23cd1ecdd2730c3334153af6d4c13ffb1123a4f63d",
        "87f2c6e2f32b526359437fec982c3702ac62861ca6173fde8aae22cc8fbb370e",
        "111f357eaa712dc5dc116439381c0e3a7c719aeadb67a00bdf5beb14a2126876",
    ),
    "canonical_a2_22": (
        "543b361b1bd4bf4a262ad7e44dcac31a3110f634c9b4bf08ac18f6409b15d000",
        "777d88f843293b103239888ec12ddd3058c524fc43aaf35d822130bb9e41d1b2",
        "e466465a6c4978bdf33170f8f4711159e07b91f8cc7ec9f23929e47eea732882",
    ),
    "kr_pre12": (
        "bf24ead902ef1830fef303f724765d3ae70e0285a73524acf59bf6049af73268",
        "1dcdc86a30659254f2a764d486fd282220b85a3a82640e289f16af472b4a3593",
        "13eee48aabe497cada2d8b07cd4f00e6c2f2697cb213834dc1674b3282686da0",
    ),
    "kr12_101": (
        "32bfbaadb1cd9bfa75ddec6bb95555aded450618b169b518bae16c887aa335f8",
        "942d86d1315409e38a20474c202aa6c89f085322f6e1f22a422bd025a4ac2e4f",
        "65ea7523e1a9cde3ee1e77d52f4f8b750af86ccd5538af4dbd423e51823ccd67",
    ),
    "glue6": (
        "19715f2e24115efc4dcf5fb97cb0a5213855ef99224e811ddf0db94463bc37cc",
        "6d0551d418ba1d08ef24909c34094b86694d549797b21401e9abea060fe8438f",
        "d00de5ebef24c485ccdbfc06bf29fb4dd559a3daf06bb79911d7e26756ec9002",
    ),
    "glue6_degree2": (
        "a86f6144ce3ae20c64554fd6ea7b6ee0ae6ba297c2a6d3d4555202c9e45a00d1",
        "6d0551d418ba1d08ef24909c34094b86694d549797b21401e9abea060fe8438f",
        "e13875f884abfb6eeb2f18ea2c0edf9d6e58d0c3bde0c7ed6424e3b9ce2726ec",
    ),
    "p12_s2": (
        "4ee9ebb962810ec942f1252a15b7c92c2d9629ff0c54d64bf86eff493ee1d5b0",
        "accb3e8e72765cb75a159a185e78ed314095c1693fcbf7782de4530041b5a1e0",
        "1895084b1ac3a3634d5fa97ea69b7037fa4abf860362f12a9bf307e1f2671884",
    ),
}

# `check` cases: representation file -> its text
CHECK_REPS = {
    "kr45_draw.rep": "quiver kronecker.quiver\ndims 1=4 2=5\n"
                     "map a 0 1 1 0 ; -2 0 0 -2 ; -2 1 -2 -2 ; 0 -2 0 -2 ; 2 -2 -1 0\n"
                     "map b -1 -1 1 -2 ; 2 1 -1 -2 ; -2 -1 0 0 ; 0 0 -2 1 ; -2 -2 0 0\n",
    "kr23_rational.rep": "quiver kronecker.quiver\ndims 1=2 2=3\n"
                         "map a 1/3 0 ; 0 -7/2 ; 1 1\nmap b 0 2/7 ; 1/2 0 ; 0 -1/3\n",
    "k23_plus_pre12.rep": "quiver kronecker.quiver\ndims 1=3 2=5\n"
                          "map a 1 0 0 ; 0 1 0 ; 0 0 0 ; 0 0 1 ; 0 0 0\n"
                          "map b 0 0 0 ; 1 0 0 ; 0 1 0 ; 0 0 0 ; 0 0 1\n",
}

# representation file -> SHA-256 of its `check` report
CHECK_DIGESTS = {
    "k23_plus_pre12.rep": "d703b2945c78cff1de9d5296336b22931adfaf08e6cd790a17ca8be83d979f34",
    "kr23_rational.rep": "af2b80de02c152685ac6e8dfb6dea5757e069b93613b98bbfd7c90b498b29b05",
    "kr45_draw.rep": "45182023aa3af14a4e1aadd06f8f3fe2f448227602cf946406eafd746ea2af14",
}


# SHA-256 of (build report, hom file, verify report) of the glued (3,4) draw
GLUED_KR34_DIGESTS = (
    "6e1ae6ea9e19d4e290159ca2080abf8984a98520a6190072e97b4461ed10e744",
    "f4683aeb52c7f00e47dd962784dff9067981d23e2a72d0f9dc4d63af412518ab",
    "7b535c2831c6b6984e57e2c6f9e7e7a7c3b956097cbf5bdd142e98480740d26a",
)


def kronecker34_brick_text() -> str:
    """The first Kronecker brick of dimension (3,4) drawn from random.Random(3)."""
    q = parse_quiver(QUIVERS["kronecker.quiver"])
    rng = random.Random(3)
    while True:
        m = random_representation(q, {"1": 3, "2": 4}, rng)
        if is_brick(m):
            return representation_to_text(m, "kronecker.quiver")


def case_outputs(name: str, capsys) -> tuple[bytes, bytes, bytes]:
    """Run one case in the current directory; returns the three outputs."""
    for fname, text in {**QUIVERS, **REPS}.items():
        with open(fname, "w", encoding="utf-8") as fh:
            fh.write(text)
    hom = f"{name}.hom.json"
    capsys.readouterr()
    assert main(["build", *BUILDS[name], "--out", hom]) == 0
    build_report = capsys.readouterr().out
    with open(hom, "rb") as fh:
        hom_bytes = fh.read()
    assert main(["verify", hom, *VERIFY_ARGS.get(name, [])]) == VERIFY_CODES.get(name, 0)
    verify_report = capsys.readouterr().out
    return build_report.encode(), hom_bytes, verify_report.encode()


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_report_digests(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    got = tuple(hashlib.sha256(b).hexdigest() for b in case_outputs(name, capsys))
    assert got == DIGESTS[name]


@pytest.mark.parametrize("rep", sorted(CHECK_REPS))
def test_check_report_digests(rep, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for fname, text in {**QUIVERS, **CHECK_REPS}.items():
        with open(fname, "w", encoding="utf-8") as fh:
            fh.write(text)
    capsys.readouterr()
    assert main(["check", rep]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CHECK_DIGESTS[rep]


def test_glued_kronecker34_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kronecker.quiver").write_text(QUIVERS["kronecker.quiver"], encoding="utf-8")
    (tmp_path / "kr34.rep").write_text(kronecker34_brick_text(), encoding="utf-8")
    capsys.readouterr()
    assert main(["build", "glue", "kr34.rep", "2", "--out", "kr34.hom.json"]) == 0
    build_report = capsys.readouterr().out
    assert main(["verify", "kr34.hom.json"]) == 0
    verify_report = capsys.readouterr().out
    outputs = (build_report.encode(), (tmp_path / "kr34.hom.json").read_bytes(),
               verify_report.encode())
    assert tuple(hashlib.sha256(b).hexdigest() for b in outputs) == GLUED_KR34_DIGESTS


# the overlap hom as a hom file, and the SHA-256 of its verify report
OVERLAP_HOM = {
    "schema": 1, "field": "q",
    "source_quiver": {"vertices": ["1", "2"], "arrows": [["a", "1", "2"], ["b", "1", "2"]]},
    "size": 2, "alphabet": ["x", "y"],
    "idem_images": {"1": [["1", "0"], ["0", "0"]], "2": [["0", "0"], ["0", "1"]]},
    "arrow_images": {"a": [["0", "0"], ["x", "0"]], "b": [["0", "0"], ["x.y", "0"]]},
    "letter_coords": None, "provenance": "direct",
}
OVERLAP_VERIFY_DIGEST = "558cb4b904ea64e93c2f16c83d605505f80e1ff0a97a24f2d7186406933814da"


def test_overlap_hom_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "overlap.hom.json").write_text(json.dumps(OVERLAP_HOM), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", "overlap.hom.json"]) == 1
    verify_report = capsys.readouterr().out
    assert hashlib.sha256(verify_report.encode()).hexdigest() == OVERLAP_VERIFY_DIGEST


# SHA-256 of specialization_refutation_test(h).to_json_dict(), dumped with
# sorted keys, at the default 20 trials of sizes 1 and 2, seed 0, where h is
# the first Kronecker brick of dimension (5,6) drawn from random.Random(3)
# glued at vertex 2 into M_12(k<x1..x5>), and that hom with every letter
# sent to x1.  The first passes, each trial logging dims (1, 1), the same
# log as the glued (3,4) draw; the second is Refuted at trial 1 with its
# witness assignment.  Their arrows a and b carry no letter, so the trials
# rank the letter rows modulo the echelon of the rows of a and b, which
# fill in from the brick's dense blocks.
GLUED_KR56_TRIAL_DIGESTS = (
    "8df8ef3473dd072ffd2b663be58bf96c00322d0f7633147ae0a33c8ac264b48c",
    "052e20dd60406009e4d67f0eff195041658a7f02abf9015a6505f6c98d441fe6",
)


def test_glued_kronecker56_trial_log_digests():
    q = parse_quiver(QUIVERS["kronecker.quiver"])
    rng = random.Random(3)
    while not is_brick(m := random_representation(q, {"1": 5, "2": 6}, rng)):
        pass
    h = glue_vertex(m, "2")
    alg = h.algebra
    collapsed = substitute_letters(h, {x: alg.letter("x1") for x in alg.letters}, alg)
    got = tuple(
        hashlib.sha256(json.dumps(specialization_refutation_test(hom).to_json_dict(),
                                  sort_keys=True).encode()).hexdigest()
        for hom in (h, collapsed))
    assert got == GLUED_KR56_TRIAL_DIGESTS
