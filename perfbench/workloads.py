"""The four workloads: the files each one writes, the hom files it builds in
set-up, and the CLI calls that make up one timed call.

Every path in an argv is relative to the workload's work directory.  Only
`rep-check` depends on the seed; the other three pin inputs whose verdicts
the theory fixes, and the seed leaves them unchanged.

    python3 perfbench/workloads.py <workload> <seed> <dir>

writes a workload's plan (its input files, set-up builds and call argvs) to
<dir>/plan.json, the form in which the workload process receives it.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from dataclasses import dataclass, field

from algebra import end_system, rank_mod_p

A2 = ("a2.quiver", ("1", "2"), (("a", "1", "2"),))
A3 = ("a3.quiver", ("1", "2", "3"), (("a", "1", "2"), ("b", "2", "3")))
KRONECKER = ("kronecker.quiver", ("1", "2"), (("a", "1", "2"), ("b", "1", "2")))

# CLI defaults of `quiverepi verify`; the checks hold reports to them.
VERIFY_TRIALS = 20
VERIFY_SIZES = (1, 2)
# sets of four draws in one rep-check call
DRAW_SETS = 2


@dataclass
class Rep:
    """A representation: a quiver (file, vertices, arrows), dims and maps."""

    quiver: tuple
    dims: dict
    maps: dict = field(default_factory=dict)

    @property
    def vertices(self):
        return self.quiver[1]

    @property
    def arrows(self):
        return self.quiver[2]

    def total_dim(self) -> int:
        return sum(self.dims[v] for v in self.vertices)

    def text(self) -> str:
        lines = [f"quiver {self.quiver[0]}",
                 "dims " + " ".join(f"{v}={self.dims[v]}" for v in self.vertices)]
        for name, _, _ in self.arrows:
            rows = self.maps.get(name)
            if rows and rows[0]:
                lines.append(f"map {name} " + " ; ".join(" ".join(str(x) for x in r) for r in rows))
        return "\n".join(lines) + "\n"


def quiver_text(quiver) -> str:
    _, vertices, arrows = quiver
    return "vertices " + " ".join(vertices) + "\n" + "".join(
        f"arrow {n} {s} {t}\n" for n, s, t in arrows)


@dataclass
class Op:
    """One CLI invocation of a call, with what its checks need to know.

    kind is "check", "build" or "verify".  For builds and verifies,
    `construct` names the construction ("brick", "glue", "canonical",
    "extend", "invariant") and `rep` the representation file it starts from.
    """

    argv: list
    kind: str
    expect_code: int
    rep: str | None = None
    hom: str | None = None
    construct: str | None = None
    verdict: str | None = None
    arg: str | None = None


@dataclass
class Workload:
    name: str
    quivers: list
    reps: dict
    setup_builds: list
    ops: list

    def files(self) -> dict:
        out = {q[0]: quiver_text(q) for q in self.quivers}
        out.update({name: rep.text() for name, rep in self.reps.items()})
        return out

    def out_files(self) -> list:
        return [op.hom for op in self.ops if op.kind == "build"]

    def plan(self) -> dict:
        """What the workload process needs, drawn before it starts."""
        return {"files": self.files(), "setup_builds": self.setup_builds,
                "ops": [op.argv for op in self.ops], "out_files": self.out_files()}


def _build_argv(construct: str, rep: str, hom: str, arg: str | None = None) -> list:
    if construct == "brick":
        return ["build", "brick", rep, "--out", hom]
    if construct == "brick-nonbrick":
        return ["build", "brick", rep, "--allow-non-brick", "--out", hom]
    if construct == "glue":
        return ["build", "glue", rep, arg, "--out", hom]
    if construct == "canonical":
        return ["build", "canonical", rep, "--dims", arg, "--out", hom]
    if construct == "extend":
        return ["build", "extend", rep, arg, "--out", hom]
    if construct == "invariant":
        arrow, case = arg.split(":")
        return ["build", "invariant", rep, arrow, case, "--out", hom]
    raise ValueError(construct)


def _verify(hom: str, construct: str, rep: str, verdict: str, arg=None) -> Op:
    return Op(["verify", hom], "verify", {"Verified": 0, "Refuted": 1}[verdict],
              rep=rep, hom=hom, construct=construct, verdict=verdict, arg=arg)


def glue6_verify(seed: int) -> Workload:
    k23 = Rep(KRONECKER, {"1": 2, "2": 3},
              {"a": [[1, 0], [0, 1], [0, 0]], "b": [[0, 0], [1, 0], [0, 1]]})
    return Workload(
        "glue6-verify", [KRONECKER], {"k23.rep": k23},
        [_build_argv("glue", "k23.rep", "glue6.hom.json", "2")],
        [_verify("glue6.hom.json", "glue", "k23.rep", "Verified", "2")],
    )


def nonepi_verify(seed: int) -> Workload:
    p12_s2 = Rep(A2, {"1": 1, "2": 2}, {"a": [[1], [0]]})
    return Workload(
        "nonepi-verify", [A2], {"p12_s2.rep": p12_s2},
        [_build_argv("brick-nonbrick", "p12_s2.rep", "p12_s2.hom.json"),
         _build_argv("canonical", "a2.quiver", "can_a2.hom.json", "1=1,2=1")],
        [_verify("p12_s2.hom.json", "brick-nonbrick", "p12_s2.rep", "Refuted"),
         _verify("can_a2.hom.json", "canonical", "a2.quiver", "Refuted", "1=1,2=1")],
    )


def _draw(rng, rows, cols):
    return [[rng.randrange(-2, 3) for _ in range(cols)] for _ in range(rows)]


def _kronecker_draw(rng, d1, d2) -> Rep:
    return Rep(KRONECKER, {"1": d1, "2": d2}, {"a": _draw(rng, d2, d1), "b": _draw(rng, d2, d1)})


def _end_nullity_mod_p(rep: Rep) -> int:
    rows, unknowns = end_system(rep.vertices, rep.arrows, rep.dims, rep.maps)
    return unknowns - rank_mod_p(rows)


def _direct_sum(m: Rep, n: Rep) -> Rep:
    dims = {v: m.dims[v] + n.dims[v] for v in m.vertices}
    maps = {}
    for name, s, t in m.arrows:
        block = [[0] * dims[s] for _ in range(dims[t])]
        for i, row in enumerate(m.maps[name]):
            block[i][:len(row)] = row
        for i, row in enumerate(n.maps[name]):
            block[m.dims[t] + i][m.dims[s]:] = row
        maps[name] = block
    return Rep(m.quiver, dims, maps)


def rep_check(seed: int) -> Workload:
    """Seeded Kronecker draws with entries in {-2..2}, DRAW_SETS sets of four.

    (4,5) is a real root, so a generic draw is exceptional; draws are
    repeated until End is one-dimensional mod a large prime, which bounds
    the rational dimension from above.  (1,1) is redrawn while both maps
    vanish.  (3,3) and a direct sum are never bricks.  More than one set
    per call evens out how much elimination work one seed's draws need.
    """
    rng = random.Random(seed)
    reps, theory = {}, {}
    for k in range(1, DRAW_SETS + 1):
        while True:
            exc = _kronecker_draw(rng, 4, 5)
            if _end_nullity_mod_p(exc) == 1:
                break
        not_brick = _kronecker_draw(rng, 3, 3)
        while True:
            regular = _kronecker_draw(rng, 1, 1)
            if regular.maps["a"] != [[0]] or regular.maps["b"] != [[0]]:
                break
        summed = _direct_sum(_kronecker_draw(rng, 2, 3), _kronecker_draw(rng, 1, 2))
        for name, rep, kind in ((f"k45_{k}.rep", exc, "exceptional"),
                                (f"k33_{k}.rep", not_brick, "not-brick"),
                                (f"k11_{k}.rep", regular, "brick-with-self-extensions"),
                                (f"k23_k12_{k}.rep", summed, "not-brick")):
            reps[name], theory[name] = rep, kind
    return Workload("rep-check", [KRONECKER], reps, [],
                    [Op(["check", name], "check", 0, rep=name, verdict=theory[name])
                     for name in reps])


def catalogue_verify(seed: int) -> Workload:
    one = [[1]]
    bricks = {
        "a2_s1.rep": Rep(A2, {"1": 1, "2": 0}),
        "a2_s2.rep": Rep(A2, {"1": 0, "2": 1}),
        "a2_p12.rep": Rep(A2, {"1": 1, "2": 1}, {"a": one}),
        "a3_s1.rep": Rep(A3, {"1": 1, "2": 0, "3": 0}),
        "a3_s2.rep": Rep(A3, {"1": 0, "2": 1, "3": 0}),
        "a3_s3.rep": Rep(A3, {"1": 0, "2": 0, "3": 1}),
        "a3_i12.rep": Rep(A3, {"1": 1, "2": 1, "3": 0}, {"a": one}),
        "a3_i23.rep": Rep(A3, {"1": 0, "2": 1, "3": 1}, {"b": one}),
        "a3_i123.rep": Rep(A3, {"1": 1, "2": 1, "3": 1}, {"a": one, "b": one}),
        "kr_pre12.rep": Rep(KRONECKER, {"1": 1, "2": 2}, {"a": [[1], [0]], "b": [[0], [1]]}),
    }
    reps = dict(bricks)
    reps["kr_reg.rep"] = Rep(KRONECKER, {"1": 1, "2": 1}, {"a": one})
    jobs = [("brick", name, None) for name in bricks]
    jobs.append(("extend", "a2_p12.rep", "kronecker.quiver"))
    jobs += [("invariant", "kr_reg.rep", f"b:{case}") for case in ("i", "ii", "iii", "iv")]
    ops = []
    for construct, rep, arg in jobs:
        stem = rep[:-4] + ("" if arg is None else "_" + arg.split(".")[0].replace(":", "_"))
        hom = f"{stem}.{construct}.hom.json"
        ops.append(Op(_build_argv(construct, rep, hom, arg), "build", 0,
                      rep=rep, hom=hom, construct=construct, arg=arg))
        ops.append(_verify(hom, construct, rep, "Verified", arg))
    return Workload("catalogue-verify", [A2, A3, KRONECKER], reps, [], ops)


WORKLOADS = {
    "glue6-verify": glue6_verify,
    "nonepi-verify": nonepi_verify,
    "rep-check": rep_check,
    "catalogue-verify": catalogue_verify,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)


if __name__ == "__main__":
    out = Path(sys.argv[3])
    out.mkdir(parents=True, exist_ok=True)
    (out / "plan.json").write_text(json.dumps(build(sys.argv[1], int(sys.argv[2])).plan()),
                                   encoding="utf-8")
