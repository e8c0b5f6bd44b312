"""Independent checks of the program's outputs.

Each checker returns a list of problems; an empty list means the output is
right.  Expected homs are rebuilt from the workload's own representation
data, ideal generators and required elements are recomputed from the hom
file with algebra.py, certificates are re-evaluated term by term, and
intertwiner dimensions are ranks of linear systems assembled here and
solved exactly with sympy's DomainMatrix over QQ.  Nothing goes through
quiverepi's Certificate.evaluate, IdealSpan or hom_basis.
"""

from __future__ import annotations

import json
from fractions import Fraction

from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from algebra import (
    ParseFailure,
    centralizer_system,
    commutant_generators,
    end_system,
    euler_form,
    parse_poly,
    poly_add,
    poly_degree,
    poly_key,
    poly_mul,
    required_targets,
    specialize_image,
)
from workloads import VERIFY_SIZES, VERIFY_TRIALS


def exact_rank(rows, ncols: int) -> int:
    if not rows:
        return 0
    dm = DomainMatrix([[QQ(int(Fraction(x).numerator), int(Fraction(x).denominator)) for x in row]
                       for row in rows], (len(rows), ncols), QQ)
    return dm.rank()


def end_dim(rep) -> int:
    rows, unknowns = end_system(rep.vertices, rep.arrows, rep.dims, rep.maps)
    return unknowns - exact_rank(rows, unknowns)


def centralizer_dim(matrices, n: int) -> int:
    if n == 0:
        return 0
    return n * n - exact_rank(centralizer_system(matrices, n), n * n)


# ---------------------------------------------------------------- homs


def _const(x) -> dict:
    return {(): Fraction(x)} if x != 0 else {}


def _letter(x) -> dict:
    return {(x,): Fraction(1)}


def _offsets(vertices, dims):
    out, acc = {}, 0
    for v in vertices:
        out[v] = acc
        acc += dims[v]
    return out, acc


def _scalar_images(vertices, arrows, dims, maps):
    """Block identities at the vertices and scalar blocks at the arrows."""
    off, n = _offsets(vertices, dims)
    idem = {v: [[_const(int(i == j and off[v] <= i < off[v] + dims[v])) for j in range(n)]
                for i in range(n)] for v in vertices}
    images = {}
    for name, s, t in arrows:
        grid = [[{} for _ in range(n)] for _ in range(n)]
        for i, row in enumerate(maps.get(name) or []):
            for j, x in enumerate(row):
                grid[off[t] + i][off[s] + j] = _const(Fraction(x))
        images[name] = grid
    return idem, images, off, n


def _letter_block(grid, name, rows, cols, r0, c0):
    letters = []
    for i in range(rows):
        for j in range(cols):
            x = f"x[{name}]_{i + 1}_{j + 1}"
            grid[r0 + i][c0 + j] = _letter(x)
            letters.append(x)
    return letters


def expected_hom(op, wl) -> dict | None:
    """The hom a construction must produce, rebuilt from the workload's data;
    None for the invariant extension, which is checked structurally."""
    if op.construct in ("brick", "brick-nonbrick"):
        rep = wl.reps[op.rep]
        idem, images, _, n = _scalar_images(rep.vertices, rep.arrows, rep.dims, rep.maps)
        return {"vertices": list(rep.vertices), "arrows": [list(a) for a in rep.arrows],
                "size": n, "alphabet": [], "idem": idem, "images": images}
    if op.construct == "glue":
        rep, w = wl.reps[op.rep], op.arg
        vertices = list(rep.vertices) + ["glue_v"]
        arrows = [list(a) for a in rep.arrows] + [["glue_e", "glue_v", w]]
        dims = dict(rep.dims, glue_v=1)
        idem, images, off, n = _scalar_images(vertices, [tuple(a) for a in arrows[:-1]],
                                              dims, rep.maps)
        letters = [f"x{i}" for i in range(1, rep.dims[w])]
        grid = [[{} for _ in range(n)] for _ in range(n)]
        grid[off[w]][n - 1] = _const(1)
        for i, x in enumerate(letters, start=1):
            grid[off[w] + i][n - 1] = _letter(x)
        images["glue_e"] = grid
        return {"vertices": vertices, "arrows": arrows, "size": n, "alphabet": letters,
                "idem": idem, "images": images}
    if op.construct == "canonical":
        quiver = next(q for q in wl.quivers if q[0] == op.rep)
        dims = {k: int(v) for k, v in (kv.split("=") for kv in op.arg.split(","))}
        idem, images, off, n = _scalar_images(quiver[1], quiver[2], dims, {})
        letters = []
        for name, s, t in quiver[2]:
            letters += _letter_block(images[name], name, dims[t], dims[s], off[t], off[s])
        return {"vertices": list(quiver[1]), "arrows": [list(a) for a in quiver[2]],
                "size": n, "alphabet": letters, "idem": idem, "images": images}
    if op.construct == "extend":
        rep = wl.reps[op.rep]
        big = next(q for q in wl.quivers if q[0] == op.arg)
        old = {a[0] for a in rep.arrows}
        idem, images, off, n = _scalar_images(rep.vertices, rep.arrows, rep.dims, rep.maps)
        letters = []
        for name, s, t in big[2]:
            if name in old:
                continue
            images[name] = [[{} for _ in range(n)] for _ in range(n)]
            letters += _letter_block(images[name], name, rep.dims[t], rep.dims[s], off[t], off[s])
        return {"vertices": list(big[1]), "arrows": [list(a) for a in big[2]], "size": n,
                "alphabet": letters, "idem": idem, "images": images}
    return None


def parse_hom(hom: dict):
    """(vertices, arrows, size, alphabet, idem grids, arrow grids) of a hom file."""
    grid = lambda rows: [[parse_poly(t) for t in row] for row in rows]  # noqa: E731
    q = hom["source_quiver"]
    idem = {v: grid(hom["idem_images"][v]) for v in q["vertices"]}
    images = {a[0]: grid(hom["arrow_images"][a[0]]) for a in q["arrows"]}
    return q["vertices"], q["arrows"], hom["size"], hom["alphabet"], idem, images


def check_hom(hom: dict, op, wl) -> list:
    """The hom file against its construction."""
    try:
        vertices, arrows, n, alphabet, idem, images = parse_hom(hom)
    except (KeyError, TypeError, ParseFailure) as exc:
        return [f"{op.hom}: unreadable hom file ({exc!r})"]
    if hom.get("field") != "q":
        return [f"{op.hom}: field {hom.get('field')!r}, expected q"]
    want = expected_hom(op, wl)
    if want is not None:
        got = {"vertices": vertices, "arrows": arrows, "size": n, "alphabet": alphabet,
               "idem": idem, "images": images}
        return [f"{op.hom}: {key} differs from the {op.construct} construction"
                for key in want if got[key] != want[key]]
    # invariant extension of a brick along one of its arrows: standard idempotent
    # blocks, every arrow inside its block, fresh letters only on the new arrow
    rep, arrow = wl.reps[op.rep], op.arg.split(":")[0]
    problems = []
    if vertices != list(rep.vertices) or arrows != [list(a) for a in rep.arrows]:
        problems.append(f"{op.hom}: source quiver differs from the representation's")
    dims = rep.dims
    off, total = _offsets(rep.vertices, dims)
    if n != total:
        problems.append(f"{op.hom}: size {n}, expected {total}")
        return problems
    want_idem, _, _, _ = _scalar_images(rep.vertices, (), dims, {})
    if idem != want_idem:
        problems.append(f"{op.hom}: idempotent images are not the standard blocks")
    seen = set()
    for name, s, t in arrows:
        for i in range(n):
            for j in range(n):
                p = images[name][i][j]
                inside = off[t] <= i < off[t] + dims[t] and off[s] <= j < off[s] + dims[s]
                if p and not inside:
                    problems.append(f"{op.hom}: arrow {name} has an entry outside its block")
                for w in p:
                    if w and name != arrow:
                        problems.append(f"{op.hom}: old arrow {name} carries a letter")
                    seen.update(w)
    if sorted(seen) != sorted(alphabet) or not all(x[:3] in ("x11", "x21", "x22") for x in alphabet):
        problems.append(f"{op.hom}: alphabet {alphabet} does not match the letters used")
    return problems


# ---------------------------------------------------------------- reports


def check_check_report(report: dict, rep, expect: str | None = None) -> list:
    """A `check` report against End computed from this module's own system."""
    end = end_dim(rep)
    ext1 = end - euler_form(rep.vertices, rep.arrows, rep.dims)
    want = {
        "command": "check",
        "dims": {v: rep.dims[v] for v in rep.vertices},
        "total_dim": rep.total_dim(),
        "end_dim": end,
        "ext1_dim": ext1,
        "brick": end == 1,
        "exceptional": end == 1 and ext1 == 0,
    }
    problems = [f"check: {k} is {report.get(k)!r}, expected {v!r}"
                for k, v in want.items() if report.get(k) != v]
    theory = {"exceptional": want["exceptional"], "not-brick": not want["brick"],
              "brick-with-self-extensions": want["brick"] and ext1 > 0}
    if expect is not None and not theory[expect]:
        problems.append(f"check: input expected to be {expect} is not")
    return problems


def _cli_degree(gens, targets) -> int:
    """2 + largest generator degree + largest target degree; 2 without targets."""
    if not targets:
        return 2
    return 2 + max((poly_degree(g) for g in gens), default=0) + max(map(poly_degree, targets))


def _word(text: str) -> tuple:
    return tuple(text.split(".")) if text else ()


def certificate_value(cert, gens) -> dict:
    """sum coeff * left * gens[gen] * right, with this module's arithmetic."""
    acc: dict = {}
    for term in cert:
        left = {_word(term["left"]): Fraction(term["coeff"])}
        right = {_word(term["right"]): Fraction(1)}
        acc = poly_add(acc, poly_mul(poly_mul(left, gens[term["gen"]]), right))
    return acc


def _witness_problems(report: dict, hom: dict) -> list:
    """Lift the witness assignment to QQ and recompute both dimensions."""
    w = report["witness"]
    vertices, arrows, n, alphabet, idem, images = parse_hom(hom)
    ell = w["size"]
    if set(w["assignment"]) != set(alphabet):
        return ["witness: assignment does not cover the alphabet"]
    assignment = {x: [[Fraction(c) for c in row] for row in w["assignment"][x]] for x in alphabet}
    gens = [specialize_image(idem[v], assignment, ell) for v in vertices]
    gens += [specialize_image(images[a[0]], assignment, ell) for a in arrows]
    dim_path = centralizer_dim(gens, n * ell)
    dim_matrix = centralizer_dim(list(assignment.values()), ell) if alphabet else ell * ell
    problems = []
    if not dim_path > dim_matrix:
        problems.append(f"witness: over QQ dim_path_algebra {dim_path} is not above "
                        f"dim_matrix_algebra {dim_matrix}")
    if (w["dim_path_algebra"], w["dim_matrix_algebra"]) != (dim_path, dim_matrix):
        problems.append(f"witness: reported dimensions ({w['dim_path_algebra']}, "
                        f"{w['dim_matrix_algebra']}), recomputed ({dim_path}, {dim_matrix})")
    return problems


def check_verify_report(report: dict, hom: dict, expect: str) -> list:
    """A `verify` report against the hom file it was run on."""
    try:
        vertices, arrows, n, alphabet, idem, images = parse_hom(hom)
        gens_reported = [parse_poly(t) for t in report["ideal_generators"]]
        elements = report["required_elements"]
        polys = [parse_poly(e["poly"]) for e in elements]
    except (KeyError, TypeError, ParseFailure) as exc:
        return [f"verify: unreadable report or hom ({exc!r})"]
    problems = []
    if report.get("verdict") != expect:
        problems.append(f"verify: verdict {report.get('verdict')!r}, expected {expect}")
    gens = commutant_generators(n, [idem[v] for v in vertices] + [images[a[0]] for a in arrows])
    if len(gens_reported) != len(gens) or \
            {poly_key(g) for g in gens_reported} != {poly_key(g) for g in gens}:
        problems.append("verify: ideal_generators differ from the entries of V h(g) - h(g) V")
    targets = required_targets(n, alphabet)
    if len(polys) != len(targets) or {poly_key(p) for p in polys} != {poly_key(t) for t in targets}:
        problems.append("verify: required_elements differ from the criterion's targets")
    degree = _cli_degree(gens, targets)
    config = {"degree": degree, "field": "q", "seed": 0, "sizes": list(VERIFY_SIZES),
              "trials": VERIFY_TRIALS}
    if report.get("config") != config or report.get("degree_bound") != degree:
        problems.append(f"verify: config {report.get('config')!r}, expected {config!r}")
    spec = report.get("specialization") or {}
    trials = spec.get("trials") or []
    for t, trial in enumerate(trials):
        if trial.get("trial") != t or trial.get("size") != VERIFY_SIZES[t % len(VERIFY_SIZES)]:
            problems.append(f"verify: trial {t} is out of sequence")
    if problems:
        return problems
    if expect == "Verified":
        for el, poly in zip(elements, polys):
            if not el.get("member"):
                problems.append(f"verify: {el['element']} has no certificate")
            elif certificate_value(el["certificate"], gens_reported) != poly:
                problems.append(f"verify: certificate of {el['element']} does not evaluate to it")
            elif el["degree"] > degree:
                problems.append(f"verify: {el['element']} certified beyond the bound")
        used = max((el.get("degree", 0) for el in elements), default=0)
        if report.get("degree_used") != used:
            problems.append("verify: degree_used is not the largest certificate degree")
        if spec.get("passed") is not True or report.get("witness") is not None:
            problems.append("verify: specialization did not pass")
        if len(trials) != VERIFY_TRIALS or any(
                t["dim_path_algebra"] != t["dim_matrix_algebra"] for t in trials):
            problems.append("verify: a specialization trial has unequal dimensions")
    else:
        w = report.get("witness")
        if spec.get("passed") is not False or not w or spec.get("witness") != w:
            return problems + ["verify: Refuted without a witness"]
        if not trials or trials[-1] != {k: w[k] for k in ("trial", "size", "dim_path_algebra", "dim_matrix_algebra")}:
            problems.append("verify: witness is not the last trial")
        if any(t["dim_path_algebra"] != t["dim_matrix_algebra"] for t in trials[:-1]):
            problems.append("verify: a trial before the witness already refutes")
        problems += _witness_problems(report, hom)
    return problems


def check_build_report(report: dict, op, wl, hom_text: str) -> list:
    want = {"command": "build", "kind": op.construct, "out": op.hom}
    problems = [f"build: {k} is {report.get(k)!r}, expected {v!r}"
                for k, v in want.items() if report.get(k) != v]
    if "hom" in report:
        problems.append("build: report repeats the hom although --out was given")
    if op.construct == "extend" and report.get("generation_identity") is not True:
        problems.append("build: generation identity check did not pass")
    try:
        hom = json.loads(hom_text)
    except ValueError:
        return problems + [f"build: {op.hom} is not JSON"]
    if report.get("size") != hom.get("size") or report.get("alphabet") != hom.get("alphabet"):
        problems.append("build: report size or alphabet disagrees with the hom file")
    return problems + check_hom(hom, op, wl)


def check_call(wl, outputs, files: dict, setup_homs: dict) -> list:
    """All problems with one call's outputs.  files holds the hom files the
    call wrote, setup_homs the ones set-up wrote."""
    problems = []
    homs = dict(setup_homs)
    homs.update(files)
    for op, (code, stdout, stderr) in zip(wl.ops, outputs):
        tag = " ".join(op.argv)
        if code != op.expect_code:
            problems.append(f"{tag}: exit {code!r}, expected {op.expect_code}: {stderr[-400:]}")
            continue
        try:
            report = json.loads(stdout)
        except ValueError:
            problems.append(f"{tag}: stdout is not one JSON report")
            continue
        try:
            if op.kind == "check":
                found = check_check_report(report, wl.reps[op.rep], op.verdict)
            elif op.kind == "build":
                found = check_build_report(report, op, wl, homs[op.hom])
            else:
                hom = json.loads(homs[op.hom])
                found = check_hom(hom, op, wl) + check_verify_report(report, hom, op.verdict)
                if op.construct == "brick-nonbrick" and end_dim(wl.reps[op.rep]) < 2:
                    found.append("the non-brick input has End of dimension < 2")
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
            found = [f"malformed output ({exc!r})"]
        problems += [f"{tag}: {p}" for p in found]
    return problems
