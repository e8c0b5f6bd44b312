"""Command-line surface: check representations, build homs, verify them.

Reports are JSON with sorted keys and no timestamps, so identical inputs and
seeds give byte-identical output.  Exit codes: 0 Verified/pass, 1 Refuted,
2 input error, 3 Undetermined.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import epibuild, quiverrep
from .exactlin import parse_field
from .freealg import AlphabetMismatch, PolyParseError
from .quiver import QuiverError, parse_quiver
from .quiverrep import RepresentationError, load_representation

INPUT_ERRORS = (
    QuiverError,
    RepresentationError,
    epibuild.EpibuildError,
    PolyParseError,
    AlphabetMismatch,
    OSError,
    ValueError,
    json.JSONDecodeError,
)


def _dumps(value) -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, for the
    values reports hold: str, int, bool, None, lists (or tuples) and
    str-keyed dicts.  With indent set, json.dumps runs its pure-Python
    encoder; this writer makes fewer calls per value."""
    out = []
    put, text = out.append, encode_basestring_ascii

    def write(x, pad):
        if type(x) is str:
            put(text(x))
        elif type(x) is int:
            put(repr(x))
        elif x is None or type(x) is bool:
            put("null" if x is None else "true" if x else "false")
        elif type(x) is dict:
            inner, sep = pad + "  ", "{"
            for k in sorted(x):
                put(sep + inner + text(k) + ": ")
                write(x[k], inner)
                sep = ","
            put(pad + "}" if x else "{}")
        elif type(x) is list or type(x) is tuple:
            inner, sep = pad + "  ", "["
            for v in x:
                put(sep + inner)
                write(v, inner)
                sep = ","
            put(pad + "]" if x else "[]")
        else:
            raise TypeError(f"a report cannot hold {type(x).__name__}")

    write(value, "\n")
    return "".join(out)


def _emit(payload: dict, out: str | None) -> None:
    text = _dumps(payload) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _entries(text: str, option: str) -> list[str]:
    """The comma-separated entries of a list option, stripped; an empty
    one, from a doubled or trailing comma, is an input error."""
    entries = [tok.strip() for tok in text.split(",")]
    if not all(entries):
        raise ValueError(f"{option} has an empty entry in {text!r}")
    return entries


def _integer(value: str, entry: str, text: str, option: str) -> int:
    """value, a part of one entry of a list option, as an int; any other
    value is an input error naming the option and the entry."""
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{option} has a non-integer entry {entry!r} in {text!r}") from None


def _parse_dims(text: str) -> dict[str, int]:
    dims = {}
    for chunk in _entries(text, "--dims"):
        if "=" not in chunk:
            raise ValueError(f"bad dims entry {chunk!r}, expected <vertex>=<n>")
        v, d = chunk.split("=", 1)
        v = v.strip()
        if v in dims:
            raise ValueError(f"vertex {v!r} repeated in --dims")
        dims[v] = _integer(d, chunk, text, "--dims")
    return dims


def _parse_sizes(text: str) -> list[int]:
    sizes = [_integer(tok, tok, text, "--sizes") for tok in _entries(text, "--sizes")]
    if any(s < 1 for s in sizes):
        raise ValueError("--sizes needs positive integers")
    return sizes


def _load_hom(path: str, field_spec: str | None) -> epibuild.AlgebraHom:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    hom = epibuild.AlgebraHom.from_json_dict(data)
    if field_spec is not None and parse_field(field_spec) != hom.field:
        raise ValueError(
            f"--field {field_spec} conflicts with the hom file's field {hom.field.name}"
        )
    return hom


def cmd_check(args) -> int:
    field = parse_field(args.field)
    rep = load_representation(args.rep, field=field)
    end_dim = quiverrep.end_dim(rep)
    ext1_dim = end_dim - quiverrep.euler_form(rep.quiver, rep.dims, rep.dims)
    report = {
        "schema": 1,
        "command": "check",
        "dims": {v: rep.dims[v] for v in rep.quiver.vertices},
        "total_dim": rep.total_dim(),
        "end_dim": end_dim,
        "ext1_dim": ext1_dim,
        "brick": end_dim == 1,
        "exceptional": end_dim == 1 and ext1_dim == 0,
    }
    _emit(report, args.out)
    return 0


def cmd_build(args) -> int:
    field = parse_field(args.field)
    kind = args.kind
    extra: dict = {}
    if kind == "brick":
        rep = load_representation(args.inputs[0], field=field)
        hom = epibuild.build_brick_hom(rep, allow_non_brick=args.allow_non_brick)
    elif kind == "extend":
        rep = load_representation(args.inputs[0], field=field)
        q_prime = parse_quiver(Path(args.inputs[1]).read_text(encoding="utf-8"))
        hom = epibuild.extend_add_arrows(rep, q_prime)
        extra["generation_identity"] = epibuild.generation_identity_check(hom)
    elif kind == "invariant":
        rep = load_representation(args.inputs[0], field=field)
        hom = epibuild.extend_invariant(rep, args.inputs[1], args.inputs[2])
    elif kind == "glue":
        rep = load_representation(args.inputs[0], field=field)
        hom = epibuild.glue_vertex(rep, args.inputs[1])
    elif kind == "canonical":
        q = parse_quiver(Path(args.inputs[0]).read_text(encoding="utf-8"))
        if not args.dims:
            raise ValueError("build canonical needs --dims")
        hom = epibuild.canonical_generic_hom(q, _parse_dims(args.dims), field=field)
    elif kind == "presentation":
        rep = load_representation(args.inputs[0], field=field)
        q_prime = parse_quiver(Path(args.inputs[1]).read_text(encoding="utf-8"))
        paths = {}
        for spec in args.path or []:
            if "=" not in spec:
                raise ValueError(f"bad --path {spec!r}, expected <arrow>=<e1.e2...>")
            name, body = spec.split("=", 1)
            paths[name.strip()] = [tok for tok in body.split(".") if tok]
        for a in rep.quiver.arrows:
            paths.setdefault(a.name, [a.name])
        hom, gens = epibuild.localisation_presentation(q_prime, paths, rep)
        extra["generators"] = [g.to_text() for g in gens.generators]
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown build kind {kind!r}")

    hom_dict = hom.to_json_dict()
    report = {
        "schema": 1,
        "command": "build",
        "kind": kind,
        "size": hom.size,
        "alphabet": list(hom.algebra.letters),
        "hom": hom_dict,
    }
    report.update(extra)
    if args.out:
        Path(args.out).write_text(_dumps(hom_dict) + "\n", encoding="utf-8")
        report["out"] = args.out
        del report["hom"]
    _emit(report, None)
    return 0


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be positive")
    if args.degree is not None and args.degree < 0:
        raise ValueError("--degree must be nonnegative")
    hom = _load_hom(args.hom, args.field)
    sizes = _parse_sizes(args.sizes)
    report = epibuild.verify_epimorphism(hom, args.degree)
    refutation = epibuild.specialization_refutation_test(
        hom, trials=args.trials, sizes=sizes, seed=args.seed
    )
    if not refutation.passed:
        verdict, code = "Refuted", 1
    elif report.verdict == "Verified":
        verdict, code = "Verified", 0
    else:
        verdict, code = "Undetermined", 3
    payload = report.to_json_dict()
    payload["verdict"] = verdict
    payload["specialization"] = refutation.to_json_dict()
    payload["witness"] = refutation.witness
    payload["config"] = {
        "field": hom.field.name,
        "degree": report.degree_bound,
        "trials": args.trials,
        "sizes": sizes,
        "seed": args.seed,
    }
    if verdict == "Undetermined":
        payload["hint"] = "no refutation found and some memberships unresolved; try raising --degree"
    _emit(payload, args.out)
    return code


_EXPECTED_INPUTS = {"brick": 1, "extend": 2, "invariant": 3, "glue": 2,
                    "canonical": 1, "presentation": 2}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiverepi",
        description="Construct and verify ring epimorphisms from path algebras "
                    "to matrix algebras over free associative algebras.",
    )
    parser.add_argument("--field", default=None,
                        help="base field: q (default) or fp:<prime>")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="brick/exceptional report for a representation file")
    p_check.add_argument("rep")
    p_check.add_argument("--out", default=None)
    p_check.set_defaults(func=cmd_check)

    p_build = sub.add_parser("build", help="construct a hom and serialize it")
    p_build.add_argument("kind", choices=list(_EXPECTED_INPUTS))
    p_build.add_argument("inputs", nargs="+",
                         help="kind-specific inputs: brick REP | extend REP QUIVER | "
                              "invariant REP ARROW CASE | glue REP VERTEX | "
                              "canonical QUIVER | presentation REP QUIVER")
    p_build.add_argument("--dims", default=None, help="dimension vector, e.g. 1=1,2=2")
    p_build.add_argument("--path", action="append", default=None,
                         help="arrow-to-path entry for presentation, e.g. a=e1.e2")
    p_build.add_argument("--allow-non-brick", action="store_true")
    p_build.add_argument("--out", default=None, help="write the hom JSON here")
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="run the ideal criterion and the "
                                             "specialization refutation test on a hom file")
    p_verify.add_argument("hom")
    p_verify.add_argument("--degree", type=int, default=None,
                          help="membership degree bound (default: 2 + max generator "
                               "degree + max target degree)")
    p_verify.add_argument("--trials", type=int, default=20)
    p_verify.add_argument("--sizes", default="1,2")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use: parsing leaves
    it unchanged (each call fills a fresh namespace), so main reuses it."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command in ("check", "build") and args.field is None:
        args.field = "q"
    if args.command == "build":
        expected = _EXPECTED_INPUTS[args.kind]
        if len(args.inputs) != expected:
            parser.error(f"build {args.kind} takes exactly {expected} positional input(s)")
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
