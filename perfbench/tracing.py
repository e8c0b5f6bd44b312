"""Spans around the public functions of quiverepi's six modules.

The tracer replaces each named function or method with a wrapper that
records (name, start, end, parent) in memory.  A function imported by name
into another module (epibuild binds hom_basis, nullspace_basis and more) is
replaced wherever a quiverepi module binds it, so every call path is seen.
Self time is a span's duration minus the durations of its direct children.
FreePoly arithmetic and other fine-grained helpers are not wrapped: their
time counts toward the layer that called them.
"""

from __future__ import annotations

import sys
import time
import weakref

# (module, attribute path, span name); the span name's first part is the layer.
TARGETS = [
    ("exactlin", "rref", "exactlin.rref"),
    ("exactlin", "rank", "exactlin.rank"),
    ("exactlin", "nullspace_basis", "exactlin.nullspace_basis"),
    ("exactlin", "column_space_basis", "exactlin.column_space_basis"),
    ("exactlin", "solve_or_invert", "exactlin.solve_or_invert"),
    ("exactlin", "idempotent_diagonalize", "exactlin.idempotent_diagonalize"),
    ("exactlin", "ExactMatrix.__mul__", "exactlin.ExactMatrix.mul"),
    ("quiver", "parse_quiver", "quiver.parse_quiver"),
    ("quiverrep", "hom_basis", "quiverrep.hom_basis"),
    ("quiverrep", "end_basis", "quiverrep.end_basis"),
    ("quiverrep", "is_brick", "quiverrep.is_brick"),
    ("quiverrep", "ext1_dim", "quiverrep.ext1_dim"),
    ("quiverrep", "is_exceptional", "quiverrep.is_exceptional"),
    ("quiverrep", "euler_form", "quiverrep.euler_form"),
    ("quiverrep", "kernel_image", "quiverrep.kernel_image"),
    ("quiverrep", "complement", "quiverrep.complement"),
    ("quiverrep", "find_end_invariance_violation", "quiverrep.find_end_invariance_violation"),
    ("quiverrep", "load_representation", "quiverrep.load_representation"),
    ("freealg", "FreeAlgebra.parse", "freealg.FreeAlgebra.parse"),
    ("freealg", "FreeMat.__mul__", "freealg.FreeMat.mul"),
    ("freealg", "IdealSpan.build_to", "freealg.IdealSpan.build_to"),
    ("freealg", "IdealSpan.try_reduce_to_zero", "freealg.IdealSpan.try_reduce_to_zero"),
    ("freealg", "default_degree_bound", "freealg.default_degree_bound"),
    ("epibuild", "AlgebraHom.__init__", "epibuild.AlgebraHom.init"),
    ("epibuild", "AlgebraHom.to_json_dict", "epibuild.AlgebraHom.to_json_dict"),
    ("epibuild", "build_brick_hom", "epibuild.build_brick_hom"),
    ("epibuild", "extend_add_arrows", "epibuild.extend_add_arrows"),
    ("epibuild", "extend_invariant", "epibuild.extend_invariant"),
    ("epibuild", "glue_vertex", "epibuild.glue_vertex"),
    ("epibuild", "canonical_generic_hom", "epibuild.canonical_generic_hom"),
    ("epibuild", "generation_identity_check", "epibuild.generation_identity_check"),
    ("epibuild", "commutant_ideal_gens", "epibuild.commutant_ideal_gens"),
    ("epibuild", "required_elements", "epibuild.required_elements"),
    ("epibuild", "verify_epimorphism", "epibuild.verify_epimorphism"),
    ("epibuild", "specialization_refutation_test", "epibuild.specialization_refutation_test"),
    ("epibuild", "specialize", "epibuild.specialize"),
    ("epibuild", "convert_hom_field", "epibuild.convert_hom_field"),
    ("cli", "main", "cli.main"),
]

CONSTRUCT = ("epibuild.build_brick_hom", "epibuild.extend_add_arrows",
             "epibuild.extend_invariant", "epibuild.glue_vertex",
             "epibuild.canonical_generic_hom")

LAYERS = ("exactlin", "quiver", "quiverrep", "freealg", "epibuild", "cli")


def products_at_degree(gen_degrees, letters: int, d: int) -> int:
    """Products w_left * g * w_right of total degree d that IdealSpan inserts."""
    return sum((d - g + 1) * letters ** (d - g) for g in gen_degrees if g <= d)


class Tracer:
    """Installs span-recording wrappers; counters ride on a few of them."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = [-1]
        self.counters: dict = {}
        self._built = weakref.WeakKeyDictionary()  # IdealSpan -> degree built
        self._restore: list = []

    def count(self, key: str, n) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _hook_rref(self, args, result):
        m = args[0]
        self.count("exactlin.rref.cells", m.rows * m.cols)

    def _hook_hom_basis(self, args, result):
        m, n = args[0], args[1]
        self.count("quiverrep.hom_basis.unknowns",
                   sum(m.dims[v] * n.dims[v] for v in m.quiver.vertices))

    def _hook_build_to(self, args, result):
        span, degree = args[0], args[1]
        done = self._built.get(span, -1)
        if degree > done:
            gens = [g.degree() for g in span.gens.generators]
            letters = len(span.algebra.letters)
            self.count("freealg.IdealSpan.products",
                       sum(products_at_degree(gens, letters, d) for d in range(done + 1, degree + 1)))
            self._built[span] = degree
        top = self.counters.get("freealg.IdealSpan.max_degree", -1)
        self.counters["freealg.IdealSpan.max_degree"] = max(top, degree)

    def _hook_try_reduce(self, args, result):
        self.count("freealg.IdealSpan.resolved", int(result is not None))

    def _wrap(self, fn, name, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        hooks = {
            "exactlin.rref": self._hook_rref,
            "quiverrep.hom_basis": self._hook_hom_basis,
            "freealg.IdealSpan.build_to": self._hook_build_to,
            "freealg.IdealSpan.try_reduce_to_zero": self._hook_try_reduce,
        }
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "quiverepi" or name.startswith("quiverepi."))]
        for mod_name, path, span_name in TARGETS:
            owner = sys.modules[f"quiverepi.{mod_name}"]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
            wrapper = self._wrap(original, span_name, hooks.get(span_name))
            if len(parts) > 1:
                setattr(owner, parts[-1], wrapper)
                self._restore.append((owner, parts[-1], original))
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def summarize(spans) -> dict:
    """Per span name: calls, total seconds and self seconds."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, parent) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["total_s"] += end - start
        s["self_s"] += end - start - child[i]
    return out
