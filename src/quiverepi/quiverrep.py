"""Finite-dimensional quiver representations and their Hom/Ext machinery.

Arrow matrices act source -> target on column vectors, so an intertwiner
(f_v) from M to N satisfies f_{t(e)} phi_e^M = phi_e^N f_{s(e)} for every
arrow e.  Ext^1 is computed through the Euler form (path algebras of finite
acyclic quivers are hereditary, so dim Hom - dim Ext^1 equals the form);
that identity is the one theory input beyond the constructions themselves
and is guarded by a hand-built resolution test in the suite.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from .exactlin import (QQ, ExactMatrix, column_space_basis, nullspace_basis, nullspace_vectors,
                       rank, rref)
from .quiver import BlockLayout, Quiver, block_layout, check_dims, directive_lines, parse_quiver


class RepresentationError(Exception):
    pass


class QuiverMismatch(RepresentationError):
    pass


class ZeroModule(RepresentationError):
    pass


class UnknownArrow(RepresentationError):
    pass


class DimensionExceeded(RepresentationError):
    pass


class VertexMismatch(RepresentationError):
    pass


class Representation:
    """One vector space dimension per vertex, one exact matrix per arrow.

    Zero-dimensional vertices give 0xN / Nx0 matrices, which are valid.
    Missing arrows in `maps` default to the zero matrix of the right shape.
    """

    def __init__(self, quiver: Quiver, dims: dict[str, int], maps=None, field=QQ):
        check_dims(quiver, dims)
        self.quiver = quiver
        self.field = field
        self.dims = dict(dims)
        self.maps = {}
        maps = maps or {}
        for name in maps:
            if not quiver.has_arrow(name):
                raise UnknownArrow(f"map given for unknown arrow {name!r}")
        for a in quiver.arrows:
            shape = (dims[a.target], dims[a.source])
            m = maps.get(a.name)
            if m is None:
                m = ExactMatrix.zeros(field, *shape)
            elif not isinstance(m, ExactMatrix):
                try:
                    m = ExactMatrix(field, m, cols=shape[1]) if shape[0] \
                        else ExactMatrix(field, [], cols=shape[1])
                except ValueError as exc:
                    raise RepresentationError(f"arrow {a.name!r}: {exc}") from None
            if (m.rows, m.cols) != shape:
                raise RepresentationError(
                    f"arrow {a.name!r} needs a {shape[0]}x{shape[1]} matrix, got {m.rows}x{m.cols}"
                )
            if m.field != field:
                m = m.convert(field)
            self.maps[a.name] = m

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def layout(self) -> BlockLayout:
        return block_layout(self.quiver, self.dims)

    def map(self, arrow_name: str) -> ExactMatrix:
        if not self.quiver.has_arrow(arrow_name):
            raise UnknownArrow(f"unknown arrow {arrow_name!r}")
        return self.maps[arrow_name]

    def restrict(self, sub: Quiver) -> "Representation":
        """Restriction to a subquiver on the same vertex set."""
        if set(sub.vertices) != set(self.quiver.vertices):
            raise QuiverMismatch("subquiver must keep the vertex set")
        return Representation(sub, self.dims,
                              {a.name: self.maps[a.name] for a in sub.arrows},
                              field=self.field)

    def __eq__(self, other):
        return (
            isinstance(other, Representation)
            and self.quiver == other.quiver
            and self.field == other.field
            and self.dims == other.dims
            and self.maps == other.maps
        )

    def __repr__(self):
        dims = ", ".join(f"{v}={self.dims[v]}" for v in self.quiver.vertices)
        return f"Representation({dims})"


class IntertwinerBasis:
    """A basis of Hom(M, N): per-vertex matrix tuples plus the dimension."""

    def __init__(self, pairs: Sequence[dict[str, ExactMatrix]]):
        self.pairs = list(pairs)
        self.dimension = len(self.pairs)


class Subspace:
    """A subspace of one vertex's coordinate space, given by an independent basis."""

    def __init__(self, vertex: str, basis: Sequence[ExactMatrix], ambient_dim: int, field=QQ):
        self.vertex = vertex
        self.field = field
        self.ambient_dim = ambient_dim
        vecs = []
        for v in basis:
            if v.cols != 1 or v.rows != ambient_dim:
                raise DimensionExceeded(
                    f"basis vector is {v.rows}x{v.cols}, ambient dimension is {ambient_dim}"
                )
            if v.field != field:
                raise RepresentationError("basis vector over a different field")
            vecs.append(v)
        self.basis = tuple(vecs)
        if vecs and rank(self.matrix()) != len(vecs):
            raise RepresentationError("subspace basis is linearly dependent")

    def dim(self) -> int:
        return len(self.basis)

    def matrix(self) -> ExactMatrix:
        """Ambient_dim x dim matrix whose columns are the basis."""
        cols = [v.column(0) for v in self.basis]
        return ExactMatrix.from_columns(self.field, cols, self.ambient_dim)

    def contains(self, vector: ExactMatrix) -> bool:
        if self.dim() == 0:
            return vector.is_zero()
        m = self.matrix()
        return rank(m.hstack(vector)) == self.dim()


def _intertwiner_system(M: Representation, N: Representation):
    """The stacked linear system f_{t(e)} phi_e^M - phi_e^N f_{s(e)} = 0 of
    Hom(M, N): (rows, unknowns, offsets), entry (p, r) of f_v being unknown
    offsets[v] + p * dims_M[v] + r (row-major), with the rows of the arrows
    in quiver order.

    Each row is sparse, a dict {unknown: nonzero coefficient}: it has at most
    dims_M[t(e)] + dims_N[s(e)] entries out of sum_v dims_N[v] * dims_M[v]
    unknowns."""
    if M.quiver != N.quiver:
        raise QuiverMismatch("representations live over different quivers")
    if M.field != N.field:
        raise QuiverMismatch("representations live over different fields")
    q, f = M.quiver, M.field
    offsets = {}
    total = 0
    for v in q.vertices:
        offsets[v] = total
        total += N.dims[v] * M.dims[v]
    rows = []
    for a in q.arrows:
        phi_m = M.maps[a.name].entries
        phi_n = N.maps[a.name].entries
        mt, ms = M.dims[a.target], M.dims[a.source]
        o_t, o_s = offsets[a.target], offsets[a.source]
        for p in range(N.dims[a.target]):
            phi_n_p = phi_n[p]
            base = o_t + p * mt
            for r in range(ms):
                # (f_t phi_m)_{pr} = sum_q (f_t)_{pq} (phi_m)_{qr}: distinct
                # unknowns
                row = {base + qq: c for qq, phi_m_q in enumerate(phi_m) if (c := phi_m_q[r])}
                # (phi_n f_s)_{pr} = sum_q (phi_n)_{pq} (f_s)_{qr}; on a loop
                # (s = t) the unknown may already hold a coefficient, and the
                # two may cancel
                for qq, c in enumerate(phi_n_p):
                    if c:
                        k = o_s + qq * ms + r
                        x = f.sub(row[k], c) if k in row else f.neg(c)
                        if x:
                            row[k] = x
                        else:
                            del row[k]
                rows.append(row)
    return rows, total, offsets


def hom_basis(M: Representation, N: Representation) -> IntertwinerBasis:
    """Basis of the intertwiner space Hom(M, N): the nullspace_vectors of
    the intertwiner system's sparse rows, unpacked into per-vertex matrices
    (shape dims_N[v] x dims_M[v])."""
    rows, total, offsets = _intertwiner_system(M, N)
    f = M.field
    pairs = []
    for flat in nullspace_vectors(f, rows, total):
        tup = {}
        for v in M.quiver.vertices:
            m, base = M.dims[v], offsets[v]
            entries = [flat[base + p * m: base + (p + 1) * m] for p in range(N.dims[v])]
            tup[v] = ExactMatrix._of(f, entries, m)
        pairs.append(tup)
    return IntertwinerBasis(pairs)


def hom_dim(M: Representation, N: Representation) -> int:
    """dim Hom(M, N): the unknowns of the intertwiner system minus its rank;
    no basis is built.  The representations' own field ranks the sparse
    rows: GF(p) by its sparse echelon, QQ by its fraction-free forward pass
    on dense integer rows."""
    rows, total, _ = _intertwiner_system(M, N)
    return total - M.field.rank(rows, total)


def end_basis(M: Representation) -> IntertwinerBasis:
    return hom_basis(M, M)


def end_dim(M: Representation) -> int:
    """dim End(M), from the rank of the intertwiner system.  Raises
    ZeroModule on the zero module; dim Ext^1(M, M) is this minus the Euler
    form <dim M, dim M>."""
    if M.total_dim() == 0:
        raise ZeroModule("the zero module is not a brick candidate")
    return hom_dim(M, M)


def is_brick(M: Representation) -> bool:
    """True iff End(M) is one-dimensional.  Raises ZeroModule on the zero module."""
    return end_dim(M) == 1


def euler_form(q: Quiver, alpha: dict[str, int], beta: dict[str, int]) -> int:
    """<alpha, beta> = sum_v a_v b_v - sum_e a_{s(e)} b_{t(e)}."""
    check_dims(q, alpha)
    check_dims(q, beta)
    val = sum(alpha[v] * beta[v] for v in q.vertices)
    val -= sum(alpha[a.source] * beta[a.target] for a in q.arrows)
    return val


def ext1_dim(M: Representation, N: Representation) -> int:
    """dim Ext^1(M, N) via the hereditary identity Hom - Ext^1 = Euler form."""
    return hom_dim(M, N) - euler_form(M.quiver, M.dims, N.dims)


def is_exceptional(M: Representation) -> bool:
    """Brick with no self-extensions."""
    end = end_dim(M)
    return end == 1 and end - euler_form(M.quiver, M.dims, M.dims) == 0


def kernel_image(M: Representation, arrow_name: str) -> tuple[Subspace, Subspace]:
    """Exact kernel and image bases of one arrow's matrix."""
    if not M.quiver.has_arrow(arrow_name):
        raise UnknownArrow(f"unknown arrow {arrow_name!r}")
    a = M.quiver.arrow(arrow_name)
    phi = M.maps[arrow_name]
    ker = Subspace(a.source, nullspace_basis(phi), M.dims[a.source], field=M.field)
    im = Subspace(a.target, column_space_basis(phi), M.dims[a.target], field=M.field)
    return ker, im


def complement(sub: Subspace, ambient_dim: int) -> Subspace:
    """Deterministic direct complement by greedy standard-vector extension:
    the unit vectors that are pivot columns of rref([basis | I]), which are
    exactly those that raise the rank when added in order."""
    if sub.dim() > ambient_dim or sub.ambient_dim != ambient_dim:
        raise DimensionExceeded(
            f"subspace of dimension {sub.dim()} in ambient {sub.ambient_dim} "
            f"does not fit dimension {ambient_dim}"
        )
    d = sub.dim()
    eye = ExactMatrix.identity(sub.field, ambient_dim)
    _, pivots = rref(sub.matrix().hstack(eye))
    chosen = [eye.submatrix(range(ambient_dim), [c - d]) for c in pivots if c >= d]
    return Subspace(sub.vertex, chosen, ambient_dim, field=sub.field)


def find_end_invariance_violation(M: Representation, sub: Subspace):
    """First (endomorphism index, basis vector index) moving sub out of itself, or None."""
    if sub.vertex not in M.quiver.vertices:
        raise VertexMismatch(f"vertex {sub.vertex!r} is not in the quiver")
    if M.dims[sub.vertex] != sub.ambient_dim:
        raise VertexMismatch(
            f"subspace ambient dimension {sub.ambient_dim} != dim at {sub.vertex!r}"
        )
    for i, tup in enumerate(end_basis(M).pairs):
        f_v = tup[sub.vertex]
        for j, vec in enumerate(sub.basis):
            if not sub.contains(f_v * vec):
                return i, j
    return None


def invariant_under_end(M: Representation, sub: Subspace) -> bool:
    """True iff every endomorphism of M maps sub into itself."""
    return find_end_invariance_violation(M, sub) is None


def direct_sum(M: Representation, N: Representation) -> Representation:
    """Blockwise direct sum; dimension vectors add."""
    if M.quiver != N.quiver:
        raise QuiverMismatch("representations live over different quivers")
    if M.field != N.field:
        raise QuiverMismatch("representations live over different fields")
    q, f = M.quiver, M.field
    dims = {v: M.dims[v] + N.dims[v] for v in q.vertices}
    maps = {}
    for a in q.arrows:
        rows, cols = dims[a.target], dims[a.source]
        block = [[f.zero()] * cols for _ in range(rows)]
        mm, nn = M.maps[a.name], N.maps[a.name]
        for i in range(mm.rows):
            for j in range(mm.cols):
                block[i][j] = mm.entry(i, j)
        for i in range(nn.rows):
            for j in range(nn.cols):
                block[M.dims[a.target] + i][M.dims[a.source] + j] = nn.entry(i, j)
        maps[a.name] = ExactMatrix(f, block, cols=cols)
    return Representation(q, dims, maps, field=f)


def random_representation(q: Quiver, dims: dict[str, int], rng, field=QQ) -> Representation:
    """Seeded random representation with entries uniform over {-2,...,2}."""
    maps = {}
    for a in q.arrows:
        rows, cols = dims[a.target], dims[a.source]
        maps[a.name] = ExactMatrix(
            field, [[rng.randrange(-2, 3) for _ in range(cols)] for _ in range(rows)], cols=cols
        )
    return Representation(q, dims, maps, field=field)


def parse_representation(text: str, quiver: Quiver, field=QQ) -> Representation:
    """Parse the representation text format against a known quiver.

    Lines: an optional `quiver <file>` header, at most one (load_representation
    reads its file), `dims <v>=<n> ...`, then `map <arrow> <row> ; <row>` with
    rational entries, at most one per arrow.  Arrows without a map line get
    the zero matrix.
    """
    dims: dict[str, int] | None = None
    maps: dict[str, ExactMatrix] = {}
    header = False
    for lineno, _, line in directive_lines(text):
        tokens = line.split()
        head = tokens[0]
        if head == "quiver":
            if header:
                raise RepresentationError(f"line {lineno}: second 'quiver' line")
            header = True
        elif head == "dims":
            if dims is not None:
                raise RepresentationError(f"line {lineno}: second 'dims' line")
            dims = {}
            for tok in tokens[1:]:
                if "=" not in tok:
                    raise RepresentationError(f"line {lineno}: expected <vertex>=<dim>, got {tok!r}")
                v, d = tok.split("=", 1)
                if v in dims:
                    raise RepresentationError(f"line {lineno}: vertex {v!r} repeated in 'dims'")
                try:
                    dims[v] = int(d)
                except ValueError:
                    raise RepresentationError(f"line {lineno}: bad dimension {d!r}") from None
        elif head == "map":
            if dims is None:
                raise RepresentationError(f"line {lineno}: 'map' before 'dims'")
            if len(tokens) < 2:
                raise RepresentationError(f"line {lineno}: 'map' needs an arrow name")
            name = tokens[1]
            if not quiver.has_arrow(name):
                raise UnknownArrow(f"line {lineno}: unknown arrow {name!r}")
            if name in maps:
                raise RepresentationError(f"line {lineno}: second 'map' line for arrow {name!r}")
            a = quiver.arrow(name)
            body = line.split(None, 2)[2] if len(tokens) > 2 else ""
            try:
                rows = [[field.coerce(tok) for tok in entries]
                        for chunk in body.split(";") if (entries := chunk.split())]
            except (ValueError, ZeroDivisionError):
                raise RepresentationError(f"line {lineno}: bad entry in map {name!r}") from None
            expected = (dims.get(a.target, 0), dims.get(a.source, 0))
            try:
                maps[name] = ExactMatrix(field, rows, cols=expected[1]) if rows else \
                    ExactMatrix.zeros(field, *expected)
            except ValueError as exc:
                raise RepresentationError(f"line {lineno}: map {name!r}: {exc}") from None
        else:
            raise RepresentationError(f"line {lineno}: unknown directive {head!r}")
    if dims is None:
        raise RepresentationError("missing 'dims' line")
    return Representation(quiver, dims, maps, field=field)


def load_representation(path, field=QQ) -> Representation:
    """Read a representation file, resolving its `quiver <file>` header
    relative to the representation file's directory."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    headers = (line.split(None, 1) for _, _, line in directive_lines(text))
    header = next((parts for parts in headers if parts[0] == "quiver"), None)
    if header is None:
        raise RepresentationError(f"{path}: missing 'quiver <file>' header")
    if len(header) != 2:
        raise RepresentationError("'quiver' header needs a file name")
    q = parse_quiver((path.parent / header[1]).read_text(encoding="utf-8"))
    return parse_representation(text, q, field=field)


def representation_to_text(M: Representation, quiver_file: str | None = None) -> str:
    lines = []
    if quiver_file:
        lines.append(f"quiver {quiver_file}")
    lines.append("dims " + " ".join(f"{v}={M.dims[v]}" for v in M.quiver.vertices))
    for a in M.quiver.arrows:
        m = M.maps[a.name]
        if m.rows and m.cols:
            body = " ; ".join(" ".join(M.field.to_str(x) for x in row) for row in m.entries)
            lines.append(f"map {a.name} {body}")
    return "\n".join(lines) + "\n"
