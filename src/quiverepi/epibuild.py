"""Homomorphisms from path algebras into matrix algebras over free
associative algebras: the brick construction, the arrow- and vertex-adding
extensions, canonical generic maps and localisation presentations, and the
two verification engines (commutant ideal criterion, randomized
specialization refutation).

Conventions.  A hom h: kQ -> M_n(k<X>) is stored through the images of the
vertex idempotents and the arrows; well-definedness on all of kQ follows
because those images satisfy the path-algebra relations, which the
constructor checks exactly: the idempotent images are orthogonal
idempotents summing to the identity, and every arrow image equals
idem[target] * image * idem[source].  Every construction here is the
canonical generic hom of its quiver and dimension vector under one letter
substitution, so vertices are laid out in declared order and idempotent
images are 0/1 block identities.

The ideal criterion works in the free product of the target's coefficient
algebra with k<(v_ij)>, realized as the free algebra on the disjoint union
of letters.  Its ideal is generated by the entries of V h(g) - h(g) V with
g running over vertex idempotents and arrows only: commutation with
generators propagates to products because [V, ab] = [V, a] b + a [V, b].
"""

from __future__ import annotations

import warnings
from functools import reduce
from itertools import product

from .exactlin import (
    GF,
    QQ,
    ExactMatrix,
    idempotent_diagonalize,
    is_prime,
    nullspace_basis,
    parse_field,
    rank,
    solve_or_invert,
)
from .freealg import (
    AlphabetMismatch,
    FreeAlgebra,
    FreeMat,
    FreePoly,
    IdealGens,
    PolyParseError,
    decide_memberships,
    default_degree_bound,
)
from .quiver import Quiver, block_layout
from .quiverrep import (
    Representation,
    ZeroModule,
    complement,
    end_basis,
    end_dim,
    euler_form,
    find_end_invariance_violation,
    hom_basis,  # noqa: F401 - unused here; perfbench/test_checks.py traces this binding
    hom_dim,
    is_brick,
    is_exceptional,
    kernel_image,
)


class EpibuildError(Exception):
    pass


class NotABrick(EpibuildError):
    pass


class NotExceptional(EpibuildError):
    pass


class QuiverNotExtension(EpibuildError):
    pass


class WrongProvenance(EpibuildError):
    pass


class FullRank(EpibuildError):
    pass


class InvarianceFailure(EpibuildError):
    def __init__(self, subspace: str, endo_index: int, vector_index: int):
        super().__init__(
            f"{subspace} is not invariant: endomorphism #{endo_index} moves "
            f"basis vector #{vector_index} out of the span"
        )
        self.subspace = subspace
        self.endo_index = endo_index
        self.vector_index = vector_index


class DimensionTooSmall(EpibuildError):
    pass


class LayoutMismatch(EpibuildError):
    pass


class PathMismatch(EpibuildError):
    pass


class EndpointMismatch(EpibuildError):
    pass


class SizeMismatch(EpibuildError):
    pass


class InvalidHom(EpibuildError):
    """A structural invariant of an AlgebraHom failed."""


class CertificateMismatch(RuntimeError):
    """A membership certificate did not re-evaluate to its target.  This is a
    fault of the span engine, not of the input, so it is deliberately not an
    EpibuildError and the CLI does not report it as one."""


def commutant_letters(n: int) -> list[str]:
    """Names of the n x n commutant indeterminates v_ij, row-major, 1-based."""
    return [f"v{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1)]


def block_letter(arrow: str, i: int, j: int) -> str:
    """Canonical name of the (i, j) indeterminate of an arrow block (1-based)."""
    return f"x[{arrow}]_{i}_{j}"


class AlgebraHom:
    """A homomorphism from a path algebra to M_size(k<alphabet>).

    letter_coords maps an indeterminate to its (row, col, arrow) position
    (0-based global coordinates) for homs whose new-arrow blocks are full
    indeterminate blocks; it powers generation_identity_check.
    """

    def __init__(self, source_quiver: Quiver, algebra: FreeAlgebra, size: int,
                 idem_images: dict[str, FreeMat], arrow_images: dict[str, FreeMat],
                 letter_coords: dict[str, tuple[int, int, str]] | None = None,
                 provenance: str = "direct"):
        self.source_quiver = source_quiver
        self.algebra = algebra
        self.size = size
        self.idem_images = dict(idem_images)
        self.arrow_images = dict(arrow_images)
        self.letter_coords = dict(letter_coords) if letter_coords is not None else None
        self.provenance = provenance
        self._validate()

    @classmethod
    def _of(cls, source_quiver: Quiver, algebra: FreeAlgebra, size: int,
            idem_images: dict[str, FreeMat], arrow_images: dict[str, FreeMat],
            letter_coords: dict | None, provenance: str) -> "AlgebraHom":
        """A hom from images that satisfy the path-algebra relations by
        construction: the dicts are taken as they are, with no validation."""
        h = object.__new__(cls)
        h.source_quiver, h.algebra, h.size = source_quiver, algebra, size
        h.idem_images, h.arrow_images = idem_images, arrow_images
        h.letter_coords, h.provenance = letter_coords, provenance
        return h

    def _validate(self):
        """Raise InvalidHom on the first missing or misshapen image, or on the
        first path-algebra relation the images break."""
        n = self.size
        for v in self.source_quiver.vertices:
            if v not in self.idem_images:
                raise InvalidHom(f"missing idempotent image for vertex {v!r}")
        for a in self.source_quiver.arrows:
            if a.name not in self.arrow_images:
                raise InvalidHom(f"missing image for arrow {a.name!r}")
        for name, m in list(self.idem_images.items()) + list(self.arrow_images.items()):
            if m.rows != n or m.cols != n:
                raise InvalidHom(f"image of {name!r} is {m.rows}x{m.cols}, expected {n}x{n}")
            if m.algebra != self.algebra:
                raise InvalidHom(f"image of {name!r} lives over a different algebra")
        idems = {v: self.idem_images[v] for v in self.source_quiver.vertices}
        for v, e in idems.items():
            if e * e != e:
                raise InvalidHom(f"idempotent image of vertex {v!r} is not idempotent")
        for v, e in idems.items():
            for w, e2 in idems.items():
                if v != w and not (e * e2).is_zero():
                    raise InvalidHom(f"idempotent images of {v!r} and {w!r} are not orthogonal")
        total = sum(idems.values(), FreeMat.zeros(self.algebra, n, n))
        if total != FreeMat.identity(self.algebra, n):
            raise InvalidHom("idempotent images do not sum to the identity")
        for a in self.source_quiver.arrows:
            img = self.arrow_images[a.name]
            if idems[a.target] * img * idems[a.source] != img:
                raise InvalidHom(
                    f"arrow {a.name!r} image is not supported in block "
                    f"({a.target!r}, {a.source!r})"
                )

    @property
    def field(self):
        return self.algebra.field

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraHom)
            and self.source_quiver == other.source_quiver
            and self.algebra == other.algebra
            and self.size == other.size
            and self.idem_images == other.idem_images
            and self.arrow_images == other.arrow_images
        )

    def standard_dims(self) -> dict[str, int]:
        """Read the dimension vector off standard-block idempotent images.

        Raises LayoutMismatch unless every idempotent image is the 0/1
        diagonal identity block at the running offset in declared vertex
        order.
        """
        one = self.algebra.one()
        dims = {}
        offset = 0
        for v in self.source_quiver.vertices:
            e = self.idem_images[v].nonzero
            k = 0
            while e.get((offset + k, offset + k)) == one:
                k += 1
            if e != {(i, i): one for i in range(offset, offset + k)}:
                raise LayoutMismatch(
                    f"idempotent image of vertex {v!r} is not the standard block identity"
                )
            dims[v] = k
            offset += k
        if offset != self.size:
            raise LayoutMismatch("idempotent blocks do not fill the matrix size")
        return dims

    def standard_blocks(self) -> tuple[dict[str, int], dict[str, FreeMat]]:
        """The standard dimension vector (standard_dims) and the (target,
        source) block of every arrow image in its layout."""
        dims = self.standard_dims()
        lay = block_layout(self.source_quiver, dims)
        blocks = {}
        for a in self.source_quiver.arrows:
            rows, cols = lay.block_range(a.target), lay.block_range(a.source)
            blocks[a.name] = FreeMat._of(
                self.algebra, len(rows), len(cols),
                {(i - rows.start, j - cols.start): p
                 for (i, j), p in self.arrow_images[a.name].nonzero.items()
                 if i in rows and j in cols})
        return dims, blocks

    def to_json_dict(self) -> dict:
        q = self.source_quiver
        return {
            "schema": 1,
            "field": self.field.name,
            "source_quiver": {
                "vertices": list(q.vertices),
                "arrows": [[a.name, a.source, a.target] for a in q.arrows],
            },
            "size": self.size,
            "alphabet": list(self.algebra.letters),
            "idem_images": {
                v: [[p.to_text() for p in row] for row in self.idem_images[v].entries]
                for v in q.vertices
            },
            "arrow_images": {
                a.name: [[p.to_text() for p in row] for row in self.arrow_images[a.name].entries]
                for a in q.arrows
            },
            "letter_coords": (
                None if self.letter_coords is None
                else {x: [i, j, e] for x, (i, j, e) in self.letter_coords.items()}
            ),
            "provenance": self.provenance,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "AlgebraHom":
        if not isinstance(data, dict):
            raise InvalidHom("a hom file must hold a JSON object")
        if data.get("schema") != 1:
            raise InvalidHom(f"unsupported hom schema {data.get('schema')!r}")
        _check_hom_document(data)
        qd = data["source_quiver"]
        quiver = Quiver(qd["vertices"], [tuple(a) for a in qd["arrows"]])
        algebra = FreeAlgebra(parse_field(data["field"]), data["alphabet"])
        n = data["size"]
        zero = algebra.zero()

        def entry(key, name, i, j, t):
            try:
                return zero if t == "0" else algebra.parse(t)
            except (PolyParseError, AlphabetMismatch) as exc:
                raise type(exc)(f"{key}[{name!r}][{i}][{j}]: {exc}") from None

        def grid(key, name):
            return FreeMat(algebra, [[entry(key, name, i, j, t) for j, t in enumerate(row)]
                                     for i, row in enumerate(data[key][name])], cols=n)

        idem = {v: grid("idem_images", v) for v in quiver.vertices}
        arrows = {a.name: grid("arrow_images", a.name) for a in quiver.arrows}
        coords = data.get("letter_coords")
        if coords is not None:
            coords = {x: (v[0], v[1], v[2]) for x, v in coords.items()}
        return cls(quiver, algebra, n, idem, arrows, letter_coords=coords,
                   provenance=data.get("provenance", "file"))


def _check_hom_document(data: dict) -> None:
    """Raise InvalidHom unless a schema-1 hom document has the keys, shapes
    and types that AlgebraHom.from_json_dict reads; the values themselves
    (field spec, quiver, polynomials, path-algebra relations) are checked
    by the constructors it calls."""

    def need(ok: bool, what: str) -> None:
        if not ok:
            raise InvalidHom(f"malformed hom file: {what}")

    def strings(x) -> bool:
        return isinstance(x, list) and all(isinstance(t, str) for t in x)

    for key in ("field", "source_quiver", "size", "alphabet", "idem_images", "arrow_images"):
        need(key in data, f"missing key {key!r}")
    need(isinstance(data["field"], str), "'field' must be a string")
    qd = data["source_quiver"]
    need(isinstance(qd, dict) and strings(qd.get("vertices")),
         "'source_quiver' must hold a list of vertex names")
    need(isinstance(qd.get("arrows"), list)
         and all(strings(a) and len(a) == 3 for a in qd["arrows"]),
         "every arrow must be [name, source, target]")
    n = data["size"]
    need(type(n) is int and n >= 0, "'size' must be a non-negative integer")
    need(strings(data["alphabet"]), "'alphabet' must be a list of letter names")
    for key, names in (("idem_images", qd["vertices"]),
                       ("arrow_images", [a[0] for a in qd["arrows"]])):
        images = data[key]
        need(isinstance(images, dict), f"{key!r} must be an object")
        for name in names:
            need(name in images, f"{key!r} has no image for {name!r}")
            rows = images[name]
            need(isinstance(rows, list) and len(rows) == n
                 and all(strings(row) and len(row) == n for row in rows),
                 f"{key}[{name!r}] must be {n} rows of {n} polynomial strings")
    coords = data.get("letter_coords")
    need(coords is None or (isinstance(coords, dict) and all(
        isinstance(c, list) and len(c) == 3 and type(c[0]) is int and type(c[1]) is int
        and isinstance(c[2], str) for c in coords.values())),
        "'letter_coords' must map letters to [row, col, arrow]")
    need(isinstance(data.get("provenance", ""), str), "'provenance' must be a string")


def _scalar_letters(M: Representation) -> dict[str, object]:
    """The substitution sending each canonical letter x[a]_i_j of M's quiver
    to entry (i, j) of M's matrix for a; under it the canonical generic hom
    of (Q, dim M) becomes M's action map."""
    return {block_letter(a.name, i + 1, j + 1): M.maps[a.name].entry(i, j)
            for a in M.quiver.arrows
            for i in range(M.dims[a.target]) for j in range(M.dims[a.source])}


def build_brick_hom(M: Representation, allow_non_brick: bool = False) -> AlgebraHom:
    """The action map kQ -> M_n(k) of a module, as an AlgebraHom with empty
    alphabet; n is the total dimension and blocks follow the vertex layout.
    It is the canonical generic hom of (Q, dim M) with every letter sent to
    M's scalar entry.

    A ring epimorphism exactly when M is a brick, so non-bricks are rejected
    unless allow_non_brick is set (useful as refutation fixtures).
    """
    if M.total_dim() == 0:
        raise ZeroModule("cannot build a hom from the zero module")
    if not allow_non_brick and not is_brick(M):
        raise NotABrick("module is not a brick (pass allow_non_brick to build anyway)")
    hom = substitute_letters(canonical_generic_hom(M.quiver, M.dims, field=M.field),
                             _scalar_letters(M))
    hom.letter_coords, hom.provenance = None, "brick"
    return hom


def extend_add_arrows(M: Representation, q_prime: Quiver) -> AlgebraHom:
    """Extend the brick hom of M over Q to Q' >= Q by sending each new arrow
    to a full block of fresh indeterminates at its (target, source) block:
    the canonical generic hom of Q' with the old arrows' letters replaced by
    M's scalars.

    Requires Q'_0 = Q_0 and Q_1 a subset of Q'_1.  M must be a brick; if it
    has self-extensions the result is still a ring epimorphism but not a
    universal localisation, and a warning says so.
    """
    q = M.quiver
    if q_prime.vertices != q.vertices:
        raise QuiverNotExtension("extension quiver must keep the vertex list")
    for a in q.arrows:
        if not q_prime.has_arrow(a.name) or q_prime.arrow(a.name) != a:
            raise QuiverNotExtension(f"arrow {a.name!r} of the subquiver is missing from the extension")
    end = end_dim(M)
    if end != 1:
        raise NotABrick("module is not a brick")
    if end - euler_form(q, M.dims, M.dims) != 0:
        warnings.warn(
            "module has self-extensions: the extension is a ring epimorphism "
            "but not a universal localisation",
            stacklevel=2,
        )
    hom = substitute_letters(canonical_generic_hom(q_prime, M.dims, field=M.field),
                             _scalar_letters(M))
    hom.provenance = "extend"
    return hom


def generation_identity_check(h: AlgebraHom) -> bool:
    """Verify, for each indeterminate x at global position (i0, j0) of its
    arrow's image A, the identity x * I = sum_i e_{i,i0} A e_{j0,i}.  Each
    summand is A[i0][j0] * e_{i,i}, so the identity holds exactly when entry
    (i0, j0) of A is x.  True vacuously on an empty alphabet or size 0."""
    if h.letter_coords is None:
        raise WrongProvenance(
            "hom does not carry indeterminate block coordinates "
            "(not produced by extend_add_arrows / canonical_generic_hom)"
        )
    alg = h.algebra
    for x in alg.letters:
        i0, j0, arrow_name = h.letter_coords[x]
        if h.size and h.arrow_images[arrow_name].entry(i0, j0) != alg.letter(x):
            return False
    return True


def extend_invariant(M_prime: Representation, arrow_name: str, case: str) -> AlgebraHom:
    """The invariant-subspace extension: M' is a brick over Q', e' one of its
    arrows with a non-invertible matrix, and M the restriction to Q' minus
    e'.  Requires Ker and Im of e' to be invariant under End(M); cases ii/iii/iv
    additionally require invariance of the deterministic complements.  The
    hom re-coordinatizes the source and target vertex blocks along
    Ker + complement and Im + complement and sends e' to the block matrix

        [[X11?, phi], [X21, X22?]]

    with phi the induced isomorphism complement -> image and the X blocks
    fresh indeterminates per the case (i: X21 only; ii: +X11; iii: +X22;
    iv: both): the canonical generic hom of (Q', dim M') with the other
    arrows' letters sent to the re-coordinatized module's scalars.
    """
    if case not in ("i", "ii", "iii", "iv"):
        raise ValueError(f"case must be one of i, ii, iii, iv, got {case!r}")
    if not M_prime.quiver.has_arrow(arrow_name):
        raise ValueError(f"no arrow {arrow_name!r} in the module's quiver")
    if not is_brick(M_prime):
        raise NotABrick("module is not a brick")
    q_prime = M_prime.quiver
    e = q_prime.arrow(arrow_name)
    phi = M_prime.maps[arrow_name]
    r = rank(phi)
    if phi.rows == phi.cols == r:
        raise FullRank(f"arrow {arrow_name!r} has an invertible matrix")
    q = q_prime.drop_arrow(arrow_name)
    M = M_prime.restrict(q)
    ker, im = kernel_image(M_prime, arrow_name)

    def check(sub, label):
        offense = find_end_invariance_violation(M, sub)
        if offense is not None:
            raise InvarianceFailure(label, offense[0], offense[1])

    check(ker, f"kernel of {arrow_name!r}")
    check(im, f"image of {arrow_name!r}")
    comp_s = complement(ker, M.dims[e.source])
    comp_t = complement(im, M.dims[e.target])
    if case in ("ii", "iv"):
        check(comp_s, f"source complement of {arrow_name!r}")
    if case in ("iii", "iv"):
        check(comp_t, f"target complement of {arrow_name!r}")

    f = M.field
    alpha_s, alpha_t = M.dims[e.source], M.dims[e.target]
    k_dim = alpha_s - r
    t_comp_dim = alpha_t - r
    basis_s = [v.column(0) for v in ker.basis] + [v.column(0) for v in comp_s.basis]
    basis_t = [v.column(0) for v in im.basis] + [v.column(0) for v in comp_t.basis]
    T = {v: ExactMatrix.identity(f, M.dims[v]) for v in q.vertices}
    T[e.source] = ExactMatrix.from_columns(f, basis_s, alpha_s)
    T[e.target] = ExactMatrix.from_columns(f, basis_t, alpha_t)
    T_inv = {v: solve_or_invert(T[v]) for v in (e.source, e.target)}

    def rebase(arrow):
        m = M.maps[arrow.name]
        if arrow.target in T_inv:
            m = T_inv[arrow.target] * m
        if arrow.source in T_inv:
            m = m * T[arrow.source]
        return m

    N = Representation(q, M.dims, {a.name: rebase(a) for a in q.arrows}, field=f)
    phi_new = T_inv[e.target] * phi * T[e.source]
    # adapted basis forces [[0, phi], [0, 0]] with blocks (Im|comp) x (Ker|comp)
    for i in range(alpha_t):
        for j in range(alpha_s):
            expect_zero = (j < k_dim) or (i >= r)
            if expect_zero and not f.is_zero(phi_new.entry(i, j)):
                raise EpibuildError("internal: adapted basis did not block-triangularize the arrow")

    letters = []
    if case in ("ii", "iv"):
        letters += [f"x11_{i}_{j}" for i in range(1, r + 1) for j in range(1, k_dim + 1)]
    letters += [f"x21_{i}_{j}" for i in range(1, t_comp_dim + 1) for j in range(1, k_dim + 1)]
    if case in ("iii", "iv"):
        letters += [f"x22_{i}_{j}" for i in range(1, t_comp_dim + 1) for j in range(1, r + 1)]
    algebra = FreeAlgebra(f, letters)

    def local(k, split):
        """Block number (1 or 2) and 1-based index within it of coordinate k."""
        return (1, k + 1) if k < split else (2, k - split + 1)

    # cell (i, j) of e' lies in block X_{bi bj}: its letter when the case
    # keeps one, else phi_new's entry (phi in X12, zero in the rest)
    assignment = _scalar_letters(N)
    for i in range(alpha_t):
        for j in range(alpha_s):
            (bi, li), (bj, lj) = local(i, r), local(j, k_dim)
            x = f"x{bi}{bj}_{li}_{lj}"
            assignment[block_letter(arrow_name, i + 1, j + 1)] = (
                algebra.letter(x) if x in algebra.letters else phi_new.entry(i, j))
    hom = substitute_letters(canonical_generic_hom(q_prime, M.dims, field=f), assignment,
                             algebra)
    hom.letter_coords, hom.provenance = None, "invariant"
    return hom


_GLUE_VERTEX_BASE = "glue_v"
_GLUE_ARROW_BASE = "glue_e"


def _fresh_name(base: str, taken) -> str:
    if base not in taken:
        return base
    i = 2
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def glue_vertex(M: Representation, w: str) -> AlgebraHom:
    """Add a fresh vertex w' and an arrow e': w' -> w to a brick M with
    dim M_w = m > 1, giving a hom into M_{n+1}(k<x_1..x_{m-1}>): kQ embeds in
    the top-left n x n block, w' maps to e_{n+1,n+1}, and e' to the matrix
    whose last column carries 1, x_1, ..., x_{m-1} at w's block rows.  It is
    the canonical generic hom of (Q', alpha') with the old letters sent to
    M's scalars, x[e']_1_1 to 1 and x[e']_{k+1}_1 to x_k."""
    if not is_brick(M):
        raise NotABrick("module is not a brick")
    if w not in M.quiver.vertices:
        raise EpibuildError(f"unknown vertex {w!r}")
    m = M.dims[w]
    if m <= 1:
        raise DimensionTooSmall(f"vertex {w!r} has dimension {m}, need > 1")
    q = M.quiver
    w_prime = _fresh_name(_GLUE_VERTEX_BASE, set(q.vertices))
    e_prime = _fresh_name(_GLUE_ARROW_BASE, {a.name for a in q.arrows})
    q_prime = Quiver(list(q.vertices) + [w_prime],
                     list(q.arrows) + [(e_prime, w_prime, w)])
    dims = dict(M.dims)
    dims[w_prime] = 1
    letters = [f"x{i}" for i in range(1, m)]
    algebra = FreeAlgebra(M.field, letters)
    assignment = _scalar_letters(M)
    assignment[block_letter(e_prime, 1, 1)] = 1
    for k, x in enumerate(letters, start=2):
        assignment[block_letter(e_prime, k, 1)] = algebra.letter(x)
    hom = substitute_letters(canonical_generic_hom(q_prime, dims, field=M.field), assignment,
                             algebra)
    hom.letter_coords, hom.provenance = None, "glue"
    return hom


def canonical_generic_hom(q: Quiver, dims: dict[str, int], field=QQ) -> AlgebraHom:
    """The generic map sending every arrow to a full indeterminate block at
    its (target, source) position and every vertex to its block identity;
    every standard-layout hom factors through it by substitution."""
    layout = block_layout(q, dims)
    n = layout.total
    coords = {block_letter(a.name, i + 1, j + 1):
              (layout.offsets[a.target] + i, layout.offsets[a.source] + j, a.name)
              for a in q.arrows for i in range(dims[a.target]) for j in range(dims[a.source])}
    algebra = FreeAlgebra(field, coords)
    one = algebra.one()
    cells: dict[str, dict] = {a.name: {} for a in q.arrows}
    for x, (i, j, arrow) in coords.items():
        cells[arrow][i, j] = algebra.letter(x)
    return AlgebraHom._of(q, algebra, n,
                          {v: FreeMat._of(algebra, n, n,
                                          {(i, i): one for i in layout.block_range(v)})
                           for v in q.vertices},
                          {name: FreeMat._of(algebra, n, n, c) for name, c in cells.items()},
                          coords, "canonical")


def factor_through_canonical(h: AlgebraHom) -> dict[str, FreePoly]:
    """The unique substitution on the canonical generic hom's letters that
    reproduces h: x^(e)_ij maps to entry (i, j) of h's arrow block.  Requires
    standard-layout idempotent images (LayoutMismatch otherwise); verified by
    re-substitution before returning."""
    dims, blocks = h.standard_blocks()
    assignment: dict[str, FreePoly] = {}
    for a in h.source_quiver.arrows:
        blk = blocks[a.name]
        for i in range(blk.rows):
            for j in range(blk.cols):
                assignment[block_letter(a.name, i + 1, j + 1)] = blk.entry(i, j)
    canonical = canonical_generic_hom(h.source_quiver, dims, field=h.field)
    substituted = substitute_letters(canonical, assignment, target_algebra=h.algebra)
    if substituted != h:
        raise LayoutMismatch("substitution into the canonical hom does not reproduce the input")
    return assignment


def substitute_letters(h: AlgebraHom, assignment: dict[str, FreePoly | object],
                       target_algebra: FreeAlgebra | None = None) -> AlgebraHom:
    """Apply a letter substitution to every image of h.

    Values may be FreePoly over the target algebra or plain scalars.  When
    target_algebra is omitted, it is h's algebra minus the substituted
    letters (values must then be scalars or polys over that reduced algebra).
    """
    unknown = [x for x in assignment if x not in h.algebra.letters]
    if unknown:
        raise AlphabetMismatch(f"substituted letters {unknown} are not in the hom's alphabet")
    if target_algebra is None:
        remaining = [x for x in h.algebra.letters if x not in assignment]
        target_algebra = FreeAlgebra(h.field, remaining)
    subst = {}
    for name, val in assignment.items():
        if isinstance(val, FreePoly):
            subst[name] = target_algebra.embed(val) if val.algebra != target_algebra else val
        else:
            subst[name] = target_algebra.scalar(val)
    coords = None
    if h.letter_coords is not None:
        kept = set(target_algebra.letters)
        coords = {x: c for x, c in h.letter_coords.items() if x in kept}
    return _map_images(h, target_algebra, lambda p: p.substitute(subst, target_algebra),
                       coords)


def _map_images(h: AlgebraHom, algebra: FreeAlgebra, entry_map,
                letter_coords: dict | None) -> AlgebraHom:
    """h with every image entry p replaced by entry_map(p), a polynomial
    over algebra.

    entry_map is a letter substitution that carries each coefficient into
    algebra's field.  It is a ring map when that field is h's own, or when
    h lives over QQ and the coefficients are reduced modulo p (which raises
    on a denominator divisible by p).  A ring map keeps the path-algebra
    relations h was validated for, so they are not multiplied out again.
    Carrying GF(p) residues into another field is not a ring map, so such a
    hom is validated anew.  Only the nonzero entries are mapped."""

    def convert(mat: FreeMat) -> FreeMat:
        return FreeMat._of(algebra, mat.rows, mat.cols,
                           {ij: entry_map(p) for ij, p in mat.nonzero.items()})

    idem_images = {v: convert(m) for v, m in h.idem_images.items()}
    arrow_images = {a: convert(m) for a, m in h.arrow_images.items()}
    if h.field != QQ and algebra.field != h.field:
        return AlgebraHom(h.source_quiver, algebra, h.size, idem_images, arrow_images,
                          letter_coords=letter_coords, provenance=h.provenance)
    return AlgebraHom._of(h.source_quiver, algebra, h.size, idem_images, arrow_images,
                          letter_coords, h.provenance)


def localisation_presentation(q_prime: Quiver, arrow_paths: dict[str, list[str]],
                              M: Representation) -> tuple[AlgebraHom, IdealGens]:
    """Presentation of the extension-through-paths localisation: the
    canonical generic hom q_{Q',alpha} together with the ideal generators
    q(path of a) - f(a) for every arrow a of Q (vertex generators vanish
    identically and are omitted)."""
    q = M.quiver
    if q_prime.vertices != q.vertices:
        raise PathMismatch("quivers must share the vertex list")
    if not is_exceptional(M):
        raise NotExceptional("module must be exceptional (brick with no self-extensions)")
    for name in arrow_paths:
        if not q.has_arrow(name):
            raise PathMismatch(f"path given for {name!r}, not an arrow of the module's quiver")
    for a in q.arrows:
        path = arrow_paths.get(a.name)
        if not path:
            raise PathMismatch(f"no path given for arrow {a.name!r}")
        for e in path:
            if not q_prime.has_arrow(e):
                raise PathMismatch(f"path for {a.name!r} uses unknown arrow {e!r}")
        if q_prime.arrow(path[0]).source != a.source:
            raise PathMismatch(f"path for {a.name!r} starts at the wrong vertex")
        for e1, e2 in zip(path, path[1:]):
            if q_prime.arrow(e1).target != q_prime.arrow(e2).source:
                raise PathMismatch(f"path for {a.name!r} is not composable at {e2!r}")
        if q_prime.arrow(path[-1]).target != a.target:
            raise PathMismatch(f"path for {a.name!r} ends at the wrong vertex")
    canonical = canonical_generic_hom(q_prime, M.dims, field=M.field)
    alg = canonical.algebra
    f_hom = substitute_letters(canonical_generic_hom(q, M.dims, field=M.field),
                               _scalar_letters(M), alg)
    gens: dict[FreePoly, None] = {}  # insertion-ordered set
    for a in q.arrows:
        path = arrow_paths[a.name]
        prod = canonical.arrow_images[path[0]]
        for e in path[1:]:
            prod = canonical.arrow_images[e] * prod
        for p in (prod - f_hom.arrow_images[a.name]).nonzero.values():
            gens.setdefault(p)
    return canonical, IdealGens(alg, gens)


class EpiReport:
    """Outcome of the verification engines for one hom.

    verdict is "Verified" (with the degree used), "Refuted" (with a
    reproducible witness) or "Undetermined" (with the exhausted bound);
    Verified comes only from Member certificates.
    """

    def __init__(self, verdict: str, degree_bound: int, degree_used: int | None = None,
                 elements=None, generator_texts=None):
        self.verdict = verdict
        self.degree_bound = degree_bound
        self.degree_used = degree_used
        self.elements = elements or []
        self.generator_texts = generator_texts or []

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "verdict": self.verdict,
            "degree_bound": self.degree_bound,
            "degree_used": self.degree_used,
            "ideal_generators": list(self.generator_texts),
            "required_elements": self.elements,
            "specialization": None,
            "witness": None,
        }


def commutant_ideal_gens(h: AlgebraHom) -> tuple[FreeAlgebra, IdealGens]:
    """The combined algebra k<X, v_ij> and the entries of V h(g) - h(g) V
    over the algebra generators g (vertex idempotents, then arrows).

    Entry (i, j) is sum_k v_ik g_kj - g_ik v_kj, built from g's nonzero
    entries as one term dict in the order the FreeMat expression would
    give: the terms of v_ik g_kj, k ascending, then those of -g_ik v_kj.
    The words of the two sums are distinct (a v letter comes first in one
    and last in the other, g having no v letter), except v_ii in both when
    i = j and g_ii has a constant term."""
    n = h.size
    v_names = commutant_letters(n)
    for name in v_names:
        if name in h.algebra.letters:
            raise AlphabetMismatch(f"hom alphabet already contains reserved letter {name!r}")
    combined = FreeAlgebra(h.field, list(h.algebra.letters) + v_names)
    f = combined.field
    gens: dict[FreePoly, None] = {}  # insertion-ordered set
    images = [h.idem_images[v] for v in h.source_quiver.vertices]
    images += [h.arrow_images[a.name] for a in h.source_quiver.arrows]
    for g in images:
        by_row: dict[int, list] = {}
        by_col: dict[int, list] = {}
        for (i, j), p in g.nonzero.items():  # row-major, so k ascends below
            by_row.setdefault(i, []).append((j, p.terms))
            by_col.setdefault(j, []).append((i, p.terms))
        for i in range(n):
            for j in range(n):
                terms = {(v_names[i * n + k],) + w: c
                         for k, t in by_col.get(j, ()) for w, c in t.items()}
                for k, t in by_row.get(i, ()):
                    for w, c in t.items():
                        w += (v_names[k * n + j],)
                        c = f.neg(c)
                        if w in terms:
                            c = f.add(terms[w], c)
                            if f.is_zero(c):
                                del terms[w]
                                continue
                        terms[w] = c
                if terms:
                    gens.setdefault(FreePoly(combined, terms))
    return combined, IdealGens(combined, gens)


def required_elements(h: AlgebraHom, combined: FreeAlgebra) -> list[tuple[str, FreePoly]]:
    """The finite sufficient set of memberships for the ideal criterion:
    v_ii - v_jj (i < j), all off-diagonal v_ij, and x v_11 - v_11 x per
    alphabet letter (the letters generate B and the v_ii are linked by the
    earlier differences)."""
    n = h.size
    targets = []

    def v(i, j):
        return combined.letter(f"v{i}_{j}")

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            targets.append((f"v{i}{i} - v{j}{j}", v(i, i) - v(j, j)))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                targets.append((f"v{i}{j}", v(i, j)))
    if n >= 1:
        for x in h.algebra.letters:
            targets.append((f"{x}*v11 - v11*{x}",
                            combined.letter(x) * v(1, 1) - v(1, 1) * combined.letter(x)))
    return targets


def verify_epimorphism(h: AlgebraHom, degree_bound: int | None = None) -> EpiReport:
    """The ideal criterion: build the commutant ideal generators and check
    membership of every required element up to degree_bound with
    freealg.decide_memberships (linear pre-elimination, then a residual span
    raised lazily one degree at a time, stopping early).  Verified only when
    every element has a certificate, and every certificate is re-evaluated
    exactly before it is reported (CertificateMismatch otherwise); when one
    is missing the verdict is Undetermined (never Refuted here).

    The default bound is 2 + max generator degree + max target degree (2
    when there are no targets)."""
    combined, gens = commutant_ideal_gens(h)
    targets = required_elements(h, combined)
    if degree_bound is None:
        # the bound grows with the target's degree, so the largest one sets it
        degree_bound = default_degree_bound(
            gens, max((p for _, p in targets), key=FreePoly.degree)) if targets else 2
    results = decide_memberships(gens, [poly for _, poly in targets], degree_bound)
    elements = []
    for (label, poly), res in zip(targets, results):
        entry = {"element": label, "poly": poly.to_text(), "member": res.member}
        if res.member:
            if res.certificate.evaluate(gens) != poly:
                raise CertificateMismatch(f"certificate for {label} does not re-evaluate to it")
            entry["degree"] = res.searched_degree
            entry["certificate"] = res.certificate.to_json(h.field)
        else:
            entry["not_found_up_to"] = res.searched_degree
        elements.append(entry)
    all_member = all(res.member for res in results)
    degree_used = max((res.searched_degree for res in results if res.member), default=0)
    return EpiReport(
        verdict="Verified" if all_member else "Undetermined",
        degree_bound=degree_bound,
        degree_used=degree_used if all_member else None,
        elements=elements,
        generator_texts=[g.to_text() for g in gens.generators],
    )


def linear_relations_from_end(M: Representation) -> list[FreePoly]:
    """Basis of the linear forms sum lambda_ij v_ij annihilating every
    endomorphism of M (flattened to its global block-diagonal matrix);
    each returned form lies in the commutant ideal of M's action hom."""
    n, f, offsets = M.total_dim(), M.field, M.layout().offsets
    rows = []
    for tup in end_basis(M).pairs:
        row = [f.zero()] * (n * n)
        for v, off in offsets.items():
            for i, block_row in enumerate(tup[v].entries, off):
                row[i * n + off:i * n + off + len(block_row)] = block_row
        rows.append(row)
    letters = commutant_letters(n)
    algebra = FreeAlgebra(f, letters)
    return [FreePoly(algebra, {(x,): c for x, c in zip(letters, vec.column(0)) if c})
            for vec in nullspace_basis(ExactMatrix._of(f, rows, n * n))]


def _substitute_freemat(mat: FreeMat, assignment: dict[str, ExactMatrix],
                        ell: int, field) -> ExactMatrix:
    """Entrywise matrix substitution: an n x n FreeMat becomes n*ell x n*ell.

    Each term c*w of entry (i, j) adds c times the matrix of w into block
    (i, j) of the grid, the empty word adding c on the block's diagonal."""
    add, mul = field.add, field.mul
    n_cols = mat.cols * ell
    grid = [[field.zero()] * n_cols for _ in range(mat.rows * ell)]
    for (i, j), poly in mat.nonzero.items():
        block = grid[i * ell:(i + 1) * ell]
        j0 = j * ell
        for w, c in poly.terms.items():
            c = field.coerce(c)
            if not w:
                for p, g in enumerate(block):
                    g[j0 + p] = add(g[j0 + p], c)
                continue
            m = reduce(ExactMatrix.__mul__, [assignment[x] for x in w])
            for g, w_row in zip(block, m.entries):
                for k, x in enumerate(w_row, j0):
                    if x:
                        g[k] = add(g[k], mul(c, x))
    return ExactMatrix._of(field, grid, n_cols)


def specialize(h: AlgebraHom, assignment: dict[str, ExactMatrix],
               size: int | None = None) -> Representation:
    """Substitute square matrices for the letters, producing the induced
    module over the source path algebra of dimension size * h.size.

    The substituted idempotent images form a scalar orthogonal family
    summing to the identity, so the idempotent-diagonalization algorithm
    turns them into coordinate blocks; the dimension vector is read off the
    block ranks (size * alpha exactly) and each arrow acts by its block of
    the conjugated substituted image.
    """
    letters = h.algebra.letters
    missing = [x for x in letters if x not in assignment]
    if missing:
        raise SizeMismatch(f"no matrices assigned to letters {missing}")
    ell = size
    field = None
    for x in letters:
        m = assignment[x]
        if m.rows != m.cols:
            raise SizeMismatch(f"matrix for {x!r} is not square")
        if ell is None:
            ell = m.rows
        elif m.rows != ell:
            raise SizeMismatch(f"matrix for {x!r} is {m.rows}x{m.rows}, expected {ell}x{ell}")
        if field is None:
            field = m.field
        elif m.field != field:
            raise SizeMismatch(f"matrix for {x!r} lives over a different field")
    if ell is None:
        ell = 1
    if field is None:
        field = h.field
    q = h.source_quiver
    if not q.vertices:
        return Representation(q, {}, {}, field=field)
    subst_idems = [_substitute_freemat(h.idem_images[v], assignment, ell, field)
                   for v in q.vertices]
    u, block_ranks = idempotent_diagonalize(subst_idems)
    u_inv = solve_or_invert(u)
    dims = dict(zip(q.vertices, block_ranks))
    lay = block_layout(q, dims)
    maps = {}
    for a in q.arrows:
        conj = u_inv * _substitute_freemat(h.arrow_images[a.name], assignment, ell, field) * u
        maps[a.name] = conj.submatrix(lay.block_range(a.target), lay.block_range(a.source))
    return Representation(q, dims, maps, field=field)


class _Trials:
    """The specialization trials of one hom, its coefficients read into
    field: dims_of gives (dim End over the path algebra of the specialized
    module, dim of the centralizer of the assigned matrices) once per
    distinct (size, assignment).  Off the standard layout the hom is one
    vertex of dimension h.size with a loop per image, End being the
    commutant of the images.  With E_1..E_d a basis of End(M0), M0 the
    size-1 module of the images that hold no letter, a trial's
    endomorphisms lie in End(M0) (x) M_ell(k), as sum_k E_k (x) C_k, and
    each letter image adds an ell x ell equation in the C_k per row of the
    reduced echelon of its scalar matrices E_k,t Phi_w and -Phi_w E_k,s,
    made once (see the README's specialization test)."""

    def __init__(self, h: AlgebraHom, field):
        f, one = field, field.one()
        self.size, self.field, self.done = h.size, f, {}  # done: (size, matrices) -> dims
        self.letters = [[(0, (x,), False, one), (0, (x,), True, f.neg(one))] for x in h.algebra.letters]
        try:
            dims, blocks = h.standard_blocks()
            q = h.source_quiver
        except LayoutMismatch:
            images = [*h.idem_images.values(), *h.arrow_images.values()]
            q = Quiver(["*"], [(i, "*", "*") for i in range(len(images))], require_acyclic=False)
            dims, blocks = {"*": h.size}, dict(enumerate(images))
        fixed = {a: [[b.nonzero[i, j].terms[()] if (i, j) in b.nonzero else f.zero()
                      for j in range(b.cols)] for i in range(b.rows)]
                 for a, b in blocks.items() if all(p.terms.keys() == {()} for p in b.nonzero.values())}
        m0 = Representation(Quiver(q.vertices, [a for a in q.arrows if a.name in fixed],
                                   require_acyclic=False), dims, fixed, field=f)
        self.equations = []  # [(k, w, right, c), ...]: sum c (X_w C_k if right else C_k X_w) = 0
        if len(fixed) == len(blocks):  # no letter in any image: d alone is needed
            self.d = hom_dim(m0, m0)
            return
        if fixed:
            basis = [{v: e.entries for v, e in pair.items()} for pair in end_basis(m0).pairs]
        else:  # End(M0) is the sum of the M_{n_v}: its unit basis
            basis = []
            for v, i, j in [(v, i, j) for v, n in dims.items() for i in range(n) for j in range(n)]:
                basis.append({u: [[f.zero()] * n for _ in range(n)] for u, n in dims.items()})
                basis[-1][v][i][j] = one
        self.d = len(basis)
        for a in (a for a in q.arrows if a.name not in fixed):
            symbols, entries = {}, {}  # (k, w, right) -> column; (i, j) -> {column: value}

            def put(i, j, symbol, x):
                if x:
                    row, col = entries.setdefault((i, j), {}), symbols.setdefault(symbol, len(symbols))
                    row[col] = f.add(row[col], x) if col in row else x

            for ((r, s), poly), (k, e) in product(blocks[a.name].nonzero.items(), enumerate(basis)):
                for w, c in poly.terms.items():  # c at (r, s) of Phi_w
                    c = f.coerce(c)
                    for i, e_i in enumerate(e[a.target]):
                        put(i, s, (k, w, False), f.mul(e_i[r], c))  # in E_k,t Phi_w
                    for j, y in enumerate(e[a.source][s]):
                        put(r, j, (k, w, bool(w)), f.neg(f.mul(c, y)))  # in -Phi_w E_k,s
            columns = list(symbols)
            self.equations += [[columns[col] + (x,) for col, x in {p: one, **tail}.items()]
                               for p, tail in f.reduced_echelon(entries.values(), len(columns)).items()]

    def dims_of(self, assignment: dict[str, ExactMatrix], ell: int) -> tuple[int, int]:
        key = (ell, tuple(m.entries for m in assignment.values()))
        if key in self.done or ell * self.size == 0:
            return self.done.get(key, (0, 0))
        dim_path = self._kernel(self.equations, self.d, assignment, ell)
        dim_matrix = self._kernel(self.letters, 1, assignment, ell)
        if dim_path < dim_matrix:
            raise EpibuildError("internal: matrix-algebra End exceeded path-algebra End")
        self.done[key] = dim_path, dim_matrix
        return dim_path, dim_matrix

    def _kernel(self, equations, d, assignment, ell) -> int:
        """dim of the (C_1..C_d) in M_ell(k)^d solving the equations: unknown
        k ell^2 + p ell + q is C_k[p, q], and entry (p, q) of an equation is
        its row p ell + q."""
        f, n, span = self.field, ell * ell, range(ell)
        xs, rows = {}, []  # xs: word -> entries of X_w
        for eq in equations:
            block = [{} for _ in range(n)]
            for k, w, right, c in eq:
                x = w and (xs.get(w) or xs.setdefault(
                    w, reduce(ExactMatrix.__mul__, [assignment[y] for y in w]).entries))
                if not w:  # C_k
                    cells = [(i, k * n + i, c) for i in range(n)]
                elif right:  # (X_w C_k)[p, q] holds X_w[p, m] C_k[m, q]
                    cells = [(p * ell + q, k * n + m * ell + q, y) for p, m in product(span, span)
                             if (y := f.mul(c, x[p][m])) for q in span]
                else:  # (C_k X_w)[p, q] holds C_k[p, m] X_w[m, q]
                    cells = [(p * ell + q, k * n + p * ell + m, y) for m, q in product(span, span)
                             if (y := f.mul(c, x[m][q])) for p in span]
                for i, j, y in cells:
                    row = block[i]
                    row[j] = f.add(row[j], y) if j in row else y
            rows += filter(None, block)
        return d * n - f.rank(rows, d * n)


def _specialization_prime(h: AlgebraHom) -> int:
    """The smallest prime >= 101 dividing no coefficient denominator of h."""
    denominators = {c.denominator
                    for m in list(h.idem_images.values()) + list(h.arrow_images.values())
                    for poly in m.nonzero.values() for c in poly.terms.values()}
    p = 101
    while not is_prime(p) or any(d % p == 0 for d in denominators):
        p += 1
    return p


def convert_hom_field(h: AlgebraHom, field) -> AlgebraHom:
    """Coerce all coefficient scalars of h into another exact field; see
    _map_images for when the result is validated again."""
    if field == h.field:
        return h
    algebra = FreeAlgebra(field, h.algebra.letters)
    return _map_images(
        h, algebra,
        lambda p: FreePoly(algebra, {w: x for w, c in p.terms.items()
                                     if not field.is_zero(x := field.coerce(c))}),
        h.letter_coords)


class RefutationOutcome:
    """pass/Refuted verdict of the specialization test, plus the trial log."""

    def __init__(self, passed: bool, witness: dict | None, trials: list[dict], seed: int):
        self.passed = passed
        self.witness = witness
        self.trials = trials
        self.seed = seed

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "seed": self.seed,
            "trials": self.trials,
            "witness": self.witness,
        }


def specialization_refutation_test(h: AlgebraHom, trials: int = 20,
                                   sizes=(1, 2), seed: int = 0) -> RefutationOutcome:
    """Necessary-condition test: an epimorphism makes restriction of scalars
    fully faithful, so for every specialization the intertwiner dimension
    over the path algebra must equal the block-scalar one over the matrix
    algebra.  Any strict inequality refutes, with the assignment as witness.

    Homs over QQ are reduced into GF(p) for speed, p the smallest prime >= 101
    dividing no coefficient denominator; homs over GF(p) stay there.  A strict
    inequality found mod p is recomputed over QQ at the same integer
    assignment and refutes only if it holds there; otherwise the trial logs
    the QQ dimensions, keeps the mod-p ones under "modular_artifact", and the
    test goes on.  Deterministic given the seed.

    The trials of each field go through one _Trials object, made for the
    QQ recheck at the first inequality mod p, whose set-up serves every size.
    """
    import random

    field = h.field if h.field != QQ else GF(_specialization_prime(h))
    modular, exact = _Trials(h, field), None
    rng = random.Random(seed)
    sizes = list(sizes)
    log = []
    for t in range(trials):
        ell = sizes[t % len(sizes)]
        assignment = {
            x: ExactMatrix(field,
                           [[rng.randrange(field.p) for _ in range(ell)] for _ in range(ell)],
                           cols=ell)
            for x in h.algebra.letters
        }
        dim_path, dim_matrix = modular.dims_of(assignment, ell)
        entry = {"trial": t, "size": ell}
        if dim_path > dim_matrix and h.field == QQ:
            artifact = {"prime": field.p, "dim_path_algebra": dim_path,
                        "dim_matrix_algebra": dim_matrix}
            exact = exact or _Trials(h, QQ)
            dim_path, dim_matrix = exact.dims_of(
                {x: m.convert(QQ) for x, m in assignment.items()}, ell)
            if dim_path <= dim_matrix:
                entry["modular_artifact"] = artifact
        entry.update(dim_path_algebra=dim_path, dim_matrix_algebra=dim_matrix)
        log.append(entry)
        if dim_path > dim_matrix:
            witness = dict(entry, assignment={
                x: [[field.to_str(m.entry(i, j)) for j in range(ell)] for i in range(ell)]
                for x, m in assignment.items()
            })
            return RefutationOutcome(False, witness, log, seed)
    return RefutationOutcome(True, None, log, seed)


def glued_quiver(n1: int, n2: int, alpha1: dict[str, int], alpha2: dict[str, int],
                 connectors) -> Quiver:
    """The two-vertex Morita-reduced shape of a gluing: n1 loops at v1, n2
    loops at v2, and alpha_src * alpha_tgt parallel arrows per connector.
    Connectors are (source vertex, target vertex, direction) with direction
    "12" (source in quiver 1) or "21".  The output has loops and is exempt
    from the acyclicity rule; it describes a shape, not a path-algebra
    source."""
    arrows = []
    for i in range(1, n1 + 1):
        arrows.append((f"l1_{i}", "v1", "v1"))
    for i in range(1, n2 + 1):
        arrows.append((f"l2_{i}", "v2", "v2"))
    for k, (src, tgt, direction) in enumerate(connectors, start=1):
        if direction == "12":
            if src not in alpha1 or tgt not in alpha2:
                raise EndpointMismatch(
                    f"connector {k}: {src!r} must lie in quiver 1 and {tgt!r} in quiver 2"
                )
            count = alpha1[src] * alpha2[tgt]
            ends = ("v1", "v2")
        elif direction == "21":
            if src not in alpha2 or tgt not in alpha1:
                raise EndpointMismatch(
                    f"connector {k}: {src!r} must lie in quiver 2 and {tgt!r} in quiver 1"
                )
            count = alpha2[src] * alpha1[tgt]
            ends = ("v2", "v1")
        else:
            raise EndpointMismatch(f"connector {k}: direction must be '12' or '21'")
        for i in range(1, count + 1):
            arrows.append((f"c{k}_{i}", *ends))
    return Quiver(["v1", "v2"], arrows, require_acyclic=False)


def homs_equal_up_to_renaming(h1: AlgebraHom, h2: AlgebraHom) -> bool:
    """Equality after a bijective letter renaming.

    Handles entries that are scalars or monic single-letter monomials (every
    construction in this package produces such homs); anything richer
    returns False conservatively.
    """
    if (h1.source_quiver != h2.source_quiver or h1.size != h2.size
            or h1.field != h2.field
            or len(h1.algebra.letters) != len(h2.algebra.letters)):
        return False
    fwd: dict[str, str] = {}
    bwd: dict[str, str] = {}

    def match(p1: FreePoly, p2: FreePoly) -> bool:
        if p1.is_scalar() or p2.is_scalar():
            return p1.is_scalar() and p2.is_scalar() \
                and p1.constant_term() == p2.constant_term()
        t1, t2 = p1.sorted_terms(), p2.sorted_terms()
        if len(t1) != 1 or len(t2) != 1:
            return False
        (w1, c1), (w2, c2) = t1[0], t2[0]
        if c1 != c2 or len(w1) != 1 or len(w2) != 1:
            return False
        x1, x2 = w1[0], w2[0]
        if fwd.get(x1, x2) != x2 or bwd.get(x2, x1) != x1:
            return False
        fwd[x1] = x2
        bwd[x2] = x1
        return True

    # zero against zero matches and binds no letter, so only positions
    # nonzero in either image are walked, in row-major order
    q = h1.source_quiver
    images = ([(h1.idem_images[v], h2.idem_images[v]) for v in q.vertices]
              + [(h1.arrow_images[a.name], h2.arrow_images[a.name]) for a in q.arrows])
    return all(match(m1.entry(*ij), m2.entry(*ij)) for m1, m2 in images
               for ij in sorted(m1.nonzero.keys() | m2.nonzero.keys()))
