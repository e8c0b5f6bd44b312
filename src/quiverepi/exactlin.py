"""Exact scalars and dense linear algebra over QQ and GF(p).

Scalars are plain Python values (fractions.Fraction for QQ, canonical
residues 0..p-1 for GF(p)); a Field object supplies the arithmetic so the
same matrix code runs over either field.  Besides scalar operations, each
Field supplies three row kernels, dot(xs, ys), row_sub(xs, c, ys) = xs - c*ys
and row_scale(c, xs), each doing one field operation per result entry (over
GF(p) one `% p`), and the dense matrix code is written against those.
Each Field also supplies its own elimination, one pivot loop run two ways:
over GF(p) on the row kernels, over QQ fraction-free on Python integers
(Bareiss's exact division by the previous pivot).  Field.rank runs it
forward only, clearing just the rows below each pivot, and over QQ forms no
Fraction at all; rank is all that dimension counts (quiverrep.hom_dim)
need.  Field.eliminate runs it as Gauss-Jordan, forming Fractions only for
the final rows; rref, and everything that needs a basis or an inverse
(nullspace_basis, column_space_basis, solve_or_invert), calls it.  The
reduced row echelon form and its pivot columns are unique, so both fields
give the same result as any other exact elimination.  Everything is exact:
no floats, no pivoting heuristics.  The elimination pivot rule is fixed
(first nonzero entry scanning rows top to bottom, columns left to right) so
every result is deterministic.

The public ExactMatrix constructor coerces every entry and rejects ragged
rows.  Operations whose entries already lie in the field build their result
with the internal ExactMatrix._of, which does neither; its contract is that
every entry is canonical (a Fraction over QQ, an int in [0, p) over GF(p)),
so a zero entry is falsy and equal entries compare equal.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Sequence


class NonSquare(Exception):
    """Raised when a square matrix was required."""


class NotInvertible(Exception):
    """Raised by solve_or_invert on singular input."""


class NotIdempotentFamily(Exception):
    """Raised when an alleged orthogonal idempotent family fails a check."""


class RationalField:
    """The field QQ; values are fractions.Fraction in lowest terms."""

    name = "q"

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into QQ")

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in QQ")
        return a / b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in QQ")
        return 1 / Fraction(a)

    def is_zero(self, a):
        return a == 0

    def dot(self, xs, ys):
        return sum([x * y for x, y in zip(xs, ys) if x and y], Fraction(0))

    def row_sub(self, xs, c, ys):
        """xs - c*ys, skipping the zero entries of ys."""
        return [x - c * y if y else x for x, y in zip(xs, ys)]

    def row_scale(self, c, xs):
        return [c * x for x in xs]

    def _echelon(self, rows, cols: int, full: bool) -> tuple[list[list], list[int], list[int]]:
        """The fraction-free pivot loop shared by eliminate and rank.

        Each row is first scaled by the lcm of its denominators, so the
        elimination runs on integers, as Bareiss's: at pivot p in column c
        every row to be cleared becomes (p*row - row[c]*pivot_row) / prev,
        prev being the previous pivot (1 at first), which scales a row with a
        zero in column c by p / prev.  Each division is exact, because every
        entry is then a minor of the scaled matrix.  Here that scaling is
        deferred: level[i] is the pivot row i was last brought up to, its
        Bareiss value is a[i] * prev / level[i], and its next update divides
        by level[i] instead of prev, so a row is only rewritten when it has
        a nonzero in the pivot column.  With full, every other row is
        cleared (Gauss-Jordan); without it only the rows below the pivot
        are, which is all the rank needs.  Returns (a, level, pivots).
        """
        a = []
        for row in rows:
            den = lcm(*[x.denominator for x in row])
            a.append([x.numerator * (den // x.denominator) for x in row] if den > 1
                     else [x.numerator for x in row])
        n = len(a)
        level = [1] * n
        pivots: list[int] = []
        prev = 1
        for c in range(cols):
            r = len(pivots)
            for i in range(r, n):
                if a[i][c]:
                    break
            else:
                continue
            a[r], a[i] = a[i], a[r]
            level[r], level[i] = level[i], level[r]
            # rows from r down are zero left of column c
            top = a[r]
            if level[r] != prev:
                top[c:] = [x * prev // level[r] for x in top[c:]]
            p, tail = top[c], top[c:]
            for i, row in (enumerate(a) if full else enumerate(a[r + 1:], r + 1)):
                q = row[c]
                if q and i != r:
                    d = level[i]
                    if i < r:
                        row[:] = [(p * x - q * y) // d for x, y in zip(row, top)]
                    else:
                        row[c:] = [(p * x - q * y) // d for x, y in zip(row[c:], tail)]
                    level[i] = p
            level[r] = prev = p
            pivots.append(c)
            if r + 1 == n:
                break
        return a, level, pivots

    def eliminate(self, rows, cols: int) -> tuple[list[list], list[int]]:
        """Reduced row echelon rows and pivot columns, fraction-free.

        After the full pivot loop, pivot row i is a[i] / level[i] (its pivot
        entry equals level[i]), the unique RREF; the other rows are zero.
        """
        a, level, pivots = self._echelon(rows, cols, True)
        r, zero = len(pivots), Fraction(0)
        out = [[Fraction(x, d) if x else zero for x in row] for row, d in zip(a[:r], level)]
        return out + [[zero] * cols] * (len(a) - r), pivots

    def rank(self, rows, cols: int) -> int:
        """Row rank, by the forward-only fraction-free pass: no Fraction is
        formed."""
        return len(self._echelon(rows, cols, False)[2])

    def to_str(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("q")

    def __repr__(self):
        return "QQ"


def is_prime(p: int) -> bool:
    """Primality by trial division (the primes used here are small)."""
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


class PrimeField:
    """The field GF(p) for a prime p; values are ints in [0, p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"fp:{p}"

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            return self.mul(x.numerator % self.p, self.inv(x.denominator % self.p))
        if isinstance(x, str):
            return self.coerce(Fraction(x))
        raise TypeError(f"cannot coerce {x!r} into GF({self.p})")

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def dot(self, xs, ys):
        return sum(map(mul, xs, ys)) % self.p

    def row_sub(self, xs, c, ys):
        """xs - c*ys."""
        p = self.p
        return [(x - c * y) % p for x, y in zip(xs, ys)]

    def row_scale(self, c, xs):
        p = self.p
        return [c * x % p for x in xs]

    def _echelon(self, rows, cols: int, full: bool) -> tuple[list[list], list[int]]:
        """The pivot loop shared by eliminate and rank, on the row kernels:
        each pivot row is scaled to a leading 1, then with full every other
        row is cleared (Gauss-Jordan), without it only the rows below."""
        a = [list(row) for row in rows]
        n = len(a)
        pivots: list[int] = []
        r = 0
        for c in range(cols):
            pivot_row = -1
            for i in range(r, n):
                if a[i][c]:
                    pivot_row = i
                    break
            if pivot_row < 0:
                continue
            a[r], a[pivot_row] = a[pivot_row], a[r]
            # the pivot row is zero left of column c, so only its tail does work
            tail = a[r][c:] = self.row_scale(self.inv(a[r][c]), a[r][c:])
            for i in (range(n) if full else range(r + 1, n)):
                if i != r and a[i][c]:
                    a[i][c:] = self.row_sub(a[i][c:], a[i][c], tail)
            pivots.append(c)
            r += 1
            if r == n:
                break
        return a, pivots

    def eliminate(self, rows, cols: int) -> tuple[list[list], list[int]]:
        """Reduced row echelon rows and pivot columns, by Gauss-Jordan."""
        return self._echelon(rows, cols, True)

    def rank(self, rows, cols: int) -> int:
        """Row rank, by the forward-only pass."""
        return len(self._echelon(rows, cols, False)[1])

    def to_str(self, a):
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()

_prime_fields: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _prime_fields:
        _prime_fields[p] = PrimeField(p)
    return _prime_fields[p]


def parse_field(spec: str):
    """Parse a field spec: "q" for QQ, "fp:<p>" for GF(p)."""
    if spec == "q":
        return QQ
    if spec.startswith("fp:"):
        return GF(int(spec[3:]))
    raise ValueError(f"unknown field spec {spec!r} (expected 'q' or 'fp:<p>')")


class ExactMatrix:
    """Dense matrix over an exact field, immutable after construction.

    0xN and Nx0 matrices are valid and behave as the empty map; products
    with an inner dimension of zero are zero matrices.
    """

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, entries: Sequence[Sequence], cols: int | None = None):
        self.field = field
        rows = [tuple(field.coerce(x) for x in row) for row in entries]
        self.rows = len(rows)
        if self.rows:
            self.cols = len(rows[0])
            if any(len(r) != self.cols for r in rows):
                raise ValueError("ragged rows in matrix literal")
        else:
            self.cols = 0 if cols is None else cols
        if cols is not None and self.cols != cols:
            raise ValueError(f"expected {cols} columns, got {self.cols}")
        self.entries = tuple(rows)

    @classmethod
    def _of(cls, field, rows: Iterable[Sequence], cols: int) -> "ExactMatrix":
        """A matrix from rows whose entries are already canonical elements
        of the field, each row of length cols: no coercion, no shape check."""
        m = object.__new__(cls)
        m.field = field
        m.entries = tuple(map(tuple, rows))
        m.rows = len(m.entries)
        m.cols = cols
        return m

    @classmethod
    def zeros(cls, field, rows: int, cols: int) -> "ExactMatrix":
        row = (field.zero(),) * cols
        return cls._of(field, [row] * rows, cols)

    @classmethod
    def identity(cls, field, n: int) -> "ExactMatrix":
        return _block_identity(field, n, 0, n)

    @classmethod
    def from_columns(cls, field, columns: Sequence[Sequence], rows: int) -> "ExactMatrix":
        cols = len(columns)
        return cls(field, [[columns[j][i] for j in range(cols)] for i in range(rows)], cols=cols)

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    def column(self, j: int) -> list:
        return [self.entries[i][j] for i in range(self.rows)]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(map(any, self.entries))

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.entries))

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._sub_multiple(self.field.neg(self.field.one()), other)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._sub_multiple(self.field.one(), other)

    def _sub_multiple(self, c, other: "ExactMatrix") -> "ExactMatrix":
        """self - c*other, for a field element c."""
        self._check_same_shape(other)
        f = self.field
        return ExactMatrix._of(
            f, [f.row_sub(ra, c, rb) for ra, rb in zip(self.entries, other.entries)], self.cols
        )

    def __neg__(self) -> "ExactMatrix":
        return self.scale(-1)

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.field != other.field:
            raise ValueError("product across different fields")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        f = self.field
        if not self.cols:
            return ExactMatrix.zeros(f, self.rows, other.cols)
        dot = f.dot
        columns = list(zip(*other.entries))
        return ExactMatrix._of(
            f, [[dot(row, col) for col in columns] for row in self.entries], other.cols
        )

    def scale(self, c) -> "ExactMatrix":
        f = self.field
        c = f.coerce(c)
        return ExactMatrix._of(f, [f.row_scale(c, row) for row in self.entries], self.cols)

    def transpose(self) -> "ExactMatrix":
        if not self.rows:
            return ExactMatrix.zeros(self.field, self.cols, 0)
        return ExactMatrix._of(self.field, zip(*self.entries), self.rows)

    def hstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.rows != other.rows:
            raise ValueError("hstack row mismatch")
        if self.field != other.field:
            raise ValueError("hstack across different fields")
        return ExactMatrix._of(
            self.field, [a + b for a, b in zip(self.entries, other.entries)],
            self.cols + other.cols,
        )

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "ExactMatrix":
        ci = list(col_idx)
        return ExactMatrix._of(
            self.field, [[self.entries[i][j] for j in ci] for i in row_idx], len(ci)
        )

    def convert(self, field) -> "ExactMatrix":
        """Coerce entries into another exact field (e.g. QQ -> GF(p))."""
        return ExactMatrix._of(field, [map(field.coerce, row) for row in self.entries], self.cols)

    def _check_same_shape(self, other: "ExactMatrix"):
        if self.field != other.field:
            raise ValueError("operation across different fields")
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __repr__(self):
        body = "; ".join(" ".join(self.field.to_str(x) for x in row) for row in self.entries)
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"


def _block_identity(field, n: int, start: int, stop: int) -> ExactMatrix:
    """The n x n 0/1 diagonal matrix with ones at positions start..stop-1."""
    z, o = field.zero(), field.one()
    return ExactMatrix._of(
        field, [[o if i == j and start <= i < stop else z for j in range(n)] for i in range(n)], n
    )


def rref(m: ExactMatrix) -> tuple[ExactMatrix, list[int]]:
    """Reduced row echelon form and pivot column list (fixed pivot rule),
    by the field's own elimination."""
    rows, pivots = m.field.eliminate(m.entries, m.cols)
    return ExactMatrix._of(m.field, rows, m.cols), pivots


def rank(m: ExactMatrix) -> int:
    """Row rank, by the field's forward-only elimination (no RREF)."""
    return m.field.rank(m.entries, m.cols)


def nullspace_basis(m: ExactMatrix) -> list[ExactMatrix]:
    """Basis of {x : m x = 0} as a list of column vectors (cols x 1).

    One basis vector per free column, with the pivot entries
    back-substituted from the RREF; each vector is normalized so its first
    nonzero entry is 1, and the basis size is cols - rank(m) exactly.
    """
    f = m.field
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    free_cols = [j for j in range(m.cols) if j not in pivot_set]
    basis = []
    for fc in free_cols:
        v = [f.zero()] * m.cols
        v[fc] = f.one()
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(reduced.entries[r][fc])
        lead = next(x for x in v if x)
        v = f.row_scale(f.inv(lead), v)
        basis.append(ExactMatrix._of(f, [(x,) for x in v], 1))
    return basis


def column_space_basis(m: ExactMatrix) -> list[ExactMatrix]:
    """Basis of the column space: the original columns at the pivot indices."""
    _, pivots = rref(m)
    return [ExactMatrix._of(m.field, [(x,) for x in m.column(j)], 1) for j in pivots]


def solve_or_invert(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse of a square matrix: the right half of rref([m | I]).

    Raises NonSquare when rows != cols and NotInvertible when the rank is
    deficient (some pivot of [m | I] falls in the identity half).
    """
    if not m.is_square():
        raise NonSquare(f"cannot invert a {m.rows}x{m.cols} matrix")
    n = m.rows
    reduced, pivots = rref(m.hstack(ExactMatrix.identity(m.field, n)))
    if pivots != list(range(n)):
        raise NotInvertible(f"matrix has rank < {n}")
    return reduced.submatrix(range(n), range(n, 2 * n))


def idempotent_diagonalize(idems: Sequence[ExactMatrix]) -> tuple[ExactMatrix, list[int]]:
    """Conjugate a full orthogonal idempotent family to 0/1 block diagonals.

    Given n x n matrices E_1..E_m with E_i^2 = E_i, E_i E_j = 0 for i != j
    and sum E_i = I, returns (U, block_ranks) with U invertible such that
    U^-1 E_i U is the 0/1 diagonal matrix whose identity block of size
    block_ranks[i] sits at the i-th consecutive block position.  The columns
    of U are the concatenated column-space bases of the E_i (pivot-column
    bases, so the output is deterministic); rank-0 summands contribute
    zero-width column groups.

    A family that already is that layout (consecutive 0/1 diagonal blocks
    covering 0..n-1, rank-0 blocks included) satisfies every precondition,
    and its pivot columns are the unit vectors, so it returns (I, ranks)
    at once.

    Raises NotIdempotentFamily naming the first violated precondition.
    """
    if not idems:
        raise NotIdempotentFamily("empty idempotent family")
    n = idems[0].rows
    field = idems[0].field
    for k, e in enumerate(idems):
        if e.rows != n or e.cols != n:
            raise NotIdempotentFamily(
                f"matrix {k} is {e.rows}x{e.cols}, expected {n}x{n}"
            )
        if e.field != field:
            raise NotIdempotentFamily(f"matrix {k} lives over a different field")

    one = field.one()
    offset, block_ranks = 0, []
    for e in idems:
        stop = offset
        while stop < n and e.entries[stop][stop] == one:
            stop += 1
        if e != _block_identity(field, n, offset, stop):
            break
        block_ranks.append(stop - offset)
        offset = stop
    else:
        if offset == n:
            return ExactMatrix.identity(field, n), block_ranks

    for k, e in enumerate(idems):
        if e * e != e:
            raise NotIdempotentFamily(f"matrix {k} is not idempotent")
    for i in range(len(idems)):
        for j in range(len(idems)):
            if i != j and not (idems[i] * idems[j]).is_zero():
                raise NotIdempotentFamily(f"matrices {i} and {j} are not orthogonal")
    total = idems[0]
    for e in idems[1:]:
        total = total + e
    if total != ExactMatrix.identity(field, n):
        raise NotIdempotentFamily("family does not sum to the identity")

    columns: list[list] = []
    block_ranks = []
    for e in idems:
        basis = column_space_basis(e)
        block_ranks.append(len(basis))
        for v in basis:
            columns.append(v.column(0))
    u = ExactMatrix.from_columns(field, columns, n)
    return u, block_ranks
