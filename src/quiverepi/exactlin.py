"""Exact scalars and dense linear algebra over QQ and GF(p).

Scalars are plain Python values, one canonical form per value: over QQ an
int when integral (the common case) and else a fractions.Fraction in lowest
terms, over GF(p) the residue 0..p-1.  A Field object supplies the
arithmetic, each operation returning that form, so the same matrix code
runs over either field.  Besides scalar operations, each Field supplies
dot(xs, ys), the row kernel of ExactMatrix products.

Each Field has one elimination loop behind two entry points, both on
sparse rows {column: nonzero entry}: rank(rows, cols) and
reduced_echelon(rows, cols), the RREF as {pivot column: rest of its row}.
quiverrep's intertwiner rows come that way, and rref(m) and rank(m) hand
over a matrix's nonzero entries the same way; rref alone makes dense
rows.  GF(p) runs an incremental sparse echelon, reducing each row by the
pivot rows kept so far until it vanishes or leads a new column, and
back-substitutes it for the RREF.  QQ scales each row to Python integers
and runs a fraction-free elimination (Bareiss's exact division by the
previous pivot): forward only for the rank, forming no Fraction, and
Gauss-Jordan for the RREF, forming a Fraction only for a non-integral
entry.  The RREF is unique, so both fields give what any exact
elimination gives.  The pivot rule is fixed (first nonzero entry scanning
rows top to bottom, columns left to right), so every result is
deterministic.

The public ExactMatrix constructor coerces every entry and rejects ragged
rows.  Operations whose entries already lie in the field build their result
with the internal ExactMatrix._of, which does neither; its contract is that
every entry is canonical (over QQ an int or a non-integral Fraction, over
GF(p) an int in [0, p)), so a zero entry is falsy and equal entries compare
equal, with equal hashes.
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


def _integer_rows(rows: Iterable[dict], cols: int) -> list[list[int]]:
    """Dense integer rows from sparse rational rows {column: nonzero}, each
    scaled by the lcm of its denominators."""
    out = []
    for row in rows:
        den = lcm(*[x.denominator for x in row.values()])
        dense = [0] * cols
        for j, x in row.items():
            dense[j] = x.numerator * (den // x.denominator)
        out.append(dense)
    return out


def _q(x):
    """QQ's canonical form of a rational: an int when integral, else itself."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


class RationalField:
    """The field QQ; a value is an int when integral, else a Fraction."""

    name = "q"

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return _q(x)
        if isinstance(x, str):
            return _q(Fraction(x))
        raise TypeError(f"cannot coerce {x!r} into QQ")

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return _q(a + b)

    def sub(self, a, b):
        return _q(a - b)

    def mul(self, a, b):
        return _q(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in QQ")
        return _q(Fraction(1, a))

    def is_zero(self, a):
        return a == 0

    def dot(self, xs, ys):
        return _q(sum([x * y for x, y in zip(xs, ys) if x and y]))

    def _echelon(self, a: list[list[int]], cols: int,
                 full: bool) -> tuple[list[list], list[int], list[int]]:
        """The fraction-free pivot loop shared by reduced_echelon and rank,
        run in place on integer rows a, each a row of the input scaled by
        the lcm of its denominators.

        The elimination runs on integers, as Bareiss's: at pivot p in column c
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

    def reduced_echelon(self, rows: Sequence[dict], cols: int) -> dict[int, dict]:
        """The RREF of sparse rows as {pivot column: the rest of its row},
        nonzero entries only, the leading 1 implied; pivots ascending.

        After the full pivot loop, pivot row i is a[i] / level[i] (its pivot
        entry equals level[i]), and it is zero left of its pivot."""
        a, level, pivots = self._echelon(_integer_rows(rows, cols), cols, True)
        return {c: {j: x // d if x % d == 0 else Fraction(x, d)
                    for j, x in enumerate(row[c + 1:], c + 1) if x}
                for c, row, d in zip(pivots, a, level)}

    def rank(self, rows: Iterable[dict], cols: int) -> int:
        """Row rank of sparse rows {column: nonzero}, by the forward-only
        fraction-free pass on dense integer rows: no Fraction is formed."""
        return len(self._echelon(_integer_rows(rows, cols), cols, False)[2])

    def to_str(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("q")

    def __repr__(self):
        return "QQ"


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_BASES_BOUND = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Primality by the strong probable-prime test to the 13 prime bases 2
    to 41, exact for p below 3,317,044,064,679,887,385,961,981, about
    2^81.5 (Sorenson and Webster 2017); a larger p raises ValueError.  Once
    no base divides p, every p below 43^2 is prime."""
    if p >= _BASES_BOUND:
        raise ValueError(f"cannot decide whether {p} is prime: "
                         f"the prime must be below {_BASES_BOUND}")
    if p < 2 or any(p % b == 0 for b in _BASES):
        return p in _BASES
    if p < 43 * 43:
        return True
    s = ((p - 1) & (1 - p)).bit_length() - 1
    d = (p - 1) >> s
    for b in _BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


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

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def dot(self, xs, ys):
        return sum(map(mul, xs, ys)) % self.p

    def _echelon(self, rows: Iterable[dict], cols: int) -> dict[int, dict]:
        """The incremental sparse echelon shared by reduced_echelon and rank.

        Maps each leading column to the rest of a kept row scaled to a
        leading 1; each row is reduced by them, its smallest column first,
        until it vanishes or leads a new column.  Subtracting a pivot row
        cancels the lead and touches only columns right of it; the zeros it
        leaves are dropped when they come to lead."""
        p = self.p
        pivots: dict[int, dict] = {}
        for row in rows:
            if len(pivots) == cols:
                break
            row = dict(row)
            get = row.get
            while row:
                c = min(row)
                q = row.pop(c)
                if not q:
                    continue
                tail = pivots.get(c)
                if tail is None:
                    inv = pow(q, p - 2, p)
                    pivots[c] = {j: x * inv % p for j, x in row.items() if x}
                    break
                for j, y in tail.items():
                    row[j] = (get(j, 0) - q * y) % p
        return pivots

    def reduced_echelon(self, rows: Iterable[dict], cols: int) -> dict[int, dict]:
        """The RREF of sparse rows as {pivot column: the rest of its row},
        nonzero entries only, the leading 1 implied; pivots ascending.  The
        sparse echelon, then back-substitution, last pivot first, so that
        each pivot row is cleared of the later pivot columns by rows already
        free of them."""
        p = self.p
        echelon = self._echelon(rows, cols)
        pivots = sorted(echelon)
        for c in reversed(pivots):
            tail = echelon[c]
            for k in [j for j in tail if j in echelon]:
                q = tail.pop(k)
                for j, y in echelon[k].items():
                    tail[j] = (tail.get(j, 0) - q * y) % p
        return {c: {j: x for j, x in echelon[c].items() if x} for c in pivots}

    def rank(self, rows: Iterable[dict], cols: int) -> int:
        """Row rank of sparse rows {column: nonzero}: the number of leading
        columns of their sparse echelon."""
        return len(self._echelon(rows, cols))

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
    if spec.startswith("fp:") and spec[3:].isdecimal():
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
        z, o = field.zero(), field.one()
        return cls._of(field, [[o if i == j else z for j in range(n)] for i in range(n)], n)

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
        return self._entrywise(self.field.add, other)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._entrywise(self.field.sub, other)

    def _entrywise(self, op, other: "ExactMatrix") -> "ExactMatrix":
        """The matrix of op(self entry, other entry), for a field operation op."""
        self._check_same_shape(other)
        return ExactMatrix._of(
            self.field, [map(op, ra, rb) for ra, rb in zip(self.entries, other.entries)],
            self.cols,
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
        return ExactMatrix._of(f, [[f.mul(c, x) for x in row] for row in self.entries],
                               self.cols)

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


def _sparse_rows(m: ExactMatrix) -> list[dict]:
    """The rows of m as {column: nonzero entry}, the rows the fields eliminate."""
    return [{j: x for j, x in enumerate(row) if x} for row in m.entries]


def rref(m: ExactMatrix) -> tuple[ExactMatrix, list[int]]:
    """Reduced row echelon form and pivot column list (fixed pivot rule):
    the field's reduced_echelon made dense, zero rows last."""
    f, cols = m.field, m.cols
    one, zero = f.one(), f.zero()
    echelon = f.reduced_echelon(_sparse_rows(m), cols)
    rows = [[one if j == c else tail.get(j, zero) for j in range(cols)]
            for c, tail in echelon.items()]
    rows += [[zero] * cols] * (m.rows - len(echelon))
    return ExactMatrix._of(f, rows, cols), list(echelon)


def rank(m: ExactMatrix) -> int:
    """Row rank, by the field's sparse-row rank (no RREF)."""
    return m.field.rank(_sparse_rows(m), m.cols)


def nullspace_vectors(field, rows: Sequence[dict], cols: int) -> list[list]:
    """Basis of {x : row . x = 0 for every sparse row {column: nonzero}}.

    One vector per free column of the field's reduced_echelon, 1 there and
    the back-substituted pivot entries, normalized so its first nonzero
    entry is 1; there are cols - rank of them exactly."""
    echelon = field.reduced_echelon(rows, cols)
    basis = []
    for fc in range(cols):
        if fc in echelon:
            continue
        v = [field.zero()] * cols
        v[fc] = field.one()
        for pc, tail in echelon.items():
            if fc in tail:
                v[pc] = field.neg(tail[fc])
        inv = field.inv(next(x for x in v if x))
        basis.append([field.mul(inv, x) for x in v])
    return basis


def nullspace_basis(m: ExactMatrix) -> list[ExactMatrix]:
    """Basis of {x : m x = 0} as a list of column vectors (cols x 1): the
    nullspace_vectors of m's nonzero entries."""
    return [ExactMatrix._of(m.field, [(x,) for x in v], 1)
            for v in nullspace_vectors(m.field, _sparse_rows(m), m.cols)]


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
