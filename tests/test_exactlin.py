import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverepi import exactlin
from quiverepi.exactlin import (
    GF,
    QQ,
    ExactMatrix,
    NonSquare,
    NotIdempotentFamily,
    NotInvertible,
    column_space_basis,
    idempotent_diagonalize,
    nullspace_basis,
    parse_field,
    rank,
    rref,
    solve_or_invert,
)


def m(rows):
    return ExactMatrix(QQ, rows)


def to_sympy(mat):
    return sympy.Matrix(mat.rows, mat.cols,
                        [sympy.Rational(x.numerator, x.denominator)
                         for row in mat.entries for x in row])


def random_matrix(rng, rows, cols, field=QQ):
    return ExactMatrix(field, [[rng.randrange(-3, 4) for _ in range(cols)]
                               for _ in range(rows)])


class TestFields:
    def test_rationals_lowest_terms(self):
        x = QQ.coerce("2/4")
        assert x == Fraction(1, 2)
        assert x.denominator == 2

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QQ.inv(QQ.zero())
        with pytest.raises(ZeroDivisionError):
            GF(7).inv(0)

    def test_prime_field_arithmetic(self):
        f = GF(7)
        assert f.coerce(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7
        assert f.mul(3, 5) == 1
        assert f.inv(3) == 5

    def test_prime_validation(self):
        with pytest.raises(ValueError):
            GF(6)

    def test_is_prime_agrees_with_sympy(self):
        assert [exactlin.is_prime(n) for n in range(20001)] == \
            [sympy.isprime(n) for n in range(20001)]
        rng = random.Random(5)
        for bits in range(15, 82):
            for _ in range(4):
                n = rng.randrange(2 ** (bits - 1), min(2 ** bits, exactlin._BASES_BOUND))
                assert exactlin.is_prime(n) == sympy.isprime(n), n

    @pytest.mark.parametrize("n", [3215031751, 3825123056546413051,
                                   318665857834031151167461])
    def test_strong_pseudoprimes_are_composite(self, n):
        # strong pseudoprimes to the bases 2..7, 2..23 and 2..37 respectively
        assert not exactlin.is_prime(n)

    def test_primality_beyond_the_bound_is_refused(self):
        assert exactlin.is_prime(2 ** 61 - 1)
        assert exactlin.is_prime(3317044064679887385961813)  # the largest prime below it
        with pytest.raises(ValueError, match="below 3317044064679887385961981"):
            exactlin.is_prime(exactlin._BASES_BOUND)

    def test_parse_field(self):
        assert parse_field("q") == QQ
        assert parse_field("fp:101") == GF(101)
        with pytest.raises(ValueError):
            parse_field("r")


class TestRank:
    def test_identity(self):
        assert rank(ExactMatrix.identity(QQ, 3)) == 3

    def test_zero(self):
        assert rank(ExactMatrix.zeros(QQ, 2, 4)) == 0

    def test_dependent_rows(self):
        # row2 = 2 * row1
        assert rank(m([[1, 2], [2, 4]])) == 1

    def test_against_sympy(self):
        rng = random.Random(11)
        for _ in range(25):
            a = random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
            assert rank(a) == to_sympy(a).rank()


class TestNullspace:
    def test_injective(self):
        assert nullspace_basis(ExactMatrix.identity(QQ, 2)) == []

    def test_full_kernel(self):
        basis = nullspace_basis(ExactMatrix.zeros(QQ, 1, 2))
        assert len(basis) == 2

    def test_single_equation(self):
        (v,) = nullspace_basis(m([[1, 1]]))
        assert v.column(0) == [Fraction(1), Fraction(-1)]

    def test_rank_nullity_and_exactness(self):
        rng = random.Random(5)
        for _ in range(30):
            a = random_matrix(rng, rng.randrange(0, 5), rng.randrange(1, 5))
            basis = nullspace_basis(a)
            assert rank(a) + len(basis) == a.cols
            for v in basis:
                assert (a * v).is_zero()
            if basis:
                stacked = ExactMatrix.from_columns(QQ, [v.column(0) for v in basis], a.cols)
                assert rank(stacked) == len(basis)


class TestInverse:
    def test_identity(self):
        i3 = ExactMatrix.identity(QQ, 3)
        assert solve_or_invert(i3) == i3

    def test_unipotent(self):
        assert solve_or_invert(m([[1, 1], [0, 1]])) == m([[1, -1], [0, 1]])

    def test_singular(self):
        with pytest.raises(NotInvertible):
            solve_or_invert(m([[1, 2], [2, 4]]))

    def test_non_square(self):
        with pytest.raises(NonSquare):
            solve_or_invert(m([[1, 2]]))

    def test_two_sided_and_sympy(self):
        rng = random.Random(3)
        done = 0
        while done < 15:
            a = random_matrix(rng, 3, 3)
            try:
                inv = solve_or_invert(a)
            except NotInvertible:
                assert to_sympy(a).det() == 0
                continue
            i3 = ExactMatrix.identity(QQ, 3)
            assert a * inv == i3
            assert inv * a == i3
            assert to_sympy(inv) == to_sympy(a).inv()
            done += 1

    def test_prime_field_inverse(self):
        f = GF(5)
        a = ExactMatrix(f, [[2, 1], [1, 1]])
        assert a * solve_or_invert(a) == ExactMatrix.identity(f, 2)


def block_diagonal(field, n, offset, size):
    return ExactMatrix(field, [[1 if (i == j and offset <= i < offset + size) else 0
                                for j in range(n)] for i in range(n)])


def random_idempotent_family(rng, n, field=QQ):
    """Random conjugate of a 0/1 block family (zero blocks permitted)."""
    while True:
        t = random_matrix(rng, n, n, field)
        try:
            t_inv = solve_or_invert(t)
            break
        except NotInvertible:
            continue
    sizes = []
    remaining = n
    while remaining > 0:
        s = rng.randrange(0, remaining + 1)
        sizes.append(s)
        remaining -= s
    if rng.randrange(2):
        sizes.append(0)
    idems = []
    offset = 0
    for s in sizes:
        idems.append(t * block_diagonal(field, n, offset, s) * t_inv)
        offset += s
    return idems, sizes


class TestIdempotentDiagonalize:
    def test_already_diagonal(self):
        e1 = m([[1, 0], [0, 0]])
        e2 = m([[0, 0], [0, 1]])
        u, ranks = idempotent_diagonalize([e1, e2])
        assert u == ExactMatrix.identity(QQ, 2)
        assert ranks == [1, 1]

    def test_spec_pair(self):
        e1 = m([[1, 1], [0, 0]])
        e2 = m([[0, -1], [0, 1]])
        u, ranks = idempotent_diagonalize([e1, e2])
        assert u == m([[1, -1], [0, 1]])
        assert ranks == [1, 1]
        u_inv = solve_or_invert(u)
        assert u_inv * e1 * u == m([[1, 0], [0, 0]])
        assert u_inv * e2 * u == m([[0, 0], [0, 1]])

    def test_single_full_idempotent(self):
        i3 = ExactMatrix.identity(QQ, 3)
        u, ranks = idempotent_diagonalize([i3])
        assert u == i3
        assert ranks == [3]

    def test_rejects_non_idempotent(self):
        with pytest.raises(NotIdempotentFamily, match="not idempotent"):
            idempotent_diagonalize([m([[1, 1], [1, 1]])])

    def test_rejects_non_orthogonal(self):
        e = m([[1, 0], [0, 0]])
        with pytest.raises(NotIdempotentFamily, match="not orthogonal"):
            idempotent_diagonalize([e, e])

    def test_rejects_incomplete_sum(self):
        with pytest.raises(NotIdempotentFamily, match="sum"):
            idempotent_diagonalize([m([[1, 0], [0, 0]])])

    def test_random_families_conjugate_exactly(self):
        rng = random.Random(99)
        for _ in range(10):
            n = rng.randrange(1, 7)
            idems, _ = random_idempotent_family(rng, n)
            u, ranks = idempotent_diagonalize(idems)
            assert ranks == [rank(e) for e in idems]
            assert sum(ranks) == n
            u_inv = solve_or_invert(u)
            offset = 0
            for e, r in zip(idems, ranks):
                assert u_inv * e * u == block_diagonal(QQ, n, offset, r)
                offset += r

    def test_deterministic(self):
        rng = random.Random(4)
        idems, _ = random_idempotent_family(rng, 4)
        assert idempotent_diagonalize(idems) == idempotent_diagonalize(idems)


def diagonal(field, *bits):
    n = len(bits)
    return ExactMatrix(field, [[bits[i] if i == j else 0 for j in range(n)] for i in range(n)])


class TestStandardLayoutEarlyReturn:
    """A family that already is consecutive 0/1 diagonal blocks covering
    0..n-1 returns (I, ranks), the pivot columns of its blocks; every
    family goes through all of the checks."""

    @pytest.fixture
    def general_path_calls(self, monkeypatch):
        calls = []
        original = exactlin.column_space_basis

        def counting(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(exactlin, "column_space_basis", counting)
        return calls

    @pytest.mark.parametrize("field", [QQ, GF(101)])
    @pytest.mark.parametrize("sizes", [[3], [1, 2], [0, 3], [2, 0, 1], [1, 1, 0], [0, 0, 3, 0]])
    def test_standard_families(self, field, sizes):
        n = sum(sizes)
        idems, offset = [], 0
        for k in sizes:
            idems.append(block_diagonal(field, n, offset, k))
            offset += k
        u, ranks = idempotent_diagonalize(idems)
        assert (u, ranks) == (ExactMatrix.identity(field, n), sizes)
        # what the general path computes: the pivot columns of each block
        columns = [v.column(0) for e in idems for v in column_space_basis(e)]
        assert ExactMatrix.from_columns(field, columns, n) == u

    def test_out_of_order_family_takes_general_path(self, general_path_calls):
        e1, e2 = diagonal(QQ, 0, 1), diagonal(QQ, 1, 0)
        u, ranks = idempotent_diagonalize([e1, e2])
        assert len(general_path_calls) == 2
        assert u == m([[0, 1], [1, 0]])
        assert ranks == [1, 1]
        u_inv = solve_or_invert(u)
        assert u_inv * e1 * u == diagonal(QQ, 1, 0)
        assert u_inv * e2 * u == diagonal(QQ, 0, 1)

    @pytest.mark.parametrize("family, message", [
        ([diagonal(QQ, 1, 0), diagonal(QQ, 1, 1)], "not orthogonal"),
        ([diagonal(QQ, 1, 1, 0), diagonal(QQ, 0, 1, 1)], "not orthogonal"),
        ([diagonal(QQ, 1, 0, 0), diagonal(QQ, 0, 1, 0)], "sum"),
        ([diagonal(QQ, 1, 0), diagonal(QQ, 0, 0)], "sum"),
        ([diagonal(QQ, 1, 1), diagonal(QQ, 0, 1)], "not orthogonal"),
    ])
    def test_non_families_still_raise(self, family, message):
        with pytest.raises(NotIdempotentFamily, match=message):
            idempotent_diagonalize(family)

    @pytest.mark.parametrize("field", [QQ, GF(101)])
    def test_off_diagonal_entries_take_general_path(self, field, general_path_calls):
        # 0/1 diagonals in the standard layout, but with entries above and below
        for e1, e2 in [([[1, 1], [0, 0]], [[0, -1], [0, 1]]),
                       ([[1, 0], [1, 0]], [[0, 0], [-1, 1]])]:
            general_path_calls.clear()
            e1, e2 = ExactMatrix(field, e1), ExactMatrix(field, e2)
            u, ranks = idempotent_diagonalize([e1, e2])
            assert len(general_path_calls) == 2
            assert ranks == [1, 1]
            assert u != ExactMatrix.identity(field, 2)
            u_inv = solve_or_invert(u)
            assert u_inv * e1 * u == diagonal(field, 1, 0)
            assert u_inv * e2 * u == diagonal(field, 0, 1)


class TestColumnSpace:
    def test_pivot_columns(self):
        a = m([[1, 2, 3], [2, 4, 6]])
        basis = column_space_basis(a)
        assert len(basis) == 1
        assert basis[0].column(0) == [Fraction(1), Fraction(2)]


# Reference kernels: the per-entry loops that ExactMatrix and rref used
# before the Field row kernels, kept here to pin the fast kernels to them.
def ref_mul(f, a, b, inner, cols):
    out = []
    for i in range(len(a)):
        row = []
        for j in range(cols):
            acc = f.zero()
            for k in range(inner):
                acc = f.add(acc, f.mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def ref_scale(f, a, c):
    c = f.coerce(c)
    return tuple(tuple(f.mul(c, x) for x in row) for row in a)


def ref_rref(f, a, cols):
    a = [list(row) for row in a]
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = -1
        for i in range(r, len(a)):
            if not f.is_zero(a[i][c]):
                pivot_row = i
                break
        if pivot_row < 0:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = f.inv(a[r][c])
        a[r] = [f.mul(inv, x) for x in a[r]]
        for i in range(len(a)):
            if i != r and not f.is_zero(a[i][c]):
                factor = a[i][c]
                a[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return tuple(tuple(row) for row in a), pivots


def ref_nullspace(f, a, cols):
    reduced, pivots = ref_rref(f, a, cols)
    basis = []
    for fc in [j for j in range(cols) if j not in pivots]:
        v = [f.zero()] * cols
        v[fc] = f.one()
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(reduced[r][fc])
        inv = f.inv(next(x for x in v if not f.is_zero(x)))
        basis.append(tuple((f.mul(inv, x),) for x in v))
    return basis


def ref_inverse(f, a, n):
    aug = [tuple(row) + tuple(f.one() if i == j else f.zero() for j in range(n))
           for i, row in enumerate(a)]
    reduced, pivots = ref_rref(f, aug, 2 * n)
    if pivots != list(range(n)):
        return None
    return tuple(row[n:] for row in reduced)


def is_canonical_rational(x) -> bool:
    """QQ's one form per value: an int when integral, else a Fraction whose
    denominator is not 1."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def assert_canonical(mat):
    """The internal constructor's contract: canonical entries, exact shape."""
    assert len(mat.entries) == mat.rows
    for row in mat.entries:
        assert type(row) is tuple and len(row) == mat.cols
        for x in row:
            if mat.field == QQ:
                assert is_canonical_rational(x)
            else:
                assert type(x) is int and 0 <= x < mat.field.p


RATIONALS = st.builds(Fraction, st.integers(-12, 12),
                      st.sampled_from([1, 1, 2, 3, 4, 6])).map(QQ.coerce)


class TestCanonicalRationals:
    """QQ keeps one form per value: every RationalField operation returns an
    int when the value is integral, else a Fraction whose denominator is not
    1, and agrees with plain Fraction arithmetic."""

    @settings(max_examples=300, deadline=None)
    @given(RATIONALS, RATIONALS, st.lists(st.tuples(RATIONALS, RATIONALS), max_size=4))
    def test_operations_return_the_canonical_form(self, a, b, pairs):
        fa, fb = Fraction(a), Fraction(b)
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        checks = [
            (QQ.coerce(fa), fa), (QQ.coerce(str(fa)), fa), (QQ.coerce(fa.numerator), fa.numerator),
            (QQ.zero(), 0), (QQ.one(), 1), (QQ.coerce(True), 1),
            (QQ.add(a, b), fa + fb), (QQ.sub(a, b), fa - fb), (QQ.mul(a, b), fa * fb),
            (QQ.neg(a), -fa),
            (QQ.dot(xs, ys), sum((Fraction(x) * y for x, y in pairs), Fraction(0))),
        ]
        if b:
            checks.append((QQ.inv(b), 1 / fb))
        for got, want in checks:
            assert is_canonical_rational(got)
            assert got == want

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(RATIONALS, min_size=3, max_size=3), max_size=4))
    def test_eliminate_returns_the_canonical_form(self, rows):
        echelon = QQ.reduced_echelon(sparse(rows), 3)
        assert all(is_canonical_rational(x) for tail in echelon.values() for x in tail.values())
        expected = ref_echelon(QQ, rows, 3)
        assert (list(echelon), echelon) == (list(expected), expected)


FIELDS = st.sampled_from([QQ, GF(101)])
SCALARS = st.sampled_from([-2, -1, 0, 0, 0, 1, 2, Fraction(1, 3)])


@st.composite
def matrices(draw, field, rows=None, cols=None):
    rows = draw(st.integers(0, 5)) if rows is None else rows
    cols = draw(st.integers(0, 5)) if cols is None else cols
    grid = [[draw(SCALARS) for _ in range(cols)] for _ in range(rows)]
    return ExactMatrix(field, grid, cols=cols)


DENOMINATORS = st.sampled_from([1, 2, 3, 7])
BIG_ENTRIES = st.builds(Fraction, st.integers(-10**6, 10**6), DENOMINATORS)
SMALL_ENTRIES = st.builds(Fraction, st.integers(-3, 3), DENOMINATORS)


@st.composite
def rational_matrices(draw):
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    sparse = draw(st.booleans())
    entries = draw(st.sampled_from(
        [SMALL_ENTRIES, BIG_ENTRIES, st.one_of(SMALL_ENTRIES, BIG_ENTRIES)]))

    def cell():
        return Fraction(0) if sparse and draw(st.integers(0, 3)) else draw(entries)

    grid = [[cell() for _ in range(cols)] for _ in range(rows)]
    if cols:
        for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
            for row in grid:
                row[j] = Fraction(0)
    if rows >= 2 and draw(st.booleans()):
        # rows from k on are combinations of the first k rows
        k = draw(st.integers(1, rows - 1))
        for i in range(k, rows):
            s, t = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
            cs, ct = draw(SMALL_ENTRIES), draw(SMALL_ENTRIES)
            grid[i] = [cs * x + ct * y for x, y in zip(grid[s], grid[t])]
    return ExactMatrix(QQ, grid, cols=cols)


class TestKernelEquivalence:
    """The row kernels give exactly the per-entry reference results, over QQ
    and GF(101), including 0xN, Nx0 and inner-dimension-0 shapes."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mul_and_scale(self, data):
        f = data.draw(FIELDS)
        rows, inner, cols = (data.draw(st.integers(0, 5)) for _ in range(3))
        a = data.draw(matrices(f, rows, inner))
        b = data.draw(matrices(f, inner, cols))
        prod = a * b
        assert_canonical(prod)
        assert (prod.rows, prod.cols) == (rows, cols)
        assert prod.entries == ref_mul(f, a.entries, b.entries, inner, cols)
        c = data.draw(SCALARS)
        assert_canonical(a.scale(c))
        assert a.scale(c).entries == ref_scale(f, a.entries, c)
        for derived in (a + a, a - a, -a, a.hstack(a),
                        a.submatrix(range(rows), range(inner))):
            assert_canonical(derived)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rref_and_nullspace(self, data):
        f = data.draw(FIELDS)
        a = data.draw(matrices(f))
        reduced, pivots = rref(a)
        assert_canonical(reduced)
        assert (reduced.entries, pivots) == ref_rref(f, a.entries, a.cols)
        basis = nullspace_basis(a)
        for v in basis:
            assert_canonical(v)
        assert [v.entries for v in basis] == ref_nullspace(f, a.entries, a.cols)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_solve_or_invert(self, data):
        f = data.draw(FIELDS)
        n = data.draw(st.integers(0, 5))
        a = data.draw(matrices(f, n, n))
        expected = ref_inverse(f, a.entries, n)
        if expected is None:
            with pytest.raises(NotInvertible):
                solve_or_invert(a)
        else:
            inv = solve_or_invert(a)
            assert_canonical(inv)
            assert inv.entries == expected

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_rref_over_qq_larger_systems(self, data):
        """The fraction-free QQ elimination against the Fraction loop, on
        systems large enough for many exact divisions by earlier pivots:
        up to 9x9, large numerators, mixed denominators, sparse rows, zero
        columns and dependent rows."""
        a = data.draw(rational_matrices())
        reduced, pivots = rref(a)
        assert_canonical(reduced)
        assert (reduced.entries, pivots) == ref_rref(QQ, a.entries, a.cols)
        basis = nullspace_basis(a)
        for v in basis:
            assert_canonical(v)
        assert [v.entries for v in basis] == ref_nullspace(QQ, a.entries, a.cols)



@st.composite
def rank_inputs(draw):
    """(field, rows, cols): rows as tuples of canonical entries, up to 12 by
    12 so wide, tall and 0-row or 0-column shapes all occur, with zero rows
    and dependent rows mixed in; over QQ with non-integer fractions."""
    field = draw(st.sampled_from([QQ, GF(2), GF(7), GF(101)]))
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    entries = (st.one_of(SCALARS, SMALL_ENTRIES, BIG_ENTRIES) if field == QQ
               else st.one_of(st.sampled_from([0, 0, 1, -1]), st.integers(-10**6, 10**6)))
    grid = [[field.coerce(draw(entries)) for _ in range(cols)] for _ in range(rows)]
    if rows:
        for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
            grid[i] = [field.zero()] * cols
    if rows >= 2 and draw(st.booleans()):
        # a row becomes a multiple of another plus a multiple of a third
        i, j, k = (draw(st.integers(0, rows - 1)) for _ in range(3))
        cj, ck = (field.coerce(draw(st.sampled_from([-2, -1, 1, 3]))) for _ in range(2))
        grid[i] = [field.add(field.mul(cj, x), field.mul(ck, y)) for x, y in zip(grid[j], grid[k])]
    return field, tuple(map(tuple, grid)), cols


def sparse(rows):
    """Dense rows as the dict rows {column: nonzero} that Field.rank and
    Field.reduced_echelon take."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def ref_echelon(field, rows, cols):
    """ref_rref in the form Field.reduced_echelon gives: {pivot column: the
    nonzero non-pivot entries of its row}."""
    reduced, pivots = ref_rref(field, rows, cols)
    return {c: {j: x for j, x in enumerate(row) if x and j != c}
            for c, row in zip(pivots, reduced)}


@st.composite
def sparse_rank_inputs(draw):
    """(field, dict rows, cols) with up to 16 columns and 16 rows, each row
    holding a few nonzeros: 0 rows, empty dicts, duplicated rows and rows
    that are combinations of earlier ones all occur; over QQ the entries
    include non-integer fractions."""
    field = draw(st.sampled_from([QQ, GF(2), GF(7), GF(101)]))
    cols = draw(st.integers(0, 16))
    entries = (st.one_of(SMALL_ENTRIES, BIG_ENTRIES) if field == QQ
               else st.integers(-10**6, 10**6))
    rows = []
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.sampled_from(["new", "new", "empty", "duplicate", "combination"]))
        if kind == "empty" or not cols:
            rows.append({})
        elif kind == "new" or not rows:
            support = draw(st.sets(st.integers(0, cols - 1), max_size=4))
            row = {j: field.coerce(draw(entries)) for j in support}
            rows.append({j: x for j, x in row.items() if x})
        elif kind == "duplicate":
            rows.append(dict(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            ca, cb = (field.coerce(draw(st.sampled_from([-2, -1, 1, 3]))) for _ in range(2))
            row = {j: field.add(field.mul(ca, a.get(j, field.zero())),
                                field.mul(cb, b.get(j, field.zero()))) for j in {**a, **b}}
            rows.append({j: x for j, x in row.items() if x})
    return field, rows, cols


class TestForwardRank:
    """Field.rank on sparse rows, and rank on a dense matrix, count exactly
    the pivots of the reference Gauss-Jordan loop ref_rref, and leave their
    input alone; rref, whose Field.reduced_echelon runs on the same loop as
    Field.rank, gives ref_rref's rows and pivots."""

    @settings(max_examples=300, deadline=None)
    @given(rank_inputs())
    def test_rank_is_the_pivot_count(self, case):
        field, rows, cols = case
        reduced, pivots = ref_rref(field, rows, cols)
        expected = len(pivots)
        assert field.rank(sparse(rows), cols) == expected
        assert rank(ExactMatrix._of(field, rows, cols)) == expected
        out, out_pivots = rref(ExactMatrix._of(field, rows, cols))
        assert (out.entries, out_pivots) == (reduced, pivots)
        if field == QQ and rows and cols:
            assert expected == to_sympy(ExactMatrix._of(field, rows, cols)).rank()

    @settings(max_examples=300, deadline=None)
    @given(sparse_rank_inputs())
    def test_sparse_rank_is_the_pivot_count(self, case):
        field, rows, cols = case
        dense = [[row.get(j, field.zero()) for j in range(cols)] for row in rows]
        assert field.rank(rows, cols) == len(ref_rref(field, dense, cols)[1])

    def test_rank_leaves_rows_unchanged(self):
        for field in (QQ, GF(7)):
            rows = [[field.coerce(x) for x in row] for row in ([2, 4, 1], [1, 2, 3], [0, 5, 5])]
            dicts = sparse(rows)
            copy = [dict(row) for row in dicts]
            assert field.rank(dicts, 3) == len(ref_rref(field, rows, 3)[1])
            assert dicts == copy


class TestReducedEchelon:
    """Field.reduced_echelon on sparse rows is ref_rref in dict form: the
    same pivots in ascending order, each tail the nonzero non-pivot entries
    of its row in the field's canonical form; the input rows are left
    unchanged."""

    @settings(max_examples=100, deadline=None)
    @given(sparse_rank_inputs())
    def test_reduced_echelon_is_the_reference_rref(self, case):
        field, rows, cols = case
        copy = [dict(row) for row in rows]
        echelon = field.reduced_echelon(rows, cols)
        assert rows == copy
        dense = [[row.get(j, field.zero()) for j in range(cols)] for row in rows]
        expected = ref_echelon(field, dense, cols)
        assert list(echelon) == list(expected) == sorted(expected)
        assert echelon == expected
        for x in (x for tail in echelon.values() for x in tail.values()):
            assert is_canonical_rational(x) if field == QQ else 0 < x < field.p
