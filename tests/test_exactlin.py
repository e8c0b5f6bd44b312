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
            QQ.div(QQ.one(), QQ.zero())
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
    0..n-1 returns (I, ranks) without the general path; every other family
    takes the general path with all of its checks."""

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
    def test_standard_families(self, field, sizes, general_path_calls):
        n = sum(sizes)
        idems, offset = [], 0
        for k in sizes:
            idems.append(block_diagonal(field, n, offset, k))
            offset += k
        u, ranks = idempotent_diagonalize(idems)
        assert general_path_calls == []
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


def assert_canonical(mat):
    """The internal constructor's contract: canonical entries, exact shape."""
    assert len(mat.entries) == mat.rows
    for row in mat.entries:
        assert type(row) is tuple and len(row) == mat.cols
        for x in row:
            if mat.field == QQ:
                assert type(x) is Fraction
            else:
                assert type(x) is int and 0 <= x < mat.field.p


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
        for derived in (a + a, a - a, -a, a.transpose(), a.hstack(a),
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


class TestForwardRank:
    """Field.rank, the forward-only pass, counts exactly the pivots of the
    Gauss-Jordan elimination, and leaves its input alone."""

    @settings(max_examples=300, deadline=None)
    @given(rank_inputs())
    def test_rank_is_the_pivot_count(self, case):
        field, rows, cols = case
        expected = len(field.eliminate(rows, cols)[1])
        assert field.rank(rows, cols) == expected
        assert rank(ExactMatrix._of(field, rows, cols)) == expected
        if field == QQ and rows and cols:
            assert expected == to_sympy(ExactMatrix._of(field, rows, cols)).rank()

    def test_rank_leaves_rows_unchanged(self):
        for field in (QQ, GF(7)):
            rows = [[field.coerce(x) for x in row] for row in ([2, 4, 1], [1, 2, 3], [0, 5, 5])]
            copy = [list(row) for row in rows]
            assert field.rank(rows, 3) == len(field.eliminate(rows, 3)[1])
            assert rows == copy
