import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverepi.exactlin import GF, QQ, ExactMatrix
from quiverepi.quiver import Quiver, parse_quiver
from quiverepi.quiverrep import (
    DimensionExceeded,
    QuiverMismatch,
    Representation,
    Subspace,
    UnknownArrow,
    ZeroModule,
    complement,
    direct_sum,
    euler_form,
    ext1_dim,
    hom_basis,
    hom_dim,
    invariant_under_end,
    is_brick,
    is_exceptional,
    kernel_image,
    load_representation,
    parse_representation,
    random_representation,
    representation_to_text,
)


def qq(rows):
    return ExactMatrix(QQ, rows)


def hom_dim_oracle(M, N):
    """Nullity of the independently assembled intertwiner system (sympy)."""
    q = M.quiver
    cols = []
    index = {}
    for v in q.vertices:
        for i in range(N.dims[v]):
            for j in range(M.dims[v]):
                index[(v, i, j)] = len(cols)
                cols.append((v, i, j))
    rows = []
    for a in q.arrows:
        for p in range(N.dims[a.target]):
            for r in range(M.dims[a.source]):
                row = [0] * len(cols)
                for k in range(M.dims[a.target]):
                    c = M.maps[a.name].entry(k, r)
                    row[index[(a.target, p, k)]] += sympy.Rational(c.numerator, c.denominator)
                for k in range(N.dims[a.source]):
                    c = N.maps[a.name].entry(p, k)
                    row[index[(a.source, k, r)]] -= sympy.Rational(c.numerator, c.denominator)
                rows.append(row)
    if not cols:
        return 0
    if not rows:
        return len(cols)
    mat = sympy.Matrix(rows)
    return len(cols) - mat.rank()


def resolution_ext_dim(M, N):
    """dim Ext^1 as the cokernel dimension of the map coming from the
    standard projective resolution of M: codomain sum_e Hom(M_{s(e)},
    N_{t(e)}), so dim coker = sum_e dim_s * dim_t - rank."""
    q = M.quiver
    total_rows = sum(M.dims[a.source] * N.dims[a.target] for a in q.arrows)
    cols = []
    index = {}
    for v in q.vertices:
        for i in range(N.dims[v]):
            for j in range(M.dims[v]):
                index[(v, i, j)] = len(cols)
                cols.append((v, i, j))
    rows = []
    for a in q.arrows:
        for p in range(N.dims[a.target]):
            for r in range(M.dims[a.source]):
                row = [0] * len(cols)
                for k in range(M.dims[a.target]):
                    c = M.maps[a.name].entry(k, r)
                    row[index[(a.target, p, k)]] += sympy.Rational(c.numerator, c.denominator)
                for k in range(N.dims[a.source]):
                    c = N.maps[a.name].entry(p, k)
                    row[index[(a.source, k, r)]] -= sympy.Rational(c.numerator, c.denominator)
                rows.append(row)
    rk = sympy.Matrix(rows).rank() if rows and cols else 0
    return total_rows - rk


class TestHomBasis:
    def test_a2_brick_end(self, a2_modules):
        p = a2_modules["P12"]
        basis = hom_basis(p, p)
        assert basis.dimension == 1
        (tup,) = basis.pairs
        assert tup["1"] == tup["2"]
        assert not tup["1"].is_zero()

    def test_s1_square_end(self, a2_modules):
        dbl = direct_sum(a2_modules["S1"], a2_modules["S1"])
        assert hom_basis(dbl, dbl).dimension == 4

    def test_simples_no_homs(self, a2_modules):
        assert hom_basis(a2_modules["S1"], a2_modules["S2"]).dimension == 0

    def test_intertwiner_equations_hold(self, a2, a3, kronecker):
        rng = random.Random(17)
        for q in (a2, a3, kronecker):
            for _ in range(6):
                dims_m = {v: rng.randrange(0, 3) for v in q.vertices}
                dims_n = {v: rng.randrange(0, 3) for v in q.vertices}
                m = random_representation(q, dims_m, rng)
                n = random_representation(q, dims_n, rng)
                basis = hom_basis(m, n)
                for tup in basis.pairs:
                    for a in q.arrows:
                        lhs = tup[a.target] * m.maps[a.name]
                        rhs = n.maps[a.name] * tup[a.source]
                        assert lhs == rhs
                assert basis.dimension == hom_dim_oracle(m, n)

    def test_quiver_mismatch(self, a2_modules, a3_modules):
        with pytest.raises(QuiverMismatch):
            hom_basis(a2_modules["S1"], a3_modules["S1"])


# the letters module of the specialization test: one vertex, one loop per letter
LOOPS = Quiver(["*"], [("x1", "*", "*"), ("x2", "*", "*")], require_acyclic=False)
ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2)])


@st.composite
def representations(draw, q, field):
    dims = {v: draw(st.integers(0, 3)) for v in q.vertices}
    maps = {a.name: [[draw(ENTRIES) for _ in range(dims[a.source])]
                     for _ in range(dims[a.target])]
            for a in q.arrows}
    return Representation(q, dims, maps, field=field)


class TestHomDim:
    """hom_dim, the rank of the intertwiner system, agrees with the size of
    the nullspace basis hom_basis builds, over QQ and GF(p)."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_hom_basis(self, a2, a3, kronecker, data):
        q = data.draw(st.sampled_from([a2, a3, kronecker, LOOPS]))
        field = data.draw(st.sampled_from([QQ, GF(3), GF(101)]))
        m = data.draw(representations(q, field))
        n = m if data.draw(st.booleans()) else data.draw(representations(q, field))
        assert hom_dim(m, n) == hom_basis(m, n).dimension

    def test_loop_coefficients_cancel(self):
        # f x - x f = 0 for a scalar x: both sums hit the one unknown and cancel
        q = LOOPS
        m = Representation(q, {"*": 1}, {"x1": [[3]], "x2": [[Fraction(1, 2)]]})
        assert hom_dim(m, m) == hom_basis(m, m).dimension == 1
        n = Representation(q, {"*": 2}, {"x1": [[0, 1], [0, 0]]})
        assert hom_dim(n, n) == hom_basis(n, n).dimension == 2

    def test_mismatch(self, a2_modules, a3_modules):
        with pytest.raises(QuiverMismatch):
            hom_dim(a2_modules["S1"], a3_modules["S1"])
        p12 = a2_modules["P12"]
        with pytest.raises(QuiverMismatch):
            hom_dim(p12, Representation(p12.quiver, p12.dims, {"a": [[1]]}, field=GF(5)))


class TestBrick:
    def test_a2_brick(self, a2_modules):
        assert is_brick(a2_modules["P12"])

    def test_direct_sum_never_brick(self, catalogue):
        for m in catalogue[:4]:
            for n in catalogue[:4]:
                if m.quiver == n.quiver:
                    assert not is_brick(direct_sum(m, n))

    def test_simples_are_bricks(self, catalogue):
        for m in catalogue:
            assert is_brick(m)

    def test_zero_module(self, a2):
        with pytest.raises(ZeroModule):
            is_brick(Representation(a2, {"1": 0, "2": 0}))


class TestEulerExt:
    def test_euler_examples(self, a2, kronecker):
        assert euler_form(a2, {"1": 1, "2": 1}, {"1": 1, "2": 1}) == 1
        assert euler_form(a2, {"1": 1, "2": 0}, {"1": 0, "2": 1}) == -1
        assert euler_form(kronecker, {"1": 1, "2": 1}, {"1": 1, "2": 1}) == 0

    def test_a2_ext_table_against_resolution_oracle(self, a2_modules):
        # hand-derived: the only nonsplit extension among the nine pairs is
        # 0 -> S2 -> P12 -> S1 -> 0
        expected = {("S1", "S2"): 1}
        names = ["S1", "S2", "P12"]
        for m_name in names:
            for n_name in names:
                m, n = a2_modules[m_name], a2_modules[n_name]
                want = expected.get((m_name, n_name), 0)
                assert ext1_dim(m, n) == want
                assert resolution_ext_dim(m, n) == want

    def test_ext_examples(self, a2_modules):
        s1, s2, p = a2_modules["S1"], a2_modules["S2"], a2_modules["P12"]
        assert ext1_dim(s1, s2) == 1
        assert ext1_dim(s2, s1) == 0
        assert ext1_dim(p, p) == 0

    def test_random_ext_nonnegative_and_matches_resolution(self, a2, a3, kronecker):
        rng = random.Random(23)
        for q in (a2, a3, kronecker):
            for _ in range(8):
                m = random_representation(q, {v: rng.randrange(0, 3) for v in q.vertices}, rng)
                n = random_representation(q, {v: rng.randrange(0, 3) for v in q.vertices}, rng)
                d = ext1_dim(m, n)
                assert d >= 0
                assert d == resolution_ext_dim(m, n)

    def test_exceptional(self, a2_modules, kronecker):
        assert is_exceptional(a2_modules["P12"])
        assert is_exceptional(a2_modules["S1"])
        regular = Representation(kronecker, {"1": 1, "2": 1}, {"a": [[1]], "b": [[0]]})
        assert is_brick(regular)
        assert ext1_dim(regular, regular) == 1
        assert not is_exceptional(regular)


class TestKernelImageComplement:
    def test_isomorphism(self, a2):
        m = Representation(a2, {"1": 1, "2": 1}, {"a": [[1]]})
        ker, im = kernel_image(m, "a")
        assert ker.dim() == 0
        assert im.dim() == 1

    def test_zero_map(self, a2):
        m = Representation(a2, {"1": 1, "2": 1})
        ker, im = kernel_image(m, "a")
        assert ker.dim() == 1
        assert im.dim() == 0

    def test_projection(self, a2):
        m = Representation(a2, {"1": 2, "2": 1}, {"a": [[1, 0]]})
        ker, im = kernel_image(m, "a")
        assert [v.column(0) for v in ker.basis] == [[Fraction(0), Fraction(1)]]
        assert im.dim() == 1

    def test_unknown_arrow(self, a2):
        m = Representation(a2, {"1": 1, "2": 1})
        with pytest.raises(UnknownArrow):
            kernel_image(m, "zz")

    def test_complement_examples(self):
        line = Subspace("1", [qq([[1], [0]])], 2)
        comp = complement(line, 2)
        assert [v.column(0) for v in comp.basis] == [[Fraction(0), Fraction(1)]]
        empty = Subspace("1", [], 2)
        assert complement(empty, 2).dim() == 2
        full = Subspace("1", [qq([[1], [0]]), qq([[0], [1]])], 2)
        assert complement(full, 2).dim() == 0

    def test_complement_is_direct(self):
        rng = random.Random(8)
        for _ in range(10):
            n = rng.randrange(1, 5)
            k = rng.randrange(0, n + 1)
            vectors = []
            while len(vectors) < k:
                v = qq([[rng.randrange(-2, 3)] for _ in range(n)])
                try:
                    Subspace("1", vectors + [v], n)
                except Exception:
                    continue
                vectors.append(v)
            sub = Subspace("1", vectors, n)
            comp = complement(sub, n)
            assert sub.dim() + comp.dim() == n
            cols = [v.column(0) for v in sub.basis] + [v.column(0) for v in comp.basis]
            if cols:
                from quiverepi.exactlin import rank
                assert rank(ExactMatrix.from_columns(QQ, cols, n)) == n

    def test_dimension_exceeded(self):
        sub = Subspace("1", [qq([[1], [0]])], 2)
        with pytest.raises(DimensionExceeded):
            complement(sub, 1)


class TestInvariance:
    def test_brick_all_subspaces_invariant(self, a2_modules):
        p = a2_modules["P12"]
        sub = Subspace("1", [qq([[1]])], 1)
        assert invariant_under_end(p, sub)

    def test_zero_subspace(self, a2):
        m = Representation(a2, {"1": 2, "2": 3}, {"a": [[1, 0], [0, 1], [0, 0]]})
        assert invariant_under_end(m, Subspace("2", [], 3))

    def test_documented_violation(self, a2):
        m = Representation(a2, {"1": 2, "2": 3}, {"a": [[1, 0], [0, 1], [0, 0]]})
        assert hom_basis(m, m).dimension == 7
        sub = Subspace("2", [qq([[0], [1], [0]]), qq([[0], [0], [1]])], 3)
        assert not invariant_under_end(m, sub)

    def test_every_subspace_of_a_brick_invariant(self, kron_preprojective):
        rng = random.Random(14)
        assert is_brick(kron_preprojective)
        for _ in range(10):
            vec = qq([[rng.randrange(-2, 3)], [rng.randrange(-2, 3)]])
            if vec.is_zero():
                continue
            sub = Subspace("2", [vec], 2)
            assert invariant_under_end(kron_preprojective, sub)


class TestDirectSum:
    def test_dims_add(self, a2_modules):
        dbl = direct_sum(a2_modules["S1"], a2_modules["S1"])
        assert dbl.dims == {"1": 2, "2": 0}

    def test_zero_identity(self, a2, a2_modules):
        zero = Representation(a2, {"1": 0, "2": 0})
        s = direct_sum(a2_modules["P12"], zero)
        assert s.dims == a2_modules["P12"].dims
        assert s.maps["a"] == a2_modules["P12"].maps["a"]

    def test_block_assembly(self, a2_modules):
        s = direct_sum(a2_modules["P12"], a2_modules["S2"])
        assert s.dims == {"1": 1, "2": 2}
        assert s.maps["a"] == qq([[1], [0]])


class TestTextFormat:
    def test_parse_basic(self, a2):
        m = parse_representation("dims 1=1 2=1\nmap a 1\n", a2)
        assert m.dims == {"1": 1, "2": 1}
        assert m.maps["a"] == qq([[1]])

    def test_multirow_rationals(self, kronecker):
        text = "dims 1=1 2=2\nmap a 1/2 ; -3\nmap b 0 ; 1\n"
        m = parse_representation(text, kronecker)
        assert m.maps["a"] == qq([[Fraction(1, 2)], [-3]])

    def test_missing_map_is_zero(self, a2):
        m = parse_representation("dims 1=2 2=0\n", a2)
        assert m.maps["a"].rows == 0
        assert m.maps["a"].cols == 2

    def test_round_trip(self, kronecker):
        rng = random.Random(1)
        m = random_representation(kronecker, {"1": 2, "2": 2}, rng)
        again = parse_representation(representation_to_text(m), kronecker)
        assert again == m

    def test_load_with_quiver_header(self, tmp_path):
        (tmp_path / "a2.quiver").write_text("vertices 1 2\narrow a 1 2\n")
        rep = tmp_path / "brick.rep"
        rep.write_text("quiver a2.quiver\ndims 1=1 2=1\nmap a 1\n")
        m = load_representation(rep)
        assert m.dims == {"1": 1, "2": 1}
        assert is_brick(m)

    def test_shape_validation(self, a2):
        with pytest.raises(Exception):
            parse_representation("dims 1=1 2=1\nmap a 1 2\n", a2)
