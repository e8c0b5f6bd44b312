import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quiverepi.exactlin import GF, QQ
from quiverepi.freealg import (
    AlphabetMismatch,
    Certificate,
    CertTerm,
    FreeAlgebra,
    FreeMat,
    IdealGens,
    IdealSpan,
    LinearElimination,
    PolyParseError,
    ShapeMismatch,
    decide_memberships,
)


@pytest.fixture
def xy():
    return FreeAlgebra(QQ, ["x", "y"])


@pytest.fixture
def vxy():
    return FreeAlgebra(QQ, ["x", "v1_2", "v2_1"])


def random_poly(algebra, rng, max_deg=2, max_terms=3):
    terms = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        d = rng.randrange(0, max_deg + 1)
        word = tuple(rng.choice(algebra.letters) for _ in range(d))
        terms[word] = terms.get(word, 0) + rng.randrange(-2, 3)
    return algebra.poly(terms)


class TestPolyArithmetic:
    def test_noncommutative(self, xy):
        x, y = xy.letter("x"), xy.letter("y")
        assert x * y != y * x

    def test_difference_of_squares(self, xy):
        x = xy.letter("x")
        assert (x + 1) * (x - 1) == x * x - 1

    def test_cancellation(self, xy):
        rng = random.Random(0)
        for _ in range(10):
            p = random_poly(xy, rng)
            assert (p + p.scale(-1)).is_zero()

    def test_associativity_distributivity(self, xy):
        rng = random.Random(42)
        for _ in range(25):
            a, b, c = (random_poly(xy, rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c

    def test_alphabet_mismatch(self, xy):
        other = FreeAlgebra(QQ, ["z"])
        with pytest.raises(AlphabetMismatch):
            xy.letter("x") + other.letter("z")

    def test_degree(self, xy):
        assert xy.zero().degree() == -1
        assert xy.one().degree() == 0
        assert (xy.letter("x") * xy.letter("y")).degree() == 2

    def test_scalar_ops_prime_field(self):
        alg = FreeAlgebra(GF(5), ["x"])
        x = alg.letter("x")
        assert x.scale(7) == x.scale(2)
        assert (x + x + x + x + x).is_zero()


class TestPolyText:
    def test_canonical_form(self, xy):
        x, y = xy.letter("x"), xy.letter("y")
        p = x * y.scale(Fraction(3, 2)) + xy.letter("x") - 1
        assert p.to_text() == "3/2*x.y + x - 1"

    def test_parse_round_trip(self, xy):
        rng = random.Random(9)
        for _ in range(20):
            p = random_poly(xy, rng)
            assert xy.parse(p.to_text()) == p

    def test_parse_examples(self, vxy):
        p = vxy.parse("3/2*x.x.v1_2 + v1_2 - v2_1")
        assert p.terms[("x", "x", "v1_2")] == Fraction(3, 2)
        assert p.terms[("v2_1",)] == -1

    def test_parse_rejects_unknown_letter(self, xy):
        with pytest.raises(AlphabetMismatch):
            xy.parse("x + q")

    def test_parse_rejects_garbage(self, xy):
        with pytest.raises(PolyParseError):
            xy.parse("x + ")
        with pytest.raises(PolyParseError):
            xy.parse("")
        with pytest.raises(PolyParseError):
            xy.parse("1/0*x")
        with pytest.raises(PolyParseError):
            FreeAlgebra(GF(101), ["x"]).parse("x + 1/101")


class TestFreeMat:
    def test_matrix_units(self, xy):
        e21 = FreeMat.unit(xy, 2, 1, 0)
        e11 = FreeMat.unit(xy, 2, 0, 0)
        assert e21 * e11 == e21
        assert e11 * e21 == FreeMat.zeros(xy, 2, 2)

    def test_scaled_units(self, xy):
        x, y = xy.letter("x"), xy.letter("y")
        e21 = FreeMat.unit(xy, 2, 1, 0)
        e11 = FreeMat.unit(xy, 2, 0, 0)
        prod = e21.scale(x) * e11.scale(y)
        assert prod == e21.scale(x * y)

    def test_shape_mismatch(self, xy):
        with pytest.raises(ShapeMismatch):
            FreeMat.zeros(xy, 2, 3) * FreeMat.zeros(xy, 2, 2)

    def test_substitution_into_matrices(self, xy):
        from quiverepi.exactlin import ExactMatrix

        p = xy.letter("x") * xy.letter("y") + 1
        ax = ExactMatrix(QQ, [[0, 1], [0, 0]])
        ay = ExactMatrix(QQ, [[0, 0], [1, 0]])
        out = p.substitute_matrices({"x": ax, "y": ay}, 2, QQ)
        assert out == ExactMatrix(QQ, [[2, 0], [0, 1]])


class TestMembership:
    def test_generator_itself(self, vxy):
        gens = IdealGens(vxy, [vxy.letter("v1_2")])
        res = decide_memberships(gens, [vxy.letter("v1_2")], 1)[0]
        assert res.member
        assert res.certificate.evaluate(gens) == vxy.letter("v1_2")

    def test_sandwiched_generator(self, vxy):
        gens = IdealGens(vxy, [vxy.letter("v1_2")])
        x = vxy.letter("x")
        target = x * vxy.letter("v1_2") * x
        res = decide_memberships(gens, [target], 3)[0]
        assert res.member
        assert res.certificate.evaluate(gens) == target

    def test_honest_not_found(self, vxy):
        # every element of <v1_2> has all monomials containing v1_2
        gens = IdealGens(vxy, [vxy.letter("v1_2")])
        for bound in range(1, 7):
            res = decide_memberships(gens, [vxy.letter("v2_1")], bound)[0]
            assert not res.member
            assert res.searched_degree == bound

    def test_zero_is_member(self, vxy):
        gens = IdealGens(vxy, [vxy.letter("v1_2")])
        res = decide_memberships(gens, [vxy.zero()], 0)[0]
        assert res.member
        assert res.certificate.evaluate(gens).is_zero()

    def test_certificate_evaluate_against_products(self, xy):
        """Certificate.evaluate equals the term-by-term sum of
        coeff * left * gen * right, cancelling terms included, and rejects a
        letter outside the generators' alphabet."""
        x, y = xy.letter("x"), xy.letter("y")
        gens = IdealGens(xy, [x * y - y, x + Fraction(1, 2)])
        terms = [CertTerm(Fraction(2), ("x",), 0, ()), CertTerm(Fraction(-2), (), 0, ("x",)),
                 CertTerm(Fraction(1, 3), ("y", "x"), 1, ("y",)),
                 CertTerm(Fraction(-1, 3), ("y", "x"), 1, ("y",))]
        want = xy.zero()
        for t in terms:
            want = want + (xy.monomial(t.left) * gens.generators[t.gen_index]
                           * xy.monomial(t.right)).scale(t.coeff)
        g = gens.generators[0]
        assert Certificate(terms).evaluate(gens) == want == 2 * (x * g - g * x)
        for bad in (CertTerm(Fraction(1), ("z",), 0, ()), CertTerm(Fraction(1), (), 1, ("z",))):
            with pytest.raises(AlphabetMismatch):
                Certificate([bad]).evaluate(gens)

    def test_target_above_bound_not_found(self, vxy):
        gens = IdealGens(vxy, [vxy.letter("v1_2")])
        target = vxy.letter("x") * vxy.letter("v1_2")
        res = decide_memberships(gens, [target], 1)[0]
        assert not res.member
        assert res.searched_degree == 1

    def test_monotonicity(self, xy):
        # x y x - x in <y x - 1>? x(yx - 1) = xyx - x: member from degree 3 on
        g = xy.letter("y") * xy.letter("x") - 1
        gens = IdealGens(xy, [g])
        target = xy.letter("x") * xy.letter("y") * xy.letter("x") - xy.letter("x")
        assert decide_memberships(gens, [target], 3)[0].member
        for bound in range(3, 7):
            res = decide_memberships(gens, [target], bound)[0]
            assert res.member
            assert res.certificate.evaluate(gens) == target

    def test_cancellation_needs_higher_degree(self, xy):
        # commutator ideal: x y - y x; x y ∈ I would require y x too
        g = xy.letter("x") * xy.letter("y") - xy.letter("y") * xy.letter("x")
        gens = IdealGens(xy, [g])
        assert not decide_memberships(gens, [xy.letter("x") * xy.letter("y")], 4)[0].member
        diff = xy.letter("x") * xy.letter("y") - xy.letter("y") * xy.letter("x")
        res = decide_memberships(gens, [diff], 2)[0]
        assert res.member

    def test_certificates_reevaluate_random(self, xy):
        rng = random.Random(31)
        for _ in range(20):
            gen_polys = [p for p in (random_poly(xy, rng) for _ in range(2)) if not p.is_zero()]
            if not gen_polys:
                continue
            gens = IdealGens(xy, gen_polys)
            # build a target known to lie in the ideal
            left = random_poly(xy, rng, max_deg=1)
            right = random_poly(xy, rng, max_deg=1)
            target = left * gen_polys[0] * right
            bound = max(target.degree(), 0) + 1
            res = decide_memberships(gens, [target], bound)[0]
            if res.member:
                assert res.certificate.evaluate(gens) == target

    def test_deterministic_certificates(self, vxy):
        gens = IdealGens(vxy, [vxy.letter("v1_2") - 1, vxy.letter("x") * vxy.letter("v1_2")])
        target = vxy.letter("x")
        r1 = decide_memberships(gens, [target], 3)[0]
        r2 = decide_memberships(gens, [target], 3)[0]
        assert r1.member and r2.member
        assert r1.certificate.terms == r2.certificate.terms

    def test_rejects_zero_generator(self, xy):
        with pytest.raises(ValueError):
            IdealGens(xy, [xy.zero()])

    def test_span_reuse_matches_one_shot(self, vxy):
        gens = IdealGens(vxy, [vxy.letter("v1_2")])
        span = IdealSpan(gens)
        t1 = vxy.letter("v1_2")
        t2 = vxy.letter("x") * vxy.letter("v1_2")
        assert span.memberships([t1], 2)[0].member
        assert span.memberships([t2], 2)[0].member
        assert not span.memberships([vxy.letter("v2_1")], 2)[0].member

    def test_batch_matches_fresh_memberships(self, xy):
        x, y = xy.letter("x"), xy.letter("y")
        gens = IdealGens(xy, [y * x - 1, x * y * x])
        targets = [x, y * x - 1, x * y, xy.zero(), x * y * x * y - x * y,
                   y * y * y * y]
        bound = 3
        batch = IdealSpan(gens).memberships(targets, bound)
        for target, res in zip(targets, batch):
            if target.degree() > bound:
                assert not res.member and res.searched_degree == bound
                continue
            fresh = IdealSpan(gens).memberships([target], bound)[0]
            assert (res.member, res.searched_degree) == (fresh.member, fresh.searched_degree)
            if res.member:
                assert res.certificate.terms == fresh.certificate.terms
                assert res.certificate.evaluate(gens) == target
        assert [r.member for r in batch] == [True, True, False, True, False, False]

    def test_overbuilt_span_stays_honest(self, xy):
        # x = xyx - x(yx - 1) needs degree-3 products; a span built to 3
        # must not let a later bound-2 query borrow them
        x, y = xy.letter("x"), xy.letter("y")
        g1 = y * x - 1
        g2 = x * y * x
        gens = IdealGens(xy, [g1, g2])
        span = IdealSpan(gens)
        r3 = span.memberships([x], 3)[0]
        assert r3.member
        assert r3.certificate.evaluate(gens) == x
        res = span.memberships([x], 2)[0]
        assert not res.member
        assert res.searched_degree == 2
        # a bounded re-query that does fit the smaller bound still succeeds
        again = span.memberships([g1], 2)[0]
        assert again.member
        assert again.certificate.max_degree(gens) <= 2


class ReferenceSpan(IdealSpan):
    """IdealSpan with a plainly written reduction, the reference that its
    rows and certificates are checked against."""

    def _reduce(self, terms, combo):
        f = self.algebra.field
        key = self.algebra.monomial_key
        while terms:
            lead = max(terms, key=key)
            row = self._rows.get(lead)
            if row is None:
                return lead, terms, combo
            c = terms[lead]
            row_terms, row_combo = row
            for w, rc in row_terms.items():
                s = f.sub(terms.get(w, f.zero()), f.mul(c, rc))
                if f.is_zero(s):
                    terms.pop(w, None)
                else:
                    terms[w] = s
            for k, rc in row_combo.items():
                s = f.sub(combo.get(k, f.zero()), f.mul(c, rc))
                if f.is_zero(s):
                    combo.pop(k, None)
                else:
                    combo[k] = s
        return None, terms, combo


SPAN_WORDS = st.lists(st.sampled_from("xyz"), min_size=0, max_size=2).map(tuple)
SPAN_COEFFS = st.sampled_from([1, -1, 2, Fraction(1, 3)])


@st.composite
def span_generators(draw, algebra):
    """1-4 generators, each a single word, a +-1 binomial or a binomial with
    non-unit coefficients."""
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["word", "unit binomial", "binomial"]))
        w1 = draw(SPAN_WORDS)
        if kind == "word":
            gens.append(algebra.monomial(w1, draw(SPAN_COEFFS)))
            continue
        w2 = draw(SPAN_WORDS.filter(lambda w: w != w1))
        if kind == "unit binomial":
            c1, c2 = 1, draw(st.sampled_from([1, -1]))
        else:
            c1, c2 = draw(SPAN_COEFFS), draw(SPAN_COEFFS)
        gens.append(algebra.poly({w1: c1, w2: c2}))
    return gens


class TestSpanReduction:
    """IdealSpan's rows and certificates equal those of the plain reference
    reduction of ReferenceSpan."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rows_and_certificates_match_plain_reduction(self, data):
        field = data.draw(st.sampled_from([QQ, GF(101)]))
        alg = FreeAlgebra(field, ["x", "y", "z"])
        gens = IdealGens(alg, data.draw(span_generators(alg)))
        degree = data.draw(st.integers(0, 3))
        span, ref = IdealSpan(gens), ReferenceSpan(gens)
        span.build_to(degree)
        ref.build_to(degree)
        assert list(span._rows.items()) == list(ref._rows.items())
        # sandwiched generators (members) plus stray words (mostly not)
        targets = []
        for _ in range(4):
            g = data.draw(st.sampled_from(gens.generators))
            wl, wr = data.draw(SPAN_WORDS), data.draw(SPAN_WORDS)
            target = alg.monomial(wl) * g * alg.monomial(wr)
            if data.draw(st.booleans()):
                target = target + alg.monomial(data.draw(SPAN_WORDS))
            targets.append(target)
        for target in targets:
            got, want = span.try_reduce_to_zero(target), ref.try_reduce_to_zero(target)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.terms == want.terms
                assert got.evaluate(gens) == target


LETTERS = st.sampled_from("xyz")


@st.composite
def mixed_generators(draw, algebra):
    """1-5 generators mixing linear forms, dependent linear forms, linear forms
    with a constant term, constants (the unit ideal), +-1 binomials and
    degree-3 polynomials with non-unit coefficients."""
    coeffs = [2, Fraction(1, 3)] if algebra.field == QQ else [2, 5]

    def letter():
        return algebra.letter(draw(LETTERS))

    def scalar():
        return draw(st.sampled_from([1, -1, *coeffs]))

    linear, gens = [], []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(
            ["linear", "dependent", "affine", "constant", "unit binomial", "cubic"]))
        if kind == "dependent" and linear:
            g = draw(st.sampled_from(linear)).scale(scalar()) + draw(st.sampled_from(linear))
        elif kind in ("linear", "dependent"):
            g = letter() + letter().scale(scalar())
            linear.append(g)
        elif kind == "affine":
            g = letter() + scalar()
        elif kind == "constant":
            g = algebra.scalar(scalar())
        elif kind == "unit binomial":
            w1, w2 = draw(SPAN_WORDS), draw(SPAN_WORDS)
            g = algebra.monomial(w1) + algebra.monomial(w2, draw(st.sampled_from([1, -1])))
        else:
            cube = draw(st.lists(LETTERS, min_size=3, max_size=3).map(tuple))
            g = (algebra.monomial(cube, draw(st.sampled_from(coeffs)))
                 + algebra.monomial(draw(SPAN_WORDS), draw(st.sampled_from(coeffs))))
        if not g.is_zero():
            gens.append(g)
    assume(gens)
    return gens


class TestLinearPreElimination:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_plain_span(self, data):
        field = data.draw(st.sampled_from([QQ, GF(101)]))
        alg = FreeAlgebra(field, ["x", "y", "z"])
        gens = IdealGens(alg, data.draw(mixed_generators(alg)))
        bound = data.draw(st.integers(0, 4))
        # sandwiched generators (members), with or without a stray word
        targets = []
        for _ in range(4):
            g = data.draw(st.sampled_from(gens.generators))
            wl, wr = data.draw(SPAN_WORDS), data.draw(SPAN_WORDS)
            target = alg.monomial(wl) * g * alg.monomial(wr)
            if data.draw(st.booleans()):
                target = target + alg.monomial(data.draw(SPAN_WORDS))
            targets.append(target)
        got = decide_memberships(gens, targets, bound)
        want = IdealSpan(gens).memberships(targets, bound)
        for target, res, ref in zip(targets, got, want):
            assert (res.member, res.searched_degree) == (ref.member, ref.searched_degree)
            if res.member:
                assert res.certificate.evaluate(gens) == target
                assert res.certificate.max_degree(gens) <= res.searched_degree

    def test_target_from_another_algebra(self, xy, vxy):
        gens = IdealGens(vxy, [vxy.letter("x") - vxy.letter("v1_2")])
        with pytest.raises(AlphabetMismatch):
            decide_memberships(gens, [xy.letter("x")], 1)[0]

    def test_zero_normal_form_still_needs_its_degree(self, xy):
        x, y = xy.letter("x"), xy.letter("y")
        gens = IdealGens(xy, [x - y])
        # x - y reduces to zero, but as a product it has degree 1
        res = decide_memberships(gens, [x - y], 0)[0]
        assert not res.member and res.searched_degree == 0
        res = decide_memberships(gens, [x - y], 1)[0]
        assert res.member and res.searched_degree == 1
        assert res.certificate.evaluate(gens) == x - y

    def test_rows_and_residual(self):
        alg = FreeAlgebra(QQ, ["x", "y", "z"])
        x, y, z = (alg.letter(n) for n in "xyz")
        # y - x is a row (pivot y); 2y - 2x reduces to zero and is dropped;
        # y - x - 1 reduces to the constant -1; y*z - x*z reduces to zero
        gens = IdealGens(alg, [y - x, (y - x).scale(2), y - x - 1, y * z - x * z, z * y * y])
        elim = LinearElimination(gens)
        assert elim.algebra.letters == ("x", "z")
        assert [g.to_text() for g in elim.residual.generators] == ["-1", "z.x.x"]
        assert elim.weights == [1, 3]
        nf, combo = elim.normal_form((x * y).terms)
        assert nf == (x * x).terms
        assert combo == {(("x",), 0, ()): 1}

    def test_new_pivot_is_rewritten_in_earlier_rows(self):
        alg = FreeAlgebra(QQ, ["x", "y", "z"])
        x, y, z = (alg.letter(n) for n in "xyz")
        gens = IdealGens(alg, [z - y, y - x])
        elim = LinearElimination(gens)
        # z - y, then y - x: the row of z becomes z - x = g0 + g1
        assert elim._rows["z"] == ({("z",): 1, ("x",): -1},
                                   {((), 0, ()): 1, ((), 1, ()): 1})
        nf, combo = elim.normal_form((z * y).terms)
        assert nf == (x * x).terms
        assert combo == {((), 0, ("y",)): 1, ((), 1, ("y",)): 1, (("x",), 1, ()): 1}
