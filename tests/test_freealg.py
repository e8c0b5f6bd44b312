import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quiverepi import freealg
from quiverepi.exactlin import GF, QQ
from quiverepi.freealg import (
    AlphabetMismatch,
    Certificate,
    CertTerm,
    FreeAlgebra,
    FreeMat,
    FreePoly,
    IdealGens,
    IdealSpan,
    LinearElimination,
    MembershipResult,
    PolyParseError,
    ShapeMismatch,
    _overlap_free_rules,
    _rewrite,
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

    def test_parse_round_trip(self):
        for field in (QQ, GF(101)):
            alg = FreeAlgebra(field, ["x", "y"])
            rng = random.Random(9)
            for _ in range(20):
                p = random_poly(alg, rng)
                assert alg.parse(p.to_text()) == p

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


def reference_parse(algebra, text):
    """The character-by-character state machine that FreeAlgebra.parse
    replaced, kept as the reference for its accepted language, its result
    and its exception types."""
    pos = 0
    n = len(text)
    acc = algebra.zero()
    sign_pending = 1
    expect_term = True

    def skip_ws(i):
        while i < n and text[i].isspace():
            i += 1
        return i

    pos = skip_ws(pos)
    if pos == n:
        raise PolyParseError("empty polynomial text")
    while pos < n:
        pos = skip_ws(pos)
        if pos >= n:
            break
        ch = text[pos]
        if ch in "+-":
            if expect_term and ch == "-":
                sign_pending = -sign_pending
                pos += 1
                continue
            if expect_term:
                pos += 1
                continue
            sign_pending = 1 if ch == "+" else -1
            expect_term = True
            pos += 1
            continue
        if not expect_term:
            raise PolyParseError(f"unexpected {ch!r} at position {pos}")
        coeff = None
        m = re.match(r"\d+(?:/\d+)?", text[pos:])
        if m:
            try:
                coeff = algebra.field.coerce(m.group(0))
            except ZeroDivisionError:
                raise PolyParseError(f"zero denominator in {m.group(0)!r}") from None
            pos += m.end()
            pos = skip_ws(pos)
            if pos < n and text[pos] == "*":
                pos += 1
                pos = skip_ws(pos)
            else:
                f = algebra.field
                acc = acc + algebra.scalar(f.mul(coeff, f.coerce(sign_pending)))
                sign_pending = 1
                expect_term = False
                continue
        word = []
        while True:
            m = freealg._LETTER_RE.match(text, pos)
            if not m:
                raise PolyParseError(f"expected a letter at position {pos}")
            name = m.group(0)
            algebra._check_word((name,))
            word.append(name)
            pos = m.end()
            pos = skip_ws(pos)
            if pos < n and text[pos] == ".":
                pos += 1
                pos = skip_ws(pos)
                continue
            break
        c = algebra.field.one() if coeff is None else coeff
        c = algebra.field.mul(c, algebra.field.coerce(sign_pending))
        acc = acc + algebra.monomial(tuple(word), c)
        sign_pending = 1
        expect_term = False
    if expect_term:
        raise PolyParseError("dangling sign at end of polynomial")
    return acc


def parse_outcome(parse, text):
    """The parsed terms, or the type of the exception parse raised."""
    try:
        return parse(text).terms
    except Exception as exc:
        return type(exc)


# Pieces of polynomial text: signs, unusual whitespace, digits (Unicode
# ones too), zero denominators in QQ and GF(101), `*`, `.`, letters of the
# alphabet and letters outside it.
PARSE_PIECES = ["+", "-", "--", " ", "\t", "\n", "\u00a0", "\u2003", "0", "1", "2", "12",
                "101", "3/2", "1/0", "1/101", "0/5", "\u0663", "\u0661/\u0662", "/", "*", ".",
                "x", "y", "x1", "x[a]_1", "_", "q", "X", "2*x", "x.y", "1a"]


class TestParseAgainstReference:
    """FreeAlgebra.parse agrees with the state machine it replaced: the
    same terms, or an exception of the same type."""

    @settings(max_examples=1500, deadline=None)
    @given(field=st.sampled_from([QQ, GF(101)]),
           text=st.one_of(st.lists(st.sampled_from(PARSE_PIECES), max_size=9).map("".join),
                          st.text(alphabet="+- \t*./0123456789xyq_[]\u0663", max_size=14)))
    def test_matches_the_reference(self, field, text):
        alg = FreeAlgebra(field, ["x", "y", "x1", "x[a]_1", "_"])
        assert parse_outcome(alg.parse, text) == parse_outcome(
            lambda t: reference_parse(alg, t), text)

    @pytest.mark.parametrize("text, pos", [("", 0), ("  ", 0), ("x +", 2), ("-", 0),
                                           ("2 x", 2), ("x y", 2), ("2*", 1), ("*x", 0),
                                           ("x.", 1), ("3/ 2", 1), ("2*3", 1), ("x*y", 1)])
    def test_malformed_text_names_position_and_rest(self, xy, text, pos):
        with pytest.raises(PolyParseError) as err:
            xy.parse(text)
        assert str(err.value) == f"cannot parse {text[pos:]!r} at position {pos}"


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

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_product_is_the_entrywise_sum(self, data):
        """*, +, binary and unary - and scale agree with entrywise FreePoly
        arithmetic on dense grids, and every result holds only nonzero
        entries, in range and in row-major order."""
        field = data.draw(st.sampled_from([QQ, GF(7)]))
        alg = FreeAlgebra(field, ["x", "y", "z"])
        entry = st.dictionaries(SPAN_WORDS, st.integers(-2, 2), max_size=3).map(alg.poly)
        n, k, m = (data.draw(st.integers(0, 3)) for _ in range(3))

        def grid(rows, cols):
            return [[data.draw(entry) for _ in range(cols)] for _ in range(rows)]

        ga, ga2, gb, p = grid(n, k), grid(n, k), grid(k, m), data.draw(entry)
        a, a2, b = FreeMat(alg, ga, cols=k), FreeMat(alg, ga2, cols=k), FreeMat(alg, gb, cols=m)
        cases = [
            (a * b, [[sum((ga[i][t] * gb[t][j] for t in range(k)), alg.zero())
                      for j in range(m)] for i in range(n)], m),
            (a + a2, [[x + y for x, y in zip(r, r2)] for r, r2 in zip(ga, ga2)], k),
            (a - a2, [[x - y for x, y in zip(r, r2)] for r, r2 in zip(ga, ga2)], k),
            (-a, [[-x for x in r] for r in ga], k),
            (a.scale(p), [[p * x for x in r] for r in ga], k),
        ]
        for got, want, cols in cases:
            assert got == FreeMat(alg, want, cols=cols)
            assert (got.rows, got.cols) == (n, cols)
            assert not any(q.is_zero() for q in got.nonzero.values())
            keys = list(got.nonzero)
            assert keys == sorted(keys)
            assert all(0 <= i < n and 0 <= j < cols for i, j in keys)
            assert FreeMat(alg, got.entries, cols=got.cols) == got

    def test_substitution_into_matrices(self, xy):
        from quiverepi.epibuild import _substitute_freemat
        from quiverepi.exactlin import ExactMatrix

        p = xy.letter("x") * xy.letter("y") + 1
        ax = ExactMatrix(QQ, [[0, 1], [0, 0]])
        ay = ExactMatrix(QQ, [[0, 0], [1, 0]])
        out = _substitute_freemat(FreeMat(xy, [[p]]), {"x": ax, "y": ay}, 2, QQ)
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
        # must not let a later bound-2 query borrow them, so it refuses it
        x, y = xy.letter("x"), xy.letter("y")
        g1 = y * x - 1
        g2 = x * y * x
        gens = IdealGens(xy, [g1, g2])
        span = IdealSpan(gens)
        r3 = span.memberships([x], 3)[0]
        assert r3.member
        assert r3.certificate.evaluate(gens) == x
        with pytest.raises(ValueError):
            span.memberships([x], 2)


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

    def test_later_pivot_is_reduced_out_of_earlier_rule(self):
        alg = FreeAlgebra(QQ, ["x", "y", "z"])
        x, y, z = (alg.letter(n) for n in "xyz")
        gens = IdealGens(alg, [z - y, y - x])
        elim = LinearElimination(gens)
        # z - y, then y - x: the rule of z holds no later pivot y in its
        # tail, as z - x = g0 + g1
        assert elim.rules[("z",)] == ({("x",): 1}, {((), 0, ()): 1, ((), 1, ()): 1})
        nf, combo = elim.normal_form((z * y).terms)
        assert nf == (x * x).terms
        assert combo == {((), 0, ("y",)): 1, ((), 1, ("y",)): 1, (("x",), 1, ()): 1}


class ReferenceElimination(LinearElimination):
    """LinearElimination with an interreducing rule builder, the reference
    that its reduced echelon rules are checked against: the generators of
    degree <= 1 reduced one by one in index order, each new pivot rewritten
    into the tails of the earlier rules, so no tail holds a pivot, and the
    rest in a second loop."""

    def __init__(self, gens):
        self.gens = gens
        algebra = gens.algebra
        f = algebra.field
        one = f.one()
        self.rules = {}
        residual = []  # (generator index, normal form, lift)

        def lift_of(gi, combo):
            lift = {k: f.neg(c) for k, c in combo.items()}
            freealg._add_term(f, lift, ((), gi, ()), one)
            return lift

        for gi, g in enumerate(gens.generators):
            if g.degree() > 1:
                continue
            terms, combo = self.normal_form(g.terms)
            if not terms:
                continue
            lift = lift_of(gi, combo)
            lead = max(terms, key=algebra.monomial_key)
            if not lead:
                residual.append((gi, terms, lift))
                continue
            tail, rule_combo = freealg._rule(f, terms, lead, lift)
            for earlier_tail, earlier_combo in self.rules.values():
                c = earlier_tail.pop(lead, None)
                if c is not None:
                    for w, tc in tail.items():
                        freealg._add_term(f, earlier_tail, w, f.mul(c, tc))
                    freealg._shift_add(f, earlier_combo, rule_combo, (), (), c)
            self.rules[lead] = (tail, rule_combo)
        for gi, g in enumerate(gens.generators):
            if g.degree() > 1:
                terms, combo = self.normal_form(g.terms)
                if terms:
                    residual.append((gi, terms, lift_of(gi, combo)))
        residual.sort(key=lambda item: item[0])
        self.algebra = FreeAlgebra(f, [x for x in algebra.letters if (x,) not in self.rules])
        self.residual = IdealGens(self.algebra, [FreePoly(self.algebra, terms)
                                                 for _, terms, _ in residual])
        self.weights = [gens.generators[gi].degree() for gi, _, _ in residual]
        self._lifts = [lift for _, _, lift in residual]


class TestEchelonElimination:
    """LinearElimination's rules, read from the reduced echelon of the
    pivot generators, are the interreducing reference's, and so are its
    normal forms, combinations, residual generators, weights, lifts and
    letters."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_interreducing_reference(self, data):
        field = data.draw(st.sampled_from([QQ, GF(101)]))
        alg = FreeAlgebra(field, ["x", "y", "z"])
        gens = IdealGens(alg, data.draw(mixed_generators(alg)))
        got, want = LinearElimination(gens), ReferenceElimination(gens)
        assert got.rules == want.rules
        assert got.algebra.letters == want.algebra.letters
        assert ([g.terms for g in got.residual.generators]
                == [g.terms for g in want.residual.generators])
        assert got.weights == want.weights
        assert got._lifts == want._lifts
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        for p in [*(random_poly(alg, rng, 3, 5) for _ in range(3)), *gens.generators]:
            assert got.normal_form(p.terms) == want.normal_form(p.terms)


def reference_normal_form(elim, terms):
    """A reference for LinearElimination.normal_form: a stack loop that pops
    pending terms last in, first out, rewrites each word at its leftmost
    pivot and never merges equal words."""
    f = elim.gens.algebra.field
    nf, combo = {}, {}
    pending = list(terms.items())
    while pending:
        w, c = pending.pop()
        k = next((k for k, x in enumerate(w) if (x,) in elim.rules), None)
        if k is None:
            freealg._add_term(f, nf, w, c)
            continue
        left, right = w[:k], w[k + 1:]
        tail, rule_combo = elim.rules[w[k:k + 1]]
        # c*w = c*left*tail*right + c*left*(pivot - tail)*right
        for t, tc in tail.items():
            pending.append((left + t + right, f.mul(c, tc)))
        for (wl, gi, wr), rc in rule_combo.items():
            freealg._add_term(f, combo, (left + wl, gi, wr + right), f.mul(c, rc))
    return nf, combo


class TestOneRewritingLoop:
    """LinearElimination.normal_form and the overlap-free residual rules go
    through the one rewriting loop _rewrite."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_linear_normal_form_matches_stack_loop(self, data):
        field = data.draw(st.sampled_from([QQ, GF(101)]))
        alg = FreeAlgebra(field, ["x", "y", "z"])
        elim = LinearElimination(IdealGens(alg, data.draw(mixed_generators(alg))))
        polys = [random_poly(alg, random.Random(data.draw(st.integers(0, 10**6))), 3, 5)
                 for _ in range(3)]
        for p in [*polys, *elim.gens.generators]:
            nf, combo = elim.normal_form(p.terms)
            assert (nf, combo) == reference_normal_form(elim, p.terms)
            assert FreePoly(alg, nf) + freealg._certificate(combo).evaluate(elim.gens) == p

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_overlap_free_rewriting_keeps_the_sum(self, data):
        field = data.draw(st.sampled_from([QQ, GF(7)]))
        alg = FreeAlgebra(field, ["x", "y", "z"][:data.draw(st.integers(2, 3))])
        gens = IdealGens(alg, data.draw(residual_generators(alg))[0])
        rules = _overlap_free_rules(gens)
        assume(rules is not None)
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        for p in [random_poly(alg, rng, 4, 5) for _ in range(3)]:
            nf, combo = _rewrite(alg, rules, p.terms)
            assert FreePoly(alg, nf) + freealg._certificate(combo).evaluate(gens) == p
            # nf is in normal form: no word of it holds a leading word
            assert not any(w[k:k + len(lead)] == lead
                           for w in nf for lead in rules for k in range(len(w)))


def plain_decide(gens, targets, degree_bound):
    """decide_memberships without the overlap-free step: every normal form
    goes to the residual span."""
    elimination = LinearElimination(gens)
    forms = [elimination.normal_form(t.terms) for t in targets]
    span = IdealSpan(elimination.residual, elimination.weights)
    found = span.memberships([FreePoly(elimination.algebra, nf) for nf, _ in forms],
                             degree_bound)
    results = []
    for target, (_, combo), res in zip(targets, forms, found):
        degree = max(target.degree(), res.searched_degree)
        if res.member and degree <= degree_bound:
            results.append(MembershipResult.found(elimination.lift(res.certificate, combo),
                                                  degree))
        else:
            results.append(MembershipResult.not_found(degree_bound))
    return results


@st.composite
def residual_generators(draw, algebra):
    """1-3 generators of degree 1-3, each with a weight at least its degree:
    a leading word plus up to two words of lower degree."""
    letters = st.sampled_from(algebra.letters)
    coeffs = st.sampled_from([1, -1, 2, 3])
    gens, weights = [], []
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(1, 3))
        terms = {tuple(draw(st.lists(letters, min_size=degree, max_size=degree))):
                 draw(coeffs)}
        for _ in range(draw(st.integers(0, 2))):
            low = draw(st.integers(0, degree - 1))
            terms[tuple(draw(st.lists(letters, min_size=low, max_size=low)))] = draw(coeffs)
        g = algebra.poly(terms)
        assume(not g.is_zero())
        gens.append(g)
        weights.append(g.degree() + draw(st.integers(0, 1)))
    return gens, weights


class TestOverlapFreeShortcut:
    """Targets whose normal form an overlap-free residual basis leaves
    nonzero are settled as not found without a span search; everything
    else is decided as before."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_settled_targets_are_never_found(self, data):
        field = data.draw(st.sampled_from([QQ, GF(7)]))
        alg = FreeAlgebra(field, ["x", "y", "z"][:data.draw(st.integers(2, 3))])
        gen_list, weights = data.draw(residual_generators(alg))
        gens = IdealGens(alg, gen_list)
        targets = []
        for _ in range(3):
            g = data.draw(st.sampled_from(gen_list))
            wl, wr = (tuple(data.draw(st.lists(st.sampled_from(alg.letters), max_size=1)))
                      for _ in range(2))
            target = alg.monomial(wl) * g * alg.monomial(wr)
            if data.draw(st.booleans()):
                stray = data.draw(st.lists(st.sampled_from(alg.letters), max_size=2))
                target = target + alg.monomial(tuple(stray), data.draw(st.sampled_from([1, -1])))
            targets.append(target)
        rules = _overlap_free_rules(gens)
        if rules is not None:
            plain = IdealSpan(gens)
            weighted = IdealSpan(gens, weights)
            for t in targets:
                if _rewrite(alg, rules, t.terms)[0]:
                    # a proven non-member: no degree finds it, weighted or not
                    assert not plain.memberships([t], 4)[0].member
                    assert not weighted.memberships([t], 4)[0].member
        bound = data.draw(st.integers(0, 4))
        got = decide_memberships(gens, targets, bound)
        want = plain_decide(gens, targets, bound)
        for target, res, ref in zip(targets, got, want):
            assert (res.member, res.searched_degree) == (ref.member, ref.searched_degree)
            if res.member:
                assert res.certificate.terms == ref.certificate.terms
                assert res.certificate.evaluate(gens) == target

    def test_self_overlap_refuses_the_shortcut(self, xy):
        x, y = xy.letter("x"), xy.letter("y")
        # the lead x.x overlaps itself; x*(x.x - y) - (x.x - y)*x = y.x - x.y
        gens = IdealGens(xy, [x * x - y])
        assert _overlap_free_rules(gens) is None
        target = x * y - y * x
        res = decide_memberships(gens, [target], 3)[0]
        assert res.member and res.searched_degree == 3
        assert res.certificate.evaluate(gens) == target

    def test_overlap_free_rules_and_normal_form(self, xy):
        x, y = xy.letter("x"), xy.letter("y")
        gens = IdealGens(xy, [(x * y).scale(2) - x])
        rules = _overlap_free_rules(gens)
        assert rules == {("x", "y"): ({("x",): Fraction(1, 2)}, {((), 0, ()): Fraction(1, 2)})}
        # x.y.y -> 1/2 x.y -> 1/4 x
        assert _rewrite(xy, rules, (x * y * y).terms)[0] == {("x",): Fraction(1, 4)}
        assert _rewrite(xy, rules, (x * y - x.scale(Fraction(1, 2))).terms)[0] == {}

    def test_settled_targets_build_no_span(self, xy, monkeypatch):
        x, y = xy.letter("x"), xy.letter("y")
        gens = IdealGens(xy, [x * y - x])

        def no_span(*args):
            raise AssertionError("span built although every target was settled")

        monkeypatch.setattr(freealg, "IdealSpan", no_span)
        results = decide_memberships(gens, [y * x, x * x + y], 6)
        assert [(r.member, r.searched_degree) for r in results] == [(False, 6), (False, 6)]

    @pytest.mark.parametrize("gen_texts, member", [
        # the lead x.y lies inside x.x.y.y: x.x.y.y -> x.y.y -> y.y
        (["x.y - y", "x.x.y.y - x"], "y.y - x"),
        # the lead x (a residual of degree 1) lies inside x.x.y
        (["x.x.y - y", "x"], "y"),
        # two equal leads
        (["x.y - x", "x.y - y"], "x - y"),
        # x.y and y.x overlap both ways: x.y.x -> y.x -> x and x.y.x -> x.x
        (["x.y - y", "y.x - x"], "x.x - x"),
    ])
    def test_ambiguous_leads_refuse_the_shortcut(self, xy, gen_texts, member):
        gens = IdealGens(xy, [xy.parse(t) for t in gen_texts])
        assert _overlap_free_rules(gens) is None
        targets = [xy.parse(member), xy.parse("x.y - y.x"), xy.parse("x.x.y")]
        got = decide_memberships(gens, targets, 4)
        assert got[0].member
        assert got[0].certificate.evaluate(gens) == targets[0]
        want = plain_decide(gens, targets, 4)
        assert ([(r.member, r.searched_degree) for r in got]
                == [(r.member, r.searched_degree) for r in want])

    def test_rewriting_certificate_can_exceed_the_span_degree(self):
        # the residual rules prove w.y.x a member, but through a product of
        # higher weighted degree than the certificate the span finds
        alg = FreeAlgebra(QQ, ["x", "y", "z", "w"])
        gens = IdealGens(alg, [alg.parse(t) for t in ["2*z", "-y.y.z + 2*w", "y.x"]])
        target = alg.parse("w.y.x")
        res = decide_memberships(gens, [target], 5)[0]
        assert res.member and res.searched_degree == 3
        assert res.certificate.max_degree(gens) <= 3
        assert res.certificate.evaluate(gens) == target
        elim = LinearElimination(gens)
        assert [g.to_text() for g in elim.residual.generators] == ["2*w", "y.x"]
        residual_nf = elim.normal_form(target.terms)[0]
        nf, combo = _rewrite(elim.algebra, _overlap_free_rules(elim.residual), residual_nf)
        assert nf == {}
        assert combo == {((), 0, ("y", "x")): Fraction(1, 2)}
        assert max(len(wl) + elim.weights[gi] + len(wr) for wl, gi, wr in combo) == 5

    def test_constant_residual_generator(self, xy):
        x, y = xy.letter("x"), xy.letter("y")
        # x - y - 1 reduces to the constant -1 after the pivot row y - x
        gens = IdealGens(xy, [y - x, y - x - 1])
        elim = LinearElimination(gens)
        assert [g.to_text() for g in elim.residual.generators] == ["-1"]
        assert _overlap_free_rules(elim.residual) is None
        # 1 is in the ideal at weight 1, so x.x = x * 1 * x at degree 3
        target = x * x
        assert not decide_memberships(gens, [target], 2)[0].member
        res = decide_memberships(gens, [target], 3)[0]
        assert res.member and res.searched_degree == 3
        assert res.certificate.evaluate(gens) == target

    def test_empty_residual(self, xy):
        x, y = xy.letter("x"), xy.letter("y")
        gens = IdealGens(xy, [x - y])
        elim = LinearElimination(gens)
        assert elim.residual.generators == ()
        assert _overlap_free_rules(elim.residual) == {}
        results = decide_memberships(gens, [x, x * y - x * x, x * y], 3)
        assert [(r.member, r.searched_degree) for r in results] == [
            (False, 3), (True, 2), (False, 3)]
        assert results[1].certificate.evaluate(gens) == x * y - x * x
