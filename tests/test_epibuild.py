import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quiverepi import cli, epibuild, freealg
from quiverepi.exactlin import GF, QQ, ExactMatrix
from quiverepi.epibuild import (
    _substitute_freemat,
    _trial_dims,
    AlgebraHom,
    CertificateMismatch,
    DimensionTooSmall,
    EndpointMismatch,
    FullRank,
    InvalidHom,
    InvarianceFailure,
    LayoutMismatch,
    NotABrick,
    NotExceptional,
    PathMismatch,
    QuiverNotExtension,
    SizeMismatch,
    WrongProvenance,
    build_brick_hom,
    canonical_generic_hom,
    commutant_ideal_gens,
    convert_hom_field,
    extend_add_arrows,
    extend_invariant,
    factor_through_canonical,
    generation_identity_check,
    glue_vertex,
    glued_quiver,
    homs_equal_up_to_renaming,
    linear_relations_from_end,
    localisation_presentation,
    specialization_refutation_test,
    specialize,
    substitute_letters,
    verify_epimorphism,
)
from quiverepi.freealg import FreeAlgebra, FreeMat, IdealGens, IdealSpan, LinearElimination
from quiverepi.quiver import CycleError, Quiver, parse_quiver
from quiverepi.quiverrep import (
    Representation,
    ZeroModule,
    direct_sum,
    hom_basis,
    is_brick,
)


@pytest.fixture(scope="module")
def a2_brick(a2):
    return Representation(a2, {"1": 1, "2": 1}, {"a": [[1]]})


@pytest.fixture(scope="module")
def kron_extension_hom(a2_brick, kronecker):
    return extend_add_arrows(a2_brick, kronecker)


class TestBuildBrickHom:
    def test_a2_brick_blocks(self, a2_brick):
        h = build_brick_hom(a2_brick)
        alg = h.algebra
        assert h.size == 2
        assert alg.letters == ()
        assert h.idem_images["1"] == FreeMat.unit(alg, 2, 0, 0)
        assert h.idem_images["2"] == FreeMat.unit(alg, 2, 1, 1)
        assert h.arrow_images["a"] == FreeMat.unit(alg, 2, 1, 0)

    def test_simple_module(self, a2_modules):
        h = build_brick_hom(a2_modules["S1"])
        assert h.size == 1
        assert h.idem_images["1"] == FreeMat.identity(h.algebra, 1)
        assert h.idem_images["2"].is_zero()
        assert h.arrow_images["a"].is_zero()

    def test_non_brick_rejected(self, a2_modules):
        dbl = direct_sum(a2_modules["S1"], a2_modules["S1"])
        with pytest.raises(NotABrick):
            build_brick_hom(dbl)
        h = build_brick_hom(dbl, allow_non_brick=True)
        assert h.idem_images["1"] == FreeMat.identity(h.algebra, 2)
        assert h.idem_images["2"].is_zero()

    def test_zero_module(self, a2):
        with pytest.raises(ZeroModule):
            build_brick_hom(Representation(a2, {"1": 0, "2": 0}))

    def test_structural_invariants_enforced(self, a2_brick):
        h = build_brick_hom(a2_brick)
        bad_arrows = dict(h.arrow_images)
        bad_arrows["a"] = FreeMat.unit(h.algebra, 2, 0, 1)  # wrong block
        with pytest.raises(InvalidHom):
            AlgebraHom(h.source_quiver, h.algebra, h.size, h.idem_images, bad_arrows)


class TestExtendAddArrows:
    def test_kronecker_extension_blocks(self, kron_extension_hom):
        h = kron_extension_hom
        assert h.size == 2
        assert h.algebra.letters == ("x[b]_1_1",)
        x = h.algebra.letter("x[b]_1_1")
        assert h.arrow_images["b"] == FreeMat.unit(h.algebra, 2, 1, 0).scale(x)
        assert h.arrow_images["a"] == FreeMat.unit(h.algebra, 2, 1, 0)

    def test_degenerate_zero_block(self, a2_modules, kronecker):
        h = extend_add_arrows(a2_modules["S1"], kronecker)
        assert h.size == 1
        assert h.algebra.letters == ()
        assert h.arrow_images["b"].is_zero()

    def test_cycle_extension_rejected_at_parse(self):
        with pytest.raises(CycleError):
            parse_quiver("vertices 1 2\narrow a 1 2\narrow c 2 1\n")

    def test_not_an_extension(self, a2_brick, a3):
        with pytest.raises(QuiverNotExtension):
            extend_add_arrows(a2_brick, a3)

    def test_non_brick_rejected(self, a2_modules, kronecker):
        dbl = direct_sum(a2_modules["S1"], a2_modules["S1"])
        with pytest.raises(NotABrick):
            extend_add_arrows(dbl, kronecker)

    def test_self_extension_warns_but_still_epimorphism(self, kronecker):
        # a brick with self-extensions extends to a ring epimorphism that is
        # not a universal localisation; the construction warns and the
        # verification engines both accept it
        regular = Representation(kronecker, {"1": 1, "2": 1}, {"a": [[1]], "b": [[0]]})
        bigger = parse_quiver("vertices 1 2\narrow a 1 2\narrow b 1 2\narrow c 1 2\n")
        with pytest.warns(UserWarning, match="self-extensions"):
            h = extend_add_arrows(regular, bigger)
        assert h.algebra.letters == ("x[c]_1_1",)
        assert generation_identity_check(h)
        assert verify_epimorphism(h, 3).verdict == "Verified"
        assert specialization_refutation_test(h, trials=10, sizes=(1, 2), seed=4).passed

    def test_letter_count_formula(self, kron_preprojective, kronecker):
        bigger = parse_quiver("vertices 1 2\narrow a 1 2\narrow b 1 2\narrow c 1 2\n")
        h = extend_add_arrows(kron_preprojective, bigger)
        # new arrow c: alpha_s * alpha_t = 1 * 2 letters
        assert len(h.algebra.letters) == 2

    def test_two_letter_extension_block(self, kron_preprojective):
        bigger = parse_quiver("vertices 1 2\narrow a 1 2\narrow b 1 2\narrow c 1 2\n")
        h = extend_add_arrows(kron_preprojective, bigger)
        assert h.algebra.letters == ("x[c]_1_1", "x[c]_2_1")
        assert generation_identity_check(h)
        rep = verify_epimorphism(h, 3)
        assert rep.verdict == "Verified"
        assert specialization_refutation_test(h, trials=10, sizes=(1, 2), seed=9).passed

    def test_skip_vertex_arrow_extension(self, a3, a3_modules):
        a3e = parse_quiver("vertices 1 2 3\narrow a 1 2\narrow b 2 3\narrow c 1 3\n")
        h = extend_add_arrows(a3_modules["I123"], a3e)
        assert h.algebra.letters == ("x[c]_1_1",)
        assert generation_identity_check(h)
        assert verify_epimorphism(h, 3).verdict == "Verified"
        assert specialization_refutation_test(h, trials=10, sizes=(1, 2), seed=3).passed


class TestGenerationIdentity:
    def test_kronecker_extension_holds(self, kron_extension_hom):
        assert generation_identity_check(kron_extension_hom)

    def test_empty_alphabet_vacuous(self, a2_brick, a2):
        h = extend_add_arrows(a2_brick, a2)  # no new arrows
        assert h.algebra.letters == ()
        assert generation_identity_check(h)

    def test_corrupted_image_fails(self, kron_extension_hom):
        h = kron_extension_hom
        mutated = dict(h.arrow_images)
        mutated["b"] = FreeMat.zeros(h.algebra, 2, 2)
        corrupted = AlgebraHom(h.source_quiver, h.algebra, h.size,
                               h.idem_images, mutated,
                               letter_coords=h.letter_coords, provenance="extend")
        assert not generation_identity_check(corrupted)

    def test_wrong_provenance(self, a2_brick):
        h = build_brick_hom(a2_brick)
        with pytest.raises(WrongProvenance):
            generation_identity_check(h)

    def test_canonical_hom_satisfies_identity(self, kronecker):
        h = canonical_generic_hom(kronecker, {"1": 2, "2": 2})
        assert generation_identity_check(h)


class TestExtendInvariant:
    def test_case_i_matches_arrow_extension(self, kronecker, kron_extension_hom):
        m_prime = Representation(kronecker, {"1": 1, "2": 1}, {"a": [[1]], "b": [[0]]})
        h = extend_invariant(m_prime, "b", "i")
        assert h.algebra.letters == ("x21_1_1",)
        assert homs_equal_up_to_renaming(h, kron_extension_hom)

    def test_invariance_failure_fixture(self):
        q = parse_quiver("vertices 1 2\narrow a 1 2\narrow e 1 2\n")
        m_prime = Representation(q, {"1": 2, "2": 3}, {
            "a": [[1, 0], [0, 1], [0, 0]],
            "e": [[0, 0], [1, 0], [0, 1]],
        })
        with pytest.raises(InvarianceFailure) as exc:
            extend_invariant(m_prime, "e", "i")
        assert "image" in exc.value.subspace

    def test_full_rank_rejected(self, kronecker):
        m_prime = Representation(kronecker, {"1": 1, "2": 1}, {"a": [[1]], "b": [[2]]})
        with pytest.raises(FullRank):
            extend_invariant(m_prime, "b", "i")

    def test_non_brick_rejected(self, kronecker):
        m_prime = Representation(kronecker, {"1": 1, "2": 1})
        with pytest.raises(NotABrick):
            extend_invariant(m_prime, "b", "i")

    def test_degenerate_simple(self, a2):
        # S1 with the arrow's zero 0x1 matrix: empty blocks, valid hom
        m_prime = Representation(a2, {"1": 1, "2": 0})
        h = extend_invariant(m_prime, "a", "i")
        assert h.size == 1
        assert h.algebra.letters == ()

    def test_all_cases_on_rank_one_fixture(self):
        # e': 2 -> 3 with full image, one-dimensional kernel; the X11 block
        # is 1x1 and X21/X22 are empty, so cases i/iii coincide and ii/iv
        # add one letter
        q = parse_quiver("vertices 1 2 3\narrow a 1 2\narrow b 1 2\narrow e 2 3\n")
        m_prime = Representation(q, {"1": 1, "2": 2, "3": 1}, {
            "a": [[1], [0]],
            "b": [[0], [1]],
            "e": [[0, 1]],
        })
        assert hom_basis(m_prime, m_prime).dimension == 1
        for case, expected_letters in [
            ("i", ()),
            ("ii", ("x11_1_1",)),
            ("iii", ()),
            ("iv", ("x11_1_1",)),
        ]:
            h = extend_invariant(m_prime, "e", case)
            assert h.algebra.letters == expected_letters
            rep = verify_epimorphism(h, 3)
            assert rep.verdict == "Verified"

    def test_nontrivial_cokernel_block(self):
        # rank-1 e' with both kernel and cokernel nonzero: X21 is 1x1, and
        # the re-coordinatization permutes vertex 2's basis
        q = parse_quiver(
            "vertices 1 2 3\narrow a 1 2\narrow b 1 2\narrow c 1 3\narrow d 1 3\narrow e 2 3\n"
        )
        m_prime = Representation(q, {"1": 1, "2": 2, "3": 2}, {
            "a": [[1], [0]],
            "b": [[0], [1]],
            "c": [[1], [0]],
            "d": [[0], [1]],
            "e": [[1, 0], [0, 0]],
        })
        assert hom_basis(m_prime, m_prime).dimension == 1
        h = extend_invariant(m_prime, "e", "i")
        assert h.algebra.letters == ("x21_1_1",)
        rep = verify_epimorphism(h, 3)
        assert rep.verdict == "Verified"


class TestGlueVertex:
    def test_kronecker_preprojective(self, kron_preprojective):
        h = glue_vertex(kron_preprojective, "2")
        assert h.size == 4
        assert h.algebra.letters == ("x1",)
        col = [h.arrow_images["glue_e"].entry(i, 3) for i in range(4)]
        assert col[0].is_zero()
        assert col[1] == h.algebra.one()
        assert col[2] == h.algebra.letter("x1")
        assert col[3].is_zero()
        assert h.idem_images["glue_v"] == FreeMat.unit(h.algebra, 4, 3, 3)

    def test_dimension_too_small(self, a2_brick):
        with pytest.raises(DimensionTooSmall):
            glue_vertex(a2_brick, "2")

    def test_not_a_brick(self, a2_modules):
        dbl = direct_sum(a2_modules["S2"], a2_modules["S2"])
        with pytest.raises(NotABrick):
            glue_vertex(dbl, "2")

    def test_glued_hom_verifies(self, kron_preprojective):
        h = glue_vertex(kron_preprojective, "2")
        rep = verify_epimorphism(h, 3)
        assert rep.verdict == "Verified"
        assert rep.degree_used <= 3

    def test_glue_dimension_three_vertex(self, kronecker):
        # two gluing letters, 6x6 target
        pre23 = Representation(kronecker, {"1": 2, "2": 3}, {
            "a": [[1, 0], [0, 1], [0, 0]],
            "b": [[0, 0], [1, 0], [0, 1]],
        })
        h = glue_vertex(pre23, "2")
        assert h.size == 6
        assert h.algebra.letters == ("x1", "x2")
        rep = verify_epimorphism(h, 3)
        assert rep.verdict == "Verified"
        # the whole report (generators and certificates)
        text = json.dumps(rep.to_json_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "6309d649ff2e4917cf39d94a67639c96f5e142b7c6c9cc560304cd4289b0a85e")


class TestCanonicalAndFactor:
    def test_a2_canonical(self, a2):
        h = canonical_generic_hom(a2, {"1": 1, "2": 1})
        assert h.algebra.letters == ("x[a]_1_1",)
        x = h.algebra.letter("x[a]_1_1")
        assert h.arrow_images["a"] == FreeMat.unit(h.algebra, 2, 1, 0).scale(x)

    def test_kronecker_alphabet(self, kronecker):
        h = canonical_generic_hom(kronecker, {"1": 1, "2": 1})
        assert h.algebra.letters == ("x[a]_1_1", "x[b]_1_1")

    def test_zero_dims(self, a2):
        h = canonical_generic_hom(a2, {"1": 0, "2": 0})
        assert h.size == 0
        assert h.algebra.letters == ()

    def test_factor_reads_off_blocks(self, kron_extension_hom):
        sub = factor_through_canonical(kron_extension_hom)
        assert sub["x[a]_1_1"] == kron_extension_hom.algebra.one()
        assert sub["x[b]_1_1"] == kron_extension_hom.algebra.letter("x[b]_1_1")

    def test_factor_of_canonical_is_identity(self, kronecker):
        h = canonical_generic_hom(kronecker, {"1": 1, "2": 2})
        sub = factor_through_canonical(h)
        for name, val in sub.items():
            assert val == h.algebra.letter(name)

    def test_layout_mismatch(self, a2_brick):
        h = build_brick_hom(a2_brick)
        # conjugated idempotents are no longer standard blocks
        alg = h.algebra
        e1 = FreeMat(alg, [[1, 1], [0, 0]], cols=2)
        e2 = FreeMat(alg, [[0, -1], [0, 1]], cols=2)
        twisted = AlgebraHom(h.source_quiver, alg, 2, {"1": e1, "2": e2},
                             {"a": FreeMat.zeros(alg, 2, 2)})
        with pytest.raises(LayoutMismatch):
            factor_through_canonical(twisted)


class TestPresentation:
    def test_kronecker_from_sub_a2(self, kronecker, a2_brick, kron_extension_hom):
        h, gens = localisation_presentation(kronecker, {"a": ["a"]}, a2_brick)
        assert [g.to_text() for g in gens.generators] == ["x[a]_1_1 - 1"]
        substituted = substitute_letters(h, {"x[a]_1_1": 1})
        assert substituted == kron_extension_hom

    def test_identity_embedding_pins_all_letters(self, a2_brick, a2):
        h, gens = localisation_presentation(a2, {"a": ["a"]}, a2_brick)
        assert [g.to_text() for g in gens.generators] == ["x[a]_1_1 - 1"]
        pinned = substitute_letters(h, {"x[a]_1_1": 1})
        assert pinned == build_brick_hom(a2_brick)

    def test_empty_arrow_set(self, a2_modules):
        q0 = parse_quiver("vertices 1 2\n")
        m = Representation(q0, {"1": 1, "2": 0})
        h, gens = localisation_presentation(q0, {}, m)
        assert len(gens.generators) == 0

    def test_path_through_middle_vertex(self, a3, a3_modules):
        # Q: single arrow 1 -> 3 realized as the path a.b in A3
        q = parse_quiver("vertices 1 2 3\narrow c 1 3\n")
        m = Representation(q, {"1": 1, "2": 0, "3": 1}, {"c": [[1]]})
        h, gens = localisation_presentation(a3, {"c": ["a", "b"]}, m)
        # q(b)q(a) has the product of the two (empty-block) letters; with
        # alpha_2 = 0 the path image is zero, so the generator is -1 at the
        # (3,1) block... the whole entry reduces to the constant -1
        assert [g.to_text() for g in gens.generators] == ["-1"]

    def test_path_mismatch(self, kronecker, a2_brick):
        with pytest.raises(PathMismatch):
            localisation_presentation(kronecker, {"a": ["b", "a"]}, a2_brick)
        with pytest.raises(PathMismatch):
            localisation_presentation(kronecker, {}, a2_brick)

    def test_not_exceptional(self, kronecker):
        regular = Representation(kronecker, {"1": 1, "2": 1}, {"a": [[1]], "b": [[0]]})
        sub = parse_quiver("vertices 1 2\narrow a 1 2\n")
        big = parse_quiver("vertices 1 2\narrow a 1 2\narrow b 1 2\narrow c 1 2\n")
        with pytest.raises(NotExceptional):
            localisation_presentation(big, {"a": ["a"], "b": ["b"]}, regular)


class TestVerifyEpimorphism:
    def test_brick_verified_at_degree_one(self, a2_brick):
        rep = verify_epimorphism(build_brick_hom(a2_brick), 1)
        assert rep.verdict == "Verified"
        assert rep.degree_used == 1

    def test_kronecker_extension_verified(self, kron_extension_hom):
        rep = verify_epimorphism(kron_extension_hom, 3)
        assert rep.verdict == "Verified"
        assert rep.degree_used <= 3

    def test_non_brick_undetermined(self, a2_modules):
        dbl = direct_sum(a2_modules["S1"], a2_modules["S1"])
        h = build_brick_hom(dbl, allow_non_brick=True)
        rep = verify_epimorphism(h, 4)
        assert rep.verdict == "Undetermined"
        missing = [e for e in rep.elements if not e["member"]]
        assert any(e["element"] == "v12" for e in missing)

    def test_certificates_reevaluate(self, kron_extension_hom):
        combined, gens = commutant_ideal_gens(kron_extension_hom)
        rep = verify_epimorphism(kron_extension_hom, 3)
        from quiverepi.freealg import CertTerm, Certificate

        for element in rep.elements:
            assert element["member"]
            cert = Certificate([
                CertTerm(QQ.coerce(t["coeff"]),
                         tuple(t["left"].split(".")) if t["left"] else (),
                         t["gen"],
                         tuple(t["right"].split(".")) if t["right"] else ())
                for t in element["certificate"]
            ])
            assert cert.evaluate(gens) == combined.parse(element["poly"])

    @staticmethod
    def _stages_used(h, monkeypatch) -> tuple[bool, bool]:
        """Whether verify_epimorphism's certificates for h use linear rows,
        and whether they use nonempty residual-span certificates."""
        reductions, residual_certs = [], []

        class SpyRows(LinearElimination):
            def normal_form(self, terms):
                nf, combo = super().normal_form(terms)
                reductions.append(combo)
                return nf, combo

        class SpySpan(IdealSpan):
            def try_reduce_to_zero(self, target):
                cert = super().try_reduce_to_zero(target)
                if cert is not None and cert.terms:
                    residual_certs.append(cert)
                return cert

        with monkeypatch.context() as m:
            m.setattr(freealg, "LinearElimination", SpyRows)
            m.setattr(freealg, "IdealSpan", SpySpan)
            assert verify_epimorphism(h).verdict == "Verified"
        return any(reductions), bool(residual_certs)

    def _assert_never_verified(self, h, tmp_path):
        hom = tmp_path / "extend.hom.json"
        hom.write_text(json.dumps(h.to_json_dict()), encoding="utf-8")
        with pytest.raises(CertificateMismatch):
            verify_epimorphism(h)
        # an internal fault, not an input error: the CLI does not turn it into exit 2
        assert not issubclass(CertificateMismatch, cli.INPUT_ERRORS)
        with pytest.raises(CertificateMismatch):
            cli.main(["verify", str(hom)])

    def test_corrupted_span_is_never_verified(self, kron_extension_hom, monkeypatch, tmp_path):
        class CorruptSpan(IdealSpan):
            """Doubles every stored combination after each build."""

            def build_to(self, degree):
                super().build_to(degree)
                for _, combo in self._rows.values():
                    for k in combo:
                        combo[k] = combo[k] * 2

        # the corruption can only show if the certificates use the span's rows
        assert self._stages_used(kron_extension_hom, monkeypatch)[1]
        monkeypatch.setattr(freealg, "IdealSpan", CorruptSpan)
        self._assert_never_verified(kron_extension_hom, tmp_path)

    def test_corrupted_linear_rows_are_never_verified(self, kron_extension_hom, monkeypatch,
                                                      tmp_path):
        class CorruptRows(LinearElimination):
            """Doubles every linear row's combination once the rows are built."""

            def __init__(self, gens):
                super().__init__(gens)
                for _, combo in self._rows.values():
                    for k in combo:
                        combo[k] = combo[k] * 2

        assert self._stages_used(kron_extension_hom, monkeypatch)[0]
        monkeypatch.setattr(freealg, "LinearElimination", CorruptRows)
        self._assert_never_verified(kron_extension_hom, tmp_path)

    def test_tiny_bound_undetermined(self, kron_extension_hom):
        rep = verify_epimorphism(kron_extension_hom, 1)
        assert rep.verdict == "Undetermined"

    def test_cross_engine_soundness_on_non_epi(self, a2):
        # the unpinned generic hom on A2 is not an epimorphism: the ideal
        # criterion must never verify it, and specialization must refute it
        h = canonical_generic_hom(a2, {"1": 1, "2": 1})
        rep = verify_epimorphism(h, 3)
        assert rep.verdict == "Undetermined"
        out = specialization_refutation_test(h, trials=20, sizes=(1, 2), seed=0)
        assert not out.passed


class TestLinearRelations:
    def test_a2_brick_relations(self, a2_brick):
        rels = linear_relations_from_end(a2_brick)
        texts = {r.to_text() for r in rels}
        assert len(rels) == 3
        assert texts == {"v1_2", "v2_1", "v1_1 - v2_2"}

    def test_full_end_empty(self, a2_modules):
        dbl = direct_sum(a2_modules["S1"], a2_modules["S1"])
        assert linear_relations_from_end(dbl) == []

    def test_brick_count_and_membership(self, catalogue):
        for m in catalogue:
            n = m.total_dim()
            rels = linear_relations_from_end(m)
            assert len(rels) == n * n - 1
            combined, gens = commutant_ideal_gens(build_brick_hom(m))
            span = IdealSpan(gens)
            for r in rels:
                res = span.memberships([combined.embed(r)], 1)[0]
                assert res.member
                assert res.certificate.evaluate(gens) == combined.embed(r)


class TestSpecialize:
    def test_scalar_substitution(self, kron_extension_hom):
        rep = specialize(kron_extension_hom, {"x[b]_1_1": ExactMatrix(QQ, [[2]])})
        assert rep.dims == {"1": 1, "2": 1}
        assert rep.maps["a"] == ExactMatrix(QQ, [[1]])
        assert rep.maps["b"] == ExactMatrix(QQ, [[2]])

    def test_dimension_multiplies(self, kron_extension_hom):
        rep = specialize(kron_extension_hom, {"x[b]_1_1": ExactMatrix.identity(QQ, 2)})
        assert rep.dims == {"1": 2, "2": 2}

    def test_empty_alphabet_returns_original(self, a2_brick):
        h = build_brick_hom(a2_brick)
        rep = specialize(h, {})
        assert rep.dims == a2_brick.dims
        assert rep.maps["a"] == a2_brick.maps["a"]

    def test_size_mismatch(self, kron_extension_hom):
        with pytest.raises(SizeMismatch):
            specialize(kron_extension_hom, {"x[b]_1_1": ExactMatrix(QQ, [[1, 0]], cols=2)})
        with pytest.raises(SizeMismatch):
            specialize(kron_extension_hom, {})

    def test_twisted_layout_specializes_via_diagonalization(self, a2_brick):
        # conjugating a hom keeps it valid but breaks the standard layout;
        # specialization recovers coordinate blocks through the idempotent
        # diagonalizer
        h = build_brick_hom(a2_brick)
        alg = h.algebra
        t = FreeMat(alg, [[1, 1], [0, 1]], cols=2)
        t_inv = FreeMat(alg, [[1, -1], [0, 1]], cols=2)
        twisted = AlgebraHom(h.source_quiver, alg, 2,
                             {v: t * m * t_inv for v, m in h.idem_images.items()},
                             {a: t * m * t_inv for a, m in h.arrow_images.items()})
        with pytest.raises(LayoutMismatch):
            twisted.standard_dims()
        rep = specialize(twisted, {})
        assert rep.dims == {"1": 1, "2": 1}
        assert rep.maps["a"] == ExactMatrix(QQ, [[1]])
        assert hom_basis(rep, rep).dimension == 1

    def test_restriction_dimension_law(self, kron_preprojective):
        h = glue_vertex(kron_preprojective, "2")
        field = GF(101)
        hp = convert_hom_field(h, field)
        for ell in (1, 2, 3):
            rep = specialize(hp, {"x1": ExactMatrix.identity(field, ell)})
            assert rep.dims == {"1": ell, "2": 2 * ell, "glue_v": ell}

    def test_restriction_law_across_constructions(self, a2_brick, kronecker,
                                                  kron_preprojective, kron_extension_hom):
        rng = random.Random(6)
        field = GF(101)
        homs = [
            convert_hom_field(build_brick_hom(a2_brick), field),
            convert_hom_field(kron_extension_hom, field),
            convert_hom_field(canonical_generic_hom(kronecker, {"1": 1, "2": 2}), field),
            convert_hom_field(glue_vertex(kron_preprojective, "2"), field),
        ]
        for h in homs:
            alpha = h.standard_dims()
            for ell in (1, 2):
                assignment = {
                    x: ExactMatrix(field, [[rng.randrange(101) for _ in range(ell)]
                                           for _ in range(ell)])
                    for x in h.algebra.letters
                }
                rep = specialize(h, assignment, size=ell)
                assert rep.dims == {v: ell * alpha[v] for v in h.source_quiver.vertices}


SUBST_WORDS = st.one_of(
    st.just(()),
    st.sampled_from(["x", "y"]).map(lambda x: (x,)),
    st.lists(st.sampled_from(["x", "y"]), min_size=2, max_size=3).map(tuple),
)


@st.composite
def substitution_cases(draw):
    """(mat, assignment, ell, field): a FreeMat over k<x, y> of up to 3x3
    whose entries draw their words from a short list, so that words recur
    across entries, with the empty word and words of length 2-3 among them;
    ell x ell matrices for x and y."""
    field = draw(st.sampled_from([QQ, GF(101)]))
    ell = draw(st.sampled_from([1, 2, 3]))
    alg = FreeAlgebra(field, ["x", "y"])
    vocabulary = draw(st.lists(SUBST_WORDS, min_size=1, max_size=5))
    coeffs = st.sampled_from([-2, -1, 1, 3, Fraction(1, 3), Fraction(-5, 2)])
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    mat = FreeMat(alg, [[alg.poly({w: draw(coeffs)
                                   for w in draw(st.lists(st.sampled_from(vocabulary), max_size=3))})
                         for _ in range(cols)] for _ in range(rows)], cols=cols)
    scalars = st.sampled_from([0, 0, 1, -1, 2, 7, Fraction(1, 2)])
    assignment = {x: ExactMatrix(field, [[draw(scalars) for _ in range(ell)] for _ in range(ell)])
                  for x in alg.letters}
    return mat, assignment, ell, field


class TestSubstitution:
    """_substitute_freemat, which adds each term's word matrix into the grid,
    agrees block by block with FreePoly.substitute_matrices."""

    @settings(max_examples=200, deadline=None)
    @given(substitution_cases())
    def test_matches_per_entry_substitution(self, case):
        mat, assignment, ell, field = case
        grid = [[field.zero()] * (mat.cols * ell) for _ in range(mat.rows * ell)]
        for i, row in enumerate(mat.entries):
            for j, poly in enumerate(row):
                cell = poly.substitute_matrices(assignment, ell, field)
                for p in range(ell):
                    grid[i * ell + p][j * ell:(j + 1) * ell] = cell.entries[p]
        got = _substitute_freemat(mat, assignment, ell, field)
        assert (got.rows, got.cols) == (mat.rows * ell, mat.cols * ell)
        assert got.entries == tuple(map(tuple, grid))
        assert all(type(x) is (Fraction if field == QQ else int) for row in got.entries
                   for x in row)


class TestRefutation:
    def test_brick_hom_passes(self, a2_brick):
        out = specialization_refutation_test(build_brick_hom(a2_brick), trials=20,
                                             sizes=(1, 2), seed=0)
        assert out.passed
        assert len(out.trials) == 20

    def test_s1s1_refuted(self, a2_modules):
        dbl = direct_sum(a2_modules["S1"], a2_modules["S1"])
        h = build_brick_hom(dbl, allow_non_brick=True)
        out = specialization_refutation_test(h, trials=20, sizes=(1, 2), seed=0)
        assert not out.passed
        assert out.witness["dim_path_algebra"] == 4
        assert out.witness["dim_matrix_algebra"] == 1

    def test_empty_quiver_vacuous(self):
        q = parse_quiver("vertices 1\n")
        m = Representation(q, {"1": 1})
        h = build_brick_hom(m)
        sub = substitute_letters(h, {})
        out = specialization_refutation_test(sub, trials=3, sizes=(1,), seed=1)
        assert out.passed

    def test_kronecker_extension_passes(self, kron_extension_hom):
        out = specialization_refutation_test(kron_extension_hom, trials=10, sizes=(1, 2), seed=5)
        assert out.passed

    def test_letterless_trials_computed_once_per_size(self, a2_brick, monkeypatch):
        calls = []

        def counted(h, loops, assignment, ell):
            calls.append(ell)
            return _trial_dims(h, loops, assignment, ell)

        monkeypatch.setattr(epibuild, "_trial_dims", counted)
        out = specialization_refutation_test(build_brick_hom(a2_brick), trials=20,
                                             sizes=(1, 2), seed=0)
        assert out.passed
        assert calls == [1, 2]
        assert [(t["trial"], t["size"]) for t in out.trials] == [(t, 1 + t % 2) for t in range(20)]

    def test_deterministic(self, a2_brick):
        h = build_brick_hom(a2_brick)
        o1 = specialization_refutation_test(h, trials=5, sizes=(1, 2), seed=3)
        o2 = specialization_refutation_test(h, trials=5, sizes=(1, 2), seed=3)
        assert o1.to_json_dict() == o2.to_json_dict()


    def test_loop_quiver_centralizer(self, a2_brick, kron_extension_hom, kronecker):
        def centralizer_dim(h, assignment, ell):
            loops = Quiver(["*"], [(x, "*", "*") for x in h.algebra.letters],
                           require_acyclic=False)
            mats = {x: ExactMatrix(QQ, m) for x, m in assignment.items()}
            return _trial_dims(h, loops, mats, ell)[1]

        assert centralizer_dim(build_brick_hom(a2_brick), {}, 3) == 9
        generic = [[1, 2], [3, 4]]
        assert centralizer_dim(kron_extension_hom, {"x[b]_1_1": generic}, 2) == 2
        h = canonical_generic_hom(kronecker, {"1": 1, "2": 1})
        assert centralizer_dim(h, {"x[a]_1_1": generic, "x[b]_1_1": [[0, 1], [1, 1]]}, 2) == 1


# small A2, A3 and Kronecker modules; the entry 101 vanishes in GF(101), where
# the specialization trials of rational homs run
SHAPES = [
    (parse_quiver("vertices 1 2\narrow a 1 2\n"), [{"1": 1, "2": 1}]),
    (parse_quiver("vertices 1 2 3\narrow a 1 2\narrow b 2 3\n"),
     [{"1": 1, "2": 1, "3": 1}, {"1": 1, "2": 1, "3": 0}]),
    (parse_quiver("vertices 1 2\narrow a 1 2\narrow b 1 2\n"),
     [{"1": 1, "2": 1}, {"1": 1, "2": 2}, {"1": 2, "2": 1}]),
]
ENTRIES = st.sampled_from([-2, -1, 0, 1, 2, 101])


def draw_module(data, q, dims_choices) -> Representation:
    dims = data.draw(st.sampled_from(dims_choices))
    maps = {a.name: [[data.draw(ENTRIES) for _ in range(dims[a.source])]
                     for _ in range(dims[a.target])]
            for a in q.arrows}
    return Representation(q, dims, maps)


class TestRefutationProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_brick_hom_never_refuted(self, data):
        q, dims_choices = data.draw(st.sampled_from(SHAPES))
        m = draw_module(data, q, dims_choices)
        assume(is_brick(m))
        out = specialization_refutation_test(build_brick_hom(m), trials=2, sizes=(1, 2))
        assert out.passed

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_direct_sum_refuted_over_qq(self, data):
        q, dims_choices = data.draw(st.sampled_from(SHAPES))
        h = build_brick_hom(direct_sum(draw_module(data, q, dims_choices),
                                       draw_module(data, q, dims_choices)),
                            allow_non_brick=True)
        out = specialization_refutation_test(h, trials=2, sizes=(1, 2))
        assert not out.passed
        w = out.witness
        rep = specialize(h, {}, size=w["size"])
        assert rep.field == QQ
        assert hom_basis(rep, rep).dimension == w["dim_path_algebra"]
        assert w["dim_path_algebra"] > w["dim_matrix_algebra"] == w["size"] ** 2


class TestGluedQuiver:
    def test_a2_shape(self):
        q = glued_quiver(0, 0, {"u": 1}, {"w": 1}, [("u", "w", "12")])
        assert q.vertices == ("v1", "v2")
        assert len(q.arrows) == 1
        assert q.arrows[0].source == "v1" and q.arrows[0].target == "v2"

    def test_product_formula_with_loops(self):
        q = glued_quiver(1, 0, {"u": 2}, {"w": 3}, [("u", "w", "12")])
        loops = [a for a in q.arrows if a.source == a.target]
        cross = [a for a in q.arrows if a.source != a.target]
        assert len(loops) == 1
        assert len(cross) == 6

    def test_no_connectors(self):
        q = glued_quiver(2, 1, {"u": 1}, {"w": 1}, [])
        assert all(a.source == a.target for a in q.arrows)
        assert len(q.arrows) == 3

    def test_endpoint_mismatch(self):
        with pytest.raises(EndpointMismatch):
            glued_quiver(0, 0, {"u": 1}, {"w": 1}, [("w", "u", "12")])
        with pytest.raises(EndpointMismatch):
            glued_quiver(0, 0, {"u": 1}, {"w": 1}, [("u", "w", "sideways")])

    def test_reverse_direction(self):
        q = glued_quiver(0, 0, {"u": 2}, {"w": 3}, [("w", "u", "21")])
        cross = [a for a in q.arrows if a.source == "v2"]
        assert len(cross) == 6


class TestSerialization:
    def test_round_trip(self, kron_extension_hom):
        data = kron_extension_hom.to_json_dict()
        again = AlgebraHom.from_json_dict(json.loads(json.dumps(data)))
        assert again == kron_extension_hom
        assert again.letter_coords == kron_extension_hom.letter_coords

    def test_glue_round_trip(self, kron_preprojective):
        h = glue_vertex(kron_preprojective, "2")
        again = AlgebraHom.from_json_dict(h.to_json_dict())
        assert again == h

    def test_invalid_hom_rejected(self, kron_extension_hom):
        data = kron_extension_hom.to_json_dict()
        data["idem_images"]["1"][0][0] = "0"  # idempotents no longer sum to I
        with pytest.raises(InvalidHom):
            AlgebraHom.from_json_dict(data)


class TestFieldConversion:
    def test_brick_hom_mod_p(self, a2_brick):
        h = build_brick_hom(a2_brick)
        hp = convert_hom_field(h, GF(101))
        assert hp.field == GF(101)
        rep = verify_epimorphism(hp, 1)
        assert rep.verdict == "Verified"

    def test_prime_field_pipeline(self, a2, kronecker):
        f = GF(5)
        brick = Representation(a2, {"1": 1, "2": 1}, {"a": [[1]]}, field=f)
        h = extend_add_arrows(brick, kronecker)
        assert h.field == f
        assert verify_epimorphism(h, 3).verdict == "Verified"
        out = specialization_refutation_test(h, trials=5, sizes=(1, 2), seed=2)
        assert out.passed
