import ast
import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quiverepi import cli, epibuild, freealg
from quiverepi.exactlin import GF, QQ, ExactMatrix, PrimeField
from quiverepi.epibuild import (
    _substitute_freemat,
    _Trials,
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
    commutant_letters,
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
    required_elements,
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
    hom_dim,
    is_brick,
    random_representation,
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

    def test_swapped_letter_coords_fail(self, kronecker):
        h = canonical_generic_hom(kronecker, {"1": 1, "2": 2})
        assert generation_identity_check(h)
        x, y = "x[a]_1_1", "x[b]_2_1"
        h.letter_coords = {**h.letter_coords, x: h.letter_coords[y], y: h.letter_coords[x]}
        assert not generation_identity_check(h)

    def test_wrong_provenance(self, a2_brick):
        h = build_brick_hom(a2_brick)
        with pytest.raises(WrongProvenance):
            generation_identity_check(h)

    def test_canonical_hom_satisfies_identity(self, kronecker):
        h = canonical_generic_hom(kronecker, {"1": 2, "2": 2})
        assert generation_identity_check(h)


class TestHomsEqualUpToRenaming:
    """homs_equal_up_to_renaming accepts a bijective renaming of the letters
    and nothing else."""

    @pytest.fixture
    def kron11(self, kronecker):
        return canonical_generic_hom(kronecker, {"1": 1, "2": 1})

    def substituted(self, h, **images):
        alg = h.algebra
        return substitute_letters(h, {f"x[{a}]_1_1": alg.letter(f"x[{b}]_1_1") if b else 1
                                      for a, b in images.items()}, target_algebra=alg)

    def test_swapped_letters_match(self, kron11):
        assert homs_equal_up_to_renaming(kron11, self.substituted(kron11, a="b", b="a"))

    def test_letter_against_scalar(self, kron11):
        scalar_b = self.substituted(kron11, b=None)
        assert not homs_equal_up_to_renaming(kron11, scalar_b)
        assert not homs_equal_up_to_renaming(scalar_b, kron11)

    def test_two_letters_to_one(self, kron11):
        assert not homs_equal_up_to_renaming(kron11, self.substituted(kron11, b="a"))

    def test_one_letter_to_two(self, kron11):
        assert not homs_equal_up_to_renaming(self.substituted(kron11, b="a"), kron11)

    def test_different_sizes(self, a2, a2_brick):
        bigger = Representation(a2, {"1": 1, "2": 2}, {"a": [[1], [0]]})
        h1, h2 = build_brick_hom(a2_brick), build_brick_hom(bigger, allow_non_brick=True)
        assert h1.algebra.letters == h2.algebra.letters == ()
        assert not homs_equal_up_to_renaming(h1, h2)


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


@pytest.fixture(scope="module")
def construction_outputs(a2, a3, a2_brick, kronecker, kron_preprojective, kron_extension_hom):
    """(provenance, hom) for one or more outputs of every construction."""
    rank_one = Representation(
        parse_quiver("vertices 1 2 3\narrow a 1 2\narrow b 1 2\narrow e 2 3\n"),
        {"1": 1, "2": 2, "3": 1}, {"a": [[1], [0]], "b": [[0], [1]], "e": [[0, 1]]})
    cokernel = Representation(
        parse_quiver("vertices 1 2 3\narrow a 1 2\narrow b 1 2\narrow c 1 3\n"
                     "arrow d 1 3\narrow e 2 3\n"),
        {"1": 1, "2": 2, "3": 2},
        {"a": [[1], [0]], "b": [[0], [1]], "c": [[1], [0]], "d": [[0], [1]],
         "e": [[1, 0], [0, 0]]})
    pre23 = Representation(kronecker, {"1": 2, "2": 3}, {
        "a": [[1, 0], [0, 1], [0, 0]], "b": [[0, 0], [1, 0], [0, 1]]})
    brick_gf5 = Representation(a2_brick.quiver, {"1": 1, "2": 1}, {"a": [[3]]}, field=GF(5))
    # the bricks and the invariant-subspace module of the benchmark's catalogue
    catalogue_bricks = [Representation(a2, dict(zip("12", d))) for d in ((1, 0), (0, 1))]
    catalogue_bricks += [Representation(a3, dict(zip("123", d)))
                         for d in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    catalogue_bricks += [
        Representation(a3, {"1": 1, "2": 1, "3": 0}, {"a": [[1]]}),
        Representation(a3, {"1": 0, "2": 1, "3": 1}, {"b": [[1]]}),
        Representation(a3, {"1": 1, "2": 1, "3": 1}, {"a": [[1]], "b": [[1]]}),
        kron_preprojective,
    ]
    kr_reg = Representation(kronecker, {"1": 1, "2": 1}, {"a": [[1]]})
    return [
        *(("brick", build_brick_hom(m)) for m in catalogue_bricks),
        *(("invariant", extend_invariant(kr_reg, "b", case)) for case in ("i", "ii", "iii", "iv")),
        ("brick", build_brick_hom(a2_brick)),
        ("brick", build_brick_hom(pre23)),
        ("brick", build_brick_hom(brick_gf5)),
        ("extend", kron_extension_hom),
        ("extend", extend_add_arrows(brick_gf5, kronecker)),
        ("invariant", extend_invariant(rank_one, "e", "iv")),
        ("invariant", extend_invariant(cokernel, "e", "i")),
        ("glue", glue_vertex(kron_preprojective, "2")),
        ("glue", glue_vertex(pre23, "2")),
        ("canonical", canonical_generic_hom(kronecker, {"1": 2, "2": 3})),
    ]


class TestConstructionsFromCanonical:
    """Every construction is the canonical generic hom under a substitution,
    and the substitution skips re-validation only when it is a ring map."""

    def test_outputs_validate(self, construction_outputs):
        for provenance, h in construction_outputs:
            assert h.provenance == provenance
            h._validate()

    @pytest.mark.parametrize("quiver_text", [
        "vertices 1 2\narrow a 1 2\n",
        "vertices 1 2 3\narrow a 1 2\narrow b 2 3\n",
        "vertices 1 2\narrow a 1 2\narrow b 1 2\n",
        "vertices 1 2\narrow a 1 2\narrow b 1 2\narrow c 1 2\n",
    ], ids=["A2", "A3", "Kronecker", "3-Kronecker"])
    def test_canonical_homs_validate(self, quiver_text):
        # canonical_generic_hom skips validation: its images must satisfy
        # the relations by construction
        q = parse_quiver(quiver_text)
        for dims in itertools.product((0, 1, 2), repeat=len(q.vertices)):
            canonical_generic_hom(q, dict(zip(q.vertices, dims)))._validate()

    def test_factor_through_canonical_round_trips(self, construction_outputs):
        for _, h in construction_outputs:
            assignment = factor_through_canonical(h)
            canonical = canonical_generic_hom(h.source_quiver, h.standard_dims(),
                                              field=h.field)
            assert substitute_letters(canonical, assignment, h.algebra) == h

    def test_letter_coords_only_for_full_blocks(self, construction_outputs):
        for provenance, h in construction_outputs:
            if provenance in ("brick", "glue", "invariant"):
                assert h.letter_coords is None
                assert h.to_json_dict()["letter_coords"] is None
            else:
                assert set(h.letter_coords) == set(h.algebra.letters)

    def test_substitution_from_a_prime_field_into_qq_is_validated(self, a2):
        # e1 = [[2, 1], [1, 2]] and e2 = I - e1 form a family mod 3, not over QQ
        alg = FreeAlgebra(GF(3), [])
        e1 = FreeMat(alg, [[2, 1], [1, 2]], cols=2)
        e2 = FreeMat(alg, [[2, 2], [2, 2]], cols=2)
        h = AlgebraHom(a2, alg, 2, {"1": e1, "2": e2}, {"a": FreeMat.zeros(alg, 2, 2)})
        with pytest.raises(InvalidHom, match="not idempotent"):
            substitute_letters(h, {}, FreeAlgebra(QQ, []))

    def test_poly_substitute_looks_up_only_its_letters(self):
        alg = FreeAlgebra(QQ, ["x", "y"])
        target = FreeAlgebra(QQ, ["x"])
        elsewhere = FreeAlgebra(QQ, ["z"]).letter("z")
        p = alg.letter("x") * alg.letter("x") + 2
        # y is neither in the target nor assigned within it, and p never uses it
        assert p.substitute({"y": elsewhere}, target) == target.parse("x.x + 2")
        with pytest.raises(freealg.AlphabetMismatch):
            p.substitute({"x": elsewhere}, target)
        with pytest.raises(freealg.AlphabetMismatch):
            alg.letter("y").substitute({}, target)


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

    def test_several_generators_keep_their_order(self, kronecker):
        # the (1, 2) brick of the Kronecker quiver, its arrows sent to the
        # paths c and a of the 3-Kronecker quiver: one generator per nonzero
        # entry of q(path) - f(arrow), arrows in order, entries row-major
        brick = Representation(kronecker, {"1": 1, "2": 2}, {"a": [[1], [0]], "b": [[0], [1]]})
        three = parse_quiver("vertices 1 2\narrow a 1 2\narrow b 1 2\narrow c 1 2\n")
        _, gens = localisation_presentation(three, {"a": ["c"], "b": ["a"]}, brick)
        assert [g.to_text() for g in gens.generators] == \
            ["x[c]_1_1 - 1", "x[c]_2_1", "x[a]_1_1", "x[a]_2_1 - 1"]

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
                for _, combo in self.rules.values():
                    for k in combo:
                        combo[k] = combo[k] * 2

        assert self._stages_used(kron_extension_hom, monkeypatch)[0]
        monkeypatch.setattr(freealg, "LinearElimination", CorruptRows)
        self._assert_never_verified(kron_extension_hom, tmp_path)

    def test_glued_kronecker34_membership_work(self, kronecker, monkeypatch):
        # a work count, not a timing: the terms that decide_memberships adds
        # on the glued (3,4) draw (M_8(k<x1,x2,x3>)) grow with any extra
        # rewriting.  Linear rules that keep a later pivot in an earlier
        # tail make every target walk that chain again: 11,528 calls,
        # against 3,151 with fully reduced rules
        rng = random.Random(3)
        while not is_brick(m := random_representation(kronecker, {"1": 3, "2": 4}, rng)):
            pass
        h = glue_vertex(m, "2")
        combined, gens = commutant_ideal_gens(h)
        targets = [poly for _, poly in required_elements(h, combined)]
        calls = 0
        add_term = freealg._add_term

        def counting(*args):
            nonlocal calls
            calls += 1
            return add_term(*args)

        monkeypatch.setattr(freealg, "_add_term", counting)
        results = freealg.decide_memberships(gens, targets, 5)
        assert all(res.member for res in results)
        assert calls <= 4000

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


def conjugated(h, u, u_inv) -> AlgebraHom:
    """h followed by the inner automorphism m -> u m u_inv of M_n(k<X>)."""
    return AlgebraHom(h.source_quiver, h.algebra, h.size,
                      {v: u * m * u_inv for v, m in h.idem_images.items()},
                      {a: u * m * u_inv for a, m in h.arrow_images.items()})


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
        twisted = conjugated(h, t, t_inv)
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


def substitute_matrices(poly, assignment, size, field):
    """The reference evaluation of poly at square matrices: each word a
    product of its letters' matrices, the empty word the identity, and the
    coefficients coerced into the matrices' field."""
    acc = ExactMatrix.zeros(field, size, size)
    for w, c in poly.terms.items():
        prod = ExactMatrix.identity(field, size)
        for name in w:
            prod = prod * assignment[name]
        acc = acc + prod.scale(field.coerce(c))
    return acc


class TestSubstitution:
    """_substitute_freemat, which adds each term's word matrix into the grid,
    agrees block by block with the per-entry reference substitute_matrices."""

    @settings(max_examples=200, deadline=None)
    @given(substitution_cases())
    def test_matches_per_entry_substitution(self, case):
        mat, assignment, ell, field = case
        grid = [[field.zero()] * (mat.cols * ell) for _ in range(mat.rows * ell)]
        for i, row in enumerate(mat.entries):
            for j, poly in enumerate(row):
                cell = substitute_matrices(poly, assignment, ell, field)
                for p in range(ell):
                    grid[i * ell + p][j * ell:(j + 1) * ell] = cell.entries[p]
        got = _substitute_freemat(mat, assignment, ell, field)
        assert (got.rows, got.cols) == (mat.rows * ell, mat.cols * ell)
        assert got.entries == tuple(map(tuple, grid))
        # one exact type per value: over QQ an int when integral, else a
        # Fraction whose denominator is not 1
        assert all(type(x) is int or (field == QQ and type(x) is Fraction
                                      and x.denominator != 1)
                   for row in got.entries for x in row)


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

    def test_letterless_trials_computed_once_per_size(self, a2_brick):
        # with no letters every trial of one size is the same trial: End of
        # the brick's ell copies is M_ell(k), and so is the centralizer of
        # no matrices
        out = specialization_refutation_test(build_brick_hom(a2_brick), trials=20,
                                             sizes=(1, 2), seed=0)
        assert out.passed
        assert out.trials == [{"trial": t, "size": 1 + t % 2, "dim_path_algebra": (1 + t % 2) ** 2,
                               "dim_matrix_algebra": (1 + t % 2) ** 2} for t in range(20)]

    def test_letter_in_an_idempotent_image_specializes_per_trial(self, kron_extension_hom,
                                                                 monkeypatch):
        # the Kronecker extension hom conjugated by [[1, -x], [0, 1]]: e1 =
        # [[1, x], [0, 0]] and e2 = [[0, -x], [0, 1]] hold its letter, so the
        # trials read it as one vertex with a loop per image, where End(M0)
        # is all of M_2, and none of them runs specialize
        h = kron_extension_hom
        alg, (name,) = h.algebra, h.algebra.letters
        x = alg.letter(name)
        t = FreeMat(alg, [[1, -x], [0, 1]], cols=2)
        t_inv = FreeMat(alg, [[1, x], [0, 1]], cols=2)
        twisted = conjugated(h, t, t_inv)
        assert twisted.idem_images["1"] == FreeMat(alg, [[1, x], [0, 0]], cols=2)
        assert twisted.idem_images["2"] == FreeMat(alg, [[0, -x], [0, 1]], cols=2)
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["size"])
            return specialize(*args, **kwargs)

        monkeypatch.setattr(epibuild, "specialize", counted)
        out = specialization_refutation_test(twisted, trials=20, sizes=(1, 2), seed=4)
        field = GF(101)
        hs = convert_hom_field(twisted, field)
        loops = Quiver(["*"], [(name, "*", "*")], require_acyclic=False)
        rng = random.Random(4)
        expected = []
        for trial in range(20):
            ell = 1 + trial % 2
            mats = {name: ExactMatrix(field, [[rng.randrange(101) for _ in range(ell)]
                                              for _ in range(ell)], cols=ell)}
            rep = specialize(hs, mats, size=ell)
            letters = Representation(loops, {"*": ell}, mats, field=field)
            expected.append({"trial": trial, "size": ell, "dim_path_algebra": hom_dim(rep, rep),
                             "dim_matrix_algebra": hom_dim(letters, letters)})
        assert out.passed
        assert out.trials == expected
        assert calls == []

    def test_permuted_glue6_runs_no_specialize(self, kronecker, monkeypatch):
        # a work count: glue6 conjugated by the cyclic permutation of its six
        # coordinates is off the standard layout, so its trials run on the
        # one-vertex view of its images, with no specialize call, and log
        # what glue6's trials log
        pre23 = Representation(kronecker, {"1": 2, "2": 3}, {
            "a": [[1, 0], [0, 1], [0, 0]], "b": [[0, 0], [1, 0], [0, 1]]})
        h = glue_vertex(pre23, "2")
        alg, n = h.algebra, h.size
        cycle = FreeMat(alg, [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)], cols=n)
        cycle_inv = FreeMat(alg, [[int(i == (j + 1) % n) for j in range(n)] for i in range(n)],
                            cols=n)
        permuted = conjugated(h, cycle, cycle_inv)
        with pytest.raises(LayoutMismatch):
            permuted.standard_dims()
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("size"))
            return specialize(*args, **kwargs)

        monkeypatch.setattr(epibuild, "specialize", counted)
        out = specialization_refutation_test(permuted)
        assert calls == []
        assert out.to_json_dict() == specialization_refutation_test(h).to_json_dict()

    def test_glued_kronecker34_trial_work(self, kronecker, monkeypatch):
        # a work count, not a timing: the rows that one default test on the
        # glued (3,4) draw hands to GF(p) elimination, 350 ranked over 40
        # calls and 28 put in echelon form once (End(M0)'s 24 and the glued
        # arrow's 4).  Ranking every trial's whole system would take 1,550
        # rows, and an echelon remade on every trial 1,200
        rng = random.Random(3)
        while not is_brick(m := random_representation(kronecker, {"1": 3, "2": 4}, rng)):
            pass
        h = glue_vertex(m, "2")
        ranked, echeloned = [], []

        def counting(method, counts):
            def counted(self, rows, cols, *rest):
                rows = list(rows)
                counts.append(len(rows))
                return method(self, rows, cols, *rest)
            return counted

        monkeypatch.setattr(PrimeField, "rank", counting(PrimeField.rank, ranked))
        monkeypatch.setattr(PrimeField, "reduced_echelon",
                            counting(PrimeField.reduced_echelon, echeloned))
        out = specialization_refutation_test(h)
        assert out.passed and len(out.trials) == 20
        assert sum(ranked) <= 500
        assert sum(echeloned) <= 200

    def test_deterministic(self, a2_brick):
        h = build_brick_hom(a2_brick)
        o1 = specialization_refutation_test(h, trials=5, sizes=(1, 2), seed=3)
        o2 = specialization_refutation_test(h, trials=5, sizes=(1, 2), seed=3)
        assert o1.to_json_dict() == o2.to_json_dict()


    def test_loop_quiver_centralizer(self, a2_brick, kron_extension_hom, kronecker):
        def centralizer_dim(h, assignment, ell):
            mats = {x: ExactMatrix(QQ, m) for x, m in assignment.items()}
            return _Trials(h, QQ).dims_of(mats, ell)[1]

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


@st.composite
def unimodular(draw, alg, n):
    """An integer matrix of determinant +-1 and its inverse, as FreeMats over
    alg: a signed permutation matrix times up to three elementary matrices
    I + c E_ij.  Its inverse has integer entries, so conjugating by it adds
    no prime to any coefficient denominator."""
    perm = draw(st.permutations(range(n)))
    sign = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    u = FreeMat(alg, [[sign[i] * (j == perm[i]) for j in range(n)] for i in range(n)], cols=n)
    u_inv = FreeMat(alg, [[sign[j] * (i == perm[j]) for j in range(n)] for i in range(n)], cols=n)
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        e = FreeMat.unit(alg, n, i, j).scale(draw(st.sampled_from([-2, -1, 1, 2])))
        u, u_inv = (FreeMat.identity(alg, n) + e) * u, u_inv * (FreeMat.identity(alg, n) - e)
    return u, u_inv


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

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_trial_log_is_conjugation_invariant(self, construction_outputs, data):
        # u h u^-1 is h up to an inner automorphism, so every trial's two
        # dimensions, and with them the whole outcome, stay the same; the
        # conjugate is mostly off the standard layout
        _, h = data.draw(st.sampled_from(construction_outputs))
        if h.field == QQ:
            h = convert_hom_field(h, data.draw(st.sampled_from([QQ, GF(101)])))
        twin = conjugated(h, *data.draw(unimodular(h.algebra, h.size)))
        seed = data.draw(st.integers(0, 2**16))
        assert specialization_refutation_test(twin, trials=6, seed=seed).to_json_dict() == \
            specialization_refutation_test(h, trials=6, seed=seed).to_json_dict()


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

    def test_reduction_mod_p_equals_a_validated_hom(self, a2_brick, kronecker,
                                                    kron_preprojective, kron_extension_hom):
        # reduction from QQ skips the re-validation; the result must be the
        # hom that the validating constructor builds from the same images
        field = GF(101)
        for h in [build_brick_hom(a2_brick), kron_extension_hom,
                  canonical_generic_hom(kronecker, {"1": 1, "2": 2}),
                  glue_vertex(kron_preprojective, "2")]:
            before = h.to_json_dict()
            hp = convert_hom_field(h, field)
            validated = AlgebraHom(h.source_quiver, hp.algebra, h.size, hp.idem_images,
                                   hp.arrow_images, letter_coords=h.letter_coords,
                                   provenance=h.provenance)
            assert hp == validated
            assert (hp.field, hp.letter_coords, hp.provenance) == (
                field, h.letter_coords, h.provenance)
            assert h.to_json_dict() == before

    def test_conversion_from_a_prime_field_is_validated(self, a2):
        # e1 = [[2, 1], [1, 2]] and e2 = I - e1 form a family mod 3, not over QQ
        f = GF(3)
        alg = FreeAlgebra(f, [])
        e1 = FreeMat(alg, [[2, 1], [1, 2]], cols=2)
        e2 = FreeMat(alg, [[2, 2], [2, 2]], cols=2)
        h = AlgebraHom(a2, alg, 2, {"1": e1, "2": e2}, {"a": FreeMat.zeros(alg, 2, 2)})
        with pytest.raises(InvalidHom, match="not idempotent"):
            convert_hom_field(h, QQ)


def reference_validate(h):
    """The path-algebra checks of AlgebraHom._validate as dense FreeMat
    products, as it ran before it read only the images' nonzero entries."""
    n, q = h.size, h.source_quiver
    idems = [h.idem_images[v] for v in q.vertices]
    for v, e in zip(q.vertices, idems):
        if e * e != e:
            raise InvalidHom(f"idempotent image of vertex {v!r} is not idempotent")
    for i, v in enumerate(q.vertices):
        for j, w in enumerate(q.vertices):
            if i != j and not (idems[i] * idems[j]).is_zero():
                raise InvalidHom(f"idempotent images of {v!r} and {w!r} are not orthogonal")
    total = FreeMat.zeros(h.algebra, n, n)
    for e in idems:
        total = total + e
    if total != FreeMat.identity(h.algebra, n):
        raise InvalidHom("idempotent images do not sum to the identity")
    for a in q.arrows:
        img = h.arrow_images[a.name]
        if h.idem_images[a.target] * img * h.idem_images[a.source] != img:
            raise InvalidHom(f"arrow {a.name!r} image is not supported in block "
                             f"({a.target!r}, {a.source!r})")


def reference_commutant_gens(h):
    """The commutant generators as dense FreeMat products: the nonzero
    entries of V*g - g*V, g over the vertex images then the arrow images."""
    n = h.size
    combined = FreeAlgebra(h.field, list(h.algebra.letters) + commutant_letters(n))
    v = FreeMat(combined, [[combined.letter(f"v{i}_{j}") for j in range(1, n + 1)]
                           for i in range(1, n + 1)], cols=n)
    gens = {}
    images = [h.idem_images[x] for x in h.source_quiver.vertices]
    images += [h.arrow_images[a.name] for a in h.source_quiver.arrows]
    for g in images:
        ge = FreeMat(combined, [[combined.embed(p) for p in row] for row in g.entries], cols=n)
        for row in (v * ge - ge * v).entries:
            for p in row:
                if p.terms:
                    gens.setdefault(p)
    return list(gens)


FAMILY_COEFFS = st.sampled_from([-1, 1, 2, Fraction(1, 2)])
FAMILY_WORDS = st.sampled_from([(), ("x",), ("y",), ("x", "y"), ("y", "x")])


@st.composite
def image_families(draw):
    """An unchecked hom from a SHAPES quiver into M_n(k<x, y>): its
    canonical generic hom under a drawn substitution, which is valid; then
    maybe conjugated by I + c*x*E_ij (i != j), still valid but off the
    standard layout; then maybe one entry of one image redrawn, which mostly
    breaks a relation."""
    field = draw(st.sampled_from([QQ, GF(101)]))
    q, dims_choices = draw(st.sampled_from(SHAPES))
    alg = FreeAlgebra(field, ["x", "y"])
    polys = st.dictionaries(FAMILY_WORDS, FAMILY_COEFFS, max_size=2).map(alg.poly)
    canonical = canonical_generic_hom(q, draw(st.sampled_from(dims_choices)), field=field)
    h = substitute_letters(canonical, {x: draw(polys) for x in canonical.algebra.letters}, alg)
    n = h.size
    idems, arrows = dict(h.idem_images), dict(h.arrow_images)
    if draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        c = FreeMat.unit(alg, n, i, j).scale(alg.poly({("x",): draw(FAMILY_COEFFS)}))
        t, t_inv = FreeMat.identity(alg, n) + c, FreeMat.identity(alg, n) - c
        idems = {v: t * m * t_inv for v, m in idems.items()}
        arrows = {a: t * m * t_inv for a, m in arrows.items()}
    if draw(st.booleans()):
        images = arrows if draw(st.booleans()) else idems
        name = draw(st.sampled_from(sorted(images)))
        rows = [list(row) for row in images[name].entries]
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(polys)
        images[name] = FreeMat(alg, rows, cols=n)
    return AlgebraHom._of(q, alg, n, idems, arrows, None, "family")


def validation_outcome(check):
    """None when check() passes, else its InvalidHom message."""
    try:
        check()
    except InvalidHom as exc:
        return str(exc)
    return None


class TestSparseImagePasses:
    """_validate and commutant_ideal_gens agree with the dense references
    above, kept as they were written for the dense FreeMat;
    TestFreeMat.test_product_is_the_entrywise_sum pins the sparse FreeMat
    arithmetic both now run on."""

    @settings(max_examples=300, deadline=None)
    @given(image_families())
    def test_validate_matches_dense_reference(self, h):
        assert validation_outcome(h._validate) == validation_outcome(lambda: reference_validate(h))

    @settings(max_examples=100, deadline=None)
    @given(image_families())
    def test_commutant_gens_match_dense_reference(self, h):
        _, gens = commutant_ideal_gens(h)
        assert [list(g.terms.items()) for g in gens.generators] == \
            [list(g.terms.items()) for g in reference_commutant_gens(h)]


def reference_trial_dims(h, loops, assignment, ell):
    """One specialization trial as a single full system: the module of the
    substituted arrow blocks in the standard layout, else specialize, and
    hom_dim of it and of the letters' loop module."""
    try:
        dims, blocks = h.standard_blocks()
    except LayoutMismatch:
        rep = specialize(h, assignment, size=ell)
    else:
        rep = Representation(h.source_quiver, {v: ell * d for v, d in dims.items()},
                             {a: _substitute_freemat(b, assignment, ell, h.field)
                              for a, b in blocks.items()}, field=h.field)
    if rep.total_dim() == 0:
        return 0, 0
    letters = Representation(loops, {"*": ell}, assignment, field=h.field)
    return hom_dim(rep, rep), hom_dim(letters, letters)


def assert_trials_match_reference(h, sizes, seed) -> list[tuple[int, int]]:
    """Run one trial per size in sizes through one _Trials object, as the
    trials of one specialization test do, against reference_trial_dims;
    returns the trials' dimensions."""
    rng = random.Random(seed)
    loops = Quiver(["*"], [(x, "*", "*") for x in h.algebra.letters], require_acyclic=False)
    trials, got = _Trials(h, h.field), []
    for ell in sizes:
        assignment = {x: ExactMatrix(h.field, [[rng.randrange(-2, 3) for _ in range(ell)]
                                               for _ in range(ell)])
                      for x in h.algebra.letters}
        got.append(trials.dims_of(assignment, ell))
        assert got[-1] == reference_trial_dims(h, loops, assignment, ell)
    return got


def kronecker_with_one_letter():
    """Canonical Kronecker (1,1) with a -> 1 and b -> y over k<y>: b's rows
    are multiples of a's at size 1, so they only count modulo a's echelon."""
    q = parse_quiver("vertices 1 2\narrow a 1 2\narrow b 1 2\n")
    alg = FreeAlgebra(QQ, ["y"])
    return substitute_letters(canonical_generic_hom(q, {"1": 1, "2": 1}),
                              {"x[a]_1_1": 1, "x[b]_1_1": alg.letter("y")}, alg)


def named_trial_homs() -> dict[str, AlgebraHom]:
    """Homs over QQ that take the edge paths of _Trials."""
    a2 = parse_quiver("vertices 1 2\narrow a 1 2\n")
    a3 = parse_quiver("vertices 1 2 3\narrow a 1 2\narrow b 2 3\n")
    kronecker = parse_quiver("vertices 1 2\narrow a 1 2\narrow b 1 2\n")
    xy = FreeAlgebra(QQ, ["x", "y"])
    kr11 = canonical_generic_hom(kronecker, {"1": 1, "2": 1})
    return {
        # no letters: the Kronecker (1,2) brick, d = 1
        "letterless": build_brick_hom(Representation(kronecker, {"1": 1, "2": 2},
                                                     {"a": [[1], [0]], "b": [[0], [1]]})),
        # every arrow carries letters, so End(M0) has the unit basis
        "no letter-free arrow": canonical_generic_hom(kronecker, {"1": 1, "2": 2}),
        # the overlap hom: b's block is the word x.y
        "word of length 2": substitute_letters(
            kr11, {"x[a]_1_1": xy.letter("x"), "x[b]_1_1": xy.poly({("x", "y"): 1})}, xy),
        # vertex 3 has dimension 0, so b's block is empty and letter-free
        "zero-dimensional vertex": canonical_generic_hom(a3, {"1": 1, "2": 2, "3": 0}),
        # the same vertex with no arrow: the unit basis has no block there
        "unit basis, zero-dimensional vertex": canonical_generic_hom(
            parse_quiver("vertices 1 2 3\narrow a 1 2\n"), {"1": 1, "2": 2, "3": 0}),
        # the zero module at every size, with a letter in no image
        "size 0": substitute_letters(canonical_generic_hom(a2, {"1": 0, "2": 0}), {},
                                     FreeAlgebra(QQ, ["x"])),
    }


class TestTrialDims:
    """_Trials, which ranks one system in the entries of the C_k of
    End(M0) (x) M_ell(k) per trial, gives the dimensions of the full system
    of every trial, over QQ and GF(101)."""

    @settings(max_examples=100, deadline=None)
    @given(image_families(), st.sampled_from([None, "x", "y"]), FAMILY_COEFFS,
           st.lists(st.integers(1, 4), min_size=1, max_size=4), st.integers(0, 2**16))
    @example(h=kronecker_with_one_letter(), letter=None, value=1, sizes=[1, 2], seed=0)
    def test_matches_full_system(self, h, letter, value, sizes, seed):
        # one letter sent to a scalar leaves letter-free the blocks that
        # hold no other letter, next to blocks that keep it
        assume(validation_outcome(h._validate) is None)
        if letter is not None:
            h = substitute_letters(h, {letter: value})
        assert_trials_match_reference(h, sizes, seed)

    @pytest.mark.parametrize("field", [QQ, GF(101)], ids=["q", "fp101"])
    def test_matches_full_system_on_each_arrow_mix(self, field, kronecker, kron_extension_hom):
        ext = convert_hom_field(kron_extension_hom, field)
        alg, (name,) = ext.algebra, ext.algebra.letters
        x = alg.letter(name)
        t, t_inv = (FreeMat(alg, [[1, c * x], [0, 1]], cols=2) for c in (-1, 1))
        cases = {
            # every arrow carries letters
            "canonical": canonical_generic_hom(kronecker, {"1": 1, "2": 2}, field=field),
            # a is letter-free, b carries x[b]_1_1
            "extension": ext,
            # the letter y is in no image, so both arrows are letter-free
            "unused letter": substitute_letters(ext, {name: 2}, FreeAlgebra(field, ["y"])),
            # off the standard layout: the one-vertex view
            "conjugated": conjugated(ext, t, t_inv),
        }
        got = {label: assert_trials_match_reference(h, [1, 2, 3, 2, 1, 3], seed)
               for seed, (label, h) in enumerate(cases.items())}
        # the extension hom is an epimorphism, conjugated or not, so both
        # dimensions are those of a generic matrix's centralizer; the
        # unused letter leaves the brick's End at ell^2; the canonical hom's
        # last draw is one dimension larger mod 101 than over QQ
        generic = [(1, 1), (2, 2), (3, 3), (2, 2), (1, 1), (3, 3)]
        assert got == {
            "canonical": [(1, 1), (4, 1), (9, 1), (4, 1), (1, 1), (9 if field == QQ else 10, 1)],
            "extension": generic,
            "unused letter": [(1, 1), (4, 2), (9, 3), (4, 2), (1, 1), (9, 3)],
            "conjugated": generic,
        }


    @pytest.mark.parametrize("field", [QQ, GF(101)], ids=["q", "fp101"])
    @pytest.mark.parametrize("label", list(named_trial_homs()))
    def test_named_homs(self, field, label):
        h = convert_hom_field(named_trial_homs()[label], field)
        got = assert_trials_match_reference(h, [1, 2, 3, 4], 7)
        if label == "letterless":
            assert got == [(1, 1), (4, 4), (9, 9), (16, 16)]
        if label == "size 0":
            assert got == [(0, 0)] * 4

    def test_collapsed_glued_kronecker56_work(self, kronecker, monkeypatch):
        # a work bound, not a timing: on the collapsed glued (5,6) hom, which
        # is Refuted at its size-2 trial after a QQ recheck, every rank and
        # echelon has at most d * ell^2 = 8 columns (d = dim End(M0) = 2),
        # but the one echelon per field of End(M0)'s size-1 system, whose 62
        # unknowns do not grow with ell.  The per-size echelons took 248
        rng = random.Random(3)
        while not is_brick(m := random_representation(kronecker, {"1": 5, "2": 6}, rng)):
            pass
        h = glue_vertex(m, "2")
        alg = h.algebra
        h = substitute_letters(h, {x: alg.letter("x1") for x in alg.letters}, alg)
        calls = []

        def counting(cls, name):
            method = getattr(cls, name)

            def counted(self, rows, cols, *rest):
                calls.append((cls.__name__, name, cols))
                return method(self, rows, cols, *rest)
            monkeypatch.setattr(cls, name, counted)

        for cls in (PrimeField, type(QQ)):
            counting(cls, "rank")
            counting(cls, "reduced_echelon")
        out = specialization_refutation_test(h)
        assert not out.passed and out.witness["size"] == 2
        assert "modular_artifact" not in out.witness
        assert sorted(c for c in calls if c[2] > 8) == [
            ("PrimeField", "reduced_echelon", 62), ("RationalField", "reduced_echelon", 62)]
        assert len(calls) >= 8


def test_epibuild_imports_no_private_freealg_name():
    """Each sibling module keeps its internals behind its public names: the
    matrix format stays behind freealg and the intertwiner systems behind
    quiverrep, so epibuild imports no private name of any of them."""
    tree = ast.parse(Path(epibuild.__file__).read_text(encoding="utf-8"))
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level == 1 or (node.module or "").startswith("quiverepi"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
