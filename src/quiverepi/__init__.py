"""quiverepi: exact computation with quiver representations and mechanical
verification of ring epimorphisms from path algebras to matrix algebras
over free associative algebras.

Computations run over QQ by default or GF(p) on request.  Rank, intertwiner
and idempotent structure are rational-linear, so results over QQ agree with
the algebraically closed setting for the constructions implemented here;
see the README for the field caveat.
"""

from .exactlin import (
    GF,
    QQ,
    ExactMatrix,
    NonSquare,
    NotIdempotentFamily,
    NotInvertible,
    idempotent_diagonalize,
    nullspace_basis,
    parse_field,
    rank,
    solve_or_invert,
)
from .quiver import (
    Arrow,
    BlockLayout,
    CycleError,
    DuplicateIdentifier,
    KeyMismatch,
    ParseError,
    Quiver,
    block_layout,
    is_acyclic,
    parse_quiver,
    quiver_to_text,
)
from .quiverrep import (
    IntertwinerBasis,
    QuiverMismatch,
    Representation,
    Subspace,
    UnknownArrow,
    ZeroModule,
    complement,
    direct_sum,
    end_dim,
    euler_form,
    ext1_dim,
    hom_basis,
    invariant_under_end,
    is_brick,
    is_exceptional,
    kernel_image,
    load_representation,
    parse_representation,
    random_representation,
    representation_to_text,
)
from .freealg import (
    AlphabetMismatch,
    Certificate,
    DegreeBoundTooSmall,
    FreeAlgebra,
    FreeMat,
    FreePoly,
    IdealGens,
    MembershipResult,
    decide_memberships,
    ideal_membership,
)
from .epibuild import (
    AlgebraHom,
    DimensionTooSmall,
    EndpointMismatch,
    EpibuildError,
    EpiReport,
    FullRank,
    InvalidHom,
    InvarianceFailure,
    LayoutMismatch,
    NotABrick,
    NotExceptional,
    PathMismatch,
    QuiverNotExtension,
    RefutationOutcome,
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

__version__ = "0.1.0"
