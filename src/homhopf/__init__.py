"""homhopf: exact structure-constant verification for monoidal Hom-Hopf
algebras, crossed products, smash coproducts and their biproducts.

Everything is computed in exact field arithmetic (rationals or a prime
field); axiom checks sweep all basis tuples and report the first failing
tuple together with both evaluated sides.
"""

from .fields import QQ, BadRational, ModInt, PrimeField, RationalField, field_from_tag
from .report import CheckReport, Witness
from .exactlin import (
    DimensionMismatch,
    FieldMismatch,
    LinearMap,
    NonInvertibleError,
    NoSolution,
    Pipeline,
    SCALAR_SPACE,
    Space,
    compose,
    identity,
    inverse,
    maps_equal,
    matrix_rank,
    power,
    solve_linear,
    tensor,
    tensor_space,
)
from .homcore import (
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    HomHopf,
    NotAutomorphism,
    TwistFailsAxiomsError,
    check_antipode,
    check_hom_algebra,
    check_hom_bialgebra,
    check_hom_coalgebra,
    tensor_algebra,
    tensor_coalgebra,
    yau_twist,
)
from .convact import (
    Coaction,
    Cocycle,
    ModuleAction,
    NotConvolutionInvertible,
    check_cocycle_inverse,
    check_comodule_coalgebra,
    check_hom_comodule,
    check_hom_module,
    check_weak_module_algebra,
    cocycle_inverse,
    convolution_inverse,
    convolution_unit,
    convolve,
    self_coaction,
    trivial_action,
    trivial_coaction,
    trivial_cocycle,
)
from .constructions import (
    BiproductSpec,
    BuiltBiproduct,
    ConditionsFailError,
    CrossedProductSpec,
    PreconditionFailError,
    biproduct_antipode,
    build_biproduct,
    check_biproduct_conditions,
    check_cocycle_conditions,
    check_sigma_antipode,
    check_twisted_comodule_cocycle,
    crossed_product,
    smash_coproduct,
    smash_product,
)
from .admissible import (
    BimoduleData,
    IsoCheckFailError,
    MappingSystem,
    NotAdmissibleError,
    admissible_isomorphism,
    canonical_system,
    check_admissible,
    check_canonical_actions,
    check_cocycle_inverse_identities,
    check_twisted_module,
    check_weak_bimodule,
)
from .structfile import (
    DocumentBuilder,
    StructError,
    StructShapeError,
    StructSyntaxError,
    StructureFile,
    UnknownReferenceError,
    parse,
)

__version__ = "0.1.0"
