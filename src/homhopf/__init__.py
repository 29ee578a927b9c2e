"""homhopf: exact structure-constant verification for monoidal Hom-Hopf
algebras, crossed products, smash coproducts and their biproducts.

Everything is computed in exact field arithmetic (rationals or a prime
field); axiom checks sweep all basis tuples and report the first failing
tuple together with both evaluated sides.

``import homhopf`` loads no submodule: each public name below imports its
home submodule on first use (PEP 562), so a caller pays only for what it
reads.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# home submodule -> the public names it exports here
_EXPORTS = {
    "fields": ("QQ", "BadRational", "ModInt", "PrimeField", "RationalField",
               "field_from_tag"),
    "report": ("CheckReport", "Witness"),
    "exactlin": (
        "DimensionMismatch", "FieldMismatch", "LinearMap",
        "NonInvertibleError", "NoSolution", "Pipeline", "SCALAR_SPACE",
        "Space", "compose", "identity", "inverse", "maps_equal", "power",
        "solve_linear", "tensor", "tensor_space",
    ),
    "homcore": (
        "HomAlgebra", "HomBialgebra", "HomCoalgebra", "HomHopf",
        "NotAutomorphism", "TwistFailsAxiomsError", "check_antipode",
        "check_hom_algebra", "check_hom_bialgebra", "check_hom_coalgebra",
        "tensor_algebra", "tensor_coalgebra", "yau_twist",
    ),
    "convact": (
        "Coaction", "Cocycle", "ModuleAction", "NotConvolutionInvertible",
        "check_cocycle_inverse", "check_comodule_coalgebra",
        "check_hom_comodule", "check_hom_module", "check_weak_module_algebra",
        "cocycle_inverse", "convolution_inverse", "convolution_unit",
        "convolve", "trivial_action", "trivial_coaction", "trivial_cocycle",
    ),
    "constructions": (
        "BiproductSpec", "BuiltBiproduct", "ConditionsFailError",
        "CrossedProductSpec", "PreconditionFailError", "biproduct_antipode",
        "build_biproduct", "check_biproduct_antipode",
        "check_biproduct_conditions", "check_cocycle_conditions",
        "check_sigma_antipode", "check_twisted_comodule_cocycle",
        "crossed_product", "smash_coproduct", "smash_product",
    ),
    "admissible": (
        "IsoCheckFailError", "MappingSystem", "NotAdmissibleError",
        "admissible_isomorphism", "canonical_system", "check_admissible",
        "check_canonical_actions", "check_cocycle_inverse_identities",
        "check_twisted_module", "check_weak_bimodule",
    ),
    "structfile": (
        "DocumentBuilder", "StructError", "StructShapeError",
        "StructSyntaxError", "StructureFile", "UnknownReferenceError",
        "parse",
    ),
}
_HOME = {name: home for home, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "sweedler")

__all__ = [*_HOME, *_SUBMODULES]


def __getattr__(name):
    if name in _HOME:
        value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = _import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
