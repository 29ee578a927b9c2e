"""Crossed products, smash coproducts, biproducts and their antipodes.

The two-parameter crossed product on A (x) H multiplies by

    (a # h)(b # g) = a[(alpha^m(h11) . beta^{-2}(b))
                       sigma(alpha^{k+1}(h12), alpha^k(g1))] # alpha(h2 g2)

and the one-parameter smash coproduct on A (x) H comultiplies by

    Delta(a >< h) = a1 >< alpha^m(a2(-1)) alpha^{-1}(h1)
                    (x) beta(a2(0)) >< h2,
    eps(a >< h) = eps(a) eps(h).

Every Sweedler-style formula here is compiled as a composition of kernel
primitives via ``Pipeline`` — splits, permutations, structure-map powers and
merges — never as a hand-expanded index loop.  Constructions return the
structure either way; the companion check_* functions decide validity and
name the first failing basis tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

from .convact import Coaction, Cocycle, ModuleAction, pair_coalgebra
from .exactlin import (
    LinearMap,
    Pipeline,
    SCALAR_SPACE,
    compose,
    equal_on_basis,
    identity,
    maps_equal,
    power,
    tensor_space,
    vector_as_map,
)
from .homcore import (
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    HomHopf,
    check_hom_bialgebra,
    comult_tensor_from_map,
    convolution_unit,
    convolve,
    inverse_laws,
    morphism_laws,
    mult_tensor_from_map,
)
from .report import CheckReport


class ConditionsFailError(ValueError):
    """Biproduct assembly refused: the compatibility conditions fail."""

    def __init__(self, report: CheckReport):
        bad = report.first_failure()
        super().__init__(f"biproduct conditions fail at {bad.name}" if bad
                         else "biproduct conditions fail")
        self.report = report


class PreconditionFailError(ValueError):
    """An antipode precondition (sigma-antipode law or convolution
    invertibility of the algebra half) does not hold."""

    def __init__(self, report: CheckReport):
        bad = report.first_failure()
        super().__init__(f"antipode precondition fails at {bad.name}" if bad
                         else "antipode precondition fails")
        self.report = report


@dataclass(eq=True)
class CrossedProductSpec:
    """Data for a two-parameter crossed product A #_sigma H."""

    algebra: HomAlgebra
    hopf: HomBialgebra | HomHopf
    action: ModuleAction
    cocycle: Cocycle
    m: int
    k: int

    def __post_init__(self):
        h = self.hopf_bialgebra
        if self.action.acting != h or self.cocycle.source != h:
            raise ValueError("action and cocycle must be over the same H")
        if self.action.target != self.algebra or self.cocycle.target != self.algebra:
            raise ValueError("action and cocycle must land in the same A")

    @property
    def hopf_bialgebra(self) -> HomBialgebra:
        return self.hopf.bialgebra if isinstance(self.hopf, HomHopf) else self.hopf

    @property
    def field(self):
        return self.algebra.field


@dataclass(eq=True)
class BiproductSpec:
    """A crossed-product datum together with a coalgebra structure on A and
    a left coaction of H on it, sharing one space and one structure map."""

    crossed: CrossedProductSpec
    coalgebra: HomCoalgebra
    coaction: Coaction

    def __post_init__(self):
        a = self.crossed.algebra
        if self.coalgebra.space != a.space:
            raise ValueError("coalgebra half must live on the crossed product's A")
        if self.coalgebra.gamma != a.alpha:
            raise ValueError("both halves of A must share one structure map")
        if self.coaction.target != self.coalgebra:
            raise ValueError("coaction must target A's coalgebra half")
        if self.coaction.coacting != self.crossed.hopf_bialgebra:
            raise ValueError("coaction must be over the crossed product's H")

    @property
    def field(self):
        return self.crossed.field


def crossed_product(spec: CrossedProductSpec) -> HomAlgebra:
    """The algebra on A (x) H with the crossed multiplication, unit 1 # 1 and
    structure map beta (x) alpha.  No axioms are asserted here."""
    field = spec.field
    a = spec.algebra
    h = spec.hopf_bialgebra
    asp, hsp = a.space, h.space
    alpha, beta = h.alpha, a.alpha
    dh = h.coalgebra.comult_map

    mult = (
        Pipeline(field, [asp, hsp, asp, hsp])
        .split_leg(1, dh, hsp, hsp)            # a h1 h2 b g
        .split_leg(1, dh, hsp, hsp)            # a h11 h12 h2 b g
        .split_leg(5, dh, hsp, hsp)            # a h11 h12 h2 b g1 g2
        .permute([0, 1, 4, 2, 5, 3, 6])        # a h11 b h12 g1 h2 g2
        .map_leg(1, power(alpha, spec.m))
        .map_leg(2, power(beta, -2))
        .merge_legs(1, 2, spec.action.act_map)  # a (h11.b) h12 g1 h2 g2
        .map_leg(2, power(alpha, spec.k + 1))
        .map_leg(3, power(alpha, spec.k))
        .merge_legs(2, 2, spec.cocycle.sigma_map)  # a t s h2 g2
        .merge_legs(1, 2, a.mult_map)           # a ts h2 g2
        .merge_legs(0, 2, a.mult_map)           # a(ts) h2 g2
        .merge_legs(1, 2, h.algebra.mult_map)   # .. h2g2
        .map_leg(1, alpha)
        .finish()
    )
    space = tensor_space(asp, hsp)
    unit = [va * vh for va in a.unit for vh in h.algebra.unit]
    return HomAlgebra(field, space, mult_tensor_from_map(mult, space), unit,
                      beta @ alpha)


def smash_product(a: HomAlgebra, h: HomBialgebra, action: ModuleAction,
                  m: int) -> HomAlgebra:
    """The one-parameter smash product: a(alpha^m(h1) . beta^{-1}(b)) # alpha(h2) g.
    This is what the crossed product collapses to when sigma is trivial."""
    field = a.field
    asp, hsp = a.space, h.space
    mult = (
        Pipeline(field, [asp, hsp, asp, hsp])
        .split_leg(1, h.coalgebra.comult_map, hsp, hsp)  # a h1 h2 b g
        .permute([0, 1, 3, 2, 4])                        # a h1 b h2 g
        .map_leg(1, power(h.alpha, m))
        .map_leg(2, power(a.alpha, -1))
        .merge_legs(1, 2, action.act_map)                # a (h1.b) h2 g
        .merge_legs(0, 2, a.mult_map)                    # .. h2 g
        .map_leg(1, h.alpha)
        .merge_legs(1, 2, h.algebra.mult_map)
        .finish()
    )
    space = tensor_space(asp, hsp)
    unit = [va * vh for va in a.unit for vh in h.algebra.unit]
    return HomAlgebra(field, space, mult_tensor_from_map(mult, space), unit,
                      a.alpha @ h.alpha)


def check_cocycle_conditions(spec: CrossedProductSpec) -> CheckReport:
    """The three conditions equivalent to the crossed product being a
    Hom-algebra with unit 1 # 1: normality of sigma plus compatibility with
    the structure maps, the action-symmetry law, and the twisted
    2-cocycle law."""
    field = spec.field
    a, h = spec.algebra, spec.hopf_bialgebra
    asp, hsp = a.space, h.space
    alpha, beta = h.alpha, a.alpha
    act, sig = spec.action.act_map, spec.cocycle.sigma_map
    ma, mh = a.mult_map, h.algebra.mult_map
    dh = h.coalgebra.comult_map
    m, k = spec.m, spec.k

    eps_unit = compose(a.unit_map, h.coalgebra.counit_map)
    normal_right = equal_on_basis(
        "cocycle_normal_on_right_unit",
        Pipeline(field, [hsp]).adjoin_vector(1, hsp, h.algebra.unit)
        .merge_legs(0, 2, sig).finish(),
        eps_unit, (hsp,),
    )
    normal_left = equal_on_basis(
        "cocycle_normal_on_left_unit",
        Pipeline(field, [hsp]).adjoin_vector(0, hsp, h.algebra.unit)
        .merge_legs(0, 2, sig).finish(),
        eps_unit, (hsp,),
    )
    structure = equal_on_basis(
        "cocycle_structure_compat",
        Pipeline(field, [hsp, hsp]).map_leg(0, alpha).map_leg(1, alpha)
        .merge_legs(0, 2, sig).finish(),
        compose(beta, sig), (hsp, hsp),
    )
    normality = CheckReport.combine(
        "cocycle_normality", [normal_right, normal_left, structure])

    lhs = (
        Pipeline(field, [hsp, hsp, asp])
        .split_leg(0, dh, hsp, hsp)
        .split_leg(2, dh, hsp, hsp)            # h1 h2 l1 l2 a
        .permute([0, 2, 4, 1, 3])              # h1 l1 a h2 l2
        .merge_legs(0, 2, mh)
        .map_leg(0, power(alpha, m))
        .merge_legs(0, 2, act)                 # (h1l1.a) h2 l2
        .map_leg(1, power(alpha, k + 2))
        .map_leg(2, power(alpha, k + 2))
        .merge_legs(1, 2, sig)
        .merge_legs(0, 2, ma)
        .finish()
    )
    rhs = (
        Pipeline(field, [hsp, hsp, asp])
        .split_leg(0, dh, hsp, hsp)
        .split_leg(2, dh, hsp, hsp)            # h1 h2 l1 l2 a
        .permute([0, 2, 1, 3, 4])              # h1 l1 h2 l2 a
        .map_leg(0, power(alpha, k + 2))
        .map_leg(1, power(alpha, k + 2))
        .merge_legs(0, 2, sig)                 # s h2 l2 a
        .merge_legs(1, 2, mh)
        .map_leg(1, power(alpha, m))
        .merge_legs(1, 2, act)
        .merge_legs(0, 2, ma)
        .finish()
    )
    symmetry = equal_on_basis(
        "cocycle_action_symmetry", lhs, rhs, (hsp, hsp, asp))

    lhs = (
        Pipeline(field, [hsp, hsp, hsp])
        .split_leg(0, dh, hsp, hsp)
        .split_leg(2, dh, hsp, hsp)
        .split_leg(4, dh, hsp, hsp)            # h1 h2 l1 l2 g1 g2
        .permute([0, 2, 4, 1, 3, 5])           # h1 l1 g1 h2 l2 g2
        .map_leg(0, power(alpha, m + 1))
        .map_leg(1, power(alpha, k + 1))
        .map_leg(2, power(alpha, k + 1))
        .merge_legs(1, 2, sig)                 # h1 s1 h2 l2 g2
        .merge_legs(0, 2, act)                 # (h1.s1) h2 l2 g2
        .merge_legs(2, 2, mh)                  # t h2 (l2g2)
        .map_leg(1, power(alpha, k + 2))
        .map_leg(2, power(alpha, k + 1))
        .merge_legs(1, 2, sig)
        .merge_legs(0, 2, ma)
        .finish()
    )
    rhs = (
        Pipeline(field, [hsp, hsp, hsp])
        .split_leg(0, dh, hsp, hsp)
        .split_leg(2, dh, hsp, hsp)            # h1 h2 l1 l2 g
        .permute([0, 2, 1, 3, 4])              # h1 l1 h2 l2 g
        .map_leg(0, power(alpha, k + 2))
        .map_leg(1, power(alpha, k + 2))
        .merge_legs(0, 2, sig)                 # s1 h2 l2 g
        .merge_legs(1, 2, mh)                  # s1 (h2l2) g
        .map_leg(1, power(alpha, k + 1))
        .map_leg(2, power(alpha, k + 1))
        .merge_legs(1, 2, sig)
        .merge_legs(0, 2, ma)
        .finish()
    )
    twisted_cocycle = equal_on_basis(
        "cocycle_twisted_two_cocycle", lhs, rhs, (hsp, hsp, hsp))

    return CheckReport.combine(
        "crossed_cocycle_conditions", [normality, symmetry, twisted_cocycle])


def smash_coproduct(coalg: HomCoalgebra, h: HomBialgebra, co: Coaction,
                    m: int) -> HomCoalgebra:
    """The coalgebra on A (x) H with the smash comultiplication and the
    product counit; validity is guaranteed exactly when the coaction is a
    comodule-coalgebra, but the structure is returned either way."""
    field = coalg.field
    asp, hsp = coalg.space, h.space
    alpha, beta = h.alpha, coalg.gamma
    comult = (
        Pipeline(field, [asp, hsp])
        .split_leg(0, coalg.comult_map, asp, asp)   # a1 a2 h
        .split_leg(1, co.coact_map, hsp, asp)       # a1 a2(-1) a2(0) h
        .split_leg(3, h.coalgebra.comult_map, hsp, hsp)  # a1 a2(-1) a2(0) h1 h2
        .permute([0, 1, 3, 2, 4])                   # a1 a2(-1) h1 a2(0) h2
        .map_leg(1, power(alpha, m))
        .map_leg(2, power(alpha, -1))
        .merge_legs(1, 2, h.algebra.mult_map)
        .map_leg(2, beta)
        .finish()
    )
    space = tensor_space(asp, hsp)
    counit = [va * vh for va in coalg.counit for vh in h.coalgebra.counit]
    return HomCoalgebra(field, space, comult_tensor_from_map(comult, space),
                        counit, beta @ alpha)


def check_twisted_comodule_cocycle(spec: BiproductSpec) -> CheckReport:
    """The compatibility between sigma and the coaction that a crossed
    product needs before it can carry the smash coproduct (both sides are
    maps A (x) H -> A (x) H (x) A)."""
    field = spec.field
    a = spec.crossed.algebra
    h = spec.crossed.hopf_bialgebra
    asp, hsp = a.space, h.space
    alpha, beta = h.alpha, a.alpha
    m, k = spec.crossed.m, spec.crossed.k
    rho = spec.coaction.coact_map
    da = spec.coalgebra.comult_map
    dh = h.coalgebra.comult_map
    sig = spec.crossed.cocycle.sigma_map
    mh = h.algebra.mult_map

    lhs = (
        Pipeline(field, [asp, hsp])
        .split_leg(0, da, asp, asp)            # a1 a2 g
        .split_leg(1, rho, hsp, asp)           # a1 a2(-1) a2(0) g
        .permute([0, 1, 3, 2])                 # a1 a2(-1) g a2(0)
        .map_leg(0, beta)
        .map_leg(1, power(alpha, m + 1))
        .merge_legs(1, 2, mh)
        .finish()
    )
    rhs = (
        Pipeline(field, [asp, hsp])
        .split_leg(0, da, asp, asp)            # a1 a2 g
        .split_leg(1, rho, hsp, asp)           # a1 a2(-1) a2(0) g
        .split_leg(1, dh, hsp, hsp)            # a1 a2(-1)1 a2(-1)2 a2(0) g
        .split_leg(4, dh, hsp, hsp)            # a1 a2(-1)1 a2(-1)2 a2(0) g1 g2
        .permute([0, 1, 4, 2, 5, 3])           # a1 a2(-1)1 g1 a2(-1)2 g2 a2(0)
        .map_leg(1, power(alpha, k + m + 2))
        .map_leg(2, power(alpha, k + 1))
        .merge_legs(1, 2, sig)                 # a1 s a2(-1)2 g2 a2(0)
        .merge_legs(0, 2, a.mult_map)          # a1s a2(-1)2 g2 a2(0)
        .map_leg(1, power(alpha, m + 2))
        .map_leg(2, alpha)
        .merge_legs(1, 2, mh)
        .finish()
    )
    return CheckReport.combine("twisted_comodule_cocycle", [
        equal_on_basis("twisted_comodule_cocycle_identity", lhs, rhs, (asp, hsp))
    ])


def check_biproduct_conditions(spec: BiproductSpec) -> CheckReport:
    """The nine compatibility conditions that make the crossed product plus
    smash coproduct a Hom-bialgebra."""
    field = spec.field
    a = spec.crossed.algebra
    h = spec.crossed.hopf_bialgebra
    asp, hsp = a.space, h.space
    alpha, beta = h.alpha, a.alpha
    m, k = spec.crossed.m, spec.crossed.k
    act = spec.crossed.action.act_map
    sig = spec.crossed.cocycle.sigma_map
    rho = spec.coaction.coact_map
    ma, mh = a.mult_map, h.algebra.mult_map
    da, dh = spec.coalgebra.comult_map, h.coalgebra.comult_map
    eps_a = spec.coalgebra.counit_map
    eps_h = h.coalgebra.counit_map

    # 1. the counit of A is a Hom-algebra map
    eps_kron = [x * y for x in spec.coalgebra.counit for y in spec.coalgebra.counit]
    c1 = CheckReport.combine("counit_algebra_map", [
        equal_on_basis(
            "counit_multiplicative", compose(eps_a, ma),
            LinearMap(field, tensor_space(asp, asp), SCALAR_SPACE, [eps_kron]),
            (asp, asp)),
        equal_on_basis(
            "counit_on_unit", compose(eps_a, a.unit_map),
            LinearMap(field, SCALAR_SPACE, SCALAR_SPACE, [[field.one]]),
            (SCALAR_SPACE,)),
        equal_on_basis(
            "counit_structure_invariant", compose(eps_a, beta), eps_a, (asp,)),
    ])

    # 2. eps_A(h.a) = eps_H(h) eps_A(a)
    eps_mixed = [x * y for x in h.coalgebra.counit for y in spec.coalgebra.counit]
    c2 = equal_on_basis(
        "action_counit_compat", compose(eps_a, act),
        LinearMap(field, tensor_space(hsp, asp), SCALAR_SPACE, [eps_mixed]),
        (hsp, asp))

    # 3. sigma is a Hom-coalgebra map from the pair coalgebra on H (x) H —
    # the same coalgebra that defines convolution of bilinear maps
    pair = pair_coalgebra(h)
    eps_pair = [x * y for x in h.coalgebra.counit for y in h.coalgebra.counit]
    c3 = CheckReport.combine("cocycle_coalgebra_map", [
        equal_on_basis(
            "cocycle_comult_compat", compose(da, sig),
            Pipeline(field, [pair.space])
            .split_leg(0, pair.comult_map, pair.space, pair.space)
            .map_leg(0, sig)
            .map_leg(1, sig)
            .finish(),
            (hsp, hsp)),
        equal_on_basis(
            "cocycle_counit_compat", compose(eps_a, sig),
            LinearMap(field, tensor_space(hsp, hsp), SCALAR_SPACE, [eps_pair]),
            (hsp, hsp)),
        equal_on_basis(
            "cocycle_structure_compat",
            Pipeline(field, [hsp, hsp]).map_leg(0, alpha).map_leg(1, alpha)
            .merge_legs(0, 2, sig).finish(),
            compose(beta, sig), (hsp, hsp)),
    ])

    # 4. Delta_A(1) = 1 (x) 1
    unit_kron = [x * y for x in a.unit for y in a.unit]
    c4 = equal_on_basis(
        "comult_preserves_unit", compose(da, a.unit_map),
        vector_as_map(field, tensor_space(asp, asp), unit_kron),
        (SCALAR_SPACE,))

    # 5. the coaction is multiplicative and unital
    c5 = CheckReport.combine("coaction_algebra_map", [
        equal_on_basis(
            "coaction_multiplicative", compose(rho, ma),
            Pipeline(field, [asp, asp])
            .split_leg(0, rho, hsp, asp)
            .split_leg(2, rho, hsp, asp)
            .permute([0, 2, 1, 3])
            .merge_legs(0, 2, mh)
            .merge_legs(1, 2, ma)
            .finish(),
            (asp, asp)),
        equal_on_basis(
            "coaction_on_unit", compose(rho, a.unit_map),
            vector_as_map(field, tensor_space(hsp, asp),
                          [x * y for x in h.algebra.unit for y in a.unit]),
            (SCALAR_SPACE,)),
    ])

    # 6. compatibility between sigma and the coaction
    lhs = (
        Pipeline(field, [hsp, hsp])
        .split_leg(0, dh, hsp, hsp)
        .split_leg(2, dh, hsp, hsp)            # h1 h2 g1 g2
        .permute([0, 2, 1, 3])                 # h1 g1 h2 g2
        .map_leg(0, power(alpha, k + 2))
        .map_leg(1, power(alpha, k + 2))
        .merge_legs(0, 2, sig)                 # s h2 g2
        .split_leg(0, rho, hsp, asp)           # s(-1) s(0) h2 g2
        .merge_legs(2, 2, mh)                  # s(-1) s(0) h2g2
        .map_leg(2, power(alpha, -1))
        .permute([0, 2, 1])                    # s(-1) (h2g2) s(0)
        .map_leg(0, power(alpha, m - 1))
        .merge_legs(0, 2, mh)
        .finish()
    )
    rhs = (
        Pipeline(field, [hsp, hsp])
        .split_leg(0, dh, hsp, hsp)
        .split_leg(2, dh, hsp, hsp)
        .permute([0, 2, 1, 3])                 # h1 g1 h2 g2
        .merge_legs(0, 2, mh)                  # h1g1 h2 g2
        .map_leg(1, power(alpha, k + 1))
        .map_leg(2, power(alpha, k + 1))
        .merge_legs(1, 2, sig)
        .finish()
    )
    c6 = equal_on_basis("cocycle_coaction_compat", lhs, rhs, (hsp, hsp))

    # 7. Delta_A is multiplicative up to the action, cocycle and coaction
    lhs = Pipeline(field, [asp, asp]).merge_legs(0, 2, ma) \
        .split_leg(0, da, asp, asp).finish()
    rhs = (
        Pipeline(field, [asp, asp])
        .split_leg(0, da, asp, asp)            # a1 a2 b
        .split_leg(1, rho, hsp, asp)           # a1 a2(-1) a2(0) b
        .split_leg(1, dh, hsp, hsp)            # a1 a2(-1)1 a2(-1)2 a2(0) b
        .split_leg(4, da, asp, asp)            # a1 a2(-1)1 a2(-1)2 a2(0) b1 b2
        .split_leg(5, rho, hsp, asp)           # a1 a2(-1)1 a2(-1)2 a2(0) b1 b2(-1) b2(0)
        .permute([0, 1, 4, 2, 5, 3, 6])        # a1 a2(-1)1 b1 a2(-1)2 b2(-1) a2(0) b2(0)
        .map_leg(1, power(alpha, 2 * m))
        .map_leg(2, power(beta, -2))
        .merge_legs(1, 2, act)                 # a1 t a2(-1)2 b2(-1) a2(0) b2(0)
        .map_leg(2, power(alpha, k + m + 1))
        .map_leg(3, power(alpha, k + m))
        .merge_legs(2, 2, sig)                 # a1 t s a2(0) b2(0)
        .merge_legs(1, 2, ma)
        .merge_legs(0, 2, ma)                  # a1(ts) a2(0) b2(0)
        .merge_legs(1, 2, ma)
        .map_leg(1, beta)
        .finish()
    )
    c7 = equal_on_basis("comult_twisted_multiplicative", lhs, rhs, (asp, asp))

    # 8. Delta_A of an action value
    lhs = Pipeline(field, [hsp, asp]).map_leg(0, power(alpha, m)) \
        .merge_legs(0, 2, act).split_leg(0, da, asp, asp).finish()
    rhs = (
        Pipeline(field, [hsp, asp])
        .split_leg(0, dh, hsp, hsp)            # h1 h2 b
        .split_leg(0, dh, hsp, hsp)            # h11 h12 h2 b
        .split_leg(3, da, asp, asp)            # h11 h12 h2 b1 b2
        .split_leg(4, rho, hsp, asp)           # h11 h12 h2 b1 b2(-1) b2(0)
        .permute([0, 3, 1, 4, 2, 5])           # h11 b1 h12 b2(-1) h2 b2(0)
        .map_leg(0, power(alpha, m))
        .map_leg(1, power(beta, -1))
        .merge_legs(0, 2, act)                 # t h12 b2(-1) h2 b2(0)
        .map_leg(1, power(alpha, k + 1))
        .map_leg(2, power(alpha, k + m + 1))
        .merge_legs(1, 2, sig)                 # t s h2 b2(0)
        .merge_legs(0, 2, ma)                  # ts h2 b2(0)
        .map_leg(1, power(alpha, m))
        .map_leg(2, beta)
        .merge_legs(1, 2, act)
        .finish()
    )
    c8 = equal_on_basis("comult_action_compat", lhs, rhs, (hsp, asp))

    # 9. the action and coaction braid past each other
    lhs = (
        Pipeline(field, [hsp, asp])
        .split_leg(0, dh, hsp, hsp)            # h1 h2 b
        .permute([0, 2, 1])                    # h1 b h2
        .map_leg(0, power(alpha, m + 1))
        .merge_legs(0, 2, act)                 # (h1.b) h2
        .split_leg(0, rho, hsp, asp)           # t(-1) t(0) h2
        .permute([0, 2, 1])                    # t(-1) h2 t(0)
        .map_leg(0, power(alpha, m - 1))
        .merge_legs(0, 2, mh)
        .finish()
    )
    rhs = (
        Pipeline(field, [hsp, asp])
        .split_leg(0, dh, hsp, hsp)            # h1 h2 b
        .split_leg(2, rho, hsp, asp)           # h1 h2 b(-1) b(0)
        .permute([0, 2, 1, 3])                 # h1 b(-1) h2 b(0)
        .map_leg(1, power(alpha, m))
        .merge_legs(0, 2, mh)                  # h1 b(-1) .. h2 b(0)
        .map_leg(1, power(alpha, m))
        .merge_legs(1, 2, act)
        .finish()
    )
    c9 = equal_on_basis("action_coaction_compat", lhs, rhs, (hsp, asp))

    return CheckReport.combine(
        "biproduct_conditions", [c1, c2, c3, c4, c5, c6, c7, c8, c9])


@dataclass
class BuiltBiproduct:
    """A biproduct together with its spec and the verification reports."""

    spec: BiproductSpec
    bialgebra: HomBialgebra
    conditions: CheckReport
    bialgebra_check: CheckReport

    @property
    def field(self):
        return self.spec.field


def assemble_biproduct(spec: BiproductSpec) -> HomBialgebra:
    """The crossed-product algebra and the smash-coproduct coalgebra on
    A (x) H as one bialgebra, with neither the compatibility conditions nor
    the bialgebra axioms checked."""
    return HomBialgebra(
        crossed_product(spec.crossed),
        smash_coproduct(spec.coalgebra, spec.crossed.hopf_bialgebra,
                        spec.coaction, spec.crossed.m))


def build_biproduct(spec: BiproductSpec, bypass: bool = False) -> BuiltBiproduct:
    """Assemble the crossed-product algebra and the smash-coproduct coalgebra
    into one bialgebra, then verify the bialgebra axioms.

    Refuses to assemble when the nine compatibility conditions fail, unless
    ``bypass`` is set (which exists to exhibit the converse direction: a
    violated condition must break some bialgebra axiom downstream).
    """
    conditions = check_biproduct_conditions(spec)
    if not conditions.passed and not bypass:
        raise ConditionsFailError(conditions)
    bialgebra = assemble_biproduct(spec)
    return BuiltBiproduct(
        spec=spec,
        bialgebra=bialgebra,
        conditions=conditions,
        bialgebra_check=check_hom_bialgebra(bialgebra),
    )


def check_sigma_antipode(h: HomBialgebra, sigma: Cocycle,
                         s: LinearMap) -> CheckReport:
    """S is a sigma-antipode: it commutes with alpha and both of

        (sigma (x) m_H) Delta_{H(x)H} (id (x) S) Delta,
        (sigma (x) m_H) Delta_{H(x)H} (S (x) id) Delta

    equal eps(h) 1_A (x) 1_H on every basis vector."""
    field = h.field
    hsp = h.space
    asp = sigma.target.space
    dh = h.coalgebra.comult_map
    mh = h.algebra.mult_map
    sig = sigma.sigma_map

    target = compose(
        vector_as_map(field, tensor_space(asp, hsp),
                      [x * y for x in sigma.target.unit for y in h.algebra.unit]),
        h.coalgebra.counit_map,
    )

    def one_side(apply_to: int) -> LinearMap:
        pipe = Pipeline(field, [hsp]).split_leg(0, dh, hsp, hsp)
        pipe.map_leg(apply_to, s)
        return (
            pipe
            .split_leg(0, dh, hsp, hsp)        # u1 u2 v
            .split_leg(2, dh, hsp, hsp)        # u1 u2 v1 v2
            .permute([0, 2, 1, 3])             # u1 v1 u2 v2
            .merge_legs(0, 2, sig)
            .merge_legs(1, 2, mh)
            .finish()
        )

    return CheckReport.combine("sigma_antipode", [
        *morphism_laws(s, h, h, structure_compat="sigma_antipode_alpha_commute"),
        equal_on_basis("sigma_antipode_right", one_side(1), target, (hsp,)),
        equal_on_basis("sigma_antipode_left", one_side(0), target, (hsp,)),
    ])


def check_algebra_antipode(alg: HomAlgebra, coalg: HomCoalgebra,
                           s: LinearMap) -> CheckReport:
    """S_A is a convolution inverse of the identity on (A-as-coalgebra,
    A-as-algebra) and commutes with the shared structure map."""
    return CheckReport.combine("algebra_antipode", [
        *inverse_laws(s, identity(alg.field, alg.space), coalg, alg,
                      (alg.space,), "antipode_left_inverse",
                      "antipode_right_inverse"),
        *morphism_laws(s, alg, alg, structure_compat="antipode_structure_commute"),
    ])


def biproduct_antipode(spec: BiproductSpec, bialgebra: HomBialgebra,
                       s_h: LinearMap, s_a: LinearMap) -> LinearMap:
    """The antipode of the biproduct ``bialgebra`` assembled from ``spec``:

        S(a (x) h) = (1_A (x) S_H(alpha^{m-1}(a(-1)) alpha^{-2}(h)))
                     . (S_A(a(0)) (x) 1_H)

    with the product taken in its crossed-product algebra.  Preconditions
    (sigma-antipode law for S_H; S_A a structure-compatible convolution
    inverse of the identity) are verified first."""
    field = spec.field
    a = spec.crossed.algebra
    h = spec.crossed.hopf_bialgebra
    asp, hsp = a.space, h.space
    m = spec.crossed.m

    pre = CheckReport.combine("biproduct_antipode_preconditions", [
        check_sigma_antipode(h, spec.crossed.cocycle, s_h),
        check_algebra_antipode(a, spec.coalgebra, s_a),
    ])
    if not pre.passed:
        raise PreconditionFailError(pre)

    return (
        Pipeline(field, [asp, hsp])
        .split_leg(0, spec.coaction.coact_map, hsp, asp)  # a(-1) a(0) h
        .permute([0, 2, 1])                               # a(-1) h a(0)
        .map_leg(0, power(h.alpha, m - 1))
        .map_leg(1, power(h.alpha, -2))
        .merge_legs(0, 2, h.algebra.mult_map)             # w a(0)
        .map_leg(0, s_h)
        .map_leg(1, s_a)
        .adjoin_vector(0, asp, a.unit)                    # 1_A S_H(w) S_A(a0)
        .adjoin_vector(3, hsp, h.algebra.unit)            # 1_A S_H(w) S_A(a0) 1_H
        .merge_legs(0, 4, bialgebra.algebra.mult_map)
        .finish()
    )


def check_biproduct_antipode(bialgebra: HomBialgebra,
                             s: LinearMap) -> CheckReport:
    """S is an antipode of a built biproduct: a convolution inverse of the
    identity on both sides that commutes with the structure map.  Each
    comparison reports its first differing entry (row-major)."""
    coalg, alg = bialgebra.coalgebra, bialgebra.algebra
    idb = identity(bialgebra.field, bialgebra.space)
    e = convolution_unit(coalg, alg)
    return CheckReport.combine("biproduct_antipode", [
        maps_equal(convolve(s, idb, coalg, alg), e, "antipode_left_inverse"),
        maps_equal(convolve(idb, s, coalg, alg), e, "antipode_right_inverse"),
        maps_equal(compose(s, bialgebra.alpha), compose(bialgebra.alpha, s),
                   "antipode_structure_commute"),
    ])
