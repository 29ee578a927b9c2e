"""Mapping systems characterizing biproducts, and the resulting isomorphism.

A weak admissible mapping system consists of a section/retraction pair
between a coalgebra C and a bialgebra A and a projection/section pair
between A and a Hopf algebra H,

    C <--p-- A --pi--> H,     C --j--> A <--i-- H,

subject to: (1) p j = id_C and pi i = id_H; (2) pi is a Hom-bialgebra map,
i a unit- and structure-preserving Hom-coalgebra map, p a Hom-coalgebra map,
j a Hom-algebra map; (3) the i-induced actions h -> a = i(alpha^{-m}(h)) a
and a <- h = a i(alpha^{-m}(h)) make A a weak Hom-bimodule and, against a
bilinear sigma-bar: H (x) H -> A, twisted left/right Hom-modules, with p
equivariant onto the trivial actions on C; (4) j(C) is a sub-bicomodule for
the pi-induced coactions, with p a bicomodule map onto the trivial coactions;
(5) (j p) * (i pi) = id_A in the convolution algebra.

Every biproduct carries a canonical such system (counit-collapse retractions
and unit-section inclusions), and any admissible system yields an exact
bialgebra isomorphism between the biproduct and A via

    f(c (x) h) = gamma^{-1}(j(c) i(h)),
    g(a) = beta(p(a1)) (x) alpha(pi(a2)).
"""

from __future__ import annotations

from dataclasses import dataclass

from .constructions import BuiltBiproduct, CrossedProductSpec
from .exactlin import (
    LinearMap,
    compose,
    equal_on_basis,
    identity,
    power,
)
from .homcore import HomAlgebra, HomBialgebra, convolve, morphism_laws
from .report import CheckReport
from .sweedler import compile_map, const, holds, inputs, split


class NotAdmissibleError(ValueError):
    """The mapping system fails the admissibility conditions."""

    def __init__(self, report: CheckReport):
        bad = report.first_failure()
        super().__init__(f"system fails {bad.name}" if bad else "system fails")
        self.report = report


class IsoCheckFailError(ValueError):
    """The isomorphism candidate maps fail a round-trip or morphism check."""

    def __init__(self, f: LinearMap, g: LinearMap, report: CheckReport):
        bad = report.first_failure()
        super().__init__(f"isomorphism check fails at {bad.name}" if bad
                         else "isomorphism check fails")
        self.f = f
        self.g = g
        self.report = report


@dataclass
class MappingSystem:
    """A candidate admissible system anchored to a built biproduct.

    Maps are named by their domain and codomain (conventions for which of
    the inner arrows is called p or j vary): ``retr_C`` retracts the ambient
    bialgebra onto C, ``sect_C`` includes C, ``proj_H`` projects onto H,
    ``sect_H`` includes H.  The canonical actions ``phi_left`` and
    ``phi_right`` on the biproduct carrier, when present, ride along for the
    carrier-level checks.
    """

    biproduct: BuiltBiproduct
    ambient: HomBialgebra
    retr_C: LinearMap
    sect_C: LinearMap
    proj_H: LinearMap
    sect_H: LinearMap
    m: int
    sigma_bar: LinearMap
    phi_left: LinearMap | None = None
    phi_right: LinearMap | None = None

    @property
    def field(self):
        return self.ambient.field

    @property
    def hopf(self) -> HomBialgebra:
        return self.biproduct.spec.crossed.hopf_bialgebra

    @property
    def small_coalgebra(self):
        return self.biproduct.spec.coalgebra

    @property
    def small_algebra(self) -> HomAlgebra:
        return self.biproduct.spec.crossed.algebra


def check_cocycle_inverse_identities(spec: CrossedProductSpec) -> CheckReport:
    """Two identities tying the action to a convolution-invertible cocycle:

      alpha(h) -> sigma(a^{k+1}l, a^{k+1}g)
        = [sigma(a^{k+2}h11, a^{k+2}l11) sigma(a^{k+1}(h12 l12), a^{k+1}g1)]
          sigma^{-1}(a^{k+2}h2, a^{k+1}(l2 g2)),

      alpha^m(h l) -> beta^2(a)
        = [sigma(a^{k+2}h11, a^{k+2}l11) (alpha^m(h12 l12) -> a)]
          sigma^{-1}(a^{k+2}h2, a^{k+2}l2).

    Raises ValueError if the cocycle carries no inverse (``cocycle_inverse``).
    """
    field, m, k = spec.field, spec.m, spec.k
    alg, hopf = spec.algebra, spec.hopf_bialgebra
    asp, hsp = alg.space, hopf.space
    alpha, beta = hopf.alpha, alg.alpha
    act = spec.action.act_map
    sig = spec.cocycle.sigma_map
    sig_inv = spec.cocycle.inverse_map()
    ma, mh = alg.mult_map, hopf.algebra.mult_map
    dh = hopf.coalgebra.comult_map
    ak1, ak2 = power(alpha, k + 1), power(alpha, k + 2)

    h, l, g, a = inputs(hsp, hsp, hsp, asp)
    (h1, h2), (l1, l2), (g1, g2) = split(dh, h), split(dh, l), split(dh, g)
    (h11, h12), (l11, l12) = split(dh, h1), split(dh, l1)
    s = sig(ak2(h11), ak2(l11))        # the first factor of both right sides
    action_on_cocycle = holds(
        field, "action_on_cocycle_values", (h, l, g),
        [act(alpha(h), sig(ak1(l), ak1(g)))],
        [ma(ma(s, sig(ak1(mh(h12, l12)), ak1(g1))),
            sig_inv(ak2(h2), ak1(mh(l2, g2))))])
    action_of_products = holds(
        field, "action_of_products_via_cocycle", (h, l, a),
        [act(power(alpha, m)(mh(h, l)), power(beta, 2)(a))],
        [ma(ma(s, act(power(alpha, m)(mh(h12, l12)), a)),
            sig_inv(ak2(h2), ak2(l2)))])

    return CheckReport.combine(
        "cocycle_inverse_identities", [action_on_cocycle, action_of_products])


def check_twisted_module(h: HomBialgebra, carrier: HomAlgebra,
                         sigma_bar: LinearMap, phi: LinearMap,
                         side: str) -> CheckReport:
    """The one-sided module law twisted through sigma-bar:

      left:  phi(alpha(g), phi(l, x))
               = beta(sigma_bar(g1, l1)) . phi(g2 l2, x),
      right: phi(phi(x, l), alpha(g))
               = beta(x) . phi(sigma_bar(l1, g1), l2 g2),

    plus the unit law phi(1_H, x) = beta(x) (resp. phi(x, 1_H) = beta(x))."""
    field = carrier.field
    hsp, xsp = h.space, carrier.space
    alpha = h.alpha
    beta = carrier.alpha
    mh = h.algebra.mult_map
    mx = carrier.mult_map
    dh = h.coalgebra.comult_map

    one = h.algebra.unit
    if side == "left":
        g, l, x = inputs(hsp, hsp, xsp)
        (g1, g2), (l1, l2) = split(dh, g), split(dh, l)
        law = holds(field, "left_twisted_module_law", (g, l, x),
                    [phi(alpha(g), phi(l, x))],
                    [mx(beta(sigma_bar(g1, l1)), phi(mh(g2, l2), x))])
        unit = holds(field, "left_twisted_module_unit", (x,),
                     [phi(const(hsp, one), x)], beta)
        return CheckReport.combine("left_twisted_module", [law, unit])

    if side == "right":
        x, l, g = inputs(xsp, hsp, hsp)
        (l1, l2), (g1, g2) = split(dh, l), split(dh, g)
        law = holds(field, "right_twisted_module_law", (x, l, g),
                    [phi(phi(x, l), alpha(g))],
                    [mx(beta(x), phi(sigma_bar(l1, g1), mh(l2, g2)))])
        unit = holds(field, "right_twisted_module_unit", (x,),
                     [phi(x, const(hsp, one))], beta)
        return CheckReport.combine("right_twisted_module", [law, unit])

    raise ValueError(f"side must be 'left' or 'right', not {side!r}")


def check_weak_bimodule(h: HomBialgebra, carrier_structure: LinearMap,
                        left: LinearMap, right: LinearMap) -> CheckReport:
    """Unit laws for both actions plus the middle-associativity
    phi+(alpha(h), phi-(x, l)) = phi-(phi+(h, x), alpha(l))."""
    field = h.field
    hsp = h.space
    xsp = carrier_structure.domain
    alpha = h.alpha

    g, x, l = inputs(hsp, xsp, hsp)
    one = h.algebra.unit
    left_unit = holds(field, "left_action_unit", (x,),
                      [left(const(hsp, one), x)], carrier_structure)
    right_unit = holds(field, "right_action_unit", (x,),
                       [right(x, const(hsp, one))], carrier_structure)
    compat = holds(field, "bimodule_middle_compat", (g, x, l),
                   [left(alpha(g), right(x, l))],
                   [right(left(g, x), alpha(l))])
    return CheckReport.combine(
        "weak_bimodule", [left_unit, right_unit, compat])


def canonical_system(b: BuiltBiproduct) -> MappingSystem:
    """The natural mapping system on a built biproduct: counit-collapse
    retractions, unit sections, sigma-bar from the crossed cocycle, and the
    displayed canonical actions on the carrier."""
    spec = b.spec
    field = b.field
    alg, hopf = spec.crossed.algebra, spec.crossed.hopf_bialgebra
    asp, hsp = alg.space, hopf.space
    alpha, beta = hopf.alpha, alg.alpha
    m, k = spec.crossed.m, spec.crossed.k
    act = spec.crossed.action.act_map
    sig = spec.crossed.cocycle.sigma_map
    ma, mh = alg.mult_map, hopf.algebra.mult_map
    dh = hopf.coalgebra.comult_map
    akm = power(alpha, k + 1 - m)

    a, h, l = inputs(asp, hsp, hsp)
    (h1, h2), (l1, l2) = split(dh, h), split(dh, l)
    l11, l12 = split(dh, l1)
    retr_c = compile_map(field, (a, h), [a, hopf.coalgebra.counit_map(h)])
    sect_c = compile_map(field, (a,), [a, const(hsp, hopf.algebra.unit)])
    proj_h = compile_map(field, (a, h), [spec.coalgebra.counit_map(a), h])
    sect_h = compile_map(field, (h,), [const(asp, alg.unit), h])
    sigma_bar = compile_map(field, (h, l), [
        sig(akm(h), akm(l)), const(hsp, hopf.algebra.unit)])
    phi_left = compile_map(field, (l, a, h), [
        ma(act(alpha(l11), power(beta, -1)(a)),
           sig(power(alpha, k + 2 - m)(l12), power(alpha, k + 1)(h1))),
        mh(power(alpha, 1 - m)(l2), alpha(h2))])
    phi_right = compile_map(field, (a, h, l), [
        ma(a, sig(power(alpha, k + 1)(h1), akm(l1))),
        mh(alpha(h2), power(alpha, 1 - m)(l2))])

    return MappingSystem(
        biproduct=b,
        ambient=b.bialgebra,
        retr_C=retr_c,
        sect_C=sect_c,
        proj_H=proj_h,
        sect_H=sect_h,
        m=m,
        sigma_bar=sigma_bar,
        phi_left=phi_left,
        phi_right=phi_right,
    )


def induced_actions(sys: MappingSystem) -> tuple[LinearMap, LinearMap]:
    """The actions h -> a = i(alpha^{-m}(h)) a and a <- h = a i(alpha^{-m}(h))
    on the ambient bialgebra."""
    field = sys.field
    amb = sys.ambient
    hsp = sys.hopf.space
    asp = amb.space
    alpha = sys.hopf.alpha
    include = compose(sys.sect_H, power(alpha, -sys.m))
    mult = amb.algebra.mult_map
    h, a = inputs(hsp, asp)
    left = compile_map(field, (h, a), [mult(include(h), a)])
    right = compile_map(field, (a, h), [mult(a, include(h))])
    return left, right


def induced_coactions(sys: MappingSystem) -> tuple[LinearMap, LinearMap]:
    """The coactions (alpha^{-m} pi (x) id) Delta and (id (x) alpha^{-m} pi) Delta
    on the ambient bialgebra."""
    field = sys.field
    amb = sys.ambient
    asp = amb.space
    project = compose(power(sys.hopf.alpha, -sys.m), sys.proj_H)
    (a,) = inputs(asp)
    a1, a2 = split(amb.coalgebra.comult_map, a)
    left = compile_map(field, (a,), [project(a1), a2])
    right = compile_map(field, (a,), [a1, project(a2)])
    return left, right


def check_admissible(sys: MappingSystem) -> CheckReport:
    """All five admissibility conditions.  Multiplicativity of the section
    i is reported as information but never asserted: the definition only
    requires i to preserve the unit and the structure maps."""
    field = sys.field
    amb = sys.ambient
    h = sys.hopf
    csp = sys.small_coalgebra.space
    hsp, asp = h.space, amb.space
    beta = sys.small_coalgebra.gamma
    gamma = amb.alpha
    p, j = sys.retr_C, sys.sect_C
    pi, i = sys.proj_H, sys.sect_H

    cond1 = CheckReport.combine("retraction_identities", [
        equal_on_basis("retract_section_C", compose(p, j),
                       identity(field, csp), (csp,)),
        equal_on_basis("project_section_H", compose(pi, i),
                       identity(field, hsp), (hsp,)),
    ])

    pi_alg = CheckReport.combine("projection_bialgebra_map", morphism_laws(
        pi, amb, h, multiplicative="projection_multiplicative",
        unital="projection_unital",
        comultiplicative="projection_comultiplicative",
        counital="projection_counital",
        structure_compat="projection_structure_compat"))
    i_maps = CheckReport.combine(
        "section_H_weak_algebra_and_coalgebra_map", morphism_laws(
            i, h, amb, unital="section_H_unital",
            structure_compat="section_H_structure_compat",
            comultiplicative="section_H_comultiplicative",
            counital="section_H_counital"))
    p_maps = CheckReport.combine("retraction_coalgebra_map", morphism_laws(
        p, amb, sys.small_coalgebra,
        comultiplicative="retraction_comultiplicative",
        counital="retraction_counital",
        structure_compat="retraction_structure_compat"))
    j_maps = CheckReport.combine("section_C_algebra_map", morphism_laws(
        j, sys.small_algebra, amb, multiplicative="section_C_multiplicative",
        unital="section_C_unital",
        structure_compat="section_C_structure_compat"))
    i_multiplicative, = morphism_laws(
        i, h, amb, multiplicative="section_H_multiplicative")
    cond2 = CheckReport.combine(
        "morphism_conditions", [pi_alg, i_maps, p_maps, j_maps],
        info=(("section_H_multiplicative",
               "pass" if i_multiplicative.passed else "fail"),))

    left, right = induced_actions(sys)
    bimodule = check_weak_bimodule(h, gamma, left, right)
    left_module = check_twisted_module(
        h, amb.algebra, sys.sigma_bar, left, side="left")
    right_module = check_twisted_module(
        h, amb.algebra, sys.sigma_bar, right, side="right")
    # C carries only the trivial right action c <- h = eps(h) beta(c), so the
    # equivariance of p is a right-action statement; there is no left action
    # on C for p to intertwine.
    a, g = inputs(asp, hsp)
    p_right_equivariant = holds(
        field, "retraction_right_equivariant", (a, g), compose(p, right),
        [compose(beta, p)(a), h.coalgebra.counit_map(g)])
    cond3 = CheckReport.combine("action_conditions", [
        bimodule, left_module, right_module, p_right_equivariant,
    ])

    rho_l, rho_r = induced_coactions(sys)
    (c,) = inputs(csp)
    (lh, l0), (r0, rh) = (split(rho_l, j(c), hsp, asp),
                          split(rho_r, j(c), asp, hsp))
    jp = compose(j, p)
    sub_left = holds(field, "image_closed_under_left_coaction", (c,),
                     [lh, jp(l0)], compose(rho_l, j))
    sub_right = holds(field, "image_closed_under_right_coaction", (c,),
                      [jp(r0), rh], compose(rho_r, j))
    # C's left comodule structure is the coaction of the biproduct datum
    # itself; only its right coaction is the trivial beta^{-1}(c) (x) 1_H.
    p_co_left = holds(field, "retraction_left_coaction_compat", (c,),
                      [lh, p(l0)], sys.biproduct.spec.coaction.coact_map)
    p_co_right = holds(field, "retraction_right_coaction_compat", (c,),
                       [p(r0), rh],
                       [sys.small_coalgebra.gamma_inv(c),
                        const(hsp, h.algebra.unit)])
    cond4 = CheckReport.combine("coaction_conditions", [
        sub_left, sub_right, p_co_left, p_co_right])

    cond5 = equal_on_basis(
        "convolution_resolution",
        convolve(jp, compose(i, pi), amb.coalgebra, amb.algebra),
        identity(field, asp), (asp,))

    return CheckReport.combine(
        "admissible_system", [cond1, cond2, cond3, cond4, cond5],
        info=cond2.info)


def check_canonical_actions(sys: MappingSystem) -> CheckReport:
    """The carrier-level facts behind the canonical system: the displayed
    left/right actions are twisted modules against sigma-bar and together a
    weak bimodule, and they agree with the section-induced actions."""
    if sys.phi_left is None or sys.phi_right is None:
        raise ValueError("system carries no displayed actions")
    h = sys.hopf
    amb = sys.ambient
    carrier = amb.algebra
    left_ind, right_ind = induced_actions(sys)
    hsp, asp = h.space, amb.space
    return CheckReport.combine("canonical_actions", [
        check_twisted_module(h, carrier, sys.sigma_bar, sys.phi_left, "left"),
        check_twisted_module(h, carrier, sys.sigma_bar, sys.phi_right, "right"),
        check_weak_bimodule(h, amb.alpha, sys.phi_left, sys.phi_right),
        equal_on_basis("displayed_left_action_is_induced",
                       sys.phi_left, left_ind, (hsp, asp)),
        equal_on_basis("displayed_right_action_is_induced",
                       sys.phi_right, right_ind, (asp, hsp)),
    ])


def admissible_isomorphism(sys: MappingSystem, enforce: bool = True):
    """Build f(c (x) h) = gamma^{-1}(j(c) i(h)) and
    g(a) = beta(p(a1)) (x) alpha(pi(a2)), then verify they are mutually
    inverse, f is a Hom-algebra map, g a Hom-coalgebra map, and the
    projection/coaction exchange identity

        alpha^{m+1}(p(a1)(-1)) pi(a2) (x) beta(p(a1)(0))
            = alpha(pi(a1)) (x) p(a2)

    holds.  Returns (f, g, report); raises IsoCheckFailError on failure."""
    if enforce:
        adm = check_admissible(sys)
        if not adm.passed:
            raise NotAdmissibleError(adm)

    field = sys.field
    amb = sys.ambient
    b = sys.biproduct.bialgebra
    h = sys.hopf
    csp = sys.small_coalgebra.space
    hsp, asp = h.space, amb.space
    alpha, beta, gamma = h.alpha, sys.small_coalgebra.gamma, amb.alpha
    p, j, pi, i = sys.retr_C, sys.sect_C, sys.proj_H, sys.sect_H

    c, y, a = inputs(csp, hsp, asp)
    a1, a2 = split(amb.coalgebra.comult_map, a)
    f = compose(amb.algebra.alpha_inv, compile_map(
        field, (c, y), [amb.algebra.mult_map(j(c), i(y))]))
    g = compile_map(field, (a,), [compose(beta, p)(a1), compose(alpha, pi)(a2)])

    bsp = b.space
    xh, x0 = split(sys.biproduct.spec.coaction.coact_map, p(a1), hsp, csp)

    report = CheckReport.combine("biproduct_isomorphism", [
        equal_on_basis("roundtrip_on_ambient", compose(f, g),
                       identity(field, asp), (asp,)),
        equal_on_basis("roundtrip_on_biproduct", compose(g, f),
                       identity(field, bsp), (csp, hsp)),
        equal_on_basis("forward_structure_compat",
                       compose(f, b.alpha), compose(gamma, f), (csp, hsp)),
        *morphism_laws(f, b, amb, multiplicative="forward_multiplicative",
                       unital="forward_unital"),
        *morphism_laws(g, amb, b, comultiplicative="backward_comultiplicative",
                       counital="backward_counital"),
        holds(field, "projection_coaction_exchange", (a,),
              [h.algebra.mult_map(power(alpha, sys.m + 1)(xh), pi(a2)),
               beta(x0)],
              [compose(alpha, pi)(a1), p(a2)]),
    ])
    if not report.passed:
        raise IsoCheckFailError(f, g, report)
    return f, g, report
