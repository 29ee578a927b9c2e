"""Crossed products, smash coproducts, biproducts and their antipodes.

The two-parameter crossed product on A (x) H multiplies by

    (a # h)(b # g) = a[(alpha^m(h11) . beta^{-2}(b))
                       sigma(alpha^{k+1}(h12), alpha^k(g1))] # alpha(h2 g2)

and the one-parameter smash coproduct on A (x) H comultiplies by

    Delta(a >< h) = a1 >< alpha^m(a2(-1)) alpha^{-1}(h1)
                    (x) beta(a2(0)) >< h2,
    eps(a >< h) = eps(a) eps(h).

Every Sweedler-style formula here is written once as a term over its input
legs and compiled by ``sweedler.compile_map`` into splits, permutations,
structure-map powers and merges, never as a hand-expanded index loop; a
condition is one ``sweedler.holds`` call over those legs.
Constructions return the structure either way; the companion check_*
functions decide validity and name the first failing basis tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

from .convact import Coaction, Cocycle, ModuleAction
from .exactlin import (
    LinearMap,
    SCALAR_SPACE,
    compose,
    equal_on_basis,
    functional_as_map,
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
    convolution_unit,
    convolve,
    inverse_laws,
    morphism_laws,
    outer,
)
from .report import CheckReport
from .sweedler import compile_map, const, holds, inputs, split


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


def _same(a, b) -> bool:
    """Record equality that reads no structure constants when both sides
    are one object; the dataclass ``==`` unpacks every cube it compares."""
    return a is b or a == b


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
        h, a = self.hopf_bialgebra, self.algebra
        if not (_same(self.action.acting, h) and _same(self.cocycle.source, h)):
            raise ValueError("action and cocycle must be over the same H")
        if not (_same(self.action.target, a) and _same(self.cocycle.target, a)):
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
        if not _same(self.coaction.target, self.coalgebra):
            raise ValueError("coaction must target A's coalgebra half")
        if not _same(self.coaction.coacting, self.crossed.hopf_bialgebra):
            raise ValueError("coaction must be over the crossed product's H")

    @property
    def field(self):
        return self.crossed.field


def crossed_product(spec: CrossedProductSpec) -> HomAlgebra:
    """The algebra on A (x) H with the crossed multiplication, unit 1 # 1 and
    structure map beta (x) alpha.  No axioms are asserted here."""
    field, m, k = spec.field, spec.m, spec.k
    alg, hopf = spec.algebra, spec.hopf_bialgebra
    asp, hsp = alg.space, hopf.space
    alpha, beta = hopf.alpha, alg.alpha
    act, sig = spec.action.act_map, spec.cocycle.sigma_map
    ma, mh = alg.mult_map, hopf.algebra.mult_map
    dh = hopf.coalgebra.comult_map

    a, h, b, g = inputs(asp, hsp, asp, hsp)
    h1, h2 = split(dh, h)
    h11, h12 = split(dh, h1)
    g1, g2 = split(dh, g)
    mult = compile_map(field, (a, h, b, g), [
        ma(a, ma(act(power(alpha, m)(h11), power(beta, -2)(b)),
                 sig(power(alpha, k + 1)(h12), power(alpha, k)(g1)))),
        alpha(mh(h2, g2))])
    return HomAlgebra(field, tensor_space(asp, hsp), mult,
                      outer(alg.unit, hopf.algebra.unit), beta @ alpha)


def smash_product(a: HomAlgebra, h: HomBialgebra, action: ModuleAction,
                  m: int) -> HomAlgebra:
    """The one-parameter smash product: a(alpha^m(h1) . beta^{-1}(b)) # alpha(h2) g.
    This is what the crossed product collapses to when sigma is trivial."""
    field = a.field
    asp, hsp = a.space, h.space
    x, y, b, g = inputs(asp, hsp, asp, hsp)
    y1, y2 = split(h.coalgebra.comult_map, y)
    mult = compile_map(field, (x, y, b, g), [
        a.mult_map(x, action.act_map(power(h.alpha, m)(y1),
                                     power(a.alpha, -1)(b))),
        h.algebra.mult_map(h.alpha(y2), g)])
    return HomAlgebra(field, tensor_space(asp, hsp), mult,
                      outer(a.unit, h.algebra.unit), a.alpha @ h.alpha)


def check_cocycle_conditions(spec: CrossedProductSpec) -> CheckReport:
    """The three conditions equivalent to the crossed product being a
    Hom-algebra with unit 1 # 1: normality of sigma plus compatibility with
    the structure maps, the action-symmetry law, and the twisted
    2-cocycle law."""
    field, m, k = spec.field, spec.m, spec.k
    alg, hopf = spec.algebra, spec.hopf_bialgebra
    asp, hsp = alg.space, hopf.space
    alpha, beta = hopf.alpha, alg.alpha
    act, sig = spec.action.act_map, spec.cocycle.sigma_map
    ma, mh = alg.mult_map, hopf.algebra.mult_map
    dh = hopf.coalgebra.comult_map
    ak1, ak2 = power(alpha, k + 1), power(alpha, k + 2)

    h, l, g, a = inputs(hsp, hsp, hsp, asp)
    one = hopf.algebra.unit
    eps_unit = compose(alg.unit_map, hopf.coalgebra.counit_map)
    normal_right = holds(field, "cocycle_normal_on_right_unit", (h,),
                         [sig(h, const(hsp, one))], eps_unit)
    normal_left = holds(field, "cocycle_normal_on_left_unit", (h,),
                        [sig(const(hsp, one), h)], eps_unit)
    structure = holds(field, "cocycle_structure_compat", (h, l),
                      [sig(alpha(h), alpha(l))], compose(beta, sig))
    normality = CheckReport.combine(
        "cocycle_normality", [normal_right, normal_left, structure])

    (h1, h2), (l1, l2), (g1, g2) = split(dh, h), split(dh, l), split(dh, g)
    symmetry = holds(
        field, "cocycle_action_symmetry", (h, l, a),
        [ma(act(power(alpha, m)(mh(h1, l1)), a), sig(ak2(h2), ak2(l2)))],
        [ma(sig(ak2(h1), ak2(l1)), act(power(alpha, m)(mh(h2, l2)), a))])
    twisted_cocycle = holds(
        field, "cocycle_twisted_two_cocycle", (h, l, g),
        [ma(act(power(alpha, m + 1)(h1), sig(ak1(l1), ak1(g1))),
            sig(ak2(h2), ak1(mh(l2, g2))))],
        [ma(sig(ak2(h1), ak2(l1)), sig(ak1(mh(h2, l2)), ak1(g)))])

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
    x, y = inputs(asp, hsp)
    x1, x2 = split(coalg.comult_map, x)
    x2h, x20 = split(co.coact_map, x2, hsp, asp)
    y1, y2 = split(h.coalgebra.comult_map, y)
    comult = compile_map(field, (x, y), [
        x1, h.algebra.mult_map(power(alpha, m)(x2h), power(alpha, -1)(y1)),
        beta(x20), y2])
    return HomCoalgebra(field, tensor_space(asp, hsp), comult,
                        outer(coalg.counit, h.coalgebra.counit), beta @ alpha)


def check_twisted_comodule_cocycle(spec: BiproductSpec) -> CheckReport:
    """The compatibility between sigma and the coaction that a crossed
    product needs before it can carry the smash coproduct (both sides are
    maps A (x) H -> A (x) H (x) A)."""
    field, m, k = spec.field, spec.crossed.m, spec.crossed.k
    alg, hopf = spec.crossed.algebra, spec.crossed.hopf_bialgebra
    asp, hsp = alg.space, hopf.space
    alpha, beta = hopf.alpha, alg.alpha
    rho, sig = spec.coaction.coact_map, spec.crossed.cocycle.sigma_map
    ma, mh = alg.mult_map, hopf.algebra.mult_map
    da, dh = spec.coalgebra.comult_map, hopf.coalgebra.comult_map

    a, g = inputs(asp, hsp)
    a1, a2 = split(da, a)
    h, a20 = split(rho, a2, hsp, asp)
    h1, h2 = split(dh, h)
    g1, g2 = split(dh, g)
    return CheckReport.combine("twisted_comodule_cocycle", [holds(
        field, "twisted_comodule_cocycle_identity", (a, g),
        [beta(a1), mh(power(alpha, m + 1)(h), g), a20],
        [ma(a1, sig(power(alpha, k + m + 2)(h1), power(alpha, k + 1)(g1))),
         mh(power(alpha, m + 2)(h2), alpha(g2)), a20])])


def check_biproduct_conditions(spec: BiproductSpec) -> CheckReport:
    """The nine compatibility conditions that make the crossed product plus
    smash coproduct a Hom-bialgebra."""
    field, m, k = spec.field, spec.crossed.m, spec.crossed.k
    alg, hopf = spec.crossed.algebra, spec.crossed.hopf_bialgebra
    asp, hsp = alg.space, hopf.space
    alpha, beta = hopf.alpha, alg.alpha
    act = spec.crossed.action.act_map
    sig = spec.crossed.cocycle.sigma_map
    rho = spec.coaction.coact_map
    ma, mh = alg.mult_map, hopf.algebra.mult_map
    da, dh = spec.coalgebra.comult_map, hopf.coalgebra.comult_map
    eps_a = spec.coalgebra.counit_map
    counit_a, counit_h = spec.coalgebra.counit, hopf.coalgebra.counit

    # 1. the counit of A is a Hom-algebra map
    c1 = CheckReport.combine("counit_algebra_map", [
        equal_on_basis(
            "counit_multiplicative", compose(eps_a, ma),
            functional_as_map(field, tensor_space(asp, asp),
                              outer(counit_a, counit_a)),
            (asp, asp)),
        equal_on_basis(
            "counit_on_unit", compose(eps_a, alg.unit_map),
            identity(field, SCALAR_SPACE), (SCALAR_SPACE,)),
        equal_on_basis(
            "counit_structure_invariant", compose(eps_a, beta), eps_a, (asp,)),
    ])

    # 2. eps_A(h.a) = eps_H(h) eps_A(a)
    c2 = equal_on_basis(
        "action_counit_compat", compose(eps_a, act),
        functional_as_map(field, tensor_space(hsp, asp),
                          outer(counit_h, counit_a)),
        (hsp, asp))

    # 3. sigma is a Hom-coalgebra map from the pair coalgebra on H (x) H,
    # (h (x) g)1 (x) (h (x) g)2 = (h1 (x) g1) (x) (h2 (x) g2) — the same
    # coalgebra that defines convolution of bilinear maps
    h, g, a, b = inputs(hsp, hsp, asp, asp)
    (h1, h2), (g1, g2) = split(dh, h), split(dh, g)
    c3 = CheckReport.combine("cocycle_coalgebra_map", [
        holds(field, "cocycle_comult_compat", (h, g), compose(da, sig),
              [sig(h1, g1), sig(h2, g2)]),
        equal_on_basis(
            "cocycle_counit_compat", compose(eps_a, sig),
            functional_as_map(field, tensor_space(hsp, hsp),
                              outer(counit_h, counit_h)),
            (hsp, hsp)),
        holds(field, "cocycle_structure_compat", (h, g),
              [sig(alpha(h), alpha(g))], compose(beta, sig)),
    ])

    # 4. Delta_A(1) = 1 (x) 1
    c4 = equal_on_basis(
        "comult_preserves_unit", compose(da, alg.unit_map),
        vector_as_map(field, tensor_space(asp, asp), outer(alg.unit, alg.unit)),
        (SCALAR_SPACE,))

    # 5. the coaction is multiplicative and unital
    (am, a0), (bm, b0) = split(rho, a, hsp, asp), split(rho, b, hsp, asp)
    c5 = CheckReport.combine("coaction_algebra_map", [
        holds(field, "coaction_multiplicative", (a, b),
              compose(rho, ma), [mh(am, bm), ma(a0, b0)]),
        equal_on_basis(
            "coaction_on_unit", compose(rho, alg.unit_map),
            vector_as_map(field, tensor_space(hsp, asp),
                          outer(hopf.algebra.unit, alg.unit)),
            (SCALAR_SPACE,)),
    ])

    # 6. compatibility between sigma and the coaction
    ak1, ak2 = power(alpha, k + 1), power(alpha, k + 2)
    sm, s0 = split(rho, sig(ak2(h1), ak2(g1)), hsp, asp)
    c6 = holds(
        field, "cocycle_coaction_compat", (h, g),
        [mh(power(alpha, m - 1)(sm), power(alpha, -1)(mh(h2, g2))), s0],
        [mh(h1, g1), sig(ak1(h2), ak1(g2))])

    # 7. Delta_A is multiplicative up to the action, cocycle and coaction
    a1, a2 = split(da, a)
    a2m, a20 = split(rho, a2, hsp, asp)
    a2m1, a2m2 = split(dh, a2m)
    b1, b2 = split(da, b)
    b2m, b20 = split(rho, b2, hsp, asp)
    c7 = holds(
        field, "comult_twisted_multiplicative", (a, b), split(da, ma(a, b)),
        [ma(a1, ma(act(power(alpha, 2 * m)(a2m1), power(beta, -2)(b1)),
                   sig(power(alpha, k + m + 1)(a2m2),
                       power(alpha, k + m)(b2m)))),
         beta(ma(a20, b20))])

    # 8. Delta_A of an action value
    h11, h12 = split(dh, h1)
    c8 = holds(
        field, "comult_action_compat", (h, b),
        split(da, act(power(alpha, m)(h), b)),
        [ma(act(power(alpha, m)(h11), power(beta, -1)(b1)),
            sig(ak1(h12), power(alpha, k + m + 1)(b2m))),
         act(power(alpha, m)(h2), beta(b20))])

    # 9. the action and coaction braid past each other
    tm, t0 = split(rho, act(power(alpha, m + 1)(h1), b), hsp, asp)
    c9 = holds(field, "action_coaction_compat", (h, b),
               [mh(power(alpha, m - 1)(tm), h2), t0],
               [mh(h1, power(alpha, m)(bm)), act(power(alpha, m)(h2), b0)])

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
                      outer(sigma.target.unit, h.algebra.unit)),
        h.coalgebra.counit_map,
    )
    (z,) = inputs(hsp)
    z1, z2 = split(dh, z)

    def one_side(u, v):
        (u1, u2), (v1, v2) = split(dh, u), split(dh, v)
        return [sig(u1, v1), mh(u2, v2)]

    return CheckReport.combine("sigma_antipode", [
        *morphism_laws(s, h, h, structure_compat="sigma_antipode_alpha_commute"),
        holds(field, "sigma_antipode_right", (z,), one_side(z1, s(z2)), target),
        holds(field, "sigma_antipode_left", (z,), one_side(s(z1), z2), target),
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

    x, y = inputs(asp, hsp)
    xh, x0 = split(spec.coaction.coact_map, x, hsp, asp)
    w = h.algebra.mult_map(power(h.alpha, m - 1)(xh), power(h.alpha, -2)(y))
    return compile_map(field, (x, y), [bialgebra.algebra.mult_map(
        const(asp, a.unit), s_h(w), s_a(x0), const(hsp, h.algebra.unit))])


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
