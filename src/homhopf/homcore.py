"""Hom-algebras, Hom-coalgebras, Hom-bialgebras, Hom-Hopf algebras as
structure-constant bundles, and exhaustive basis-level checkers for their
twisted axioms.

A Hom-algebra is an algebra whose associativity and unit laws carry a fixed
automorphism alpha:

    alpha(a)(bc) = (ab)alpha(c),   alpha(ab) = alpha(a)alpha(b),
    a 1 = 1 a = alpha(a),          alpha(1) = 1,

and dually for coalgebras with an automorphism gamma:

    c1 (x) c21 (x) gamma(c22) = gamma(c11) (x) c12 (x) c2    (coassociativity,
        checked in this expanded three-tensor form so both sides share one
        basis ordering),
    Delta(gamma(c)) = gamma(c1) (x) gamma(c2),
    c1 eps(c2) = gamma^{-1}(c) = eps(c1) c2,   eps(gamma(c)) = eps(c).

Structures only guarantee shapes (and invertibility of the structure map,
checked eagerly); the axioms are verified on demand by the check_* functions,
since representing broken structures and reporting exactly where they break
is the whole point.  Every axiom is multilinear, so passing on all basis
tuples implies the identity on the whole space.
"""

from __future__ import annotations

from functools import cached_property

from .exactlin import (
    LinearMap,
    NonInvertibleError,
    Pipeline,
    SCALAR_SPACE,
    Space,
    bilinear_as_map,
    compose,
    equal_on_basis,
    functional_as_map,
    identity,
    inverse,
    splitting_as_map,
    strip_scalar_leg,
    tensor_from_bilinear,
    tensor_from_splitting,
    tensor_space,
    vector_as_map,
)
from .report import CheckReport


class NotAutomorphism(ValueError):
    """A map required to be a (bi)algebra automorphism is not one."""

    def __init__(self, message, report: CheckReport | None = None):
        super().__init__(message)
        self.report = report


class TwistFailsAxiomsError(ValueError):
    """A twisted structure failed its own axiom suite (carries the report)."""

    def __init__(self, report: CheckReport):
        super().__init__(f"twisted structure fails axioms: {report.first_failure().name}")
        self.report = report


def mult_tensor_from_map(m: LinearMap, space: Space):
    """Recover the structure constants c[i][j][k] of a product map."""
    return tensor_from_bilinear(m, space, space, space)


def comult_tensor_from_map(d: LinearMap, space: Space):
    """Recover the structure constants d[i][j][k] of a coproduct map."""
    return tensor_from_splitting(d, space, space, space)


def _coerce_cube(field, space: Space, cube):
    n = space.dim
    out = tuple(
        tuple(tuple(field.coerce(v) for v in plane) for plane in slab)
        for slab in cube
    )
    if len(out) != n or any(len(s) != n for s in out) or any(
        len(p) != n for s in out for p in s
    ):
        raise ValueError(f"rank-3 tensor shape does not match dimension {n}")
    return out


def _coerce_vector(field, space: Space, vec):
    out = tuple(field.coerce(v) for v in vec)
    if len(out) != space.dim:
        raise ValueError("vector length does not match space dimension")
    return out


def _check_structure_map(space: Space, m: LinearMap, what: str):
    if m.domain != space or m.codomain != space:
        raise ValueError(f"{what} must be an endomorphism of the carrier space")
    inverse(m)  # eager invertibility check; raises NonInvertibleError


class HomAlgebra:
    """(A, m, 1, alpha): multiplication cube c[i][j][k], unit coordinates,
    and an invertible structure map."""

    def __init__(self, field, space: Space, mult, unit, alpha: LinearMap):
        self.field = field
        self.space = space
        self.mult = _coerce_cube(field, space, mult)
        self.unit = _coerce_vector(field, space, unit)
        self.alpha = alpha
        _check_structure_map(space, alpha, "structure map alpha")

    @cached_property
    def mult_map(self) -> LinearMap:
        return bilinear_as_map(self.field, self.space, self.space, self.space, self.mult)

    @cached_property
    def unit_map(self) -> LinearMap:
        return vector_as_map(self.field, self.space, self.unit)

    def __eq__(self, other):
        return (
            isinstance(other, HomAlgebra)
            and self.field == other.field
            and self.space == other.space
            and self.mult == other.mult
            and self.unit == other.unit
            and self.alpha == other.alpha
        )

    def __repr__(self):
        return f"HomAlgebra(dim={self.space.dim})"


class HomCoalgebra:
    """(C, Delta, eps, gamma): comultiplication cube d[i][j][k], counit
    coordinates, and an invertible structure map."""

    def __init__(self, field, space: Space, comult, counit, gamma: LinearMap):
        self.field = field
        self.space = space
        self.comult = _coerce_cube(field, space, comult)
        self.counit = _coerce_vector(field, space, counit)
        self.gamma = gamma
        _check_structure_map(space, gamma, "structure map gamma")

    @cached_property
    def comult_map(self) -> LinearMap:
        return splitting_as_map(self.field, self.space, self.space, self.space, self.comult)

    @cached_property
    def counit_map(self) -> LinearMap:
        return functional_as_map(self.field, self.space, self.counit)

    def __eq__(self, other):
        return (
            isinstance(other, HomCoalgebra)
            and self.field == other.field
            and self.space == other.space
            and self.comult == other.comult
            and self.counit == other.counit
            and self.gamma == other.gamma
        )

    def __repr__(self):
        return f"HomCoalgebra(dim={self.space.dim})"


class HomBialgebra:
    """Algebra and coalgebra on one space sharing one structure map."""

    def __init__(self, algebra: HomAlgebra, coalgebra: HomCoalgebra):
        if algebra.space != coalgebra.space:
            raise ValueError("bialgebra halves live on different spaces")
        if algebra.alpha != coalgebra.gamma:
            raise ValueError("bialgebra halves carry different structure maps")
        self.algebra = algebra
        self.coalgebra = coalgebra

    @property
    def field(self):
        return self.algebra.field

    @property
    def space(self) -> Space:
        return self.algebra.space

    @property
    def alpha(self) -> LinearMap:
        return self.algebra.alpha

    def __eq__(self, other):
        return (
            isinstance(other, HomBialgebra)
            and self.algebra == other.algebra
            and self.coalgebra == other.coalgebra
        )

    def __repr__(self):
        return f"HomBialgebra(dim={self.space.dim})"


class HomHopf:
    """A Hom-bialgebra with an antipode (convolution inverse of the identity)."""

    def __init__(self, bialgebra: HomBialgebra, antipode: LinearMap):
        if antipode.domain != bialgebra.space or antipode.codomain != bialgebra.space:
            raise ValueError("antipode must be an endomorphism of the carrier")
        self.bialgebra = bialgebra
        self.antipode = antipode

    @property
    def field(self):
        return self.bialgebra.field

    @property
    def space(self) -> Space:
        return self.bialgebra.space

    @property
    def alpha(self) -> LinearMap:
        return self.bialgebra.alpha

    @property
    def algebra(self) -> HomAlgebra:
        return self.bialgebra.algebra

    @property
    def coalgebra(self) -> HomCoalgebra:
        return self.bialgebra.coalgebra

    def __eq__(self, other):
        return (
            isinstance(other, HomHopf)
            and self.bialgebra == other.bialgebra
            and self.antipode == other.antipode
        )

    def __repr__(self):
        return f"HomHopf(dim={self.space.dim})"


def tensor_algebra(a: HomAlgebra, b: HomAlgebra) -> HomAlgebra:
    """Componentwise algebra on A (x) B with structure map alpha (x) beta."""
    field = a.field
    space = tensor_space(a.space, b.space)
    legs = [a.space, b.space, a.space, b.space]
    mult = (
        Pipeline(field, legs)
        .permute([0, 2, 1, 3])
        .merge_legs(0, 2, a.mult_map)
        .merge_legs(1, 2, b.mult_map)
        .finish()
    )
    unit = [va * vb for va in a.unit for vb in b.unit]
    return HomAlgebra(field, space, mult_tensor_from_map(mult, space), unit,
                      a.alpha @ b.alpha)


def tensor_coalgebra(c: HomCoalgebra, d: HomCoalgebra) -> HomCoalgebra:
    """Componentwise coalgebra on C (x) D with structure map gamma (x) delta."""
    field = c.field
    space = tensor_space(c.space, d.space)
    comult = (
        Pipeline(field, [c.space, d.space])
        .split_leg(0, c.comult_map, c.space, c.space)
        .split_leg(2, d.comult_map, d.space, d.space)
        .permute([0, 2, 1, 3])
        .finish()
    )
    counit = [vc * vd for vc in c.counit for vd in d.counit]
    return HomCoalgebra(field, space, comult_tensor_from_map(comult, space),
                        counit, c.gamma @ d.gamma)


def check_hom_algebra(a: HomAlgebra) -> CheckReport:
    """Verify twisted associativity, multiplicativity of alpha, the twisted
    unit laws, and alpha(1) = 1, sweeping all basis tuples."""
    field, sp = a.field, a.space
    m, alpha, unit = a.mult_map, a.alpha, a.unit_map

    lhs = Pipeline(field, [sp, sp, sp]).map_leg(0, alpha) \
        .merge_legs(1, 2, m).merge_legs(0, 2, m).finish()
    rhs = Pipeline(field, [sp, sp, sp]).merge_legs(0, 2, m) \
        .map_leg(1, alpha).merge_legs(0, 2, m).finish()
    assoc = equal_on_basis("hom_associativity", lhs, rhs, (sp, sp, sp))

    lhs = compose(alpha, m)
    rhs = Pipeline(field, [sp, sp]).map_leg(0, alpha).map_leg(1, alpha) \
        .merge_legs(0, 2, m).finish()
    alpha_mult = equal_on_basis("alpha_multiplicative", lhs, rhs, (sp, sp))

    right_unit = equal_on_basis(
        "right_unit_law",
        Pipeline(field, [sp]).adjoin_vector(1, sp, a.unit).merge_legs(0, 2, m).finish(),
        alpha, (sp,),
    )
    left_unit = equal_on_basis(
        "left_unit_law",
        Pipeline(field, [sp]).adjoin_vector(0, sp, a.unit).merge_legs(0, 2, m).finish(),
        alpha, (sp,),
    )
    alpha_unit = equal_on_basis(
        "alpha_fixes_unit", compose(alpha, unit), unit, (SCALAR_SPACE,)
    )

    return CheckReport.combine(
        "hom_algebra", [assoc, alpha_mult, right_unit, left_unit, alpha_unit]
    )


def check_hom_coalgebra(c: HomCoalgebra) -> CheckReport:
    """Verify twisted coassociativity (in its expanded three-tensor form),
    comultiplicativity of gamma, the twisted counit laws, and eps o gamma = eps."""
    field, sp = c.field, c.space
    d, gamma, counit = c.comult_map, c.gamma, c.counit_map

    lhs = Pipeline(field, [sp]).split_leg(0, d, sp, sp) \
        .split_leg(1, d, sp, sp).map_leg(2, gamma).finish()
    rhs = Pipeline(field, [sp]).split_leg(0, d, sp, sp) \
        .split_leg(0, d, sp, sp).map_leg(0, gamma).finish()
    coassoc = equal_on_basis("hom_coassociativity", lhs, rhs, (sp,))

    lhs = compose(d, gamma)
    rhs = Pipeline(field, [sp]).split_leg(0, d, sp, sp) \
        .map_leg(0, gamma).map_leg(1, gamma).finish()
    gamma_comult = equal_on_basis("gamma_comultiplicative", lhs, rhs, (sp,))

    gamma_inv = inverse(gamma)
    right_counit = equal_on_basis(
        "right_counit_law",
        strip_scalar_leg(
            Pipeline(field, [sp]).split_leg(0, d, sp, sp)
            .map_leg(1, counit).finish(), sp),
        gamma_inv, (sp,),
    )
    left_counit = equal_on_basis(
        "left_counit_law",
        strip_scalar_leg(
            Pipeline(field, [sp]).split_leg(0, d, sp, sp)
            .map_leg(0, counit).finish(), sp),
        gamma_inv, (sp,),
    )
    counit_gamma = equal_on_basis(
        "counit_gamma_invariant", compose(counit, gamma), counit, (sp,)
    )

    return CheckReport.combine(
        "hom_coalgebra",
        [coassoc, gamma_comult, right_counit, left_counit, counit_gamma],
    )


def check_hom_bialgebra(b: HomBialgebra) -> CheckReport:
    """Both halves plus: Delta and eps are morphisms of Hom-algebras."""
    field, sp = b.field, b.space
    alg, coa = b.algebra, b.coalgebra
    m, d = alg.mult_map, coa.comult_map

    alg_report = check_hom_algebra(alg)
    coa_report = check_hom_coalgebra(coa)

    lhs = compose(d, m)
    rhs = (
        Pipeline(field, [sp, sp])
        .split_leg(0, d, sp, sp)
        .split_leg(2, d, sp, sp)
        .permute([0, 2, 1, 3])
        .merge_legs(0, 2, m)
        .merge_legs(1, 2, m)
        .finish()
    )
    comult_mult = equal_on_basis("comult_multiplicative", lhs, rhs, (sp, sp))

    unit_kron = [va * vb for va in alg.unit for vb in alg.unit]
    comult_unit = equal_on_basis(
        "comult_preserves_unit",
        compose(d, alg.unit_map),
        vector_as_map(field, tensor_space(sp, sp), unit_kron),
        (SCALAR_SPACE,),
    )

    eps_kron = [va * vb for va in coa.counit for vb in coa.counit]
    counit_mult = equal_on_basis(
        "counit_multiplicative",
        compose(coa.counit_map, m),
        functional_as_map(field, tensor_space(sp, sp), eps_kron),
        (sp, sp),
    )
    counit_unit = equal_on_basis(
        "counit_preserves_unit",
        compose(coa.counit_map, alg.unit_map),
        identity(field, SCALAR_SPACE),
        (SCALAR_SPACE,),
    )

    return CheckReport.combine(
        "hom_bialgebra",
        [alg_report, coa_report, comult_mult, comult_unit, counit_mult, counit_unit],
    )


def check_antipode(h: HomHopf) -> CheckReport:
    """S(h1)h2 = eps(h)1 = h1 S(h2) on every basis vector, plus S alpha = alpha S."""
    field, sp = h.field, h.space
    m, d = h.algebra.mult_map, h.coalgebra.comult_map
    s = h.antipode
    target = compose(h.algebra.unit_map, h.coalgebra.counit_map)

    left = Pipeline(field, [sp]).split_leg(0, d, sp, sp) \
        .map_leg(0, s).merge_legs(0, 2, m).finish()
    right = Pipeline(field, [sp]).split_leg(0, d, sp, sp) \
        .map_leg(1, s).merge_legs(0, 2, m).finish()

    return CheckReport.combine("hom_antipode", [
        equal_on_basis("antipode_left", left, target, (sp,)),
        equal_on_basis("antipode_right", right, target, (sp,)),
        equal_on_basis("antipode_alpha_commute",
                       compose(s, h.alpha), compose(h.alpha, s), (sp,)),
    ])


def check_bialgebra_automorphism(b: HomBialgebra, phi: LinearMap) -> CheckReport:
    """Is phi an invertible map preserving product, coproduct, unit and counit?"""
    field, sp = b.field, b.space
    m, d = b.algebra.mult_map, b.coalgebra.comult_map
    try:
        inverse(phi)
        invertible: CheckReport = CheckReport("invertible", True)
    except NonInvertibleError:
        invertible = CheckReport("invertible", False)

    mult_compat = equal_on_basis(
        "phi_multiplicative",
        compose(phi, m),
        Pipeline(field, [sp, sp]).map_leg(0, phi).map_leg(1, phi)
        .merge_legs(0, 2, m).finish(),
        (sp, sp),
    )
    comult_compat = equal_on_basis(
        "phi_comultiplicative",
        compose(d, phi),
        Pipeline(field, [sp]).split_leg(0, d, sp, sp)
        .map_leg(0, phi).map_leg(1, phi).finish(),
        (sp,),
    )
    unit_compat = equal_on_basis(
        "phi_fixes_unit", compose(phi, b.algebra.unit_map), b.algebra.unit_map,
        (SCALAR_SPACE,),
    )
    counit_compat = equal_on_basis(
        "phi_preserves_counit", compose(b.coalgebra.counit_map, phi),
        b.coalgebra.counit_map, (sp,),
    )
    return CheckReport.combine(
        "bialgebra_automorphism",
        [invertible, mult_compat, comult_compat, unit_compat, counit_compat],
    )


def yau_twist(h: HomHopf, phi: LinearMap) -> HomHopf:
    """Twist a classical Hopf algebra (alpha = id) along one of its bialgebra
    automorphisms: new product phi o m, new coproduct (phi^{-1} (x) phi^{-1}) o Delta,
    same unit, counit and antipode, structure map phi.

    The automorphism property is checked up front, and the twisted structure
    is re-verified (bialgebra axioms and antipode law) before it is returned.
    """
    field, sp = h.field, h.space
    if h.alpha != identity(field, sp):
        raise NotAutomorphism("twist input must be classical (structure map = id)")
    auto = check_bialgebra_automorphism(h.bialgebra, phi)
    if not auto.passed:
        raise NotAutomorphism(
            f"twist map fails {auto.first_failure().name}", report=auto
        )

    phi_inv = inverse(phi)
    new_mult = compose(phi, h.algebra.mult_map)
    new_comult = compose(phi_inv @ phi_inv, h.coalgebra.comult_map)

    algebra = HomAlgebra(field, sp, mult_tensor_from_map(new_mult, sp),
                         h.algebra.unit, phi)
    coalgebra = HomCoalgebra(field, sp, comult_tensor_from_map(new_comult, sp),
                             h.coalgebra.counit, phi)
    twisted = HomHopf(HomBialgebra(algebra, coalgebra), h.antipode)

    verify = CheckReport.combine("twist_verification", [
        check_hom_bialgebra(twisted.bialgebra),
        check_antipode(twisted),
    ])
    if not verify.passed:
        raise TwistFailsAxiomsError(verify)
    return twisted
