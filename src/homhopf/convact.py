"""Actions, coactions, cocycles, and the convolution algebra.

The bilinear data layer between plain Hom-structures and the crossed-product
and biproduct constructions:

  * ``ModuleAction``  — an action of a Hom-bialgebra (H, alpha) on a
    Hom-algebra (A, beta), stored as structure constants of H (x) A -> A;
  * ``Coaction``      — a left coaction rho: A -> H (x) A;
  * ``Cocycle``       — a bilinear map sigma: H (x) H -> A, optionally with
    its convolution inverse.

Left-comodule axioms are the exact mirror of the right-comodule ones:

    Delta_H(a(-1)) (x) beta^{-1}(a(0)) = alpha^{-1}(a(-1)) (x) rho(a(0)),
    eps(a(-1)) a(0) = beta^{-1}(a),
    rho(beta(a)) = (alpha (x) beta) rho(a).

These are the forms under which H coacting on itself by its own
comultiplication satisfies the comodule laws, which pins the convention.

Convolution of f, g: C -> A is m_A o (f (x) g) o Delta_C.  For bilinear maps
out of H (x) H, the coalgebra used is the componentwise tensor coalgebra
(Delta interleaved with the middle flip, structure map alpha (x) alpha).
"""

from __future__ import annotations

from functools import cached_property

from .exactlin import (
    FieldMismatch,
    LinearMap,
    NoSolution,
    Pipeline,
    bilinear_as_map,
    compose,
    equal_on_basis,
    inverse,
    solve_linear,
    splitting_as_map,
    strip_scalar_leg,
    tensor_from_bilinear,
    transpose,
)
from .homcore import HomAlgebra, HomBialgebra, HomCoalgebra
from .report import CheckReport


class NotConvolutionInvertible(ValueError):
    """The linear system for a convolution inverse is inconsistent."""

    def __init__(self, message, certificate: NoSolution | None = None):
        super().__init__(message)
        self.certificate = certificate


def _coerce_box(field, d1, d2, d3, cube):
    out = tuple(
        tuple(tuple(field.coerce(v) for v in plane) for plane in slab)
        for slab in cube
    )
    if len(out) != d1 or any(len(s) != d2 for s in out) or any(
        len(p) != d3 for s in out for p in s
    ):
        raise ValueError(f"rank-3 tensor shape does not match {d1}x{d2}x{d3}")
    return out


class ModuleAction:
    """An action of (H, alpha) on (A, beta): act[i][j][k] is the coefficient
    of a_k in h_i . a_j.  Shapes only; the module laws are checkable."""

    def __init__(self, acting: HomBialgebra, target: HomAlgebra, act):
        self.acting = acting
        self.target = target
        self.act = _coerce_box(
            target.field, acting.space.dim, target.space.dim, target.space.dim, act
        )

    @property
    def field(self):
        return self.target.field

    @cached_property
    def act_map(self) -> LinearMap:
        return bilinear_as_map(
            self.field, self.acting.space, self.target.space, self.target.space,
            self.act,
        )

    def __eq__(self, other):
        return (
            isinstance(other, ModuleAction)
            and self.acting == other.acting
            and self.target == other.target
            and self.act == other.act
        )

    def __repr__(self):
        return f"ModuleAction({self.acting.space.dim} on {self.target.space.dim})"


class Coaction:
    """A left coaction rho of (H, alpha) on a Hom-coalgebra (A, beta):
    coact[i][j][k] is the coefficient of h_j (x) a_k in rho(a_i)."""

    def __init__(self, coacting: HomBialgebra, target: HomCoalgebra, coact):
        self.coacting = coacting
        self.target = target
        self.coact = _coerce_box(
            target.field, target.space.dim, coacting.space.dim, target.space.dim,
            coact,
        )

    @property
    def field(self):
        return self.target.field

    @cached_property
    def coact_map(self) -> LinearMap:
        return splitting_as_map(
            self.field, self.target.space, self.coacting.space, self.target.space,
            self.coact,
        )

    def __eq__(self, other):
        return (
            isinstance(other, Coaction)
            and self.coacting == other.coacting
            and self.target == other.target
            and self.coact == other.coact
        )

    def __repr__(self):
        return f"Coaction({self.coacting.space.dim} on {self.target.space.dim})"


class Cocycle:
    """A bilinear map sigma: H (x) H -> A; sigma[i][j][k] is the coefficient
    of a_k in sigma(h_i, h_j).  ``inverse`` holds the convolution inverse
    once computed."""

    def __init__(self, source: HomBialgebra, target: HomAlgebra, sigma,
                 inverse=None):
        self.source = source
        self.target = target
        n, p = source.space.dim, target.space.dim
        self.sigma = _coerce_box(target.field, n, n, p, sigma)
        self.inverse = None if inverse is None else _coerce_box(
            target.field, n, n, p, inverse)

    @property
    def field(self):
        return self.target.field

    @cached_property
    def sigma_map(self) -> LinearMap:
        return bilinear_as_map(
            self.field, self.source.space, self.source.space, self.target.space,
            self.sigma,
        )

    def inverse_map(self) -> LinearMap:
        if self.inverse is None:
            raise ValueError("cocycle inverse not computed; call cocycle_inverse")
        return bilinear_as_map(
            self.field, self.source.space, self.source.space, self.target.space,
            self.inverse,
        )

    def __eq__(self, other):
        return (
            isinstance(other, Cocycle)
            and self.source == other.source
            and self.target == other.target
            and self.sigma == other.sigma
        )

    def __repr__(self):
        return f"Cocycle({self.source.space.dim}^2 -> {self.target.space.dim})"


def trivial_cocycle(source: HomBialgebra, target: HomAlgebra) -> Cocycle:
    """sigma(h, g) = eps(h) eps(g) 1_A."""
    eps = source.coalgebra.counit
    unit = target.unit
    cube = [
        [[eh * eg * u for u in unit] for eg in eps]
        for eh in eps
    ]
    return Cocycle(source, target, cube)


def trivial_action(acting: HomBialgebra, target: HomAlgebra) -> ModuleAction:
    """h . a = eps(h) beta(a)."""
    eps = acting.coalgebra.counit
    beta = target.alpha
    cube = [
        [[eh * beta.matrix[k][j] for k in range(target.space.dim)]
         for j in range(target.space.dim)]
        for eh in eps
    ]
    return ModuleAction(acting, target, cube)


def trivial_coaction(coacting: HomBialgebra, target: HomCoalgebra) -> Coaction:
    """rho(a) = 1_H (x) beta^{-1}(a) (the mirror counit law forces beta^{-1})."""
    unit = coacting.algebra.unit
    beta_inv = inverse(target.gamma)
    cube = [
        [[uh * beta_inv.matrix[k][i] for k in range(target.space.dim)]
         for uh in unit]
        for i in range(target.space.dim)
    ]
    return Coaction(coacting, target, cube)


def self_coaction(h: HomBialgebra) -> Coaction:
    """H coacting on itself by its comultiplication."""
    return Coaction(h, h.coalgebra, h.coalgebra.comult)


def check_weak_module_algebra(action: ModuleAction) -> CheckReport:
    """h.(ab) = (h1.a)(h2.b) and h.1 = eps(h)1, swept over all basis tuples."""
    field = action.field
    hsp, asp = action.acting.space, action.target.space
    act = action.act_map
    m = action.target.mult_map
    d = action.acting.coalgebra.comult_map

    lhs = Pipeline(field, [hsp, asp, asp]).merge_legs(1, 2, m) \
        .merge_legs(0, 2, act).finish()
    rhs = (
        Pipeline(field, [hsp, asp, asp])
        .split_leg(0, d, hsp, hsp)
        .permute([0, 2, 1, 3])
        .merge_legs(0, 2, act)
        .merge_legs(1, 2, act)
        .merge_legs(0, 2, m)
        .finish()
    )
    multiplicative = equal_on_basis(
        "action_distributes_over_product", lhs, rhs, (hsp, asp, asp))

    unit_lhs = Pipeline(field, [hsp]).adjoin_vector(1, asp, action.target.unit) \
        .merge_legs(0, 2, act).finish()
    unit_rhs = compose(action.target.unit_map,
                       action.acting.coalgebra.counit_map)
    unital = equal_on_basis("action_on_unit", unit_lhs, unit_rhs, (hsp,))

    return CheckReport.combine("weak_module_algebra", [multiplicative, unital])


def check_hom_module(action: ModuleAction) -> CheckReport:
    """The left Hom-module laws: alpha(h).(g.a) = (hg).beta(a),
    beta(h.a) = alpha(h).beta(a), and 1.a = beta(a)."""
    field = action.field
    hsp, asp = action.acting.space, action.target.space
    act = action.act_map
    alpha = action.acting.alpha
    beta = action.target.alpha
    mh = action.acting.algebra.mult_map

    lhs = Pipeline(field, [hsp, hsp, asp]).map_leg(0, alpha) \
        .merge_legs(1, 2, act).merge_legs(0, 2, act).finish()
    rhs = Pipeline(field, [hsp, hsp, asp]).merge_legs(0, 2, mh) \
        .map_leg(1, beta).merge_legs(0, 2, act).finish()
    assoc = equal_on_basis("module_associativity", lhs, rhs, (hsp, hsp, asp))

    lhs = compose(beta, act)
    rhs = Pipeline(field, [hsp, asp]).map_leg(0, alpha).map_leg(1, beta) \
        .merge_legs(0, 2, act).finish()
    compat = equal_on_basis("module_structure_compat", lhs, rhs, (hsp, asp))

    unit_lhs = Pipeline(field, [asp]) \
        .adjoin_vector(0, hsp, action.acting.algebra.unit) \
        .merge_legs(0, 2, act).finish()
    unital = equal_on_basis("module_unit_law", unit_lhs, beta, (asp,))

    return CheckReport.combine("hom_module", [assoc, compat, unital])


def check_hom_comodule(co: Coaction) -> CheckReport:
    """The left Hom-comodule laws alone (coassociativity, counit law, and
    compatibility with the structure maps).  A bialgebra coacting on itself
    by its comultiplication always satisfies these."""
    field = co.field
    hsp = co.coacting.space
    asp = co.target.space
    rho = co.coact_map
    alpha = co.coacting.alpha
    beta = co.target.gamma
    beta_inv = inverse(beta)

    lhs = Pipeline(field, [asp]).split_leg(0, rho, hsp, asp) \
        .split_leg(0, co.coacting.coalgebra.comult_map, hsp, hsp) \
        .map_leg(2, beta_inv).finish()
    rhs = Pipeline(field, [asp]).split_leg(0, rho, hsp, asp) \
        .map_leg(0, inverse(alpha)).split_leg(1, rho, hsp, asp).finish()
    coassoc = equal_on_basis("comodule_coassociativity", lhs, rhs, (asp,))

    counit_lhs = strip_scalar_leg(
        Pipeline(field, [asp]).split_leg(0, rho, hsp, asp)
        .map_leg(0, co.coacting.coalgebra.counit_map).finish(), asp)
    counit_law = equal_on_basis("comodule_counit_law", counit_lhs, beta_inv, (asp,))

    compat = equal_on_basis(
        "comodule_structure_compat",
        compose(rho, beta),
        compose(alpha @ beta, rho),
        (asp,),
    )
    return CheckReport.combine(
        "hom_comodule", [coassoc, counit_law, compat])


def check_comodule_coalgebra(co: Coaction) -> CheckReport:
    """Left Hom-comodule laws plus comodule-coalgebra compatibility:
    a(-1) (x) a(0)1 (x) a(0)2 = a1(-1) a2(-1) (x) a1(0) (x) a2(0) and
    eps(a(0)) a(-1) = eps(a) 1_H."""
    field = co.field
    hsp = co.coacting.space
    asp = co.target.space
    rho = co.coact_map
    mh = co.coacting.algebra.mult_map
    da = co.target.comult_map

    comodule = check_hom_comodule(co)

    lhs = Pipeline(field, [asp]).split_leg(0, rho, hsp, asp) \
        .split_leg(1, da, asp, asp).finish()
    rhs = (
        Pipeline(field, [asp])
        .split_leg(0, da, asp, asp)
        .split_leg(0, rho, hsp, asp)
        .split_leg(2, rho, hsp, asp)
        .permute([0, 2, 1, 3])
        .merge_legs(0, 2, mh)
        .finish()
    )
    comult_compat = equal_on_basis("coaction_comult_compat", lhs, rhs, (asp,))

    counit_rhs = compose(co.coacting.algebra.unit_map, co.target.counit_map)
    counit_lhs = strip_scalar_leg(
        Pipeline(field, [asp]).split_leg(0, rho, hsp, asp)
        .map_leg(1, co.target.counit_map).finish(), hsp)
    counit_compat = equal_on_basis(
        "coaction_counit_compat", counit_lhs, counit_rhs, (asp,))

    return CheckReport.combine(
        "comodule_coalgebra",
        [comodule, comult_compat, counit_compat],
    )


def convolve(f: LinearMap, g: LinearMap, coalg: HomCoalgebra,
             alg: HomAlgebra) -> LinearMap:
    """f * g = m_A o (f (x) g) o Delta_C for f, g: C -> A."""
    csp, asp = coalg.space, alg.space
    if f.domain != csp or g.domain != csp or f.codomain != asp or g.codomain != asp:
        raise ValueError("convolution factors must map the coalgebra into the algebra")
    return (
        Pipeline(alg.field, [csp])
        .split_leg(0, coalg.comult_map, csp, csp)
        .map_leg(0, f)
        .map_leg(1, g)
        .merge_legs(0, 2, alg.mult_map)
        .finish()
    )


def convolution_unit(coalg: HomCoalgebra, alg: HomAlgebra) -> LinearMap:
    """The convolution identity element: unit_A o eps_C."""
    return compose(alg.unit_map, coalg.counit_map)


def _convolution_system(f: LinearMap, coalg: HomCoalgebra, alg: HomAlgebra):
    """Linear system on the entries of g expressing f*g = e = g*f.

    Unknowns are the entries of g (row-major), i.e. the coordinates of g as
    a vector of A (x) C; equations stack the coordinates of f*g - e and
    g*f - e over every basis vector of C.  Each of g -> f*g and g -> g*f is
    compiled as one operator on A (x) C: adjoin f as a vector of A (x) C,
    multiply the two A legs, and merge the two C legs with the transpose of
    Delta_C.  Rows are returned as {unknown: value} dicts of their nonzeros.
    """
    field = alg.field
    if f.field != field:
        raise FieldMismatch(f"convolution: map over {f.field!r} into {field!r}")
    csp, asp = coalg.space, alg.space
    q, p = csp.dim, asp.dim
    fvec = [v for row in f.matrix for v in row]
    dt = transpose(coalg.comult_map)
    e = convolution_unit(coalg, alg)
    rows = [{} for _ in range(2 * p * q)]
    # f adjoined before the legs (A_g, C_g) of g gives f*g, after them g*f
    for offset, at in ((0, 0), (p * q, 2)):
        columns = (
            Pipeline(field, [asp, csp])
            .adjoin_vector(at, [asp, csp], fvec)
            .permute([0, 2, 1, 3])
            .merge_legs(0, 2, alg.mult_map)
            .merge_legs(1, 2, dt)
            .sparse_columns()
        )
        for u, col in enumerate(columns):
            for eq, v in col.items():
                rows[offset + eq][u] = v
    rhs = [v for row in e.matrix for v in row] * 2
    return rows, rhs


def convolution_inverse(f: LinearMap, coalg: HomCoalgebra,
                        alg: HomAlgebra) -> LinearMap:
    """Solve f * g = unit o eps = g * f for g exactly; raises
    NotConvolutionInvertible with the inconsistency certificate otherwise."""
    field = alg.field
    q, p = coalg.space.dim, alg.space.dim
    rows, rhs = _convolution_system(f, coalg, alg)
    sol = solve_linear(field, rows, rhs, unknowns=p * q)
    if isinstance(sol, NoSolution):
        raise NotConvolutionInvertible(
            "no two-sided convolution inverse exists", certificate=sol)
    matrix = [sol[r * q:(r + 1) * q] for r in range(p)]
    return LinearMap._trusted(field, coalg.space, alg.space, matrix)


def pair_coalgebra(h: HomBialgebra) -> HomCoalgebra:
    """The componentwise tensor coalgebra on H (x) H used to convolve
    bilinear maps."""
    from .homcore import tensor_coalgebra

    return tensor_coalgebra(h.coalgebra, h.coalgebra)


def cocycle_inverse(sigma: Cocycle) -> Cocycle:
    """Populate sigma's convolution inverse over the tensor coalgebra on
    H (x) H; raises NotConvolutionInvertible if there is none."""
    coalg = pair_coalgebra(sigma.source)
    inv = convolution_inverse(sigma.sigma_map, coalg, sigma.target)
    hsp, asp = sigma.source.space, sigma.target.space
    cube = tensor_from_bilinear(inv, hsp, hsp, asp)
    return Cocycle(sigma.source, sigma.target, sigma.sigma, inverse=cube)


def check_cocycle_inverse(sigma: Cocycle) -> CheckReport:
    """sigma * sigma^{-1} = sigma^{-1} * sigma = unit o eps on H (x) H."""
    coalg = pair_coalgebra(sigma.source)
    alg = sigma.target
    e = convolution_unit(coalg, alg)
    s, si = sigma.sigma_map, sigma.inverse_map()
    factors = (sigma.source.space, sigma.source.space)
    return CheckReport.combine("cocycle_inverse", [
        equal_on_basis("sigma_times_inverse",
                       convolve(s, si, coalg, alg), e, factors),
        equal_on_basis("inverse_times_sigma",
                       convolve(si, s, coalg, alg), e, factors),
    ])
