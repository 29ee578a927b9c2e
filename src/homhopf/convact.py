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
Convolution (``convolve``, ``convolution_unit``) lives in ``homcore``; the
convolution-inverse solve lives here, and proves the inverse it finds with
one ``convolve``.
"""

from __future__ import annotations

import dataclasses

from .exactlin import (
    FieldMismatch,
    LinearMap,
    NoSolution,
    _gauss_jordan,
    compose,
    equal_on_basis,
    solve_linear,
    tensor_space,
)
from .homcore import (
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    StructureConstants,
    convolution_unit,
    convolve,
    inverse_laws,
)
from .report import CheckReport
from .sweedler import compile_map, const, holds, inputs, split


class NotConvolutionInvertible(ValueError):
    """The linear system for a convolution inverse is inconsistent."""

    def __init__(self, message, certificate: NoSolution | None = None):
        super().__init__(message)
        self.certificate = certificate


@dataclasses.dataclass(repr=False)
class ModuleAction:
    """An action of (H, alpha) on (A, beta), held as the map ``act_map``:
    H (x) A -> A and read as the cube ``act``, whose act[i][j][k] is the
    coefficient of a_k in h_i . a_j (``StructureConstants``).  Shapes only;
    the module laws are checkable."""

    acting: HomBialgebra
    target: HomAlgebra
    act: tuple = StructureConstants(
        lambda r: (r.acting.space, r.target.space, r.target.space))

    @property
    def field(self):
        return self.target.field

    def __repr__(self):
        return f"ModuleAction({self.acting.space.dim} on {self.target.space.dim})"


@dataclasses.dataclass(repr=False)
class Coaction:
    """A left coaction rho of (H, alpha) on a Hom-coalgebra (A, beta), held
    as the map ``coact_map``: A -> H (x) A and read as the cube ``coact``,
    whose coact[i][j][k] is the coefficient of h_j (x) a_k in rho(a_i)
    (``StructureConstants``)."""

    coacting: HomBialgebra
    target: HomCoalgebra
    coact: tuple = StructureConstants(
        lambda r: (r.target.space, r.coacting.space, r.target.space),
        splitting=True)

    @property
    def field(self):
        return self.target.field

    def __repr__(self):
        return f"Coaction({self.coacting.space.dim} on {self.target.space.dim})"


def _pair_into_target(cocycle):
    return cocycle.source.space, cocycle.source.space, cocycle.target.space


@dataclasses.dataclass(repr=False)
class Cocycle:
    """A bilinear map sigma: H (x) H -> A, held as the map ``sigma_map`` and
    read as the cube ``sigma``, whose sigma[i][j][k] is the coefficient of
    a_k in sigma(h_i, h_j) (``StructureConstants``).  ``inverse`` holds the
    convolution inverse once computed, a cube or a map like ``sigma`` and
    read as a cube, its map by ``inverse_map()``; equality ignores it."""

    source: HomBialgebra
    target: HomAlgebra
    sigma: tuple = StructureConstants(_pair_into_target)
    inverse: tuple | None = dataclasses.field(
        default=StructureConstants(_pair_into_target, optional=True),
        compare=False)

    @property
    def field(self):
        return self.target.field

    def inverse_map(self) -> LinearMap:
        if self._inverse_map is None:
            raise ValueError("cocycle inverse not computed; call cocycle_inverse")
        return self._inverse_map

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
    beta_inv = target.gamma_inv
    cube = [
        [[uh * beta_inv.matrix[k][i] for k in range(target.space.dim)]
         for uh in unit]
        for i in range(target.space.dim)
    ]
    return Coaction(coacting, target, cube)


def check_weak_module_algebra(action: ModuleAction) -> CheckReport:
    """h.(ab) = (h1.a)(h2.b) and h.1 = eps(h)1, swept over all basis tuples."""
    field = action.field
    hsp, asp = action.acting.space, action.target.space
    act = action.act_map
    m = action.target.mult_map
    d = action.acting.coalgebra.comult_map

    h, a, b = inputs(hsp, asp, asp)
    h1, h2 = split(d, h)
    multiplicative = holds(field, "action_distributes_over_product", (h, a, b),
                           [act(h, m(a, b))], [m(act(h1, a), act(h2, b))])
    unital = holds(field, "action_on_unit", (h,),
                   [act(h, const(asp, action.target.unit))],
                   compose(action.target.unit_map,
                           action.acting.coalgebra.counit_map))

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

    h, g, a = inputs(hsp, hsp, asp)
    assoc = holds(field, "module_associativity", (h, g, a),
                  [act(alpha(h), act(g, a))], [act(mh(h, g), beta(a))])
    compat = holds(field, "module_structure_compat", (h, a),
                   compose(beta, act), [act(alpha(h), beta(a))])
    unital = holds(field, "module_unit_law", (a,),
                   [act(const(hsp, action.acting.algebra.unit), a)], beta)

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
    beta_inv = co.target.gamma_inv

    (a,) = inputs(asp)
    h, a0 = split(rho, a, hsp, asp)
    h1, h2 = split(co.coacting.coalgebra.comult_map, h)
    a0h, a00 = split(rho, a0, hsp, asp)
    coassoc = holds(field, "comodule_coassociativity", (a,),
                    [h1, h2, beta_inv(a0)],
                    [co.coacting.algebra.alpha_inv(h), a0h, a00])

    counit_law = holds(field, "comodule_counit_law", (a,),
                       [co.coacting.coalgebra.counit_map(h), a0], beta_inv)

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

    (a,) = inputs(asp)
    h, a0 = split(rho, a, hsp, asp)
    a1, a2 = split(da, a)
    (h1, a10), (h2, a20) = split(rho, a1, hsp, asp), split(rho, a2, hsp, asp)
    comult_compat = holds(field, "coaction_comult_compat", (a,),
                          [h, *split(da, a0)], [mh(h1, h2), a10, a20])

    counit_rhs = compose(co.coacting.algebra.unit_map, co.target.counit_map)
    counit_compat = holds(field, "coaction_counit_compat", (a,),
                          [h, co.target.counit_map(a0)], counit_rhs)

    return CheckReport.combine(
        "comodule_coalgebra",
        [comodule, comult_compat, counit_compat],
    )


def _convolution_rows(f: LinearMap, coalg: HomCoalgebra, alg: HomAlgebra,
                      mirror: bool = False) -> list:
    """The coordinates of f*g, or with ``mirror`` of g*f, as {unknown: value}
    dicts of their nonzeros over the entries of g (row-major), i.e. the
    coordinates of g as a vector of A (x) C.  The operator is one term on
    g's legs a, c, which splits c by a mate of Delta_C into the leg f acts
    on and the output leg: ``[m(f(c1), a), x]`` by c2 -> sum Delta_c^{c1 c2}
    c1 (x) c, or ``[m(a, f(c2)), y]`` by c1 -> sum Delta_c^{c1 c2} c2 (x) c.
    """
    field, csp = alg.field, coalg.space
    if f.field != field:
        raise FieldMismatch(f"convolution: map over {f.field!r} into {field!r}")
    q, mate = csp.dim, {}
    for c, col in coalg.comult_map.nonzero_columns().items():
        for k, v in col.items():
            c1, c2 = divmod(k, q)
            leg, kept = (c1, c2) if mirror else (c2, c1)
            mate.setdefault(leg, {})[kept * q + c] = v
    a, c = inputs(alg.space, csp)
    fc, x = split(LinearMap._from_columns(
        coalg.field, csp, tensor_space(csp, csp), mate), c)
    m = alg.mult_map
    out = m(a, f(fc)) if mirror else m(f(fc), a)
    rows = [{} for _ in range(alg.space.dim * q)]
    for u, col in compile_map(field, (a, c), [out, x]).nonzero_columns().items():
        for eq, v in col.items():
            rows[eq][u] = v
    return rows


def _convolution_system(f: LinearMap, coalg: HomCoalgebra, alg: HomAlgebra,
                        fg_rows: list | None = None):
    """Linear system on the entries of g expressing f*g = e = g*f: the rows
    of f*g (``fg_rows`` if compiled already) on those of g*f, and the
    coordinates of e twice."""
    e = convolution_unit(coalg, alg)
    return ((fg_rows or _convolution_rows(f, coalg, alg))
            + _convolution_rows(f, coalg, alg, mirror=True),
            [v for row in e.matrix for v in row] * 2)


def convolution_inverse(f: LinearMap, coalg: HomCoalgebra,
                        alg: HomAlgebra) -> LinearMap:
    """Solve f * g = unit o eps = g * f for g exactly; raises
    NotConvolutionInvertible with the inconsistency certificate otherwise.

    Find, then prove: the f * g rows, one per unknown, are eliminated
    alone.  If every unknown is a pivot, they have one solution, the only
    candidate g, and f * g = e holds by the elimination; g is returned once
    ``convolve(g, f)`` is e, being then the one solution of the stacked
    system.  Otherwise the g * f rows are compiled and the stacked system
    is solved, and gives the solution or the certificate."""
    field, q, p = alg.field, coalg.space.dim, alg.space.dim
    n = p * q

    def as_map(entries):
        return LinearMap(field, coalg.space, alg.space,
                         [entries[r * q:(r + 1) * q] for r in range(p)])

    rows, e = _convolution_rows(f, coalg, alg), convolution_unit(coalg, alg)
    half = [dict(row) for row in rows]
    for c, col in e.nonzero_columns().items():
        for r, v in col.items():
            half[r * q + c][n] = v
    if len(_gauss_jordan(half, n, field.characteristic)) == n:
        g = as_map([row.get(n, 0) for row in half])
        if convolve(g, f, coalg, alg) == e:
            return g
    sol = solve_linear(field, *_convolution_system(f, coalg, alg, rows),
                       unknowns=n)
    if isinstance(sol, NoSolution):
        raise NotConvolutionInvertible(
            "no two-sided convolution inverse exists", certificate=sol)
    return as_map(sol)


def pair_coalgebra(h: HomBialgebra) -> HomCoalgebra:
    """The componentwise tensor coalgebra on H (x) H used to convolve
    bilinear maps (built once per bialgebra object and kept on it)."""
    return h.pair_coalgebra


def cocycle_inverse(sigma: Cocycle) -> Cocycle:
    """Populate sigma's convolution inverse over the tensor coalgebra on
    H (x) H; raises NotConvolutionInvertible if there is none."""
    coalg = pair_coalgebra(sigma.source)
    inv = convolution_inverse(sigma.sigma_map, coalg, sigma.target)
    return Cocycle(sigma.source, sigma.target, sigma.sigma_map, inverse=inv)


def check_cocycle_inverse(sigma: Cocycle) -> CheckReport:
    """sigma * sigma^{-1} = sigma^{-1} * sigma = unit o eps on H (x) H."""
    factors = (sigma.source.space, sigma.source.space)
    return CheckReport.combine("cocycle_inverse", inverse_laws(
        sigma.sigma_map, sigma.inverse_map(), pair_coalgebra(sigma.source),
        sigma.target, factors, "sigma_times_inverse", "inverse_times_sigma"))
