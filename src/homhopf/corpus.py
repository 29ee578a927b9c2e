"""Built-in verified instances: Sweedler's four-dimensional Hopf algebra and
its twist, group algebras of small cyclic groups, the dual numbers, the
worked crossed-product example over the twisted Sweedler algebra, and a
classical biproduct datum.  These power the golden tests and the CLI
selftest; every golden verdict is reproducible by re-running the named check.
Each table is written once, as its nonzero {(i, j, k): coefficient} entries.
"""

from __future__ import annotations

import json
from dataclasses import replace
from functools import cache
from importlib import resources

from .admissible import (
    IsoCheckFailError,
    admissible_isomorphism,
    canonical_system,
    check_admissible,
    check_canonical_actions,
    check_cocycle_inverse_identities,
)
from .constructions import (
    BiproductSpec,
    ConditionsFailError,
    CrossedProductSpec,
    PreconditionFailError,
    biproduct_antipode,
    build_biproduct,
    check_biproduct_antipode,
    check_biproduct_conditions,
    check_cocycle_conditions,
    check_sigma_antipode,
    check_twisted_comodule_cocycle,
    crossed_product,
)
from .convact import (
    Coaction,
    Cocycle,
    ModuleAction,
    check_cocycle_inverse,
    check_comodule_coalgebra,
    check_hom_module,
    check_weak_module_algebra,
    cocycle_inverse,
    convolution_inverse,
    trivial_action,
    trivial_coaction,
    trivial_cocycle,
)
from .exactlin import LinearMap, Space, identity, maps_equal, power
from .fields import QQ
from .homcore import (
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    HomHopf,
    check_antipode,
    check_hom_algebra,
    check_hom_bialgebra,
    check_hom_coalgebra,
    yau_twist,
)
from .report import CheckReport


class CharTwoError(ValueError):
    """The worked sigma table divides by two, so GF(2) is excluded."""


def _cube(field, shape, entries):
    """A d1 x d2 x d3 structure-constant cube holding the coefficients of
    {(i, j, k): coefficient} and zero elsewhere; the structure that takes
    the cube coerces them into the field."""
    d1, d2, d3 = shape
    cube = [[[field.zero] * d3 for _ in range(d2)] for _ in range(d1)]
    for (i, j, k), v in entries.items():
        cube[i][j][k] = v
    return cube


def classical_sweedler_h4(field=QQ) -> HomHopf:
    """Sweedler's four-dimensional Hopf algebra with basis (1, g, x, gx).

    The fourth basis vector is the product x g, so that g x = -(gx) and
    x g = gx; comultiplication sends x to x (x) g + 1 (x) x.  With this basis
    the sign twist below lands exactly on the usual twisted tables.
    """
    sp = Space(("1", "g", "x", "gx"))
    one, g, x, w = range(4)
    mult = _cube(field, (4, 4, 4), {
        **{(one, b, b): 1 for b in range(4)},
        **{(b, one, b): 1 for b in range(4)},
        (g, g, one): 1,                       # g g = 1
        (g, x, w): -1, (g, w, x): -1,         # g x = -gx, g gx = -x
        (x, g, w): 1, (w, g, x): 1})          # x g = gx, gx g = x
    comult = _cube(field, (4, 4, 4), {
        (one, one, one): 1,                   # 1 (x) 1
        (g, g, g): 1,                         # g (x) g
        (x, x, g): 1, (x, one, x): 1,         # x (x) g + 1 (x) x
        (w, w, one): 1, (w, g, w): 1})        # gx (x) 1 + g (x) gx
    antipode = LinearMap(field, sp, sp, [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, -1, 0],
    ])
    ida = identity(field, sp)
    bial = HomBialgebra(
        HomAlgebra(field, sp, mult, [1, 0, 0, 0], ida),
        HomCoalgebra(field, sp, comult, [1, 1, 0, 0], ida),
    )
    return HomHopf(bial, antipode)


def sweedler_sign_map(field=QQ) -> LinearMap:
    """The involutive bialgebra automorphism fixing 1, g and negating x, gx."""
    sp = Space(("1", "g", "x", "gx"))
    return LinearMap(field, sp, sp, [
        [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])


def sweedler_h4_hom(field=QQ) -> HomHopf:
    """The twisted Sweedler algebra: the sign twist of the classical one.

    Tables: 1.x = -x, x g = -(g x), Delta(x) = -x (x) g + 1 (x) (-x),
    S(x) = -gx, structure map diag(1, 1, -1, -1).

    It is twisted and re-verified once per field, and every caller shares
    that one object (fields hash by value; no code mutates a ``HomHopf``).
    """
    return _sweedler_h4_hom(field)


@cache
def _sweedler_h4_hom(field) -> HomHopf:
    return yau_twist(classical_sweedler_h4(field), sweedler_sign_map(field))


def cyclic_group_hopf(order: int, field=QQ) -> HomHopf:
    """The group algebra of the cyclic group of the given order, as a
    classical Hopf algebra (every basis vector group-like)."""
    if order < 1:
        raise ValueError("order must be positive")
    sp = Space(tuple("e" if i == 0 else f"c{i}" for i in range(order)))
    shape = (order, order, order)
    mult = _cube(field, shape, {(i, j, (i + j) % order): 1
                                for i in range(order) for j in range(order)})
    comult = _cube(field, shape, {(i, i, i): 1 for i in range(order)})
    antipode = LinearMap(field, sp, sp, [
        [int(i == (-j) % order) for j in range(order)] for i in range(order)])
    ida = identity(field, sp)
    bial = HomBialgebra(
        HomAlgebra(field, sp, mult, [1] + [0] * (order - 1), ida),
        HomCoalgebra(field, sp, comult, [1] * order, ida),
    )
    return HomHopf(bial, antipode)


def cyclic_inversion_map(order: int, field=QQ) -> LinearMap:
    """The group automorphism c -> c^{-1} of the cyclic group algebra, which
    is its antipode."""
    return cyclic_group_hopf(order, field).antipode


def involutive_automorphisms(name: str, field=QQ):
    """The involutive bialgebra automorphisms shipped for each classical
    corpus Hopf algebra (identity included)."""
    if name == "sweedler":
        h = classical_sweedler_h4(field)
        return h, [identity(field, h.space), sweedler_sign_map(field)]
    if name == "c2":
        h = cyclic_group_hopf(2, field)
        return h, [identity(field, h.space)]
    if name == "c4":
        h = cyclic_group_hopf(4, field)
        return h, [identity(field, h.space), cyclic_inversion_map(4, field)]
    raise KeyError(f"no classical corpus algebra named {name!r}")


def dual_numbers_algebra(field=QQ) -> HomAlgebra:
    """K[y]/(y^2) with the identity structure map."""
    sp = Space(("1", "y"))
    mult = _cube(field, (2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})
    return HomAlgebra(field, sp, mult, [1, 0], identity(field, sp))


def dual_numbers_coalgebra(field=QQ) -> HomCoalgebra:
    """The same space with the primitive-style coproduct
    Delta(y) = y (x) 1 + 1 (x) y."""
    sp = Space(("1", "y"))
    comult = _cube(field, (2, 2, 2), {(0, 0, 0): 1, (1, 1, 0): 1, (1, 0, 1): 1})
    return HomCoalgebra(field, sp, comult, [1, 0], identity(field, sp))


def _group_like_action(h: HomHopf, a: HomAlgebra, g: int, c) -> ModuleAction:
    """The action of H on the dual numbers with h.1 = eps(h)1, 1.y = y,
    g.y = c y for the group-like basis vector g, and b.y = 0 for every other
    basis vector b."""
    return ModuleAction(h.bialgebra, a, _cube(a.field, (h.space.dim, 2, 2), {
        **{(b, 0, 0): eps for b, eps in enumerate(h.coalgebra.counit)},
        (0, 1, 1): 1, (g, 1, 1): c}))


def example24_action(field=QQ) -> ModuleAction:
    """The worked action of the twisted Sweedler algebra on the dual numbers:
    h.1 = eps(h)1, 1.y = y, g.y = y, x.y = 0, gx.y = 0."""
    return _group_like_action(sweedler_h4_hom(field),
                              dual_numbers_algebra(field), 1, 1)


def example24_sigma(n, field=QQ, values_in="unit",
                    orientation="first_in_columns") -> Cocycle:
    """The worked cocycle table with parameter n.

    Group-like block all ones; the x block holds n/2 with signs.  Two
    interpretation knobs survive from the source table:

    * ``values_in``: whether the x-block entries are multiples of 1_A
      ("unit") or of y ("y");
    * ``orientation``: whether the printed rows index the first argument
      ("first_in_rows") or the second ("first_in_columns").

    The shipped default (scalar multiples of 1_A, first argument running
    over the columns) is the unique reading under which the cocycle passes
    the crossed-product conditions; the goldens pin this.
    """
    if field.characteristic == 2:
        raise CharTwoError("the sigma table needs 2 to be invertible")
    half_n = field.coerce(n) / field.coerce(2)
    one, g, x, w = range(4)
    slot = 1 if values_in == "y" else 0
    # group-like block entries always mean multiples of 1_A
    entries = {(i, j, 0): 1 for i in (one, g) for j in (one, g)}
    for row in (x, w):
        for column, v in ((x, half_n), (w, -half_n)):
            i, j = ((row, column) if orientation == "first_in_rows"
                    else (column, row))
            entries[i, j, slot] = v
    return Cocycle(sweedler_h4_hom(field).bialgebra, dual_numbers_algebra(field),
                   _cube(field, (4, 4, 2), entries))


def example24_spec(n, m: int, k: int, field=QQ) -> CrossedProductSpec:
    """The worked crossed-product spec: dual numbers over the twisted
    Sweedler algebra with the table action and the parameter-n cocycle.
    Algebra, action and cocycle share one A, so validating the spec reads
    no cube."""
    action, sigma = example24_action(field), example24_sigma(n, field)
    return CrossedProductSpec(
        algebra=action.target,
        hopf=sweedler_h4_hom(field),
        action=action,
        cocycle=Cocycle(sigma.source, action.target, sigma.sigma_map),
        m=m,
        k=k,
    )


def example24_trivial_coaction_datum(n, m: int, k: int, field=QQ) -> BiproductSpec:
    """The worked crossed product extended by the primitive coproduct on the
    dual numbers and the trivial coaction.  Not a valid biproduct datum (the
    goldens record which conditions fail); used to exercise negatives."""
    crossed = example24_spec(n, m, k, field)
    coalg = dual_numbers_coalgebra(field)
    return BiproductSpec(
        crossed=crossed,
        coalgebra=coalg,
        coaction=trivial_coaction(crossed.hopf_bialgebra, coalg),
    )


def _sign_datum(h: HomHopf, g: int) -> BiproductSpec:
    """The dual numbers with the primitive coproduct over H, for a group-like
    basis vector g of H: sign action g.y = -y, diagonal coaction
    rho(1) = 1_H (x) 1 and rho(y) = g (x) y, trivial cocycle, (m, k) = (0, -1)."""
    field = h.field
    a = dual_numbers_algebra(field)
    coalg = dual_numbers_coalgebra(field)
    coaction = Coaction(h.bialgebra, coalg, _cube(
        field, (2, h.space.dim, 2), {(0, 0, 0): 1, (1, g, 1): 1}))
    crossed = CrossedProductSpec(
        algebra=a, hopf=h, action=_group_like_action(h, a, g, -1),
        cocycle=trivial_cocycle(h.bialgebra, a), m=0, k=-1)
    return BiproductSpec(crossed=crossed, coalgebra=coalg, coaction=coaction)


def classical_radford_datum(field=QQ) -> BiproductSpec:
    """A fully classical biproduct datum (all structure maps the identity,
    trivial cocycle): the sign datum over the order-two group algebra, with
    t.y = -y and rho(y) = t (x) y.  Its biproduct is the four-dimensional
    Sweedler algebra."""
    return _sign_datum(cyclic_group_hopf(2, field), 1)


def sweedler_sign_datum(field=QQ) -> BiproductSpec:
    """A genuinely twisted biproduct datum: the sign datum over the twisted
    Sweedler algebra, with g.y = -y (x and gx act as zero) and
    rho(y) = g (x) y."""
    return _sign_datum(sweedler_h4_hom(field), 1)


def scalar_line_hopf(field=QQ) -> HomHopf:
    """The ground field as a one-dimensional Hopf algebra."""
    sp = Space(("u",))
    unit_cube = _cube(field, (1, 1, 1), {(0, 0, 0): 1})     # u u = u, u -> u (x) u
    ida = identity(field, sp)
    bial = HomBialgebra(
        HomAlgebra(field, sp, unit_cube, [1], ida),
        HomCoalgebra(field, sp, unit_cube, [1], ida),
    )
    return HomHopf(bial, ida)


def trivial_biproduct_datum(h: HomHopf) -> BiproductSpec:
    """A one-dimensional A over any H, with (m, k) = (0, -1): the biproduct
    is H itself up to the unit leg, and every compatibility condition holds
    (as it does for any (m, k))."""
    line = scalar_line_hopf(h.field)
    a = line.algebra
    coalg = line.coalgebra
    crossed = CrossedProductSpec(
        algebra=a, hopf=h,
        action=trivial_action(h.bialgebra, a),
        cocycle=trivial_cocycle(h.bialgebra, a), m=0, k=-1)
    return BiproductSpec(
        crossed=crossed, coalgebra=coalg,
        coaction=trivial_coaction(h.bialgebra, coalg))


def dual_numbers_antipode(field=QQ) -> LinearMap:
    """The convolution inverse of the identity on the primitive dual
    numbers: 1 -> 1, y -> -y."""
    sp = Space(("1", "y"))
    return LinearMap(field, sp, sp, [[1, 0], [0, -1]])


# --------------------------------------------------------------------------
# registry and goldens


class CorpusEntry:
    """A named instance with runnable checks and frozen expected verdicts."""

    def __init__(self, name, payload, checks, expected):
        self.name = name
        self.payload = payload
        self.checks = checks        # check name -> thunk returning CheckReport
        self.expected = expected    # check name -> "pass" | "fail"

    def run(self) -> dict:
        return {name: thunk().verdict for name, thunk in self.checks.items()}

    def __repr__(self):
        return f"CorpusEntry({self.name!r})"


def _hopf_checks(h: HomHopf) -> dict:
    return {
        "hom_bialgebra": lambda: check_hom_bialgebra(h.bialgebra),
        "antipode": lambda: check_antipode(h),
    }


def _crossed_checks(spec: CrossedProductSpec) -> dict:
    @cache
    def inverse():
        return cocycle_inverse(spec.cocycle)

    def inverse_identities():
        completed = replace(spec, cocycle=inverse())
        return check_cocycle_inverse_identities(completed)

    return {
        "cocycle_conditions": lambda: check_cocycle_conditions(spec),
        "crossed_product_algebra":
            lambda: check_hom_algebra(crossed_product(spec)),
        "weak_module_algebra":
            lambda: check_weak_module_algebra(spec.action),
        "hom_module": lambda: check_hom_module(spec.action),
        "cocycle_inverse_roundtrip":
            lambda: check_cocycle_inverse(inverse()),
        "cocycle_inverse_identities": inverse_identities,
    }


def _biproduct_checks(spec: BiproductSpec, expect_valid: bool,
                      antipodes=None) -> dict:
    checks = {
        "algebra_half": lambda: check_hom_algebra(spec.crossed.algebra),
        "coalgebra_half": lambda: check_hom_coalgebra(spec.coalgebra),
        "biproduct_conditions": lambda: check_biproduct_conditions(spec),
        "comodule_coalgebra":
            lambda: check_comodule_coalgebra(spec.coaction),
        "weak_module_algebra":
            lambda: check_weak_module_algebra(spec.crossed.action),
        "twisted_comodule_cocycle":
            lambda: check_twisted_comodule_cocycle(spec),
    }
    if not expect_valid:
        return checks

    # The checks of one entry share one biproduct, one canonical system and
    # one admissibility verdict, each built when a check first needs it.
    @cache
    def built():
        return build_biproduct(spec)

    @cache
    def system():
        return canonical_system(built())

    @cache
    def admissible():
        return check_admissible(system())

    def conditions():
        try:
            return built().conditions
        except ConditionsFailError as e:
            return e.report

    def iso_check():
        verdict = admissible()
        if not verdict.passed:
            return verdict
        try:
            return admissible_isomorphism(system(), enforce=False)[2]
        except IsoCheckFailError as e:
            return e.report

    checks["biproduct_conditions"] = conditions
    checks["biproduct_bialgebra"] = lambda: built().bialgebra_check
    checks["admissible_system"] = admissible
    checks["canonical_actions"] = lambda: check_canonical_actions(system())
    checks["biproduct_isomorphism"] = iso_check

    if antipodes is not None:
        s_h, s_a = antipodes

        def antipode_check():
            bb = built().bialgebra
            try:
                s = biproduct_antipode(spec, bb, s_h, s_a)
            except PreconditionFailError as e:
                return e.report
            solved = convolution_inverse(identity(spec.field, bb.space),
                                         bb.coalgebra, bb.algebra)
            return CheckReport.combine("biproduct_antipode", [
                *check_biproduct_antipode(bb, s).subchecks,
                maps_equal(s, solved, "antipode_matches_solved_inverse"),
            ])

        checks["biproduct_antipode"] = antipode_check
        checks["sigma_antipode"] = lambda: check_sigma_antipode(
            spec.crossed.hopf_bialgebra, spec.crossed.cocycle, s_h)
    return checks


def _twist_agreement_check(field) -> CheckReport:
    twisted = sweedler_h4_hom(field)
    direct = classical_sweedler_h4(field)
    sign = sweedler_sign_map(field)
    rebuilt = yau_twist(direct, sign)
    same = (rebuilt.algebra.mult_map == twisted.algebra.mult_map
            and rebuilt.coalgebra.comult_map == twisted.coalgebra.comult_map
            and rebuilt.algebra.unit == twisted.algebra.unit
            and rebuilt.coalgebra.counit == twisted.coalgebra.counit)
    return CheckReport.combine("twist_reproduces_tables", [
        CheckReport("structure_constants_match", same),
        maps_equal(rebuilt.antipode, twisted.antipode, "antipode_match"),
        maps_equal(rebuilt.alpha, twisted.alpha, "structure_map_match"),
    ])


def corpus_entries(field=QQ) -> list:
    """All registry entries with their golden verdicts attached."""
    goldens = load_goldens()
    entries = []

    def add(name, payload, checks):
        entries.append(CorpusEntry(
            name, payload, checks, goldens.get("entries", {}).get(name, {})))

    h4c = classical_sweedler_h4(field)
    add("h4_classical", h4c, _hopf_checks(h4c))

    h4t = sweedler_h4_hom(field)
    checks = dict(_hopf_checks(h4t))
    checks["twist_reproduces_tables"] = lambda: _twist_agreement_check(field)
    checks["structure_map_involution"] = lambda: CheckReport(
        "structure_map_involution",
        power(h4t.alpha, 2) == identity(field, h4t.space))
    add("h4_twisted", h4t, checks)

    c2 = cyclic_group_hopf(2, field)
    add("c2_group", c2, _hopf_checks(c2))
    c4 = cyclic_group_hopf(4, field)
    add("c4_group", c4, _hopf_checks(c4))
    c4t = yau_twist(c4, cyclic_inversion_map(4, field))
    add("c4_inversion_twist", c4t, _hopf_checks(c4t))

    duals = dual_numbers_algebra(field)
    add("dual_numbers", duals, {
        "hom_algebra": lambda: check_hom_algebra(duals),
        "hom_coalgebra":
            lambda: check_hom_coalgebra(dual_numbers_coalgebra(field)),
    })

    for n in (0, 1, 2):
        spec = example24_spec(n, 0, -1, field)
        add(f"example24_n{n}", spec, _crossed_checks(spec))

    bad = example24_trivial_coaction_datum(1, 0, -1, field)
    add("example24_trivial_coaction_n1", bad,
        _biproduct_checks(bad, expect_valid=False))

    rad = classical_radford_datum(field)
    add("radford_classical", rad, _biproduct_checks(
        rad, expect_valid=True,
        antipodes=(rad.crossed.hopf.antipode, dual_numbers_antipode(field))))

    sign = sweedler_sign_datum(field)
    add("sweedler_sign_biproduct", sign, _biproduct_checks(
        sign, expect_valid=True,
        antipodes=(sign.crossed.hopf.antipode, dual_numbers_antipode(field))))

    triv_h4 = trivial_biproduct_datum(sweedler_h4_hom(field))
    add("trivial_over_h4", triv_h4,
        _biproduct_checks(triv_h4, expect_valid=True))
    triv_c2 = trivial_biproduct_datum(cyclic_group_hopf(2, field))
    add("trivial_over_c2", triv_c2,
        _biproduct_checks(triv_c2, expect_valid=True))

    return entries


def load_goldens() -> dict:
    try:
        text = resources.files("homhopf").joinpath("goldens.json").read_text()
    except FileNotFoundError:
        return {}
    return json.loads(text)


def selftest(field=QQ):
    """Re-run every registered check and compare against the goldens.
    Returns (all_matched, {entry: {check: (expected, got)}})."""
    results = {}
    ok = True
    for entry in corpus_entries(field):
        got = entry.run()
        cell = {}
        for name, verdict in got.items():
            expected = entry.expected.get(name)
            cell[name] = (expected, verdict)
            if expected != verdict:
                ok = False
        results[entry.name] = cell
    return ok, results


_MUTABLE_COMPONENTS = {
    "mult", "comult", "act", "sigma", "coact",
}


def _bump(cube, site, delta):
    """A copy of ``cube`` with ``delta`` added at ``site`` = (i, j, k)."""
    i, j, k = site
    if not (0 <= i < len(cube) and 0 <= j < len(cube[i])
            and 0 <= k < len(cube[i][j])):
        raise IndexError(f"site {site} out of range")
    new = [[list(plane) for plane in slab] for slab in cube]
    new[i][j][k] = new[i][j][k] + delta
    return new


def mutate(entry: CorpusEntry, site, delta) -> CorpusEntry:
    """Perturb one structure constant of an entry's payload; the mutated
    entry carries rebuilt checks and no goldens.

    ``site`` is (component, i, j, k) with component one of mult / comult /
    act / sigma / coact, resolved against the payload's type."""
    component, i, j, k = site
    cell = (i, j, k)
    if component not in _MUTABLE_COMPONENTS:
        raise ValueError(f"unknown component {component!r}")
    payload = entry.payload
    field = payload.field

    d = field.coerce(delta)
    if not d:
        raise ValueError("mutation delta must be nonzero")

    if isinstance(payload, HomHopf):
        if component == "mult":
            alg = HomAlgebra(field, payload.space,
                             _bump(payload.algebra.mult, cell, d),
                             payload.algebra.unit, payload.alpha)
            new = HomHopf(HomBialgebra(alg, payload.coalgebra), payload.antipode)
        elif component == "comult":
            coa = HomCoalgebra(field, payload.space,
                               _bump(payload.coalgebra.comult, cell, d),
                               payload.coalgebra.counit, payload.alpha)
            new = HomHopf(HomBialgebra(payload.algebra, coa), payload.antipode)
        else:
            raise ValueError(f"{component!r} not mutable on a Hopf payload")
        return CorpusEntry(f"{entry.name}~{component}[{i},{j},{k}]",
                           new, _hopf_checks(new), {})

    if isinstance(payload, CrossedProductSpec):
        new = mutate_crossed_spec(payload, component, cell, d)
        return CorpusEntry(f"{entry.name}~{component}[{i},{j},{k}]",
                           new, _crossed_checks(new), {})

    if isinstance(payload, BiproductSpec):
        if component == "coact":
            co = Coaction(payload.coaction.coacting, payload.coaction.target,
                          _bump(payload.coaction.coact, cell, d))
            new = replace(payload, coaction=co)
        elif component == "comult":
            coa = HomCoalgebra(field, payload.coalgebra.space,
                               _bump(payload.coalgebra.comult, cell, d),
                               payload.coalgebra.counit, payload.coalgebra.gamma)
            co = Coaction(payload.coaction.coacting, coa,
                          payload.coaction.coact_map)
            new = replace(payload, coalgebra=coa, coaction=co)
        else:
            new = replace(payload, crossed=mutate_crossed_spec(
                payload.crossed, component, cell, d))
        return CorpusEntry(f"{entry.name}~{component}[{i},{j},{k}]",
                           new, _biproduct_checks(new, expect_valid=False), {})

    raise TypeError(f"cannot mutate payload of type {type(payload).__name__}")


def mutate_crossed_spec(spec: CrossedProductSpec, component: str, site,
                        delta) -> CrossedProductSpec:
    """One-site perturbation of a crossed-product spec's cocycle or action."""
    if component == "sigma":
        return replace(spec, cocycle=Cocycle(
            spec.cocycle.source, spec.cocycle.target,
            _bump(spec.cocycle.sigma, site, delta)))
    if component == "act":
        return replace(spec, action=ModuleAction(
            spec.action.acting, spec.action.target,
            _bump(spec.action.act, site, delta)))
    raise ValueError(f"{component!r} not mutable on a crossed-product spec")


# --------------------------------------------------------------------------
# .struct exports


def export_hopf(h: HomHopf, name: str = "H") -> str:
    from .structfile import DocumentBuilder

    builder = DocumentBuilder(h.field)
    builder.add_hom_hopf(name, h)
    return builder.to_text()


def _add_crossed_bundles(builder, spec: CrossedProductSpec, prefix: str = ""):
    a_name = builder.add_hom_algebra(f"{prefix}A", spec.algebra)
    if isinstance(spec.hopf, HomHopf):
        h_name = builder.add_hom_hopf(f"{prefix}H", spec.hopf)
    else:
        h_name = builder.add_hom_bialgebra(f"{prefix}H", spec.hopf)
    hs = builder.space_name(spec.hopf_bialgebra.space)
    asp = builder.space_name(spec.algebra.space)
    builder.add_tensor(f"{prefix}action_tensor", spec.action.act,
                       [hs, asp, asp])
    builder.add_bundle(f"{prefix}action", {
        "type": "module_action", "acting": h_name, "target": a_name,
        "tensor": f"{prefix}action_tensor"})
    builder.add_tensor(f"{prefix}sigma_tensor", spec.cocycle.sigma,
                       [hs, hs, asp])
    builder.add_bundle(f"{prefix}sigma", {
        "type": "cocycle", "source": h_name, "target": a_name,
        "tensor": f"{prefix}sigma_tensor"})
    builder.add_bundle(f"{prefix}crossed", {
        "type": "crossed_spec", "algebra": a_name, "hopf": h_name,
        "action": f"{prefix}action", "cocycle": f"{prefix}sigma",
        "m": spec.m, "k": spec.k})
    return f"{prefix}crossed", h_name, a_name


def export_crossed_spec(spec: CrossedProductSpec) -> str:
    from .structfile import DocumentBuilder

    builder = DocumentBuilder(spec.field)
    _add_crossed_bundles(builder, spec)
    return builder.to_text()


def export_biproduct_spec(spec: BiproductSpec,
                          algebra_antipode: LinearMap | None = None) -> str:
    from .structfile import DocumentBuilder

    builder = DocumentBuilder(spec.field)
    crossed_name, h_name, _ = _add_crossed_bundles(builder, spec.crossed)
    coalg_name = builder.add_hom_coalgebra("A_coalgebra", spec.coalgebra)
    hs = builder.space_name(spec.crossed.hopf_bialgebra.space)
    asp = builder.space_name(spec.coalgebra.space)
    builder.add_tensor("coaction_tensor", spec.coaction.coact, [asp, hs, asp])
    builder.add_bundle("coaction", {
        "type": "coaction", "coacting": h_name, "target": coalg_name,
        "tensor": "coaction_tensor"})
    body = {"type": "biproduct_spec", "crossed": crossed_name,
            "coalgebra": coalg_name, "coaction": "coaction"}
    if algebra_antipode is not None:
        builder.add_map("algebra_antipode", algebra_antipode)
        body["algebra_antipode"] = "algebra_antipode"
    builder.add_bundle("biproduct", body)
    return builder.to_text()


def shipped_documents(field=QQ) -> dict:
    """The .struct files shipped with the package, keyed by filename."""
    return {
        "h4.struct": export_hopf(sweedler_h4_hom(field), "H4"),
        "h4_classical.struct":
            export_hopf(classical_sweedler_h4(field), "H4_classical"),
        "example24.struct": export_crossed_spec(example24_spec(1, 0, -1, field)),
        "radford.struct": export_biproduct_spec(
            classical_radford_datum(field), dual_numbers_antipode(field)),
        "sign_biproduct.struct": export_biproduct_spec(
            sweedler_sign_datum(field), dual_numbers_antipode(field)),
    }
