"""Crossed products, smash coproducts, biproducts and their antipodes."""

import pytest

from homhopf.constructions import (
    BiproductSpec,
    ConditionsFailError,
    CrossedProductSpec,
    PreconditionFailError,
    assemble_biproduct,
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
from homhopf.convact import (
    Coaction,
    convolution_inverse,
    convolution_unit,
    convolve,
    trivial_coaction,
    trivial_cocycle,
)
from homhopf.corpus import (
    classical_radford_datum,
    cyclic_group_hopf,
    dual_numbers_algebra,
    dual_numbers_antipode,
    dual_numbers_coalgebra,
    example24_spec,
    example24_trivial_coaction_datum,
    mutate_crossed_spec,
    sweedler_h4_hom,
    sweedler_sign_datum,
    trivial_biproduct_datum,
)
from homhopf.exactlin import LinearMap, compose, identity, maps_equal
from homhopf.fields import QQ
from homhopf.homcore import (
    HomCoalgebra,
    check_hom_algebra,
    check_hom_coalgebra,
    tensor_coalgebra,
)

GRID = [(m, k) for m in range(-2, 3) for k in range(-2, 3)]


def test_worked_crossed_product_is_a_hom_algebra():
    spec = example24_spec(1, 0, -1)
    algebra = crossed_product(spec)
    assert algebra.space.dim == 8
    assert check_hom_algebra(algebra).passed


def test_unit_multiplies_by_structure_maps():
    # (a # h)(1 # 1) = beta(a) # alpha(h) and symmetrically
    spec = example24_spec(1, 0, -1)
    b = crossed_product(spec)
    mult = b.mult_map
    unit_col = b.unit
    struct = b.alpha
    n = b.space.dim
    for j in range(n):
        vec = [QQ.zero] * (n * n)
        for t, u in enumerate(unit_col):
            if u:
                vec[j * n + t] = u
        assert list(mult.apply(vec)) == list(struct.column(j)), "right unit"
        vec = [QQ.zero] * (n * n)
        for t, u in enumerate(unit_col):
            if u:
                vec[t * n + j] = u
        assert list(mult.apply(vec)) == list(struct.column(j)), "left unit"


@pytest.mark.parametrize("m,k", GRID)
def test_trivial_cocycle_reduces_to_smash_product(m, k):
    base = example24_spec(0, m, k)
    spec = CrossedProductSpec(
        algebra=base.algebra, hopf=base.hopf, action=base.action,
        cocycle=trivial_cocycle(base.hopf_bialgebra, base.algebra), m=m, k=k)
    crossed = crossed_product(spec)
    smash = smash_product(spec.algebra, spec.hopf_bialgebra, spec.action, m)
    assert crossed.mult == smash.mult
    assert crossed.unit == smash.unit


@pytest.mark.parametrize("n", [0, 1, 2])
def test_worked_cocycle_satisfies_the_conditions(n):
    report = check_cocycle_conditions(example24_spec(n, 0, -1))
    assert report.passed


def test_trivial_cocycle_with_trivial_action_passes_conditions():
    h = sweedler_h4_hom()
    a = dual_numbers_algebra()
    from homhopf.convact import trivial_action

    spec = CrossedProductSpec(
        algebra=a, hopf=h, action=trivial_action(h.bialgebra, a),
        cocycle=trivial_cocycle(h.bialgebra, a), m=0, k=-1)
    assert check_cocycle_conditions(spec).passed
    assert check_hom_algebra(crossed_product(spec)).passed


def test_perturbed_cocycle_fails_the_twisted_two_cocycle_law():
    spec = example24_spec(1, 0, -1)
    x = spec.hopf_bialgebra.space.names.index("x")
    broken = mutate_crossed_spec(spec, "sigma", (x, x, 0), QQ.coerce(1))
    report = check_cocycle_conditions(broken)
    assert not report.passed
    assert not report.sub("cocycle_twisted_two_cocycle").passed
    assert report.sub("cocycle_twisted_two_cocycle").witness is not None


def test_smash_coproduct_with_trivial_coaction_is_the_tensor_coalgebra():
    h = sweedler_h4_hom()
    coalg = dual_numbers_coalgebra()
    co = trivial_coaction(h.bialgebra, coalg)
    for m in range(-2, 3):
        smash = smash_coproduct(coalg, h.bialgebra, co, m)
        plain = tensor_coalgebra(coalg, h.coalgebra)
        assert smash.comult == plain.comult
        assert smash.counit == plain.counit


def test_smash_coproduct_needs_a_comodule_coalgebra():
    # the self-coaction satisfies only the comodule laws, and the smash
    # coproduct over it is genuinely non-coassociative (already classically:
    # the two splittings of g >< 1 differ in the middle legs)
    h = sweedler_h4_hom()
    co = Coaction(h.bialgebra, h.coalgebra, h.coalgebra.comult)
    smash = smash_coproduct(h.coalgebra, h.bialgebra, co, 0)
    report = check_hom_coalgebra(smash)
    assert not report.passed
    assert not report.sub("hom_coassociativity").passed


@pytest.mark.parametrize("m", range(-2, 3))
def test_valid_coactions_give_valid_smash_coproducts(m):
    # whenever the coaction is a comodule-coalgebra the smash coproduct
    # satisfies the coalgebra axioms
    for spec in (classical_radford_datum(), sweedler_sign_datum()):
        smash = smash_coproduct(spec.coalgebra,
                                spec.crossed.hopf_bialgebra,
                                spec.coaction, m)
        assert check_hom_coalgebra(smash).passed


def test_smash_counit_is_the_product_of_counits():
    spec = sweedler_sign_datum()
    smash = smash_coproduct(spec.coalgebra, spec.crossed.hopf_bialgebra,
                            spec.coaction, 0)
    expected = [x * y for x in spec.coalgebra.counit
                for y in spec.crossed.hopf_bialgebra.coalgebra.counit]
    assert list(smash.counit) == expected


def test_twisted_comodule_cocycle_trivial_data_passes():
    assert check_twisted_comodule_cocycle(trivial_biproduct_datum(
        sweedler_h4_hom())).passed
    assert check_twisted_comodule_cocycle(classical_radford_datum()).passed
    # worked cocycle with the trivial coaction: only sigma(1, -) enters,
    # and the normality condition collapses both sides
    assert check_twisted_comodule_cocycle(
        example24_trivial_coaction_datum(1, 0, -1)).passed


def test_biproduct_conditions_pass_on_the_corpus_data():
    for spec in (classical_radford_datum(), sweedler_sign_datum(),
                 trivial_biproduct_datum(sweedler_h4_hom()),
                 trivial_biproduct_datum(cyclic_group_hopf(2))):
        report = check_biproduct_conditions(spec)
        assert report.passed
        assert len(report.subchecks) == 9


def inject_comult_unit_violation(spec: BiproductSpec) -> BiproductSpec:
    """Delta_A(1) := 1 (x) 1 + y (x) y, violating exactly the unit condition
    (the perturbed coproduct is still coassociative and counital)."""
    coalg = spec.coalgebra
    cube = [[list(p) for p in slab] for slab in coalg.comult]
    cube[0][1][1] = cube[0][1][1] + QQ.one
    broken = HomCoalgebra(QQ, coalg.space, cube, coalg.counit, coalg.gamma)
    from homhopf.convact import Coaction

    coaction = Coaction(spec.coaction.coacting, broken, spec.coaction.coact)
    return BiproductSpec(crossed=spec.crossed, coalgebra=broken,
                         coaction=coaction)


def test_comult_unit_violation_is_caught_and_named():
    broken = inject_comult_unit_violation(classical_radford_datum())
    assert check_hom_coalgebra(broken.coalgebra).passed  # still a coalgebra
    report = check_biproduct_conditions(broken)
    assert not report.passed
    assert not report.sub("comult_preserves_unit").passed
    # the perturbed coproduct also leaks into the cocycle-coalgebra-map and
    # twisted-multiplicativity conditions; the unit condition is among them
    failing = [s.name for s in report.subchecks if not s.passed]
    assert "comult_preserves_unit" in failing


def test_build_biproduct_refuses_without_bypass_and_fails_with_it():
    broken = inject_comult_unit_violation(classical_radford_datum())
    with pytest.raises(ConditionsFailError):
        build_biproduct(broken)
    built = build_biproduct(broken, bypass=True)
    assert not built.bialgebra_check.passed


def test_built_biproducts_are_hom_bialgebras():
    for spec in (classical_radford_datum(), sweedler_sign_datum(),
                 trivial_biproduct_datum(sweedler_h4_hom())):
        built = build_biproduct(spec)
        assert built.conditions.passed
        assert built.bialgebra_check.passed


def test_trivial_biproduct_is_the_hopf_algebra_itself():
    h = sweedler_h4_hom()
    built = build_biproduct(trivial_biproduct_datum(h))
    b = built.bialgebra
    assert b.space.dim == h.space.dim
    # with the one-dimensional leg stripped the tables coincide
    assert [[list(p) for p in slab] for slab in b.algebra.mult] == \
        [[list(p) for p in slab] for slab in h.algebra.mult]
    assert [[list(p) for p in slab] for slab in b.coalgebra.comult] == \
        [[list(p) for p in slab] for slab in h.coalgebra.comult]


def test_sigma_antipode_trivial_cocycle_classical():
    h = cyclic_group_hopf(2)
    sigma = trivial_cocycle(h.bialgebra, dual_numbers_algebra())
    assert check_sigma_antipode(h.bialgebra, sigma, h.antipode).passed


def test_sigma_antipode_holds_for_h4_with_trivial_cocycle():
    h = sweedler_h4_hom()
    sigma = trivial_cocycle(h.bialgebra, dual_numbers_algebra())
    assert check_sigma_antipode(h.bialgebra, sigma, h.antipode).passed


def test_sigma_antipode_detects_wrong_sign():
    h = sweedler_h4_hom()
    sigma = trivial_cocycle(h.bialgebra, dual_numbers_algebra())
    wrong = LinearMap(QQ, h.space, h.space, [
        [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])  # S(x) = gx
    report = check_sigma_antipode(h.bialgebra, sigma, wrong)
    assert not report.passed
    bad = report.first_failure()
    assert bad.witness.basis == ("x",)


@pytest.mark.parametrize("spec_builder", [classical_radford_datum,
                                          sweedler_sign_datum])
def test_biproduct_antipode_is_a_two_sided_convolution_inverse(spec_builder):
    spec = spec_builder()
    built = build_biproduct(spec)
    s = biproduct_antipode(spec, built.bialgebra, spec.crossed.hopf.antipode,
                           dual_numbers_antipode())
    b = built.bialgebra
    e = convolution_unit(b.coalgebra, b.algebra)
    idb = identity(QQ, b.space)
    assert maps_equal(convolve(s, idb, b.coalgebra, b.algebra), e).passed
    assert maps_equal(convolve(idb, s, b.coalgebra, b.algebra), e).passed
    assert compose(s, b.alpha) == compose(b.alpha, s)
    assert maps_equal(s, convolution_inverse(idb, b.coalgebra,
                                             b.algebra)).passed


def test_biproduct_antipode_over_scalar_line_is_the_hopf_antipode():
    h = sweedler_h4_hom()
    spec = trivial_biproduct_datum(h)
    line_antipode = identity(QQ, spec.coalgebra.space)
    s = biproduct_antipode(spec, assemble_biproduct(spec), h.antipode,
                           line_antipode)
    # the scalar leg is one-dimensional, so the matrix equals S_H's
    assert [list(r) for r in s.matrix] == [list(r) for r in h.antipode.matrix]


def test_biproduct_antipode_precondition_failure():
    spec = classical_radford_datum()
    bad_s_a = identity(QQ, spec.coalgebra.space)  # not a convolution inverse
    with pytest.raises(PreconditionFailError) as err:
        biproduct_antipode(spec, assemble_biproduct(spec),
                           spec.crossed.hopf.antipode, bad_s_a)
    assert err.value.report is not None


def hypotheses_hold(spec: BiproductSpec) -> bool:
    """The standing hypotheses of the biproduct equivalence: both halves of
    A are valid, the action is a weak module algebra, the coaction a
    comodule coalgebra, and the cocycle a twisted comodule cocycle."""
    from homhopf.convact import check_comodule_coalgebra, check_weak_module_algebra

    return (check_hom_algebra(spec.crossed.algebra).passed
            and check_hom_coalgebra(spec.coalgebra).passed
            and check_weak_module_algebra(spec.crossed.action).passed
            and check_comodule_coalgebra(spec.coaction).passed
            and check_twisted_comodule_cocycle(spec).passed)


def test_condition_equivalence_on_hypothesis_preserving_mutations():
    # among single-site mutations that keep the standing hypotheses, the
    # nine conditions hold exactly when the assembled structure is a
    # Hom-bialgebra; mutations outside the hypotheses are out of scope
    from homhopf.corpus import corpus_entries, mutate

    entry = next(e for e in corpus_entries()
                 if e.name == "radford_classical")
    sites = [("sigma", i, j, k) for i in range(2) for j in range(2)
             for k in range(2)]
    sites += [("act", i, j, k) for i in range(2) for j in range(2)
              for k in range(2)]
    sites += [("coact", i, j, k) for i in range(2) for j in range(2)
              for k in range(2)]
    sites += [("comult", 0, 1, 1), ("comult", 1, 0, 0), ("comult", 1, 1, 1)]
    in_scope = 0
    for site in sites:
        mutated = mutate(entry, site, 1).payload
        if not hypotheses_hold(mutated):
            continue
        in_scope += 1
        conditions = check_biproduct_conditions(mutated).passed
        bialgebra = build_biproduct(mutated, bypass=True).bialgebra_check.passed
        assert conditions == bialgebra, f"equivalence broken at {site}"
    assert in_scope >= 3  # the unperturbed-law mutations stay in scope


def test_antipode_is_the_solved_convolution_inverse_on_all_hopf_entries():
    from homhopf.corpus import (classical_sweedler_h4, cyclic_group_hopf,
                                scalar_line_hopf)
    from homhopf.exactlin import identity as iden

    for h in (sweedler_h4_hom(), classical_sweedler_h4(),
              cyclic_group_hopf(2), cyclic_group_hopf(4), scalar_line_hopf()):
        solved = convolution_inverse(iden(QQ, h.space), h.coalgebra,
                                     h.algebra)
        assert maps_equal(solved, h.antipode).passed


def test_classical_biproduct_is_the_sweedler_algebra():
    # the biproduct of the dual numbers over the order-two group algebra is
    # Sweedler's four-dimensional Hopf algebra; the basis identification
    # 1(x)e -> 1, 1(x)t -> g, y(x)e -> gx, y(x)t -> x transports every
    # structure tensor onto the independently hard-coded classical tables
    from homhopf.corpus import classical_sweedler_h4
    from homhopf.exactlin import Pipeline

    spec = classical_radford_datum()
    built = build_biproduct(spec)
    b = built.bialgebra
    h4 = classical_sweedler_h4()
    phi = LinearMap(QQ, b.space, h4.space, [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ])
    phi2 = phi @ phi
    assert compose(phi, b.algebra.mult_map) == \
        compose(h4.algebra.mult_map, phi2)
    assert compose(phi2, b.coalgebra.comult_map) == \
        compose(h4.coalgebra.comult_map, phi)
    assert phi.apply(b.algebra.unit) == h4.algebra.unit
    assert compose(h4.coalgebra.counit_map, phi) == b.coalgebra.counit_map
    s_b = biproduct_antipode(spec, b, spec.crossed.hopf.antipode,
                             dual_numbers_antipode())
    assert compose(phi, s_b) == compose(h4.antipode, phi)
