"""Mapping systems, twisted modules, and the biproduct isomorphism."""

import dataclasses
from collections import Counter
from itertools import product

import pytest

from homhopf.admissible import (
    IsoCheckFailError,
    NotAdmissibleError,
    admissible_isomorphism,
    canonical_system,
    check_admissible,
    check_canonical_actions,
    check_cocycle_inverse_identities,
    check_twisted_module,
    check_weak_bimodule,
    induced_actions,
    induced_coactions,
)
from homhopf.constructions import (
    CrossedProductSpec,
    build_biproduct,
    check_biproduct_conditions,
)
from homhopf.convact import (
    cocycle_inverse,
    pair_coalgebra,
    trivial_action,
    trivial_cocycle,
)
from homhopf.corpus import (
    classical_radford_datum,
    cyclic_group_hopf,
    dual_numbers_algebra,
    example24_spec,
    mutate_crossed_spec,
    scalar_line_hopf,
    sweedler_h4_hom,
    sweedler_sign_datum,
    trivial_biproduct_datum,
)
from homhopf.exactlin import (
    LinearMap,
    Pipeline,
    compose,
    equal_on_basis,
    identity,
    power,
)
from homhopf.fields import QQ, PrimeField
from homhopf.sweedler import compile_map, const, inputs, split

CORPUS_BIPRODUCTS = [
    ("classical_radford", classical_radford_datum),
    ("sweedler_sign", sweedler_sign_datum),
    ("trivial_h4", lambda: trivial_biproduct_datum(sweedler_h4_hom())),
    ("trivial_c2", lambda: trivial_biproduct_datum(cyclic_group_hopf(2))),
]


def with_inverse(spec: CrossedProductSpec) -> CrossedProductSpec:
    return CrossedProductSpec(
        algebra=spec.algebra, hopf=spec.hopf, action=spec.action,
        cocycle=cocycle_inverse(spec.cocycle), m=spec.m, k=spec.k)


def test_cocycle_inverse_identities_trivial_cocycle_collapse():
    # with the trivial cocycle both identities collapse to weak-action laws
    h = sweedler_h4_hom()
    a = dual_numbers_algebra()
    spec = with_inverse(CrossedProductSpec(
        algebra=a, hopf=h, action=trivial_action(h.bialgebra, a),
        cocycle=trivial_cocycle(h.bialgebra, a), m=0, k=-1))
    assert check_cocycle_inverse_identities(spec).passed


@pytest.mark.parametrize("n", [0, 1, 2])
def test_cocycle_inverse_identities_on_worked_example(n):
    spec = with_inverse(example24_spec(n, 0, -1))
    assert check_cocycle_inverse_identities(spec).passed


def test_cocycle_identities_fail_when_inverse_is_not_inverted():
    spec = example24_spec(2, 0, -1)
    fake = CrossedProductSpec(
        algebra=spec.algebra, hopf=spec.hopf, action=spec.action,
        cocycle=type(spec.cocycle)(spec.cocycle.source, spec.cocycle.target,
                                   spec.cocycle.sigma,
                                   inverse=spec.cocycle.sigma),
        m=0, k=-1)
    report = check_cocycle_inverse_identities(fake)
    assert not report.passed
    assert report.first_failure().witness is not None


def test_cocycle_identities_require_an_inverse():
    with pytest.raises(ValueError):
        check_cocycle_inverse_identities(example24_spec(1, 0, -1))


def test_twisted_module_reduces_to_module_laws_for_trivial_sigma_bar():
    # the multiplication action of a Hopf algebra on itself is a Hom-module,
    # so it satisfies the twisted law with the trivial sigma-bar
    h = sweedler_h4_hom()
    sigma_bar = trivial_cocycle(h.bialgebra, h.algebra).sigma_map
    left = h.algebra.mult_map
    report = check_twisted_module(h.bialgebra, h.algebra, sigma_bar, left,
                                  side="left")
    assert report.passed


def test_weak_bimodule_trivial_actions_pass():
    h = sweedler_h4_hom()
    a = dual_numbers_algebra()
    act = trivial_action(h.bialgebra, a)
    left = act.act_map
    right = Pipeline(QQ, [a.space, h.space]).permute([1, 0]) \
        .merge_legs(0, 2, left).finish()
    assert check_weak_bimodule(h.bialgebra, a.alpha, left, right).passed


def test_weak_bimodule_detects_perturbed_power():
    spec = sweedler_sign_datum()
    built = build_biproduct(spec)
    system = canonical_system(built)
    h = system.hopf
    # decorate the right action with a stray structure-map power
    bad_right = compose(power(built.bialgebra.alpha, 1), system.phi_right)
    report = check_weak_bimodule(h, built.bialgebra.alpha,
                                 system.phi_left, bad_right)
    assert not report.passed


@pytest.mark.parametrize("name,builder", CORPUS_BIPRODUCTS)
def test_canonical_systems_are_admissible(name, builder):
    system = canonical_system(build_biproduct(builder()))
    report = check_admissible(system)
    assert report.passed
    assert len(report.subchecks) == 5
    assert dict(report.info)["section_H_multiplicative"] == "pass"


@pytest.mark.parametrize("name,builder", CORPUS_BIPRODUCTS)
def test_canonical_actions_satisfy_the_module_lemmas(name, builder):
    system = canonical_system(build_biproduct(builder()))
    assert check_canonical_actions(system).passed


@pytest.mark.parametrize("name,builder", CORPUS_BIPRODUCTS)
def test_isomorphism_roundtrip_is_exact(name, builder):
    built = build_biproduct(builder())
    system = canonical_system(built)
    f, g, report = admissible_isomorphism(system)
    assert report.passed
    b = built.bialgebra
    assert compose(f, g) == identity(QQ, b.space)
    assert compose(g, f) == identity(QQ, b.space)
    # for canonical systems both maps are the identity matrix
    assert f == identity(QQ, b.space)
    assert g == identity(QQ, b.space)


def test_one_dimensional_system_is_trivially_admissible():
    spec = trivial_biproduct_datum(scalar_line_hopf())
    system = canonical_system(build_biproduct(spec))
    assert check_admissible(system).passed
    f, g, report = admissible_isomorphism(system)
    assert report.passed
    assert f.domain.dim == 1 and f.matrix[0][0] == 1


def test_replacing_the_section_with_its_antipode_twist_fails_cond_one():
    # needs a Hopf algebra whose antipode is not the identity
    spec = sweedler_sign_datum()
    built = build_biproduct(spec)
    system = canonical_system(built)
    twisted_section = compose(system.sect_H, spec.crossed.hopf.antipode)
    broken = dataclasses.replace(system, sect_H=twisted_section)
    report = check_admissible(broken)
    assert not report.passed
    assert not report.find("project_section_H").passed


def test_perturbing_the_retraction_off_the_image_breaks_the_roundtrip():
    spec = classical_radford_datum()
    built = build_biproduct(spec)
    system = canonical_system(built)
    b = built.bialgebra
    csp = system.small_coalgebra.space
    # add a term supported off j(C): send 1 (x) t to y
    names = b.space.names
    col = names.index("1⊗c1")
    bump = [[QQ.zero] * b.space.dim for _ in range(csp.dim)]
    bump[1][col] = QQ.one
    perturbed = LinearMap(QQ, b.space, csp, [
        [v + bump[i][j] for j, v in enumerate(row)]
        for i, row in enumerate(system.retr_C.matrix)])
    broken = dataclasses.replace(system, retr_C=perturbed)
    # the retraction identity p j = id still holds
    assert compose(broken.retr_C, broken.sect_C) == identity(QQ, csp)
    with pytest.raises(IsoCheckFailError) as err:
        admissible_isomorphism(broken, enforce=False)
    report = err.value.report
    bad = [s.name for s in report.subchecks if not s.passed]
    assert "roundtrip_on_biproduct" in bad or "roundtrip_on_ambient" in bad
    assert report.first_failure().witness is not None


def test_not_admissible_raised_when_enforcing():
    spec = sweedler_sign_datum()
    system = canonical_system(build_biproduct(spec))
    broken = dataclasses.replace(
        system, sect_H=compose(system.sect_H, spec.crossed.hopf.antipode))
    with pytest.raises(NotAdmissibleError):
        admissible_isomorphism(broken)


def test_displayed_actions_match_induced_actions():
    for _, builder in CORPUS_BIPRODUCTS:
        system = canonical_system(build_biproduct(builder()))
        left, right = induced_actions(system)
        assert system.phi_left == left
        assert system.phi_right == right



def test_section_H_unital_witness_names_the_scalar_basis():
    # i o 1_H is a map out of the ground field, so its witness is ("k",)
    system = canonical_system(build_biproduct(classical_radford_datum()))
    rows = [list(row) for row in system.sect_H.matrix]
    rows[0][0] += 1
    bumped = LinearMap(QQ, system.sect_H.domain, system.sect_H.codomain, rows)
    report = check_admissible(dataclasses.replace(system, sect_H=bumped))
    unital = report.find("section_H_unital")
    assert not unital.passed
    assert unital.witness.basis == ("k",)


# ---------------------------------------------------------------------------
# Laws restated through ``holds`` report what their earlier statements did.
# Each earlier statement is written out below; the mutants make every one
# of them fail somewhere.

def composed_statements(system):
    """The five laws stated as ``check_admissible`` once stated them: the
    coaction conditions as a formula over the ambient leg a composed with
    j, the equivariance with its formula side passed as a map."""
    field, h = system.field, system.hopf
    csp, hsp, asp = system.small_coalgebra.space, h.space, system.ambient.space
    p, j = system.retr_C, system.sect_C
    _, right = induced_actions(system)
    rho_l, rho_r = induced_coactions(system)
    a, g = inputs(asp, hsp)
    (c,) = inputs(csp)
    (lh, l0), (r0, rh) = split(rho_l, a, hsp, asp), split(rho_r, a, asp, hsp)
    jp = compose(j, p)

    def over_a(outs):
        return compose(compile_map(field, (a,), outs), j)

    return [
        equal_on_basis(
            "retraction_right_equivariant", compose(p, right),
            compile_map(field, (a, g), [
                compose(system.small_coalgebra.gamma, p)(a),
                h.coalgebra.counit_map(g)]), (asp, hsp)),
        equal_on_basis("image_closed_under_left_coaction",
                       over_a([lh, jp(l0)]), compose(rho_l, j), (csp,)),
        equal_on_basis("image_closed_under_right_coaction",
                       over_a([jp(r0), rh]), compose(rho_r, j), (csp,)),
        equal_on_basis("retraction_left_coaction_compat",
                       over_a([lh, p(l0)]),
                       system.biproduct.spec.coaction.coact_map, (csp,)),
        equal_on_basis("retraction_right_coaction_compat",
                       over_a([p(r0), rh]),
                       compile_map(field, (c,), [
                           system.small_coalgebra.gamma_inv(c),
                           const(hsp, h.algebra.unit)]), (csp,)),
    ]


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF7"])
def test_restated_admissible_laws_report_what_the_composed_forms_did(field):
    from report_identity import system_mutants

    failed = Counter()
    for label, system in system_mutants(field):
        report = check_admissible(system)
        for want in composed_statements(system):
            assert report.find(want.name).as_dict() == want.as_dict(), label
            failed[want.name] += not want.passed
    assert len(failed) == 5 and all(failed.values()), failed


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF7"])
def test_cocycle_comult_compat_reports_what_the_pair_coalgebra_form_did(
        field):
    """sigma's comultiplicativity, stated over (h, g), against the form
    with one input leg u of the pair coalgebra on H (x) H, under a +1 at
    every site of the cocycle cube of the two sign data."""
    failed = 0
    for datum in (sweedler_sign_datum, classical_radford_datum):
        spec = datum(field)
        hopf = spec.crossed.hopf_bialgebra
        pair = pair_coalgebra(hopf)
        (u,) = inputs(pair.space)
        cube = spec.crossed.cocycle.sigma
        for site in product(*map(range, (len(cube), len(cube[0]),
                                         len(cube[0][0])))):
            mutant = dataclasses.replace(spec, crossed=mutate_crossed_spec(
                spec.crossed, "sigma", site, 1))
            sig = mutant.crossed.cocycle.sigma_map
            want = equal_on_basis(
                "cocycle_comult_compat",
                compose(mutant.coalgebra.comult_map, sig),
                compile_map(field, (u,), [
                    sig(v) for v in split(pair.comult_map, u)]),
                (hopf.space, hopf.space))
            got = check_biproduct_conditions(mutant).find(
                "cocycle_comult_compat")
            assert got.as_dict() == want.as_dict(), site
            failed += not want.passed
    assert failed
