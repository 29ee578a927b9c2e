"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything here runs in exact field arithmetic; every comparison is exact
equality of scalars (zero tolerance), and each criterion finishes in seconds
on commodity hardware.
"""

from homhopf.admissible import (
    admissible_isomorphism,
    canonical_system,
    check_admissible,
    check_canonical_actions,
    check_cocycle_inverse_identities,
)
from homhopf.cli import main as cli_main
from homhopf.constructions import (
    CrossedProductSpec,
    biproduct_antipode,
    build_biproduct,
    check_biproduct_conditions,
    check_cocycle_conditions,
    crossed_product,
    smash_product,
)
from homhopf.convact import (
    cocycle_inverse,
    convolution_inverse,
    convolution_unit,
    convolve,
    trivial_cocycle,
)
from homhopf.corpus import (
    classical_radford_datum,
    cyclic_group_hopf,
    dual_numbers_antipode,
    example24_spec,
    involutive_automorphisms,
    mutate_crossed_spec,
    shipped_documents,
    sweedler_h4_hom,
    sweedler_sign_datum,
    trivial_biproduct_datum,
)
from homhopf.exactlin import compose, identity, maps_equal
from homhopf.fields import QQ
from homhopf.homcore import (
    check_antipode,
    check_hom_algebra,
    check_hom_bialgebra,
    check_hom_coalgebra,
    yau_twist,
)
from homhopf.structfile import parse

GRID = [(m, k) for m in range(-2, 3) for k in range(-2, 3)]

CORPUS_BIPRODUCTS = [
    ("radford_classical", classical_radford_datum),
    ("sweedler_sign_biproduct", sweedler_sign_datum),
    ("trivial_over_h4", lambda: trivial_biproduct_datum(sweedler_h4_hom())),
    ("trivial_over_c2", lambda: trivial_biproduct_datum(cyclic_group_hopf(2))),
]


def announce(number, passed, text):
    print(f"[criterion {number}] {'PASS' if passed else 'FAIL'} - {text}")
    assert passed


def test_criterion_1_worked_example_end_to_end():
    h = sweedler_h4_hom()
    ok = (check_hom_algebra(h.algebra).passed
          and check_hom_coalgebra(h.coalgebra).passed
          and check_hom_bialgebra(h.bialgebra).passed
          and check_antipode(h).passed)
    checked = 0
    for n in (0, 1, 2):
        for m, k in GRID:
            spec = example24_spec(n, m, k)
            if not check_cocycle_conditions(spec).passed:
                ok = False
                break
            algebra = crossed_product(spec)
            expected_unit = [a * b for a in spec.algebra.unit
                             for b in spec.hopf_bialgebra.algebra.unit]
            if list(algebra.unit) != expected_unit:
                ok = False
                break
            if not check_hom_algebra(algebra).passed:
                ok = False
                break
            checked += 1
    announce(1, ok and checked == 75,
             "twisted Sweedler algebra passes every axiom; the worked "
             "crossed product passes the cocycle conditions and the "
             "Hom-algebra axioms for n in {0,1,2} across the full "
             "(m,k) grid, exactly")


def test_criterion_2_trivial_cocycle_reduces_to_smash():
    base = example24_spec(0, 0, -1)
    trivial = trivial_cocycle(base.hopf_bialgebra, base.algebra)
    ok = True
    for m, k in GRID:
        spec = CrossedProductSpec(
            algebra=base.algebra, hopf=base.hopf, action=base.action,
            cocycle=trivial, m=m, k=k)
        crossed = crossed_product(spec)
        smash = smash_product(base.algebra, base.hopf_bialgebra,
                              base.action, m)
        if crossed.mult != smash.mult or crossed.unit != smash.unit:
            ok = False
            break
    announce(2, ok, "with the trivial cocycle the crossed multiplication "
                    "tensor equals the smash tensor entry-for-entry on the "
                    "full (m,k) grid")


def test_criterion_3_condition_equivalence_under_mutation():
    spec = example24_spec(1, 0, -1)
    hdim = spec.hopf_bialgebra.space.dim
    adim = spec.algebra.space.dim
    agreements = 0
    disagreements = []
    deltas = [QQ.coerce(1), QQ.coerce("-1/2")]
    for i in range(hdim):
        for j in range(hdim):
            for k in range(adim):
                for delta in deltas:
                    mutated = mutate_crossed_spec(spec, "sigma", (i, j, k),
                                                  delta)
                    conds = check_cocycle_conditions(mutated).passed
                    alg = check_hom_algebra(crossed_product(mutated)).passed
                    if conds == alg:
                        agreements += 1
                    else:
                        disagreements.append(
                            ((i, j, k), str(delta), conds, alg))
    total = hdim * hdim * adim * len(deltas)
    announce(3, total >= 50 and not disagreements,
             f"cocycle-condition and crossed-product-algebra verdicts agree "
             f"on all {total} single-site cocycle mutations "
             f"(disagreements: {disagreements})")


def test_criterion_4_biproduct_conditions_equivalence():
    spec = classical_radford_datum()
    conditions = check_biproduct_conditions(spec)
    ok = conditions.passed and len(conditions.subchecks) == 9
    built = build_biproduct(spec)
    ok = ok and built.bialgebra_check.passed

    # inject a violation of the comult-unit condition and bypass the gate:
    # the assembled structure must fail the bialgebra axioms
    from tests.test_constructions import inject_comult_unit_violation

    broken_spec = inject_comult_unit_violation(spec)
    broken_conditions = check_biproduct_conditions(broken_spec)
    broken = build_biproduct(broken_spec, bypass=True)
    ok = (ok
          and not broken_conditions.sub("comult_preserves_unit").passed
          and not broken.bialgebra_check.passed)
    announce(4, ok, "classical biproduct datum passes all nine conditions "
                    "and assembles to a Hom-bialgebra; a bypassed unit-"
                    "condition violation breaks the bialgebra axioms "
                    "downstream")


def test_criterion_5_biproduct_antipode():
    spec = classical_radford_datum()
    built = build_biproduct(spec)
    s = biproduct_antipode(spec, built.bialgebra, spec.crossed.hopf.antipode,
                           dual_numbers_antipode())
    b = built.bialgebra
    e = convolution_unit(b.coalgebra, b.algebra)
    idb = identity(QQ, b.space)
    ok = (maps_equal(convolve(s, idb, b.coalgebra, b.algebra), e).passed
          and maps_equal(convolve(idb, s, b.coalgebra, b.algebra), e).passed
          and compose(s, b.alpha) == compose(b.alpha, s))
    solved = convolution_inverse(idb, b.coalgebra, b.algebra)
    ok = ok and maps_equal(s, solved).passed
    announce(5, ok, "the biproduct antipode satisfies both convolution "
                    "identities exactly, commutes with the structure map, "
                    "and coincides with the independently solved "
                    "convolution inverse of the identity")


def test_criterion_6_mapping_system_roundtrip():
    ok = True
    details = []
    for name, builder in CORPUS_BIPRODUCTS:
        spec = builder()
        built = build_biproduct(spec)
        system = canonical_system(built)
        adm = check_admissible(system)
        lemmas = check_canonical_actions(system)
        crossed = CrossedProductSpec(
            algebra=spec.crossed.algebra, hopf=spec.crossed.hopf,
            action=spec.crossed.action,
            cocycle=cocycle_inverse(spec.crossed.cocycle),
            m=spec.crossed.m, k=spec.crossed.k)
        identities = check_cocycle_inverse_identities(crossed)
        f, g, iso = admissible_isomorphism(system)
        b = built.bialgebra
        roundtrips = (compose(f, g) == identity(QQ, b.space)
                      and compose(g, f) == identity(QQ, b.space))
        here = (adm.passed and lemmas.passed and identities.passed
                and iso.passed and roundtrips
                and iso.sub("forward_multiplicative").passed
                and iso.sub("backward_comultiplicative").passed)
        ok = ok and here
        details.append(f"{name}:{'ok' if here else 'FAIL'}")
    announce(6, ok, "canonical mapping systems of every corpus biproduct "
                    "pass all five admissibility conditions, the carrier "
                    "module lemmas, the cocycle-inverse identities, and "
                    "give exact mutually inverse bialgebra isomorphisms "
                    f"({', '.join(details)})")


def test_criterion_7_twist_generator_soundness():
    twists = 0
    ok = True
    for name in ("sweedler", "c2", "c4"):
        classical, automorphisms = involutive_automorphisms(name)
        for phi in automorphisms:
            twisted = yau_twist(classical, phi)
            if not (check_hom_bialgebra(twisted.bialgebra).passed
                    and check_antipode(twisted).passed):
                ok = False
            twists += 1
    announce(7, ok and twists >= 5,
             f"{twists} twists over three classical Hopf algebras "
             f"(all involutive automorphisms, identity included) pass the "
             f"full Hom-Hopf suite")


def test_criterion_8_cli_determinism_and_witnesses(tmp_path, capsys):
    ok = cli_main(["selftest"]) == 0
    capsys.readouterr()

    for name, text in shipped_documents().items():
        sf = parse(text)
        if sf.serialize() != text:
            ok = False

    # a failing mutation prints a witness whose sides re-evaluate unequal
    spec = example24_spec(1, 0, -1)
    mutated = mutate_crossed_spec(spec, "sigma", (2, 2, 0), QQ.coerce(3))
    report = check_cocycle_conditions(mutated)
    witness = report.first_failure().witness
    ok = ok and witness is not None and witness.lhs != witness.rhs
    # recompute from scratch: same failing tuple, still unequal
    fresh = check_cocycle_conditions(
        mutate_crossed_spec(example24_spec(1, 0, -1), "sigma", (2, 2, 0),
                            QQ.coerce(3)))
    fresh_witness = fresh.first_failure().witness
    ok = (ok and fresh_witness.basis == witness.basis
          and fresh_witness.lhs == witness.lhs
          and fresh_witness.rhs == witness.rhs
          and fresh_witness.lhs != fresh_witness.rhs)
    announce(8, ok, "selftest exits 0, shipped files serialize bit-exactly, "
                    "and failing-mutation witnesses re-evaluate to unequal "
                    "sides when recomputed from scratch")
