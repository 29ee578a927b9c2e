"""Registry goldens, mutation coverage, exports, and prime-field variants."""

from fractions import Fraction

import pytest

from homhopf.corpus import (
    CharTwoError,
    classical_radford_datum,
    corpus_entries,
    example24_sigma,
    example24_spec,
    export_biproduct_spec,
    export_crossed_spec,
    export_hopf,
    mutate,
    selftest,
    shipped_documents,
    sweedler_h4_hom,
)
from homhopf.fields import PrimeField
from homhopf.homcore import check_antipode, check_hom_bialgebra
from homhopf.structfile import parse


def test_every_entry_reproduces_its_goldens():
    ok, results = selftest()
    mismatches = {
        (entry, check): pair
        for entry, cell in results.items()
        for check, pair in cell.items()
        if pair[0] != pair[1]
    }
    assert ok, f"golden mismatches: {mismatches}"


def test_goldens_are_deterministic_across_runs():
    first = {e.name: e.run() for e in corpus_entries()}
    second = {e.name: e.run() for e in corpus_entries()}
    assert first == second


def test_goldens_cover_every_registered_check():
    for entry in corpus_entries():
        assert set(entry.expected) == set(entry.checks), entry.name


def entry_by_name(name):
    for entry in corpus_entries():
        if entry.name == name:
            return entry
    raise KeyError(name)


def run_reports(entry):
    return {name: thunk() for name, thunk in entry.checks.items()}


MUTATION_SITES = [
    ("h4_twisted", "mult", (1, 2, 3)),    # g.x coefficient
    ("h4_twisted", "mult", (2, 1, 3)),    # x.g coefficient
    ("h4_twisted", "mult", (0, 2, 2)),    # 1.x coefficient
    ("h4_twisted", "comult", (2, 2, 1)),  # x (x) g coefficient
    ("h4_twisted", "comult", (1, 1, 1)),  # g (x) g coefficient
    ("example24_n1", "sigma", (2, 2, 0)),
    ("example24_n1", "sigma", (0, 0, 0)),
    ("example24_n1", "sigma", (3, 2, 0)),
    ("example24_n1", "act", (1, 1, 1)),   # g.y coefficient
    ("example24_n1", "act", (0, 1, 1)),   # 1.y coefficient
    ("radford_classical", "coact", (1, 1, 1)),
    ("radford_classical", "sigma", (1, 1, 0)),
    ("radford_classical", "comult", (1, 0, 1)),
]


@pytest.mark.parametrize("name,component,site", MUTATION_SITES)
def test_single_site_mutations_flip_some_check(name, component, site):
    entry = entry_by_name(name)
    mutated = mutate(entry, (component, *site), 1)
    verdicts = mutated.run()
    assert "fail" in verdicts.values(), \
        f"mutation at {component}{site} went undetected: {verdicts}"


def test_mutate_rejects_zero_delta_and_bad_sites():
    entry = entry_by_name("h4_twisted")
    with pytest.raises(ValueError):
        mutate(entry, ("mult", 0, 0, 0), 0)
    with pytest.raises(IndexError):
        mutate(entry, ("mult", 9, 0, 0), 1)
    with pytest.raises(ValueError):
        mutate(entry, ("nonsense", 0, 0, 0), 1)


def test_exports_parse_back_to_equal_structures():
    h = sweedler_h4_hom()
    sf = parse(export_hopf(h, "H"))
    assert sf.bundles["H"] == h

    spec = example24_spec(1, 0, -1)
    sf = parse(export_crossed_spec(spec))
    assert sf.bundles["crossed"] == spec

    bip = classical_radford_datum()
    sf = parse(export_biproduct_spec(bip))
    assert sf.bundles["biproduct"] == bip


def test_shipped_documents_roundtrip_bit_exact():
    for name, text in shipped_documents().items():
        assert parse(text).serialize() == text, name


def test_corpus_over_a_prime_field():
    gf = PrimeField(7)
    h = sweedler_h4_hom(gf)
    assert check_hom_bialgebra(h.bialgebra).passed
    assert check_antipode(h).passed
    from homhopf.constructions import check_cocycle_conditions

    spec = example24_spec(1, 0, -1, gf)
    assert check_cocycle_conditions(spec).passed


def test_char_two_is_rejected_for_the_worked_cocycle():
    with pytest.raises(CharTwoError):
        example24_sigma(1, PrimeField(2))


def test_sigma_reading_flags_change_the_table():
    printed = example24_sigma(2, orientation="first_in_rows")
    shipped = example24_sigma(2)
    assert printed.sigma != shipped.sigma
    y_reading = example24_sigma(2, values_in="y")
    assert y_reading.sigma[2][2][1] == 1  # lands on the y coordinate
    assert shipped.sigma[2][2][0] == 1    # lands on the unit coordinate


def test_prime_field_grid_sweep():
    # prime fields are the fast lane for sweeps; a small grid over GF(7)
    gf = PrimeField(7)
    from homhopf.constructions import check_cocycle_conditions, crossed_product
    from homhopf.homcore import check_hom_algebra

    for n in (0, 1):
        for m, k in ((0, -1), (1, 1), (-2, 2)):
            spec = example24_spec(n, m, k, gf)
            assert check_cocycle_conditions(spec).passed
            assert check_hom_algebra(crossed_product(spec)).passed


def test_failing_witnesses_reevaluate_to_unequal_sides():
    # invariant: every failure witness carries two genuinely different exact
    # vectors, and recomputation reproduces it bit-for-bit
    cases = [
        ("h4_twisted", ("mult", 1, 2, 3)),
        ("h4_twisted", ("comult", 2, 2, 1)),
        ("example24_n1", ("sigma", 2, 2, 0)),
        ("example24_n1", ("act", 1, 1, 1)),
        ("radford_classical", ("coact", 1, 1, 1)),
    ]
    for name, site in cases:
        first = run_reports(mutate(entry_by_name(name), site, 1))
        second = run_reports(mutate(entry_by_name(name), site, 1))
        failing = {k: r for k, r in first.items() if not r.passed}
        assert failing, f"{name}{site} produced no failure"
        for check, report in failing.items():
            w = report.first_failure().witness
            assert w is not None and w.lhs != w.rhs
            w2 = second[check].first_failure().witness
            assert (w2.basis, w2.lhs, w2.rhs) == (w.basis, w.lhs, w.rhs)


def walk_witnesses(report):
    if report.witness is not None:
        yield report.witness
    for sub in report.subchecks:
        yield from walk_witnesses(sub)


def test_witness_scalars_over_q_are_fractions():
    # the kernel holds integral rationals as int; reports hand out Fractions
    entries = corpus_entries()
    entries += [mutate(entry_by_name(name), site, 1) for name, site in (
        ("h4_twisted", ("mult", 1, 2, 3)),
        ("example24_n1", ("sigma", 2, 2, 0)),
        ("radford_classical", ("coact", 1, 1, 1)))]
    witnesses = [w for entry in entries
                 for report in run_reports(entry).values()
                 for w in walk_witnesses(report)]
    assert len(witnesses) > 10
    for w in witnesses:
        scalars = w.lhs + w.rhs + (w.entry[2:] if w.entry else ())
        assert all(type(v) is Fraction for v in scalars), w


def test_selftest_builds_each_derived_object_once(count_calls):
    import homhopf.corpus as corpus

    # the twisted Sweedler algebra is shared process-wide; start cold
    corpus._sweedler_h4_hom.cache_clear()
    counts = {name: count_calls(module, name) for module, name in (
        ("constructions", "build_biproduct"),
        ("admissible", "canonical_system"),
        ("admissible", "check_admissible"),
        ("convact", "cocycle_inverse"),
        ("homcore", "yau_twist"),
        ("homcore", "tensor_coalgebra"),
    )}
    ok, _ = selftest()
    assert ok
    got = {name: calls[0] for name, calls in counts.items()}
    # one pair coalgebra per H object: H4, and C2 twice
    assert got.pop("tensor_coalgebra") <= 3
    # one biproduct, canonical system and verdict per valid biproduct
    # entry, one inverse per crossed-product cocycle, one twist of H4 plus
    # the two the corpus makes on purpose
    assert got == {"build_biproduct": 4, "canonical_system": 4,
                   "check_admissible": 4, "cocycle_inverse": 3,
                   "yau_twist": 3}


def test_selftest_builds_each_crossed_product_once(count_calls):
    # one per crossed-product entry and one per valid biproduct entry; the
    # biproduct antipode reuses the assembled biproduct's product
    calls = count_calls("constructions", "crossed_product")
    ok, _ = selftest()
    assert ok
    assert calls[0] == 7


def test_selftest_unpacks_no_structure_constants(count_calls):
    """Records hold their constants as packed maps, spec validation
    compares the records a spec shares by identity before their fields, and
    every corpus spec shares its records, so a selftest unpacks no cube.
    The dataclass ``==`` alone unpacks every cube of both records it
    compares: 21 in one selftest."""
    import homhopf.corpus as corpus

    corpus._sweedler_h4_hom.cache_clear()
    unpacks = [count_calls("homcore", name) for name in (
        "tensor_from_bilinear", "tensor_from_splitting")]
    ok, _ = selftest()
    assert ok
    assert [calls[0] for calls in unpacks] == [0, 0]


def test_selftest_holds_no_more_nonzeros_than_it_did(held_nonzeros):
    """A cold selftest holds 31,108 nonzeros in its Pipeline blocks, summed
    over their steps (``tests/kernel_work.py``'s ``selftest_held_nonzeros``).
    With ``map_leg`` taking a tensor of identities for a step (testing the
    spaces with ``is``, not ``==``), it held 31,592 while every other test
    passed; compiling both halves of every convolution system, 31,338;
    without ``Pipeline._rewrite``'s one-block shortcut, 31,121."""
    import homhopf.corpus as corpus

    corpus._sweedler_h4_hom.cache_clear()
    (ok, _), held = held_nonzeros(selftest)
    assert ok
    assert held <= 31108


def test_a_cold_selftest_builds_no_product_names(monkeypatch):
    """Legs cut from a product are named from its factors, so a cold
    selftest builds no tuple of a product's names; reading the product's
    ``names`` to cut them built 7."""
    import homhopf.corpus as corpus
    from homhopf.exactlin import TensorSpace

    built, names = [0], TensorSpace.names.func

    def counted(space):
        built[0] += 1
        return names(space)

    monkeypatch.setattr(TensorSpace.names, "func", counted)
    corpus._sweedler_h4_hom.cache_clear()
    assert selftest()[0]
    assert built[0] == 0


def test_memoised_objects_do_not_leak_into_mutants():
    entry = entry_by_name("sweedler_sign_biproduct")
    for thunk in entry.checks.values():
        assert thunk().passed
    mutant = mutate(entry, ("coact", 1, 1, 0), 1)
    report = mutant.checks["biproduct_conditions"]()
    assert not report.passed
    assert report.first_failure().name == "coaction_multiplicative"


def test_two_selftests_in_one_process_agree():
    assert selftest() == selftest()


def test_twisted_sweedler_algebra_is_built_once_per_field():
    from homhopf.corpus import classical_sweedler_h4, sweedler_sign_map
    from homhopf.fields import QQ
    from homhopf.homcore import yau_twist

    over_q, over_gf7 = sweedler_h4_hom(QQ), sweedler_h4_hom(PrimeField(7))
    assert over_q is not over_gf7
    assert sweedler_h4_hom() is over_q
    assert sweedler_h4_hom(PrimeField(7)) is over_gf7
    for field, h in ((QQ, over_q), (PrimeField(7), over_gf7)):
        assert h == yau_twist(classical_sweedler_h4(field),
                              sweedler_sign_map(field))
