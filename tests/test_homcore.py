"""Structure types, axiom checkers, corrupted-structure witnesses, twists."""

import ast
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest

import homhopf
from homhopf.constructions import (
    crossed_product,
    smash_coproduct,
    smash_product,
)
from homhopf.convact import cocycle_inverse
from homhopf.corpus import (
    classical_sweedler_h4,
    cyclic_group_hopf,
    cyclic_inversion_map,
    scalar_line_hopf,
    sweedler_h4_hom,
    sweedler_sign_datum,
    sweedler_sign_map,
)
from homhopf import homcore
from homhopf.exactlin import (
    DimensionMismatch,
    FieldMismatch,
    LinearMap,
    NonInvertibleError,
    Pipeline,
    identity,
    tensor_space,
)
from homhopf.fields import QQ, PrimeField
from homhopf.homcore import (
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    NotAutomorphism,
    check_antipode,
    check_bialgebra_automorphism,
    check_hom_algebra,
    check_hom_bialgebra,
    check_hom_coalgebra,
    morphism_laws,
    tensor_algebra,
    tensor_coalgebra,
    yau_twist,
)


def test_structure_maps_must_be_invertible():
    sp = sweedler_h4_hom().space
    singular = LinearMap(QQ, sp, sp, [[0] * 4 for _ in range(4)])
    with pytest.raises(NonInvertibleError):
        HomAlgebra(QQ, sp, sweedler_h4_hom().algebra.mult,
                   [1, 0, 0, 0], singular)


def test_bialgebra_halves_must_share_space_and_structure_map():
    h = sweedler_h4_hom()
    classical = classical_sweedler_h4()
    with pytest.raises(ValueError):
        HomBialgebra(h.algebra, classical.coalgebra)


def test_h4_passes_all_axioms():
    h = sweedler_h4_hom()
    assert check_hom_algebra(h.algebra).passed
    assert check_hom_coalgebra(h.coalgebra).passed
    assert check_hom_bialgebra(h.bialgebra).passed
    assert check_antipode(h).passed


def test_classical_structures_pass_with_identity_map():
    for h in (classical_sweedler_h4(), cyclic_group_hopf(2),
              cyclic_group_hopf(4), scalar_line_hopf()):
        assert check_hom_bialgebra(h.bialgebra).passed
        assert check_antipode(h).passed


def test_twisted_table_with_identity_map_fails_unit_law():
    # keep the twisted multiplication but pretend the structure map is trivial
    h = sweedler_h4_hom()
    broken = HomAlgebra(QQ, h.space, h.algebra.mult, h.algebra.unit,
                        identity(QQ, h.space))
    report = check_hom_algebra(broken)
    assert not report.passed
    unit = report.sub("right_unit_law")
    assert not unit.passed
    # witness: x . 1 = -x while the identity structure map demands x
    assert unit.witness.basis == ("x",)
    x = h.space.names.index("x")
    assert unit.witness.lhs[x] == -1
    assert unit.witness.rhs[x] == 1


def test_classical_comult_with_sign_map_fails_counit_law():
    classical = classical_sweedler_h4()
    broken = HomCoalgebra(QQ, classical.space, classical.coalgebra.comult,
                          classical.coalgebra.counit, sweedler_sign_map())
    report = check_hom_coalgebra(broken)
    assert not report.passed
    counit = report.sub("right_counit_law")
    assert not counit.passed
    assert counit.witness.basis == ("x",)
    x = classical.space.names.index("x")
    assert counit.witness.lhs[x] == 1      # c1 eps(c2) evaluates to x
    assert counit.witness.rhs[x] == -1     # gamma^{-1}(x) = -x


def test_grouplike_corruption_breaks_comult_multiplicativity():
    h = sweedler_h4_hom()
    g = h.space.names.index("g")
    comult = [[list(p) for p in slab] for slab in h.coalgebra.comult]
    comult[g] = [[QQ.zero] * 4 for _ in range(4)]
    comult[g][g][0] = QQ.one               # Delta(g) := g (x) 1
    broken = HomBialgebra(
        h.algebra,
        HomCoalgebra(QQ, h.space, comult, h.coalgebra.counit, h.alpha))
    report = check_hom_bialgebra(broken)
    assert not report.passed
    mult_compat = report.sub("comult_multiplicative")
    assert not mult_compat.passed
    assert mult_compat.witness.basis == ("g", "x")


def classical_algebra_oracle(algebra):
    """Ten-line associativity-and-unit checker, independent of the kernel."""
    n = algebra.space.dim
    mult = algebra.mult
    unit = algebra.unit

    def times(u, v):
        out = [QQ.zero] * n
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if not b:
                    continue
                for k in range(n):
                    out[k] = out[k] + a * b * mult[i][j][k]
        return out

    basis = [[QQ.one if t == i else QQ.zero for t in range(n)]
             for i in range(n)]
    for u in basis:
        if times(u, list(unit)) != u or times(list(unit), u) != u:
            return False
    for u in basis:
        for v in basis:
            for w in basis:
                if times(times(u, v), w) != times(u, times(v, w)):
                    return False
    return True


def test_identity_map_checker_agrees_with_classical_oracle():
    good = classical_sweedler_h4().algebra
    assert check_hom_algebra(good).passed == classical_algebra_oracle(good)

    broken_cube = [[list(p) for p in slab] for slab in good.mult]
    broken_cube[2][1][3] = broken_cube[2][1][3] + QQ.one
    broken = HomAlgebra(QQ, good.space, broken_cube, good.unit, good.alpha)
    assert check_hom_algebra(broken).passed == classical_algebra_oracle(broken)
    assert not check_hom_algebra(broken).passed


def test_basis_sweep_extends_to_random_vectors():
    # every axiom is multilinear: a passing basis sweep determines the
    # identity everywhere; spot-check the twisted associativity on random
    # non-basis vectors
    h = sweedler_h4_hom()
    sp = h.space
    m = h.algebra.mult_map
    lhs = Pipeline(QQ, [sp, sp, sp]).map_leg(0, h.alpha) \
        .merge_legs(1, 2, m).merge_legs(0, 2, m).finish()
    rhs = Pipeline(QQ, [sp, sp, sp]).merge_legs(0, 2, m) \
        .map_leg(1, h.alpha).merge_legs(0, 2, m).finish()
    rng = random.Random(7)
    for _ in range(100):
        vec = [QQ.coerce(rng.randint(-5, 5)) for _ in range(64)]
        assert lhs.apply(vec) == rhs.apply(vec)


def test_yau_twist_reproduces_twisted_tables():
    rebuilt = yau_twist(classical_sweedler_h4(), sweedler_sign_map())
    target = sweedler_h4_hom()
    assert rebuilt.algebra.mult == target.algebra.mult
    assert rebuilt.coalgebra.comult == target.coalgebra.comult
    assert rebuilt.antipode == target.antipode
    assert rebuilt.alpha == target.alpha
    # the published tables, spot-checked entry by entry
    names = target.space.names
    one, g, x, w = (names.index(n) for n in ("1", "g", "x", "gx"))
    assert target.algebra.mult[one][x][x] == -1          # 1 . x = -x
    assert target.algebra.mult[g][x][w] == 1             # g . x = gx
    assert target.algebra.mult[x][g][w] == -1            # x . g = -gx
    assert target.coalgebra.comult[x][x][g] == -1        # -x (x) g
    assert target.coalgebra.comult[x][one][x] == -1      # 1 (x) (-x)
    assert [row[x] for row in target.antipode.matrix] == \
        [0, 0, 0, -1]                                    # S(x) = -gx


def test_yau_twist_with_identity_returns_same_structure():
    h = classical_sweedler_h4()
    twisted = yau_twist(h, identity(QQ, h.space))
    assert twisted.algebra.mult == h.algebra.mult
    assert twisted.coalgebra.comult == h.coalgebra.comult
    assert twisted.antipode == h.antipode


def test_yau_twist_of_cyclic_group_inversion_passes_everything():
    h = cyclic_group_hopf(4)
    twisted = yau_twist(h, cyclic_inversion_map(4))
    assert check_hom_bialgebra(twisted.bialgebra).passed
    assert check_antipode(twisted).passed


def test_yau_twist_rejects_non_automorphism():
    h = classical_sweedler_h4()
    sp = h.space
    # swap g and x: not multiplicative
    swap = LinearMap(QQ, sp, sp, [
        [1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    with pytest.raises(NotAutomorphism):
        yau_twist(h, swap)


def test_yau_twist_requires_classical_input():
    with pytest.raises(NotAutomorphism):
        yau_twist(sweedler_h4_hom(), sweedler_sign_map())


def test_tensor_algebra_and_coalgebra_of_classical_hopf_pass():
    h = cyclic_group_hopf(2)
    ta = tensor_algebra(h.algebra, h.algebra)
    tc = tensor_coalgebra(h.coalgebra, h.coalgebra)
    assert check_hom_algebra(ta).passed
    assert check_hom_coalgebra(tc).passed
    assert ta.space == tensor_space(h.space, h.space)


def test_singular_phi_reports_invertible_as_failed():
    h = classical_sweedler_h4()
    singular = LinearMap(QQ, h.space, h.space,
                         [[1, 0, 0, 0]] + [[0] * 4 for _ in range(3)])
    report = check_bialgebra_automorphism(h.bialgebra, singular)
    assert not report.passed
    assert not report.find("invertible").passed


def test_unrelated_error_in_automorphism_check_propagates(monkeypatch):
    h = classical_sweedler_h4()

    def broken_inverse(phi):
        raise FieldMismatch("not a singularity")

    monkeypatch.setattr(homcore, "inverse", broken_inverse)
    with pytest.raises(FieldMismatch):
        check_bialgebra_automorphism(h.bialgebra, identity(QQ, h.space))


def test_automorphism_over_another_field_is_refused():
    h = classical_sweedler_h4()
    phi = identity(PrimeField(7), h.space)
    with pytest.raises(FieldMismatch):
        check_bialgebra_automorphism(h.bialgebra, phi)


# ---------------------------------------------------------------------------
# morphism_laws

LAW_KINDS = ("multiplicative", "unital", "comultiplicative", "counital",
             "structure_compat")


def variant(b: HomBialgebra, **override) -> HomBialgebra:
    """b with some of its tables or its structure map replaced."""
    a, c = b.algebra, b.coalgebra
    alpha = override.get("alpha", b.alpha)
    return HomBialgebra(
        HomAlgebra(QQ, b.space, override.get("mult", a.mult),
                   override.get("unit", a.unit), alpha),
        HomCoalgebra(QQ, b.space, override.get("comult", c.comult),
                     override.get("counit", c.counit), alpha))


def bumped_cube(cube):
    out = [[list(plane) for plane in slab] for slab in cube]
    out[1][1][0] += 1
    return out


def test_morphism_laws_reports_in_keyword_order():
    b = classical_sweedler_h4().bialgebra
    idb = identity(QQ, b.space)
    reports = morphism_laws(idb, b, b, counital="e", multiplicative="m",
                            structure_compat="s", unital="u",
                            comultiplicative="d")
    assert [r.name for r in reports] == ["e", "m", "s", "u", "d"]
    assert all(r.passed for r in reports)
    # one half is enough for the laws that only read that half
    assert [r.name for r in morphism_laws(
        idb, b.coalgebra, b.coalgebra, structure_compat="s", counital="e")
    ] == ["s", "e"]


def test_morphism_laws_rejects_an_unknown_law_kind():
    b = classical_sweedler_h4().bialgebra
    with pytest.raises(ValueError, match="antipodal"):
        morphism_laws(identity(QQ, b.space), b, b, unital="u",
                      antipodal="s")


@pytest.mark.parametrize("kind, override", [
    ("multiplicative",
     lambda b: {"mult": bumped_cube(b.algebra.mult)}),
    ("unital", lambda b: {"unit": [2, 0, 0, 0]}),
    ("comultiplicative",
     lambda b: {"comult": bumped_cube(b.coalgebra.comult)}),
    ("counital", lambda b: {"counit": [2, 1, 0, 0]}),
    ("structure_compat", lambda b: {"alpha": sweedler_sign_map()}),
])
def test_each_morphism_law_fails_alone_under_its_own_name(kind, override):
    # the identity of H4 into a copy of H4 with one table changed breaks
    # exactly the law that reads that table
    source = classical_sweedler_h4().bialgebra
    target = variant(source, **override(source))
    reports = morphism_laws(identity(QQ, source.space), source, target,
                            **{k: f"{k}_law" for k in LAW_KINDS})
    bad = [r for r in reports if not r.passed]
    assert [r.name for r in bad] == [f"{kind}_law"]
    assert len(bad[0].witness.basis) == (2 if kind == "multiplicative" else 1)
    if kind == "unital":
        assert bad[0].witness.basis == ("k",)


RECORD_FIELDS = [QQ, PrimeField(7), PrimeField(2147483647)]


def packed(record, name):
    """The map a record holds a structure constant as."""
    return (record.inverse_map() if name == "inverse"
            else getattr(record, f"{name}_map"))


def construction_on(construction, field):
    """A thunk that runs ``construction`` on inputs built now from the sign
    biproduct datum over ``field`` (the Yau twist: of the classical Sweedler
    algebra along its sign map) and returns (record, constant name) for
    each structure constant of the records it builds."""
    spec = sweedler_sign_datum(field)
    crossed = spec.crossed
    a, h = crossed.algebra, crossed.hopf_bialgebra
    classical, sign = classical_sweedler_h4(field), sweedler_sign_map(field)

    def twist():
        twisted = yau_twist(classical, sign)
        return [(twisted.algebra, "mult"), (twisted.coalgebra, "comult")]

    def inverse():
        inv = cocycle_inverse(crossed.cocycle)
        return [(inv, "sigma"), (inv, "inverse")]

    return {
        "crossed_product": lambda: [(crossed_product(crossed), "mult")],
        "smash_product": lambda: [
            (smash_product(a, h, crossed.action, crossed.m), "mult")],
        "smash_coproduct": lambda: [(smash_coproduct(
            spec.coalgebra, h, spec.coaction, crossed.m), "comult")],
        "tensor_algebra": lambda: [(tensor_algebra(a, h.algebra), "mult")],
        "tensor_coalgebra": lambda: [
            (tensor_coalgebra(spec.coalgebra, h.coalgebra), "comult")],
        "yau_twist": twist,
        "cocycle_inverse": inverse,
    }[construction]


@pytest.mark.parametrize("field", RECORD_FIELDS, ids=["Q", "GF7", "GF2147483647"])
@pytest.mark.parametrize("construction", [
    "crossed_product", "smash_product", "smash_coproduct", "tensor_algebra",
    "tensor_coalgebra", "yau_twist", "cocycle_inverse"])
def test_a_constructed_record_derives_its_cube_only_when_read(
        monkeypatch, construction, field):
    """A construction hands its compiled map to the record, which unpacks
    no cube until the constant is read, then one per field however often it
    is read; a record rebuilt from that cube holds the same map."""
    build = construction_on(construction, field)
    unpacks = []
    for name in ("tensor_from_bilinear", "tensor_from_splitting"):
        def counted(*args, real=getattr(homcore, name)):
            unpacks.append(args)
            return real(*args)
        monkeypatch.setattr(homcore, name, counted)
    fields = build()
    assert unpacks == []
    cubes = []
    for count, (record, name) in enumerate(fields, start=1):
        cubes.append(getattr(record, name))
        assert getattr(record, name) is cubes[-1]
        assert len(unpacks) == count
    for (record, name), cube in zip(fields, cubes):
        assert packed(replace(record, **{name: cube}), name) == packed(
            record, name)


RECORDS = {
    "HomAlgebra.mult": (lambda d: d.crossed.algebra, "mult"),
    "HomCoalgebra.comult": (lambda d: d.coalgebra, "comult"),
    "ModuleAction.act": (lambda d: d.crossed.action, "act"),
    "Coaction.coact": (lambda d: d.coaction, "coact"),
    "Cocycle.sigma": (lambda d: d.crossed.cocycle, "sigma"),
    "Cocycle.inverse": (lambda d: cocycle_inverse(d.crossed.cocycle),
                        "inverse"),
}


@pytest.mark.parametrize("kind", sorted(RECORDS))
def test_a_record_refuses_a_ragged_cube(kind):
    record, name = RECORDS[kind]
    record = record(sweedler_sign_datum())
    cube = [[list(plane) for plane in slab] for slab in getattr(record, name)]
    shape = "x".join(str(n) for n in (
        len(cube), len(cube[0]), len(cube[0][0])))
    ragged = [cube[:-1], [cube[0][:-1], *cube[1:]],
              [[cube[0][0][:-1], *cube[0][1:]], *cube[1:]]]
    for bad in ragged:
        with pytest.raises(ValueError, match=re.escape(
                f"rank-3 tensor shape does not match {shape}")):
            replace(record, **{name: bad})


@pytest.mark.parametrize("kind", sorted(RECORDS))
def test_a_record_refuses_a_map_on_other_spaces_or_over_another_field(kind):
    record, name = RECORDS[kind]
    over_q = record(sweedler_sign_datum())
    over_gf7 = record(sweedler_sign_datum(PrimeField(7)))
    own = packed(over_q, name)
    assert packed(replace(over_q, **{name: own}), name) == own
    with pytest.raises(DimensionMismatch, match="record's spaces"):
        replace(over_q, **{name: identity(QQ, own.domain)})
    with pytest.raises(FieldMismatch):
        replace(over_q, **{name: packed(over_gf7, name)})


CUBE_PACKERS = {"bilinear_as_map", "splitting_as_map", "tensor_from_bilinear",
                "tensor_from_splitting"}


def test_only_exactlin_and_homcore_name_the_cube_packers():
    """``exactlin`` defines the four cube packers and unpackers and
    ``homcore``'s ``StructureConstants`` calls them; every other module
    hands a record a map or a cube."""
    naming = {path.stem for path in Path(homhopf.__file__).parent.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if CUBE_PACKERS & {getattr(node, "id", None),
                                 getattr(node, "attr", None),
                                 getattr(node, "name", None)}}
    assert naming == {"exactlin", "homcore"}
