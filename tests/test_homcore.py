"""Structure types, axiom checkers, corrupted-structure witnesses, twists."""

import random

import pytest

from homhopf.corpus import (
    classical_sweedler_h4,
    cyclic_group_hopf,
    cyclic_inversion_map,
    scalar_line_hopf,
    sweedler_h4_hom,
    sweedler_sign_map,
)
from homhopf import homcore
from homhopf.exactlin import (
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
