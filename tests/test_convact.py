"""Actions, coactions, convolution, and convolution inverses."""

import pytest

from homhopf.convact import (
    Coaction,
    ModuleAction,
    NotConvolutionInvertible,
    _convolution_system,
    check_cocycle_inverse,
    check_comodule_coalgebra,
    check_hom_comodule,
    check_hom_module,
    check_weak_module_algebra,
    cocycle_inverse,
    convolution_inverse,
    convolution_unit,
    convolve,
    pair_coalgebra,
    self_coaction,
    trivial_action,
    trivial_coaction,
    trivial_cocycle,
)
from homhopf.corpus import (
    classical_sweedler_h4,
    corpus_entries,
    cyclic_group_hopf,
    dual_numbers_algebra,
    example24_action,
    example24_sigma,
    sweedler_h4_hom,
)
from homhopf.exactlin import (
    FieldMismatch,
    LinearMap,
    Space,
    identity,
    maps_equal,
    matrix_rank,
)
from homhopf.fields import QQ, ModInt, PrimeField
from homhopf.homcore import (
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    HomHopf,
    check_antipode,
    check_hom_bialgebra,
)


def test_example_action_is_weak_module_algebra():
    assert check_weak_module_algebra(example24_action()).passed


def test_trivial_action_is_weak_module_algebra():
    h = sweedler_h4_hom()
    a = dual_numbers_algebra()
    assert check_weak_module_algebra(trivial_action(h.bialgebra, a)).passed
    assert check_hom_module(trivial_action(h.bialgebra, a)).passed


def test_altered_action_fails_weak_module_algebra():
    action = example24_action()
    cube = [[list(p) for p in slab] for slab in action.act]
    x = sweedler_h4_hom().space.names.index("x")
    cube[x][1][1] = QQ.one  # x . y := y
    broken = ModuleAction(action.acting, action.target, cube)
    report = check_weak_module_algebra(broken)
    assert not report.passed
    assert not report.sub("action_distributes_over_product").passed


def test_hopf_algebra_is_module_over_itself():
    h = sweedler_h4_hom()
    self_action = ModuleAction(h.bialgebra, h.algebra, h.algebra.mult)
    assert check_hom_module(self_action).passed


def test_example_action_is_full_hom_module():
    assert check_hom_module(example24_action()).passed


def test_trivial_coaction_is_comodule_coalgebra():
    from homhopf.corpus import dual_numbers_coalgebra

    h = sweedler_h4_hom()
    co = trivial_coaction(h.bialgebra, dual_numbers_coalgebra())
    assert check_comodule_coalgebra(co).passed


def test_self_coaction_satisfies_the_comodule_laws():
    # a bialgebra is a comodule over itself via its comultiplication; the
    # stronger comodule-coalgebra compatibility needs more (it already fails
    # classically at any group-like other than the unit: eps(g) g != eps(g) 1)
    for h in (sweedler_h4_hom(), classical_sweedler_h4(),
              cyclic_group_hopf(4)):
        co = self_coaction(h.bialgebra)
        assert check_hom_comodule(co).passed
        full = check_comodule_coalgebra(co)
        assert not full.passed
        assert not full.sub("coaction_counit_compat").passed


def test_coaction_without_structure_inverse_fails_counit_law():
    # the mirror counit law forces rho(a) = 1 (x) beta^{-1}(a); installing the
    # identity leg instead is detected whenever beta is not the identity
    h = sweedler_h4_hom()
    n = h.space.dim
    cube = [[[QQ.zero] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        cube[i][0][i] = QQ.one  # rho(a) = 1 (x) a
    broken = Coaction(h.bialgebra, h.coalgebra, cube)
    report = check_comodule_coalgebra(broken)
    assert not report.passed
    law = report.find("comodule_counit_law")
    assert not law.passed
    assert law.witness.basis == ("x",)


def test_convolving_antipode_with_identity_gives_unit_counit():
    h = sweedler_h4_hom()
    e = convolution_unit(h.coalgebra, h.algebra)
    idh = identity(QQ, h.space)
    assert maps_equal(convolve(h.antipode, idh, h.coalgebra, h.algebra), e).passed
    assert maps_equal(convolve(idh, h.antipode, h.coalgebra, h.algebra), e).passed


def test_convolution_unit_is_idempotent_classically():
    h = classical_sweedler_h4()
    e = convolution_unit(h.coalgebra, h.algebra)
    assert maps_equal(convolve(e, e, h.coalgebra, h.algebra), e).passed


def double_sum_convolution_oracle(f, g, coalg, alg):
    """(f * g)(e_t) by explicit loops over the structure constants."""
    n = coalg.space.dim
    p = alg.space.dim
    rows = [[QQ.zero] * n for _ in range(p)]
    for t in range(n):
        for j in range(n):
            for k in range(n):
                c = coalg.comult[t][j][k]
                if not c:
                    continue
                for u in range(p):
                    if not f.matrix[u][j]:
                        continue
                    for v in range(p):
                        if not g.matrix[v][k]:
                            continue
                        w = c * f.matrix[u][j] * g.matrix[v][k]
                        for i in range(p):
                            if alg.mult[u][v][i]:
                                rows[i][t] = rows[i][t] + w * alg.mult[u][v][i]
    return rows


def test_convolution_matches_double_sum_oracle():
    h = sweedler_h4_hom()
    idh = identity(QQ, h.space)
    built = convolve(idh, idh, h.coalgebra, h.algebra)
    oracle = double_sum_convolution_oracle(idh, idh, h.coalgebra, h.algebra)
    assert [list(r) for r in built.matrix] == oracle
    built = convolve(h.antipode, idh, h.coalgebra, h.algebra)
    oracle = double_sum_convolution_oracle(h.antipode, idh,
                                           h.coalgebra, h.algebra)
    assert [list(r) for r in built.matrix] == oracle


def test_convolution_inverse_of_identity_is_the_antipode():
    h = sweedler_h4_hom()
    solved = convolution_inverse(identity(QQ, h.space), h.coalgebra, h.algebra)
    assert maps_equal(solved, h.antipode).passed


def test_convolution_inverse_of_unit_is_itself():
    h = sweedler_h4_hom()
    e = convolution_unit(h.coalgebra, h.algebra)
    assert maps_equal(convolution_inverse(e, h.coalgebra, h.algebra), e).passed


def test_convolution_inverse_solution_space_is_zero_dimensional():
    h = sweedler_h4_hom()
    rows, _ = _convolution_system(identity(QQ, h.space),
                                  h.coalgebra, h.algebra)
    assert matrix_rank(QQ, rows) == h.space.dim * h.space.dim


def test_non_invertible_map_yields_certificate():
    h = sweedler_h4_hom()
    zero = LinearMap(QQ, h.space, h.space,
                     [[0] * 4 for _ in range(4)])
    with pytest.raises(NotConvolutionInvertible) as err:
        convolution_inverse(zero, h.coalgebra, h.algebra)
    assert err.value.certificate is not None


def test_trivial_cocycle_is_self_inverse():
    h = sweedler_h4_hom()
    sigma = trivial_cocycle(h.bialgebra, dual_numbers_algebra())
    inv = cocycle_inverse(sigma)
    assert inv.inverse == sigma.sigma
    assert check_cocycle_inverse(inv).passed


def test_cocycle_with_zero_parameter_is_self_inverse():
    inv = cocycle_inverse(example24_sigma(0))
    assert inv.inverse == inv.sigma


@pytest.mark.parametrize("n", [1, 2])
def test_cocycle_inverse_roundtrip(n):
    inv = cocycle_inverse(example24_sigma(n))
    assert check_cocycle_inverse(inv).passed
    # the inverse flips the sign of the nilpotent block and keeps the
    # group-like block
    sigma = example24_sigma(n)
    x = 2
    assert inv.inverse[x][x][0] == -sigma.sigma[x][x][0]
    assert inv.inverse[0][0][0] == sigma.sigma[0][0][0]


def test_convolution_is_bilinear():
    h = sweedler_h4_hom()
    idh = identity(QQ, h.space)
    s = h.antipode
    two_id = LinearMap(QQ, h.space, h.space,
                       [[v + v for v in row] for row in idh.matrix])
    lhs = convolve(two_id, s, h.coalgebra, h.algebra)
    base = convolve(idh, s, h.coalgebra, h.algebra)
    doubled = LinearMap(QQ, h.space, h.space,
                        [[v + v for v in row] for row in base.matrix])
    assert maps_equal(lhs, doubled).passed


# ---------------------------------------------------------------------------
# Differential oracle for the compiled convolution operators: the stacked
# system assembled the old way, from one convolve run per unit map.


def unit_map_assembly(f, coalg, alg):
    """Dense reference for _convolution_system: column u of the system is
    f*E_u stacked on E_u*f, where E_u is the u-th unit map C -> A."""
    field = alg.field
    q, p = coalg.space.dim, alg.space.dim
    columns = []
    for r in range(p):
        for s in range(q):
            unit = [[0] * q for _ in range(p)]
            unit[r][s] = 1
            unit_map = LinearMap(field, coalg.space, alg.space, unit)
            fg = convolve(f, unit_map, coalg, alg)
            gf = convolve(unit_map, f, coalg, alg)
            columns.append([v for m in (fg, gf) for row in m.matrix
                            for v in row])
    rows = [[col[eq] for col in columns] for eq in range(2 * p * q)]
    e = convolution_unit(coalg, alg)
    return rows, [v for row in e.matrix for v in row] * 2


def taft_hopf(n, p, zeta):
    """Taft's Hopf algebra T_n over GF(p), zeta a primitive n-th root of
    unity: basis g^a x^b at index a*n + b, g^n = 1, x^n = 0, xg = zeta gx,
    Delta(g) = g (x) g, Delta(x) = x (x) 1 + g (x) x.  The antipode slot
    holds the identity; tests solve for the real one."""
    field = PrimeField(p)
    dim = n * n
    sp = Space(tuple(f"g{a}x{b}" for a in range(n) for b in range(n)))
    mult = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n - b):
                    k = (a + c) % n * n + b + d
                    mult[a * n + b][c * n + d][k] = pow(zeta, b * c, p)

    def times(u, v):
        out = {}
        for (i1, j1), s in u.items():
            for (i2, j2), t in v.items():
                for k1, c1 in enumerate(mult[i1][i2]):
                    for k2, c2 in enumerate(mult[j1][j2]):
                        if c1 and c2:
                            key = (k1, k2)
                            out[key] = (out.get(key, 0) + s * t * c1 * c2) % p
        return out

    delta_g = {(n, n): 1}
    delta_x = {(1, 0): 1, (n, 1): 1}
    comult = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for a in range(n):
        for b in range(n):
            value = {(0, 0): 1}
            for factor in [delta_g] * a + [delta_x] * b:
                value = times(value, factor)
            for (j, k), c in value.items():
                comult[a * n + b][j][k] = c
    ida = identity(field, sp)
    bial = HomBialgebra(
        HomAlgebra(field, sp, mult, [1] + [0] * (dim - 1), ida),
        HomCoalgebra(field, sp, comult,
                     [1 if i % n == 0 else 0 for i in range(dim)], ida),
    )
    return HomHopf(bial, ida)


HOPF_ENTRIES = [e.name for e in corpus_entries()
                if isinstance(e.payload, HomHopf)] + ["taft3_gf7"]


def hopf_entry(name):
    if name == "taft3_gf7":
        return taft_hopf(3, 7, 2)
    return next(e.payload for e in corpus_entries() if e.name == name)


def sparse_rows(rows):
    return [{u: v for u, v in enumerate(row) if v} for row in rows]


@pytest.mark.parametrize("name", HOPF_ENTRIES)
def test_convolution_system_matches_unit_map_assembly(name):
    h = hopf_entry(name)
    for f in (identity(h.field, h.space), h.alpha, h.antipode):
        rows, rhs = _convolution_system(f, h.coalgebra, h.algebra)
        ref_rows, ref_rhs = unit_map_assembly(f, h.coalgebra, h.algebra)
        assert rows == sparse_rows(ref_rows)
        assert rhs == ref_rhs


@pytest.mark.parametrize("n", [0, 1, 2])
def test_cocycle_system_matches_unit_map_assembly(n):
    # A (dim 2) differs from the coalgebra H (x) H (dim 16)
    sigma = example24_sigma(n)
    coalg = pair_coalgebra(sigma.source)
    rows, rhs = _convolution_system(sigma.sigma_map, coalg, sigma.target)
    ref_rows, ref_rhs = unit_map_assembly(sigma.sigma_map, coalg,
                                          sigma.target)
    assert rows == sparse_rows(ref_rows)
    assert rhs == ref_rhs


def test_taft_antipode_is_solved_exactly_over_gf7():
    h = taft_hopf(3, 7, 2)
    assert check_hom_bialgebra(h.bialgebra).passed
    solved = convolution_inverse(h.alpha, h.coalgebra, h.algebra)
    assert all(type(v) is ModInt and v.p == 7
               for row in solved.matrix for v in row)
    assert check_antipode(HomHopf(h.bialgebra, solved)).passed
    # S(g) = g^2 and S(x) = -g^2 x in T_3
    assert solved.column(3)[6] == 1 and solved.column(1)[7] == -1


def test_convolution_inverse_refuses_a_map_over_another_field():
    h = taft_hopf(3, 7, 2)
    f = identity(QQ, h.space)
    with pytest.raises(FieldMismatch):
        convolution_inverse(f, h.coalgebra, h.algebra)
