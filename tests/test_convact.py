"""Actions, coactions, convolution, and convolution inverses."""

import sys
from pathlib import Path

import pytest

from homhopf import convact
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
    trivial_action,
    trivial_coaction,
    trivial_cocycle,
)
from homhopf.corpus import (
    classical_sweedler_h4,
    corpus_entries,
    cyclic_group_hopf,
    selftest,
    dual_numbers_algebra,
    example24_action,
    example24_sigma,
    sweedler_h4_hom,
)
from homhopf.exactlin import (
    FieldMismatch,
    LinearMap,
    Pipeline,
    SCALAR_SPACE,
    Space,
    compose,
    identity,
    maps_equal,
    solve_linear,
    _gauss_jordan,
    _sparse_rows,
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
from test_sweedler import record_steps

BENCH = str(Path(__file__).resolve().parent.parent / "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)
import taft  # noqa: E402


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
        co = Coaction(h.bialgebra, h.coalgebra, h.coalgebra.comult)
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
    unknowns = h.space.dim * h.space.dim
    assert len(_gauss_jordan(_sparse_rows(QQ, rows), unknowns,
                             QQ.characteristic)) == unknowns


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


# Listed, not read from the corpus at import, so that a kernel fault which
# breaks the corpus fails the tests below instead of their collection.
HOPF_ENTRIES = ["h4_classical", "h4_twisted", "c2_group", "c4_group",
                "c4_inversion_twist", "taft3_gf7"]


def test_hopf_entries_are_the_corpus_hopf_entries():
    assert HOPF_ENTRIES == [e.name for e in corpus_entries()
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


def non_invertible_maps(h, nilpotent):
    """The zero map and the rank-1 map c -> (basis vector ``nilpotent``) of
    h's space: no g makes f*g or g*f have a unit component."""
    q = h.space.dim
    x = h.space.names.index(nilpotent)
    return (LinearMap(h.field, h.space, h.space, [[0] * q] * q),
            LinearMap(h.field, h.space, h.space,
                      [[int(r == x)] * q for r in range(q)]))


@pytest.mark.parametrize("name, nilpotent", [
    ("h4_classical", "x"), ("h4_twisted", "x"), ("taft3_gf7", "g0x1")])
def test_non_invertible_system_matches_unit_map_assembly(name, nilpotent):
    h = hopf_entry(name)
    for f in non_invertible_maps(h, nilpotent):
        rows, rhs = _convolution_system(f, h.coalgebra, h.algebra)
        ref_rows, ref_rhs = unit_map_assembly(f, h.coalgebra, h.algebra)
        assert rows == sparse_rows(ref_rows)
        assert rhs == ref_rhs
        with pytest.raises(NotConvolutionInvertible) as err:
            convolution_inverse(f, h.coalgebra, h.algebra)
        assert err.value.certificate == solve_linear(h.field, ref_rows,
                                                     ref_rhs)


def test_convolution_system_builds_few_modints(monkeypatch):
    """Compiling the T_3 system from the mates of Delta builds 291 ModInts.
    Adjoining f as a vector of A (x) C and merging with the transpose of
    Delta built 1,227."""
    h = taft_hopf(3, 7, 2)
    f = identity(h.field, h.space)
    h.coalgebra.comult_map, h.algebra.mult_map  # built outside the count
    created = [0]
    init = ModInt.__init__

    def counted(obj, value, p):
        created[0] += 1
        init(obj, value, p)

    monkeypatch.setattr(ModInt, "__init__", counted)
    rows, _ = _convolution_system(f, h.coalgebra, h.algebra)
    monkeypatch.undo()
    assert len(rows) == 2 * 81
    assert created[0] <= 400


def test_convolution_system_holds_few_nonzeros(held_nonzeros):
    """The T_3 system's two operators hold 450 nonzeros in their blocks,
    summed over their steps: the guard above counted ModInts, which a
    GF(p) scalar held as a plain int no longer builds."""
    h = taft_hopf(3, 7, 2)
    f = identity(h.field, h.space)
    h.coalgebra.comult_map, h.algebra.mult_map  # built outside the count
    (rows, _), held = held_nonzeros(
        lambda: _convolution_system(f, h.coalgebra, h.algebra))
    assert len(rows) == 2 * 81
    assert held == 450


def test_convolution_system_applies_f_before_the_leaf_permute(monkeypatch):
    """On T_3 with f = S, f*g applies f to the mate's half before moving
    it in front of g's A leg, so f acts on one copy of the mate; applied
    after the permute it would act on p = 9 copies.  g*f needs no
    permute."""
    h = taft_hopf(3, 7, 2)
    s = convolution_inverse(identity(h.field, h.space), h.coalgebra, h.algebra)
    chains = record_steps(monkeypatch)
    _convolution_system(s, h.coalgebra, h.algebra)
    assert chains == [
        [("split_leg", 1), ("map_leg", 1), ("permute", [1, 0, 2]),
         ("merge_legs", 0, 2)],
        [("split_leg", 1), ("map_leg", 1), ("merge_legs", 0, 2)]]


def count_modints(monkeypatch, build):
    """The result of ``build()`` and the number of ModInts it constructs."""
    created = [0]
    init = ModInt.__init__

    def counted(obj, value, p):
        created[0] += 1
        init(obj, value, p)

    monkeypatch.setattr(ModInt, "__init__", counted)
    try:
        return build(), created[0]
    finally:
        monkeypatch.undo()


def test_convolving_with_the_identity_is_no_extra_step(monkeypatch):
    """On T_3, s * id builds 45 ModInts, as many as the chain without the
    identity step; rewriting through the identity built 63."""
    h = taft_hopf(3, 7, 2)
    sp, coalg, alg = h.space, h.coalgebra, h.algebra
    s = convolution_inverse(identity(h.field, sp), coalg, alg)
    ident = identity(h.field, sp)
    coalg.comult_map, alg.mult_map  # built outside the count
    with_step, n_with = count_modints(
        monkeypatch, lambda: convolve(s, ident, coalg, alg))
    without, n_without = count_modints(
        monkeypatch, lambda: Pipeline(h.field, [sp])
        .split_leg(0, coalg.comult_map, sp, sp).map_leg(0, s)
        .merge_legs(0, 2, alg.mult_map).finish())
    assert with_step == without
    assert n_with <= n_without


def test_convolving_with_the_identity_holds_no_extra_nonzeros(held_nonzeros):
    """On T_3, s * id and the chain without the identity step each hold 39
    nonzeros in their blocks, summed over their steps."""
    h = taft_hopf(3, 7, 2)
    sp, coalg, alg = h.space, h.coalgebra, h.algebra
    s = convolution_inverse(identity(h.field, sp), coalg, alg)
    ident = identity(h.field, sp)
    with_step, n_with = held_nonzeros(
        lambda: convolve(s, ident, coalg, alg))
    without, n_without = held_nonzeros(
        lambda: Pipeline(h.field, [sp])
        .split_leg(0, coalg.comult_map, sp, sp).map_leg(0, s)
        .merge_legs(0, 2, alg.mult_map).finish())
    assert with_step == without
    assert n_with == n_without == 39


def yau_twisted_taft_algebra():
    """The Yau twist of T_3's algebra along the automorphism x -> 3x over
    GF(7): product phi o m and structure map phi, which is not the
    identity."""
    a = taft_hopf(3, 7, 2).algebra
    phi = LinearMap(a.field, a.space, a.space, [
        [3 ** (j % 3) if i == j else 0 for j in range(9)] for i in range(9)])
    return HomAlgebra(a.field, a.space, compose(phi, a.mult_map), a.unit, phi)


@pytest.mark.parametrize("twisted, bound", [(False, 540), (True, 648)])
def test_hom_associativity_work_follows_the_nonzeros(monkeypatch, twisted,
                                                      bound):
    """Both sides of alpha(a)(bc) = (ab)alpha(c) on T_3 build 540 ModInts
    (alpha = id, whose step is skipped) and 648 on its Yau twist: a step
    over alpha's block and m's folds alpha into the step map once per
    column of alpha and rewrites m's nonzero columns.  Fusing the blocks
    into their full-domain Kronecker product before rewriting built 1,512
    on each."""
    a = yau_twisted_taft_algebra() if twisted else taft_hopf(3, 7, 2).algebra
    sp, m, alpha = a.space, a.mult_map, a.alpha
    (lhs, rhs), created = count_modints(monkeypatch, lambda: (
        Pipeline(a.field, [sp, sp, sp]).map_leg(0, alpha)
        .merge_legs(1, 2, m).merge_legs(0, 2, m).finish(),
        Pipeline(a.field, [sp, sp, sp]).merge_legs(0, 2, m)
        .map_leg(1, alpha).merge_legs(0, 2, m).finish()))
    assert lhs == rhs
    assert created <= bound


@pytest.mark.parametrize("twisted, held_then", [(False, 648), (True, 729)])
def test_hom_associativity_holds_the_nonzeros_it_follows(held_nonzeros,
                                                         twisted, held_then):
    """The same two sides on T_3 and on its Yau twist hold 648 and 729
    nonzeros in their blocks, summed over their steps."""
    a = yau_twisted_taft_algebra() if twisted else taft_hopf(3, 7, 2).algebra
    sp, m, alpha = a.space, a.mult_map, a.alpha
    (lhs, rhs), held = held_nonzeros(lambda: (
        Pipeline(a.field, [sp, sp, sp]).map_leg(0, alpha)
        .merge_legs(1, 2, m).merge_legs(0, 2, m).finish(),
        Pipeline(a.field, [sp, sp, sp]).merge_legs(0, 2, m)
        .map_leg(1, alpha).merge_legs(0, 2, m).finish()))
    assert lhs == rhs
    assert held == held_then


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


# ---------------------------------------------------------------------------
# The one-sided solve: the f*g rows are eliminated alone, their solution is
# checked against g*f, and the stacked system is solved only when the f*g
# rows leave an unknown free or their solution fails g*f.


def stacked_inverse(f, coalg, alg):
    """The convolution inverse the stacked system gives, or its
    certificate."""
    q, p = coalg.space.dim, alg.space.dim
    rows, rhs = _convolution_system(f, coalg, alg)
    sol = solve_linear(alg.field, rows, rhs, unknowns=p * q)
    if not sol:
        return sol
    return LinearMap(alg.field, coalg.space, alg.space,
                     [sol[r * q:(r + 1) * q] for r in range(p)])


def solve_paths(monkeypatch) -> list:
    """Log, in order, each elimination of the f*g rows alone, as
    "unique" or "free", and each stacked solve, as "stacked"."""
    log = []
    eliminate, solve = convact._gauss_jordan, convact.solve_linear

    def one_sided(rows, width, p):
        pivots = eliminate(rows, width, p)
        log.append("unique" if len(pivots) == width else "free")
        return pivots

    def stacked(*args, **kwargs):
        log.append("stacked")
        return solve(*args, **kwargs)

    monkeypatch.setattr(convact, "_gauss_jordan", one_sided)
    monkeypatch.setattr(convact, "solve_linear", stacked)
    return log


def test_ladder_and_corpus_systems_are_solved_one_sided(monkeypatch):
    """The antipodes of the benchmark's Taft rungs and the five systems a
    selftest solves: each f*g half has one solution, it passes g*f, and
    it is the stacked system's solution."""
    solved = []
    real = convact.convolution_inverse

    def recorded(f, coalg, alg):
        solved.append((f, coalg, alg, real(f, coalg, alg)))
        return solved[-1][-1]

    log = solve_paths(monkeypatch)
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "homhopf" \
                and getattr(mod, "convolution_inverse", None) is real:
            monkeypatch.setattr(mod, "convolution_inverse", recorded)
    assert selftest()[0]
    assert len(solved) == 5
    for rung in taft.make_ladder(5):
        h = taft.hopf_from_rung(rung)
        assert recorded(identity(h.field, h.space), h.coalgebra,
                        h.algebra) == h.antipode
    assert log == ["unique"] * 8
    for f, coalg, alg, g in solved:
        stacked = stacked_inverse(f, coalg, alg)
        assert g == stacked and g.matrix == stacked.matrix


SCALARS = HomCoalgebra(QQ, SCALAR_SPACE, [[[1]]], [1],
                       identity(QQ, SCALAR_SPACE))


def unital_1uv(products):
    """The unital algebra over Q on 1, u, v, alpha the identity, with the
    products of u and v given as {(i, j): coordinates of e_i e_j}, the
    others 0."""
    sp = Space(("1", "u", "v"))
    cube = [[[int(k == i + j) for k in range(3)] if 0 in (i, j)
             else products.get((i, j), [0, 0, 0]) for j in range(3)]
            for i in range(3)]
    return HomAlgebra(QQ, sp, cube, [1, 0, 0], identity(QQ, sp))


def scalar_map(a, coords):
    """f: k -> A, f(1) = coords."""
    return LinearMap(QQ, SCALAR_SPACE, a.space, [[v] for v in coords])


def test_a_unique_f_g_solution_failing_g_f_falls_back(monkeypatch):
    """u.u = v, u.v = 1, v.u = v.v = 0 and f(1) = u, C = k: u.b = 1 has
    the one solution b = v, but v.u = 0, so the substitution fails and
    the stacked system's certificate is raised."""
    a = unital_1uv({(1, 1): [0, 0, 1], (1, 2): [1, 0, 0]})
    f = scalar_map(a, [0, 1, 0])
    log = solve_paths(monkeypatch)
    with pytest.raises(NotConvolutionInvertible) as err:
        convolution_inverse(f, SCALARS, a)
    assert log == ["unique", "stacked"]
    assert err.value.certificate == stacked_inverse(f, SCALARS, a)


def test_a_rank_deficient_f_g_half_falls_back(monkeypatch):
    """f = 0 leaves every unknown free and has no inverse.  With
    u.v = v.v = 1 + v, u.u = v.u = 0 and f(1) = v, v.b = 1 leaves the
    coordinate of u free; b.v = 1 fixes it, and the inverse is v - 1.
    The first free f*g solution, -1 + u, solves g*f but not f*g."""
    a = unital_1uv({(1, 2): [1, 0, 1], (2, 2): [1, 0, 1]})
    log = solve_paths(monkeypatch)
    zero = scalar_map(a, [0, 0, 0])
    with pytest.raises(NotConvolutionInvertible) as err:
        convolution_inverse(zero, SCALARS, a)
    assert err.value.certificate == stacked_inverse(zero, SCALARS, a)
    f = scalar_map(a, [0, 0, 1])
    g = convolution_inverse(f, SCALARS, a)
    assert g == stacked_inverse(f, SCALARS, a)
    assert g.column(0) == (-1, 0, 1)
    assert log == ["free", "stacked"] * 2


# ---------------------------------------------------------------------------
# Find, then prove: the pass path compiles the f*g operator alone and proves
# its candidate with one convolution, g*f = e.


def counted_calls(monkeypatch, module, name) -> list:
    """A one-item list counting the calls of ``module.name`` from now on."""
    calls, real = [0], getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("name", HOPF_ENTRIES + ["taft5_ladder"])
def test_an_inverse_is_found_from_one_operator(monkeypatch, name):
    """The antipodes of the corpus Hopf entries and of the benchmark's T_5
    rung compile only the f*g operator and solve no stacked system."""
    h = (taft.hopf_from_rung(taft.make_ladder(5)[-1])
         if name == "taft5_ladder" else hopf_entry(name))
    f = identity(h.field, h.space)
    compiled = counted_calls(monkeypatch, convact, "compile_map")
    stacked = counted_calls(monkeypatch, convact, "solve_linear")
    g = convolution_inverse(f, h.coalgebra, h.algebra)
    assert (compiled[0], stacked[0]) == (1, 0)
    monkeypatch.undo()
    assert g == stacked_inverse(f, h.coalgebra, h.algebra)


@pytest.mark.parametrize("name", ["h4_classical", "taft3_gf7"])
def test_a_wrong_candidate_is_caught_by_the_convolution(monkeypatch, name):
    """The elimination is not trusted: with the candidate's first entry
    made wrong, g*f is not e, so the stacked system is solved and its
    solution returned.  Returning the candidate unproved fails here."""
    h = hopf_entry(name)
    f = identity(h.field, h.space)
    eliminate = convact._gauss_jordan

    def wrong(rows, width, p):
        pivots = eliminate(rows, width, p)
        v = rows[0].get(width, 0) + 1
        rows[0][width] = v % p if p else v
        return pivots

    monkeypatch.setattr(convact, "_gauss_jordan", wrong)
    stacked = counted_calls(monkeypatch, convact, "solve_linear")
    g = convolution_inverse(f, h.coalgebra, h.algebra)
    assert stacked[0] == 1
    monkeypatch.undo()
    assert g == stacked_inverse(f, h.coalgebra, h.algebra)


@pytest.mark.parametrize("products, coords", [
    ({(1, 1): [0, 0, 1], (1, 2): [1, 0, 0]}, [0, 1, 0]),
    ({(1, 2): [1, 0, 1], (2, 2): [1, 0, 1]}, [0, 0, 0]),
    ({(1, 2): [1, 0, 1], (2, 2): [1, 0, 1]}, [0, 0, 1]),
])
def test_a_fallback_compiles_no_more_than_both_halves(monkeypatch, products,
                                                      coords):
    """The cases above that fall back to the stacked system compile the
    f*g operator once and the g*f operator once."""
    a = unital_1uv(products)
    f = scalar_map(a, coords)
    compiled = counted_calls(monkeypatch, convact, "compile_map")
    stacked = counted_calls(monkeypatch, convact, "solve_linear")
    try:
        convolution_inverse(f, SCALARS, a)
    except NotConvolutionInvertible:
        pass
    assert stacked[0] == 1
    assert compiled[0] <= 2
