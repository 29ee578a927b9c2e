"""Kernel operations: composition, Kronecker products, powers, exact solve,
map comparison, and the leg pipeline."""

import dataclasses
import gc
import itertools
import json
import random
import sys
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from homhopf.corpus import classical_sweedler_h4, sweedler_h4_hom
from homhopf.exactlin import (
    DimensionMismatch,
    FieldMismatch,
    LinearMap,
    NonInvertibleError,
    NoSolution,
    Pipeline,
    SCALAR_SPACE,
    Space,
    basis_tuple_names,
    bilinear_as_map,
    compose,
    equal_on_basis,
    flip_map,
    functional_as_map,
    identity,
    inverse,
    maps_equal,
    power,
    solve_linear,
    splitting_as_map,
    tensor,
    tensor_space,
    tensor_space_list,
    vector_as_map,
)
from homhopf.exactlin import _coerced, _gauss_jordan, _lift, _sparse_rows
from homhopf.fields import QQ, ModInt, PrimeField
from homhopf.report import CheckReport, Witness
from homhopf.sweedler import compile_map, holds, inputs, split


def rational_map(rows, domain=None, codomain=None):
    n = len(rows)
    m = len(rows[0])
    dom = domain or Space(tuple(f"d{i}" for i in range(m)))
    cod = codomain or Space(tuple(f"c{i}" for i in range(n)))
    return LinearMap(QQ, dom, cod, rows)


def test_space_validation():
    with pytest.raises(ValueError):
        Space(())
    with pytest.raises(ValueError):
        Space(("a", "a"))
    assert Space(("a", "b")).dim == 2


def test_space_dim_is_set_once_and_is_not_a_field():
    sp = Space(("a", "b", "c"))
    assert sp.dim == 3
    assert [f.name for f in dataclasses.fields(Space)] == ["names"]
    assert sp == Space(("a", "b", "c"))
    assert hash(sp) == hash(Space(("a", "b", "c")))
    assert repr(sp) == "Space(['a', 'b', 'c'])"
    with pytest.raises(dataclasses.FrozenInstanceError):
        sp.dim = 4


def test_compose_identity_is_neutral():
    f = rational_map([[1, 2], [3, 4], [0, 1]])
    assert compose(identity(QQ, f.codomain), f) == f
    assert compose(f, identity(QQ, f.domain)) == f


def test_compose_alpha_with_inverse_on_h4():
    h = sweedler_h4_hom()
    assert compose(h.alpha, inverse(h.alpha)) == identity(QQ, h.space)


def test_antipode_commutes_with_structure_map_on_h4():
    h = sweedler_h4_hom()
    assert compose(h.antipode, h.alpha) == compose(h.alpha, h.antipode)


def test_compose_shape_mismatch():
    f = rational_map([[1, 2]])
    g = rational_map([[1], [2], [3]])
    with pytest.raises(DimensionMismatch):
        compose(f, g)


def test_tensor_of_identities():
    a = Space(("a0", "a1"))
    b = Space(("b0", "b1", "b2"))
    assert tensor(identity(QQ, a), identity(QQ, b)) == \
        identity(QQ, tensor_space(a, b))


def test_tensor_of_structure_map_negates_mixed_vector():
    h = sweedler_h4_hom()
    t = tensor(h.alpha, h.alpha)
    names = h.space.names
    g = names.index("g")
    x = names.index("x")
    column = t.column(g * 4 + x)
    expected = [QQ.zero] * 16
    expected[g * 4 + x] = QQ.coerce(-1)  # alpha(g (x) x) = -(g (x) x)
    assert list(column) == expected


def kron_oracle(f, g):
    """Direct entrywise Kronecker product, independent of tensor()."""
    rows = []
    for i1 in range(f.codomain.dim):
        for i2 in range(g.codomain.dim):
            row = []
            for j1 in range(f.domain.dim):
                for j2 in range(g.domain.dim):
                    row.append(f.matrix[i1][j1] * g.matrix[i2][j2])
            rows.append(row)
    return rows


small = st.integers(min_value=-4, max_value=4).map(Fraction)
mat2 = st.lists(st.lists(small, min_size=2, max_size=2), min_size=2, max_size=2)


@given(mat2, mat2, mat2, mat2)
@settings(max_examples=40, deadline=None)
def test_tensor_functoriality_against_direct_expansion(a, b, c, d):
    sp = Space(("u", "v"))
    fa, fb, fc, fd = (rational_map(x, sp, sp) for x in (a, b, c, d))
    lhs = compose(tensor(fa, fb), tensor(fc, fd))
    rhs = tensor(compose(fa, fc), compose(fb, fd))
    assert lhs == rhs
    assert [list(r) for r in tensor(fa, fb).matrix] == kron_oracle(fa, fb)


@given(mat2, mat2, mat2)
@settings(max_examples=40, deadline=None)
def test_compose_associativity(a, b, c):
    sp = Space(("u", "v"))
    fa, fb, fc = (rational_map(x, sp, sp) for x in (a, b, c))
    assert compose(compose(fa, fb), fc) == compose(fa, compose(fb, fc))


def test_power_of_structure_map():
    h = sweedler_h4_hom()
    assert power(h.alpha, 2) == identity(QQ, h.space)
    assert power(h.alpha, 0) == identity(QQ, h.space)
    assert power(h.alpha, -1) == h.alpha  # involution


def test_power_additivity():
    f = rational_map([[1, 1], [0, 1]])
    f = LinearMap(QQ, f.domain, f.domain, f.matrix)
    for m in (-2, -1, 0, 1, 3):
        for n in (-1, 0, 2):
            assert power(f, m + n) == compose(power(f, m), power(f, n))


def test_power_rejects_singular_inverse():
    f = rational_map([[1, 0], [0, 0]])
    f = LinearMap(QQ, f.domain, f.domain, f.matrix)
    with pytest.raises(NonInvertibleError):
        power(f, -1)


def test_solve_identity_returns_rhs():
    b = [Fraction(3), Fraction(-1, 2)]
    assert solve_linear(QQ, [[1, 0], [0, 1]], b) == b


def test_solve_reports_inconsistent_row():
    out = solve_linear(QQ, [[1, 1], [1, 1]], [1, 0])
    assert isinstance(out, NoSolution)
    assert not out
    # the certificate row reads 0 = nonzero
    assert all(v == 0 for v in out.reduced_row[:-1])
    assert out.reduced_row[-1] != 0


def test_solve_random_invertible_roundtrip():
    rng = random.Random(20240611)
    for _ in range(5):
        while True:
            rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                     for _ in range(5)] for _ in range(5)]
            if len(dense_gauss_jordan([list(r) for r in rows], 5)) == 5:
                break
        b = [Fraction(rng.randint(-9, 9)) for _ in range(5)]
        x = solve_linear(QQ, rows, b)
        back = [sum((row[j] * x[j] for j in range(5)), Fraction(0))
                for row in rows]
        assert back == b


def test_maps_equal_reflexive_and_first_entry_witness():
    f = rational_map([[1, 0], [0, 1]])
    assert maps_equal(f, f).passed
    g = rational_map([[2, 0], [0, 2]])
    report = maps_equal(f, g)
    assert not report.passed
    row, col, a, b = report.witness.entry
    assert (row, col) == (0, 0)
    assert (a, b) == (1, 2)


def test_maps_equal_on_independently_built_sides():
    h = sweedler_h4_hom()
    sp = h.space
    m = h.algebra.mult_map
    lhs = Pipeline(QQ, [sp, sp, sp]).map_leg(0, h.alpha) \
        .merge_legs(1, 2, m).merge_legs(0, 2, m).finish()
    rhs = Pipeline(QQ, [sp, sp, sp]).merge_legs(0, 2, m) \
        .map_leg(1, h.alpha).merge_legs(0, 2, m).finish()
    assert maps_equal(lhs, rhs).passed


def test_pipeline_permute_and_adjoin():
    a = Space(("a0", "a1"))
    b = Space(("b0", "b1", "b2"))
    flip = Pipeline(QQ, [a, b]).permute([1, 0]).finish()
    # basis a_i (x) b_j must map to b_j (x) a_i
    for i in range(2):
        for j in range(3):
            col = flip.column(i * 3 + j)
            assert col[j * 2 + i] == 1 and sum(1 for v in col if v) == 1
    unit = Pipeline(QQ, [a]).adjoin_vector(0, b, [0, 1, 0]).finish()
    assert unit.column(1)[1 * 2 + 1] == 1


# ---------------------------------------------------------------------------
# Differential oracle for the sparse Gauss-Jordan: a dense reference with the
# same pivot rule (first row at or below the current one with a nonzero in
# the column; normalise it; clear the column in every other row).


def dense_gauss_jordan(aug, width):
    """Reduce dense rows in place on their first ``width`` columns; returns
    the pivot columns."""
    m = len(aug)
    pivots = []
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, m) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        p = aug[r][c]
        aug[r] = [v / p for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                factor = aug[i][c]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


def dense_reference_solve(field, rows, rhs):
    n = len(rows[0])
    aug = [[field.coerce(v) for v in row] + [field.coerce(b)]
           for row, b in zip(rows, rhs)]
    pivots = dense_gauss_jordan(aug, n)
    for i in range(len(pivots), len(aug)):
        if aug[i][n]:
            return NoSolution(row_index=i, reduced_row=tuple(aug[i]))
    solution = [field.zero] * n
    for i, c in enumerate(pivots):
        solution[c] = aug[i][n]
    return solution


def dense_reference_inverse(field, rows):
    n = len(rows)
    aug = [[field.coerce(v) for v in row]
           + [field.one if i == j else field.zero for j in range(n)]
           for i, row in enumerate(rows)]
    if len(dense_gauss_jordan(aug, n)) < n:
        return None
    return tuple(tuple(row[n:]) for row in aug)


GF7 = PrimeField(7)
# The largest modulus PrimeField accepts: a reduction the kernel misses
# shows as an unequal, non-canonical residue.
GF_BIG = PrimeField(2147483647)
SMALL_SCALARS = st.sampled_from([0, 0, 0, 1, -1, 2, 3])


@st.composite
def linear_systems(draw):
    """(field, rows, rhs): square, tall and wide shapes over Q and GF(7),
    mostly zeros; half the right-hand sides are A x for a random x, so
    consistent and inconsistent systems both occur."""
    field = draw(st.sampled_from([QQ, GF7]))
    m = draw(st.integers(1, 6))
    n = draw(st.sampled_from([m, max(1, m - 2), m + 2]))
    rows = draw(st.lists(st.lists(SMALL_SCALARS, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    if draw(st.booleans()):
        x = draw(st.lists(SMALL_SCALARS, min_size=n, max_size=n))
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    else:
        rhs = draw(st.lists(SMALL_SCALARS, min_size=m, max_size=m))
    return field, rows, rhs


@settings(max_examples=300, deadline=None)
@given(linear_systems())
def test_sparse_solver_matches_dense_reference(system):
    field, rows, rhs = system
    expected = dense_reference_solve(field, rows, rhs)
    assert solve_linear(field, rows, rhs) == expected
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    n = len(rows[0])
    assert solve_linear(field, sparse, rhs, unknowns=n) == expected


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([QQ, GF7, GF_BIG]), st.integers(1, 5), st.data())
def test_sparse_inverse_matches_dense_reference(field, n, data):
    rows = data.draw(st.lists(st.lists(SMALL_SCALARS, min_size=n, max_size=n),
                              min_size=n, max_size=n))
    sp = Space(tuple(f"e{i}" for i in range(n)))
    expected = dense_reference_inverse(field, rows)
    f = LinearMap(field, sp, sp, rows)
    if expected is None:
        with pytest.raises(NonInvertibleError):
            inverse(f)
    else:
        assert inverse(f).matrix == expected


@st.composite
def tall_sparse_systems(draw):
    """(field, rows, rhs): tall sparse systems up to 24 x 12 over Q, GF(7)
    and GF(2^31 - 1), twice as many rows as columns like the convolution
    system.  A column is sometimes a multiple of an earlier one, so
    rank-deficient systems occur; half the right-hand sides are A x for a
    random x and the rest arbitrary, so consistent and inconsistent systems
    both occur."""
    field = draw(st.sampled_from([QQ, GF7, GF_BIG]))
    n = draw(st.integers(1, 12))
    m = 2 * n
    columns = []
    for j in range(n):
        if j and draw(st.integers(0, 3)) == 0:
            earlier = columns[draw(st.integers(0, j - 1))]
            scale = draw(st.sampled_from([1, -1, 2, 3]))
            columns.append([scale * v for v in earlier])
        else:
            columns.append(draw(st.lists(SMALL_SCALARS, min_size=m,
                                         max_size=m)))
    rows = [[col[i] for col in columns] for i in range(m)]
    if draw(st.booleans()):
        x = draw(st.lists(SMALL_SCALARS, min_size=n, max_size=n))
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    else:
        rhs = draw(st.lists(SMALL_SCALARS, min_size=m, max_size=m))
    return field, rows, rhs


@settings(max_examples=200, deadline=None)
@given(tall_sparse_systems())
def test_tall_sparse_elimination_matches_dense_reference(system):
    """The indexed elimination leaves the same reduced rows, in the same
    order, with the same pivots as the dense row-by-row scan, and so the
    same solution or NoSolution certificate."""
    field, rows, rhs = system
    n = len(rows[0])
    sparse = _sparse_rows(field, rows, n)
    for row, b in zip(sparse, _sparse_rows(field, [[b] for b in rhs])):
        if b:
            row[n] = b[0]
    dense = [[field.coerce(v) for v in row] + [field.coerce(b)]
             for row, b in zip(rows, rhs)]
    assert _gauss_jordan(sparse, n, field.characteristic) == \
        dense_gauss_jordan(dense, n)
    assert [[_lift(field, row[k]) if k in row else field.zero
             for k in range(n + 1)] for row in sparse] == dense
    dict_rows = [{j: v for j, v in enumerate(row) if v} for row in rows]
    assert solve_linear(field, dict_rows, rhs, unknowns=n) == \
        dense_reference_solve(field, rows, rhs)


def test_inverse_of_a_singular_map_found_after_row_swaps():
    # column 0 needs a swap; rows 1 and 2 are dependent, which shows only
    # once column 1 is cleared
    rows = [[0, 1, 2, 0], [1, 0, 0, 3], [0, 2, 4, 0], [2, 1, 2, 6]]
    sp = Space(("e0", "e1", "e2", "e3"))
    for field in (QQ, GF7, GF_BIG):
        assert dense_reference_inverse(field, rows) is None
        with pytest.raises(NonInvertibleError):
            inverse(LinearMap(field, sp, sp, rows))


def test_dict_rows_need_the_number_of_unknowns():
    with pytest.raises(ValueError):
        solve_linear(QQ, [{0: 1}], [1])
    with pytest.raises(DimensionMismatch):
        solve_linear(QQ, [{2: 1}], [1], unknowns=2)


# ---------------------------------------------------------------------------
# Kernel output is built without re-coercion, so operands over different
# fields are refused up front.


def gf_map(rows, p=7):
    field = PrimeField(p)
    sp = Space(tuple(f"e{i}" for i in range(len(rows))))
    return LinearMap(field, sp, sp, rows)


def test_compose_and_tensor_refuse_mixed_fields():
    f = gf_map([[1, 2], [0, 1]])
    q = LinearMap(QQ, f.domain, f.domain, [[1, 0], [0, 1]])
    with pytest.raises(FieldMismatch):
        compose(q, f)
    with pytest.raises(FieldMismatch):
        compose(f, q)
    with pytest.raises(FieldMismatch):
        tensor(q, f)
    # a zero operand used to slip through and return a map over Q
    zero = LinearMap(QQ, f.domain, f.domain, [[0, 0], [0, 0]])
    with pytest.raises(FieldMismatch):
        compose(zero, f)
    with pytest.raises(FieldMismatch):
        tensor(zero, f)
    with pytest.raises(FieldMismatch):
        compose(f, gf_map([[1, 0], [0, 1]], p=5))


def test_pipeline_steps_refuse_maps_over_another_field():
    f = gf_map([[1, 2], [0, 1]])
    sp = f.domain
    pair = tensor_space(sp, sp)
    with pytest.raises(FieldMismatch):
        Pipeline(QQ, [sp]).map_leg(0, f)
    split = LinearMap(GF7, sp, pair, [[1, 0]] + [[0, 0]] * 3)
    with pytest.raises(FieldMismatch):
        Pipeline(QQ, [sp]).split_leg(0, split, sp, sp)
    merge = LinearMap(GF7, pair, sp, [[1, 0, 0, 0], [0, 0, 0, 0]])
    with pytest.raises(FieldMismatch):
        Pipeline(QQ, [sp, sp]).merge_legs(0, 2, merge)


def test_pipeline_adjoins_a_vector_as_several_legs():
    a = Space(("a0", "a1"))
    b = Space(("b0", "b1", "b2"))
    coords = list(range(6))
    two_legs = Pipeline(QQ, [a]).adjoin_vector(1, [a, b], coords).finish()
    one_leg = Pipeline(QQ, [a]).adjoin_vector(1, tensor_space(a, b),
                                              coords).finish()
    assert two_legs.matrix == one_leg.matrix
    with pytest.raises(DimensionMismatch):
        Pipeline(QQ, [a]).adjoin_vector(0, [a, b], [1, 2])


def test_kernel_output_over_gf_p_holds_only_residues_mod_p():
    for p in (7, GF_BIG.p):
        f = gf_map([[1, 2, 0], [0, 1, 3], [4, 0, 1]], p)
        field, sp = f.field, f.domain
        inv = inverse(f)        # det 25: large residues mod 2^31 - 1
        outputs = [
            compose(f, f), tensor(f, f), inverse(f), identity(field, sp),
            power(f, -3),
            Pipeline(field, [sp, sp]).map_leg(0, f).permute([1, 0]).finish(),
            tensor(inv, inv),
            Pipeline(field, [sp, sp]).map_leg(0, inv).map_leg(0, inv)
            .map_leg(1, inv).permute([1, 0])
            .merge_legs(0, 2, tensor(inv, inv)).finish(),
        ]
        for out in outputs:
            for row in out.matrix:
                assert all(type(v) is ModInt and v.p == p for v in row)
            assert all(type(v) is int and 0 <= v < p
                       for col in out.nonzero_columns().values()
                       for v in col.values())
        sol = solve_linear(field, [list(r) for r in f.matrix], [1, 2, 3])
        assert all(type(v) is ModInt and v.p == p for v in sol)


def assert_one_held_form(f):
    """``f`` holds only the dict of its nonzero columns, inside its spaces:
    no column empty, every value a nonzero kernel scalar (a residue in
    [1, p) over GF(p); over Q an int or a Fraction, which a product of
    fractions may leave integral), and no dense rows."""
    p = f.field.characteristic
    assert f._rows is None
    for j, col in f.nonzero_columns().items():
        assert 0 <= j < f.domain.dim and col
        for i, v in col.items():
            assert 0 <= i < f.codomain.dim
            if p:
                assert type(v) is int and 0 < v < p
            else:
                assert v and type(v) in (int, Fraction)


@pytest.mark.parametrize("field", [QQ, GF7, GF_BIG],
                         ids=["Q", "GF7", "GF2147483647"])
def test_every_route_to_a_map_holds_the_one_form(field):
    """Each way of building a map, 7 standing for an entry that is zero
    over GF(7) alone; both composes have a column that cancels, the second
    only over GF(7)."""
    sp, line = Space(("x", "y", "z")), Space(("u", "v"))
    rows = [[1, 7, 0], [-1, Fraction(1, 2), 0], [Fraction(4, 2), 0,
                                                 field.coerce(3)]]
    f = LinearMap(field, sp, sp, rows)
    g = LinearMap(field, line, line, [[1, 7], [-1, 2]])
    cube = [[[0, 7, 2], [-1, 0, 0]], [[0, 0, 0], [Fraction(1, 3), 1, 7]]]
    square = LinearMap(field, line, line, [[1, 1], [2, 2]])
    cancels = compose(square, LinearMap(field, line, line, [[1, 0], [-1, 1]]))
    by_seven = compose(square, LinearMap(field, line, line, [[1, 0], [6, 1]]))
    pipe = Pipeline(field, [line, line, sp]).map_leg(0, g).map_leg(1, g) \
        .merge_legs(0, 2, bilinear_as_map(field, line, line, sp, cube)) \
        .adjoin_vector(1, line, [7, 1]).permute([2, 0, 1])
    maps = [
        f, g, identity(field, sp), vector_as_map(field, sp, [0, 7, 2]),
        functional_as_map(field, sp, [7, -1, 0]), flip_map(field, sp, line),
        bilinear_as_map(field, line, line, sp, cube),
        splitting_as_map(field, line, line, sp, cube),
        compose(f, f), tensor(f, g), inverse(f), power(f, -2), power(f, 3),
        Pipeline(field, [sp]).map_leg(0, f)
        .adjoin_vector(1, SCALAR_SPACE, [1]).finish(),
        pipe.finish(), cancels, by_seven,
        Pipeline(field, [line]).map_leg(0, LinearMap(
            field, line, line, [[1, 0], [-1, 1]])).map_leg(0, square).finish(),
    ]
    for out in maps:
        assert_one_held_form(out)
    assert cancels.nonzero_columns() == {1: {0: 1, 1: 2}}
    assert (0 in by_seven.nonzero_columns()) is (field is not GF7)
    assert maps[-1] == cancels
    assert cancels == LinearMap(field, line, line, [[0, 1], [0, 2]])
    assert compose(f, f) != f   # the same nonzero columns, other values


@pytest.mark.parametrize("field", [QQ, GF7, GF_BIG],
                         ids=["Q", "GF7", "GF2147483647"])
def test_the_scalar_space_is_the_unit_of_the_tensor_product(field):
    """k (x) V and V (x) k are V itself, so a formula with a counit output
    lands on V with the columns it always had; only ``SCALAR_SPACE`` is
    absorbed, by identity, and another space named k stays a factor."""
    c = sweedler_h4_hom(field).coalgebra
    sp = c.space
    assert tensor_space(SCALAR_SPACE, sp) is sp
    assert tensor_space(sp, SCALAR_SPACE) is sp
    assert tensor_space(SCALAR_SPACE, SCALAR_SPACE) is SCALAR_SPACE
    assert tensor_space_list([SCALAR_SPACE, sp, SCALAR_SPACE]) is sp
    named_k = tensor_space(Space(("k",)), sp)
    assert named_k != sp and named_k.dim == sp.dim

    adjoined = Pipeline(field, [sp]).adjoin_vector(
        1, SCALAR_SPACE, [1]).finish()
    assert adjoined.codomain is sp and adjoined == identity(field, sp)

    (x,) = inputs(sp)
    x1, x2 = split(c.comult_map, x)
    # x1 eps(x2), summed by hand from the structure constants
    want = LinearMap(field, sp, sp, [
        [sum(c.comult[j][i][r] * c.counit[r] for r in range(sp.dim))
         for j in range(sp.dim)] for i in range(sp.dim)])
    got = compile_map(field, (x,), [x1, c.counit_map(x2)])
    assert got.codomain is sp and got == want
    assert got.nonzero_columns() == want.nonzero_columns()


def test_field_zero_and_one_are_shared():
    assert QQ.zero is QQ.zero and QQ.one is QQ.one
    assert GF7.zero is GF7.zero and GF7.one is GF7.one
    assert identity(GF7, Space(("x", "y"))).matrix[0][1] is GF7.zero


@pytest.mark.parametrize("field, zero", [(GF7, 7), (GF7, 14), (QQ, "0")],
                         ids=["GF7-7", "GF7-14", "Q-str"])
def test_packers_drop_entries_that_are_zero_in_the_field(field, zero):
    # an entry that is nonzero as given but zero in the field is dropped
    s, t = Space(("x",)), Space(("a", "b"))
    cube = [[[zero, 3]]]
    packed = [bilinear_as_map(field, s, s, t, cube),
              splitting_as_map(field, s, s, t, cube)]
    dense = [LinearMap(field, tensor_space(s, s), t, [[0], [3]]),
             LinearMap(field, s, tensor_space(s, t), [[0], [3]])]
    for got, want in zip(packed, dense):
        assert got.nonzero_columns() == {0: {1: 3}}
        assert got == want and hash(got) == hash(want)
        assert equal_on_basis("packed", got, want, [got.domain]).passed


# ---------------------------------------------------------------------------
# Scalar representation: inside the kernel an integral rational is an int;
# every value handed out is a field element, and no quotient is a float.


def only_type(values, kind):
    return all(type(v) is kind for v in values)


def test_quotients_over_q_are_exact_fractions():
    sol = solve_linear(QQ, [[3]], [1])
    assert sol == [Fraction(1, 3)] and only_type(sol, Fraction)
    sp = Space(("x", "y"))
    inv = inverse(LinearMap(QQ, sp, sp, [[2, 0], [0, 3]]))
    assert inv.matrix == ((Fraction(1, 2), 0), (0, Fraction(1, 3)))
    assert only_type(inv.matrix[0] + inv.matrix[1], Fraction)
    stuck = solve_linear(QQ, [[2, 2], [1, 1]], [1, 0])
    assert isinstance(stuck, NoSolution)
    assert only_type(stuck.reduced_row, Fraction)
    assert stuck.reduced_row[-1] != 0


def test_maps_compiled_from_integral_data_hold_ints():
    h = sweedler_h4_hom()
    sp, m, alpha = h.space, h.algebra.mult_map, h.algebra.alpha
    assoc = Pipeline(QQ, [sp, sp, sp]).merge_legs(0, 2, m) \
        .map_leg(1, alpha).merge_legs(0, 2, m)
    for f in (m, alpha, assoc.finish()):
        assert only_type((v for col in f.nonzero_columns().values()
                          for v in col.values()), int)
        assert only_type((v for row in f.matrix for v in row), Fraction)
        assert only_type(f.column(0), Fraction)
    assert only_type((v for col in assoc.columns for v in col.values()), int)


def test_a_proper_fraction_stays_a_fraction_in_the_kernel():
    sp = Space(("x",))
    half = LinearMap(QQ, sp, sp, [[Fraction(1, 2)]])
    for f in (half, compose(half, identity(QQ, sp))):
        [[v]] = (col.values() for col in f.nonzero_columns().values())
        assert type(v) is Fraction and v == Fraction(1, 2)


def test_kernel_and_dense_maps_agree_whatever_the_integer_form():
    sp = Space(("x", "y"))
    half = LinearMap(QQ, sp, sp, [[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    two = LinearMap(QQ, sp, sp, [[2, 0], [0, 2]])
    # compose keeps a Fraction(1), identity holds int 1, and the dense map
    # holds Fraction rows and int columns
    maps = [compose(half, two), identity(QQ, sp),
            LinearMap(QQ, sp, sp, [[1, 0], [0, 1]])]
    assert type(maps[0].nonzero_columns()[0][0]) is Fraction
    assert type(maps[1].nonzero_columns()[0][0]) is int
    for f in maps:
        for g in maps:
            assert f == g and hash(f) == hash(g)
            assert f.matrix == g.matrix
            assert only_type(f.matrix[0] + f.matrix[1], Fraction)


def test_an_integral_fraction_the_kernel_holds_acts_as_its_int():
    """compose, tensor and a Pipeline multiply 1/2 by 2 into Fraction(1):
    inputs are lowered, products are not.  Such a map equals its int-held
    twin, hashes alike, and gives the twin's equal_on_basis report bytes,
    passing or failing."""
    sp = Space(("x", "y"))
    half = LinearMap(QQ, sp, sp, [[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    two = LinearMap(QQ, sp, sp, [[2, 0], [0, 2]])
    pair = tensor_space(sp, sp)
    twin = identity(QQ, pair)
    other = LinearMap(QQ, pair, pair, [[int(i == j) + (i == j == 2)
                                        for j in range(4)] for i in range(4)])
    held = [tensor(half, two),
            Pipeline(QQ, [sp, sp]).map_leg(0, half).map_leg(1, two).finish(),
            Pipeline(QQ, [pair]).map_leg(0, tensor(half, half))
            .map_leg(0, tensor(two, two)).finish()]
    for f in held:
        values = [v for col in f.nonzero_columns().values() for v in col.values()]
        assert values and all(type(v) is Fraction and v == 1 for v in values)
        assert f == twin and hash(f) == hash(twin) and f.matrix == twin.matrix
        for g in (twin, other):
            for lhs, rhs in ((f, g), (g, f)):
                got = equal_on_basis("integral", lhs, rhs, (sp, sp)).as_dict()
                want = equal_on_basis(
                    "integral", twin if lhs is f else lhs,
                    twin if rhs is f else rhs, (sp, sp)).as_dict()
                assert json.dumps(got, sort_keys=True) == \
                    json.dumps(want, sort_keys=True)


def test_maps_equal_witness_holds_field_elements():
    f = rational_map([[1, 2], [3, 4]])
    g = compose(identity(QQ, f.codomain), rational_map([[1, 2], [3, 5]]))
    witness = maps_equal(f, g).witness
    assert witness.entry == (1, 1, 4, 5)
    assert only_type(witness.entry[2:] + witness.lhs + witness.rhs, Fraction)


# ---------------------------------------------------------------------------
# Differential oracle for the Pipeline leg compiler.  Every step is modelled
# as one Kronecker map built from tensor, compose, identity and flip_map,
# composed onto the map compiled so far; the compiled map must equal it.


def kron(maps):
    """Left-major tensor product of ``maps``."""
    out = maps[0]
    for m in maps[1:]:
        out = tensor(out, m)
    return out


class KroneckerModel:
    """The reference for Pipeline: the compiled map so far, as a LinearMap."""

    def __init__(self, field, legs):
        self.field = field
        self.legs = list(legs)
        self.map = identity(field, tensor_space_list(legs))

    def _apply(self, i, count, middle, new_legs):
        ids = [identity(self.field, s) for s in self.legs]
        step = kron(ids[:i] + [middle] + ids[i + count:])
        self.map = compose(step, self.map)
        self.legs[i:i + count] = new_legs

    def map_leg(self, i, f):
        self._apply(i, 1, f, [f.codomain])

    def split_leg(self, i, f, left, right):
        self._apply(i, 1, f, [left, right])

    def merge_legs(self, i, count, f):
        self._apply(i, count, f, [f.codomain])

    def adjoin_vector(self, i, space, coords):
        spaces = [space] if isinstance(space, Space) else list(space)
        vec = vector_as_map(self.field, tensor_space_list(spaces), coords)
        self._apply(i, 0, vec, list(spaces))

    def permute(self, order):
        # bubble the legs into place by flips of adjacent legs
        current = list(range(len(self.legs)))
        for t, want in enumerate(order):
            s = current.index(want)
            while s > t:
                a, b = self.legs[s - 1], self.legs[s]
                self._apply(s - 1, 2, flip_map(self.field, a, b), [b, a])
                current[s - 1], current[s] = current[s], current[s - 1]
                s -= 1


_space_ids = itertools.count()


def fresh_space(dim):
    tag = next(_space_ids)
    return Space(tuple(f"s{tag}_{i}" for i in range(dim)))


DIMS = st.integers(1, 4)


@st.composite
def random_map(draw, field, domain, codomain):
    rows = draw(st.lists(
        st.lists(SMALL_SCALARS, min_size=domain.dim, max_size=domain.dim),
        min_size=codomain.dim, max_size=codomain.dim))
    return LinearMap(field, domain, codomain, rows)


@st.composite
def pipeline_step(draw, field, legs, kind):
    """A (method name, args) step of the given kind valid on ``legs``."""
    n = len(legs)
    if kind == "map_leg":
        i = draw(st.integers(0, n - 1))
        f = draw(random_map(field, legs[i], fresh_space(draw(DIMS))))
        return "map_leg", (i, f)
    if kind == "split_leg":
        i = draw(st.integers(0, n - 1))
        left, right = fresh_space(draw(DIMS)), fresh_space(draw(DIMS))
        f = draw(random_map(field, legs[i], tensor_space(left, right)))
        return "split_leg", (i, f, left, right)
    if kind == "merge_legs":
        count = draw(st.integers(1, min(3, n)))
        i = draw(st.integers(0, n - count))
        f = draw(random_map(field, tensor_space_list(legs[i:i + count]),
                            fresh_space(draw(DIMS))))
        return "merge_legs", (i, count, f)
    if kind == "permute":
        return "permute", (draw(st.permutations(range(n))),)
    spaces = [fresh_space(draw(DIMS)) for _ in range(draw(st.integers(1, 2)))]
    i = draw(st.sampled_from(sorted({0, n // 2, n})))
    size = prod(s.dim for s in spaces)
    coords = draw(st.lists(SMALL_SCALARS, min_size=size, max_size=size))
    return "adjoin_vector", (i, spaces if len(spaces) > 1 else spaces[0],
                             coords)


STEP_KINDS = ["map_leg", "split_leg", "merge_legs", "permute",
              "adjoin_vector"]


def column_dicts(f):
    """The nonzero columns ``f`` holds, as ``Pipeline.columns`` lists them:
    one dict per domain basis vector, empty for a zero column."""
    return [f.nonzero_columns().get(j, {}) for j in range(f.domain.dim)]


def check_steps(data, field, legs, steps):
    """Run steps on a Pipeline and on the model and compare the compiled
    maps.  A step is (method name, args), or a kind from STEP_KINDS to be
    drawn on the legs the previous steps left."""
    pipe, model = Pipeline(field, legs), KroneckerModel(field, legs)
    for step in steps:
        if isinstance(step, str):
            step = data.draw(pipeline_step(field, model.legs, step))
        name, args = step
        getattr(pipe, name)(*args)
        getattr(model, name)(*args)
    compiled = pipe.finish()
    assert compiled == model.map
    assert compiled.matrix == model.map.matrix
    assert pipe.columns == column_dicts(model.map)


def random_legs(data, least=1):
    return [fresh_space(data.draw(DIMS))
            for _ in range(data.draw(st.integers(least, 4)))]


FIELDS = st.sampled_from([QQ, GF7, GF_BIG])


def unfused_blocks(data, field):
    """Legs, one of them perhaps ``SCALAR_SPACE``, and steps that leave the
    pipeline in several blocks: maps on a drawn set of legs, with identity
    runs between them, and perhaps a vector adjoined among them."""
    legs = random_legs(data, least=2)
    if data.draw(st.booleans()):
        legs.insert(data.draw(st.integers(0, len(legs))), SCALAR_SPACE)
    steps, current = [], list(legs)
    for i in sorted(data.draw(st.sets(st.integers(0, len(legs) - 1),
                                      min_size=1))):
        f = data.draw(random_map(field, legs[i], fresh_space(data.draw(DIMS))))
        steps.append(("map_leg", (i, f)))
        current[i] = f.codomain
    if data.draw(st.booleans()):
        space = fresh_space(data.draw(DIMS))
        coords = data.draw(st.lists(SMALL_SCALARS, min_size=space.dim,
                                    max_size=space.dim))
        steps.append(("adjoin_vector", (data.draw(
            st.integers(0, len(current))), space, coords)))
    return legs, steps


@pytest.mark.parametrize("kind", STEP_KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pipeline_step_matches_kronecker_construction(kind, data):
    """One step of each kind on a fresh pipeline; a permute also on one
    left in several blocks, which it places block by block."""
    field = data.draw(FIELDS)
    legs, steps = random_legs(data), []
    if kind == "permute" and data.draw(st.booleans()):
        legs, steps = unfused_blocks(data, field)
    check_steps(data, field, legs, steps + [kind])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pipeline_merges_one_to_three_legs(data):
    field = data.draw(FIELDS)
    count = data.draw(st.integers(1, 3))
    legs = random_legs(data, least=count)
    i = data.draw(st.integers(0, len(legs) - count))
    f = data.draw(random_map(field, tensor_space_list(legs[i:i + count]),
                             fresh_space(data.draw(DIMS))))
    check_steps(data, field, legs, [("merge_legs", (i, count, f))])


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("several", [False, True])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_pipeline_adjoins_at_every_position(where, several, data):
    field = data.draw(FIELDS)
    legs = random_legs(data, least=2)
    i = {"first": 0, "middle": len(legs) // 2, "last": len(legs)}[where]
    spaces = [fresh_space(data.draw(DIMS))
              for _ in range(data.draw(st.integers(2, 3)) if several else 1)]
    size = prod(s.dim for s in spaces)
    coords = data.draw(st.lists(SMALL_SCALARS, min_size=size, max_size=size))
    space = spaces if several else spaces[0]
    check_steps(data, field, legs, [("adjoin_vector", (i, space, coords))])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_pipeline_chains_match_kronecker_construction(data):
    kinds = data.draw(st.lists(st.sampled_from(STEP_KINDS), min_size=2,
                               max_size=4))
    check_steps(data, data.draw(FIELDS), random_legs(data), kinds)


# The Pipeline holds the map factored into blocks of consecutive legs and
# fuses only the blocks a step spans; these cases sit on block edges.


def touch_every_leg(data, field, legs):
    """map_leg steps on each leg in turn, each leg becoming its own touched
    block; returns the steps and the legs they leave."""
    steps, current = [], []
    for i, leg in enumerate(legs):
        f = data.draw(random_map(field, leg, fresh_space(data.draw(DIMS))))
        steps.append(("map_leg", (i, f)))
        current.append(f.codomain)
    return steps, current


def merge_step(data, field, legs, i, count):
    """A merge_legs step over legs i..i+count-1 of ``legs``, and the legs it
    leaves."""
    f = data.draw(random_map(field, tensor_space_list(legs[i:i + count]),
                             fresh_space(data.draw(DIMS))))
    return (("merge_legs", (i, count, f)),
            legs[:i] + [f.codomain] + legs[i + count:])


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_pipeline_merge_spans_several_touched_blocks(data):
    field = data.draw(FIELDS)
    legs = random_legs(data, least=3)
    steps, current = touch_every_leg(data, field, legs)
    count = data.draw(st.integers(2, 3))
    i = data.draw(st.integers(0, len(current) - count))
    merge, _ = merge_step(data, field, current, i, count)
    check_steps(data, field, legs, steps + [merge])


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_pipeline_disjoint_splits_then_interleaving_permute(data):
    """The shape of comult_multiplicative: split two legs apart, interleave
    their halves, then merge across the former blocks."""
    field = data.draw(FIELDS)
    legs = random_legs(data, least=2)
    halves = [fresh_space(data.draw(DIMS)) for _ in range(4)]
    f = data.draw(random_map(field, legs[0], tensor_space(*halves[:2])))
    g = data.draw(random_map(field, legs[1], tensor_space(*halves[2:])))
    rest = list(range(4, len(legs) + 2))
    current = [halves[0], halves[2], halves[1], halves[3]] + legs[2:]
    first, current = merge_step(data, field, current, 0, 2)
    second, _ = merge_step(data, field, current, 1, 2)
    check_steps(data, field, legs, [
        ("split_leg", (0, f, *halves[:2])),
        ("split_leg", (2, g, *halves[2:])),
        ("permute", ([0, 2, 1, 3] + rest,)),
        first, second])


@pytest.mark.parametrize("at", [0, 1, 2, 3])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_pipeline_adjoins_between_touched_blocks(at, data):
    """A vector adjoined at either end or between two touched blocks, then
    merged with a neighbouring leg."""
    field = data.draw(FIELDS)
    legs = [fresh_space(data.draw(DIMS)) for _ in range(3)]
    steps, current = touch_every_leg(data, field, legs)
    spaces = [fresh_space(data.draw(DIMS))
              for _ in range(data.draw(st.integers(1, 2)))]
    size = prod(s.dim for s in spaces)
    coords = data.draw(st.lists(SMALL_SCALARS, min_size=size, max_size=size))
    steps.append(("adjoin_vector", (at, spaces, coords)))
    current[at:at] = spaces
    count = len(spaces) + 1
    merge, _ = merge_step(data, field, current, min(at, len(current) - count),
                          count)
    check_steps(data, field, legs, steps + [merge])


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_pipeline_adjoins_inside_a_touched_block(data):
    field = data.draw(FIELDS)
    legs = random_legs(data, least=2)
    left, right = fresh_space(data.draw(DIMS)), fresh_space(data.draw(DIMS))
    f = data.draw(random_map(field, legs[0], tensor_space(left, right)))
    space = fresh_space(data.draw(DIMS))
    coords = data.draw(st.lists(SMALL_SCALARS, min_size=space.dim,
                                max_size=space.dim))
    check_steps(data, field, legs, [("split_leg", (0, f, left, right)),
                                    ("adjoin_vector", (1, space, coords))])


@pytest.mark.parametrize("kind", ["map_leg", "split_leg", "merge_legs"])
@pytest.mark.parametrize("side", ["left", "right"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_pipeline_step_on_untouched_legs_beside_touched(kind, side, data):
    """One leg is touched; the step acts on the untouched leg (or two legs,
    for a merge) to one side of it, and a last merge joins the two."""
    field = data.draw(FIELDS)
    legs = [fresh_space(data.draw(DIMS)) for _ in range(4)]
    touched = 2 if side == "left" else 1
    f = data.draw(random_map(field, legs[touched],
                             fresh_space(data.draw(DIMS))))
    current = list(legs)
    current[touched] = f.codomain
    if kind == "merge_legs":
        step, current = merge_step(data, field, current,
                                   0 if side == "left" else 2, 2)
    else:
        i = touched - 1 if side == "left" else touched + 1
        if kind == "map_leg":
            g = data.draw(random_map(field, current[i],
                                     fresh_space(data.draw(DIMS))))
            step, new = ("map_leg", (i, g)), [g.codomain]
        else:
            halves = [fresh_space(data.draw(DIMS)) for _ in range(2)]
            g = data.draw(random_map(field, current[i],
                                     tensor_space(*halves)))
            step, new = ("split_leg", (i, g, *halves)), halves
        current[i:i + 1] = new
    t = current.index(f.codomain)
    join, _ = merge_step(data, field, current, t - 1 if side == "left" else t,
                         2)
    check_steps(data, field, legs, [("map_leg", (touched, f)), step, join])


# A block keeps only its nonzero columns, keyed by domain index.  Maps with
# zero columns leave gaps in those keys, inside a block and at its edges.


@st.composite
def gappy_map(draw, field, domain, codomain):
    """A map with zero columns: a random map with a drawn proper subset of
    its columns zeroed, a rank-1 map u v^T whose v may have zeros, or (more
    rarely, since it zeroes the whole chain) the zero map."""
    kind = draw(st.sampled_from(["columns", "columns", "rank1", "rank1",
                                 "zero"]))
    if kind == "zero":
        return LinearMap(field, domain, codomain,
                         [[0] * domain.dim for _ in range(codomain.dim)])
    if kind == "rank1":
        u = draw(st.lists(SMALL_SCALARS, min_size=codomain.dim,
                          max_size=codomain.dim).filter(any))
        v = draw(st.lists(SMALL_SCALARS, min_size=domain.dim,
                          max_size=domain.dim))
        return LinearMap(field, domain, codomain, [[a * b for b in v] for a in u])
    rows = draw(st.lists(
        st.lists(SMALL_SCALARS, min_size=domain.dim, max_size=domain.dim),
        min_size=codomain.dim, max_size=codomain.dim))
    zeroed = draw(st.sets(st.integers(0, domain.dim - 1),
                          max_size=domain.dim - 1))
    return LinearMap(field, domain, codomain, [
        [0 if j in zeroed else x for j, x in enumerate(row)] for row in rows])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pipeline_keeps_the_gaps_of_touched_blocks(data):
    """Every leg is touched by a map with zero columns and one leg is split
    in two by another; a third merges two or three adjacent legs, across
    the edges of those blocks or inside the split one; two drawn steps
    follow.  The compiled map equals the Kronecker model."""
    field = data.draw(FIELDS)
    legs = random_legs(data, least=2)
    steps, current = [], []
    for i, leg in enumerate(legs):
        f = data.draw(gappy_map(field, leg, fresh_space(data.draw(DIMS))))
        steps.append(("map_leg", (i, f)))
        current.append(f.codomain)
    at = data.draw(st.integers(0, len(current) - 1))
    halves = [fresh_space(data.draw(DIMS)) for _ in range(2)]
    f = data.draw(gappy_map(field, current[at], tensor_space(*halves)))
    steps.append(("split_leg", (at, f, *halves)))
    current[at:at + 1] = halves
    count = data.draw(st.integers(2, 3))
    i = data.draw(st.integers(0, len(current) - count))
    g = data.draw(gappy_map(field, tensor_space_list(current[i:i + count]),
                            fresh_space(data.draw(DIMS))))
    steps.append(("merge_legs", (i, count, g)))
    kinds = data.draw(st.lists(st.sampled_from(STEP_KINDS), min_size=2,
                               max_size=2))
    check_steps(data, field, legs, steps + kinds)


@pytest.mark.parametrize("read", ["columns", "every step"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_pipeline_reading_columns_mid_chain_keeps_the_map(read, data):
    """Reading the columns fuses every block in place; the columns read
    equal the model's at that point, and the chain goes on to the same
    final map as the model."""
    field = data.draw(FIELDS)
    legs = random_legs(data)
    kinds = data.draw(st.lists(st.sampled_from(STEP_KINDS), min_size=2,
                               max_size=4))
    at = data.draw(st.integers(0, len(kinds) - 1))
    pipe, model = Pipeline(field, legs), KroneckerModel(field, legs)
    for k, kind in enumerate(kinds):
        name, args = data.draw(pipeline_step(field, model.legs, kind))
        getattr(pipe, name)(*args)
        getattr(model, name)(*args)
        if k == at or read == "every step":
            assert pipe.columns == column_dicts(model.map)
    assert pipe.finish() == model.map


@pytest.mark.parametrize("field", [QQ, GF7, GF_BIG],
                         ids=["Q", "GF7", "GF2147483647"])
def test_pipeline_fold_deletes_a_sum_that_cancels(field, monkeypatch):
    """A merge over an identity run beside a touched block rewrites the
    block through one fold per index of the run.  In the first fold the
    two contributions to output row 0 of column 0 are 3 * 2 and 2 * -3,
    whose residues sum to 2p over GF(p); the sum must be reduced to zero
    and its key deleted, leaving row 1 alone."""
    folds = []
    real_apply = Pipeline._apply

    def counted(kept, kept_block, lo_t, out_block, step_folds, p):
        folds.append(len(step_folds))
        return real_apply(kept, kept_block, lo_t, out_block, step_folds, p)

    monkeypatch.setattr(Pipeline, "_apply", staticmethod(counted))
    a, b, c = fresh_space(2), fresh_space(2), fresh_space(2)
    g = LinearMap(field, b, b, [[3, 0], [2, 1]])
    f = LinearMap(field, tensor_space(a, b), c, [[2, -3, 1, 1],
                                                 [1, 0, 0, 1]])
    steps = [("map_leg", (1, g)), ("merge_legs", (0, 2, f))]
    pipe, model = Pipeline(field, [a, b]), KroneckerModel(field, [a, b])
    for name, args in steps:
        getattr(pipe, name)(*args)
        getattr(model, name)(*args)
    assert folds == [2]
    columns = pipe.columns
    p = field.characteristic
    assert columns[0] == {1: 3}
    assert all(v and type(v) in (int, Fraction) and (not p or 0 < v < p)
               for col in columns for v in col.values())
    assert columns == column_dicts(model.map)
    assert pipe.finish() == model.map


def test_pipeline_columns_is_a_read_only_view():
    sp = Space(("x", "y"))
    swap = LinearMap(QQ, sp, sp, [[0, 1], [1, 0]])
    pipe = Pipeline(QQ, [sp, sp]).map_leg(1, swap)
    assert pipe.columns == [{1: 1}, {0: 1}, {3: 1}, {2: 1}]
    with pytest.raises(AttributeError):
        pipe.columns = []


@pytest.mark.parametrize("field", [QQ, GF7, GF_BIG],
                         ids=["Q", "GF7", "GF2147483647"])
def test_a_dict_shared_by_a_map_and_a_block_is_never_changed(field):
    """A step on untouched legs takes the step map's dict as its block, and
    a finished map may hold a block's dict; the steps after both leave the
    map, and a map finished earlier, equal to fresh copies of themselves."""
    sp, line = Space(("x", "y", "z")), Space(("u", "v"))
    rows = [[1, 7, 0], [-1, 2, 0], [2, 0, 3]]
    f = LinearMap(field, sp, sp, rows)
    g = LinearMap(field, line, line, [[1, 7], [-1, 2]])
    m = LinearMap(field, tensor_space(line, sp), sp,
                  [[1, 0, 2, 0, 1, 0], [0, 3, 0, 1, 0, 0], [1, 1, 0, 0, 0, 4]])
    steps = [("map_leg", (1, g)), ("adjoin_vector", (2, line, [7, 2])),
             ("permute", ([1, 2, 0],)), ("map_leg", (2, f)),
             ("merge_legs", (1, 2, m)), ("merge_legs", (0, 2, m))]
    pipe = Pipeline(field, [sp, line]).map_leg(0, f)
    assert pipe._blocks[0][1] is f.nonzero_columns()
    early = pipe.finish()
    model = KroneckerModel(field, [sp, line])
    model.map_leg(0, LinearMap(field, sp, sp, rows))
    assert early == model.map
    for name, args in steps:
        getattr(pipe, name)(*args)
        getattr(model, name)(*args)
    assert pipe.finish() == model.map
    again = Pipeline(field, [sp]).map_leg(0, f).finish()
    assert again.nonzero_columns() is f.nonzero_columns()
    Pipeline(field, [sp]).map_leg(0, f).map_leg(0, f).finish()
    fresh = LinearMap(field, sp, sp, rows)
    for held, copy in ((f, fresh), (again, fresh),
                       (early, tensor(fresh, identity(field, line)))):
        assert held == copy and held.matrix == copy.matrix


@pytest.mark.parametrize("field", [QQ, GF7, GF_BIG],
                         ids=["Q", "GF7", "GF2147483647"])
def test_identity_runs_multiply_out_as_identity_columns(field):
    """An untouched pipeline's legs are identity runs, multiplied out as
    their identity columns: a permute of two legs is the flip and a finish
    of one leg the identity, every value the ``int`` 1."""
    a, b = Space(("a0", "a1")), Space(("b0", "b1", "b2"))
    flip = Pipeline(field, [a, b]).permute([1, 0]).finish()
    one = Pipeline(field, [a]).finish()
    assert flip == flip_map(field, a, b)
    assert one == identity(field, a)
    for m in (flip, one):
        values = [v for col in m.nonzero_columns().values()
                  for v in col.values()]
        assert values and all(type(v) is int and v == 1 for v in values)


@pytest.mark.parametrize("field", [QQ, GF7, GF_BIG],
                         ids=["Q", "GF7", "GF2147483647"])
def test_steps_after_an_identity_finish_leave_the_identity_alone(field):
    """A finish of untouched legs may hand over the identity's cached
    columns, which a block then holds; the steps after it leave
    ``identity``'s columns as they were."""
    sp, line = Space(("x", "y", "z")), Space(("u", "v"))
    f = LinearMap(field, sp, sp, [[1, 7, 0], [-1, 2, 0], [2, 0, 3]])
    m = LinearMap(field, tensor_space(line, sp), sp,
                  [[1, 0, 2, 0, 1, 0], [0, 3, 0, 1, 0, 0], [1, 1, 0, 0, 0, 4]])
    split = LinearMap(field, sp, tensor_space(line, sp),
                      [[1, 0, 2], [0, 3, 0], [1, 0, 0], [0, 0, 4], [5, 0, 1],
                       [0, 1, 0]])
    steps = [("adjoin_vector", (0, line, [7, 2])), ("merge_legs", (0, 2, m)),
             ("map_leg", (0, f)), ("split_leg", (0, split, line, sp)),
             ("permute", ([1, 0],)), ("map_leg", (0, f))]
    pipe, model = Pipeline(field, [sp]), KroneckerModel(field, [sp])
    held = pipe.finish()
    assert held.nonzero_columns() is identity(field, sp).nonzero_columns()
    for name, args in steps:
        getattr(pipe, name)(*args)
        getattr(model, name)(*args)
    assert pipe.finish() == model.map
    assert held == identity(field, sp)
    assert identity(field, sp).nonzero_columns() == {j: {j: 1}
                                                     for j in range(3)}


def test_a_pipeline_needs_a_leg():
    with pytest.raises(DimensionMismatch):
        Pipeline(QQ, [])
    one = Pipeline(QQ, [SCALAR_SPACE]).adjoin_vector(1, Space(("x", "y")),
                                                     [2, 3]).finish()
    assert one.domain == SCALAR_SPACE and one.matrix == ((2,), (3,))


def test_hom_associativity_builds_fewer_modints(monkeypatch):
    """Both sides of Hom-associativity of Sweedler's H4 over GF(7) build 160
    ModInts: a step on untouched legs takes its map's columns as they are
    and is not repeated for every basis tuple of the other legs.  Rewriting
    full-domain columns at every step builds 272."""
    a = classical_sweedler_h4(GF7).algebra
    sp, m, alpha = a.space, a.mult_map, a.alpha
    created = [0]
    init = ModInt.__init__

    def counted(obj, value, p):
        created[0] += 1
        init(obj, value, p)

    monkeypatch.setattr(ModInt, "__init__", counted)
    lhs = Pipeline(GF7, [sp, sp, sp]).map_leg(0, alpha) \
        .merge_legs(1, 2, m).merge_legs(0, 2, m).finish()
    rhs = Pipeline(GF7, [sp, sp, sp]).merge_legs(0, 2, m) \
        .map_leg(1, alpha).merge_legs(0, 2, m).finish()
    monkeypatch.undo()
    assert lhs == rhs
    assert created[0] <= 160


def test_hom_associativity_holds_few_nonzeros(held_nonzeros):
    """The same two sides hold 88 nonzeros in their blocks, summed over
    their steps: counted on the blocks, the guard above still measures
    kernel work now that a GF(p) scalar is a plain int."""
    a = classical_sweedler_h4(GF7).algebra
    sp, m, alpha = a.space, a.mult_map, a.alpha
    (lhs, rhs), held = held_nonzeros(lambda: (
        Pipeline(GF7, [sp, sp, sp]).map_leg(0, alpha)
        .merge_legs(1, 2, m).merge_legs(0, 2, m).finish(),
        Pipeline(GF7, [sp, sp, sp]).merge_legs(0, 2, m)
        .map_leg(1, alpha).merge_legs(0, 2, m).finish()))
    assert lhs == rhs
    assert held == 88


def test_gf_p_kernel_builds_no_modint_before_lifting(monkeypatch):
    """Over GF(7) a Pipeline chain (a fold over two touched blocks
    included), compose, tensor and inverse build no ModInt, and
    solve_linear builds one for each nonzero entry of the solution it
    hands out, none while it eliminates."""
    h = classical_sweedler_h4(GF7)
    sp, m, d, s = (h.space, h.algebra.mult_map, h.coalgebra.comult_map,
                   h.antipode)
    rows = [[1, 2, 0], [0, 1, 3], [4, 0, 1]]
    f, g = gf_map(rows), gf_map(rows)
    created = [0]
    init = ModInt.__init__

    def counted(obj, value, p):
        created[0] += 1
        init(obj, value, p)

    monkeypatch.setattr(ModInt, "__init__", counted)
    Pipeline(GF7, [sp, sp]).split_leg(0, d, sp, sp).split_leg(2, d, sp, sp) \
        .merge_legs(1, 2, m).map_leg(0, s).adjoin_vector(1, sp, [1, 0, 3, 0]) \
        .permute([3, 1, 0, 2]).merge_legs(0, 2, m).finish()
    compose(f, g), tensor(f, g), inverse(f), power(g, -3)
    assert created[0] == 0
    sol = solve_linear(GF7, rows, [1, 2, 3])
    monkeypatch.undo()
    assert created[0] == sum(1 for v in sol if v) > 0


# ---------------------------------------------------------------------------
# Brute-force nested-loop evaluators over the structure constants, compared
# with the compiled checks on the Hopf corpus entries (and mutants of them,
# so that failing verdicts and witnesses are compared too).


def nested_loop_product(field, cube, x, y):
    """Coordinates of the bilinear map with structure constants ``cube``
    (cube[i][j][k]: coefficient of e_k at (e_i, e_j)) on vectors x, y."""
    out = [field.zero] * len(cube[0][0])
    for i, a in enumerate(x):
        if not a:
            continue
        for j, b in enumerate(y):
            if not b:
                continue
            for k, c in enumerate(cube[i][j]):
                if c:
                    out[k] = out[k] + a * b * c
    return out


def nested_loop_associativity(alg):
    """(basis tuple, alpha(a)(bc), (ab)alpha(c)) at the first failing tuple
    in row-major order, or None."""
    field, n = alg.field, alg.space.dim
    unit = [[field.one if i == j else field.zero for i in range(n)]
            for j in range(n)]
    alpha = [alg.alpha.column(j) for j in range(n)]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs = nested_loop_product(
                    field, alg.mult, alpha[x],
                    nested_loop_product(field, alg.mult, unit[y], unit[z]))
                rhs = nested_loop_product(
                    field, alg.mult,
                    nested_loop_product(field, alg.mult, unit[x], unit[y]),
                    alpha[z])
                if lhs != rhs:
                    names = alg.space.names
                    return (names[x], names[y], names[z]), lhs, rhs
    return None


def nested_loop_convolution(f, g, coalg, alg):
    """Columns of f * g = m (f (x) g) Delta by loops over the constants."""
    field = alg.field
    cols = []
    for t in range(coalg.space.dim):
        out = [field.zero] * alg.space.dim
        for j, slab in enumerate(coalg.comult[t]):
            for k, c in enumerate(slab):
                if c:
                    xy = nested_loop_product(field, alg.mult, f.column(j),
                                                g.column(k))
                    out = [o + c * v for o, v in zip(out, xy)]
        cols.append(tuple(out))
    return cols


def nested_loop_crossed_product(spec):
    """Structure constants of the crossed product on A (x) H,
        (a # h)(b # g) = a((alpha^m(h11) . beta^-2(b))
                           sigma(alpha^(k+1)(h12), alpha^k(g1))) # alpha(h2 g2),
    by loops over the Sweedler components of h and g."""
    field = spec.field
    a, h = spec.algebra, spec.hopf_bialgebra
    p, n = a.space.dim, h.space.dim
    comult = h.coalgebra.comult

    def cols(f):
        return [f.column(j) for j in range(f.domain.dim)]

    alpha_m, alpha_k1, alpha_k, alpha = (
        cols(power(h.alpha, e)) for e in (spec.m, spec.k + 1, spec.k, 1))
    beta_2 = cols(power(a.alpha, -2))
    a_basis, h_basis = cols(identity(field, a.space)), cols(identity(field, h.space))

    def terms(y):
        return [(j, k, c) for j, slab in enumerate(comult[y])
                for k, c in enumerate(slab) if c]

    cube = []
    for x in range(p):
        for y in range(n):
            row = []
            for z in range(p):
                for w in range(n):
                    out = [field.zero] * (p * n)
                    for h1, h2, c1 in terms(y):
                        for h11, h12, c2 in terms(h1):
                            for g1, g2, c3 in terms(w):
                                t = nested_loop_product(field, spec.action.act,
                                                        alpha_m[h11], beta_2[z])
                                s = nested_loop_product(
                                    field, spec.cocycle.sigma, alpha_k1[h12],
                                    alpha_k[g1])
                                left = nested_loop_product(
                                    field, a.mult, a_basis[x],
                                    nested_loop_product(field, a.mult, t, s))
                                hg = nested_loop_product(
                                    field, h.algebra.mult, h_basis[h2],
                                    h_basis[g2])
                                right = [sum((alpha[j][i] * v
                                              for j, v in enumerate(hg)),
                                             field.zero) for i in range(n)]
                                c = c1 * c2 * c3
                                for i, u in enumerate(left):
                                    for j, v in enumerate(right):
                                        out[i * n + j] += c * u * v
                    row.append(tuple(out))
            cube.append(tuple(row))
    return tuple(cube)


@pytest.mark.parametrize("field", [QQ, GF7], ids=["Q", "GF7"])
def test_crossed_product_matches_nested_loops(field):
    from homhopf.constructions import crossed_product
    from homhopf.corpus import example24_spec, mutate_crossed_spec
    for n, m, k in [(0, 0, -1), (1, 0, -1), (2, 0, -1), (1, 3, -2), (2, -1, 2)]:
        spec = example24_spec(n, m, k, field)
        for s in (spec, mutate_crossed_spec(spec, "sigma", (1, 2, 0), 1),
                  mutate_crossed_spec(spec, "act", (3, 1, 1), 2)):
            assert crossed_product(s).mult == nested_loop_crossed_product(s)


def hopf_corpus(field):
    from homhopf.corpus import corpus_entries
    from homhopf.homcore import HomHopf
    return [e for e in corpus_entries(field) if isinstance(e.payload, HomHopf)]


@pytest.mark.parametrize("field", [QQ, GF7], ids=["Q", "GF7"])
def test_hom_associativity_matches_nested_loops_on_the_corpus(field):
    from homhopf.corpus import mutate
    from homhopf.homcore import check_hom_algebra
    cases = 0
    failing = 0
    for entry in hopf_corpus(field):
        n = entry.payload.space.dim
        sites = [(i, j, k) for i in range(n) for j in range(n)
                 for k in range(n)][::5]
        payloads = [entry.payload] + [
            mutate(entry, ("mult",) + site, 1).payload for site in sites]
        for h in payloads:
            report = check_hom_algebra(h.algebra).sub("hom_associativity")
            expected = nested_loop_associativity(h.algebra)
            assert report.passed is (expected is None)
            if expected is not None:
                failing += 1
                w = report.witness
                assert (w.basis, list(w.lhs), list(w.rhs)) == expected
            cases += 1
    assert cases > 50 and failing > 10


@pytest.mark.parametrize("field", [QQ, GF7], ids=["Q", "GF7"])
def test_convolution_matches_nested_loops_on_the_corpus(field):
    from homhopf.convact import convolve
    for entry in hopf_corpus(field):
        h = entry.payload
        maps = (identity(field, h.space), h.alpha, h.antipode)
        for f in maps:
            for g in maps:
                built = convolve(f, g, h.coalgebra, h.algebra)
                expected = nested_loop_convolution(f, g, h.coalgebra,
                                                   h.algebra)
                assert [built.column(t) for t in range(h.space.dim)] \
                    == expected


# ---------------------------------------------------------------------------
# Witness and equality oracle: the column-by-column sweep equal_on_basis was
# first written as, kept as the reference for verdicts and witnesses.


def reference_equal_on_basis(name, lhs, rhs, factors):
    for j in range(lhs.domain.dim):
        a = tuple(row[j] for row in lhs.matrix)
        b = tuple(row[j] for row in rhs.matrix)
        if a != b:
            return CheckReport(name=name, passed=False, witness=Witness(
                basis=basis_tuple_names(j, factors), lhs=a, rhs=b))
    return CheckReport(name=name, passed=True)


@st.composite
def planted_pairs(draw):
    """(field, factors, codomain, rows, other rows): two matrices out of a
    tensor domain that differ in 0-3 planted entries."""
    field = draw(FIELDS)
    factors = [fresh_space(draw(DIMS)) for _ in range(draw(st.integers(1, 3)))]
    cod = fresh_space(draw(DIMS))
    width = prod(s.dim for s in factors)
    rows = draw(st.lists(st.lists(SMALL_SCALARS, min_size=width,
                                  max_size=width),
                         min_size=cod.dim, max_size=cod.dim))
    other = [list(r) for r in rows]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, cod.dim - 1))
        j = draw(st.integers(0, width - 1))
        other[i][j] = other[i][j] + draw(st.sampled_from([1, 2, -3]))
    return field, factors, cod, rows, other


def both_storage_forms(field, factors, cod, rows):
    """The same map built by the public constructor (dense rows) and by the
    kernel (a Pipeline merging the factors through it)."""
    dense = LinearMap(field, tensor_space_list(factors), cod, rows)
    merged = Pipeline(field, factors).merge_legs(0, len(factors), dense)
    return [dense, merged.finish()]


@settings(max_examples=200, deadline=None)
@given(planted_pairs())
def test_equal_on_basis_matches_the_column_sweep(case):
    field, factors, cod, rows, other = case
    for lhs in both_storage_forms(field, factors, cod, rows):
        for rhs in both_storage_forms(field, factors, cod, other):
            expected = reference_equal_on_basis("eq", lhs, rhs, factors)
            assert equal_on_basis("eq", lhs, rhs, factors) == expected
            assert (lhs == rhs) is expected.passed


def test_equal_on_basis_refuses_factors_that_do_not_span_the_domain():
    # a map out of the ground field decoded against a 2-dim space
    line = fresh_space(2)
    unit = LinearMap(QQ, SCALAR_SPACE, line, [[1], [0]])
    with pytest.raises(DimensionMismatch):
        equal_on_basis("unit", unit, unit, (line,))
    assert equal_on_basis("unit", unit, unit, (SCALAR_SPACE,)).passed


# equal_on_basis compares the dicts each side holds, whichever route built
# it: the public constructor (dense rows), compose, or a finished Pipeline.
# The map goes out of a (x) b, of 5 * 8
# columns, and its nonzero entries are {(row, column): value}; each plant
# sets the entries listed.  Column 3 is zero in the base map, and a set of
# the nonzero columns holding 3 and 33 does not iterate 3 first.
HELD_FORM_BASE = {(0, 0): 1, (2, 0): 4, (0, 21): 2, (1, 21): 3, (1, 33): 1,
                  (0, 39): -1, (2, 39): 5}
HELD_FORM_PLANTS = {
    "equal": {},
    "first_column": {(2, 0): 5},
    "last_column": {(0, 39): 1},
    "nonzero_on_one_side_only": {(1, 3): 6, (1, 33): 2},
}


def held_forms(field, entries):
    """The map with these entries built by each of three routes; none of
    them holds dense rows."""
    a, b = (Space(tuple(f"{x}{i}" for i in range(n))) for x, n in
            (("a", 5), ("b", 8)))
    cod = Space(("c0", "c1", "c2"))
    rows = [[entries.get((i, j), 0) for j in range(40)] for i in range(3)]

    def dense():
        return LinearMap(field, tensor_space(a, b), cod, rows)

    columns = compose(identity(field, cod), dense())
    finished = Pipeline(field, [a, b]).merge_legs(0, 2, dense()).finish()
    forms = {"rows": dense(), "columns": columns, "pipeline": finished}
    assert all(f._rows is None for f in forms.values())
    return (a, b), forms


@pytest.mark.parametrize("field", [QQ, GF7, GF_BIG],
                         ids=["Q", "GF7", "GF2147483647"])
@pytest.mark.parametrize("plant", sorted(HELD_FORM_PLANTS))
def test_equal_on_basis_gives_one_report_across_held_forms(field, plant):
    """Every pairing of held forms, either way round, gives the report of
    the dense column sweep: the same verdict and, byte for byte, the same
    witness at the lowest differing column.  So does ``holds`` with one
    side or both a formula, the map applied to input legs in a and b: the
    report of ``equal_on_basis`` on the compiled sides, whose witness names
    a basis tuple of those legs."""
    other = {**HELD_FORM_BASE, **HELD_FORM_PLANTS[plant]}
    for base_side, other_side in ((HELD_FORM_BASE, other),
                                  (other, HELD_FORM_BASE)):
        factors, reference = held_forms(field, base_side)
        expected = reference_equal_on_basis(
            "eq", reference["rows"], held_forms(field, other_side)[1]["rows"],
            factors)
        assert expected.passed is (plant == "equal")
        for lhs_form, rhs_form in itertools.product(reference, repeat=2):
            lhs = held_forms(field, base_side)[1][lhs_form]
            rhs = held_forms(field, other_side)[1][rhs_form]
            report = equal_on_basis("eq", lhs, rhs, factors)
            assert report == expected, (lhs_form, rhs_form)
            assert repr(report.as_dict()) == repr(expected.as_dict())
            # the witness lifts one column; neither side is densified
            assert lhs._rows is None and rhs._rows is None
        x, y = inputs(*factors)

        def side(entries, form):
            held = held_forms(field, entries)[1]
            return [held["rows"](x, y)] if form == "terms" else held[form]

        for lhs_form, rhs_form in [("terms", "terms"), *(
                pair for form in reference
                for pair in (("terms", form), (form, "terms")))]:
            lhs, rhs = side(base_side, lhs_form), side(other_side, rhs_form)
            report = holds(field, "eq", (x, y), lhs, rhs)
            by_hand = equal_on_basis("eq", *(
                s if isinstance(s, LinearMap) else compile_map(field, (x, y), s)
                for s in (lhs, rhs)), factors)
            assert repr(report.as_dict()) == repr(by_hand.as_dict()) \
                == repr(expected.as_dict()), (lhs_form, rhs_form)
            if not report.passed:
                a_name, b_name = report.witness.basis
                assert a_name in x.space.names and b_name in y.space.names
    held = held_forms(field, other)[1]
    assert held["pipeline"].nonzero_columns() == held["rows"].nonzero_columns()


@settings(max_examples=100, deadline=None)
@given(planted_pairs())
def test_dense_and_column_built_maps_compare_and_hash_alike(case):
    field, factors, cod, rows, _ = case
    dense, sparse = both_storage_forms(field, factors, cod, rows)
    assert dense == sparse and sparse == dense
    assert hash(dense) == hash(sparse)
    assert dense.matrix == sparse.matrix
    assert dense.nonzero_columns() == sparse.nonzero_columns()
    for j in range(dense.domain.dim):
        assert dense.column(j) == sparse.column(j)


# ---------------------------------------------------------------------------
# power by square-and-multiply


@pytest.mark.parametrize("field", [QQ, GF7, GF_BIG],
                         ids=["Q", "GF7", "GF2147483647"])
def test_power_matches_iterated_composition(field):
    sp = Space(("e0", "e1", "e2"))
    f = LinearMap(field, sp, sp, [[1, 1, 0], [0, 1, 2], [1, 0, 1]])
    for n in range(-6, 7):
        base = f if n >= 0 else inverse(f)
        expected = identity(field, sp)
        for _ in range(abs(n)):
            expected = compose(expected, base)
        assert power(f, n) == expected


def test_power_of_huge_exponent_needs_few_compositions(monkeypatch):
    import homhopf.exactlin as exactlin

    calls = [0]
    real_compose = exactlin.compose

    def counted(f, g):
        calls[0] += 1
        if calls[0] > 200:
            raise AssertionError("power made more than 200 compositions")
        return real_compose(f, g)

    monkeypatch.setattr(exactlin, "compose", counted)
    sp = Space(("a", "b", "c"))
    cycle = LinearMap(QQ, sp, sp, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    for r in range(3):
        calls[0] = 0
        assert power(cycle, 10 ** 18 + r) == power(cycle, (10 ** 18 + r) % 3)
        calls[0] = 0
        assert power(cycle, -(10 ** 18) - r) == \
            power(cycle, -((10 ** 18 + r) % 3))


def test_tensor_spaces_are_held_as_their_factors():
    a, b, c = Space(("p", "q")), Space(("r",)), Space(("s", "t"))
    left = tensor_space(tensor_space(a, b), c)
    right = tensor_space(a, tensor_space(b, Space(("s", "t"))))
    assert left == right and hash(left) == hash(right)
    assert left.factors == (a, b, c) and left.dim == 4
    assert "names" not in left.__dict__
    assert left.names == ("p⊗r⊗s", "p⊗r⊗t", "q⊗r⊗s", "q⊗r⊗t")
    assert left.names == tuple(f"{x}⊗{y}" for x in tensor_space(a, b).names
                               for y in c.names)
    assert "names" in left.__dict__ and "names" not in right.__dict__
    leaf = Space(("p⊗r", "q⊗r"))
    assert leaf != tensor_space(a, b) and tensor_space(a, b) != leaf
    assert tensor_space(a, b).names == leaf.names
    first = Pipeline(QQ, [a, b, a]).finish()
    second = Pipeline(QQ, [a, b, a]).permute([0, 1, 2]).finish()
    assert first.domain == second.domain == second.codomain


def test_the_tensor_of_identities_is_no_pipeline_step(held_nonzeros):
    a, b = Space(("p", "q")), Space(("r", "s"))
    f = tensor(identity(QQ, a), identity(QQ, b))
    assert f.domain is not f.codomain and f.domain == f.codomain
    _, held = held_nonzeros(
        lambda: Pipeline(QQ, [f.domain]).map_leg(0, f).finish())
    assert held == 0


def named_products():
    """The live tensor-product spaces that hold their basis names."""
    return [sp for sp in gc.get_objects()
            if isinstance(sp, Space) and len(sp.__dict__.get("factors", ())) > 1
            and "names" in sp.__dict__]


def test_a_check_leaves_no_tensor_space_names_alive():
    from homhopf.homcore import check_hom_bialgebra

    bench = str(Path(__file__).resolve().parent.parent / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import taft

    gc.collect()
    before = {id(sp): sp for sp in named_products()}
    record = taft.hopf_from_rung(taft.make_rung(5, random.Random(7)))
    assert check_hom_bialgebra(record.bialgebra).passed
    del record
    gc.collect()
    assert [sp for sp in named_products() if id(sp) not in before] == []


def test_a_cut_of_a_product_names_its_vectors_from_the_factors():
    """A leg cut from A (x) H is named as A (x) H names its vectors, from
    the factors, and builds none of A (x) H's other names; names holding
    "⊗" may collide (vectors 3 and 4 are both 1⊗1⊗g)."""
    a, h = Space(("1", "1⊗1")), Space(("g", "1", "x", "1⊗g"))
    ah = tensor_space(a, h)
    leg = ah._cut([0, 3, 4, 7])
    assert "names" not in vars(ah)
    assert leg.names == tuple(tensor_space(a, h).names[i] for i in (0, 3, 4, 7))
    assert leg.names == ("1⊗g", "1⊗1⊗g", "1⊗1⊗g", "1⊗1⊗1⊗g")
    assert a._cut([1]).names == ("1⊗1",)


# ---------------------------------------------------------------------------
# Packing dense input: the packers step only to the entries true as given,
# and hold what an entry-by-entry loop over every entry holds.

def reference_columns(field, columns) -> dict:
    """The packers' columns built entry by entry: ``columns`` yields (key,
    (index, value) pairs); a value false as given is skipped uncoerced, a
    value zero once coerced is dropped, and so is a column left empty."""
    out = {}
    for key, items in columns:
        col = {}
        for k, v in items:
            if v and (c := _coerced(field, v)):
                col[k] = c
        if col:
            out[key] = col
    return out


def held_form(cols) -> list:
    """``cols`` with its key order and the types of its values."""
    return [(j, [(i, v, type(v)) for i, v in col.items()])
            for j, col in cols.items()]


def coerce_calls(field, build):
    """``build()`` and the calls it makes of ``field``'s ``coerce``."""
    cls = type(field)
    real, calls = cls.coerce, [0]

    def counted(self, value):
        calls[0] += 1
        return real(self, value)

    cls.coerce = counted
    try:
        return build(), calls[0]
    finally:
        cls.coerce = real


@st.composite
def dense_cubes(draw):
    """A field and a d1 x d2 x d3 cube of entries of mixed types, with
    all-zero rows and entries that are true as given but zero in the field:
    ``"0"`` everywhere, and p, 2p, ``str(p)`` and p/2 over GF(p)."""
    field = draw(st.sampled_from([QQ, GF7, GF_BIG]))
    p = field.characteristic
    zeros = [0, Fraction(0)] + ([ModInt(0, p)] if p else [])
    entries = zeros * 2 + ["0", 1, -1, 3, Fraction(1, 2), "2", "-1/3"]
    if p:
        entries += [p, 2 * p, str(p), Fraction(p, 2), ModInt(3, p)]
    d1, d2, d3 = (draw(st.integers(1, 4)) for _ in range(3))
    row = st.one_of(st.lists(st.sampled_from(zeros), min_size=d3, max_size=d3),
                    st.lists(st.sampled_from(entries), min_size=d3,
                             max_size=d3))
    row = st.one_of(row, row.map(tuple))
    return field, draw(st.lists(st.lists(row, min_size=d2, max_size=d2),
                                min_size=d1, max_size=d1))


@settings(max_examples=200, deadline=None)
@given(dense_cubes())
def test_dense_packers_match_an_entry_by_entry_reference(drawn):
    """``bilinear_as_map``, ``splitting_as_map`` and ``LinearMap(...)`` hold
    the reference's columns, key for key in the same order, with values of
    the same types, and coerce the same entries."""
    field, cube = drawn
    d1, d2, d3 = len(cube), len(cube[0]), len(cube[0][0])
    s1, s2, s3 = (Space(tuple(f"{c}{i}" for i in range(d)))
                  for c, d in zip("abc", (d1, d2, d3)))
    rows = [row for plane in cube for row in plane]
    s12 = Space(tuple(f"r{i}" for i in range(d1 * d2)))
    cases = [
        (lambda: bilinear_as_map(field, s1, s2, s3, cube)._cols,
         lambda: reference_columns(field, (
             (i * d2 + j, enumerate(cube[i][j]))
             for i in range(d1) for j in range(d2)))),
        (lambda: splitting_as_map(field, s1, s2, s3, cube)._cols,
         lambda: reference_columns(field, (
             (i, [(j * d3 + k, v) for j in range(d2)
                  for k, v in enumerate(cube[i][j])])
             for i in range(d1)))),
        (lambda: LinearMap(field, s3, s12, rows)._cols,
         lambda: reference_columns(field, (
             (j, [(i, row[j]) for i, row in enumerate(rows)])
             for j in range(d3)))),
    ]
    for packed, reference in cases:
        (got, n_got), (want, n_want) = (coerce_calls(field, packed),
                                        coerce_calls(field, reference))
        assert held_form(got) == held_form(want)
        assert n_got == n_want


def test_packing_steps_only_to_the_nonzeros_and_the_rows():
    """Packing the cubes of the group algebra of Z/40 (64,000 entries, 1,600
    rows, 40 nonzero in Delta and 1,600 in m) and its 40 x 40 identity
    takes at most five Python steps per row or column plus one per nonzero
    (``kernel_work.packed_entry_visits``).  Visiting every entry took at
    least one step each."""
    from kernel_work import packed_entry_visits

    n = 40
    sp = Space(tuple(f"g{i}" for i in range(n)))
    mult = [[[int(k == (i + j) % n) for k in range(n)] for j in range(n)]
            for i in range(n)]
    comult = [[[int(i == j == k) for k in range(n)] for j in range(n)]
              for i in range(n)]
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    for build, lines, nonzeros in [
            (lambda: bilinear_as_map(QQ, sp, sp, sp, mult), n * n, n * n),
            (lambda: splitting_as_map(QQ, sp, sp, sp, comult), n * n, n),
            (lambda: LinearMap(QQ, sp, sp, eye), n, n)]:
        _, visits = packed_entry_visits(build)
        assert visits <= 5 * lines + nonzeros
