"""Kernel operations: composition, Kronecker products, powers, exact solve,
map comparison, and the leg pipeline."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from homhopf.corpus import sweedler_h4_hom
from homhopf.exactlin import (
    DimensionMismatch,
    FieldMismatch,
    LinearMap,
    NonInvertibleError,
    NoSolution,
    Pipeline,
    Space,
    compose,
    identity,
    inverse,
    maps_equal,
    matrix_rank,
    power,
    solve_linear,
    tensor,
    tensor_space,
    transpose,
)
from homhopf.fields import QQ, ModInt, PrimeField


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
            if matrix_rank(QQ, rows) == 5:
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
    rank = len(dense_gauss_jordan([[field.coerce(v) for v in row]
                                   for row in rows], n))
    assert matrix_rank(field, rows) == rank
    assert matrix_rank(field, sparse) == rank


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([QQ, GF7]), st.integers(1, 5), st.data())
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
    f = gf_map([[1, 2, 0], [0, 1, 3], [4, 0, 1]])
    sp = f.domain
    outputs = [
        compose(f, f), tensor(f, f), inverse(f), identity(GF7, sp),
        power(f, -3), transpose(f),
        Pipeline(GF7, [sp, sp]).map_leg(0, f).permute([1, 0]).finish(),
    ]
    for out in outputs:
        for row in out.matrix:
            assert all(type(v) is ModInt and v.p == 7 for v in row)
    sol = solve_linear(GF7, [list(r) for r in f.matrix], [1, 2, 3])
    assert all(type(v) is ModInt and v.p == 7 for v in sol)


def test_field_zero_and_one_are_shared():
    assert QQ.zero is QQ.zero and QQ.one is QQ.one
    assert GF7.zero is GF7.zero and GF7.one is GF7.one
    assert identity(GF7, Space(("x", "y"))).matrix[0][1] is GF7.zero
