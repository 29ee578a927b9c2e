"""Exact multilinear algebra over based finite-dimensional spaces.

Linear maps are dense matrices of exact scalars between named-basis spaces.
Composition and Kronecker products skip zero entries internally, but the
stored representation is always the full dense matrix: at the dimensions this
package targets (tensor cubes of spaces of dimension at most eight or so)
a dense matrix plus zero-skipping iteration is both simple and fast.

The public ``LinearMap(...)`` coerces every entry into the field.  Maps the
kernel computes itself are built by ``LinearMap._trusted``, which checks
only the shape; so every kernel operation refuses operands over different
fields (``FieldMismatch``).  Linear systems are solved by one sparse exact
Gauss–Jordan elimination on rows stored as {column: value} dicts.

``Pipeline`` is the one audited compiler that turns Sweedler-style formulas
("split the second leg, act on legs two and three, multiply legs one and
four, ...") into a single matrix by composing per-leg operations.  Every
axiom checker in the package is built on it, so there is exactly one place
where tensor-leg bookkeeping can go wrong.

Basis ordering convention, used everywhere: e_i (x) e_j maps to index
i * dim(second factor) + j (row-major, left factor major).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .report import CheckReport, Witness


class DimensionMismatch(ValueError):
    """Operands whose declared spaces do not fit together."""


class NonInvertibleError(ValueError):
    """A map required to be invertible has zero determinant."""


class FieldMismatch(ValueError):
    """Operands over different fields."""


def _same_field(field, f, what: str):
    if f.field != field:
        raise FieldMismatch(f"{what}: map over {f.field!r} used with {field!r}")


@dataclass(frozen=True)
class Space:
    """A based vector space: an ordered tuple of distinct basis names."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) == 0:
            raise ValueError("a space needs at least one basis vector")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate basis names in {self.names}")

    @property
    def dim(self) -> int:
        return len(self.names)

    def __repr__(self):
        return f"Space({list(self.names)})"


SCALAR_SPACE = Space(("k",))


def tensor_space(a: Space, b: Space) -> Space:
    return Space(tuple(f"{x}⊗{y}" for x in a.names for y in b.names))


def tensor_space_list(spaces) -> Space:
    spaces = list(spaces)
    out = spaces[0]
    for s in spaces[1:]:
        out = tensor_space(out, s)
    return out


def decode_index(flat: int, dims) -> tuple[int, ...]:
    """Split a flat tensor index into per-factor indices (left factor major)."""
    out = []
    for d in reversed(dims):
        flat, r = divmod(flat, d)
        out.append(r)
    return tuple(reversed(out))


def encode_index(key, dims) -> int:
    flat = 0
    for i, d in zip(key, dims):
        flat = flat * d + i
    return flat


def basis_tuple_names(flat: int, factors) -> tuple[str, ...]:
    """Decode a flat index over a tensor product into the factor basis names."""
    dims = [s.dim for s in factors]
    return tuple(s.names[i] for s, i in zip(factors, decode_index(flat, dims)))


class LinearMap:
    """Dense matrix between based spaces; rows index the codomain."""

    def __init__(self, field, domain: Space, codomain: Space, matrix):
        self._setup(field, domain, codomain,
                    tuple(tuple(field.coerce(v) for v in row) for row in matrix))

    @classmethod
    def _trusted(cls, field, domain: Space, codomain: Space, matrix):
        """A map whose entries are already scalars of ``field`` (kernel
        output): the shape is checked, the entries are not coerced."""
        self = cls.__new__(cls)
        self._setup(field, domain, codomain, tuple(map(tuple, matrix)))
        return self

    def _setup(self, field, domain, codomain, matrix):
        if len(matrix) != codomain.dim or any(len(r) != domain.dim for r in matrix):
            raise DimensionMismatch(
                f"matrix shape {len(matrix)}x{len(matrix[0]) if matrix else 0} "
                f"does not match {codomain.dim}x{domain.dim}"
            )
        self.field = field
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix
        self._cols = None
        self._inv = None

    def nonzero_columns(self):
        """Per-column nonzero entries as ((row, value), ...); cached."""
        if self._cols is None:
            cols = []
            for j in range(self.domain.dim):
                col = tuple(
                    (i, row[j]) for i, row in enumerate(self.matrix) if row[j]
                )
                cols.append(col)
            self._cols = tuple(cols)
        return self._cols

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.matrix)

    def apply(self, vector):
        """Matrix-vector product on exact coordinates."""
        if len(vector) != self.domain.dim:
            raise DimensionMismatch("vector length does not match domain")
        zero = self.field.zero
        out = [zero] * self.codomain.dim
        for j, v in enumerate(vector):
            if not v:
                continue
            for i, w in self.nonzero_columns()[j]:
                out[i] = out[i] + w * v
        return tuple(out)

    def __eq__(self, other):
        return (
            isinstance(other, LinearMap)
            and self.field == other.field
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.domain, self.codomain, self.matrix))

    def __mul__(self, other):
        return compose(self, other)

    def __matmul__(self, other):
        return tensor(self, other)

    def __repr__(self):
        return f"LinearMap({self.codomain.dim}x{self.domain.dim})"


def identity(field, space: Space) -> LinearMap:
    one, zero = field.one, field.zero
    n = space.dim
    return LinearMap._trusted(
        field, space, space,
        [[one if i == j else zero for j in range(n)] for i in range(n)],
    )


def vector_as_map(field, space: Space, coords) -> LinearMap:
    """A vector of ``space`` viewed as a map from the scalar line."""
    coords = [field.coerce(v) for v in coords]
    if len(coords) != space.dim:
        raise DimensionMismatch("coordinate count does not match space")
    return LinearMap._trusted(field, SCALAR_SPACE, space, [[v] for v in coords])


def functional_as_map(field, space: Space, coords) -> LinearMap:
    """A linear functional on ``space`` viewed as a map to the scalar line."""
    coords = [field.coerce(v) for v in coords]
    if len(coords) != space.dim:
        raise DimensionMismatch("coordinate count does not match space")
    return LinearMap._trusted(field, space, SCALAR_SPACE, [coords])


def flip_map(field, a: Space, b: Space) -> LinearMap:
    """The swap a (x) b -> b (x) a on basis vectors."""
    one, zero = field.one, field.zero
    dom = tensor_space(a, b)
    cod = tensor_space(b, a)
    rows = [[zero] * dom.dim for _ in range(cod.dim)]
    for i in range(a.dim):
        for j in range(b.dim):
            rows[j * a.dim + i][i * b.dim + j] = one
    return LinearMap._trusted(field, dom, cod, rows)


def strip_scalar_leg(m: LinearMap, space: Space) -> LinearMap:
    """Identify V (x) k and k (x) V with V: the scalar leg is one-dimensional,
    so the matrix carries over unchanged."""
    if m.codomain.dim != space.dim:
        raise DimensionMismatch("strip expects exactly one one-dimensional extra leg")
    return LinearMap._trusted(m.field, m.domain, space, m.matrix)


def bilinear_as_map(field, left: Space, right: Space, out: Space, cube) -> LinearMap:
    """Pack structure constants c[i][j][k] (coefficient of out_k at
    (left_i, right_j)) into a map left (x) right -> out."""
    rows = [[field.zero] * (left.dim * right.dim) for _ in range(out.dim)]
    for i in range(left.dim):
        for j in range(right.dim):
            for k, v in enumerate(cube[i][j]):
                if v:
                    rows[k][i * right.dim + j] = field.coerce(v)
    return LinearMap._trusted(field, tensor_space(left, right), out, rows)


def splitting_as_map(field, src: Space, left: Space, right: Space, cube) -> LinearMap:
    """Pack structure constants c[i][j][k] (coefficient of left_j (x) right_k
    at src_i) into a map src -> left (x) right."""
    rows = [[field.zero] * src.dim for _ in range(left.dim * right.dim)]
    for i in range(src.dim):
        for j in range(left.dim):
            for k, v in enumerate(cube[i][j]):
                if v:
                    rows[j * right.dim + k][i] = field.coerce(v)
    return LinearMap._trusted(field, src, tensor_space(left, right), rows)


def tensor_from_bilinear(m: LinearMap, left: Space, right: Space, out: Space):
    """Unpack a map left (x) right -> out into structure constants."""
    return tuple(
        tuple(
            tuple(m.matrix[k][i * right.dim + j] for k in range(out.dim))
            for j in range(right.dim)
        )
        for i in range(left.dim)
    )


def tensor_from_splitting(m: LinearMap, src: Space, left: Space, right: Space):
    """Unpack a map src -> left (x) right into structure constants."""
    return tuple(
        tuple(
            tuple(m.matrix[j * right.dim + k][i] for k in range(right.dim))
            for j in range(left.dim)
        )
        for i in range(src.dim)
    )


def compose(f: LinearMap, g: LinearMap) -> LinearMap:
    """f after g, as an exact matrix product."""
    if g.codomain != f.domain:
        raise DimensionMismatch(
            f"cannot compose: inner spaces {g.codomain.dim} vs {f.domain.dim} differ"
        )
    _same_field(f.field, g, "compose")
    zero = f.field.zero
    rows = [[zero] * g.domain.dim for _ in range(f.codomain.dim)]
    fcols = f.nonzero_columns()
    gcols = g.nonzero_columns()
    for j in range(g.domain.dim):
        for k, v in gcols[j]:
            for i, w in fcols[k]:
                rows[i][j] = rows[i][j] + w * v
    return LinearMap._trusted(f.field, g.domain, f.codomain, rows)


def tensor(f: LinearMap, g: LinearMap) -> LinearMap:
    """Kronecker product, left factor major."""
    field = f.field
    _same_field(field, g, "tensor")
    zero = field.zero
    dom = tensor_space(f.domain, g.domain)
    cod = tensor_space(f.codomain, g.codomain)
    gr, gc = g.codomain.dim, g.domain.dim
    rows = [[zero] * dom.dim for _ in range(cod.dim)]
    for i1, frow in enumerate(f.matrix):
        for j1, v in enumerate(frow):
            if not v:
                continue
            base_r = i1 * gr
            base_c = j1 * gc
            for i2, grow in enumerate(g.matrix):
                out = rows[base_r + i2]
                for j2, w in enumerate(grow):
                    if w:
                        out[base_c + j2] = v * w
    return LinearMap._trusted(field, dom, cod, rows)


def transpose(f: LinearMap) -> LinearMap:
    """The transposed matrix, as a map from f's codomain to its domain."""
    return LinearMap._trusted(f.field, f.codomain, f.domain, zip(*f.matrix))


def inverse(f: LinearMap) -> LinearMap:
    """Exact inverse of a square map; cached on the map after first use."""
    if f._inv is not None:
        return f._inv
    if f.domain.dim != f.codomain.dim:
        raise NonInvertibleError("only square maps can be inverted")
    n = f.domain.dim
    field = f.field
    one, zero = field.one, field.zero
    rows = [{j: v for j, v in enumerate(row) if v} for row in f.matrix]
    for i, row in enumerate(rows):
        row[n + i] = one
    if len(_gauss_jordan(rows, n)) < n:
        raise NonInvertibleError("map is singular")
    inv = LinearMap._trusted(
        field, f.codomain, f.domain,
        [[row.get(n + j, zero) for j in range(n)] for row in rows])
    f._inv = inv
    inv._inv = f
    return inv


def power(f: LinearMap, n: int) -> LinearMap:
    """Exact n-th iterate; n = 0 is the identity, negative n uses the inverse."""
    if f.domain != f.codomain:
        raise DimensionMismatch("only endomorphisms have powers")
    if n == 0:
        return identity(f.field, f.domain)
    base = f if n > 0 else inverse(f)
    out = base
    for _ in range(abs(n) - 1):
        out = compose(out, base)
    return out


@dataclass(frozen=True)
class NoSolution:
    """Certificate of inconsistency: a reduced row 0 = nonzero constant."""

    row_index: int
    reduced_row: tuple

    def __bool__(self):
        return False


def _gauss_jordan(rows, width: int) -> list:
    """Reduce ``rows`` in place to reduced row echelon form on their first
    ``width`` columns; returns the pivot columns.

    Rows are {column: value} dicts holding only nonzeros; columns from
    ``width`` on (a right-hand side, an identity block) are carried along but
    never pivoted on.  For each column c in turn the pivot is the first row
    at or below the current one with a nonzero in c: it is swapped up,
    normalised, and c is cleared in every other row.
    """
    m = len(rows)
    pivots = []
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, m) if c in rows[i]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        prow = {k: v / p for k, v in rows[r].items()}
        rows[r] = prow
        for i, row in enumerate(rows):
            factor = row.get(c)
            if factor is None or i == r:
                continue
            for k, v in prow.items():
                acc = row.get(k)
                acc = -(factor * v) if acc is None else acc - factor * v
                if acc:
                    row[k] = acc
                else:
                    del row[k]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


def _sparse_rows(field, rows, width=None):
    """Coerced {column: value} dicts of the nonzeros of ``rows``, which are
    dense sequences of ``width`` entries or already such dicts."""
    out = []
    for row in rows:
        if isinstance(row, dict):
            items = row.items()
            if width is not None and any(not 0 <= k < width for k in row):
                raise DimensionMismatch("column index out of range")
        else:
            items = enumerate(row)
            if width is not None and len(row) != width:
                raise DimensionMismatch("ragged matrix")
        coerced = ((k, field.coerce(v)) for k, v in items)
        out.append({k: v for k, v in coerced if v})
    return out


def solve_linear(field, rows, rhs, unknowns: int | None = None):
    """Solve A x = b exactly; returns the solution or a NoSolution certificate.

    Rows are dense sequences, or {column: value} dicts of their nonzeros; for
    dict rows ``unknowns`` gives the number of columns.  When the system is
    underdetermined the free variables are set to zero.
    """
    m = len(rows)
    if m != len(rhs):
        raise DimensionMismatch("matrix and right-hand side sizes differ")
    if unknowns is None:
        if m and isinstance(rows[0], dict):
            raise ValueError("dict rows need the number of unknowns")
        unknowns = len(rows[0]) if m else 0
    n = unknowns
    aug = _sparse_rows(field, rows, n)
    for row, b in zip(aug, rhs):
        b = field.coerce(b)
        if b:
            row[n] = b
    pivots = _gauss_jordan(aug, n)
    zero = field.zero
    for i in range(len(pivots), m):
        if n in aug[i]:
            return NoSolution(row_index=i, reduced_row=tuple(
                aug[i].get(k, zero) for k in range(n + 1)))
    solution = [zero] * n
    for row, c in zip(aug, pivots):
        solution[c] = row.get(n, zero)
    return solution


def matrix_rank(field, rows) -> int:
    """Rank of dense rows or of {column: value} dict rows."""
    work = _sparse_rows(field, rows)
    return len(_gauss_jordan(work, 1 + max((k for row in work for k in row),
                                           default=-1)))


def maps_equal(f: LinearMap, g: LinearMap, name: str = "maps_equal") -> CheckReport:
    """Entrywise exact comparison; reports the first differing entry
    (row-major) together with both full columns at that entry."""
    if f.domain != g.domain or f.codomain != g.codomain:
        raise DimensionMismatch("cannot compare maps with different spaces")
    for i, (frow, grow) in enumerate(zip(f.matrix, g.matrix)):
        if frow == grow:
            continue
        for j, (a, b) in enumerate(zip(frow, grow)):
            if a != b:
                witness = Witness(
                    basis=(f.domain.names[j],),
                    lhs=f.column(j),
                    rhs=g.column(j),
                    entry=(i, j, a, b),
                )
                return CheckReport(name=name, passed=False, witness=witness)
    return CheckReport(name=name, passed=True)


def equal_on_basis(name: str, lhs: LinearMap, rhs: LinearMap, factors) -> CheckReport:
    """Compare two maps out of a common tensor domain, sweeping basis tuples
    in row-major (lexicographic) order; the witness decodes the first failing
    tuple into factor basis names and carries both evaluated sides."""
    if lhs.domain != rhs.domain or lhs.codomain != rhs.codomain:
        raise DimensionMismatch(f"{name}: compared maps live on different spaces")
    for j in range(lhs.domain.dim):
        a = lhs.column(j)
        b = rhs.column(j)
        if a != b:
            witness = Witness(basis=basis_tuple_names(j, factors), lhs=a, rhs=b)
            return CheckReport(name=name, passed=False, witness=witness)
    return CheckReport(name=name, passed=True)


class Pipeline:
    """Compiles a chain of per-leg tensor operations into one LinearMap.

    The pipeline starts as the identity on a tensor product of "legs" and is
    transformed step by step: apply a map to one leg, split a leg with a
    comultiplication-like map, merge adjacent legs with a multiplication-like
    map, permute legs, or adjoin a fixed vector as a new leg.  Columns are
    tracked sparsely (nonzero coordinates only); ``finish`` densifies.
    """

    def __init__(self, field, legs):
        self.field = field
        self.domain_legs = tuple(legs)
        self.legs = list(legs)
        dims = [s.dim for s in legs]
        one = field.one
        self.columns = [
            {decode_index(j, dims): one} for j in range(prod(dims))
        ]

    def _transform(self, fn):
        """Rewrite every column through fn(key, value) -> iterable of pairs."""
        for idx, col in enumerate(self.columns):
            out: dict = {}
            for key, v in col.items():
                for nk, nv in fn(key, v):
                    acc = out.get(nk)
                    acc = nv if acc is None else acc + nv
                    if acc:
                        out[nk] = acc
                    elif nk in out:
                        del out[nk]
            self.columns[idx] = out
        return self

    def map_leg(self, i: int, f: LinearMap):
        """Apply f to leg i."""
        if f.domain != self.legs[i]:
            raise DimensionMismatch(f"map_leg: leg {i} is not the domain of the map")
        _same_field(self.field, f, "map_leg")
        cols = f.nonzero_columns()

        def fn(key, v):
            for r, w in cols[key[i]]:
                yield key[:i] + (r,) + key[i + 1:], w * v

        self.legs[i] = f.codomain
        return self._transform(fn)

    def split_leg(self, i: int, f: LinearMap, out_left: Space, out_right: Space):
        """Replace leg i by two legs via f: leg -> out_left (x) out_right."""
        if f.domain != self.legs[i]:
            raise DimensionMismatch(f"split_leg: leg {i} is not the domain of the map")
        if f.codomain.dim != out_left.dim * out_right.dim:
            raise DimensionMismatch("split_leg: declared factors do not match codomain")
        _same_field(self.field, f, "split_leg")
        cols = f.nonzero_columns()
        d2 = out_right.dim

        def fn(key, v):
            for r, w in cols[key[i]]:
                r1, r2 = divmod(r, d2)
                yield key[:i] + (r1, r2) + key[i + 1:], w * v

        self.legs[i:i + 1] = [out_left, out_right]
        return self._transform(fn)

    def merge_legs(self, i: int, count: int, f: LinearMap):
        """Replace legs i..i+count-1 by one leg via f on their tensor product."""
        dims = [s.dim for s in self.legs[i:i + count]]
        if f.domain.dim != prod(dims):
            raise DimensionMismatch("merge_legs: map domain does not match legs")
        _same_field(self.field, f, "merge_legs")
        cols = f.nonzero_columns()

        def fn(key, v):
            j = encode_index(key[i:i + count], dims)
            for r, w in cols[j]:
                yield key[:i] + (r,) + key[i + count:], w * v

        self.legs[i:i + count] = [f.codomain]
        return self._transform(fn)

    def permute(self, order):
        """Reorder legs so that new leg t is old leg order[t]."""
        if sorted(order) != list(range(len(self.legs))):
            raise ValueError(f"bad permutation {order}")

        def fn(key, v):
            yield tuple(key[t] for t in order), v

        self.legs = [self.legs[t] for t in order]
        return self._transform(fn)

    def adjoin_vector(self, i: int, space, coords):
        """Insert a fixed vector of ``space`` as a new leg at position i.

        ``space`` may also be a sequence of spaces: the vector then lives in
        their tensor product and they become consecutive new legs.
        """
        spaces = [space] if isinstance(space, Space) else list(space)
        dims = [s.dim for s in spaces]
        coords = [self.field.coerce(v) for v in coords]
        if len(coords) != prod(dims):
            raise DimensionMismatch("adjoin_vector: coordinate count does not match")
        nz = [(decode_index(r, dims), w) for r, w in enumerate(coords) if w]

        def fn(key, v):
            for r, w in nz:
                yield key[:i] + r + key[i:], w * v

        self.legs[i:i] = spaces
        return self._transform(fn)

    def sparse_columns(self) -> list:
        """The compiled map without densifying: for each domain basis vector
        a {codomain index: value} dict of its nonzero coordinates."""
        dims = [s.dim for s in self.legs]
        return [{encode_index(key, dims): v for key, v in col.items()}
                for col in self.columns]

    def finish(self) -> LinearMap:
        domain = tensor_space_list(self.domain_legs)
        codomain = tensor_space_list(self.legs)
        dims = [s.dim for s in self.legs]
        zero = self.field.zero
        rows = [[zero] * domain.dim for _ in range(codomain.dim)]
        for j, col in enumerate(self.columns):
            for key, v in col.items():
                rows[encode_index(key, dims)][j] = v
        return LinearMap._trusted(self.field, domain, codomain, rows)
