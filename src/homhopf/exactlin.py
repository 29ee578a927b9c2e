"""Exact multilinear algebra over based finite-dimensional spaces.

A linear map between named-basis spaces holds one form: ``_cols``, a
{domain index: {row: value}} dict of its nonzero columns, values in kernel
form, no column empty and no value zero.  Once a map holds the dict,
nothing changes it in place, so maps and ``Pipeline`` blocks may share it.
The public ``LinearMap(...)`` takes dense rows and coerces every nonzero
entry into the field (``_coerced``); maps the kernel computes itself skip
the coercion, so every kernel operation refuses operands over different
fields (``FieldMismatch``).  Dense rows are built only when ``matrix`` is
first read, so kernel output is never densified unless a caller wants the
full matrix; equality and ``equal_on_basis`` compare the dicts.
Dense input is packed with no Python step per zero (``_nonzeros``).

Linear systems are solved by one sparse exact Gauss–Jordan elimination on
rows stored as {column: value} dicts.  It keeps a column index, for each
pivotable column the set of rows holding a nonzero there, so its work is
proportional to the nonzeros it touches; since each row's update reads
only that row and the pivot row, the result is the same as a row-by-row
scan's, row for row.

Inside the kernel a GF(p) scalar is its residue, a plain ``int`` in
[0, p).  A rational comes in lowered, an integral one as a plain ``int``;
a product formed inside the kernel (in ``compose``, ``tensor`` or the
``Pipeline``'s ``_apply``) is not lowered again, so one of proper fractions
may stay an integral ``Fraction``.  ``_low`` lowers every value as it comes
in: in the public constructor and the packers (``identity``,
``vector_as_map``, ``functional_as_map``, ``flip_map``,
``bilinear_as_map``, ``splitting_as_map``), in the rows and right-hand
side of ``solve_linear``, in the identity block of ``inverse``, and in
``Pipeline``'s start and adjoined vectors (``_coerced`` reduces an ``int``
given there without building a field element).  ``compose``, ``tensor``,
the ``Pipeline``'s ``_kron`` and ``_fold_rewrite``, and ``_gauss_jordan``
(which normalises a pivot by ``pow(pivot, -1, p)``) reduce mod
``field.characteristic`` once per value or column they produce, before any
zero test, and the ``Pipeline``'s ``_apply`` once per product it adds;
characteristic 0 reduces nothing, so Q's arithmetic is unchanged.  Since
``Fraction(n) == n`` and both hash alike, a map compares equal whichever
form an integer takes.  Gauss–Jordan never divides two ``int``s over Q
(that is a float): an ``int`` pivot is made a ``Fraction`` first, and an
integral quotient is lowered again.  Every ``int`` handed out (in
``matrix``, ``column()``, the ``solve_linear`` solution,
``NoSolution.reduced_row``) goes back through ``field.coerce``, so callers
see only ``Fraction`` or ``ModInt``.

``Pipeline`` is the back end of the Sweedler-term compiler (``sweedler``):
it composes per-leg operations on flat basis indices ("split the second
leg, act on legs two and three, multiply legs one and four, ...") into a
single map.  Every axiom in the package is written once as a term, which
``sweedler.compile_map`` schedules into these steps, so there is exactly one
place where tensor-leg bookkeeping can go wrong.  (Calling a ``LinearMap``
on terms builds a term.)  The ``Pipeline`` holds the
map factored into blocks of consecutive legs, each keeping only its nonzero
columns keyed by domain index, a run no step has touched being an implicit
identity.  A step rewrites only the blocks it spans, so m(b, c) in a(bc) is
computed once, not once for every a; a step spanning several blocks never
forms their Kronecker product (Van Loan, "The ubiquitous Kronecker
product", 2000) but folds the others into the step map and rewrites the
nonzero columns of one, so its work follows the nonzeros, as in
Gustavson's sparse product (ACM TOMS 4(3), 1978), not the domain size.
``permute``, ``finish`` and a read of ``columns`` multiply the blocks
out into one, over nonzero columns only, an identity run as its identity
columns like any other block; ``permute`` places each block's
rows at their new strides first, so it remaps only the blocks' own
nonzeros, and ``finish`` hands the fused dict over as it is.

Basis ordering convention, used everywhere: e_i (x) e_j maps to index
i * dim(second factor) + j (row-major, left factor major).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce
from itertools import compress, count, product
from math import prod

from .fields import ModInt
from .report import CheckReport, Witness


class DimensionMismatch(ValueError):
    """Operands whose declared spaces do not fit together."""


class NonInvertibleError(ValueError):
    """A map required to be invertible has zero determinant."""


class FieldMismatch(ValueError):
    """Operands over different fields."""


def _low(v):
    """The kernel's form of a field element: a ``ModInt`` becomes its
    residue ``int`` in [0, p), an integral ``Fraction`` its ``int``
    numerator; a proper fraction is returned as it is."""
    t = type(v)
    if t is ModInt:
        return v.value
    if t is Fraction and v.denominator == 1:
        return v.numerator
    return v


def _coerced(field, v):
    """``v`` coerced into ``field``, in kernel form; an ``int`` is reduced
    mod the characteristic without building a field element."""
    if type(v) is int:
        p = field.characteristic
        return v % p if p else v
    return _low(field.coerce(v))


def _residues(items, p: int) -> dict:
    """The {key: value} of the pairs of ``items`` whose value is nonzero mod
    the characteristic ``p``, values reduced; p = 0 reduces nothing."""
    if p:
        return {k: r for k, v in items if (r := v % p)}
    return {k: v for k, v in items if v}


def _nonzeros(field, vec, offset=0) -> dict:
    """{offset + index: value} for the entries of ``vec`` nonzero in ``field``,
    coerced, in kernel form; ``compress`` skips those false as given."""
    return {k: c for k, v in compress(zip(count(offset), vec), vec)
            if (c := _coerced(field, v))}


def _lift(field, v):
    """A kernel scalar handed out as the field element it stands for."""
    return field.coerce(v) if type(v) is int else v


def _same_field(field, f, what: str):
    if f.field is not field and f.field != field:
        raise FieldMismatch(f"{what}: map over {f.field!r} used with {field!r}")


@dataclass(frozen=True, eq=False)
class Space:
    """A based vector space: an ordered tuple of distinct basis names.
    Equality and hash see only the names; the hash is computed once.  A
    tensor product is a ``TensorSpace``, which never equals a leaf."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) == 0:
            raise ValueError("a space needs at least one basis vector")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate basis names in {self.names}")
        self.__dict__.update(dim=len(self.names), _hash=hash((self.names,)))

    def __eq__(self, other):
        return self is other or (
            type(other) is Space and self.names == other.names)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Space({list(self.names)})"

    def _cut(self, picks) -> Space:
        """The leaf on the basis vectors ``picks``, named as here (from the
        factors, for a product).  They are distinct vectors, so their names,
        which may collide, go unchecked."""
        factors = getattr(self, "factors", (self,))
        leaf, names = object.__new__(Space), tuple(
            "⊗".join(basis_tuple_names(i, factors)) for i in picks)
        leaf.__dict__.update(names=names, dim=len(names), _hash=hash((names,)))
        return leaf


SCALAR_SPACE = Space(("k",))


class TensorSpace(Space):
    """A (x) B, held as ``factors``, the flat tuple of its leaf spaces, and
    ``dim``, the product of theirs.  Its row-major "x⊗y" ``names`` are built
    on first read, for this object only.  Equality and hash see only the
    factors, so (A (x) B) (x) C == A (x) (B (x) C)."""

    def __init__(self, a: Space, b: Space):
        held = self.__dict__
        held["factors"] = ((a.factors if type(a) is TensorSpace else (a,))
                           + (b.factors if type(b) is TensorSpace else (b,)))
        held["dim"] = a.dim * b.dim

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(map("⊗".join, product(*(s.names for s in self.factors))))

    def __eq__(self, other):
        return self is other or (
            type(other) is TensorSpace and self.factors == other.factors)

    def __hash__(self):
        return hash(self.factors)


def tensor_space(a: Space, b: Space) -> Space:
    """A (x) B, a fresh ``TensorSpace``: no name is built until read, and
    a witness decodes its names from the factors (``basis_tuple_names``).
    The ground field is the unit of (x): k (x) V and V (x) k are V itself.
    Only ``SCALAR_SPACE`` is absorbed, by identity, so another
    one-dimensional space stays a factor."""
    if a is SCALAR_SPACE:
        return b
    if b is SCALAR_SPACE:
        return a
    return TensorSpace(a, b)


def tensor_space_list(spaces) -> Space:
    return reduce(tensor_space, spaces)


def decode_index(flat: int, dims) -> tuple[int, ...]:
    """Split a flat tensor index into per-factor indices (left factor major)."""
    out = []
    for d in reversed(dims):
        flat, r = divmod(flat, d)
        out.append(r)
    return tuple(reversed(out))


def basis_tuple_names(flat: int, factors) -> tuple[str, ...]:
    """Decode a flat index over a tensor product into the factor basis names."""
    dims = [s.dim for s in factors]
    return tuple(s.names[i] for s, i in zip(factors, decode_index(flat, dims)))


class LinearMap:
    """A map between based spaces, held as the {domain index: {row: value}}
    dict of its nonzero columns (rows index the codomain); see the module
    docstring."""

    def __init__(self, field, domain: Space, codomain: Space, matrix):
        rows = [tuple(row) for row in matrix]
        if len(rows) != codomain.dim or any(len(r) != domain.dim for r in rows):
            raise DimensionMismatch(
                f"matrix shape {len(rows)}x{len(rows[0]) if rows else 0} "
                f"does not match {codomain.dim}x{domain.dim}"
            )
        self._init(field, domain, codomain, {
            j: col for j, column in enumerate(zip(*rows))
            if any(column) and (col := _nonzeros(field, column))})

    @classmethod
    def _from_columns(cls, field, domain: Space, codomain: Space, columns):
        """Kernel output, held as it is: ``columns`` is the {domain index:
        {row: value}} dict of the nonzero columns, values already kernel
        scalars, no column empty and no value zero."""
        self = cls.__new__(cls)
        self._init(field, domain, codomain, columns)
        return self

    def _init(self, field, domain, codomain, cols):
        self.field = field
        self.domain = domain
        self.codomain = codomain
        self._cols = cols
        self._rows = None
        self._inv = None

    @property
    def matrix(self) -> tuple:
        """The dense rows; built from the columns on first use."""
        if self._rows is None:
            field = self.field
            rows = [[field.zero] * self.domain.dim
                    for _ in range(self.codomain.dim)]
            for j, col in self._cols.items():
                for i, v in col.items():
                    rows[i][j] = _lift(field, v)
            self._rows = tuple(map(tuple, rows))
        return self._rows

    def nonzero_columns(self) -> dict:
        """The held {domain index: {row: value}} dict of the nonzero
        columns, values in kernel form; read it, do not change it."""
        return self._cols

    def column(self, j: int) -> tuple:
        field = self.field
        out = [field.zero] * self.codomain.dim
        for i, v in self._cols.get(j, {}).items():
            out[i] = _lift(field, v)
        return tuple(out)

    def apply(self, vector):
        """Matrix-vector product on exact coordinates."""
        if len(vector) != self.domain.dim:
            raise DimensionMismatch("vector length does not match domain")
        zero = self.field.zero
        out = [zero] * self.codomain.dim
        cols = self._cols
        for j, v in enumerate(vector):
            if not v or j not in cols:
                continue
            for i, w in cols[j].items():
                out[i] = out[i] + w * v
        return tuple(out)

    def __eq__(self, other):
        return (
            isinstance(other, LinearMap)
            and self.field == other.field
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self._cols == other._cols
        )

    def __hash__(self):
        return hash((self.domain, self.codomain))

    def __mul__(self, other):
        return compose(self, other)

    def __matmul__(self, other):
        return tensor(self, other)

    def __call__(self, *args):
        """The Sweedler term applying this map to the tensor of the terms
        ``args``; see ``sweedler``."""
        return sweedler.Term("map", self.codomain, self, args)

    def __repr__(self):
        return f"LinearMap({self.codomain.dim}x{self.domain.dim})"


@cache
def _identity_columns(n: int) -> dict:
    return {j: {j: 1} for j in range(n)}


def identity(field, space: Space) -> LinearMap:
    # 1 is the kernel form of every field's one; the held dict is shared
    return LinearMap._from_columns(field, space, space,
                                   _identity_columns(space.dim))


def vector_as_map(field, space: Space, coords) -> LinearMap:
    """A vector of ``space`` viewed as a map from the scalar line."""
    coords = [_coerced(field, v) for v in coords]
    if len(coords) != space.dim:
        raise DimensionMismatch("coordinate count does not match space")
    col = {i: v for i, v in enumerate(coords) if v}
    return LinearMap._from_columns(field, SCALAR_SPACE, space,
                                   {0: col} if col else {})


def functional_as_map(field, space: Space, coords) -> LinearMap:
    """A linear functional on ``space`` viewed as a map to the scalar line."""
    coords = [_coerced(field, v) for v in coords]
    if len(coords) != space.dim:
        raise DimensionMismatch("coordinate count does not match space")
    return LinearMap._from_columns(field, space, SCALAR_SPACE,
                                   {j: {0: v} for j, v in enumerate(coords) if v})


def flip_map(field, a: Space, b: Space) -> LinearMap:
    """The swap a (x) b -> b (x) a on basis vectors."""
    one = _low(field.one)
    return LinearMap._from_columns(
        field, tensor_space(a, b), tensor_space(b, a),
        {i * b.dim + j: {j * a.dim + i: one}
         for i in range(a.dim) for j in range(b.dim)})


def bilinear_as_map(field, left: Space, right: Space, out: Space, cube) -> LinearMap:
    """Pack structure constants c[i][j][k] (coefficient of out_k at
    (left_i, right_j)) into a map left (x) right -> out."""
    d = right.dim
    return LinearMap._from_columns(field, tensor_space(left, right), out, {
        i * d + j: col for i in range(left.dim) for j in range(d)
        if any(row := cube[i][j]) and (col := _nonzeros(field, row))})


def splitting_as_map(field, src: Space, left: Space, right: Space, cube) -> LinearMap:
    """Pack structure constants c[i][j][k] (coefficient of left_j (x) right_k
    at src_i) into a map src -> left (x) right."""
    d = right.dim
    return LinearMap._from_columns(field, src, tensor_space(left, right), {
        i: col for i in range(src.dim) if (col := {
            k: v for j in range(left.dim) if any(row := cube[i][j])
            for k, v in _nonzeros(field, row, j * d).items()})})


def tensor_from_bilinear(m: LinearMap, left: Space, right: Space, out: Space):
    """Unpack a map left (x) right -> out into structure constants."""
    return tuple(
        tuple(m.column(i * right.dim + j) for j in range(right.dim))
        for i in range(left.dim)
    )


def tensor_from_splitting(m: LinearMap, src: Space, left: Space, right: Space):
    """Unpack a map src -> left (x) right into structure constants."""
    d = right.dim
    cols = (m.column(i) for i in range(src.dim))
    return tuple(
        tuple(col[j * d:(j + 1) * d] for j in range(left.dim)) for col in cols
    )


def compose(f: LinearMap, g: LinearMap) -> LinearMap:
    """f after g, as an exact sparse matrix product."""
    if g.codomain != f.domain:
        raise DimensionMismatch(
            f"cannot compose: inner spaces {g.codomain.dim} vs {f.domain.dim} differ"
        )
    _same_field(f.field, g, "compose")
    p = f.field.characteristic
    fcols = f._cols
    cols = {}
    for j, gcol in g._cols.items():
        acc: dict = {}
        for k, v in gcol.items():
            if k not in fcols:
                continue
            for i, w in fcols[k].items():
                a = acc.get(i)
                acc[i] = w * v if a is None else a + w * v
        if col := _residues(acc.items(), p):
            cols[j] = col
    return LinearMap._from_columns(f.field, g.domain, f.codomain, cols)


def tensor(f: LinearMap, g: LinearMap) -> LinearMap:
    """Kronecker product, left factor major."""
    field = f.field
    _same_field(field, g, "tensor")
    p = field.characteristic
    gr, gd = g.codomain.dim, g.domain.dim
    # a product of two nonzero residues mod a prime is nonzero
    return LinearMap._from_columns(
        field, tensor_space(f.domain, g.domain),
        tensor_space(f.codomain, g.codomain),
        {j * gd + k: {i1 * gr + i2: v * w % p if p else v * w
                      for i1, v in fcol.items() for i2, w in gcol.items()}
         for j, fcol in f._cols.items() for k, gcol in g._cols.items()})


def inverse(f: LinearMap) -> LinearMap:
    """Exact inverse of a square map; cached on the map after first use."""
    if f._inv is not None:
        return f._inv
    if f.domain.dim != f.codomain.dim:
        raise NonInvertibleError("only square maps can be inverted")
    n = f.domain.dim
    field = f.field
    rows = [{} for _ in range(n)]
    for j, col in f._cols.items():
        for i, v in col.items():
            rows[i][j] = v
    one = _low(field.one)
    for i, row in enumerate(rows):
        row[n + i] = one
    if len(_gauss_jordan(rows, n, field.characteristic)) < n:
        raise NonInvertibleError("map is singular")
    cols: dict = {}
    for i, row in enumerate(rows):
        for k, v in row.items():
            if k >= n:
                cols.setdefault(k - n, {})[i] = v
    inv = LinearMap._from_columns(field, f.codomain, f.domain, cols)
    f._inv = inv
    inv._inv = f
    return inv


def power(f: LinearMap, n: int) -> LinearMap:
    """Exact n-th iterate by square-and-multiply; n = 0 is the identity,
    negative n uses the inverse."""
    if f.domain != f.codomain:
        raise DimensionMismatch("only endomorphisms have powers")
    if n == 0:
        return identity(f.field, f.domain)
    base = f if n > 0 else inverse(f)
    n = abs(n)
    out = None
    while True:
        if n & 1:
            out = base if out is None else compose(out, base)
        n >>= 1
        if not n:
            return out
        base = compose(base, base)


@dataclass(frozen=True)
class NoSolution:
    """Certificate of inconsistency: a reduced row 0 = nonzero constant."""

    row_index: int
    reduced_row: tuple

    def __bool__(self):
        return False


def _gauss_jordan(rows, width: int, p: int) -> list:
    """Reduce ``rows`` in place to reduced row echelon form on their first
    ``width`` columns over the field of characteristic ``p``; returns the
    pivot columns.

    Rows are {column: value} dicts holding only nonzeros; columns from
    ``width`` on (a right-hand side, an identity block) are carried along but
    never pivoted on.  For each column c in turn the pivot is the first row
    at or below the current one with a nonzero in c: it is swapped up,
    normalised, and c is cleared in every other row.

    ``holding[c]`` is the set of row positions with a nonzero in column c
    (for c below ``width``), updated on a swap, on fill-in and on
    cancellation.  Finding a pivot and clearing its column visit only those
    rows, so the work is proportional to the nonzeros the elimination
    touches, not to rows times columns.  The pivot is still the smallest
    position at or below the current row, and each row's update reads only
    itself and the pivot row, so the order the set is visited in does not
    matter: the reduced rows, their order and the pivots are those of a
    row-by-row scan.
    """
    m = len(rows)
    holding = [set() for _ in range(width)]
    for i, row in enumerate(rows):
        for k in row:
            if k < width:
                holding[k].add(i)
    pivots = []
    r = 0
    for c in range(width):
        piv = min((i for i in holding[c] if i >= r), default=None)
        if piv is None:
            continue
        if piv != r:
            # a column held by just one of the two rows moves with it
            for k in rows[r].keys() ^ rows[piv].keys():
                if k < width:
                    holding[k] ^= {r, piv}
            rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        pivot = prow[c]
        if pivot == 1:
            pass
        elif p:
            inv = pow(pivot, -1, p)
            prow = rows[r] = {k: v * inv % p for k, v in prow.items()}
        else:
            if type(pivot) is int:
                pivot = Fraction(pivot)     # int / int would be a float
            prow = rows[r] = {k: _low(v / pivot) for k, v in prow.items()}
        for i in list(holding[c]):
            if i == r:
                continue
            row = rows[i]
            factor = row[c]
            for k, v in prow.items():
                acc = row.get(k)
                if acc is None:             # fill-in, nonzero mod p too
                    acc = -(factor * v)
                    row[k] = acc % p if p else acc
                    if k < width:
                        holding[k].add(i)
                    continue
                acc = acc - factor * v
                if p:
                    acc %= p
                if acc:
                    row[k] = acc
                else:                       # cancellation
                    del row[k]
                    if k < width:
                        holding[k].discard(i)
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
        coerced = ((k, _coerced(field, v)) for k, v in items)
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
        b = _coerced(field, b)
        if b:
            row[n] = b
    pivots = _gauss_jordan(aug, n, field.characteristic)
    zero = field.zero
    for i in range(len(pivots), m):
        if n in aug[i]:
            return NoSolution(row_index=i, reduced_row=tuple(
                _lift(field, aug[i].get(k, zero)) for k in range(n + 1)))
    solution = [zero] * n
    for row, c in zip(aug, pivots):
        solution[c] = _lift(field, row.get(n, zero))
    return solution


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
    tuple into factor basis names and carries both evaluated sides.

    The sides are compared as the {domain index: {row: value}} dicts they
    hold.  Only the lowest differing column is lifted into the witness.  ``sweedler.holds`` is the caller for an identity with a
    formula side: it compiles the side and takes ``factors`` from the
    formula's input legs."""
    if lhs.domain != rhs.domain or lhs.codomain != rhs.codomain:
        raise DimensionMismatch(f"{name}: compared maps live on different spaces")
    if prod(s.dim for s in factors) != lhs.domain.dim:
        raise DimensionMismatch(f"{name}: witness factors do not span the domain")
    lcols, rcols = lhs._cols, rhs._cols
    if lcols != rcols:
        j = min(j for a, b in ((lcols, rcols), (rcols, lcols))
                for j, col in a.items() if b.get(j) != col)
        witness = Witness(basis=basis_tuple_names(j, factors),
                          lhs=lhs.column(j), rhs=rhs.column(j))
        return CheckReport(name=name, passed=False, witness=witness)
    return CheckReport(name=name, passed=True)


class Pipeline:
    """Compiles a chain of per-leg tensor operations into one LinearMap;
    ``sweedler.compile_map`` emits the chains.

    The pipeline starts as the identity on a tensor product of "legs" and is
    transformed step by step: apply a map to one leg, split a leg with a
    comultiplication-like map, merge adjacent legs with a multiplication-like
    map, permute legs, or adjoin a fixed vector as new legs.

    The map so far is held factored into blocks, ``[number of current legs,
    domain size, columns]``, whose left-major Kronecker product it is.  A
    block is a run of consecutive domain legs (possibly none: an adjoined
    vector) together with the current legs they have become; its columns
    are a {domain index: {flat index over its current legs: value}} dict
    holding only the nonzero columns.  A run no step has touched is an
    identity run, with columns ``None``.  No step changes a block's columns
    in place, so a block may hold a step map's own dict, and a finished
    map the block's.

    A step rewrites only the blocks it spans (an identity run is split at
    the step's edges first) into one block; a step that covers identity
    runs alone takes its map's dict as it is, and one spanning
    several blocks folds all but one into the step map instead of forming
    their Kronecker product (``_fold_rewrite``).  So α ⊗ m under m costs
    one pass over m's nonzero columns for each column of α, and no step
    visits an empty column.  A ``map_leg`` by the identity map is no step.
    A rewrite decodes each nonzero of the kept block once per step, however
    many folds the step has, and builds each output column in one
    accumulator, reduced as it is summed (``_apply``).

    ``_kron`` is the one routine that multiplies blocks out, over their
    nonzero columns: it places each block's rows at given strides, which
    visits only that block's nonzeros, then adds the placed rows of each
    product.  ``columns`` and ``finish`` fuse every block with it (the
    left-major placement), ``permute`` fuses and reorders the legs in the
    same pass (the placement at the permuted strides), and
    ``_fold_rewrite`` forms its side products with it.  ``finish`` hands
    the fused dict to the ``LinearMap`` as it is.  Reading ``columns``
    fuses in place, so a caller that reads it after every step (a tracer
    counting nonzeros) makes the pipeline rewrite one fused block from
    then on; the map is the same.

    Two one-block shortcuts stay because trial deletions cost: ``_rewrite``
    skips ``_span`` when one touched block holds every leg, which keeps an
    adjoined vector at that block's edge inside it (without it a cold
    ``selftest()`` holds 31,121 nonzeros, not 31,108), and ``_fuse_all``
    returns a lone touched block as it is (without it the corpus checks
    took 6.4 % longer, the deletion winning 0 of 10 alternating pairs).
    """

    def __init__(self, field, legs):
        legs = tuple(legs)
        if not legs:
            raise DimensionMismatch(
                "a Pipeline needs at least one leg; the scalar domain is "
                "[SCALAR_SPACE]")
        self.field = field
        self.domain_legs = legs
        self.legs = list(legs)
        self._blocks = [[len(legs), None, None]]

    def _span(self, i: int, count: int):
        """Blocks b0..b1-1 covering legs i..i+count-1, and the legs
        first..end they cover; an identity run straddling i or i + count is
        split there first.  For count 0 the span is the touched block that
        position i lies strictly inside, or empty at a block edge."""
        blocks = self._blocks
        b = start = 0
        while b < len(blocks) and start + blocks[b][0] <= i:
            start += blocks[b][0]
            b += 1
        if b < len(blocks) and start < i and blocks[b][1] is None:
            n = blocks[b][0]
            blocks[b:b + 1] = [[i - start, None, None],
                               [start + n - i, None, None]]
            start, b = i, b + 1
        b0, first, stop = b, start, i + count
        while b < len(blocks) and start < stop:
            n, cols, _ = blocks[b]
            if cols is None and start + n > stop:
                blocks[b:b + 1] = [[stop - start, None, None],
                                   [start + n - stop, None, None]]
                n = stop - start
            start += n
            b += 1
        return b0, b, first, start

    @staticmethod
    def _placed_rows(rows, moves) -> list:
        """Each row of ``rows`` at its place in a product: split into the
        digits of the runs of legs in ``moves``, (stride in the block, size,
        new stride) each, and each digit set at its new stride."""
        return [sum(r // o % d * s for o, d, s in moves) for r in rows]

    @staticmethod
    def _kron(blocks, dims, p: int, strides=None) -> dict:
        """The Kronecker product of ``blocks``, whose current legs have
        sizes ``dims``, as {domain index: {row: value}} over its nonzero
        columns, products reduced mod ``p``.  Leg u of the product's
        codomain has stride ``strides[u]``: left-major by default, which
        fuses the blocks, or those of the legs permuted.  Each block's rows
        are placed at those strides first, which visits only its own
        nonzeros, and a row of the product is the sum of its factors'
        placed rows.  An identity run is multiplied out as its identity
        columns, on the one path every block takes.  A block whose legs keep
        their strides is not placed again: placing every block made
        ``yau_twist`` 1.8-2.5 % slower on T_3 to T_8, the deletion winning 1
        to 4 of 10 alternating pairs."""
        if strides is None:
            strides = [prod(dims[u + 1:]) for u in range(len(dims))]
        acc, at = None, 0       # no factor yet
        for n, cols, size in blocks:
            moves, old = [], prod(dims[at:at + n])
            for u in range(at, at + n):
                old //= dims[u]
                if moves and moves[-1][2] == strides[u] * dims[u]:
                    moves[-1] = (old, moves[-1][1] * dims[u], strides[u])
                else:           # leg u does not follow the run before it
                    moves.append((old, dims[u], strides[u]))
            cod = prod(dims[at:at + n])
            at += n
            if cols is None:    # an identity run
                cols, size = _identity_columns(cod), cod
            if moves != [(1, cod, 1)]:
                cols = {kb: dict(zip(Pipeline._placed_rows(cb, moves),
                                     cb.values()))
                        for kb, cb in cols.items()}
            if acc is None:
                acc = cols
                continue
            items = [(kb, tuple(cb.items())) for kb, cb in cols.items()]
            acc = {k * size + kb: {r + rb: v * wb % p if p else v * wb
                                   for r, v in col.items() for rb, wb in cb}
                   for k, col in acc.items() for kb, cb in items}
        return {0: {0: 1}} if acc is None else acc

    def _fuse_all(self, order=None) -> dict:
        """Fuse every block into one and return its columns; with
        ``order``, permute the legs as well, new leg t being old leg
        order[t]."""
        blocks = self._blocks
        if order is None:
            if len(blocks) == 1 and blocks[0][1] is not None:
                return blocks[0][1]
            order = range(len(self.legs))
        dims = [s.dim for s in self.legs]
        strides = [0] * len(dims)
        for t, u in enumerate(order):
            strides[u] = prod(dims[w] for w in order[t + 1:])
        cols = self._kron(blocks, dims, self.field.characteristic, strides)
        size, at = 1, 0
        for n, touched, block_size in blocks:
            size *= prod(dims[at:at + n]) if touched is None else block_size
            at += n
        blocks[:] = [[len(dims), cols, size]]
        self.legs = [self.legs[u] for u in order]
        return cols

    def _rewrite(self, i: int, count: int, cols, new_legs):
        """Replace legs i..i+count-1 (count may be 0) by ``new_legs`` through
        the map on their tensor product whose {domain index: {row: value}}
        dict of nonzero columns is ``cols``.

        Only the blocks spanning those legs are rewritten, into one block.
        A flat index over the span's current legs splits as (hi, mid, low)
        around the replaced legs, and each row r of ``cols[mid]`` lands at
        (hi, r, low).  A rewrite reads the step map as a list of the
        (row, value) pairs of each of its columns, zero columns empty."""
        blocks = self._blocks
        if len(blocks) == 1 and blocks[0][1] is not None:
            b0, b1, first, end = 0, 1, 0, len(self.legs)
        else:
            b0, b1, first, end = self._span(i, count)
        span = blocks[b0:b1]
        dims = [s.dim for s in self.legs[first:end]]
        n_new = len(dims) - count + len(new_legs)
        touched = [t for t, b in enumerate(span) if b[1] is not None]
        if not touched:
            # the span is the replaced legs themselves, or empty
            blocks[b0:b1] = [[n_new, cols, prod(dims)]]
            self.legs[i:i + count] = new_legs
            return self
        a, e = i - first, i - first + count
        lo = prod(dims[e:])
        out_block = prod([s.dim for s in new_legs]) * lo
        shifted = [cols[k].items() if k in cols else ()
                   for k in range(prod(dims[a:e]))]
        if lo != 1:
            shifted = [[(r * lo, w) for r, w in col] for col in shifted]
        p = self.field.characteristic
        if len(span) == 1:
            _, kept, size = span[0]
            new_columns = self._apply(kept, prod(dims[a:]), lo, out_block,
                                      [(0, 1, shifted)], p)
        else:
            new_columns, size = self._fold_rewrite(
                span, touched, dims, a, e, shifted, out_block, p)
        blocks[b0:b1] = [[n_new, new_columns, size]]
        self.legs[i:i + count] = new_legs
        return self

    def _fold_rewrite(self, span, touched, dims, a, e, shifted, out_block,
                      p):
        """The columns and domain size of the block replacing ``span``, for
        a step on its legs a..e-1 whose columns, rows scaled by the size of
        the legs after e, are ``shifted``, over characteristic ``p``.

        The touched block with the most nonzero columns is kept, on legs
        t0..t1-1.  The blocks left and right of it are multiplied out over
        their nonzero columns; for each pair of those columns the step map
        is folded with them into one image for each mid of the kept block,
        which is then rewritten through these images.  A row of the left
        product splits as (its hi, its mid) and one of the right product as
        (its mid, its low), since only the first block of the span has legs
        before a and only the last has legs after e.

        Both branches and the "no two rows meet" shortcut stay because
        trial deletions cost: with no fold ``check_hom_bialgebra`` took
        18-83 % longer, fusing the span for a multi-touched step made
        ``yau_twist`` 5-28 % slower, the single-touched case through the
        general fold made ``check_hom_bialgebra`` 10-19 % slower, and no
        shortcut made ``yau_twist`` 5-11 % slower."""
        bounds, cods, sizes = [0], [], []
        for n, cols, size in span:
            cods.append(prod(dims[bounds[-1]:bounds[-1] + n]))
            sizes.append(cods[-1] if cols is None else size)
            bounds.append(bounds[-1] + n)
        t = touched[0]
        for u in touched:
            if len(span[u][1]) > len(span[t][1]):
                t = u
        t0, t1 = bounds[t], bounds[t + 1]
        lo_t = prod(dims[e:t1])
        lo_r = prod(dims[max(t1, e):])
        m_t, m_r = prod(dims[max(t0, a):min(t1, e)]), prod(dims[t1:e])
        size_t, size_r = sizes[t], prod(sizes[t + 1:])
        kept = span[t][1]
        folds = []
        if len(touched) == 1:
            # identity runs beside the kept block lie inside the step, so
            # each pair of their indices selects a slice of the step map
            n_l = prod(cods[:t])
            for jl in range(n_l):
                for jr in range(size_r):
                    at = jl * m_t * size_r + jr
                    folds.append((jl * size_t * size_r + jr, size_r,
                                  shifted[at:at + m_t * size_r:size_r]))
        else:
            m_l = prod(dims[a:t0])
            hi_step = prod(dims[t0:a]) * out_block   # one hi of the left
            # (offset, value, step column at mid 0) of each nonzero row
            left = [(kl * size_t * size_r,
                     [(rl // m_l * hi_step, vl, rl % m_l * m_t * m_r)
                      for rl, vl in cl.items()])
                    for kl, cl in self._kron(span[:t], dims[:t0], p).items()]
            right = [(kr, [(rr % lo_r, vr, rr // lo_r)
                           for rr, vr in cr.items()])
                     for kr, cr in self._kron(span[t + 1:], dims[t1:],
                                              p).items()]
            mids = {key // lo_t % m_t for col in kept.values() for key in col}
            for start, terms_l in left:
                for kr, terms_r in right:
                    terms = [(ol + orr, vl * vr, al + ar)
                             for ol, vl, al in terms_l for orr, vr, ar in terms_r]
                    if len(terms) == 1:             # no two rows meet
                        off, s, at = terms[0]
                        folds.append((start + kr, size_r, {m: [
                            (off + r, w * s)
                            for r, w in shifted[at + m * m_r]] for m in mids}))
                        continue
                    images = {}
                    for m in mids:
                        acc: dict = {}
                        for off, s, at in terms:
                            for r, w in shifted[at + m * m_r]:
                                acc[off + r] = acc.get(off + r, 0) + w * s
                        images[m] = _residues(acc.items(), p).items()
                    folds.append((start + kr, size_r, images))
        return (self._apply(kept, m_t * lo_t, lo_t, out_block, folds, p),
                prod(sizes))

    @staticmethod
    def _apply(kept, kept_block, lo_t, out_block, folds, p: int) -> dict:
        """The new block's columns: each nonzero column of the kept block
        rewritten through each fold, values reduced mod ``p``.

        A row of the kept block splits as (hi, mid, low) by ``kept_block``
        and ``lo_t``.  Each kept column is decoded once per call into a list
        of (hi * out_block + low, mid, value), and every fold runs over that
        list; only one column's list is held at a time.  Each output column
        has one accumulator: a product is reduced as it is added, and a key
        whose sum cancels to zero is deleted, so the column holds only
        nonzero values when the fold is done."""
        new_columns = {}
        for kk, col in kept.items():
            terms = []
            for key, v in col.items():
                hi, rest = divmod(key, kept_block)
                mid, low = divmod(rest, lo_t)
                terms.append((hi * out_block + low, mid, v))
            for start, stride, images in folds:
                out: dict = {}
                for base, mid, v in terms:
                    for r, w in images[mid]:
                        nk = base + r
                        if nk in out:
                            acc = out[nk] + w * v
                            if p:
                                acc %= p
                            if acc:
                                out[nk] = acc
                            else:
                                del out[nk]
                        else:
                            out[nk] = w * v % p if p else w * v
                if out:
                    new_columns[start + kk * stride] = out
        return new_columns

    def map_leg(self, i: int, f: LinearMap):
        """Apply f to leg i; the identity map is no step."""
        if f.domain != self.legs[i]:
            raise DimensionMismatch(f"map_leg: leg {i} is not the domain of the map")
        _same_field(self.field, f, "map_leg")
        if f.domain == f.codomain and f._cols == _identity_columns(f.domain.dim):
            return self
        return self._rewrite(i, 1, f._cols, [f.codomain])

    def split_leg(self, i: int, f: LinearMap, out_left: Space, out_right: Space):
        """Replace leg i by two legs via f: leg -> out_left (x) out_right."""
        if f.domain != self.legs[i]:
            raise DimensionMismatch(f"split_leg: leg {i} is not the domain of the map")
        if f.codomain.dim != out_left.dim * out_right.dim:
            raise DimensionMismatch("split_leg: declared factors do not match codomain")
        _same_field(self.field, f, "split_leg")
        return self._rewrite(i, 1, f._cols, [out_left, out_right])

    def merge_legs(self, i: int, count: int, f: LinearMap):
        """Replace legs i..i+count-1 by one leg via f on their tensor product."""
        if f.domain.dim != prod(s.dim for s in self.legs[i:i + count]):
            raise DimensionMismatch("merge_legs: map domain does not match legs")
        _same_field(self.field, f, "merge_legs")
        return self._rewrite(i, count, f._cols, [f.codomain])

    def permute(self, order):
        """Reorder legs so that new leg t is old leg order[t]."""
        if sorted(order) != list(range(len(self.legs))):
            raise ValueError(f"bad permutation {order}")
        self._fuse_all(order)
        return self

    def adjoin_vector(self, i: int, space, coords):
        """Insert a fixed vector of ``space`` as a new leg at position i.

        ``space`` may also be a sequence of spaces: the vector then lives in
        their tensor product and they become consecutive new legs.
        """
        spaces = [space] if isinstance(space, Space) else list(space)
        coords = [_coerced(self.field, v) for v in coords]
        if len(coords) != prod(s.dim for s in spaces):
            raise DimensionMismatch("adjoin_vector: coordinate count does not match")
        vector = {r: w for r, w in enumerate(coords) if w}
        return self._rewrite(i, 0, {0: vector} if vector else {}, spaces)

    @property
    def columns(self) -> list:
        """The compiled map without densifying: for each domain basis
        vector a {codomain index: value} dict of its nonzeros, an empty dict
        for a zero column, values in kernel form (a GF(p) scalar is its
        residue ``int``, an integral rational an ``int``).  Fuses every
        block in place; the dicts are the block's own, to be read only."""
        cols = self._fuse_all()
        return [cols[k] if k in cols else {}
                for k in range(self._blocks[0][2])]

    def finish(self) -> LinearMap:
        """The compiled map, holding the fused dict as it is; no step
        changes a block's columns in place, so the pipeline may go on
        without touching the map."""
        return LinearMap._from_columns(
            self.field, tensor_space_list(self.domain_legs),
            tensor_space_list(self.legs), self._fuse_all())


# The terms build on the Pipeline above; imported last so that either
# module may be imported first.
from . import sweedler  # noqa: E402
