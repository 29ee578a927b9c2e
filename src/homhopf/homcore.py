"""Hom-algebras, Hom-coalgebras, Hom-bialgebras, Hom-Hopf algebras as
structure-constant bundles, and exhaustive basis-level checkers for their
twisted axioms.

A Hom-algebra is an algebra whose associativity and unit laws carry a fixed
automorphism alpha:

    alpha(a)(bc) = (ab)alpha(c),   alpha(ab) = alpha(a)alpha(b),
    a 1 = 1 a = alpha(a),          alpha(1) = 1,

and dually for coalgebras with an automorphism gamma:

    c1 (x) c21 (x) gamma(c22) = gamma(c11) (x) c12 (x) c2    (coassociativity,
        checked in this expanded three-tensor form so both sides share one
        basis ordering),
    Delta(gamma(c)) = gamma(c1) (x) gamma(c2),
    c1 eps(c2) = gamma^{-1}(c) = eps(c1) c2,   eps(gamma(c)) = eps(c).

Structures only guarantee shapes (and invertibility of the structure map,
checked eagerly); the axioms are verified on demand by the check_* functions,
since representing broken structures and reporting exactly where they break
is the whole point.  Every axiom is multilinear, so passing on all basis
tuples implies the identity on the whole space.

Convolution of f, g: C -> A is m_A o (f (x) g) o Delta_C.  For bilinear maps
out of H (x) H, the coalgebra used is the componentwise tensor coalgebra
(Delta interleaved with the middle flip, structure map alpha (x) alpha).
Every antipode law that says "s is a two-sided convolution inverse of f" is
swept by ``inverse_laws``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .exactlin import (
    DimensionMismatch,
    FieldMismatch,
    LinearMap,
    NonInvertibleError,
    SCALAR_SPACE,
    Space,
    _gauss_jordan,
    _residues,
    bilinear_as_map,
    compose,
    equal_on_basis,
    functional_as_map,
    identity,
    inverse,
    splitting_as_map,
    tensor_from_bilinear,
    tensor_from_splitting,
    tensor_space,
    vector_as_map,
)
from .report import CheckReport
from .sweedler import compile_map, const, holds, inputs, split


class NotAutomorphism(ValueError):
    """A map required to be a (bi)algebra automorphism is not one."""

    def __init__(self, message, report: CheckReport | None = None):
        super().__init__(message)
        self.report = report


class TwistFailsAxiomsError(ValueError):
    """A twisted structure failed its own axiom suite (carries the report)."""

    def __init__(self, report: CheckReport):
        super().__init__(f"twisted structure fails axioms: {report.first_failure().name}")
        self.report = report


class StructureConstants:
    """The data descriptor behind a record's structure constants: the field
    ``mult`` of ``HomAlgebra``, ``comult`` of ``HomCoalgebra``, ``act`` of
    ``ModuleAction``, ``coact`` of ``Coaction``, and ``sigma`` and
    ``inverse`` of ``Cocycle``.

    ``spaces(record)`` names three spaces (s1, s2, s3) of the record.  The
    record holds its constants as one packed ``LinearMap``, s1 (x) s2 -> s3
    (bilinear) or s1 -> s2 (x) s3 (``splitting``), under ``<name>_map``.
    Setting the field takes a map, checked against those spaces and the
    record's field, or a cube c[i][j][k] of shape dim s1 x dim s2 x dim s3,
    checked for shape and packed once.  Reading the field gives the cube of
    coerced entries, unpacked from the map on first read and cached.  An
    ``optional`` field may be None, its default, and keeps its map under
    ``_<name>_map`` for the record's own accessor to read."""

    def __init__(self, spaces, splitting: bool = False, optional: bool = False):
        self.spaces, self.splitting, self.optional = spaces, splitting, optional

    def __set_name__(self, owner, name):
        self.name = name
        self.slot = f"_{name}_map" if self.optional else f"{name}_map"

    def __get__(self, record, owner=None):
        if record is None:
            raise AttributeError(self.name)  # a dataclass field, no default
        held = vars(record)
        if self.name not in held:  # the cube, cached under the field's name
            packed = held[self.slot]
            unpack = (tensor_from_splitting if self.splitting
                      else tensor_from_bilinear)
            held[self.name] = None if packed is None else unpack(
                packed, *self.spaces(record))
        return held[self.name]

    def __set__(self, record, value):
        field = record.field
        s1, s2, s3 = self.spaces(record)
        if self.optional and (value is None or value is self):
            packed = None  # ``field(default=<this descriptor>)`` passes itself
        elif isinstance(value, LinearMap):
            domain, codomain = ((s1, tensor_space(s2, s3)) if self.splitting
                                else (tensor_space(s1, s2), s3))
            if value.field != field:
                raise FieldMismatch(
                    f"{self.name}: map over {value.field!r} used with {field!r}")
            if value.domain != domain or value.codomain != codomain:
                raise DimensionMismatch(
                    f"{self.name}: map is not on the record's spaces")
            packed = LinearMap._from_columns(field, domain, codomain,
                                             value.nonzero_columns())
        else:
            d1, d2, d3 = s1.dim, s2.dim, s3.dim
            if (len(value) != d1 or set(map(len, value)) != {d2}
                    or set(map(len, chain.from_iterable(value))) != {d3}):
                raise ValueError(f"rank-3 tensor shape does not match {d1}x{d2}x{d3}")
            pack = splitting_as_map if self.splitting else bilinear_as_map
            packed = pack(field, s1, s2, s3, value)
        vars(record).pop(self.name, None)
        vars(record)[self.slot] = packed


def _carrier(record):
    return (record.space,) * 3


def outer(u, v) -> list:
    """The coordinates of u (x) v, multiplied over the nonzero coordinates
    only; every other coordinate is the int 0."""
    d = len(v)
    right = [(j, b) for j, b in enumerate(v) if b]
    out = [0] * (len(u) * d)
    for i, a in enumerate(u):
        if a:
            for j, b in right:
                out[i * d + j] = a * b
    return out


def _coerce_vector(field, space: Space, vec):
    zero = field.zero
    out = tuple(field.coerce(v) if v else zero for v in vec)
    if len(out) != space.dim:
        raise ValueError("vector length does not match space dimension")
    return out


def _check_structure_map(space: Space, m: LinearMap, what: str) -> LinearMap:
    """The inverse of m; raises ``NonInvertibleError`` if it has none."""
    if m.domain != space or m.codomain != space:
        raise ValueError(f"{what} must be an endomorphism of the carrier space")
    return inverse(m)


def _words_span(mult: LinearMap, gens) -> dict:
    """The span of the right-nested words g(g'(...)) in the basis vectors
    ``gens`` under ``mult``, as {pivot column: row} of its reduced echelon
    basis.  Each round multiplies the rows that brought new pivots by
    every generator on the left, until no pivot is new."""
    d, p = mult.codomain.dim, mult.field.characteristic
    cols, pivots = mult.nonzero_columns(), sorted(gens)
    rows = grown = [{g: 1} for g in pivots]
    while grown and len(pivots) < d:
        new = []
        for g in gens:
            for row in grown:
                acc: dict = {}
                for j, v in row.items():
                    for k, w in cols.get(g * d + j, {}).items():
                        acc[k] = acc.get(k, 0) + w * v
                if word := _residues(acc.items(), p):
                    new.append(word)
        if not new:
            break
        known = set(pivots)
        rows += new
        pivots = _gauss_jordan(rows, d, p)
        del rows[len(pivots):]
        grown = [row for row, c in zip(rows, pivots) if c not in known]
    return dict(zip(pivots, rows))


def generating_set(mult: LinearMap) -> list:
    """Basis indices G, in basis order, whose right-nested words span the
    algebra of ``mult``, at worst all of them.  Greedily, each basis vector
    not yet in the span joins G; then each generator but the last leaves
    it if the others' words span.  A basis vector fixing e_j on the left,
    as a unit does, adds no word from e_j, so the candidates go in
    ascending order of the basis vectors they fix."""
    d, cols = mult.codomain.dim, mult.nonzero_columns()
    fixed = [{j: 1} for j in range(d)]
    gens, span = [], {}
    for i in sorted(range(d), key=lambda i: sum(
            cols.get(i * d + j) == fixed[j] for j in range(d))):
        if span.get(i) != {i: 1}:
            gens.append(i)
            span = _words_span(mult, gens)
    for g in gens[:-1]:
        rest = [h for h in gens if h != g]
        if len(_words_span(mult, rest)) == d:
            gens = rest
    return sorted(gens)


@dataclass(repr=False)
class HomAlgebra:
    """(A, m, 1, alpha): the multiplication, held as the map ``mult_map``:
    A (x) A -> A and read as the cube ``mult``, whose c[i][j][k] is the
    coefficient of e_k in e_i e_j (``StructureConstants``); unit
    coordinates; and an invertible structure map."""

    field: object
    space: Space
    mult: tuple = StructureConstants(_carrier)
    unit: tuple
    alpha: LinearMap

    def __post_init__(self):
        self.unit = _coerce_vector(self.field, self.space, self.unit)
        self.alpha_inv = _check_structure_map(self.space, self.alpha,
                                              "structure map alpha")

    @cached_property
    def unit_map(self) -> LinearMap:
        return vector_as_map(self.field, self.space, self.unit)

    @cached_property
    def untwisted_mult_map(self) -> LinearMap:
        """m' = alpha^{-1} o m, which is m when alpha is the identity."""
        if self.alpha == identity(self.field, self.space):
            return self.mult_map
        return compose(self.alpha_inv, self.mult_map)

    @cached_property
    def generators(self) -> LinearMap:
        """The inclusion of the generators of (A, m'), ``generating_set``."""
        sp, gens = self.space, generating_set(self.untwisted_mult_map)
        return LinearMap._from_columns(
            self.field, sp._cut(gens), sp,
            {t: {g: 1} for t, g in enumerate(gens)})

    def __repr__(self):
        return f"HomAlgebra(dim={self.space.dim})"


@dataclass(repr=False)
class HomCoalgebra:
    """(C, Delta, eps, gamma): the comultiplication, held as the map
    ``comult_map``: C -> C (x) C and read as the cube ``comult``, whose
    d[i][j][k] is the coefficient of e_j (x) e_k in Delta(e_i)
    (``StructureConstants``); counit coordinates; and an invertible
    structure map."""

    field: object
    space: Space
    comult: tuple = StructureConstants(_carrier, splitting=True)
    counit: tuple
    gamma: LinearMap

    def __post_init__(self):
        self.counit = _coerce_vector(self.field, self.space, self.counit)
        self.gamma_inv = _check_structure_map(self.space, self.gamma,
                                              "structure map gamma")

    @cached_property
    def counit_map(self) -> LinearMap:
        return functional_as_map(self.field, self.space, self.counit)

    def __repr__(self):
        return f"HomCoalgebra(dim={self.space.dim})"


@dataclass(repr=False)
class HomBialgebra:
    """Algebra and coalgebra on one space sharing one structure map."""

    algebra: HomAlgebra
    coalgebra: HomCoalgebra

    def __post_init__(self):
        if self.algebra.space != self.coalgebra.space:
            raise ValueError("bialgebra halves live on different spaces")
        if self.algebra.alpha != self.coalgebra.gamma:
            raise ValueError("bialgebra halves carry different structure maps")

    @property
    def field(self):
        return self.algebra.field

    @property
    def space(self) -> Space:
        return self.algebra.space

    @property
    def alpha(self) -> LinearMap:
        return self.algebra.alpha

    @cached_property
    def pair_coalgebra(self) -> HomCoalgebra:
        """The componentwise tensor coalgebra on H (x) H, built once."""
        return tensor_coalgebra(self.coalgebra, self.coalgebra)

    def __repr__(self):
        return f"HomBialgebra(dim={self.space.dim})"


@dataclass(repr=False)
class HomHopf:
    """A Hom-bialgebra with an antipode (convolution inverse of the identity)."""

    bialgebra: HomBialgebra
    antipode: LinearMap

    def __post_init__(self):
        if self.antipode.domain != self.space or self.antipode.codomain != self.space:
            raise ValueError("antipode must be an endomorphism of the carrier")

    @property
    def field(self):
        return self.bialgebra.field

    @property
    def space(self) -> Space:
        return self.bialgebra.space

    @property
    def alpha(self) -> LinearMap:
        return self.bialgebra.alpha

    @property
    def algebra(self) -> HomAlgebra:
        return self.bialgebra.algebra

    @property
    def coalgebra(self) -> HomCoalgebra:
        return self.bialgebra.coalgebra

    def __repr__(self):
        return f"HomHopf(dim={self.space.dim})"


def tensor_algebra(a: HomAlgebra, b: HomAlgebra) -> HomAlgebra:
    """Componentwise algebra on A (x) B with structure map alpha (x) beta."""
    field = a.field
    space = tensor_space(a.space, b.space)
    x, y, u, v = inputs(a.space, b.space, a.space, b.space)
    mult = compile_map(field, (x, y, u, v),
                       [a.mult_map(x, u), b.mult_map(y, v)])
    return HomAlgebra(field, space, mult, outer(a.unit, b.unit),
                      a.alpha @ b.alpha)


def tensor_coalgebra(c: HomCoalgebra, d: HomCoalgebra) -> HomCoalgebra:
    """Componentwise coalgebra on C (x) D with structure map gamma (x) delta."""
    field = c.field
    space = tensor_space(c.space, d.space)
    x, y = inputs(c.space, d.space)
    (x1, x2), (y1, y2) = split(c.comult_map, x), split(d.comult_map, y)
    comult = compile_map(field, (x, y), [x1, y1, x2, y2])
    return HomCoalgebra(field, space, comult, outer(c.counit, d.counit),
                        c.gamma @ d.gamma)


def convolve(f: LinearMap, g: LinearMap, coalg: HomCoalgebra,
             alg: HomAlgebra) -> LinearMap:
    """f * g = m_A o (f (x) g) o Delta_C for f, g: C -> A."""
    csp, asp = coalg.space, alg.space
    if f.domain != csp or g.domain != csp or f.codomain != asp or g.codomain != asp:
        raise ValueError("convolution factors must map the coalgebra into the algebra")
    (c,) = inputs(csp)
    c1, c2 = split(coalg.comult_map, c)
    return compile_map(alg.field, (c,), [alg.mult_map(f(c1), g(c2))])


def convolution_unit(coalg: HomCoalgebra, alg: HomAlgebra) -> LinearMap:
    """The convolution identity element: unit_A o eps_C."""
    return compose(alg.unit_map, coalg.counit_map)


def inverse_laws(s: LinearMap, f: LinearMap, coalg: HomCoalgebra,
                 alg: HomAlgebra, factors, left: str,
                 right: str) -> list[CheckReport]:
    """Sweep the two laws making s a convolution inverse of f: C -> A over
    the basis tuples ``factors`` of C, reported as ``left`` (s * f = 1 eps)
    and ``right`` (f * s = 1 eps)."""
    e = convolution_unit(coalg, alg)
    return [equal_on_basis(left, convolve(s, f, coalg, alg), e, factors),
            equal_on_basis(right, convolve(f, s, coalg, alg), e, factors)]


def morphism_laws(f: LinearMap, source, target, **names) -> list[CheckReport]:
    """Sweep the laws of f: source -> target named by the keywords, each a
    law kind mapped to its report name, and report them in keyword order:

        multiplicative    f(xy) = f(x) f(y)
        unital            f(1) = 1
        comultiplicative  Delta(f(x)) = f(x1) (x) f(x2)
        counital          eps(f(x)) = eps(x)
        structure_compat  f(alpha(x)) = alpha'(f(x))

    Each law is stated over its input legs, which name its witnesses: a
    basis tuple of (source, source) for multiplicative, of the ground field
    k for unital, and of source for the rest.  ``source`` and ``target`` are
    Hom-algebras, Hom-coalgebras or Hom-bialgebras carrying the halves the
    requested laws need."""
    field, sp = source.field, source.space
    u, v = inputs(sp, sp)
    (k,) = inputs(SCALAR_SPACE)

    def algebra(x):
        return getattr(x, "algebra", x)

    def coalgebra(x):
        return getattr(x, "coalgebra", x)

    def structure_map(x):
        return x.gamma if isinstance(x, HomCoalgebra) else x.alpha

    laws = {
        "multiplicative": lambda: (
            (u, v), compose(f, algebra(source).mult_map),
            [algebra(target).mult_map(f(u), f(v))]),
        "unital": lambda: (
            (k,), compose(f, algebra(source).unit_map),
            algebra(target).unit_map),
        "comultiplicative": lambda: (
            (u,), compose(coalgebra(target).comult_map, f),
            [f(half) for half in split(coalgebra(source).comult_map, u)]),
        "counital": lambda: (
            (u,), compose(coalgebra(target).counit_map, f),
            coalgebra(source).counit_map),
        "structure_compat": lambda: (
            (u,), compose(f, structure_map(source)),
            compose(structure_map(target), f)),
    }
    unknown = sorted(set(names) - set(laws))
    if unknown:
        raise ValueError(f"unknown morphism law kinds: {unknown}")
    return [holds(field, name, *laws[kind]()) for kind, name in names.items()]


def _runs(d: int, whole: bool) -> list:
    """The runs [lo, hi) of the basis indices 0..d-1, in order: [0, d)
    alone when ``whole``, else [0, 1), [1, 3), [3, 7), ..., cut at d
    (galloping search; Bentley & Yao, "An almost optimal algorithm for
    unbounded searching", IPL 5, 1976)."""
    runs, lo = [], 0
    while lo < d:
        runs.append((lo, d if whole else min(2 * lo + 1, d)))
        lo = runs[-1][1]
    return runs


def _swept_by_runs(field, sp: Space, whole: bool, sweep) -> CheckReport:
    """The report of ``sweep(inc)``, an identity checked with its first
    leg sp restricted along the inclusion ``inc`` of a run of its basis,
    named as in sp, for the ``_runs`` in order up to the first failing
    one; the pass of the last if none fails.  The first leg is the most
    significant digit of the row-major sweep, so the first failing run
    holds the sweep of sp's first failing tuple and names it alike."""
    for lo, hi in _runs(sp.dim, whole):
        leg = sp if hi - lo == sp.dim else sp._cut(range(lo, hi))
        report = sweep(LinearMap._from_columns(
            field, leg, sp, {t: {lo + t: 1} for t in range(hi - lo)}))
        if not report.passed:
            break
    return report


def check_hom_algebra(a: HomAlgebra) -> CheckReport:
    """Verify twisted associativity, multiplicativity of alpha, the twisted
    unit laws, and alpha(1) = 1.

    Once alpha_multiplicative has passed, Hom-associativity is proved on
    generators.  Write x.y = m'(x, y) = alpha^{-1}(xy).  alpha is
    multiplicative for m' too, so alpha(x)(yz) = alpha^2(x.(y.z)) and
    (xy)alpha(z) = alpha^2((x.y).z): m is Hom-associative on a triple
    exactly when m' is associative on it (Yau, "Hom-algebras and homology",
    J. Lie Theory 19, 2009).  The g with x.(g.z) = (x.g).z for all x, z
    form a subspace closed under m', as x.((g.h).z) = x.(g.(h.z)) =
    (x.g).(h.z) = ((x.g).h).z = (x.(g.h)).z (Light's test; Clifford &
    Preston, The Algebraic Theory of Semigroups I, 1961).  It is all of A
    once it holds the generators G, whose right-nested words span A
    (``HomAlgebra.generators``).  So x.(g.z) = (x.g).z is swept over g in G:
    d^2 |G| columns, not d^3.  If G is the whole basis and the premise
    holds, m is swept on all basis tuples; if not, over the runs [0, 1),
    [1, 3), [3, 7), ... of x up to the first failing one, which holds the
    first failing tuple (``_swept_by_runs``), and only that names a witness."""
    field, sp = a.field, a.space
    m, alpha = a.mult_map, a.alpha

    x, y, z = inputs(sp, sp, sp)
    alpha_mult, alpha_unit = morphism_laws(
        alpha, a, a, multiplicative="alpha_multiplicative",
        unital="alpha_fixes_unit")
    assoc, one = None, identity(field, sp)
    if alpha_mult.passed and a.generators.domain.dim < sp.dim:
        mp, inc = a.untwisted_mult_map, a.generators
        (g,) = inputs(inc.domain)
        gz, xg = compose(mp, inc @ one), compose(mp, one @ inc)
        assoc = holds(field, "hom_associativity", (x, g, z),
                      [mp(x, gz(g, z))], [mp(xg(x, g), z)])
    if assoc is None or not assoc.passed:
        def associativity_on(inc):
            (u,) = inputs(inc.domain)
            au, uy = compose(alpha, inc), compose(m, inc @ one)
            return holds(field, "hom_associativity", (u, y, z),
                         [m(au(u), m(y, z))], [m(uy(u, y), alpha(z))])
        assoc = _swept_by_runs(field, sp, assoc is None and alpha_mult.passed,
                               associativity_on)

    right_unit = holds(field, "right_unit_law", (x,),
                       [m(x, const(sp, a.unit))], alpha)
    left_unit = holds(field, "left_unit_law", (x,),
                      [m(const(sp, a.unit), x)], alpha)

    return CheckReport.combine(
        "hom_algebra", [assoc, alpha_mult, right_unit, left_unit, alpha_unit]
    )


def check_hom_coalgebra(c: HomCoalgebra) -> CheckReport:
    """Verify twisted coassociativity (in its expanded three-tensor form),
    comultiplicativity of gamma, the twisted counit laws, and eps o gamma = eps."""
    field, sp = c.field, c.space
    d, gamma, counit = c.comult_map, c.gamma, c.counit_map

    (x,) = inputs(sp)
    x1, x2 = split(d, x)
    (x11, x12), (x21, x22) = split(d, x1), split(d, x2)
    coassoc = holds(field, "hom_coassociativity", (x,),
                    [x1, x21, gamma(x22)], [gamma(x11), x12, x2])
    gamma_comult, counit_gamma = morphism_laws(
        gamma, c, c, comultiplicative="gamma_comultiplicative",
        counital="counit_gamma_invariant")

    gamma_inv = c.gamma_inv
    right_counit = holds(field, "right_counit_law", (x,),
                         [x1, counit(x2)], gamma_inv)
    left_counit = holds(field, "left_counit_law", (x,),
                        [counit(x1), x2], gamma_inv)

    return CheckReport.combine(
        "hom_coalgebra",
        [coassoc, gamma_comult, right_counit, left_counit, counit_gamma],
    )


def check_hom_bialgebra(b: HomBialgebra) -> CheckReport:
    """Both halves plus: Delta and eps are morphisms of Hom-algebras.

    Once alpha_multiplicative, hom_associativity and gamma_comultiplicative
    have passed, Delta(xy) = Delta(x)Delta(y) is proved on the generators G
    of ``check_hom_algebra``: m' is associative, and so is its componentwise
    product U.V on A (x) A.  As Delta o alpha = (alpha (x) alpha) o Delta,
    with alpha invertible, Delta(gy) = Delta(g)Delta(y) holds exactly when
    Delta(g.y) = Delta(g).Delta(y) does, and the g for which it does for all
    y form a subspace closed under m': Delta((g.h).y) = Delta(g.(h.y)) =
    Delta(g).(Delta(h).Delta(y)) = Delta(g.h).Delta(y).  So it is swept over
    g in G: d |G| columns, not d^2.  Otherwise it is swept over the runs of
    x, as m is in ``check_hom_algebra``, and only that names a witness."""
    field, sp = b.field, b.space
    alg, coa = b.algebra, b.coalgebra
    m, d = alg.mult_map, coa.comult_map

    alg_report = check_hom_algebra(alg)
    coa_report = check_hom_coalgebra(coa)

    (y,) = inputs(sp)
    y1, y2 = split(d, y)
    premises = all(r.sub(name).passed for r, name in (
        (alg_report, "alpha_multiplicative"),
        (alg_report, "hom_associativity"),
        (coa_report, "gamma_comultiplicative")))

    def comult_multiplicative_on(inc):
        (u,) = inputs(inc.domain)
        u1, u2 = split(compose(d, inc), u, sp, sp)
        return holds(field, "comult_multiplicative", (u, y),
                     compose(d, compose(m, inc @ identity(field, sp))),
                     [m(u1, y1), m(u2, y2)])
    comult_mult = None
    if premises and alg.generators.domain.dim < sp.dim:
        comult_mult = comult_multiplicative_on(alg.generators)
    if comult_mult is None or not comult_mult.passed:
        comult_mult = _swept_by_runs(field, sp,
                                     premises and comult_mult is None,
                                     comult_multiplicative_on)

    comult_unit = equal_on_basis(
        "comult_preserves_unit",
        compose(d, alg.unit_map),
        vector_as_map(field, tensor_space(sp, sp), outer(alg.unit, alg.unit)),
        (SCALAR_SPACE,),
    )

    counit_mult = equal_on_basis(
        "counit_multiplicative",
        compose(coa.counit_map, m),
        functional_as_map(field, tensor_space(sp, sp),
                          outer(coa.counit, coa.counit)),
        (sp, sp),
    )
    counit_unit = equal_on_basis(
        "counit_preserves_unit",
        compose(coa.counit_map, alg.unit_map),
        identity(field, SCALAR_SPACE),
        (SCALAR_SPACE,),
    )

    return CheckReport.combine(
        "hom_bialgebra",
        [alg_report, coa_report, comult_mult, comult_unit, counit_mult, counit_unit],
    )


def check_antipode(h: HomHopf) -> CheckReport:
    """S(h1)h2 = eps(h)1 = h1 S(h2) on every basis vector, plus S alpha = alpha S."""
    s = h.antipode
    return CheckReport.combine("hom_antipode", [
        *inverse_laws(s, identity(h.field, h.space), h.coalgebra, h.algebra,
                      (h.space,), "antipode_left", "antipode_right"),
        *morphism_laws(s, h, h, structure_compat="antipode_alpha_commute"),
    ])


def check_bialgebra_automorphism(b: HomBialgebra, phi: LinearMap) -> CheckReport:
    """Is phi an invertible map preserving product, coproduct, unit and counit?"""
    try:
        inverse(phi)
        invertible: CheckReport = CheckReport("invertible", True)
    except NonInvertibleError:
        invertible = CheckReport("invertible", False)
    return CheckReport.combine("bialgebra_automorphism", [
        invertible,
        *morphism_laws(phi, b, b, multiplicative="phi_multiplicative",
                       comultiplicative="phi_comultiplicative",
                       unital="phi_fixes_unit",
                       counital="phi_preserves_counit"),
    ])


def yau_twist(h: HomHopf, phi: LinearMap) -> HomHopf:
    """Twist a classical Hopf algebra (alpha = id) along one of its bialgebra
    automorphisms: new product phi o m, new coproduct (phi^{-1} (x) phi^{-1}) o Delta,
    same unit, counit and antipode, structure map phi.

    The automorphism property is checked up front, and the twisted structure
    is re-verified (bialgebra axioms and antipode law) before it is returned.
    """
    field, sp = h.field, h.space
    if h.alpha != identity(field, sp):
        raise NotAutomorphism("twist input must be classical (structure map = id)")
    auto = check_bialgebra_automorphism(h.bialgebra, phi)
    if not auto.passed:
        raise NotAutomorphism(
            f"twist map fails {auto.first_failure().name}", report=auto
        )

    phi_inv = inverse(phi)
    new_mult = compose(phi, h.algebra.mult_map)
    new_comult = compose(phi_inv @ phi_inv, h.coalgebra.comult_map)

    algebra = HomAlgebra(field, sp, new_mult, h.algebra.unit, phi)
    coalgebra = HomCoalgebra(field, sp, new_comult, h.coalgebra.counit, phi)
    twisted = HomHopf(HomBialgebra(algebra, coalgebra), h.antipode)

    verify = CheckReport.combine("twist_verification", [
        check_hom_bialgebra(twisted.bialgebra),
        check_antipode(twisted),
    ])
    if not verify.passed:
        raise TwistFailsAxiomsError(verify)
    return twisted
