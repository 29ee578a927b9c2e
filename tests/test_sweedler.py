"""The Sweedler-term compiler: a differential oracle against a nested-loop
evaluation of the same formula, misuse refused before any step, the step
lists of the hot checks pinned, and no other Pipeline driver in the
library."""

import ast
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import homhopf
from homhopf.corpus import corpus_entries, sweedler_h4_hom
from homhopf.exactlin import (
    DimensionMismatch,
    LinearMap,
    Pipeline,
    Space,
    tensor_space,
    tensor_space_list,
)
from homhopf.fields import QQ, PrimeField
from homhopf.homcore import (
    HomAlgebra,
    HomBialgebra,
    check_antipode,
    check_hom_bialgebra,
)
from homhopf.sweedler import compile_map, const, holds, inputs, split

GF7 = PrimeField(7)
SPACES = {1: Space(("p",)), 2: Space(("q0", "q1")),
          3: Space(("r0", "r1", "r2"))}
SCALARS = st.sampled_from([0, 0, 1, -1, 2, 3])


# ---------------------------------------------------------------------------
# The oracle.  A random formula is drawn as terms and, alongside, as a plain
# tree the test evaluates itself: ("leg", key, dim) for an input (key k) or
# a split half (key (split number, side)), ("map", rows, children) or
# ("const", coords).


@st.composite
def dense_rows(draw, field, rows, cols):
    return [[field.coerce(v) for v in draw(
        st.lists(SCALARS, min_size=cols, max_size=cols))] for _ in range(rows)]


@st.composite
def formula(draw, field):
    """Inputs, output terms, their trees, and the splits as (rows, source
    tree, dim of the right half), in the order they were made."""
    ins = inputs(*(SPACES[draw(st.integers(1, 3))]
                   for _ in range(draw(st.integers(2, 3)))))
    pool = [(t, ("leg", k, t.space.dim)) for k, t in enumerate(ins)]
    splits = []

    def take(n):
        picked = draw(st.permutations(range(len(pool))))[:n]
        out = [pool[i] for i in picked]
        pool[:] = [p for i, p in enumerate(pool) if i not in picked]
        return out

    ops = st.sampled_from(["split", "split", "map", "merge", "merge", "const"])
    for op in draw(st.lists(ops, min_size=3, max_size=7)):
        if op == "split" and len(splits) < 3:
            (t, tree), = take(1)
            left, right = (SPACES[draw(st.integers(1, 2))] for _ in range(2))
            rows = draw(dense_rows(field, left.dim * right.dim, t.space.dim))
            f = LinearMap(field, t.space, tensor_space(left, right), rows)
            n = len(splits)
            splits.append((rows, tree, right.dim))
            pool += [(half, ("leg", (n, side), half.space.dim))
                     for side, half in enumerate(split(f, t, left, right))]
        elif op in ("map", "merge"):
            args = take(1 if op == "map" or len(pool) < 2 else
                        draw(st.integers(2, min(3, len(pool)))))
            domain = tensor_space_list([t.space for t, _ in args])
            out = SPACES[draw(st.integers(1, 3))]
            rows = draw(dense_rows(field, out.dim, domain.dim))
            f = LinearMap(field, domain, out, rows)
            pool.append((f(*(t for t, _ in args)),
                         ("map", rows, [tree for _, tree in args])))
        elif op == "const":
            space = SPACES[draw(st.integers(1, 3))]
            coords = [field.coerce(v) for v in draw(
                st.lists(SCALARS, min_size=space.dim, max_size=space.dim))]
            pool.append((const(space, coords), ("const", coords)))
    outs = take(len(pool))
    return ins, [t for t, _ in outs], [tree for _, tree in outs], splits


def kron(field, vectors):
    out = [field.one]
    for v in vectors:
        out = [a * b for a in out for b in v]
    return out


def matvec(field, rows, v):
    return [sum((r * x for r, x in zip(row, v)), field.zero) for row in rows]


def reference_columns(field, ins, trees, splits, codim):
    """The formula's columns by nested loops: for each basis tuple of the
    inputs, sum over the basis vectors every split half can take, each
    weighted by its split image's coordinate there."""

    def value(tree, at):
        if tree[0] == "const":
            return tree[1]
        if tree[0] == "map":
            return matvec(field, tree[1],
                          kron(field, [value(c, at) for c in tree[2]]))
        _, key, dim = tree
        return [field.one if i == at[key] else field.zero for i in range(dim)]

    def worlds(n, at, weight):
        if n == len(splits):
            yield weight
            return
        rows, source, right = splits[n]
        for k, c in enumerate(matvec(field, rows, value(source, at))):
            if c:
                at[(n, 0)], at[(n, 1)] = divmod(k, right)
                yield from worlds(n + 1, at, weight * c)

    columns = []
    for basis in itertools.product(*(range(t.space.dim) for t in ins)):
        at = dict(enumerate(basis))
        total = [field.zero] * codim
        for weight in worlds(0, at, field.one):
            out = kron(field, [value(t, at) for t in trees])
            total = [a + weight * b for a, b in zip(total, out)]
        columns.append(total)
    return columns


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_compiled_formula_matches_nested_loop_evaluation(data):
    field = data.draw(st.sampled_from([QQ, GF7]))
    ins, outs, trees, splits = data.draw(formula(field))
    compiled = compile_map(field, ins, outs)
    assert compiled.domain == tensor_space_list([t.space for t in ins])
    assert compiled.codomain == tensor_space_list([t.space for t in outs])
    assert [list(compiled.column(j)) for j in range(compiled.domain.dim)] \
        == reference_columns(field, ins, trees, splits, compiled.codomain.dim)


# ---------------------------------------------------------------------------
# Misuse is refused before the Pipeline takes any step.

def record_steps(monkeypatch):
    """Wrap the Pipeline so that each instance appends its steps, as
    (kind, leg positions), to a list of its own; returns those lists."""
    chains = []
    init = Pipeline.__init__

    def started(self, field, legs):
        chains.append([])
        self._recorded = chains[-1]
        init(self, field, legs)

    monkeypatch.setattr(Pipeline, "__init__", started)
    for kind, npos in (("map_leg", 1), ("split_leg", 1), ("merge_legs", 2),
                       ("permute", 1), ("adjoin_vector", 1)):
        def step(self, *args, kind=kind, npos=npos, real=getattr(Pipeline, kind)):
            self._recorded.append((kind, *args[:npos]))
            return real(self, *args)
        monkeypatch.setattr(Pipeline, kind, step)
    return chains


def reads_a_leg_twice(m, d, x, y):
    return (x, y), [m(x, x), y]


def leaves_an_input_unread(m, d, x, y):
    return (x, y), [x]


def leaves_a_split_half_unread(m, d, x, y):
    x1, _ = split(d, x)
    return (x, y), [x1, y]


def reads_a_half_and_its_source(m, d, x, y):
    x1, x2 = split(d, x)
    return (x, y), [m(x1, x), x2, y]


def maps_off_its_domain(m, d, x, y):
    return (x, y), [m(x), y]


@pytest.mark.parametrize("misuse", [
    reads_a_leg_twice, leaves_an_input_unread, leaves_a_split_half_unread,
    reads_a_half_and_its_source, maps_off_its_domain])
def test_misused_terms_raise_before_any_step(monkeypatch, misuse):
    h = sweedler_h4_hom()
    chains = record_steps(monkeypatch)
    x, y = inputs(h.space, h.space)
    with pytest.raises(ValueError):
        compile_map(h.field, *misuse(h.algebra.mult_map,
                                     h.coalgebra.comult_map, x, y))
    assert chains == []


def test_a_map_off_its_domain_is_a_dimension_mismatch():
    h = sweedler_h4_hom()
    x, y = inputs(h.space, h.space)
    m, d = h.algebra.mult_map, h.coalgebra.comult_map
    for outs in ([m(x), y], [d(x, y)], [m(), x, y]):
        with pytest.raises(DimensionMismatch):
            compile_map(h.field, (x, y), outs)
    for build in (lambda: split(m, x), lambda: const(h.space, [1])):
        with pytest.raises(DimensionMismatch):
            build()


def test_holds_refuses_a_map_side_off_its_inputs_before_any_step(monkeypatch):
    """A map side of ``holds`` goes out of the tensor of the input legs, as
    a compiled side does.  One out of a single leg, or out of a space of
    the right size with other basis names, is refused on either side
    before the other side is compiled."""
    h = sweedler_h4_hom()
    chains = record_steps(monkeypatch)
    x, y = inputs(h.space, h.space)
    m = h.algebra.mult_map
    renamed = LinearMap(h.field, Space(tuple(f"e{i}" for i in range(16))),
                        h.space, m.matrix)
    for side in (h.alpha, renamed):
        for lhs, rhs in (([m(x, y)], side), (side, [m(x, y)])):
            with pytest.raises(DimensionMismatch):
                holds(h.field, "off_the_inputs", (x, y), lhs, rhs)
    assert chains == []
    assert holds(h.field, "on_the_inputs", (x, y), [m(x, y)], m).passed
    assert len(chains) == 1


# ---------------------------------------------------------------------------
# The hot checks of the GF(p) ladder keep the steps they were hand-written
# with: Hom-associativity, Hom-coassociativity, Delta multiplicative and the
# convolutions of the antipode law.  A passing Hom-associativity and Delta
# multiplicative are the reduced checks over the generators; a record that
# fails them, or their premises, takes the full sweeps.

ASSOCIATIVITY = [[("map_leg", 0), ("merge_legs", 1, 2), ("merge_legs", 0, 2)],
                 [("merge_legs", 0, 2), ("map_leg", 1), ("merge_legs", 0, 2)]]
REDUCED_ASSOCIATIVITY = [[("merge_legs", 1, 2), ("merge_legs", 0, 2)],
                         [("merge_legs", 0, 2), ("merge_legs", 0, 2)]]
ALPHA_MULTIPLICATIVE = [("map_leg", 0), ("map_leg", 1), ("merge_legs", 0, 2)]
UNIT_LAWS = [[("adjoin_vector", 1), ("merge_legs", 0, 2)],
             [("adjoin_vector", 0), ("merge_legs", 0, 2)]]
COASSOCIATIVITY = [[("split_leg", 0), ("split_leg", 1), ("map_leg", 2)],
                   [("split_leg", 0), ("split_leg", 0), ("map_leg", 0)]]
COALGEBRA_REST = [[("split_leg", 0), ("map_leg", 0), ("map_leg", 1)],
                  [("split_leg", 0), ("map_leg", 1)],
                  [("split_leg", 0), ("map_leg", 0)]]
COMULT_MULTIPLICATIVE = [("split_leg", 0), ("split_leg", 2),
                         ("permute", [0, 2, 1, 3]), ("merge_legs", 0, 2),
                         ("merge_legs", 1, 2)]
CONVOLUTION = [("split_leg", 0), ("map_leg", 0), ("map_leg", 1),
               ("merge_legs", 0, 2)]


def unit_row_mutant(h):
    """h's bialgebra with 1 added to the coefficient of g in 1 g: the unit
    law and Hom-associativity break, alpha stays multiplicative."""
    field, sp = h.field, h.space
    cube = [[list(plane) for plane in slab] for slab in h.algebra.mult]
    cube[0][1][1] += field.one
    return HomBialgebra(HomAlgebra(field, sp, cube, h.algebra.unit, h.alpha),
                        h.coalgebra)


def test_hot_checks_emit_the_hand_written_steps(monkeypatch):
    h = sweedler_h4_hom(GF7)
    chains = record_steps(monkeypatch)
    assert check_hom_bialgebra(h.bialgebra).passed
    assert chains == [
        ALPHA_MULTIPLICATIVE, *REDUCED_ASSOCIATIVITY, *UNIT_LAWS,
        *COASSOCIATIVITY, *COALGEBRA_REST, COMULT_MULTIPLICATIVE,
    ]
    chains.clear()
    assert check_antipode(h).passed
    assert chains == [CONVOLUTION, CONVOLUTION]
    chains.clear()
    report = check_hom_bialgebra(unit_row_mutant(h))
    assert not report.find("hom_associativity").passed
    assert chains == [
        ALPHA_MULTIPLICATIVE, *REDUCED_ASSOCIATIVITY, *ASSOCIATIVITY,
        *UNIT_LAWS, *COASSOCIATIVITY, *COALGEBRA_REST, COMULT_MULTIPLICATIVE,
    ]


def test_the_generators_enter_as_the_middle_leg(monkeypatch):
    """The reduced checks start from the legs (A, G, A) for
    Hom-associativity and (G, A) for Delta multiplicative, G the span of
    the generators g and x of H4."""
    h = sweedler_h4_hom(GF7)
    legs = []
    init = Pipeline.__init__

    def started(self, field, spaces):
        legs.append([s.names for s in spaces])
        init(self, field, spaces)

    monkeypatch.setattr(Pipeline, "__init__", started)
    assert check_hom_bialgebra(h.bialgebra).passed
    a, g = h.space.names, ("g", "x")
    assert legs[1:3] == [[a, g, a]] * 2
    assert legs[-1] == [g, a]


@pytest.mark.parametrize("check, held_then", [
    ("cocycle_inverse_identities", 1844), ("cocycle_conditions", 1496)])
def test_maps_on_leaves_go_before_the_leaf_permute(held_nonzeros, check,
                                                   held_then):
    """Two example-2.4 checks (n = 1) hold 1,844 and 1,496 nonzeros in
    their Pipeline blocks, summed over their steps, with the cocycle
    inverse solved outside the count.  Applying the structure-map powers
    after the leaf permute, to every copy the permute makes, held 2,930
    and 2,180."""
    entry = next(e for e in corpus_entries() if e.name == "example24_n1")
    entry.checks["cocycle_inverse_roundtrip"]()
    report, held = held_nonzeros(entry.checks[check])
    assert report.passed
    assert held == held_then


# ---------------------------------------------------------------------------
# One compiler: the Sweedler terms are the only formulas that drive a
# Pipeline.

def test_only_the_term_compiler_names_the_pipeline():
    """Only ``exactlin`` (which defines it) and ``sweedler`` (which drives
    it) name ``Pipeline`` in their code; ``__init__`` exports it by a
    string."""
    naming = {path.stem for path in Path(homhopf.__file__).parent.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if "Pipeline" in (getattr(node, "id", None),
                                getattr(node, "attr", None),
                                getattr(node, "name", None))}
    assert naming == {"exactlin", "sweedler"}


def test_every_formula_side_is_compared_by_holds():
    """No ``equal_on_basis`` call outside ``sweedler`` takes a
    ``compile_map(...)`` side, nor one built from it (a formula composed
    with a map): a formula is compared by ``holds``, which names the
    witness over the formula's own input legs."""
    def called(node):
        return isinstance(node, ast.Call) and getattr(
            node.func, "id", getattr(node.func, "attr", None))

    by_hand = {(path.stem, getattr(node.args[0], "value", None))
               for path in Path(homhopf.__file__).parent.glob("*.py")
               if path.stem != "sweedler"
               for node in ast.walk(ast.parse(path.read_text()))
               if called(node) == "equal_on_basis"
               and any(called(n) == "compile_map"
                       for a in node.args for n in ast.walk(a))}
    assert by_hand == set()
