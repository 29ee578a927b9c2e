"""Generator-certified sweeps: a passing Hom-associativity or Delta
multiplicative may be proved on the generators ``HomAlgebra.generators``
holds.  The generators' right-nested words are re-checked here by nested
loops from the structure constants, with no Pipeline, and every report of
``check_hom_bialgebra`` is compared with the full sweep's."""

import json
import sys
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from homhopf import homcore
from homhopf.corpus import (
    classical_sweedler_h4,
    cyclic_group_hopf,
    cyclic_inversion_map,
    dual_numbers_algebra,
    dual_numbers_coalgebra,
    sweedler_sign_map,
)
from homhopf.exactlin import LinearMap, Space, compose
from homhopf.fields import QQ, PrimeField
from homhopf.homcore import (
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    check_hom_algebra,
    check_hom_bialgebra,
    yau_twist,
)
from homhopf.sweedler import holds, inputs, split

BENCH = str(Path(__file__).resolve().parent.parent / "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)
import taft  # noqa: E402

FIELDS = {"Q": QQ, "GF(7)": PrimeField(7),
          "GF(2147483647)": PrimeField(2147483647)}


# ---------------------------------------------------------------------------
# The records: corpus and Taft Hopf algebras, their Yau twists, the dual
# numbers, and a twisted semigroup algebra.


def taft_rung(n, p, twist=3):
    """T_n over GF(p), n prime, as ``taft.make_rung`` lays it out: zeta is
    the first power r^((p - 1) / n) other than 1."""
    zeta = next(z for r in range(2, p) if (z := pow(r, (p - 1) // n, p)) != 1)
    dim = n * n
    mult = taft.mult_table(n, p, zeta)
    return {"n": n, "p": p, "mult": mult,
            "comult": taft.comult_table(n, p, mult),
            "unit": [1] + [0] * (dim - 1),
            "counit": [int(i % n == 0) for i in range(dim)],
            "antipode": taft.closed_form_antipode(n, p, mult),
            "twist": taft.twist_matrix(n, p, twist)}


def idempotent_twist(field):
    """The semigroup {0, s1, s2}: a zero element 0 and two idempotents with
    s1 s2 = s2 s1 = 0, twisted by its automorphism alpha swapping s1, s2:
    m = alpha o m', so m(s1, s1) = s2.  Under m the words of {0, s1}
    already span; under m' they do not, and the generators are {s1, s2}.
    Delta is group-like."""
    sp = Space(("0", "s1", "s2"))
    table = [[0, 0, 0], [0, 1, 0], [0, 0, 2]]
    swap = [0, 2, 1]
    mult = [[[int(k == swap[table[i][j]]) for k in range(3)]
             for j in range(3)] for i in range(3)]
    alpha = LinearMap(field, sp, sp, [[int(swap[j] == i) for j in range(3)]
                                      for i in range(3)])
    comult = [[[int(i == j == k) for k in range(3)] for j in range(3)]
              for i in range(3)]
    return HomBialgebra(HomAlgebra(field, sp, mult, [0, 1, 1], alpha),
                        HomCoalgebra(field, sp, comult, [1, 1, 1], alpha))


def dual_numbers(field):
    """k[y]/(y^2): no proper subset of the basis generates it."""
    return HomBialgebra(dual_numbers_algebra(field),
                        dual_numbers_coalgebra(field))


@cache
def base(name, fname):
    """A named bialgebra over the field called ``fname``."""
    field = FIELDS[fname]
    if name == "h4":
        return classical_sweedler_h4(field).bialgebra
    if name == "h4_twist":
        h = classical_sweedler_h4(field)
        return yau_twist(h, sweedler_sign_map(field)).bialgebra
    if name.startswith("c") and name[1:].isdigit():
        return cyclic_group_hopf(int(name[1:]), field).bialgebra
    if name in ("c3_twist", "c4_twist"):
        n = int(name[1])
        return yau_twist(cyclic_group_hopf(n, field),
                         cyclic_inversion_map(n, field)).bialgebra
    if name in ("t3", "t3_twist"):
        rung = taft_rung(3, field.characteristic)
        h = taft.hopf_from_rung(rung)
        return (yau_twist(h, taft.twist_map(rung)) if name == "t3_twist"
                else h).bialgebra
    if name == "dual_numbers":
        return dual_numbers(field)
    assert name == "idempotent_twist"
    return idempotent_twist(field)


BASES = {"Q": ["h4", "h4_twist", "c2", "c3", "c4", "c4_twist",
               "dual_numbers", "idempotent_twist"]}
BASES["GF(7)"] = BASES["GF(2147483647)"] = BASES["Q"] + ["t3", "t3_twist"]


def rebuilt(b, mult=None, comult=None, alpha=None):
    """A fresh copy of the bialgebra b, with the given constants replaced."""
    a, c = b.algebra, b.coalgebra
    alpha = a.alpha if alpha is None else alpha
    return HomBialgebra(
        HomAlgebra(b.field, b.space, a.mult if mult is None else mult, a.unit,
                   alpha),
        HomCoalgebra(b.field, b.space, c.comult if comult is None else comult,
                     c.counit, alpha))


def diagonal(b, scales):
    d = b.space.dim
    return LinearMap(b.field, b.space, b.space,
                     [[scales[i] if i == j else 0 for j in range(d)]
                      for i in range(d)])


def bumped(cube, site, delta):
    out = [[list(plane) for plane in slab] for slab in cube]
    i, j, k = site
    out[i][j][k] = out[i][j][k] + delta
    return out


def full_sweep(b):
    """``check_hom_bialgebra`` of a fresh copy of b whose generating set is
    the whole basis, so that every sweep runs over all basis tuples."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homcore, "generating_set",
                      lambda mult: list(range(mult.codomain.dim)))
        return check_hom_bialgebra(rebuilt(b))


def dumped(report):
    return json.dumps(report.as_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# The certificate, re-checked on its own.


def span_rank(field, vectors) -> int:
    """The rank of dense coordinate vectors, by elimination against the
    rows kept so far."""
    kept = {}
    for v in vectors:
        v = list(v)
        for c, row in kept.items():
            if v[c]:
                f = v[c]
                v = [a - f * b for a, b in zip(v, row)]
        c = next((c for c, a in enumerate(v) if a), None)
        if c is not None:
            kept[c] = [a / v[c] for a in v]
            for r, row in kept.items():
                if r != c and row[c]:
                    f = row[c]
                    kept[r] = [a - f * b for a, b in zip(row, kept[c])]
    return len(kept)


def word_rank(a) -> int:
    """The rank of the right-nested words g(g'(...)) in a's generators
    under m' = alpha^{-1} o m, from the cube by nested loops: words of
    length L + 1 are g times the words of length L, for L up to dim A."""
    field, d = a.field, a.space.dim
    zero, one = field.zero, field.one
    alpha, inv = a.alpha.matrix, a.alpha_inv.matrix
    assert [[sum((inv[i][k] * alpha[k][j] for k in range(d)), zero)
             for j in range(d)] for i in range(d)] == \
        [[one if i == j else zero for j in range(d)] for i in range(d)]
    cube = a.mult
    untwisted = [[[sum((inv[k][l] * cube[i][j][l] for l in range(d)), zero)
                   for k in range(d)] for j in range(d)] for i in range(d)]
    inc = a.generators.matrix
    gens = [next(i for i in range(d) if inc[i][t])
            for t in range(a.generators.domain.dim)]
    assert [[inc[i][t] for i in range(d)] for t in range(len(gens))] == \
        [[one if i == g else zero for i in range(d)] for g in gens]
    words = [[one if i == g else zero for i in range(d)] for g in gens]
    every = list(words)
    for _ in range(d):
        words = [[sum((w[j] * untwisted[g][j][k] for j in range(d)), zero)
                  for k in range(d)] for g in gens for w in words]
        every += words
        if span_rank(field, every) == d:
            break
    return span_rank(field, every)


CERTIFIED = [(fname, name) for fname in FIELDS for name in BASES[fname]]


@pytest.mark.parametrize("fname, name", CERTIFIED)
def test_the_generators_words_span_the_algebra(fname, name):
    a = base(name, fname).algebra
    assert word_rank(a) == a.space.dim


def test_the_ladder_generators_words_span_the_algebra():
    """The benchmark's Taft rungs, their Yau twists and their unit-row
    mutants are generated by x and g."""
    for rung in taft.make_ladder(5):
        h = taft.hopf_from_rung(rung)
        for a in (h.algebra, yau_twist(h, taft.twist_map(rung)).algebra,
                  taft.mutated_hopf(rung).algebra):
            assert a.generators.domain.names == ("g0x1", "g1x0")
            assert word_rank(a) == a.space.dim


def test_the_generators_are_searched_under_the_untwisted_product():
    """Under m = alpha o m' the words of {0, s1} span, as m(s1, s1) = s2;
    under m' they do not, and the generators are s1 and s2, whose m'
    product is the zero element 0."""
    b = idempotent_twist(QQ)
    assert b.algebra.generators.domain.names == ("s1", "s2")
    assert check_hom_bialgebra(b).find("hom_associativity").passed


def test_the_dual_numbers_need_every_basis_vector():
    for field in FIELDS.values():
        a = dual_numbers_algebra(field)
        assert a.generators.domain.names == a.space.names


# ---------------------------------------------------------------------------
# The differential test: the reduced verdicts and reports against the full
# sweep's.


@st.composite
def records(draw):
    """A base record over Q, GF(7) or GF(2147483647); as it is, with one
    structure constant bumped, or with alpha replaced by an invertible
    diagonal map, which is multiplicative only by chance, and then m by
    alpha o m or not."""
    fname = draw(st.sampled_from(sorted(FIELDS)))
    field = FIELDS[fname]
    b = base(draw(st.sampled_from(BASES[fname])), fname)
    d = b.space.dim
    kind = draw(st.sampled_from(["as_is", "mult", "mult", "comult", "comult",
                                 "alpha", "alpha_twist"]))
    delta = field.coerce(draw(st.sampled_from([1, -1, 2])))
    site = draw(st.tuples(*[st.integers(0, d - 1)] * 3))
    if kind == "mult":
        return rebuilt(b, mult=bumped(b.algebra.mult, site, delta))
    if kind == "comult":
        return rebuilt(b, comult=bumped(b.coalgebra.comult, site, delta))
    if kind.startswith("alpha"):
        scales = draw(st.lists(st.sampled_from([1, 2, 3, -1]), min_size=d,
                               max_size=d))
        diag = diagonal(b, scales)
        if kind == "alpha_twist":
            return rebuilt(b, mult=compose(diag, b.algebra.mult_map),
                           alpha=diag)
        return rebuilt(b, alpha=diag)
    return rebuilt(b)


@settings(max_examples=80, deadline=None)
@given(b=records())
def test_reduced_sweeps_report_what_the_full_sweeps_report(b):
    assert dumped(check_hom_bialgebra(b)) == dumped(full_sweep(b))
    assert dumped(check_hom_algebra(rebuilt(b).algebra)) == \
        dumped(full_sweep(b).sub("hom_algebra"))


def delta_holds_on_generators(b) -> bool:
    """Whether Delta(m(g, y)) = Delta(g) Delta(y) for every generator g of
    b and every basis vector y: the reduced check, stated here alone."""
    field, sp, inc = b.field, b.space, b.algebra.generators
    m, d = b.algebra.mult_map, b.coalgebra.comult_map
    g, y = inputs(inc.domain, sp)
    (g1, g2), (y1, y2) = split(compose(d, inc), g, sp, sp), split(d, y)
    return holds(field, "on_generators", (g, y),
                 [d(m(inc(g), y))], [m(g1, y1), m(g2, y2)]).passed


@pytest.mark.parametrize("fname", sorted(FIELDS))
@pytest.mark.parametrize("name, site", [
    ("h4", (2, 2, 2)), ("h4", (3, 0, 0)), ("c4", (0, 0, 0))])
def test_delta_is_swept_in_full_when_associativity_fails(fname, name, site):
    """These mutants break Hom-associativity, and Delta fails to be
    multiplicative only off their generators.  So Delta(m(g, y)) =
    Delta(g) Delta(y) holds on the generators, and without the
    associativity premise comult_multiplicative would pass."""
    b = base(name, fname)
    mutant = rebuilt(b, mult=bumped(b.algebra.mult, site, b.field.one))
    report = check_hom_bialgebra(mutant)
    assert mutant.algebra.generators.domain.dim < mutant.space.dim
    assert delta_holds_on_generators(mutant)
    assert report.find("alpha_multiplicative").passed
    assert report.find("gamma_comultiplicative").passed
    assert not report.find("hom_associativity").passed
    assert not report.find("comult_multiplicative").passed
    assert dumped(report) == dumped(full_sweep(mutant))


@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_associativity_is_swept_in_full_when_alpha_is_not_multiplicative(
        fname):
    """m = alpha o m_H4 for alpha scaling x by 2: m' is H4's associative
    product, so the reduced check would pass, but alpha is not
    multiplicative and m is not Hom-associative."""
    b = base("h4", fname)
    alpha = diagonal(b, [1, 1, 2, 1])
    twisted = rebuilt(b, mult=compose(alpha, b.algebra.mult_map), alpha=alpha)
    report = check_hom_algebra(twisted.algebra)
    assert not report.find("alpha_multiplicative").passed
    assert not report.find("hom_associativity").passed
    assert dumped(report) == dumped(full_sweep(twisted).sub("hom_algebra"))


@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_dropping_a_generator_would_pass_a_broken_product(fname):
    """With x alone, the unit-row mutant of H4 would pass the reduced
    associativity check; with g and x it fails, and the full sweep names
    the witness."""
    b = base("h4", fname)
    mutant = rebuilt(b, mult=bumped(b.algebra.mult, (0, 0, 0), b.field.one))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homcore, "generating_set", lambda mult: [2])
        fooled = check_hom_algebra(rebuilt(mutant).algebra)
    assert fooled.find("hom_associativity").passed
    report = check_hom_algebra(mutant.algebra)
    assert mutant.algebra.generators.domain.names == ("g", "x")
    assert not report.find("hom_associativity").passed
    assert dumped(report) == dumped(full_sweep(mutant).sub("hom_algebra"))


# ---------------------------------------------------------------------------
# The fallback sweeps, run by run: a failing Hom-associativity or Delta
# multiplicative is swept over the runs [0, 1), [1, 3), [3, 7), ... of its
# first leg up to the first failing run, and reports what one run over the
# whole leg reports.

RUN_BASES = ["h4", "h4_twist", "c3", "c3_twist", "c4", "c4_twist"]


def one_run(b):
    """``check_hom_bialgebra`` of a fresh copy of b whose fallback sweeps
    take the whole first leg as one run."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homcore, "_runs", lambda d, whole: [(0, d)])
        return check_hom_bialgebra(rebuilt(b))


@st.composite
def run_records(draw):
    """The kind of change and the changed record.  The record is H4, C_3,
    C_4, over GF(p) also T_3, or a Yau twist of one, over Q, GF(7) or
    GF(2147483647).  A product e_i e_j or a coproduct Delta(e_i) is
    bumped, e_i the first, a middle or the last basis vector; or alpha
    scales the unit by 2, so it is not multiplicative, while m and Delta
    stay a Hom-bialgebra's and Delta multiplicative passes on every run."""
    fname = draw(st.sampled_from(sorted(FIELDS)))
    field = FIELDS[fname]
    names = RUN_BASES + (["t3", "t3_twist"] if field.characteristic else [])
    b = base(draw(st.sampled_from(names)), fname)
    d = b.space.dim
    kind = draw(st.sampled_from(["mult", "comult", "alpha"]))
    if kind == "alpha":
        scales = draw(st.lists(st.sampled_from([1, 2, 3, -1]),
                               min_size=d - 1, max_size=d - 1))
        return kind, rebuilt(b, alpha=diagonal(b, [2, *scales]))
    site = (draw(st.sampled_from([0, d // 2, d - 1])),
            draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1)))
    delta = field.coerce(draw(st.sampled_from([1, -1, 2])))
    cube = b.algebra.mult if kind == "mult" else b.coalgebra.comult
    return kind, rebuilt(b, **{kind: bumped(cube, site, delta)})


@settings(max_examples=120, deadline=None)
@given(drawn=run_records())
def test_swept_runs_report_what_one_run_reports(drawn):
    kind, b = drawn
    forced = one_run(b)
    report = check_hom_bialgebra(b)
    assert dumped(report) == dumped(forced)
    assert dumped(check_hom_algebra(rebuilt(b).algebra)) == \
        dumped(forced.sub("hom_algebra"))
    if kind == "alpha":
        assert not report.find("alpha_multiplicative").passed
        assert report.find("comult_multiplicative").passed


RUN_WITNESSES = [
    (fname, *case) for fname in sorted(FIELDS) for case in [
        ("c4", (0, 0, 0), "hom_associativity", 0),
        ("c4", (1, 0, 0), "comult_multiplicative", 1),
        ("c4", (3, 0, 0), "comult_multiplicative", 3),
        ("t3", (5, 0, 0), "comult_multiplicative", 5),
        ("t3", (8, 0, 0), "comult_multiplicative", 8)]
    if fname != "Q" or case[0] != "t3"]


@pytest.mark.parametrize("fname, name, site, law, at", RUN_WITNESSES)
def test_the_first_failing_run_names_the_witness(fname, name, site, law,
                                                  at):
    """Unit-row mutants of C_4 and T_3 whose first failing tuple starts
    with the first basis vector (run [0, 1)), a middle one (runs [1, 3)
    and [3, 7)) or the last: of C_4 in the partial run [3, 4) and of T_3
    in [7, 9), both cut at the dimension."""
    b = base(name, fname)
    mutant = rebuilt(b, mult=bumped(b.algebra.mult, site, b.field.one))
    report = check_hom_bialgebra(mutant)
    assert report.find(law).witness.basis[0] == b.space.names[at]
    assert dumped(report) == dumped(one_run(mutant))
