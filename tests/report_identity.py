"""Report-identity harness: dump the ``as_dict()`` of a fixed family of check
reports, so two checkouts can be compared byte for byte.

    PYTHONPATH=src python tests/report_identity.py OUT

writes one line per report (its case label, then its ``as_dict()`` as sorted
JSON) to OUT and prints the number of reports, of failing ones and of
exceptions, and the run time.  Run it in both checkouts and compare the two
files with ``cmp``.  It uses the standard library, ``homhopf`` and the
benchmark's Taft builder; pytest does not collect it.

The family, over Q, GF(7) and GF(2147483647) (the largest modulus
``PrimeField`` accepts, where a missed reduction shows) unless it says
otherwise:

- every check of every corpus entry;
- for each Hopf entry, one-site +1 mutants (``corpus.mutate``) at every third
  site of the multiplication and comultiplication cubes and at (1, 1, 0),
  each under all its checks, and the antipode with each entry bumped by +1
  under ``check_antipode``;
- for each crossed-product and biproduct entry, one-site +1 mutants at every
  seventh site of the action and cocycle cubes and, for a biproduct, of the
  coaction and comultiplication cubes, each under all its checks;
- the Taft rungs of ``bench/taft.make_ladder`` seeds 5 and 7 over their own
  GF(p): the bialgebra and antipode checks of each rung and of its Yau
  twist, and the bialgebra check of its unit-row mutant;
- over Q and GF(7) alone, the canonical mapping systems of
  ``corpus.sweedler_sign_datum`` and ``corpus.classical_radford_datum``
  with one entry of ``retr_C``, ``sect_C``, ``proj_H`` or ``sect_H``
  bumped by +1, at every entry of every third column, each under
  ``check_admissible`` (``system_mutants``).

An exception raised by a check is recorded in place of its report, so a
change in what raises shows in the dump as well.
"""

from __future__ import annotations

import json
import sys
import time
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

FIELDS = ("Q", "GF(7)", "GF(2147483647)")
LADDER_SEEDS = (5, 7)
HOPF_COMPONENTS = ("mult", "comult")
CROSSED_COMPONENTS = ("act", "sigma")
BIPRODUCT_COMPONENTS = ("act", "sigma", "coact", "comult")
SYSTEM_FIELDS = ("Q", "GF(7)")
SYSTEM_MAPS = ("retr_C", "sect_C", "proj_H", "sect_H")


def cube_of(payload, component):
    """The structure-constant cube ``corpus.mutate`` perturbs."""
    from homhopf import BiproductSpec, CrossedProductSpec

    if component == "mult":
        return payload.algebra.mult
    if component == "comult":
        coalgebra = (payload.coalgebra if isinstance(payload, BiproductSpec)
                     else payload.bialgebra.coalgebra)
        return coalgebra.comult
    if component == "coact":
        return payload.coaction.coact
    crossed = payload if isinstance(payload, CrossedProductSpec) \
        else payload.crossed
    return crossed.action.act if component == "act" else crossed.cocycle.sigma


def sites(cube, step, extra=()):
    """Every ``step``-th (i, j, k) of the cube in row-major order, then each
    site of ``extra`` that lies in the cube and is not yet listed."""
    shape = (len(cube), len(cube[0]), len(cube[0][0]))
    every = list(product(*map(range, shape)))
    chosen = every[::step]
    return chosen + [s for s in extra if s in every and s not in chosen]


def mutants(entry):
    """(component, site) of every mutant of one corpus entry."""
    from homhopf import BiproductSpec, CrossedProductSpec, HomHopf

    payload = entry.payload
    if isinstance(payload, HomHopf):
        plan, step, extra = HOPF_COMPONENTS, 3, ((1, 1, 0),)
    elif isinstance(payload, BiproductSpec):
        plan, step, extra = BIPRODUCT_COMPONENTS, 7, ()
    elif isinstance(payload, CrossedProductSpec):
        plan, step, extra = CROSSED_COMPONENTS, 7, ()
    else:
        return []
    return [(component, site) for component in plan
            for site in sites(cube_of(payload, component), step, extra)]


def bumped(f, step=1):
    """(row, col, f with 1 added at (row, col)) for every entry of f in
    every ``step``-th column."""
    from homhopf import LinearMap

    rows = [list(row) for row in f.matrix]
    for i, row in enumerate(rows):
        for j in range(0, len(row), step):
            row[j] += 1
            yield i, j, LinearMap(f.field, f.domain, f.codomain, rows)
            row[j] -= 1


def system_mutants(field):
    """(label, system) for each one-entry +1 mutant of the canonical
    mapping systems of the two sign data, at every third column."""
    from dataclasses import replace

    from homhopf import build_biproduct, canonical_system
    from homhopf.corpus import classical_radford_datum, sweedler_sign_datum

    for datum in (sweedler_sign_datum, classical_radford_datum):
        system = canonical_system(build_biproduct(datum(field)))
        for name in SYSTEM_MAPS:
            for i, j, g in bumped(getattr(system, name), 3):
                yield (f"{datum.__name__} {name}[{i},{j}]",
                       replace(system, **{name: g}))


def cases():
    """(label, thunk returning a CheckReport), in a fixed order."""
    import taft
    from homhopf import (
        HomHopf,
        check_admissible,
        check_antipode,
        check_hom_bialgebra,
        field_from_tag,
        yau_twist,
    )
    from homhopf.corpus import corpus_entries, mutate

    def all_checks(prefix, entry):
        for name, thunk in entry.checks.items():
            yield f"{prefix} {name}", thunk

    for tag in FIELDS:
        for entry in corpus_entries(field_from_tag(tag)):
            yield from all_checks(f"{tag} {entry.name}", entry)
            for component, (i, j, k) in mutants(entry):
                mutant = mutate(entry, (component, i, j, k), 1)
                yield from all_checks(f"{tag} {mutant.name}", mutant)
            if isinstance(entry.payload, HomHopf):
                b = entry.payload.bialgebra
                for i, j, s in bumped(entry.payload.antipode):
                    yield (f"{tag} {entry.name} antipode[{i},{j}]",
                           lambda s=s, b=b: check_antipode(HomHopf(b, s)))

    for seed in LADDER_SEEDS:
        for rung in taft.make_ladder(seed):
            label = f"seed{seed} T{rung['n']}/GF({rung['p']})"
            h = taft.hopf_from_rung(rung)
            twisted = yau_twist(h, taft.twist_map(rung))
            for what, hopf in (("", h), (" twist", twisted)):
                yield (f"{label}{what} hom_bialgebra",
                       lambda hopf=hopf: check_hom_bialgebra(hopf.bialgebra))
                yield (f"{label}{what} antipode",
                       lambda hopf=hopf: check_antipode(hopf))
            yield (f"{label} unit-row mutant hom_bialgebra",
                   lambda rung=rung: check_hom_bialgebra(
                       taft.mutated_hopf(rung).bialgebra))

    for tag in SYSTEM_FIELDS:
        for label, system in system_mutants(field_from_tag(tag)):
            yield (f"{tag} {label} admissible_system",
                   lambda system=system: check_admissible(system))


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python tests/report_identity.py OUT", file=sys.stderr)
        return 2
    start = time.perf_counter()
    reports = failing = raised = 0
    with open(argv[0], "w") as out:
        for label, thunk in cases():
            try:
                record = thunk().as_dict()
                failing += record["verdict"] != "pass"
            except Exception as e:  # recorded, so the dumps compare it too
                record = {"exception": type(e).__name__, "message": str(e)}
                raised += 1
            reports += 1
            out.write(f"{label}\t{json.dumps(record, sort_keys=True)}\n")
    print(f"{reports} reports, {failing} failing, {raised} exceptions, "
          f"{time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
