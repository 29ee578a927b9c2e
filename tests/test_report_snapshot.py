"""Check-report snapshot: the sha256 of the ``as_dict()`` report of every
one-entry perturbation in a fixed family, so a refactor of the checks keeps
every verdict, report name, report order and failing witness.

The family, all over Q:

- each valid biproduct corpus entry, with one entry of one map of its
  canonical mapping system (``retr_C``, ``sect_C``, ``proj_H``, ``sect_H``)
  bumped by 1: the ``check_admissible`` report and the
  ``admissible_isomorphism(enforce=False)`` report;
- each Hopf corpus entry, with one entry of its structure map bumped by 1:
  the ``check_bialgebra_automorphism`` report;
- the antipode checks, each on the map it checks and on every one-entry
  bump of that map: ``check_antipode`` of each Hopf corpus entry; for the
  classical Radford and the Sweedler sign biproducts,
  ``check_algebra_antipode`` of S_A, ``check_sigma_antipode`` of S_H and
  ``check_biproduct_antipode`` of the assembled biproduct antipode; and
  ``check_cocycle_inverse`` of the solved sigma^{-1} of the example-2.4
  crossed products with n = 1, 2.

An intended report change regenerates the snapshot with

    PYTHONPATH=src python tests/test_report_snapshot.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

SNAPSHOT = Path(__file__).parent / "data" / "report_snapshot.json"
SYSTEM_MAPS = ("retr_C", "sect_C", "proj_H", "sect_H")


def bumps(f):
    """(row, col, f with 1 added at (row, col)) for every entry of f."""
    from homhopf.exactlin import LinearMap

    rows = [list(row) for row in f.matrix]
    for i, row in enumerate(rows):
        for j in range(len(row)):
            row[j] += 1
            yield i, j, LinearMap(f.field, f.domain, f.codomain, rows)
            row[j] -= 1


def variants(f):
    """(label, map): f itself labelled "", then each bump of f labelled
    "[row,col]"."""
    yield "", f
    for i, j, g in bumps(f):
        yield f"[{i},{j}]", g


def reports() -> dict:
    from homhopf.admissible import (
        IsoCheckFailError,
        admissible_isomorphism,
        canonical_system,
        check_admissible,
    )
    from homhopf.constructions import (
        assemble_biproduct,
        biproduct_antipode,
        build_biproduct,
        check_algebra_antipode,
        check_biproduct_antipode,
        check_sigma_antipode,
    )
    from homhopf.convact import Cocycle, check_cocycle_inverse, cocycle_inverse
    from homhopf.corpus import (
        classical_radford_datum,
        corpus_entries,
        dual_numbers_antipode,
        example24_spec,
        sweedler_sign_datum,
    )
    from homhopf.exactlin import tensor_from_bilinear
    from homhopf.homcore import (
        HomHopf,
        check_antipode,
        check_bialgebra_automorphism,
    )

    out = {}
    for entry in corpus_entries():
        if isinstance(entry.payload, HomHopf):
            b = entry.payload.bialgebra
            for i, j, phi in bumps(b.alpha):
                out[f"{entry.name} alpha[{i},{j}] automorphism"] = \
                    check_bialgebra_automorphism(b, phi)
            for at, s in variants(entry.payload.antipode):
                out[f"{entry.name} antipode{at} hom_antipode"] = \
                    check_antipode(HomHopf(b, s))
        elif "admissible_system" in entry.checks:
            system = canonical_system(build_biproduct(entry.payload))
            for name in SYSTEM_MAPS:
                for i, j, f in bumps(getattr(system, name)):
                    broken = dataclasses.replace(system, **{name: f})
                    case = f"{entry.name} {name}[{i},{j}]"
                    out[f"{case} admissible"] = check_admissible(broken)
                    try:
                        iso = admissible_isomorphism(broken, enforce=False)[2]
                    except IsoCheckFailError as e:
                        iso = e.report
                    out[f"{case} isomorphism"] = iso

    for name, spec in (("radford_classical", classical_radford_datum()),
                       ("sweedler_sign_biproduct", sweedler_sign_datum())):
        a, h = spec.crossed.algebra, spec.crossed.hopf_bialgebra
        s_h, s_a = spec.crossed.hopf.antipode, dual_numbers_antipode()
        for at, s in variants(s_a):
            out[f"{name} S_A{at} algebra_antipode"] = \
                check_algebra_antipode(a, spec.coalgebra, s)
        for at, s in variants(s_h):
            out[f"{name} S_H{at} sigma_antipode"] = \
                check_sigma_antipode(h, spec.crossed.cocycle, s)
        bialgebra = assemble_biproduct(spec)
        for at, s in variants(biproduct_antipode(spec, bialgebra, s_h, s_a)):
            out[f"{name} S{at} biproduct_antipode"] = \
                check_biproduct_antipode(bialgebra, s)

    for n in (1, 2):
        sigma = cocycle_inverse(example24_spec(n, 0, -1).cocycle)
        hsp, asp = sigma.source.space, sigma.target.space
        for at, inv in variants(sigma.inverse_map()):
            bumped = Cocycle(sigma.source, sigma.target, sigma.sigma,
                             inverse=tensor_from_bilinear(inv, hsp, hsp, asp))
            out[f"example24_n{n} sigma_inverse{at} cocycle_inverse"] = \
                check_cocycle_inverse(bumped)
    return out


def digests() -> dict:
    return {
        case: hashlib.sha256(
            json.dumps(report.as_dict(), sort_keys=True).encode()).hexdigest()
        for case, report in reports().items()
    }


def test_reports_match_the_snapshot():
    expected = json.loads(SNAPSHOT.read_text())
    got = digests()
    assert sorted(got) == sorted(expected), "the case list changed"
    changed = [case for case in expected if got[case] != expected[case]]
    assert not changed, f"report changed for: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_report_snapshot.py --write")
    snapshot = digests()
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(snapshot)} reports to {SNAPSHOT}")
