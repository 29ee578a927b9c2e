"""Check-report snapshot: the sha256 of the ``as_dict()`` report of every
one-entry perturbation in a fixed family, so a refactor of the checks keeps
every verdict, report name, report order and failing witness.

The family, all over Q:

- each valid biproduct corpus entry, with one entry of one map of its
  canonical mapping system (``retr_C``, ``sect_C``, ``proj_H``, ``sect_H``)
  bumped by 1: the ``check_admissible`` report and the
  ``admissible_isomorphism(enforce=False)`` report;
- each Hopf corpus entry, with one entry of its structure map bumped by 1:
  the ``check_bialgebra_automorphism`` report.

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


def reports() -> dict:
    from homhopf.admissible import (
        IsoCheckFailError,
        admissible_isomorphism,
        canonical_system,
        check_admissible,
    )
    from homhopf.constructions import build_biproduct
    from homhopf.corpus import corpus_entries
    from homhopf.homcore import HomHopf, check_bialgebra_automorphism

    out = {}
    for entry in corpus_entries():
        if isinstance(entry.payload, HomHopf):
            b = entry.payload.bialgebra
            for i, j, phi in bumps(b.alpha):
                out[f"{entry.name} alpha[{i},{j}] automorphism"] = \
                    check_bialgebra_automorphism(b, phi)
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
