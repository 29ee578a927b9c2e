"""Payload snapshot: one sha256 per corpus payload of its structure
constants, so a rewrite of how the corpus writes its tables keeps every
cube, unit, counit, structure map and antipode.

The family:

- the payload of every ``corpus_entries`` entry, over Q and over GF(7);
- the classical algebras and the automorphisms of
  ``involutive_automorphisms``, over Q and over GF(7);
- the twelve ``example24_sigma`` readings over Q (n = 0, 1, 2, each value
  reading and each orientation).

Scalars are tagged with their type, so a value that changes its
representation (a ``Fraction`` becoming an ``int``, say) changes the digest.
An intended change regenerates the snapshot with

    PYTHONPATH=src python tests/test_payload_snapshot.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

SNAPSHOT = Path(__file__).parent / "data" / "payload_snapshot.json"
FIELDS = ("Q", "GF(7)")
AUTOMORPHISM_NAMES = ("sweedler", "c2", "c4")


def constants(obj):
    """The structure constants of a payload as nested tuples, blind to
    object identity and to lazily cached derived data."""
    from homhopf import LinearMap, ModInt, PrimeField, RationalField, Space

    if isinstance(obj, Fraction):
        return ("Q", obj.numerator, obj.denominator)
    if isinstance(obj, ModInt):
        return ("GF", obj.value, obj.p)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return tuple(constants(v) for v in obj)
    if isinstance(obj, (RationalField, PrimeField)):
        return obj.tag
    if isinstance(obj, Space):
        return obj.names
    if isinstance(obj, LinearMap):
        return ("map", obj.field.tag, obj.domain.names, obj.codomain.names,
                constants(obj.matrix))
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            (f.name, constants(getattr(obj, f.name)))
            for f in dataclasses.fields(obj))
    raise TypeError(f"no constants for {type(obj).__name__}")


def payloads() -> dict:
    from homhopf import field_from_tag
    from homhopf.corpus import (
        corpus_entries,
        example24_sigma,
        involutive_automorphisms,
    )

    out = {}
    for tag in FIELDS:
        field = field_from_tag(tag)
        for entry in corpus_entries(field):
            out[f"{tag} corpus {entry.name}"] = entry.payload
        for name in AUTOMORPHISM_NAMES:
            out[f"{tag} automorphisms {name}"] = \
                involutive_automorphisms(name, field)
    for n in (0, 1, 2):
        for values_in in ("unit", "y"):
            for orientation in ("first_in_rows", "first_in_columns"):
                out[f"Q sigma n={n} {values_in} {orientation}"] = \
                    example24_sigma(n, values_in=values_in,
                                    orientation=orientation)
    return out


def digests() -> dict:
    return {
        case: hashlib.sha256(repr(constants(payload)).encode()).hexdigest()
        for case, payload in payloads().items()
    }


def test_payloads_match_the_snapshot():
    expected = json.loads(SNAPSHOT.read_text())
    got = digests()
    assert sorted(got) == sorted(expected), "the case list changed"
    changed = [case for case in expected if got[case] != expected[case]]
    assert not changed, f"structure constants changed for: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_payload_snapshot.py --write")
    snapshot = digests()
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(snapshot)} payloads to {SNAPSHOT}")
