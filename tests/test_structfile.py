"""Structure-file parsing, validation errors, and canonical serialization,
with a differential oracle for the literal table: an entry-by-entry reading
of the same documents, written here."""

import json
import sys
from collections import Counter
from fractions import Fraction
from functools import cache
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from homhopf.corpus import shipped_documents, sweedler_h4_hom
from homhopf.fields import BadRational, ModInt, PrimeField, field_from_tag
from homhopf.structfile import (
    DocumentBuilder,
    StructError,
    StructShapeError,
    StructSyntaxError,
    UnknownReferenceError,
    parse,
)


def minimal_doc():
    return {
        "format_version": 1,
        "field": "Q",
        "spaces": {"V": {"basis": ["a", "b"]}},
        "maps": {"id": {"domain": "V", "codomain": "V",
                        "matrix": [["1", "0"], ["0", "1"]]}},
        "tensors": {"m": {"shape": ["V", "V", "V"],
                          "entries": [[["1", "0"], ["0", "1"]],
                                      [["0", "1"], ["0", "0"]]]}},
        "bundles": {"A": {"type": "hom_algebra", "space": "V", "mult": "m",
                          "unit": ["1", "0"], "structure_map": "id"}},
    }


def test_minimal_document_parses():
    sf = parse(json.dumps(minimal_doc()))
    assert sf.bundles["A"].space.dim == 2
    assert sf.bundle_types["A"] == "hom_algebra"


def test_empty_file_is_a_syntax_error_with_position():
    with pytest.raises(StructSyntaxError) as err:
        parse("")
    assert err.value.line == 1


def test_bad_rational_literal():
    doc = minimal_doc()
    doc["maps"]["id"]["matrix"][0][0] = "1/0"
    with pytest.raises(BadRational):
        parse(json.dumps(doc))


def test_unknown_space_reference():
    doc = minimal_doc()
    doc["maps"]["id"]["domain"] = "W"
    with pytest.raises(UnknownReferenceError):
        parse(json.dumps(doc))


def test_unknown_tensor_reference():
    doc = minimal_doc()
    doc["bundles"]["A"]["mult"] = "missing"
    with pytest.raises(UnknownReferenceError):
        parse(json.dumps(doc))


def test_matrix_shape_mismatch():
    doc = minimal_doc()
    doc["maps"]["id"]["matrix"] = [["1", "0"]]
    with pytest.raises(StructShapeError):
        parse(json.dumps(doc))


def test_tensor_shape_mismatch():
    doc = minimal_doc()
    doc["tensors"]["m"]["entries"] = [[["1"]]]
    with pytest.raises(StructShapeError):
        parse(json.dumps(doc))


def test_duplicate_basis_names_rejected():
    doc = minimal_doc()
    doc["spaces"]["V"]["basis"] = ["a", "a"]
    with pytest.raises(StructShapeError):
        parse(json.dumps(doc))


def test_unknown_bundle_type():
    doc = minimal_doc()
    doc["bundles"]["A"]["type"] = "frobenius"
    with pytest.raises(StructError):
        parse(json.dumps(doc))


def test_unsupported_format_version():
    doc = minimal_doc()
    doc["format_version"] = 99
    with pytest.raises(StructError):
        parse(json.dumps(doc))


def test_scalars_are_normalized_in_canonical_form():
    doc = minimal_doc()
    doc["maps"]["id"]["matrix"][0][0] = "+2/4"
    text = parse(json.dumps(doc)).serialize()
    assert '"1/2"' in text
    assert "+2/4" not in text


def test_canonical_serialization_is_stable():
    for name, text in shipped_documents().items():
        sf = parse(text)
        assert sf.serialize() == text, name
        # parsing the serialization again is a fixed point
        assert parse(sf.serialize()).serialize() == text, name


def test_builder_exports_parse_to_the_same_hopf_algebra():
    h = sweedler_h4_hom()
    builder = DocumentBuilder(h.field)
    builder.add_hom_hopf("H", h)
    sf = parse(builder.to_text())
    assert sf.bundles["H"] == h


def test_gf_field_files():
    doc = minimal_doc()
    doc["field"] = "GF(5)"
    doc["maps"]["id"]["matrix"] = [["6", "0"], ["0", "1/2"]]
    sf = parse(json.dumps(doc))
    text = sf.serialize()
    assert '"GF(5)"' in text
    assert '"3"' in text  # 1/2 = 3 mod 5


def test_bundle_reference_cycle_is_rejected():
    doc = minimal_doc()
    doc["bundles"]["loop"] = {"type": "module_action", "acting": "loop",
                              "target": "A", "tensor": "m"}
    with pytest.raises(StructError):
        parse(json.dumps(doc))


def test_bundle_referencing_wrong_kind_is_rejected():
    doc = minimal_doc()
    doc["bundles"]["act"] = {"type": "module_action", "acting": "A",
                             "target": "A", "tensor": "m"}
    with pytest.raises(StructError):
        parse(json.dumps(doc))  # A is an algebra, not a bialgebra


@pytest.mark.parametrize("key,value", [("m", True), ("k", False),
                                       ("m", 1.0)])
def test_crossed_spec_parameters_must_be_integers_not_booleans(key, value):
    doc = json.loads(shipped_documents()["example24.struct"])
    doc["bundles"]["crossed"][key] = value
    with pytest.raises(StructError):
        parse(json.dumps(doc))


def radford_with(path, value):
    """The shipped radford.struct document with ``value`` set at ``path``."""
    doc = json.loads(shipped_documents()["radford.struct"])
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return json.dumps(doc)


MALFORMED = {
    "spaces-list": (("spaces",), []),
    "maps-null": (("maps",), None),
    "tensors-list": (("tensors",), []),
    "bundles-null": (("bundles",), None),
    "map-body-list": (("maps", "A_alpha"), []),
    "tensor-body-list": (("tensors", "A_mult"), []),
    "map-domain-list": (("maps", "A_alpha", "domain"), ["A_space"]),
    "tensor-shape-entry-list": (("tensors", "A_mult", "shape", 0),
                                ["A_space"]),
    "bundle-reference-list": (("bundles", "crossed", "action"), ["action"]),
    "field-number": (("field",), 7),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_documents_are_struct_errors(case, tmp_path, capsys):
    from homhopf.cli import main

    text = radford_with(*MALFORMED[case])
    with pytest.raises(StructError):
        parse(text)
    path = tmp_path / f"{case}.struct"
    path.write_text(text)
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("value, error", [
    ("no_such_map", UnknownReferenceError),
    (["algebra_antipode"], UnknownReferenceError),
    ("H_antipode", StructShapeError),  # a map on H, not on A
])
def test_algebra_antipode_must_name_a_map_on_the_algebra(value, error):
    with pytest.raises(error):
        parse(radford_with(("bundles", "biproduct", "algebra_antipode"),
                           value))


def test_extras_hold_only_the_algebra_antipode():
    sf = parse(shipped_documents()["radford.struct"])
    assert sf.extras == {"biproduct": {"algebra_antipode": "algebra_antipode"}}
    assert parse(shipped_documents()["example24.struct"]).extras == {}


def test_a_misspelled_bundle_key_is_a_struct_error(tmp_path, capsys):
    from homhopf.cli import main

    doc = json.loads(shipped_documents()["radford.struct"])
    body = doc["bundles"]["biproduct"]
    body["algebra_antipod"] = body.pop("algebra_antipode")
    text = json.dumps(doc)
    with pytest.raises(StructError, match="'biproduct'.*'algebra_antipod'"):
        parse(text)
    path = tmp_path / "misspelled.struct"
    path.write_text(text)
    assert main(["antipode", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "'biproduct'" in err and "'algebra_antipod'" in err


@pytest.mark.parametrize("name", sorted(shipped_documents()))
def test_every_bundle_type_rejects_a_key_it_does_not_know(name):
    doc = json.loads(shipped_documents()[name])
    for bundle in doc["bundles"]:
        bad = json.loads(json.dumps(doc))
        bad["bundles"][bundle]["note"] = "1"
        with pytest.raises(StructError, match=f"'{bundle}'.*'note'"):
            parse(json.dumps(bad))


# ---------------------------------------------------------------------------
# The literal table against an entry-by-entry reading.

BENCH = str(Path(__file__).resolve().parent.parent / "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)
import taft  # noqa: E402

# the bundles each bundle type resolves first, in parse's order
RESOLVES = {"module_action": ("acting", "target"),
            "coaction": ("coacting", "target"),
            "cocycle": ("source", "target"),
            "crossed_spec": ("algebra", "hopf", "action", "cocycle"),
            "biproduct_spec": ("crossed", "coalgebra", "coaction")}
VALID = ["0", "1", "-1", "+2/4", "2/3", "-0", "007", "5", "-7/21"]
BAD = ["1.5", "", "1/0", "x", " 1", "1/-2", "+-1", "1/02", "0x1", "1/"]
NOT_STRINGS = [1, 0, None, True, 1.5, [], ["1"], {"v": "1"}]


@cache
def documents() -> dict:
    """The shipped documents over Q and GF(7), and a Taft T_3 over GF(p)."""
    docs = {f"Q {name}": text for name, text in shipped_documents().items()}
    docs.update({f"GF(7) {name}": text for name, text
                 in shipped_documents(PrimeField(7)).items()})
    docs["T_3"] = taft.export_struct(taft.make_rung(3, Random(3)))
    return docs


def scalar_rows(doc):
    """(where, row) for every list of scalars of ``doc`` in the order parse
    reads them: the maps' rows and the tensors' planes by name, then the
    vectors of each bundle as the bundles resolve."""
    for name in sorted(doc["maps"]):
        for row in doc["maps"][name]["matrix"]:
            yield f"map {name!r}", row
    for name in sorted(doc["tensors"]):
        for slab in doc["tensors"][name]["entries"]:
            for plane in slab:
                yield f"tensor {name!r}", plane
    seen = set()

    def visit(name):
        if name not in seen:
            seen.add(name)
            body = doc["bundles"][name]
            for key in RESOLVES.get(body["type"], ()):
                yield from visit(body[key])
            for key in ("unit", "counit"):
                if key in body:
                    yield f"bundle {name!r}", body[key]

    for name in sorted(doc["bundles"]):
        yield from visit(name)


def read_entry_by_entry(doc):
    """Each scalar of ``doc`` read where it stands, through ``field.parse``:
    the rows of values in parse's order and the canonical text, or the
    error the first bad entry raises."""
    field = field_from_tag(doc["field"])
    doc = json.loads(json.dumps(doc))
    values = []
    for where, row in scalar_rows(doc):
        read = []
        for v in row:
            if not isinstance(v, str):
                raise BadRational(f"{where}: scalar literals must be "
                                  f"strings, got {type(v).__name__}")
            try:
                read.append(field.parse(v))
            except BadRational as e:
                raise BadRational(f"{where}: {e}") from None
        values.append(read)
        row[:] = [field.format(x) for x in read]
    return values, json.dumps(doc, sort_keys=True, indent=2) + "\n"


def respell(field, text, k, t, plus):
    """Another literal for the value of the canonical literal ``text``: its
    numerator and denominator times k, t times the characteristic added to
    the numerator, a '+' written before a nonnegative numerator."""
    q = Fraction(text) + t * field.characteristic
    num, den = q.numerator * k, q.denominator * k
    sign = "+" if plus and num >= 0 else ""
    return f"{sign}{num}" + (f"/{den}" if den != 1 else "")


@st.composite
def mutated_documents(draw):
    """A document with up to four edits.  An entry of a structure map is
    only respelled, so every record still builds; elsewhere an entry may
    also become another valid literal (at up to three places at once),
    bad grammar, no string, or a fraction whose denominator vanishes."""
    doc = json.loads(documents()[draw(st.sampled_from(sorted(documents())))])
    field = field_from_tag(doc["field"])
    p = field.characteristic
    structural = {body["structure_map"] for body in doc["bundles"].values()
                  if "structure_map" in body}
    sites = [(row, i, where.startswith("map") and where[5:-1] in structural)
             for where, row in scalar_rows(doc) for i in range(len(row))]
    free = [site for site in sites if not site[2]]
    kinds = ["respell", "respell", "valid", "valid", "bad", "not string",
             "vanishing"][:6 + bool(p)]
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(kinds))
        places = free if kind != "respell" else sites
        if kind == "valid":
            value = draw(st.sampled_from(VALID))
        elif kind == "bad":
            value = draw(st.sampled_from(BAD))
        elif kind == "not string":
            value = draw(st.sampled_from(NOT_STRINGS))
        elif kind == "vanishing":
            value = f"{draw(st.integers(-3, 3))}/{p * draw(st.integers(1, 3))}"
        for _ in range(draw(st.integers(1, 3)) if kind == "valid" else 1):
            row, i, _ = places[draw(st.integers(0, len(places) - 1))]
            if kind == "respell":
                try:
                    text = field.format(field.parse(row[i]))
                except (BadRational, TypeError):  # an earlier edit's
                    continue
                value = respell(field, text, draw(st.integers(1, 3)),
                                draw(st.integers(0, 2)), draw(st.booleans()))
            row[i] = value
    return doc


@settings(max_examples=150, deadline=None)
@given(doc=mutated_documents())
def test_the_literal_table_reads_as_entry_by_entry_parsing_does(doc):
    text = json.dumps(doc)
    try:
        values, canonical = read_entry_by_entry(doc)
    except BadRational as expected:
        with pytest.raises(BadRational) as err:
            parse(text)
        assert type(err.value) is type(expected)
        assert str(err.value) == str(expected)
        return
    sf = parse(text)
    assert sf.serialize() == canonical
    rows = ([list(row) for name in sorted(sf.maps)
             for row in sf.maps[name].matrix]
            + [list(plane) for name in sorted(sf.tensors)
               for slab in sf.tensors[name] for plane in slab])
    assert rows == values[:len(rows)]
    assert sf.bundles == parse(canonical).bundles


def test_a_literal_is_validated_again_in_every_document():
    """-7/21 is a rational, but its denominator vanishes in GF(7): a table
    kept from one parse to the next would take it unchecked."""
    doc = minimal_doc()
    doc["maps"]["id"]["matrix"][0][1] = "-7/21"
    doc["tensors"]["m"]["entries"][1][1][0] = "-7/21"
    parse(json.dumps(doc))
    doc["field"] = "GF(7)"
    with pytest.raises(BadRational) as err:
        parse(json.dumps(doc))
    assert str(err.value) == ("map 'id': denominator of '-7/21' vanishes "
                              "in GF(7)")


def test_parse_pays_per_distinct_literal_not_per_entry(monkeypatch):
    """Reading a Taft T_4 file parses each distinct literal once and builds
    no field element per entry: at most three ModInts per distinct literal
    with a '/' (numerator, denominator, quotient), one per other literal,
    and the field's zero and one.  Parsing each entry made 8,768 parse
    calls and 8,802 ModInts here."""
    text = taft.export_struct(taft.make_rung(4, Random(5)))
    literals = {v for _, row in scalar_rows(json.loads(text)) for v in row}
    calls = Counter()
    for cls, name in ((PrimeField, "parse"), (ModInt, "__init__")):
        def counted(*args, real=getattr(cls, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(cls, name, counted)
    parse(text)
    fractions = sum("/" in v for v in literals)
    assert 0 < calls["parse"] <= len(literals)
    assert calls["__init__"] <= len(literals) + 2 * fractions + 2
