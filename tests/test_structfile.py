"""Structure-file parsing, validation errors, and canonical serialization."""

import json

import pytest

from homhopf.corpus import shipped_documents, sweedler_h4_hom
from homhopf.fields import BadRational
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
