"""Command surface: exit codes, witnesses, JSON stability, build pipeline."""

import json

import pytest

from homhopf.cli import main
from homhopf.corpus import (
    corpus_entries,
    mutate,
    shipped_documents,
)
from homhopf.fields import QQ
from homhopf.structfile import DocumentBuilder


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("struct")
    for name, text in shipped_documents().items():
        (root / name).write_text(text)
    return root


def test_selftest_exits_zero(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all match" in out


def test_check_hopf_file_passes(data_dir, capsys):
    assert main(["check", str(data_dir / "h4.struct"),
                 "--what", "hom-hopf"]) == 0
    assert "[pass]" in capsys.readouterr().out


def test_check_all_on_biproduct_file(data_dir):
    assert main(["check", str(data_dir / "radford.struct"),
                 "--what", "all"]) == 0


def test_check_inapplicable_axiom_set_is_an_input_error(data_dir, capsys):
    assert main(["check", str(data_dir / "h4.struct"),
                 "--what", "biproduct-conditions"]) == 2


def test_missing_file_is_an_input_error(capsys):
    assert main(["check", "/nonexistent/x.struct"]) == 2


def test_malformed_file_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.struct"
    bad.write_text("{")
    assert main(["check", str(bad)]) == 2
    assert "line" in capsys.readouterr().err


def test_failing_check_exits_one_and_prints_witness(tmp_path, capsys):
    entry = next(e for e in corpus_entries() if e.name == "h4_twisted")
    broken = mutate(entry, ("mult", 1, 2, 3), 1).payload
    builder = DocumentBuilder(QQ)
    builder.add_hom_hopf("H", broken)
    path = tmp_path / "broken.struct"
    path.write_text(builder.to_text())
    assert main(["check", str(path), "--what", "hom-bialgebra"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out
    assert "basis tuple" in out
    assert "lhs" in out and "rhs" in out


def test_build_biproduct_then_check_pipeline(data_dir, tmp_path, capsys):
    out_path = tmp_path / "built.struct"
    assert main(["build", "biproduct", str(data_dir / "radford.struct"),
                 "-m", "0", "-k", "-1", "-o", str(out_path)]) == 0
    capsys.readouterr()
    assert main(["check", str(out_path), "--what", "hom-bialgebra"]) == 0


def test_build_crossed_and_smash(data_dir, tmp_path):
    for kind in ("crossed", "smash"):
        out_path = tmp_path / f"{kind}.struct"
        assert main(["build", kind, str(data_dir / "sign_biproduct.struct"),
                     "-o", str(out_path)]) == 0


def test_antipode_command(data_dir):
    assert main(["antipode", str(data_dir / "h4.struct")]) == 0
    assert main(["antipode", str(data_dir / "radford.struct")]) == 0
    assert main(["antipode", str(data_dir / "sign_biproduct.struct")]) == 0


def test_admissible_and_iso_commands(data_dir):
    assert main(["admissible", str(data_dir / "radford.struct")]) == 0
    assert main(["iso", str(data_dir / "radford.struct")]) == 0
    assert main(["admissible", str(data_dir / "sign_biproduct.struct")]) == 0
    assert main(["iso", str(data_dir / "sign_biproduct.struct")]) == 0


def test_json_reports_are_stable_and_parseable(data_dir, capsys):
    assert main(["check", str(data_dir / "h4.struct"), "--what", "hom-hopf",
                 "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["check", str(data_dir / "h4.struct"), "--what", "hom-hopf",
                 "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["exit_code"] == 0
    assert doc["results"][0]["report"]["verdict"] == "pass"
    # keys are emitted in sorted order
    assert first == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_json_selftest(capsys):
    assert main(["selftest", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "selftest"
    assert all(r["report"]["verdict"] == "pass" for r in doc["results"])


def test_build_crossed_with_parameter_override(data_dir, tmp_path, capsys):
    out_path = tmp_path / "crossed.struct"
    assert main(["build", "crossed", str(data_dir / "example24.struct"),
                 "-m", "2", "-k", "-2", "-o", str(out_path)]) == 0
    capsys.readouterr()
    assert main(["check", str(out_path), "--what", "hom-algebra"]) == 0


def test_antipode_solves_when_no_antipode_maps_are_shipped(tmp_path):
    from homhopf.corpus import classical_radford_datum, export_biproduct_spec

    path = tmp_path / "noanti.struct"
    path.write_text(export_biproduct_spec(classical_radford_datum()))
    assert main(["antipode", str(path)]) == 0


def test_boolean_crossed_parameter_is_an_input_error(data_dir, tmp_path,
                                                     capsys):
    doc = json.loads((data_dir / "example24.struct").read_text())
    doc["bundles"]["crossed"]["m"] = True
    path = tmp_path / "bool_m.struct"
    path.write_text(json.dumps(doc))
    assert main(["build", "crossed", str(path),
                 "-o", str(tmp_path / "out.struct")]) == 2
    assert "m and k must be integers" in capsys.readouterr().err
