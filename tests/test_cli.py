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


def test_a_basis_name_holding_the_tensor_sign_is_accepted(data_dir, tmp_path,
                                                         capsys):
    """Tensor spaces are held as their factors, so H4 with g named 1⊗1
    runs to the verdicts of h4.struct although the names of H4 (x) H4
    would collide (1⊗1⊗1 is both 1 (x) 1⊗1 and 1⊗1 (x) 1)."""
    doc = json.loads((data_dir / "h4.struct").read_text())
    (space,) = doc["spaces"]
    assert doc["spaces"][space]["basis"] == ["1", "g", "x", "gx"]
    doc["spaces"][space]["basis"] = ["1", "1⊗1", "x", "gx"]
    renamed = tmp_path / "h4_tensor_sign.struct"
    renamed.write_text(json.dumps(doc))
    assert main(["check", str(data_dir / "h4.struct")]) == 0
    shipped = capsys.readouterr()
    assert main(["check", str(renamed)]) == 0
    assert capsys.readouterr() == shipped


@pytest.mark.parametrize("command, tensor, site, value", [
    ("crossed", "H_comult", (2, 0, 2), "0"),
    ("biproduct", "A_mult", (0, 1, 1), "2"),
])
def test_a_failing_sweep_over_colliding_product_names_names_a_witness(
        data_dir, tmp_path, capsys, command, tensor, site, value):
    """With A = 1, 1⊗1 and H = g, 1, x, 1⊗g, the basis vectors 3 and 4 of
    A (x) H are both named 1⊗1⊗g.  One mutated cube entry makes a check of
    the crossed product or biproduct on A (x) H restrict a leg to its
    generators (crossed) or to the runs of its sweep (biproduct), both of
    which hold the two; the check exits 1 with a witness, not with
    "duplicate basis names"."""
    doc = json.loads((data_dir / "sign_biproduct.struct").read_text())
    assert doc["spaces"]["A_space"]["basis"] == ["1", "y"]
    assert doc["spaces"]["H_space"]["basis"] == ["1", "g", "x", "gx"]
    doc["spaces"]["A_space"]["basis"] = ["1", "1⊗1"]
    doc["spaces"]["H_space"]["basis"] = ["g", "1", "x", "1⊗g"]
    i, j, k = site
    doc["tensors"][tensor]["entries"][i][j][k] = value
    mutated = tmp_path / f"colliding_{command}.struct"
    mutated.write_text(json.dumps(doc))
    assert main(["build", command, str(mutated)]) == 1
    out, err = capsys.readouterr()
    assert "at basis tuple (" in out and err == ""


@pytest.mark.parametrize("command", ["crossed", "smash", "biproduct"])
def test_build_refuses_to_write_colliding_product_names(data_dir, tmp_path,
                                                        capsys, command):
    """With A = 1, 1⊗1 and H = g, 1, x, 1⊗g, the basis vectors 3 and 4 of
    A (x) H are both named 1⊗1⊗g, so ``check`` could not read back a file
    holding them: ``build -o`` exits 2 naming the duplicate and writes no
    file."""
    doc = json.loads((data_dir / "sign_biproduct.struct").read_text())
    doc["spaces"]["A_space"]["basis"] = ["1", "1⊗1"]
    doc["spaces"]["H_space"]["basis"] = ["g", "1", "x", "1⊗g"]
    colliding = tmp_path / "colliding.struct"
    colliding.write_text(json.dumps(doc))
    written = tmp_path / "built.struct"
    assert main(["build", command, str(colliding), "-o", str(written)]) == 2
    assert "the basis name '1⊗1⊗g' names two vectors" in capsys.readouterr().err
    assert not written.exists()
    assert main(["build", command, str(data_dir / "sign_biproduct.struct"),
                 "-o", str(written)]) == 0
    assert main(["check", str(written)]) == 0


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


@pytest.mark.parametrize("value", ["no_such_map", "H_antipode",
                                   ["algebra_antipode"]])
def test_antipode_command_rejects_a_bad_algebra_antipode(data_dir, tmp_path,
                                                         capsys, value):
    doc = json.loads((data_dir / "radford.struct").read_text())
    doc["bundles"]["biproduct"]["algebra_antipode"] = value
    path = tmp_path / "bad_algebra_antipode.struct"
    path.write_text(json.dumps(doc))
    assert main(["antipode", str(path)]) == 2
    assert "algebra_antipode" in capsys.readouterr().err


def test_boolean_crossed_parameter_is_an_input_error(data_dir, tmp_path,
                                                     capsys):
    doc = json.loads((data_dir / "example24.struct").read_text())
    doc["bundles"]["crossed"]["m"] = True
    path = tmp_path / "bool_m.struct"
    path.write_text(json.dumps(doc))
    assert main(["build", "crossed", str(path),
                 "-o", str(tmp_path / "out.struct")]) == 2
    assert "m and k must be integers" in capsys.readouterr().err


def _sign_coact_mutant(tmp_path, with_algebra_antipode):
    from homhopf.corpus import dual_numbers_antipode, export_biproduct_spec

    entry = next(e for e in corpus_entries()
                 if e.name == "sweedler_sign_biproduct")
    broken = mutate(entry, ("coact", 1, 1, 0), 1).payload
    path = tmp_path / "sign_coact_mutant.struct"
    path.write_text(export_biproduct_spec(
        broken, dual_numbers_antipode() if with_algebra_antipode else None))
    return str(path)


def test_antipode_command_reports_a_failing_biproduct_antipode(tmp_path,
                                                               capsys):
    path = _sign_coact_mutant(tmp_path, with_algebra_antipode=True)
    assert main(["antipode", path]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] biproduct: biproduct-antipode" in out
    assert "failing identity: antipode_left_inverse" in out
    assert "at basis tuple (y⊗1)" in out

    assert main(["antipode", path, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    result = doc["results"][-1]
    assert (result["bundle"], result["check"]) == \
        ("biproduct", "biproduct-antipode")
    report = result["report"]
    assert report["verdict"] == "fail"
    assert [s["name"] for s in report["subchecks"]] == [
        "antipode_left_inverse", "antipode_right_inverse",
        "antipode_structure_commute"]
    left = report["subchecks"][0]
    assert left["witness"]["basis"] == ["y⊗1"]
    assert left["witness"]["entry"] == \
        {"row": 1, "col": 4, "lhs": "2", "rhs": "0"}
    assert report["witness"] == left["witness"]


def test_antipode_command_without_algebra_antipode_reports_conditions(
        tmp_path, capsys):
    path = _sign_coact_mutant(tmp_path, with_algebra_antipode=False)
    assert main(["antipode", path]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] biproduct: biproduct-conditions" in out
    assert "failing identity: coaction_multiplicative" in out
    assert "at basis tuple (y, y)" in out
    assert "biproduct-antipode" not in out


def test_antipode_command_sweeps_no_conditions_or_axioms(data_dir, capsys,
                                                         count_calls):
    counts = [count_calls("homcore", "check_hom_bialgebra"),
              count_calls("constructions", "check_biproduct_conditions")]
    for name in ("sign_biproduct.struct", "radford.struct"):
        assert main(["antipode", str(data_dir / name)]) == 0
        assert "[pass] biproduct: biproduct-antipode" in \
            capsys.readouterr().out
    assert [calls[0] for calls in counts] == [0, 0]


def test_antipode_command_builds_the_crossed_product_once(data_dir, capsys,
                                                          count_calls):
    calls = count_calls("constructions", "crossed_product")
    assert main(["antipode", str(data_dir / "sign_biproduct.struct")]) == 0
    assert "[pass] biproduct: biproduct-antipode" in capsys.readouterr().out
    assert calls[0] == 1


def test_check_sweeps_a_hopf_bundles_axioms_once(data_dir, capsys,
                                                 count_calls):
    counts = [count_calls("homcore", name) for name in (
        "check_hom_algebra", "check_hom_coalgebra", "check_hom_bialgebra")]
    assert main(["check", str(data_dir / "h4.struct")]) == 0
    out = capsys.readouterr().out
    for check in ("hom-algebra", "hom-coalgebra", "hom-bialgebra",
                  "hom-hopf"):
        assert f"[pass] H4: {check}\n" in out
    assert [calls[0] for calls in counts] == [1, 1, 1]


@pytest.mark.parametrize("name", ["radford.struct", "sign_biproduct.struct"])
def test_check_sweeps_each_shared_object_once(data_dir, capsys, count_calls,
                                              name):
    counts = [count_calls(module, check) for module, check in (
        ("convact", "check_weak_module_algebra"),
        ("convact", "check_hom_module"),
        ("convact", "check_comodule_coalgebra"),
        ("constructions", "check_cocycle_conditions"))]
    assert main(["check", str(data_dir / name)]) == 0
    out = capsys.readouterr().out
    for bundle, check in (("action", "hom-module"),
                          ("crossed", "hom-module"),
                          ("biproduct", "hom-module"),
                          ("coaction", "comodule-coalgebra"),
                          ("biproduct", "comodule-coalgebra"),
                          ("crossed", "cocycle-conditions"),
                          ("biproduct", "cocycle-conditions")):
        assert f"[pass] {bundle}: {check}\n" in out
    assert [calls[0] for calls in counts] == [1, 1, 1, 1]


@pytest.mark.parametrize("what, expected", [
    ("hom-algebra", [1, 0, 0]), ("hom-coalgebra", [0, 1, 0]),
    ("hom-bialgebra", [1, 1, 1]), ("hom-hopf", [1, 1, 1])])
def test_check_of_one_axiom_set_sweeps_only_that_set(data_dir, capsys,
                                                     count_calls, what,
                                                     expected):
    counts = [count_calls("homcore", name) for name in (
        "check_hom_algebra", "check_hom_coalgebra", "check_hom_bialgebra")]
    assert main(["check", str(data_dir / "h4.struct"), "--what", what]) == 0
    assert capsys.readouterr().out == f"[pass] H4: {what}\n"
    assert [calls[0] for calls in counts] == expected
