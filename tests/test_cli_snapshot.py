"""CLI output snapshot: the exit code and the sha256 of stdout and stderr of a
fixed list of commands, run in-process through ``cli.main``.

The commands run in a scratch directory that holds the shipped ``.struct``
files, two failing biproduct files, a malformed file and a file with no
bundles, and they name every file by a relative path, so the output does
not depend on where the suite runs.

An intended output change regenerates the snapshot with

    PYTHONPATH=src python tests/test_cli_snapshot.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

SNAPSHOT = Path(__file__).parent / "data" / "cli_snapshot.json"
SHIPPED_DIR = Path(__file__).parents[1] / "src" / "homhopf" / "data"

SHIPPED = ["example24.struct", "h4.struct", "h4_classical.struct",
           "radford.struct", "sign_biproduct.struct"]
# The sign biproduct with coact[1][1][0] bumped by 1, with and without its
# algebra antipode: the first fails biproduct-antipode, the second fails
# biproduct-conditions before any antipode is built.
MUTANTS = ["sign_coact_mutant.struct", "sign_coact_mutant_no_antipode.struct"]
# Input errors: a missing file, malformed JSON, and a file with no bundles.
BROKEN = ["missing.struct", "malformed.struct", "empty.struct"]

FILE_COMMANDS = [["check"], ["antipode"], ["admissible"], ["iso"]]
BUILDS = [["build", kind] for kind in ("crossed", "smash", "biproduct")]


def commands() -> list:
    runs = []
    for path in SHIPPED + MUTANTS:
        for cmd in FILE_COMMANDS:
            runs.append(cmd + [path])
        for cmd in BUILDS:
            runs.append(cmd + [path])
            runs.append(cmd + [path, "-m", "3", "-k", "-2"])
    for path in BROKEN:
        for cmd in FILE_COMMANDS + BUILDS:
            runs.append(cmd + [path])
    runs = [r for run in runs for r in (run, run + ["--json"])]
    runs.append(["selftest"])
    return runs


def write_inputs(root: Path) -> None:
    from homhopf.corpus import (
        corpus_entries,
        dual_numbers_antipode,
        export_biproduct_spec,
        mutate,
    )

    for name in SHIPPED:
        shutil.copyfile(SHIPPED_DIR / name, root / name)
    entry = next(e for e in corpus_entries()
                 if e.name == "sweedler_sign_biproduct")
    broken = mutate(entry, ("coact", 1, 1, 0), 1).payload
    (root / MUTANTS[0]).write_text(
        export_biproduct_spec(broken, dual_numbers_antipode()))
    (root / MUTANTS[1]).write_text(export_biproduct_spec(broken))
    (root / "malformed.struct").write_text("{")
    (root / "empty.struct").write_text('{"field": "Q", "format_version": 1}')


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_all(root: Path) -> dict:
    from homhopf.cli import main

    write_inputs(root)
    here = os.getcwd()
    os.chdir(root)
    try:
        results = {}
        for argv in commands():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            results[" ".join(argv)] = {
                "exit_code": code,
                "stdout_sha256": digest(out.getvalue()),
                "stderr_sha256": digest(err.getvalue()),
            }
        return results
    finally:
        os.chdir(here)


def test_cli_output_matches_the_snapshot(tmp_path):
    expected = json.loads(SNAPSHOT.read_text())
    got = run_all(tmp_path)
    assert sorted(got) == sorted(expected), "the command list changed"
    changed = [argv for argv in expected if got[argv] != expected[argv]]
    assert not changed, f"output changed for: {changed}"


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_snapshot.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = run_all(Path(tmp))
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(snapshot)} commands to {SNAPSHOT}")
