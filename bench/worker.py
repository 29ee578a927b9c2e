"""One benchmark process: ``setup`` writes a workload's inputs, ``pass``
runs one pass of it in this fresh interpreter, ``cli`` runs one traced
``homhopf`` command.  ``run.py`` starts these; they are not meant to be
started by hand.

    worker.py setup --workload W --seed N --work DIR
    worker.py pass  --workload W --work DIR --result FILE [--trace]
    worker.py cli   --summary FILE --spans FILE -- <homhopf arguments>

A pass writes one JSON result: per-item latencies and verdicts, peak RSS,
and with ``--trace`` the tracer summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

COMMAND_TIMEOUT_S = 120
SHIPPED = ["h4", "h4_classical", "example24", "radford", "sign_biproduct"]
# Shipped files without a biproduct_spec bundle: admissible and iso report
# an input error (exit 2) on them.
NO_BIPRODUCT = {"h4", "h4_classical", "example24"}
LADDER_STEPS = ("build", "solve", "check_hom_bialgebra", "check_antipode",
                "yau_twist", "mutant_build", "mutant_check")
ENTRY_POINT = "import sys; from homhopf.cli import main; sys.exit(main())"


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# setup


def setup(workload: str, seed: int, work: Path):
    import homhopf  # noqa: F401  (the import is part of set-up time)

    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    if workload == "corpus":
        with open(SRC / "homhopf" / "goldens.json") as fh:
            goldens = json.load(fh)["entries"]
        inputs = {"goldens": goldens}
    elif workload == "ladder_gfp":
        import taft

        inputs = {"rungs": taft.make_ladder(seed)}
    else:
        import taft

        rung = taft.make_rung(4, rng)
        (work / "t4.struct").write_text(taft.export_struct(rung))
        (work / "t4_mutant.struct").write_text(
            taft.export_struct(rung, mutated=True))
        sign = rng.choice((-1, 1))
        inputs = {"commands": cli_commands(
            work, m=sign * rng.randrange(9500, 10500),
            k=-sign * rng.randrange(9500, 10500))}
    (work / "inputs.json").write_text(json.dumps(inputs))


def cli_commands(work: Path, m: int, k: int) -> list[dict]:
    """The CLI pass: argv (relative to the checkout root) and expected exit
    code of each command.  ``mutant`` marks the check that must fail with a
    witness."""
    data = "src/homhopf/data"
    out = os.path.relpath(work, ROOT)
    cmds = []
    for f in SHIPPED:
        for command in ("check", "antipode", "admissible", "iso"):
            expect = 2 if command in ("admissible", "iso") \
                and f in NO_BIPRODUCT else 0
            for extra in ([], ["--json"]):
                cmds.append({"argv": [command, f"{data}/{f}.struct"] + extra,
                             "expect": expect})
    for kind, src in (("crossed", "example24"), ("smash", "radford"),
                      ("biproduct", "radford")):
        target = f"{out}/built_{kind}.struct"
        cmds.append({"argv": ["build", kind, f"{data}/{src}.struct",
                              "-o", target], "expect": 0})
        cmds.append({"argv": ["check", target], "expect": 0})
    cmds.append({"argv": ["build", "crossed", f"{data}/example24.struct",
                          "-m", str(m), "-k", str(k)], "expect": 0})
    cmds.append({"argv": ["check", f"{out}/t4.struct"], "expect": 0})
    cmds.append({"argv": ["antipode", f"{out}/t4.struct"], "expect": 0})
    cmds.append({"argv": ["check", f"{out}/t4_mutant.struct", "--json"],
                  "expect": 1, "mutant": True})
    return cmds


# ---------------------------------------------------------------------------
# passes


def corpus_pass(inputs, items, homhopf):
    """One ``corpus.selftest()``; each golden-check thunk is one item."""
    corpus = homhopf.corpus
    make_entries = corpus.corpus_entries

    def timed(entry_name, check_name, thunk):
        def run():
            start = perf_counter()
            try:
                return thunk()
            finally:
                items.append([f"{entry_name}/{check_name}",
                              perf_counter() - start, False])
        return run

    def timed_entries(*args, **kwargs):
        entries = make_entries(*args, **kwargs)
        for entry in entries:
            entry.checks = {name: timed(entry.name, name, thunk)
                            for name, thunk in entry.checks.items()}
        return entries

    corpus.corpus_entries = timed_entries
    try:
        ok, results = corpus.selftest()
    finally:
        corpus.corpus_entries = make_entries
    got = {f"{e}/{c}": verdict for e, cell in results.items()
           for c, (_, verdict) in cell.items()}
    golden = {f"{e}/{c}": v for e, cell in inputs["goldens"].items()
              for c, v in cell.items()}
    for item in items:
        item[2] = got.get(item[0]) == golden.get(item[0])
    errors = []
    if set(got) != set(golden):
        errors.append("selftest checks differ from goldens.json")
    if not ok:
        errors.append("selftest reported a mismatch")
    return errors


def ladder_pass(inputs, items, homhopf):
    """Each Taft rung: build, solve the antipode, check, twist, mutate."""
    import taft

    errors = []
    for rung in inputs["rungs"]:
        state: dict = {}
        label = f"T{rung['n']}/GF({rung['p']})"
        for step in LADDER_STEPS:
            start = perf_counter()
            try:
                ok = _ladder_step(step, rung, state, homhopf, taft)
            except Exception as e:  # a crash is a failed operation
                ok = False
                errors.append(f"{label} {step}: {type(e).__name__}: {e}")
            items.append([f"{label}/{step}", perf_counter() - start, ok])
            if not ok and step in ("build", "solve"):
                for rest in LADDER_STEPS[LADDER_STEPS.index(step) + 1:]:
                    items.append([f"{label}/{rest}", 0.0, False])
                break
    return errors


def _ladder_step(step, rung, state, homhopf, taft) -> bool:
    if step == "build":
        state["h"] = taft.hopf_from_rung(rung)
        return True
    h = state["h"]
    if step == "solve":
        solved = homhopf.convolution_inverse(
            homhopf.identity(h.field, h.space), h.coalgebra, h.algebra)
        state["hs"] = homhopf.HomHopf(h.bialgebra, solved)
        return solved == h.antipode  # closed-form oracle
    if step == "check_hom_bialgebra":
        return homhopf.check_hom_bialgebra(state["hs"].bialgebra).passed
    if step == "check_antipode":
        return homhopf.check_antipode(state["hs"]).passed
    if step == "yau_twist":
        phi = taft.twist_map(rung)
        twisted = homhopf.yau_twist(state["hs"], phi)
        return twisted.alpha == phi
    if step == "mutant_build":
        state["mutant"] = taft.mutated_hopf(rung)
        return True
    report = homhopf.check_hom_bialgebra(state["mutant"].bialgebra)
    unit_law = report.find("left_unit_law")
    j = rung["mutation"]["j"]
    return (not report.passed and report.witness.lhs != report.witness.rhs
            and not unit_law.passed
            and unit_law.witness.basis == (taft.basis_names(rung["n"])[j],)
            and unit_law.witness.lhs != unit_law.witness.rhs)


def cli_pass(inputs, items, work: Path, trace: bool):
    """Every command as a fresh process, one after another."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    trace_dir = work / "trace"
    if trace:
        trace_dir.mkdir(exist_ok=True)
    summaries, outputs, errors = [], [], []
    for i, cmd in enumerate(inputs["commands"]):
        if trace:
            summary = trace_dir / f"summary-{i}.json"
            argv = [sys.executable, str(BENCH / "worker.py"), "cli",
                    "--summary", str(summary),
                    "--spans", str(trace_dir / f"spans-{i}.json"), "--"]
        else:
            argv = [sys.executable, "-c", ENTRY_POINT]
        start = perf_counter()
        try:
            proc = subprocess.run(argv + cmd["argv"], cwd=ROOT, env=env,
                                  capture_output=True,
                                  timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            items.append([" ".join(cmd["argv"]), perf_counter() - start,
                          False])
            errors.append(f"timeout: {' '.join(cmd['argv'])}")
            outputs.append("")
            continue
        elapsed = perf_counter() - start
        ok = proc.returncode == cmd["expect"] and _cli_output_ok(cmd, proc)
        if not ok:
            errors.append(f"{' '.join(cmd['argv'])}: exit {proc.returncode}"
                          f" {proc.stderr.decode(errors='replace')[-300:]}")
        items.append([" ".join(cmd["argv"]), elapsed, ok])
        outputs.append(hashlib.sha256(proc.stdout).hexdigest())
        if trace and ok:
            summaries.append(json.loads(summary.read_text()))
    return errors, outputs, summaries


def _cli_output_ok(cmd, proc) -> bool:
    if "--json" not in cmd["argv"]:
        return True
    try:
        return _json_report_ok(cmd, proc.returncode, json.loads(proc.stdout))
    except (ValueError, KeyError, TypeError):
        return False


def _json_report_ok(cmd, returncode, doc) -> bool:
    if doc.get("exit_code") != returncode:
        return False
    if cmd["expect"] == 2:
        return "error" in doc
    verdicts = [r["report"]["verdict"] for r in doc["results"]]
    if not cmd.get("mutant"):
        return bool(verdicts) and all(v == "pass" for v in verdicts)
    failed = [r["report"] for r in doc["results"]
              if r["report"]["verdict"] == "fail"]
    return bool(failed) and all(
        r["witness"]["lhs"] != r["witness"]["rhs"] for r in failed)


def run_pass(workload: str, work: Path, result: Path, trace: bool):
    inputs = json.loads((work / "inputs.json").read_text())
    items: list = []
    out: dict = {}
    tracer = None
    if workload == "cli":
        errors, out["outputs"], summaries = cli_pass(inputs, items, work,
                                                     trace)
        out["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
        if trace:
            import tracer as tracing

            out["trace"] = tracing.merge(summaries)
            out["import_s"] = [s["import_s"] for s in summaries]
    else:
        start = perf_counter()
        import homhopf
        import homhopf.corpus  # noqa: F401  (selftest lives here)
        out["import_s"] = [perf_counter() - start]
        if trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        run = corpus_pass if workload == "corpus" else ladder_pass
        try:
            errors = run(inputs, items, homhopf)
        except Exception as e:  # the pass aborted: record it as a failure
            errors = [f"pass aborted: {type(e).__name__}: {e}"]
        out["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            out["trace"] = tracer.summary()
            tracer.write_spans(work / "spans.json")
    if workload == "corpus":
        expected = sum(len(c) for c in inputs["goldens"].values())
        if len(items) < expected:
            errors.append(f"only {len(items)} of {expected} checks ran")
            items.extend([["missing", 0.0, False]] * (expected - len(items)))
    out["items"] = items
    out["errors"] = errors
    result.write_text(json.dumps(out))


def run_traced_command(summary: Path, spans: Path, argv: list[str]) -> int:
    start = perf_counter()
    import homhopf.cli
    import_s = perf_counter() - start
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    begin = perf_counter()
    code = homhopf.cli.main(argv)
    total = perf_counter() - begin
    sys.stdout.flush()
    data = tracer.summary()
    data["import_s"] = import_s
    data["stats"][f"cli.{argv[0]}"] = [1, total, total]
    summary.write_text(json.dumps(data))
    tracer.write_spans(spans)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", type=Path, required=True)
    p = sub.add_parser("pass")
    p.add_argument("--workload", required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--trace", action="store_true")
    p = sub.add_parser("cli")
    p.add_argument("--summary", type=Path, required=True)
    p.add_argument("--spans", type=Path, required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup(args.workload, args.seed, args.work)
        return 0
    if args.mode == "pass":
        run_pass(args.workload, args.work, args.result, args.trace)
        return 0
    rest = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    return run_traced_command(args.summary, args.spans, rest)


if __name__ == "__main__":
    sys.exit(main())
