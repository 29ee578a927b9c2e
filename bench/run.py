"""homhopf benchmark: one command, three workloads, correctness-gated.

    python3 bench/run.py --workload corpus|ladder_gfp|cli|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` and nothing is installed.  Load shape: a closed loop with one
client.  One pass runs at a time, each in a fresh interpreter (a user runs
one ``homhopf`` process per command), so no pass sees state left by another;
caches may still fill within a pass.  Why each workload exists and which
numbers it should move is in ``bench/WORKLOADS.md``.

A run first sets up the inputs from ``--seed`` several times in fresh
interpreters, and once more before every pass (``setup_s`` is the median).
It runs whole passes until ``--seconds`` have elapsed and at least
``MIN_ITEMS`` items have been timed, so that ten item samples lie beyond the
90th percentile.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
traced and untraced passes alternate and the per-layer metrics are printed,
together with the tracing overhead.  Each metric is one line
``name value unit (n=samples)``; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import DISTINCT, FUNCTIONS, PIPELINE_STEPS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("corpus", "ladder_gfp", "cli")

SETUP_REPEATS = 5
MIN_ITEMS = 100
RUN_CAP_S = 150        # no pass starts after this; keeps a run under 180 s
PROCESS_TIMEOUT_S = 170

# Per-layer metrics, printed with --trace 1 (see WORKLOADS.md).
CALLS = (["fields.coerce", "exactlin.LinearMap"]
         + [f"exactlin.Pipeline.{step}" for step in PIPELINE_STEPS.values()]
         + [f"{module}.{name}" for module, names in FUNCTIONS.items()
            for name in names]
         + ["structfile.to_text"])
# Self times are reported as metrics only for functions every workload
# calls, so no time metric is structurally zero; the printed table shows
# self and total time of every wrapped function.
SELF_TIMES = [
    "fields.coerce", "exactlin.LinearMap",
    "exactlin.compose", "exactlin.tensor", "exactlin.inverse",
    "exactlin.equal_on_basis", "exactlin.solve_linear",
    "exactlin.Pipeline.init", "exactlin.Pipeline.map_leg",
    "exactlin.Pipeline.split_leg", "exactlin.Pipeline.merge_legs",
    "exactlin.Pipeline.permute", "exactlin.Pipeline.adjoin_vector",
    "exactlin.Pipeline.finish",
    "convact.convolve", "convact.convolution_inverse",
    "homcore.check_hom_algebra", "homcore.check_hom_coalgebra",
    "homcore.check_hom_bialgebra", "homcore.check_antipode",
]
LAYER_SELF_TIMES = ["fields", "exactlin", "convact", "homcore"]
COUNTERS = [
    "fields.modint.created", "exactlin.LinearMap.entries",
    "exactlin.Pipeline.nnz_rewritten", "exactlin.equal_on_basis.columns",
    "exactlin.equal_on_basis.failed", "exactlin.solve_linear.unknowns",
    "exactlin.solve_linear.equations", "exactlin.solve_linear.nonzeros",
    "exactlin.power.exponent_abs_sum", "structfile.parse.bytes",
    "structfile.to_text.bytes",
]


class ProgramMissing(RuntimeError):
    """The checkout holds no homhopf sources to benchmark."""


def run_process(argv, timeout=PROCESS_TIMEOUT_S) -> float:
    """Run argv in its own process group to completion; returns wall seconds.
    The whole group is killed if it outlives the timeout or we are
    interrupted, and always waited for."""
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(map(str, argv[1:4]))} failed "
                           f"(exit {proc.returncode}): "
                           f"{err.decode(errors='replace')[-2000:]}")
    return elapsed


def worker(*args) -> list[str]:
    return [sys.executable, str(BENCH / "worker.py"), *map(str, args)]


def quantile(values, q: int) -> float:
    """The q-th percentile, as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """One run; returns (metrics {name: (value, unit, samples)}, attempted,
    failed, errors)."""
    if not (ROOT / "src" / "homhopf" / "__init__.py").is_file():
        raise ProgramMissing(f"no homhopf sources under {ROOT / 'src'}")
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    setup_argv = worker("setup", "--workload", workload, "--seed", seed,
                        "--work", work)
    run_process(setup_argv)  # untimed: compiles bytecode once
    # Set-up is timed in a burst and again before every pass, so that its
    # median spans the same stretch of machine time as the passes.
    setups = [] if trace else [run_process(setup_argv)
                               for _ in range(SETUP_REPEATS)]

    passes = []  # (traced, wall seconds, result)
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        n_items = sum(len(r["items"]) for t, _, r in passes if not t)
        if trace:
            done = elapsed >= seconds and {t for t, _, _ in passes} == {
                False, True}
            traced = bool(passes) and not passes[-1][0]
        else:
            done = elapsed >= seconds and n_items >= MIN_ITEMS
            traced = False
        if done or (passes and elapsed >= RUN_CAP_S):
            break
        if not trace:
            setups.append(run_process(setup_argv))
        result_file = work / "result.json"
        argv = worker("pass", "--workload", workload, "--work", work,
                      "--result", result_file)
        if traced:
            argv.append("--trace")
        wall = run_process(argv)
        passes.append((traced, wall, json.loads(result_file.read_text())))

    errors = [e for _, _, r in passes for e in r["errors"]]
    items = [it for _, _, r in passes for it in r["items"]]
    attempted = len(items)
    failed = sum(1 for it in items if not it[2])
    if workload == "cli":
        outputs = [r["outputs"] for _, _, r in passes]
        drift = [i for i, out in enumerate(zip(*outputs)) if len(set(out)) > 1]
        for i in drift:
            errors.append(f"output of command {i} differs between passes")
        failed += len(drift) * (len(passes) - 1)

    if trace:
        metrics, trace_errors = layer_metrics(passes)
        errors += trace_errors
    else:
        metrics = end_to_end_metrics(setups, passes)
    return metrics, attempted, failed, errors


def end_to_end_metrics(setups, passes) -> dict:
    walls = [w for _, w, _ in passes]
    latencies = [it[1] * 1000.0 for _, _, r in passes for it in r["items"]]
    rss = [r["peak_rss_mb"] for _, _, r in passes]
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "pass_s": (statistics.median(walls), "s", len(walls)),
        "item_p50_ms": (statistics.median(latencies), "ms", len(latencies)),
        "item_p90_ms": (quantile(latencies, 90), "ms", len(latencies)),
        "peak_rss_mb": (statistics.median(rss), "MB", len(rss)),
    }


def layer_metrics(passes):
    """Per-layer metrics from the traced passes: counts from one pass (they
    must repeat exactly), times as medians over traced passes."""
    traced = [r for t, _, r in passes if t]
    summaries = [r["trace"] for r in traced]
    errors = []
    first = summaries[0]
    for s in summaries[1:]:
        if ({k: v[0] for k, v in s["stats"].items()}
                != {k: v[0] for k, v in first["stats"].items()}
                or s["counters"] != first["counters"]
                or s["inputs"] != first["inputs"]):
            errors.append("work counters differ between traced passes")
    n = len(summaries)
    metrics = {}
    stats = first["stats"]
    for name in CALLS:
        metrics[f"{name}.calls"] = (stats.get(name, [0])[0], "count", n)
    for name in SELF_TIMES:
        metrics[f"{name}.self_s"] = (statistics.median(
            s["stats"].get(name, [0, 0.0])[1] for s in summaries), "s", n)
    for layer in LAYER_SELF_TIMES:
        metrics[f"{layer}.self_s"] = (statistics.median(
            sum(v[1] for k, v in s["stats"].items()
                if k.startswith(layer + ".")) for s in summaries), "s", n)
    for name in COUNTERS:
        metrics[name] = (first["counters"].get(name, 0), "count", n)
    for name in DISTINCT:
        calls = stats.get(name, [0])[0]
        distinct = len(first["inputs"].get(name, []))
        metrics[f"{name}.distinct_ratio"] = (
            distinct / calls if calls else 0.0, "ratio", calls)
    imports = [statistics.median(r["import_s"]) for r in traced]
    metrics["homhopf.import_s"] = (statistics.median(imports), "s", n)
    traced_walls = [w for t, w, _ in passes if t]
    plain_walls = [w for t, w, _ in passes if not t]
    metrics["trace.pass_s"] = (statistics.median(traced_walls), "s", n)
    metrics["trace.untraced_pass_s"] = (
        statistics.median(plain_walls), "s", len(plain_walls))
    metrics["trace.overhead_ratio"] = (
        metrics["trace.pass_s"][0] / metrics["trace.untraced_pass_s"][0],
        "ratio", n)
    metrics["trace.spans"] = (first["spans"], "count", n)
    print_layer_table(stats)
    return metrics, errors


def print_layer_table(stats):
    print("# per-function calls, self s, total s (one traced pass)")
    for name in sorted(stats):
        calls, self_s, total_s = stats[name]
        if calls:
            print(f"#   {name:52s} {calls:9d} {self_s:11.6f} {total_s:11.6f}")


def report(workload, metrics, attempted, failed):
    print(f"== {workload}: {attempted} operations, {failed} failed")
    for name, (value, unit, samples) in metrics.items():
        print(f"{workload}.{name} {value:.6g} {unit} (n={samples})")
    print(f"{workload}.fail_ratio {failed / attempted:.6g} ratio "
          f"(n={attempted})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in chosen:
        try:
            metrics, attempted, failed, errors = run_workload(
                workload, args.seed, args.seconds, bool(args.trace))
        except ProgramMissing as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        for e in errors:
            print(f"error: {workload}: {e}", file=sys.stderr)
        report(workload, metrics, attempted, failed)
        out["correct"] = out["correct"] and not errors and failed == 0
        out["attempted"] += attempted
        out["failed"] += failed
        prefix = "" if len(chosen) == 1 else f"{workload}."
        for name, (value, unit, _) in metrics.items():
            out["metrics"][prefix + name] = {"value": value, "unit": unit}
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
