"""Per-item pairs: time every ``ladder_gfp`` item, every corpus check and the
reading of two ``.struct`` files by two checkouts in alternating fresh
interpreters, and print each item's change.

    python tests/item_pairs.py PARENT CHANGE [--rounds N] [--seed S]

PARENT and CHANGE are the roots of two source checkouts.  Each round runs
one fresh interpreter per checkout, the two in turn, and swaps which of them
goes first from one round to the next (default 10 rounds).  An interpreter
imports the program from its checkout's ``src/`` and the benchmark's
passes from its ``bench/``, and times:

- each step of ``bench/worker.ladder_pass`` on every rung of
  ``taft.make_ladder(S)`` (default seed 41) and on one T_8 rung drawn after
  them;
- each golden-check thunk of ``bench/worker.corpus_pass``;
- the ``struct`` group, measured first: the first ``structfile.parse``,
  cold, of the T_4 and then the T_8 rung's ``.struct`` text, its time and
  the growth of the interpreter's peak RSS (``ru_maxrss``) it causes, in
  MB.  The texts are exported once, by PARENT's ``taft.export_struct`` in
  an interpreter of their own, into a temporary folder, and each
  interpreter reads them from there.

One pass of each ladder or corpus item runs first to fill caches and finish
lazy set-up; each item's time is then the minimum over ``REPEATS`` further
passes.  For every item, and for the sum of the ladder's and the corpus's
items, it prints the parent's median (in ms, or MB for a peak RSS growth),
the change of the change's median in percent, and the rounds the change
won (its value lower) out of N.  Any item whose outcome is wrong, or pass
that reports an error, stops the run.

It uses the standard library only, reads ``bench/`` and writes nothing
there; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = str(Path(__file__).resolve().parent)
REPEATS = 5
DEFAULT_ROUNDS = 10
DEFAULT_SEED = 41
STRUCT_RUNGS = (4, 8)
# run in a fresh interpreter: argv is HERE, FUNCTION, its arguments
CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import item_pairs; "
         "getattr(item_pairs, sys.argv[2])(*sys.argv[3:])")


def _passes(run_pass) -> dict:
    """{item: its lowest time} over ``REPEATS`` passes of ``run_pass``, after
    one pass that is not timed."""
    best: dict = {}
    for repeat in range(REPEATS + 1):
        items: list = []
        errors = run_pass(items)
        bad = errors + [name for name, _, ok in items if not ok]
        if bad:
            raise SystemExit(f"wrong outcome: {bad}")
        if repeat:
            for name, seconds, _ in items:
                best[name] = min(seconds, best.get(name, seconds))
    return best


def _bench(root: str):
    """The benchmark's ``taft`` and ``worker`` modules of the checkout at
    ``root``; importing ``worker`` puts its ``src/`` first on sys.path."""
    sys.path.insert(0, str(Path(root) / "bench"))
    import taft
    import worker

    return taft, worker


def export(root: str, seed: str, folder: str):
    """Write the ``.struct`` text of the T_4 and T_8 rungs into ``folder``."""
    taft, _ = _bench(root)
    for rung in taft.make_ladder(int(seed), taft.RUNGS + (8,)):
        if rung["n"] in STRUCT_RUNGS:
            (Path(folder) / f"T_{rung['n']}.struct").write_text(
                taft.export_struct(rung))


def _struct_items(folder: str) -> dict:
    """The cold ``parse`` of each exported text: its seconds and the peak
    RSS growth it causes, in MB."""
    from homhopf.structfile import parse

    items = {}
    for n in STRUCT_RUNGS:
        text = (Path(folder) / f"T_{n}.struct").read_text()
        gc.collect()
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        start = perf_counter()
        parse(text)
        items[f"T_{n} parse"] = perf_counter() - start
        items[f"T_{n} parse peak RSS MB"] = (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss - peak) / 1024
    return items


def child(root: str, seed: str, folder: str):
    """Print, as JSON, each item's time in this interpreter for the checkout
    at ``root``."""
    taft, worker = _bench(root)
    import homhopf
    import homhopf.corpus

    struct = _struct_items(folder)  # first, before anything raises the peak
    rungs = taft.make_ladder(int(seed), taft.RUNGS + (8,))
    goldens = json.loads((Path(root) / "src" / "homhopf" / "goldens.json")
                         .read_text())["entries"]
    times = {
        "struct": struct,
        "ladder": _passes(lambda items: worker.ladder_pass(
            {"rungs": rungs}, items, homhopf)),
        "corpus": _passes(lambda items: worker.corpus_pass(
            {"goldens": goldens}, items, homhopf)),
    }
    print(json.dumps(times))


def _run(root: str, function: str, *args) -> str:
    """The output of ``function(root, *args)`` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    out = subprocess.run([sys.executable, "-c", CHILD, HERE, function, root,
                          *map(str, args)],
                         capture_output=True, text=True, env=env, cwd=root)
    if out.returncode:
        raise SystemExit(f"{root}: {out.stderr.strip()}")
    return out.stdout


def _row(name: str, before: list, after: list) -> str:
    base = median(before)
    wins = sum(a < b for a, b in zip(after, before))
    change = (median(after) / base - 1) * 100 if base else float("nan")
    shown = base if name.endswith("MB") else base * 1000
    return (f"{name:<56} {shown:10.3f} {change:+8.1f} %"
            f" {wins:3d}/{len(before)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    roots = [str(Path(args.parent).resolve()), str(Path(args.change).resolve())]
    runs: list = [[], []]
    with tempfile.TemporaryDirectory() as folder:
        _run(roots[0], "export", args.seed, folder)
        for r in range(args.rounds):
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                runs[side].append(json.loads(
                    _run(roots[side], "child", args.seed, folder)))
    print(f"seed {args.seed}, {args.rounds} rounds, "
          f"min of {REPEATS} warm passes per item")
    print(f"{'item':<56} {'parent':>10} {'change':>10} {'wins':>5}")
    for group in ("struct", "ladder", "corpus"):
        parent = [run[group] for run in runs[0]]
        change = [run[group] for run in runs[1]]
        names = list(parent[0])
        if any(set(run) != set(names) for run in parent + change):
            raise SystemExit(f"the two checkouts time different {group} items")
        for name in names:
            print(_row(name, [run[name] for run in parent],
                       [run[name] for run in change]))
        if group != "struct":
            print(_row(f"{group} total", [sum(run.values()) for run in parent],
                       [sum(run.values()) for run in change]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
