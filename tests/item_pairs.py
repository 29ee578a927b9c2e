"""Per-item pairs: time every ``ladder_gfp`` item and every corpus check of two
checkouts in alternating fresh interpreters, and print each item's change.

    python tests/item_pairs.py PARENT CHANGE [--rounds N] [--seed S]

PARENT and CHANGE are the roots of two source checkouts.  Each round runs
one fresh interpreter per checkout, the two in turn, and swaps which of them
goes first from one round to the next (default 10 rounds).  An interpreter
imports the program from its checkout's ``src/`` and the benchmark's
passes from its ``bench/``, and times:

- each step of ``bench/worker.ladder_pass`` on every rung of
  ``taft.make_ladder(S)`` (default seed 41) and on one T_8 rung drawn after
  them;
- each golden-check thunk of ``bench/worker.corpus_pass``.

One pass of each runs first to fill caches and finish lazy set-up; each
item's time is then the minimum over ``REPEATS`` further passes.  For every
item, and for the sum of each group's items, it prints the parent's median
in ms, the change of the change's median in percent, and the rounds the
change won (its time lower) out of N.  Any item whose outcome is wrong, or
pass that reports an error, stops the run.

It uses the standard library only, reads ``bench/`` and writes nothing
there; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = str(Path(__file__).resolve().parent)
REPEATS = 5
DEFAULT_ROUNDS = 10
DEFAULT_SEED = 41
# run in the fresh interpreter: argv is ROOT, HERE, SEED
CHILD = ("import sys; sys.path.insert(0, sys.argv[2]); import item_pairs; "
         "item_pairs.child(sys.argv[1], int(sys.argv[3]))")


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


def child(root: str, seed: int):
    """Print, as JSON, each item's time in this interpreter for the checkout
    at ``root``."""
    bench = str(Path(root) / "bench")
    sys.path.insert(0, bench)
    import taft
    import worker       # puts its checkout's src/ first on sys.path

    import homhopf
    import homhopf.corpus

    rungs = taft.make_ladder(seed, taft.RUNGS + (8,))
    goldens = json.loads((Path(root) / "src" / "homhopf" / "goldens.json")
                         .read_text())["entries"]
    times = {
        "ladder": _passes(lambda items: worker.ladder_pass(
            {"rungs": rungs}, items, homhopf)),
        "corpus": _passes(lambda items: worker.corpus_pass(
            {"goldens": goldens}, items, homhopf)),
    }
    print(json.dumps(times))


def _measure(root: str, seed: int) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    out = subprocess.run([sys.executable, "-c", CHILD, root, HERE, str(seed)],
                         capture_output=True, text=True, env=env, cwd=root)
    if out.returncode:
        raise SystemExit(f"{root}: {out.stderr.strip()}")
    return json.loads(out.stdout)


def _row(name: str, before: list, after: list) -> str:
    base = median(before)
    wins = sum(a < b for a, b in zip(after, before))
    change = (median(after) / base - 1) * 100
    return (f"{name:<56} {base * 1000:10.3f} {change:+8.1f} %"
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
    for r in range(args.rounds):
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            runs[side].append(_measure(roots[side], args.seed))
    print(f"seed {args.seed}, {args.rounds} rounds, "
          f"min of {REPEATS} warm passes per item")
    print(f"{'item':<56} {'parent ms':>10} {'change':>10} {'wins':>5}")
    for group in ("ladder", "corpus"):
        parent = [run[group] for run in runs[0]]
        change = [run[group] for run in runs[1]]
        names = list(parent[0])
        if any(set(run) != set(names) for run in parent + change):
            raise SystemExit(f"the two checkouts time different {group} items")
        for name in names:
            print(_row(name, [run[name] for run in parent],
                       [run[name] for run in change]))
        print(_row(f"{group} total", [sum(run.values()) for run in parent],
                   [sum(run.values()) for run in change]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
