"""Kernel work counters: run one seeded ``ladder_gfp`` pass under cProfile and
print how often the ``Pipeline`` rewrite loop pays its per-nonzero costs,
then the nonzeros the ``Pipeline`` blocks hold over one ladder pass and over
one ``corpus.selftest()``.

    PYTHONPATH=src python tests/kernel_work.py [SEED]

The pass is the benchmark's ladder pass over ``bench/taft.make_ladder(SEED)``
(default 5): for each Taft rung T_3, T_4, T_5, build it, solve its antipode,
check the Hom-bialgebra and antipode axioms, Yau-twist it, and check its
unit-row mutant.  Printed, one per line, with the count:

- ``apply_divmods``: ``divmod`` calls made by ``Pipeline._apply`` (decoding
  a kept nonzero costs two);
- ``apply_reduction_dicts``: dict comprehensions ``Pipeline._apply`` runs
  (a second dict per output column, built to reduce it mod p);
- ``apply_calls``, ``finish_calls``: calls of ``Pipeline._apply`` and
  ``Pipeline.finish``;
- ``permute_placements``: rows ``Pipeline.permute`` writes at a new place,
  counted by ``placements`` below: the rows of each block it places
  before multiplying the blocks out, or, in a kernel that fuses first and
  then remaps, every fused nonzero;
- ``modints_created``: ``ModInt`` constructions over the whole pass;
- ``field_coerces``: ``coerce`` calls of the fields (``PrimeField`` and
  ``RationalField``) over the whole pass;
- ``modint_truth_tests``: ``ModInt.__bool__`` calls over the whole pass,
  the zero tests made on field elements (a dense cube of them costs one
  per entry);
- ``ladder_held_nonzeros``, ``selftest_held_nonzeros``: the nonzeros every
  ``Pipeline``'s blocks hold after each of its steps, summed, over one
  ladder pass and over one ``corpus.selftest()``, counted by
  ``held_nonzeros`` below, which the tests' fixture of that name returns;
- ``swept_columns``: the columns ``equal_on_basis`` compares over one
  ladder pass, the dimension of the compared maps' domain summed over its
  calls, counted by ``swept_columns`` below;
- ``elimination_updates``: the row updates ``exactlin._gauss_jordan``
  makes over one ladder pass, one per row a pivot's column is cleared
  from, counted by ``elimination_updates`` below;
- ``packed_entry_visits``: the steps the packers of dense input
  (``exactlin._nonzeros``, ``bilinear_as_map``, ``splitting_as_map`` and
  ``LinearMap.__init__``) take through a sequence in Python over one ladder
  pass, one per element a loop of theirs fetches (cube or matrix entries,
  rows, nonzeros) and one per loop ended, counted by
  ``packed_entry_visits`` below;
- ``convolution_operators``: the operators ``convact`` compiles over one
  ladder pass, its calls of ``compile_map``, counted by
  ``convolution_operators`` below;
- ``live_space_names``: the basis names the ``Space`` objects still alive
  after one ladder pass and ``gc.collect()`` hold in their ``__dict__``,
  counted by ``live_space_names`` below before anything else runs.
- ``modules_on_import``: the ``homhopf.*`` modules, the package included,
  that a bare ``import homhopf`` loads in a fresh interpreter under the
  same ``PYTHONPATH``, counted by ``modules_on_import`` below.

The counts do not change from run to run, so two checkouts compare exactly:
run it with ``PYTHONPATH`` at each checkout's ``src``.  A comprehension is
its own call only where the interpreter does not inline it (Python < 3.12).
It uses the standard library, ``homhopf`` and the benchmark's Taft builder;
pytest does not collect it.
"""

from __future__ import annotations

import cProfile
import dis
import gc
import inspect
import pstats
import subprocess
import sys
import types
from pathlib import Path

BENCH = str(Path(__file__).resolve().parent.parent / "bench")
DEFAULT_SEED = 5
BUILTIN_DIVMOD = ("~", 0, "<built-in method builtins.divmod>")


def ladder_pass(seed: int):
    """The seven steps of the benchmark's ladder pass on every rung."""
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    import taft
    from homhopf import (HomHopf, check_antipode, check_hom_bialgebra,
                         convolution_inverse, identity, yau_twist)

    for rung in taft.make_ladder(seed):
        h = taft.hopf_from_rung(rung)
        solved = convolution_inverse(identity(h.field, h.space),
                                     h.coalgebra, h.algebra)
        hs = HomHopf(h.bialgebra, solved)
        check_hom_bialgebra(hs.bialgebra)
        check_antipode(hs)
        yau_twist(hs, taft.twist_map(rung))
        check_hom_bialgebra(taft.mutated_hopf(rung).bialgebra)


def held_nonzeros(build):
    """``build()`` and the nonzeros the blocks of every ``Pipeline`` hold
    after each of its steps, summed: a count of kernel work that does not
    depend on how a scalar is stored.  A ``map_leg`` by the identity map is
    no step and adds nothing."""
    from homhopf.exactlin import Pipeline

    total = 0
    real = {name: getattr(Pipeline, name) for name in ("_rewrite", "permute")}

    def counted(step):
        def counted_step(self, *args):
            nonlocal total
            out = step(self, *args)
            total += sum(len(col) for _, cols, _ in self._blocks
                         if cols is not None for col in cols.values())
            return out
        return counted_step

    try:
        for name, step in real.items():
            setattr(Pipeline, name, counted(step))
        result = build()
    finally:
        for name, step in real.items():
            setattr(Pipeline, name, step)
    return result, total


def swept_columns(build):
    """``build()`` and the columns ``equal_on_basis`` compares while it
    runs, wherever a homhopf module binds it."""
    from homhopf import exactlin

    real = exactlin.equal_on_basis
    swept = [0]

    def counted(name, lhs, rhs, factors):
        swept[0] += lhs.domain.dim
        return real(name, lhs, rhs, factors)

    bound = [mod for name, mod in list(sys.modules.items())
             if name.split(".")[0] == "homhopf"
             and getattr(mod, "equal_on_basis", None) is real]
    try:
        for mod in bound:
            mod.equal_on_basis = counted
        result = build()
    finally:
        for mod in bound:
            mod.equal_on_basis = real
    return result, swept[0]


def elimination_updates(build):
    """``build()`` and the row updates ``_gauss_jordan`` makes while it
    runs: the times its line ``factor = row[c]`` runs, traced line by line
    in its frames only."""
    from homhopf.exactlin import _gauss_jordan

    code = _gauss_jordan.__code__
    lines, first = inspect.getsourcelines(_gauss_jordan)
    line = first + [s.strip() for s in lines].index("factor = row[c]")
    updates = [0]

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == line:
            updates[0] += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        result = build()
    finally:
        sys.settrace(previous)
    return result, updates[0]


def packed_entry_visits(build):
    """``build()`` and the loop steps the packers of dense input take while
    it runs: the ``FOR_ITER`` instructions run in the frames of their code
    and of the comprehensions nested in it, traced opcode by opcode in
    those frames only."""
    from homhopf import exactlin

    steps, todo = {}, [f.__code__ for f in (
        exactlin._nonzeros, exactlin.bilinear_as_map,
        exactlin.splitting_as_map, exactlin.LinearMap.__init__)]
    while todo:
        code = todo.pop()
        steps[code] = {i.offset for i in dis.get_instructions(code)
                       if i.opname == "FOR_ITER"}
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    visits = [0]

    def local(frame, event, arg):
        if event == "opcode" and frame.f_lasti in steps[frame.f_code]:
            visits[0] += 1
        return local

    def calls(frame, event, arg):
        if frame.f_code not in steps:
            return None
        frame.f_trace_lines, frame.f_trace_opcodes = False, True
        return local

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        result = build()
    finally:
        sys.settrace(previous)
    return result, visits[0]


def convolution_operators(build):
    """``build()`` and the calls ``convact`` makes of ``compile_map`` while
    it runs."""
    from homhopf import convact

    real, compiled = convact.compile_map, [0]

    def counted(*args):
        compiled[0] += 1
        return real(*args)

    try:
        convact.compile_map = counted
        result = build()
    finally:
        convact.compile_map = real
    return result, compiled[0]


def live_space_names(build):
    """``build()`` and the basis names held in ``__dict__`` by the ``Space``
    objects alive once it has returned and ``gc.collect()`` has run."""
    from homhopf.exactlin import Space

    result = build()
    gc.collect()
    return result, sum(len(obj.__dict__.get("names", ()))
                       for obj in gc.get_objects() if isinstance(obj, Space))


def modules_on_import() -> int:
    """The ``homhopf.*`` modules a fresh ``import homhopf`` leaves in
    ``sys.modules``, the package included."""
    probe = ("import sys, homhopf; print(sum(1 for m in sys.modules"
             " if m.split('.')[0] == 'homhopf'))")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True)
    return int(out.stdout)


def placements(build):
    """``build()`` and the rows ``Pipeline.permute`` places while it runs;
    see the module docstring."""
    from homhopf.exactlin import Pipeline

    placed, in_permute = [0], [False]
    real_permute = Pipeline.permute
    real_rows = Pipeline.__dict__.get("_placed_rows")

    def permute(self, order):
        in_permute[0] = True
        try:
            out = real_permute(self, order)
        finally:
            in_permute[0] = False
        if real_rows is None:       # every fused nonzero is remapped
            placed[0] += sum(len(col) for col in self._blocks[0][1].values())
        return out

    def placed_rows(rows, moves):
        out = real_rows.__func__(rows, moves)
        if in_permute[0]:
            placed[0] += len(out)
        return out

    try:
        Pipeline.permute = permute
        if real_rows is not None:
            Pipeline._placed_rows = staticmethod(placed_rows)
        result = build()
    finally:
        Pipeline.permute = real_permute
        if real_rows is not None:
            Pipeline._placed_rows = real_rows
    return result, placed[0]


def counts(seed: int) -> dict:
    from homhopf.corpus import selftest
    from homhopf.exactlin import Pipeline
    from homhopf.fields import ModInt, PrimeField, RationalField

    _, live_names = live_space_names(lambda: ladder_pass(seed))
    profile = cProfile.Profile()
    profile.runcall(ladder_pass, seed)
    stats = pstats.Stats(profile).stats

    def key(function):
        code = function.__code__
        return code.co_filename, code.co_firstlineno, code.co_name

    def calls(callee, caller=None) -> int:
        """Calls of ``callee`` (a profile key, or a code name such as
        ``<dictcomp>``), all of them or those made by ``caller``."""
        total = 0
        for func, (_, ncalls, _, _, callers) in stats.items():
            if callee not in (func, func[2]):
                continue
            total += ncalls if caller is None else callers.get(
                caller, (0, 0))[1]
        return total

    apply, finish = key(Pipeline._apply), key(Pipeline.finish)
    _, placed = placements(lambda: ladder_pass(seed))
    return {
        "apply_divmods": calls(BUILTIN_DIVMOD, apply),
        "apply_reduction_dicts": calls("<dictcomp>", apply),
        "apply_calls": calls(apply),
        "finish_calls": calls(finish),
        "permute_placements": placed,
        "modints_created": calls(key(ModInt.__init__)),
        "field_coerces": calls(key(PrimeField.coerce))
        + calls(key(RationalField.coerce)),
        "modint_truth_tests": calls(key(ModInt.__bool__)),
        "ladder_held_nonzeros": held_nonzeros(lambda: ladder_pass(seed))[1],
        "selftest_held_nonzeros": held_nonzeros(selftest)[1],
        "swept_columns": swept_columns(lambda: ladder_pass(seed))[1],
        "elimination_updates":
            elimination_updates(lambda: ladder_pass(seed))[1],
        "packed_entry_visits":
            packed_entry_visits(lambda: ladder_pass(seed))[1],
        "convolution_operators":
            convolution_operators(lambda: ladder_pass(seed))[1],
        "live_space_names": live_names,
        "modules_on_import": modules_on_import(),
    }


def main(argv) -> int:
    if len(argv) > 1:
        print("usage: python tests/kernel_work.py [SEED]", file=sys.stderr)
        return 2
    seed = int(argv[0]) if argv else DEFAULT_SEED
    print(f"ladder seed {seed}")
    for name, value in counts(seed).items():
        print(f"{name} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
