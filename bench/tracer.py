"""Outside-in tracer: wraps homhopf's public functions from the benchmark's
own files, so the program under test is not edited.

Every wrapped function becomes a span (name, start, end, parent id).  Its
self time is its duration minus the time covered by its direct child spans.
Functions called millions of times per pass (``fields.coerce``) are
aggregated the same way but not stored one by one; ``ModInt`` constructions
are only counted.  Module-level names bound by ``from .x import f`` are
rebound too, so a call through any importing module is seen.

Counters are exact work counts: they depend only on the inputs, so two
traced passes over the same inputs must report identical values.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from functools import cached_property
from time import perf_counter

# module -> public functions wrapped as spans
FUNCTIONS = {
    "exactlin": ["compose", "tensor", "inverse", "power", "equal_on_basis",
                 "maps_equal", "solve_linear"],
    "convact": ["convolve", "convolution_inverse", "cocycle_inverse",
                "pair_coalgebra", "check_weak_module_algebra",
                "check_hom_module", "check_hom_comodule",
                "check_comodule_coalgebra", "check_cocycle_inverse"],
    "homcore": ["check_hom_algebra", "check_hom_coalgebra",
                "check_hom_bialgebra", "check_antipode",
                "check_bialgebra_automorphism", "yau_twist",
                "tensor_algebra", "tensor_coalgebra"],
    "constructions": ["crossed_product", "smash_product", "smash_coproduct",
                      "build_biproduct", "biproduct_antipode",
                      "check_cocycle_conditions",
                      "check_twisted_comodule_cocycle",
                      "check_biproduct_conditions", "check_sigma_antipode",
                      "check_algebra_antipode"],
    "admissible": ["canonical_system", "check_admissible",
                   "check_canonical_actions", "admissible_isomorphism",
                   "check_cocycle_inverse_identities", "check_twisted_module",
                   "check_weak_bimodule"],
    "corpus": ["corpus_entries", "selftest"],
    "structfile": ["parse"],
}

PIPELINE_STEPS = {"__init__": "init", "map_leg": "map_leg",
                  "split_leg": "split_leg", "merge_legs": "merge_legs",
                  "permute": "permute", "adjoin_vector": "adjoin_vector",
                  "finish": "finish"}

# Functions whose inputs are fingerprinted by value for .distinct_ratio.
DISTINCT = ("constructions.build_biproduct", "constructions.crossed_product",
            "convact.pair_coalgebra", "homcore.yau_twist",
            "admissible.check_admissible", "convact.convolution_inverse")


def fingerprint(obj) -> str:
    """Digest of an object's structure constants, blind to object identity
    and to lazily cached derived data."""
    return hashlib.blake2b(repr(_canon(obj)).encode(),
                           digest_size=16).hexdigest()


def _canon(obj):
    from fractions import Fraction

    from homhopf import CheckReport, LinearMap, ModInt, Space

    if obj is None or isinstance(obj, (bool, int, str, Fraction, ModInt)):
        return obj if not isinstance(obj, ModInt) else (obj.value, obj.p)
    if isinstance(obj, (tuple, list)):
        return tuple(_canon(v) for v in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, _canon(v)) for k, v in obj.items()))
    if isinstance(obj, Space):
        return obj.names
    if isinstance(obj, LinearMap):
        return ("map", repr(obj.field), obj.domain.names, obj.codomain.names,
                _canon(obj.matrix))
    if isinstance(obj, CheckReport):
        return ("report", obj.name, obj.passed)
    cls = type(obj)
    if dataclasses.is_dataclass(obj):
        return (cls.__name__,) + tuple(
            _canon(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if hasattr(obj, "__dict__"):
        derived = {k for k, v in vars(cls).items()
                   if isinstance(v, cached_property)}
        return (cls.__name__,) + tuple(
            (k, _canon(v)) for k, v in sorted(vars(obj).items())
            if not k.startswith("_") and k not in derived)
    return repr(obj)


class Tracer:
    """Span and counter store for one process; ``install`` patches homhopf."""

    def __init__(self):
        self.spans: list = []          # (id, name, start, end, parent id)
        self.stats: dict = {}          # name -> [calls, self s, total s]
        self.counters: dict = {}
        self.inputs: dict = {}         # name -> set of input fingerprints
        self._stack: list = []         # [span id, child seconds]
        self._next_id = 0
        self._modint = [0]

    # -- recording -----------------------------------------------------

    def count(self, name: str, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, before=None, after=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        tracer = self
        if name in DISTINCT:
            seen = self.inputs.setdefault(name, set())

            def note_input(args, kwargs):
                seen.add(fingerprint((args, kwargs)))

            before = note_input if before is None else before

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent = stack[-1][0] if stack else -1
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - frame[1]
                stats[2] += duration
                if stack:
                    stack[-1][1] += duration
                spans.append((span_id, name, start, end, parent))
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_leaf(self, name: str, fn):
        """A lean wrapper for hot functions with no traced callees: timed
        and counted, charged to the caller's child time, never stored."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        def traced(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                duration = perf_counter() - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration
                if stack:
                    stack[-1][1] += duration

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap the listed functions and methods of an imported homhopf and
        rebind every module-level name that referred to an original."""
        from homhopf import exactlin, fields, structfile

        replaced = {}
        for module_name, names in FUNCTIONS.items():
            module = sys.modules[f"homhopf.{module_name}"]
            for fname in names:
                orig = getattr(module, fname)
                hooks = self._hooks(f"{module_name}.{fname}")
                replaced[id(orig)] = (orig, self.wrap(
                    f"{module_name}.{fname}", orig, **hooks))
        for mod in [m for n, m in list(sys.modules.items())
                    if n == "homhopf" or n.startswith("homhopf.")]:
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

        for meth, step in PIPELINE_STEPS.items():
            name = f"exactlin.Pipeline.{step}"
            after = None if step in ("init", "finish") else self._nnz
            setattr(exactlin.Pipeline, meth, self.wrap(
                name, getattr(exactlin.Pipeline, meth), after=after))
        exactlin.LinearMap.__init__ = self.wrap(
            "exactlin.LinearMap", exactlin.LinearMap.__init__,
            after=lambda a, k, r: self.count(
                "exactlin.LinearMap.entries",
                a[0].domain.dim * a[0].codomain.dim))
        structfile.DocumentBuilder.to_text = self.wrap(
            "structfile.to_text", structfile.DocumentBuilder.to_text,
            after=lambda a, k, r: self.count("structfile.to_text.bytes",
                                             len(r.encode())))
        for cls in (fields.RationalField, fields.PrimeField):
            cls.coerce = self.wrap_leaf("fields.coerce", cls.coerce)

        cell = self._modint
        modint_init = fields.ModInt.__init__

        def counted_init(obj, value, p):
            cell[0] += 1
            modint_init(obj, value, p)

        fields.ModInt.__init__ = counted_init

    def _hooks(self, name: str) -> dict:
        if name == "exactlin.power":
            return {"before": lambda a, k: self.count(
                "exactlin.power.exponent_abs_sum", abs(a[1]))}
        if name == "exactlin.solve_linear":
            def before(a, k):
                rows = a[1]
                self.count("exactlin.solve_linear.equations", len(rows))
                self.count("exactlin.solve_linear.unknowns",
                           len(rows[0]) if rows else 0)
                self.count("exactlin.solve_linear.nonzeros",
                           sum(1 for row in rows for v in row if v))
            return {"before": before}
        if name == "exactlin.equal_on_basis":
            def after(a, k, report):
                self.count("exactlin.equal_on_basis.columns", a[1].domain.dim)
                self.count("exactlin.equal_on_basis.failed",
                           0 if report.passed else 1)
            return {"after": after}
        if name == "structfile.parse":
            def before(a, k):
                text = a[0]
                self.count("structfile.parse.bytes", len(
                    text if isinstance(text, bytes) else text.encode()))
            return {"before": before}
        return {}

    def _nnz(self, args, kwargs, pipeline):
        self.count("exactlin.Pipeline.nnz_rewritten",
                   sum(len(col) for col in pipeline.columns))

    # -- output --------------------------------------------------------

    def summary(self) -> dict:
        counters = dict(self.counters)
        counters["fields.modint.created"] = self._modint[0]
        return {
            "stats": dict(self.stats),
            "counters": counters,
            "inputs": {k: sorted(v) for k, v in self.inputs.items()},
            "spans": len(self.spans),
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def merge(summaries) -> dict:
    """Combine the summaries of several processes (one per CLI command):
    calls, times and counts add; input fingerprints are unioned."""
    out = {"stats": {}, "counters": {}, "inputs": {}, "spans": 0}
    for s in summaries:
        for k, values in s["stats"].items():
            acc = out["stats"].setdefault(k, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                acc[i] += v
        for k, v in s["counters"].items():
            out["counters"][k] = out["counters"].get(k, 0) + v
        for k, v in s["inputs"].items():
            out["inputs"].setdefault(k, set()).update(v)
        out["spans"] += s["spans"]
    out["inputs"] = {k: sorted(v) for k, v in out["inputs"].items()}
    return out
