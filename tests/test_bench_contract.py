"""The names the benchmark's tracer wraps still exist in the library.

``bench/tracer.py`` patches homhopf from the outside by name, so renaming a
function or a ``Pipeline`` step would silently drop it from every traced
run.  Its ``.distinct_ratio`` counters fingerprint the structure records
by value, so a record must fingerprint by its structure constants alone:
equal for equal constants, different after a one-entry change, and blind
to cached derived maps.  The tracer module is loaded by path and only
read: nothing is installed or patched here.
"""

import importlib
import importlib.util
import inspect
from dataclasses import replace
from pathlib import Path

import pytest

from homhopf.corpus import classical_radford_datum
from homhopf.exactlin import LinearMap, Pipeline, Space
from homhopf.fields import QQ, ModInt, PrimeField, RationalField
from homhopf.structfile import DocumentBuilder

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("module,name", [
    (module, name) for module, names in tracer.FUNCTIONS.items()
    for name in names])
def test_every_traced_function_exists(module, name):
    module = importlib.import_module(f"homhopf.{module}")
    assert callable(getattr(module, name))


@pytest.mark.parametrize("method", sorted(tracer.PIPELINE_STEPS))
def test_every_traced_pipeline_step_is_a_method(method):
    assert callable(getattr(Pipeline, method))


def test_pipeline_columns_is_readable_after_a_step():
    sp = Space(("x", "y"))
    flip = LinearMap(QQ, sp, sp, [[0, 1], [1, 0]])
    pipe = Pipeline(QQ, [sp, sp]).map_leg(0, flip)
    assert sum(len(col) for col in pipe.columns) == 4


def test_other_wrapped_names_exist():
    assert callable(LinearMap.__init__)
    assert callable(DocumentBuilder.to_text)
    assert callable(RationalField.coerce)
    assert callable(PrimeField.coerce)
    assert list(inspect.signature(ModInt.__init__).parameters) == [
        "self", "value", "p"]


def bump_cube(cube):
    out = [[list(plane) for plane in slab] for slab in cube]
    out[0][0][0] += 1
    return out


def bump_map(f):
    rows = [list(row) for row in f.matrix]
    rows[0][0] += 1
    return LinearMap(f.field, f.domain, f.codomain, rows)


# record of a biproduct datum -> (its one-entry bump, a read of derived data)
RECORDS = {
    "HomAlgebra": (lambda d: d.crossed.algebra,
                   lambda r: replace(r, mult=bump_cube(r.mult)),
                   lambda r: r.mult_map),
    "HomCoalgebra": (lambda d: d.coalgebra,
                     lambda r: replace(r, comult=bump_cube(r.comult)),
                     lambda r: r.comult_map),
    "HomBialgebra": (lambda d: d.crossed.hopf_bialgebra,
                     lambda r: replace(r, algebra=replace(
                         r.algebra, mult=bump_cube(r.algebra.mult))),
                     lambda r: (r.algebra.mult_map, r.pair_coalgebra)),
    "HomHopf": (lambda d: d.crossed.hopf,
                lambda r: replace(r, antipode=bump_map(r.antipode)),
                lambda r: r.algebra.mult_map),
    "ModuleAction": (lambda d: d.crossed.action,
                     lambda r: replace(r, act=bump_cube(r.act)),
                     lambda r: r.act_map),
    "Coaction": (lambda d: d.coaction,
                 lambda r: replace(r, coact=bump_cube(r.coact)),
                 lambda r: r.coact_map),
    "Cocycle": (lambda d: d.crossed.cocycle,
                lambda r: replace(r, sigma=bump_cube(r.sigma)),
                lambda r: r.sigma_map),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_tracer_fingerprints_a_record_by_its_constants(name):
    record, bump, derive = RECORDS[name]
    first = record(classical_radford_datum())
    again = record(classical_radford_datum())
    assert type(first).__name__ == name and first is not again
    assert tracer.fingerprint(first) == tracer.fingerprint(again)
    assert tracer.fingerprint(bump(first)) != tracer.fingerprint(first)
    derive(first)
    assert tracer.fingerprint(first) == tracer.fingerprint(again)
