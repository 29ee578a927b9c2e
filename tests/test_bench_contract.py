"""The names the benchmark's tracer wraps still exist in the library.

``bench/tracer.py`` patches homhopf from the outside by name, so renaming a
function or a ``Pipeline`` step would silently drop it from every traced
run.  The tracer module is loaded by path and only read: nothing is
installed or patched here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

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
    assert pipe.columns == pipe.sparse_columns()
    assert sum(len(col) for col in pipe.columns) == 4


def test_other_wrapped_names_exist():
    assert callable(LinearMap.__init__)
    assert callable(DocumentBuilder.to_text)
    assert callable(RationalField.coerce)
    assert callable(PrimeField.coerce)
    assert list(inspect.signature(ModInt.__init__).parameters) == [
        "self", "value", "p"]
