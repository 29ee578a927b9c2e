"""The package namespace is lazy and unchanged.

``import homhopf`` loads no submodule; every public name still resolves to
the object its home submodule defines, ``from homhopf import *`` and
``dir(homhopf)`` list the same names, and the benchmark tracer still finds
every module it patches after each benchmark entry's imports.  Each check
runs in a fresh interpreter, because a module once imported stays loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import homhopf

SRC = Path(homhopf.__file__).resolve().parent.parent
TRACER = SRC.parent / "bench" / "tracer.py"

# home submodule -> the public names ``homhopf`` exports from it
EXPORTS = {
    "fields": "QQ BadRational ModInt PrimeField RationalField field_from_tag",
    "report": "CheckReport Witness",
    "exactlin": "DimensionMismatch FieldMismatch LinearMap NonInvertibleError"
                " NoSolution Pipeline SCALAR_SPACE Space compose identity"
                " inverse maps_equal power solve_linear tensor tensor_space",
    "homcore": "HomAlgebra HomBialgebra HomCoalgebra HomHopf NotAutomorphism"
               " TwistFailsAxiomsError check_antipode check_hom_algebra"
               " check_hom_bialgebra check_hom_coalgebra tensor_algebra"
               " tensor_coalgebra yau_twist",
    "convact": "Coaction Cocycle ModuleAction NotConvolutionInvertible"
               " check_cocycle_inverse check_comodule_coalgebra"
               " check_hom_comodule check_hom_module"
               " check_weak_module_algebra cocycle_inverse"
               " convolution_inverse convolution_unit convolve trivial_action"
               " trivial_coaction trivial_cocycle",
    "constructions": "BiproductSpec BuiltBiproduct ConditionsFailError"
                     " CrossedProductSpec PreconditionFailError"
                     " biproduct_antipode build_biproduct"
                     " check_biproduct_antipode check_biproduct_conditions"
                     " check_cocycle_conditions check_sigma_antipode"
                     " check_twisted_comodule_cocycle crossed_product"
                     " smash_coproduct smash_product",
    "admissible": "IsoCheckFailError MappingSystem NotAdmissibleError"
                  " admissible_isomorphism canonical_system check_admissible"
                  " check_canonical_actions check_cocycle_inverse_identities"
                  " check_twisted_module check_weak_bimodule",
    "structfile": "DocumentBuilder StructError StructShapeError"
                  " StructSyntaxError StructureFile UnknownReferenceError"
                  " parse",
}
SUBMODULES = [*EXPORTS, "sweedler"]
PUBLIC = sorted([*SUBMODULES, *(name for names in EXPORTS.values()
                                for name in names.split())])


def fresh(code: str):
    """Run ``code`` in a new interpreter that imports homhopf from this
    source tree; return what it printed as JSON."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


LOADED = ("sorted(m for m in sys.modules"
          " if m.split('.')[0] == 'homhopf')")


def test_all_lists_the_94_public_names():
    assert len(PUBLIC) == 94 == len(set(PUBLIC))
    assert sorted(homhopf.__all__) == PUBLIC


def test_import_homhopf_loads_no_submodule():
    assert fresh(f"import json, sys, homhopf; print(json.dumps({LOADED}))") \
        == ["homhopf"]


def test_every_public_name_is_its_home_modules_object():
    homes = {name: home for home, names in EXPORTS.items()
             for name in names.split()}
    wrong = fresh(f"""
import importlib, json, homhopf
homes = {homes!r}
wrong = [name for name, home in homes.items()
         if getattr(homhopf, name) is not getattr(
             importlib.import_module("homhopf." + home), name)]
wrong += [name for name in {SUBMODULES!r}
          if getattr(homhopf, name)
          is not importlib.import_module("homhopf." + name)]
print(json.dumps(wrong))
""")
    assert wrong == []


def test_star_import_binds_the_public_names():
    bound = fresh("""
import json
ns = {}
exec("from homhopf import *", ns)
print(json.dumps(sorted(n for n in ns if n != "__builtins__")))
""")
    assert bound == PUBLIC


def test_dir_lists_the_public_names_before_any_is_loaded():
    listed, loaded = fresh(
        f"import json, sys, homhopf; print(json.dumps([dir(homhopf), {LOADED}]))")
    assert set(PUBLIC) <= set(listed)
    assert "__version__" in listed
    assert loaded == ["homhopf"]


def test_an_unknown_name_raises_attribute_error_naming_it():
    message = fresh("""
import json, homhopf
try:
    homhopf.no_such_name
except AttributeError as e:
    print(json.dumps(str(e)))
""")
    assert "no_such_name" in message
    assert fresh("import json, homhopf; "
                 "print(json.dumps(hasattr(homhopf, 'corpus')))") is False


def install_tracer_after(imports: str):
    """Run ``imports``, then install the benchmark tracer (loaded by path)
    and return the traced functions it left unwrapped."""
    return fresh(f"""
import importlib.util, json, sys
{imports}
spec = importlib.util.spec_from_file_location("bench_tracer", {str(TRACER)!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
tracer.Tracer().install()
print(json.dumps([f"{{module}}.{{name}}"
                  for module, names in tracer.FUNCTIONS.items()
                  for name in names
                  if not hasattr(getattr(sys.modules["homhopf." + module],
                                         name), "__wrapped__")]))
""")


def test_the_tracer_installs_after_the_in_process_entry_imports():
    assert install_tracer_after("import homhopf\nimport homhopf.corpus") == []


def test_the_tracer_installs_after_the_cli_entry_import():
    assert install_tracer_after("import homhopf.cli") == []
