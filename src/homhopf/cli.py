"""Command-line interface.

    homhopf check FILE --what WHAT   verify an axiom set on a .struct file
    homhopf build KIND FILE ...      build crossed / smash / biproduct
    homhopf antipode FILE            verify or solve for antipodes
    homhopf admissible FILE          canonical mapping-system conditions
    homhopf iso FILE                 the biproduct isomorphism round trip
    homhopf selftest                 re-run the corpus against its goldens

Exit codes: 0 all checks passed, 1 some check failed (a witness is
printed), 2 input error.  ``--json`` emits machine-readable reports with
stable key order.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import corpus
from .admissible import (
    IsoCheckFailError,
    NotAdmissibleError,
    admissible_isomorphism,
    canonical_system,
    check_admissible,
)
from .constructions import (
    BiproductSpec,
    ConditionsFailError,
    CrossedProductSpec,
    PreconditionFailError,
    assemble_biproduct,
    biproduct_antipode,
    build_biproduct,
    check_biproduct_antipode,
    check_biproduct_conditions,
    check_cocycle_conditions,
    check_twisted_comodule_cocycle,
    crossed_product,
    smash_coproduct,
)
from .convact import (
    Coaction,
    ModuleAction,
    NotConvolutionInvertible,
    check_comodule_coalgebra,
    check_hom_module,
    check_weak_module_algebra,
    convolution_inverse,
)
from .exactlin import identity, maps_equal
from .homcore import (
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    HomHopf,
    check_antipode,
    check_hom_algebra,
    check_hom_bialgebra,
    check_hom_coalgebra,
)
from .report import CheckReport
from .structfile import DocumentBuilder, StructError, parse


EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _as_bialgebra(obj):
    return obj.bialgebra if isinstance(obj, HomHopf) else obj


def _bialgebra_checks(what: str, obj):
    """The (check name, thunk) pairs of a bialgebra or Hopf bundle.  Its
    axioms are swept once: the hom-algebra and hom-coalgebra reports are the
    halves of its one hom-bialgebra report, which hom-hopf reuses.  Asked
    for one half alone, only that half is swept."""
    b = _as_bialgebra(obj)
    is_hopf = isinstance(obj, HomHopf)
    if what == "hom-algebra":
        yield what, lambda: check_hom_algebra(b.algebra)
    elif what == "hom-coalgebra":
        yield what, lambda: check_hom_coalgebra(b.coalgebra)
    elif what in ("all", "hom-bialgebra") or what == "hom-hopf" and is_hopf:
        report = check_hom_bialgebra(b)
        if what == "all":
            yield "hom-algebra", lambda: report.sub("hom_algebra")
            yield "hom-coalgebra", lambda: report.sub("hom_coalgebra")
        if what != "hom-hopf":
            yield "hom-bialgebra", lambda: report
        if what != "hom-bialgebra" and is_hopf:
            yield "hom-hopf", lambda: CheckReport.combine(
                "hom_hopf", [report, check_antipode(obj)])


def _applicable_checks(what: str, obj, swept: dict):
    """Yield (check name, thunk) pairs applying the axiom set to a bundle.
    An action, coaction or crossed datum shared between bundles is swept
    once per check: ``swept`` keeps the report under the check name and the
    object's identity, which the parsed file keeps alive."""

    def once(check: str, sweep, target):
        def thunk():
            key = (check, id(target))
            if key not in swept:
                swept[key] = sweep(target)
            return swept[key]
        return check, thunk

    if isinstance(obj, (HomBialgebra, HomHopf)):
        yield from _bialgebra_checks(what, obj)
    if what in ("hom-algebra", "all") and isinstance(obj, HomAlgebra):
        yield "hom-algebra", lambda: check_hom_algebra(obj)
    if what in ("hom-coalgebra", "all") and isinstance(obj, HomCoalgebra):
        yield "hom-coalgebra", lambda: check_hom_coalgebra(obj)

    action = None
    if isinstance(obj, ModuleAction):
        action = obj
    elif isinstance(obj, CrossedProductSpec):
        action = obj.action
    elif isinstance(obj, BiproductSpec):
        action = obj.crossed.action
    if action is not None:
        if what in ("weak-module-algebra", "all"):
            yield once("weak-module-algebra", check_weak_module_algebra,
                       action)
        if what in ("hom-module", "all"):
            yield once("hom-module", check_hom_module, action)

    coaction = None
    if isinstance(obj, Coaction):
        coaction = obj
    elif isinstance(obj, BiproductSpec):
        coaction = obj.coaction
    if coaction is not None and what in ("comodule-coalgebra", "all"):
        yield once("comodule-coalgebra", check_comodule_coalgebra, coaction)

    crossed = None
    if isinstance(obj, CrossedProductSpec):
        crossed = obj
    elif isinstance(obj, BiproductSpec):
        crossed = obj.crossed
    if crossed is not None and what in ("cocycle-conditions", "all"):
        yield once("cocycle-conditions", check_cocycle_conditions, crossed)

    if isinstance(obj, BiproductSpec):
        if what in ("twisted-cocycle", "all"):
            yield "twisted-cocycle", \
                lambda: check_twisted_comodule_cocycle(obj)
        if what in ("biproduct-conditions", "all"):
            yield "biproduct-conditions", \
                lambda: check_biproduct_conditions(obj)


class Output:
    """Collects per-check results and renders text or JSON."""

    def __init__(self, as_json: bool):
        self.as_json = as_json
        self.results = []

    def add(self, bundle: str, check: str, report: CheckReport):
        self.results.append((bundle, check, report))
        if not self.as_json:
            tag = "pass" if report.passed else "FAIL"
            print(f"[{tag}] {bundle}: {check}")
            if not report.passed:
                bad = report.first_failure() or report
                w = bad.witness
                print(f"       failing identity: {bad.name}")
                if w is not None:
                    print(f"       at basis tuple ({', '.join(w.basis)})")
                    print(f"       lhs = ({', '.join(str(v) for v in w.lhs)})")
                    print(f"       rhs = ({', '.join(str(v) for v in w.rhs)})")

    def note(self, message: str):
        if not self.as_json:
            print(message)

    def finish(self, command: str, exit_code=None) -> int:
        failed = [r for _, _, r in self.results if not r.passed]
        if exit_code is None:
            exit_code = EXIT_CHECK_FAILED if failed else EXIT_OK
        if self.as_json:
            doc = {
                "command": command,
                "exit_code": exit_code,
                "results": [
                    {"bundle": b, "check": c, "report": r.as_dict()}
                    for b, c, r in self.results
                ],
            }
            print(json.dumps(doc, sort_keys=True, indent=2))
        return exit_code


def _load(path: str) -> "StructureFile":
    with open(path, "rb") as fh:
        return parse(fh.read())


def _input_error(message: str, as_json: bool, command: str) -> int:
    if as_json:
        print(json.dumps({"command": command, "exit_code": EXIT_INPUT_ERROR,
                          "error": message}, sort_keys=True, indent=2))
    else:
        print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def _file_command(command: str, body):
    """A command on a .struct file: load it, run ``body(args, sf, out)`` and
    render the results; an unreadable file or a ``StructError`` from the
    body (no bundle applies, ``build`` cannot write) is an input error."""
    def run(args) -> int:
        try:
            sf = _load(args.file)
        except (OSError, StructError, ValueError) as e:
            return _input_error(str(e), args.json, command)
        out = Output(args.json)
        try:
            body(args, sf, out)
        except StructError as e:
            return _input_error(str(e), args.json, command)
        return out.finish(command)
    return run


def _bundles(sf, kinds, missing: str) -> list:
    """The (name, bundle) pairs of the given kinds, in name order."""
    found = [(name, sf.bundles[name]) for name in sorted(sf.bundles)
             if isinstance(sf.bundles[name], kinds)]
    if not found:
        raise StructError(missing)
    return found


def _build_or_report(out, name: str, spec: BiproductSpec):
    """The built biproduct, or None once its failing conditions are added."""
    try:
        return build_biproduct(spec)
    except ConditionsFailError as e:
        out.add(name, "biproduct-conditions", e.report)
        return None


def cmd_check(args, sf, out):
    swept = {}
    checks = [(name, check_name, thunk) for name in sorted(sf.bundles)
              for check_name, thunk in _applicable_checks(
                  args.what, sf.bundles[name], swept)]
    if not checks:
        raise StructError(
            f"no bundle in {args.file} supports check {args.what!r}")
    for name, check_name, thunk in checks:
        out.add(name, check_name, thunk())


def _with_parameters(crossed: CrossedProductSpec, m, k) -> CrossedProductSpec:
    return replace(crossed, m=crossed.m if m is None else m,
                   k=crossed.k if k is None else k)


def cmd_build(args, sf, out):
    builder = DocumentBuilder(sf.field)
    if args.kind == "crossed":
        # The first crossed_spec bundle, else the first biproduct's datum.
        name, spec = min(_bundles(sf, (CrossedProductSpec, BiproductSpec),
                                  "no crossed_spec bundle found"),
                         key=lambda item: isinstance(item[1], BiproductSpec))
        if isinstance(spec, BiproductSpec):
            spec = spec.crossed
        algebra = crossed_product(_with_parameters(spec, args.m, args.k))
        out.add(name, "hom-algebra", check_hom_algebra(algebra))
        builder.add_hom_algebra("built_crossed_product", algebra)
    elif args.kind == "smash":
        name, spec = _bundles(sf, BiproductSpec,
                              "no biproduct_spec bundle found")[0]
        m = spec.crossed.m if args.m is None else args.m
        coalgebra = smash_coproduct(
            spec.coalgebra, spec.crossed.hopf_bialgebra, spec.coaction, m)
        out.add(name, "hom-coalgebra", check_hom_coalgebra(coalgebra))
        builder.add_hom_coalgebra("built_smash_coproduct", coalgebra)
    else:  # biproduct
        name, spec = _bundles(sf, BiproductSpec,
                              "no biproduct_spec bundle found")[0]
        built = _build_or_report(out, name, replace(
            spec, crossed=_with_parameters(spec.crossed, args.m, args.k)))
        if built is None:
            return
        out.add(name, "biproduct-conditions", built.conditions)
        out.add(name, "hom-bialgebra", built.bialgebra_check)
        builder.add_hom_bialgebra("built_biproduct", built.bialgebra)

    if args.output:
        builder.write(args.output)
        out.note(f"wrote {args.output}")
    elif not args.json:
        print(builder.to_text(), end="")


def _identity_inverse(bialgebra):
    """Solve for the convolution inverse of the identity (the antipode)."""
    return convolution_inverse(identity(bialgebra.field, bialgebra.space),
                               bialgebra.coalgebra, bialgebra.algebra)


def cmd_antipode(args, sf, out):
    for name, obj in _bundles(sf, (HomHopf, BiproductSpec),
                              f"no hopf or biproduct bundle in {args.file}"):
        if isinstance(obj, HomHopf):
            out.add(name, "antipode-law", check_antipode(obj))
            try:
                solved = _identity_inverse(obj.bialgebra)
            except NotConvolutionInvertible:
                out.add(name, "antipode-unique",
                        CheckReport("identity_convolution_invertible", False))
                continue
            out.add(name, "antipode-unique", maps_equal(
                solved, obj.antipode, "solved_inverse_matches_antipode"))
            continue
        hopf = obj.crossed.hopf
        s_a_name = sf.extras.get(name, {}).get("algebra_antipode")
        if isinstance(hopf, HomHopf) and s_a_name is not None:
            bialgebra = assemble_biproduct(obj)
            try:
                s = biproduct_antipode(obj, bialgebra, hopf.antipode,
                                       sf.maps[s_a_name])
            except PreconditionFailError as e:
                out.add(name, "biproduct-antipode", e.report)
                continue
            out.add(name, "biproduct-antipode",
                    check_biproduct_antipode(bialgebra, s))
            continue
        built = _build_or_report(out, name, obj)
        if built is None:
            continue
        try:
            _identity_inverse(built.bialgebra)
            invertible = True
        except NotConvolutionInvertible:
            invertible = False
        out.add(name, "biproduct-antipode",
                CheckReport("identity_convolution_invertible", invertible))


def _biproduct_systems(args, sf, out):
    for name, spec in _bundles(sf, BiproductSpec,
                               f"no biproduct_spec bundle in {args.file}"):
        built = _build_or_report(out, name, spec)
        if built is not None:
            yield name, canonical_system(built)


def cmd_admissible(args, sf, out):
    for name, system in _biproduct_systems(args, sf, out):
        out.add(name, "admissible-system", check_admissible(system))


def cmd_iso(args, sf, out):
    for name, system in _biproduct_systems(args, sf, out):
        try:
            _, _, report = admissible_isomorphism(system)
            out.add(name, "biproduct-isomorphism", report)
        except NotAdmissibleError as e:
            out.add(name, "admissible-system", e.report)
        except IsoCheckFailError as e:
            out.add(name, "biproduct-isomorphism", e.report)


def cmd_selftest(args) -> int:
    out = Output(args.json)
    ok, results = corpus.selftest()
    total = 0
    for entry_name in sorted(results):
        for check_name in sorted(results[entry_name]):
            expected, got = results[entry_name][check_name]
            total += 1
            matched = expected == got
            out.add(entry_name, check_name, CheckReport(
                f"golden[expected={expected}, got={got}]", matched))
    out.note(f"{total} golden checks, "
             + ("all match" if ok else "MISMATCHES FOUND"))
    return out.finish("selftest",
                      exit_code=EXIT_OK if ok else EXIT_CHECK_FAILED)


WHAT_CHOICES = [
    "hom-algebra", "hom-coalgebra", "hom-bialgebra", "hom-hopf",
    "weak-module-algebra", "hom-module", "comodule-coalgebra",
    "cocycle-conditions", "twisted-cocycle", "biproduct-conditions", "all",
]


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homhopf",
        description="Exact verification of twisted Hopf-algebraic structures "
                    "given by structure constants.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify an axiom set on a .struct file")
    p.add_argument("file")
    p.add_argument("--what", choices=WHAT_CHOICES, default="all")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_file_command("check", cmd_check))

    p = sub.add_parser("build", help="build a derived structure")
    p.add_argument("kind", choices=["crossed", "smash", "biproduct"])
    p.add_argument("file")
    p.add_argument("-m", type=int, default=None)
    p.add_argument("-k", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_file_command("build", cmd_build))

    p = sub.add_parser("antipode", help="verify or solve for antipodes")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_file_command("antipode", cmd_antipode))

    p = sub.add_parser("admissible",
                       help="check the canonical mapping system")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_file_command("admissible", cmd_admissible))

    p = sub.add_parser("iso", help="verify the biproduct isomorphism")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_file_command("iso", cmd_iso))

    p = sub.add_parser("selftest", help="re-run the corpus goldens")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
