"""The .struct file format: JSON-compatible text describing spaces, maps,
rank-3 structure-constant tensors, and bundles assembling them into the
package's structures.

Layout (all scalars are strings in the grammar
``[+-]?digits[/positive-digits]``; rationals are normalized to lowest terms
with positive denominator when written):

    {
      "format_version": 1,
      "field": "Q" | "GF(p)",
      "spaces":  {name: {"basis": [str, ...]}},
      "maps":    {name: {"domain": space, "codomain": space,
                         "matrix": [[scalar, ...], ...]}},
      "tensors": {name: {"shape": [space, space, space],
                         "entries": [[[scalar, ...], ...], ...]}},
      "bundles": {name: {"type": ..., ...}}
    }

Bundle types and their fields (values are names of spaces, maps, tensors or
other bundles; vectors are inline scalar lists):

    hom_algebra    space, mult, unit, structure_map
    hom_coalgebra  space, comult, counit, structure_map
    hom_bialgebra  space, mult, unit, comult, counit, structure_map
    hom_hopf       as hom_bialgebra plus antipode
    module_action  acting, target, tensor
    coaction       coacting, target, tensor
    cocycle        source, target, tensor
    crossed_spec   algebra, hopf, action, cocycle, m, k
    biproduct_spec crossed, coalgebra, coaction
                   (optional: algebra_antipode, the name of a map from
                   the algebra space to itself)

A bundle body holding any other key is a ``StructError`` naming the key and
the bundle, so a misspelled optional key is not silently dropped.

Canonical serialization is ``json.dumps(..., sort_keys=True, indent=2)``
plus a trailing newline; parse and serialize are mutually inverse on
canonical text.
"""

from __future__ import annotations

import json

from .constructions import BiproductSpec, CrossedProductSpec
from .convact import Coaction, Cocycle, ModuleAction
from .exactlin import LinearMap, Space
from .fields import BadRational, field_from_tag
from .homcore import HomAlgebra, HomBialgebra, HomCoalgebra, HomHopf


class StructError(ValueError):
    """Base class for structure-file problems."""


class StructSyntaxError(StructError):
    """Malformed JSON, with line and column."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class UnknownReferenceError(StructError):
    """A name that does not resolve to a declared object."""


class StructShapeError(StructError):
    """Dimensions that do not line up with the declared spaces."""


FORMAT_VERSION = 1

_BIALGEBRA_KEYS = ("space", "mult", "unit", "comult", "counit",
                   "structure_map")
# every key a bundle body of each type may hold, besides "type"
_BUNDLE_KEYS = {
    "hom_algebra": ("space", "mult", "unit", "structure_map"),
    "hom_coalgebra": ("space", "comult", "counit", "structure_map"),
    "hom_bialgebra": _BIALGEBRA_KEYS,
    "hom_hopf": _BIALGEBRA_KEYS + ("antipode",),
    "module_action": ("acting", "target", "tensor"),
    "coaction": ("coacting", "target", "tensor"),
    "cocycle": ("source", "target", "tensor"),
    "crossed_spec": ("algebra", "hopf", "action", "cocycle", "m", "k"),
    "biproduct_spec": ("crossed", "coalgebra", "coaction",
                       "algebra_antipode"),
}

# each record bundle type: its record, the key naming the bialgebra that owns
# it, and the type its target bundle must have
_RECORDS = {
    "module_action": (ModuleAction, "acting", "hom_algebra"),
    "coaction": (Coaction, "coacting", "hom_coalgebra"),
    "cocycle": (Cocycle, "source", "hom_algebra"),
}


class StructureFile:
    """A fully validated structure file: the canonical document plus the
    resolved objects."""

    def __init__(self, field, raw, spaces, maps, tensors, bundles,
                 bundle_types, extras):
        self.field = field
        self.raw = raw
        self.spaces = spaces
        self.maps = maps
        self.tensors = tensors
        self.bundles = bundles
        self.bundle_types = bundle_types
        self.extras = extras  # bundle -> {"algebra_antipode": map name}

    def serialize(self) -> str:
        return canonical_text(self.raw)


def canonical_text(document: dict) -> str:
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def _require(cond, exc, message):
    if not cond:
        raise exc(message)


def _parse_scalar(field, value, where):
    if not isinstance(value, str):
        raise BadRational(f"{where}: scalar literals must be strings, got "
                          f"{type(value).__name__}")
    try:
        return field.parse(value)
    except BadRational as e:
        raise BadRational(f"{where}: {e}") from None


def parse(text) -> StructureFile:
    """Parse and validate a structure file; all references must resolve and
    every matrix and tensor must match its declared spaces."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise StructSyntaxError(e.msg, e.lineno, e.colno) from None
    _require(isinstance(doc, dict), StructSyntaxError,
             "top level must be a JSON object")
    _require(doc.get("format_version") == FORMAT_VERSION, StructError,
             f"unsupported format_version {doc.get('format_version')!r}")
    try:
        field = field_from_tag(doc.get("field", ""))
    except ValueError as e:
        raise StructError(str(e)) from None

    def section(key):
        body = doc.get(key, {})
        _require(isinstance(body, dict), StructShapeError,
                 f"{key} must be an object")
        return body

    def lookup(table, kind, name, where):
        _require(isinstance(name, str) and name in table,
                 UnknownReferenceError, f"{where}: unknown {kind} {name!r}")
        return table[name]

    spaces = {}
    for name, body in sorted(section("spaces").items()):
        _require(isinstance(body, dict) and isinstance(body.get("basis"), list),
                 StructShapeError, f"space {name!r} needs a basis list")
        basis = body["basis"]
        _require(all(isinstance(b, str) for b in basis), StructShapeError,
                 f"space {name!r}: basis names must be strings")
        try:
            spaces[name] = Space(tuple(basis))
        except ValueError as e:
            raise StructShapeError(f"space {name!r}: {e}") from None

    def get_space(name, where):
        return lookup(spaces, "space", name, where)

    maps = {}
    for name, body in sorted(section("maps").items()):
        _require(isinstance(body, dict), StructShapeError,
                 f"map {name!r} must be an object")
        dom = get_space(body.get("domain"), f"map {name!r}")
        cod = get_space(body.get("codomain"), f"map {name!r}")
        matrix = body.get("matrix")
        _require(isinstance(matrix, list) and len(matrix) == cod.dim
                 and all(isinstance(r, list) and len(r) == dom.dim
                         for r in matrix),
                 StructShapeError,
                 f"map {name!r}: matrix must be {cod.dim}x{dom.dim}")
        rows = [[_parse_scalar(field, v, f"map {name!r}") for v in row]
                for row in matrix]
        maps[name] = LinearMap(field, dom, cod, rows)

    tensors = {}
    for name, body in sorted(section("tensors").items()):
        _require(isinstance(body, dict), StructShapeError,
                 f"tensor {name!r} must be an object")
        shape = body.get("shape")
        _require(isinstance(shape, list) and len(shape) == 3,
                 StructShapeError, f"tensor {name!r}: shape must list 3 spaces")
        dims = [get_space(s, f"tensor {name!r}").dim for s in shape]
        entries = body.get("entries")
        _require(isinstance(entries, list) and len(entries) == dims[0]
                 and all(isinstance(s, list) and len(s) == dims[1]
                         for s in entries)
                 and all(isinstance(p, list) and len(p) == dims[2]
                         for s in entries for p in s),
                 StructShapeError,
                 f"tensor {name!r}: entries must be "
                 f"{dims[0]}x{dims[1]}x{dims[2]}")
        tensors[name] = tuple(
            tuple(tuple(_parse_scalar(field, v, f"tensor {name!r}")
                        for v in plane) for plane in slab)
            for slab in entries
        )

    bundle_specs = section("bundles")
    for name, body in bundle_specs.items():
        _require(isinstance(body, dict), StructError,
                 f"bundle {name!r} must be an object")
        kind = body.get("type")
        _require(isinstance(kind, str) and kind in _BUNDLE_KEYS, StructError,
                 f"bundle {name!r}: unknown type {kind!r}")
        for key in body:
            _require(key == "type" or key in _BUNDLE_KEYS[kind], StructError,
                     f"bundle {name!r}: unknown key {key!r} for type {kind!r}")

    bundles: dict = {}
    bundle_types: dict = {}
    extras: dict = {}
    resolving: list = []

    def get_map(name, where):
        return lookup(maps, "map", name, where)

    def get_tensor(name, where):
        return lookup(tensors, "tensor", name, where)

    def get_vector(body, key, space, where):
        vec = body.get(key)
        _require(isinstance(vec, list) and len(vec) == space.dim,
                 StructShapeError,
                 f"{where}: {key} must be a vector of length {space.dim}")
        return [_parse_scalar(field, v, where) for v in vec]

    def resolve(name):
        _require(isinstance(name, str) and name in bundle_specs,
                 UnknownReferenceError, f"unknown bundle {name!r}")
        if name in bundles:
            return bundles[name]
        _require(name not in resolving, StructError,
                 f"bundle reference cycle through {name!r}")
        resolving.append(name)
        body = bundle_specs[name]
        kind = body["type"]
        where = f"bundle {name!r}"
        try:
            obj = _build_bundle(kind, body, where)
        finally:
            resolving.pop()
        bundles[name] = obj
        bundle_types[name] = kind
        return obj

    def as_bialgebra(name, where):
        obj = resolve(name)
        if isinstance(obj, HomHopf):
            return obj.bialgebra
        _require(isinstance(obj, HomBialgebra), StructError,
                 f"{where}: bundle {name!r} is not a bialgebra")
        return obj

    def _build_bundle(kind, body, where):
        if kind in ("hom_algebra", "hom_coalgebra", "hom_bialgebra",
                    "hom_hopf"):
            space = get_space(body.get("space"), where)
            structure = get_map(body.get("structure_map"), where)
            algebra = coalgebra = None
            if kind != "hom_coalgebra":
                algebra = HomAlgebra(
                    field, space, get_tensor(body.get("mult"), where),
                    get_vector(body, "unit", space, where), structure)
            if kind != "hom_algebra":
                coalgebra = HomCoalgebra(
                    field, space, get_tensor(body.get("comult"), where),
                    get_vector(body, "counit", space, where), structure)
            if kind == "hom_algebra":
                return algebra
            if kind == "hom_coalgebra":
                return coalgebra
            bial = HomBialgebra(algebra, coalgebra)
            if kind == "hom_bialgebra":
                return bial
            return HomHopf(bial, get_map(body.get("antipode"), where))

        if kind in _RECORDS:
            record, owner, target_kind = _RECORDS[kind]
            bialgebra = as_bialgebra(body.get(owner), where)
            target = resolve(body.get("target"))
            _require(bundle_types[body["target"]] == target_kind, StructError,
                     f"{where}: target must be a {target_kind} bundle")
            return record(bialgebra, target,
                          get_tensor(body.get("tensor"), where))

        if kind == "crossed_spec":
            algebra = resolve(body.get("algebra"))
            hopf = resolve(body.get("hopf"))
            action = resolve(body.get("action"))
            cocycle = resolve(body.get("cocycle"))
            # bool is a subclass of int: JSON true/false are not integers
            _require(all(type(body.get(key)) is int for key in ("m", "k")),
                     StructError, f"{where}: m and k must be integers")
            try:
                return CrossedProductSpec(
                    algebra=algebra, hopf=hopf, action=action,
                    cocycle=cocycle, m=body["m"], k=body["k"])
            except (TypeError, ValueError) as e:
                raise StructError(f"{where}: {e}") from None

        if kind == "biproduct_spec":
            crossed = resolve(body.get("crossed"))
            coalgebra = resolve(body.get("coalgebra"))
            coaction = resolve(body.get("coaction"))
            try:
                spec = BiproductSpec(crossed=crossed, coalgebra=coalgebra,
                                     coaction=coaction)
            except (TypeError, ValueError) as e:
                raise StructError(f"{where}: {e}") from None
            if "algebra_antipode" in body:
                s_a = get_map(body["algebra_antipode"],
                              f"{where}: algebra_antipode")
                asp = spec.crossed.algebra.space
                _require(s_a.domain == asp and s_a.codomain == asp,
                         StructShapeError, f"{where}: algebra_antipode must "
                         f"map the algebra space to itself")
                extras[name] = {"algebra_antipode": body["algebra_antipode"]}
            return spec

        raise StructError(f"{where}: unhandled bundle type {kind!r}")

    for name in sorted(bundle_specs):
        resolve(name)

    raw = _canonical_document(field, doc, spaces, maps, tensors, bundle_specs)
    return StructureFile(field, raw, spaces, maps, tensors, bundles,
                         bundle_types, extras)


def _canonical_document(field, doc, spaces, maps, tensors, bundle_specs):
    """Re-emit the parsed content with normalized scalars."""
    out = {
        "format_version": FORMAT_VERSION,
        "field": field.tag,
        "spaces": {name: {"basis": list(sp.names)}
                   for name, sp in spaces.items()},
        "maps": {},
        "tensors": {},
        "bundles": {},
    }
    for name, m in maps.items():
        body = doc["maps"][name]
        out["maps"][name] = {
            "domain": body["domain"],
            "codomain": body["codomain"],
            "matrix": [[field.format(v) for v in row] for row in m.matrix],
        }
    for name, cube in tensors.items():
        body = doc["tensors"][name]
        out["tensors"][name] = {
            "shape": list(body["shape"]),
            "entries": [[[field.format(v) for v in plane] for plane in slab]
                        for slab in cube],
        }
    for name, body in bundle_specs.items():
        clean = dict(body)
        for key in ("unit", "counit"):
            if key in clean:
                clean[key] = [field.format(field.parse(v)) for v in clean[key]]
        out["bundles"][name] = clean
    return out


class DocumentBuilder:
    """Assemble a .struct document from in-memory structures."""

    def __init__(self, field):
        self.field = field
        self.doc = {
            "format_version": FORMAT_VERSION,
            "field": field.tag,
            "spaces": {},
            "maps": {},
            "tensors": {},
            "bundles": {},
        }
        self._space_names: dict = {}

    def add_space(self, name: str, space: Space) -> str:
        if space.names in self._space_names:
            return self._space_names[space.names]
        self.doc["spaces"][name] = {"basis": list(space.names)}
        self._space_names[space.names] = name
        return name

    def space_name(self, space: Space) -> str:
        return self._space_names[space.names]

    def add_map(self, name: str, m: LinearMap) -> str:
        self.doc["maps"][name] = {
            "domain": self.space_name(m.domain),
            "codomain": self.space_name(m.codomain),
            "matrix": [[self.field.format(v) for v in row] for row in m.matrix],
        }
        return name

    def add_tensor(self, name: str, cube, shape_names) -> str:
        self.doc["tensors"][name] = {
            "shape": list(shape_names),
            "entries": [[[self.field.format(v) for v in plane]
                         for plane in slab] for slab in cube],
        }
        return name

    def add_bundle(self, name: str, body: dict) -> str:
        self.doc["bundles"][name] = body
        return name

    def _vector(self, vec):
        return [self.field.format(v) for v in vec]

    def add_hom_algebra(self, name: str, a: HomAlgebra) -> str:
        sp = self.add_space(f"{name}_space", a.space)
        return self.add_bundle(name, {
            "type": "hom_algebra",
            "space": sp,
            "mult": self.add_tensor(f"{name}_mult", a.mult, [sp, sp, sp]),
            "unit": self._vector(a.unit),
            "structure_map": self.add_map(f"{name}_alpha", a.alpha),
        })

    def add_hom_coalgebra(self, name: str, c: HomCoalgebra) -> str:
        sp = self.add_space(f"{name}_space", c.space)
        return self.add_bundle(name, {
            "type": "hom_coalgebra",
            "space": sp,
            "comult": self.add_tensor(f"{name}_comult", c.comult, [sp, sp, sp]),
            "counit": self._vector(c.counit),
            "structure_map": self.add_map(f"{name}_gamma", c.gamma),
        })

    def add_hom_bialgebra(self, name: str, b: HomBialgebra,
                          antipode: LinearMap | None = None) -> str:
        sp = self.add_space(f"{name}_space", b.space)
        body = {
            "type": "hom_bialgebra" if antipode is None else "hom_hopf",
            "space": sp,
            "mult": self.add_tensor(f"{name}_mult", b.algebra.mult,
                                    [sp, sp, sp]),
            "unit": self._vector(b.algebra.unit),
            "comult": self.add_tensor(f"{name}_comult", b.coalgebra.comult,
                                      [sp, sp, sp]),
            "counit": self._vector(b.coalgebra.counit),
            "structure_map": self.add_map(f"{name}_alpha", b.alpha),
        }
        if antipode is not None:
            body["antipode"] = self.add_map(f"{name}_antipode", antipode)
        return self.add_bundle(name, body)

    def add_hom_hopf(self, name: str, h: HomHopf) -> str:
        return self.add_hom_bialgebra(name, h.bialgebra, h.antipode)

    def to_text(self) -> str:
        return canonical_text(self.doc)

    def write(self, path: str):
        """Write the document to ``path``, unless a space's basis names
        collide (products' can), which ``parse`` would refuse to read."""
        for name, body in self.doc["spaces"].items():
            basis = body["basis"]
            if len(set(basis)) != len(basis):
                twice = next(b for b in basis if basis.count(b) > 1)
                raise StructError(f"cannot write space {name!r}: the basis "
                                  f"name {twice!r} names two vectors")
        with open(path, "w") as fh:
            fh.write(self.to_text())
