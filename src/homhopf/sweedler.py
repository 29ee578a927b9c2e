"""Sweedler terms: each side of an axiom written once, as a formula over
its input legs, and compiled into one map with a ``Pipeline``.

A term is one of:

  * an input leg, from ``inputs(*spaces)``;
  * a map applied to the tensor of its argument terms, built by calling
    the map: ``m(alpha(x), m(y, z))``;
  * one half of a split, ``x1, x2 = split(delta, x)``, of an input, of a
    half, or of a computed value;
  * a constant vector, ``const(space, coords)``, adjoined as a new leg.

``compile_map(field, inputs, outputs)`` returns the map from the tensor of
``inputs``, in the order given, to the tensor of ``outputs``.  The ground
field is the unit of that tensor (``exactlin.tensor_space``), so an output
in k beside others, a counit's value, is absorbed: ``[x1, eps(x2)]``
lands on x's space itself.  It has one schedule:

  1. split the inputs, and every half that is split again, in the order
     the outputs first read their legs, each in place;
  2. if the leaves need a permute, apply each one-argument map on a leaf
     where the leaf stands (the permute fuses every block, so a map after
     it would rewrite the fused block), then permute the leaves once into
     the order the outputs read them;
  3. evaluate the rest bottom-up, left to right: a map on adjacent legs
     is one ``map_leg`` or ``merge_legs``, a constant is adjoined where it
     is read, and a computed value is split in place.  Only where such a
     split leaves a map's arguments apart does a ``permute`` bring them
     together, and then a last one puts the outputs in order.

Every leg is read exactly once.  A term that reads a leg twice, leaves an
input or a split half unread, or gives a map arguments off its domain
raises ``ValueError`` (``DimensionMismatch`` for the domain) before any
step.  The notation is Sweedler's (*Hopf Algebras*, 1969).

``holds(field, name, inputs, lhs, rhs)`` states an identity: each side is
a list of output terms, compiled as above (the lhs first), or a
``LinearMap`` out of the tensor of ``inputs``, used as it is.  It returns
``equal_on_basis`` of the two maps, and a failing basis tuple is named
over the input legs: the witness factors are the inputs' spaces, never
typed a second time.  ``holds`` is the only place a formula side is
compared: no check outside this module passes ``compile_map(...)``, or a
map composed from it, to ``equal_on_basis``.
"""

from __future__ import annotations

from .exactlin import (
    DimensionMismatch,
    LinearMap,
    Pipeline,
    Space,
    equal_on_basis,
    tensor_space_list,
)
from .report import CheckReport


class Term:
    """One leg of a Sweedler formula: ``kind`` is "input", "map", "half"
    or "const".  A "split" node is no leg but what the two halves of one
    split share: its ``args`` hold the split term and its ``data`` the
    halves' spaces; a half's ``data`` is its side, 0 or 1.  No term refers
    back to a term built after it, so a formula holds no reference cycle
    and is freed without the cyclic garbage collector.  Calling a
    ``LinearMap`` on terms builds a "map" term."""

    __slots__ = ("kind", "space", "map", "args", "data")

    def __init__(self, kind, space, f=None, args=(), data=None):
        self.kind = kind
        self.space = space
        self.map = f
        self.args = args
        self.data = data


def inputs(*spaces: Space) -> tuple[Term, ...]:
    return tuple([Term("input", s) for s in spaces])


def split(f: LinearMap, x: Term, left: Space | None = None,
          right: Space | None = None) -> tuple[Term, Term]:
    """The two halves of f(x) in left (x) right, both x's space unless
    given (a comultiplication)."""
    left, right = left or x.space, right or x.space
    if (f.domain is not x.space and f.domain != x.space) \
            or f.codomain.dim != left.dim * right.dim:
        raise DimensionMismatch("a split map does not fit its leg")
    node = Term("split", None, f, (x,), (left, right))
    return Term("half", left, None, (node,), 0), Term("half", right, None, (node,), 1)


def const(space: Space, coords) -> Term:
    coords = tuple(coords)
    if len(coords) != space.dim:
        raise DimensionMismatch("constant coordinates do not match space")
    return Term("const", space, None, (), coords)


class _Reading:
    """What one walk over a formula's outputs finds, bottom-up and left
    to right: the leaves in reading order, the splits of inputs and of
    leaf halves in the order their legs are first read, and the maps,
    constants and splits of computed values in evaluation order.  (A
    method, not a recursive closure, which would be a reference cycle.)"""

    __slots__ = ("ins", "read", "halves", "leaf_splits", "leaves", "splits",
                 "program", "leaves_before")

    def __init__(self, ins):
        self.ins, self.read, self.halves = ins, set(), {}
        self.leaf_splits, self.leaves, self.splits = set(), [], []
        self.program, self.leaves_before = [], {}

    def visit(self, t: Term, whole=True):
        """Read t, once; ``whole`` is false for a term a split consumes."""
        if t in self.read:
            raise ValueError("a Sweedler term reads a leg twice")
        self.read.add(t)
        kind = t.kind
        if kind == "map":
            for a in t.args:
                self.visit(a)
            if not _fits(t):
                raise DimensionMismatch("a map is applied off its domain")
            self.program.append(t)
        elif kind == "input":
            if t not in self.ins:
                raise ValueError("a Sweedler term reads a leg not among its inputs")
            if whole:
                self.leaves.append(t)
        elif kind == "half":
            node = t.args[0]
            halves = self.halves.get(node)
            if halves is None:
                halves = self.halves[node] = [None, None]
                source = node.args[0]
                self.visit(source, False)
                if source.kind == "input" or source.kind == "half" and \
                        source.args[0] in self.leaf_splits:
                    self.leaf_splits.add(node)
                    self.splits.append(node)
                else:
                    self.program.append(node)
            halves[t.data] = t
            if whole and node in self.leaf_splits:
                self.leaves.append(t)
        else:
            self.leaves_before[t] = len(self.leaves)
            self.program.append(t)


def _fits(t: Term) -> bool:
    """Whether the map term t is applied to the tensor of its domain."""
    domain, args = t.map.domain, t.args
    if len(args) == 1:
        return args[0].space is domain or args[0].space == domain
    dim = 1
    for a in args:
        dim *= a.space.dim
    return len(args) > 1 and dim == domain.dim


def compile_map(field, ins, outs) -> LinearMap:
    """The map of the formula ``outs`` over the input legs ``ins``."""
    ins, outs = tuple(ins), list(outs)
    r = _Reading(ins)
    for t in outs:
        r.visit(t)
    if not r.read.issuperset(ins) or any(
            None in halves for halves in r.halves.values()):
        raise ValueError("a Sweedler term leaves an input or a split half unread")

    pipe = Pipeline(field, [t.space for t in ins])
    legs = list(ins)
    for node in r.splits:
        at = legs.index(node.args[0])
        pipe.split_leg(at, node.map, *node.data)
        legs[at:at + 1] = r.halves[node]
    program = r.program
    if legs != r.leaves:                # maps on leaves go before the permute
        order, leaves = [legs.index(t) for t in r.leaves], set(r.leaves)
        for t in program:
            if t.kind == "map" and len(t.args) == 1 and t.args[0] in leaves:
                at = legs.index(t.args[0])
                pipe.map_leg(at, t.map)
                legs[at] = t
        program = [t for t in program if t not in legs]  # not yet applied
        pipe.permute(order)
        legs = [legs[i] for i in order]
    for t in program:
        kind = t.kind
        if kind == "map" and len(t.args) == 1:
            at = legs.index(t.args[0])
            pipe.map_leg(at, t.map)
            legs[at] = t
        elif kind == "map":
            at = _place(pipe, legs, list(t.args))
            pipe.merge_legs(at, len(t.args), t.map)
            legs[at:at + len(t.args)] = [t]
        elif kind == "const":           # adjoined before the unread leaves
            at = len(legs) - len(r.leaves) + r.leaves_before[t]
            pipe.adjoin_vector(at, t.space, t.data)
            legs.insert(at, t)
        else:                           # a computed value, split in place
            at = legs.index(t.args[0])
            pipe.split_leg(at, t.map, *t.data)
            legs[at:at + 1] = r.halves[t]
    _place(pipe, legs, outs)
    return pipe.finish()


def holds(field, name, ins, lhs, rhs) -> CheckReport:
    """Whether the sides ``lhs`` and ``rhs`` agree on every basis tuple of
    the input legs ``ins``; a map side off their tensor raises
    ``DimensionMismatch`` before either side is compiled."""
    factors = tuple([t.space for t in ins])
    domain = tensor_space_list(factors)
    if isinstance(lhs, LinearMap) and lhs.domain != domain \
            or isinstance(rhs, LinearMap) and rhs.domain != domain:
        raise DimensionMismatch(
            f"{name}: compared maps live on different spaces")
    if not isinstance(lhs, LinearMap):
        lhs = compile_map(field, ins, lhs)
    if not isinstance(rhs, LinearMap):
        rhs = compile_map(field, ins, rhs)
    return equal_on_basis(name, lhs, rhs, factors)


def _place(pipe, legs, args) -> int:
    """Make the legs ``args`` adjacent, in order, and return the first
    one's position.  Only a split of a computed value can have left them
    apart; ``legs`` follows the permute."""
    at = legs.index(args[0])
    if legs[at:at + len(args)] != args:
        where = [legs.index(a) for a in args]
        at = min(where)
        order = [*range(at), *where,
                 *(i for i in range(at, len(legs)) if i not in where)]
        pipe.permute(order)
        legs[:] = [legs[i] for i in order]
    return at
