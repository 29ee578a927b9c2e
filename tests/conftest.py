"""Shared fixtures."""

import importlib
import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` wraps the homhopf function ``name`` of
    ``homhopf.<module>`` in a call counter wherever a homhopf module binds
    it, and returns a one-element list holding the count."""

    def wrap(module: str, name: str) -> list:
        real = getattr(importlib.import_module(f"homhopf.{module}"), name)
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "homhopf" \
                    and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
        return calls

    return wrap


@pytest.fixture
def held_nonzeros(monkeypatch):
    """``held_nonzeros(build)`` returns ``build()`` and the nonzeros the
    blocks of every ``Pipeline`` hold after each of its steps, summed: a
    count of kernel work that does not depend on how a scalar is stored.
    A ``map_leg`` by the identity map is no step and adds nothing."""
    from homhopf.exactlin import Pipeline

    total = [0]

    def counted(real):
        def step(self, *args):
            out = real(self, *args)
            total[0] += sum(len(col) for _, cols, _ in self._blocks
                            if cols is not None for col in cols.values())
            return out
        return step

    def measure(build):
        total[0] = 0
        with monkeypatch.context() as patch:
            for name in ("_rewrite", "permute"):
                patch.setattr(Pipeline, name, counted(getattr(Pipeline, name)))
            result = build()
        return result, total[0]

    return measure
