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
def held_nonzeros():
    """``held_nonzeros(build)`` returns ``build()`` and the nonzeros the
    blocks of every ``Pipeline`` hold after each of its steps, summed: a
    count of kernel work that does not depend on how a scalar is stored.
    A ``map_leg`` by the identity map is no step and adds nothing.  It is
    ``kernel_work.held_nonzeros``, which also counts a whole ladder pass
    and selftest."""
    from kernel_work import held_nonzeros

    return held_nonzeros
