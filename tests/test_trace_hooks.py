"""The benchmark's per-layer trace wraps package functions by module
attribute; a renamed or moved function would silently drop out of it."""

import importlib

import pytest

from perfbench.tracer import WRAPPED


@pytest.mark.parametrize("module, attr, span", WRAPPED, ids=[w[2] for w in WRAPPED])
def test_traced_attribute_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr))
