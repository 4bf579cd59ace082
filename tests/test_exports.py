"""Every name a module exports in `__all__` exists in it."""

import importlib

import pytest

MODULES = [
    "hypcert",
    "hypcert.interval",
    "hypcert.triangulation",
    "hypcert.gimbal",
    "hypcert.geometry",
    "hypcert.verify",
    "hypcert.certificate",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
