import importlib
import pkgutil

import pytest

import yamabe

MODULES = [yamabe] + [importlib.import_module(f"yamabe.{info.name}")
                      for info in pkgutil.iter_modules(yamabe.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    names = getattr(module, "__all__", ())
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(module, name)] == []
