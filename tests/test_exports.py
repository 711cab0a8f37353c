import importlib
import pkgutil

import pytest

import pcbs

MODULES = ["pcbs"] + [f"pcbs.{info.name}" for info in pkgutil.iter_modules(pcbs.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_bound(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [item for item in exported if not hasattr(module, item)] == []
    assert len(set(exported)) == len(exported)


def test_star_import_binds_the_package_exports():
    namespace = {}
    exec("from pcbs import *", namespace)
    assert set(pcbs.__all__) <= namespace.keys()
