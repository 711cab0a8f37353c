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


# cli and selftest are the front end; every other module's __all__ is exported by pcbs
LIBRARY = [name for name in MODULES[1:] if name not in ("pcbs.cli", "pcbs.selftest")]


def test_pcbs_exports_each_library_module_all():
    exported = ["__version__"]
    for name in LIBRARY:
        module = importlib.import_module(name)
        for item in module.__all__:
            assert getattr(pcbs, item) is getattr(module, item), (name, item)
        exported += module.__all__
    assert sorted(pcbs.__all__) == sorted(exported)


def test_every_error_type_is_exported():
    defined = {name for name, obj in vars(pcbs.errors).items()
               if isinstance(obj, type) and issubclass(obj, pcbs.errors.PcbsError)}
    assert defined == set(pcbs.errors.__all__)
