"""Every name in the ``__all__`` of an aqsense module resolves, so that
``from module import *`` works after names move or are removed."""

import importlib
import pkgutil

import pytest

import aqsense

MODULES = ["aqsense"] + sorted(m.name for m in pkgutil.walk_packages(aqsense.__path__, "aqsense."))


def test_every_module_is_listed():
    assert {"aqsense.qcore", "aqsense.qsv", "aqsense.qsv.spectra", "aqsense.sensing"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(getattr(module, "__all__", ())) <= set(namespace)
