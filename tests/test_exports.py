"""Every ``lanefuse`` module imports, each name in its ``__all__`` resolves,
and ``from lanefuse.<module> import *`` runs, so a stale export fails here
rather than in a user's star import."""

import importlib
import pkgutil

import pytest

import lanefuse

MODULES = sorted(info.name for info in pkgutil.iter_modules(lanefuse.__path__))


def test_every_module_is_listed():
    assert {"cli", "config", "pillar", "sim_eval"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve_and_star_import_runs(name):
    module = importlib.import_module(f"lanefuse.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from lanefuse.{name} import *", namespace)
    assert set(exported) <= set(namespace)
