"""Every name a module lists in ``__all__`` exists."""

import importlib
import pkgutil

import natsel


def test_every_listed_name_resolves():
    modules = [natsel] + [
        importlib.import_module(f"natsel.{info.name}")
        for info in pkgutil.iter_modules(natsel.__path__)]
    checked = 0
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
            checked += 1
    assert checked > len(natsel.__all__)
