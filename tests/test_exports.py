"""The package exports every module's __all__: one list per module, stated once."""

import importlib
import inspect
import pkgutil

import needlets

MODULES = [
    importlib.import_module(f"needlets.{m.name}")
    for m in pkgutil.iter_modules(needlets.__path__)
    if m.name != "__main__"  # importing it runs the command line
]


def _defined_in(module, name: str) -> bool:
    if not hasattr(module, name):
        return False
    obj = getattr(module, name)
    # a class or function is listed by the module that defines it, and only there
    return not (inspect.isclass(obj) or inspect.isfunction(obj)) or obj.__module__ == module.__name__


def test_every_module_name_is_exported_as_itself():
    missing = [
        f"{module.__name__}.{name}"
        for module in MODULES
        for name in getattr(module, "__all__", ())
        if getattr(needlets, name, None) is not getattr(module, name, ())
    ]
    assert missing == []


def test_every_all_entry_is_defined_in_its_module():
    undefined = [
        f"{module.__name__}.{name}"
        for module in MODULES
        for name in getattr(module, "__all__", ())
        if not _defined_in(module, name)
    ]
    assert undefined == []
