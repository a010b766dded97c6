"""Each module of the package exports exactly what it defines in public."""

import importlib
import inspect
import pkgutil

import pytest

import matmi

MODULES = sorted(
    f"matmi.{info.name}" for info in pkgutil.iter_modules(matmi.__path__)
    if info.name != "__main__"   # importing it runs the command
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_the_public_functions_and_classes(name):
    # a constant may be exported too (mesh.MAX_ELEMENTS); an imported name may not
    module = importlib.import_module(name)
    defined = {
        attr for attr, value in vars(module).items()
        if not attr.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == name
    }
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert all(hasattr(module, attr) for attr in exported)
    routines = {
        attr for attr in exported
        if inspect.isfunction(getattr(module, attr)) or inspect.isclass(getattr(module, attr))
    }
    assert routines == defined
