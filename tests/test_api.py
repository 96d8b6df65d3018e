import importlib
import inspect
import pkgutil

import bifr


def test_public_surface():
    """Every exported name resolves, once; an export added or removed changes the count."""
    names = bifr.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(bifr, name)] == []
    assert len(names) == 37


def test_no_exception_class():
    """Refused input raises a builtin error: no bifr module defines an exception class."""
    modules = [bifr] + [
        importlib.import_module(f"bifr.{info.name}") for info in pkgutil.iter_modules(bifr.__path__)
    ]
    defined = [
        f"{module.__name__}.{name}"
        for module in modules
        for name, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__ and issubclass(cls, BaseException)
    ]
    assert bifr.catalog in modules and defined == []
