import importlib
import pkgutil

import trivalent


def test_module_level_caches_are_the_named_ones():
    """Every function cache defined at module level in the package; a new
    one has to be added here, and to the README's mutable-state paragraph."""
    found = set()
    for info in pkgutil.iter_modules(trivalent.__path__):
        module = importlib.import_module(f"trivalent.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                found.add(f"{info.name}.{name}")
    assert found == {
        "semantics.truth_vector",
        "semantics.bool_vector",
        "semantics._var_vector",
        "semantics._bool_var_vector",
        "semantics._translate_unary",
        "semantics._translate_pair",
        "semantics._accept_table",
        "cli._shared_parser",
    }
